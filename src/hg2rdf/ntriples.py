"""Line-based N-Triples parsing.

The accepted grammar is the line-delimited subset

    subject ws predicate ws object ws? '.' ws?

where a subject is ``<IRI>`` or ``_:label``, a predicate is ``<IRI>``, and an
object is ``<IRI>``, ``_:label``, or a quoted literal with an optional
``@lang`` or ``^^<IRI>`` suffix; ``ws`` is space, tab or CR.  Lines of ``ws``
alone, or whose first other character is ``#``, are skipped.  A malformed
line never aborts a document: it becomes a :class:`ParseError` value with
its line number, and parsing goes on.  A parsed line is a :class:`Statement`,
the named tuple ``(subject, predicate, object)``, and keeps no line number.

Every term is a :class:`NodePayload`, the one RDF term type of the package,
a named tuple of six fields: the hypergraph layer stores the parser's terms
as hypernode payloads as they are, and :func:`format_term` renders them
back.  :func:`parse_document` makes one term object per distinct IRI and per
distinct blank label of the document, and every statement that names it
holds that object, so the later set and index lookups of equal terms meet
identical objects.  Terms are compared by value (RDF 1.1 term equality), so
sharing them changes no result.

A ``\\uXXXX`` escape, in an IRI or in a literal, must not name a surrogate
code point (U+D800 to U+DFFF): such a code point cannot be encoded as UTF-8,
so it is a ``BadEscape`` error at the backslash, and a lone surrogate
character in a line is an ``InvalidEncoding`` error at its column.
``_SURROGATE_RE`` (which :mod:`hg2rdf.hg2` shares) and ``_LINE_RE`` are built
from one surrogate range, and ``_LINE_RE`` and the scanner from one ``_WS``.

Each line is parsed in one of two ways.  The fast path is one compiled
regular expression, ``_LINE_RE``, matched against the whole line; it accepts
well-formed lines whose IRIs hold no ``\\u`` escape (literal escapes are
matched as pairs and decoded by :func:`unescape_literal`), which is nearly
every line of real data.  A line the expression does not match, or whose
literal holds a bad escape, goes to the character scanner ``_Scanner``, which
accepts the full grammar above.  The scanner is the only code that builds a
line's :class:`ParseError`, so error codes, messages and columns do not depend
on which path a line took first.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

_HEX_DIGITS = set("0123456789abcdefABCDEF")
_WS = " \t\r"

_SIMPLE_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}
# format_term's escapes: a literal writes its five simple escapes and \uXXXX
# for any other control character; an IRI writes \uXXXX for a character at
# or below space and for <, > and a backslash.
_LITERAL_ESCAPES = str.maketrans({
    **{chr(code): f"\\u{code:04X}" for code in range(0x20)},
    **{char: f"\\{name}" for name, char in _SIMPLE_ESCAPES.items()},
})
_IRI_ESCAPES = str.maketrans({
    char: f"\\u{ord(char):04X}" for char in (*map(chr, range(0x21)), "<", ">", "\\")
})

_BLANK_LABEL = r"[A-Za-z][A-Za-z0-9]*"
_LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_BLANK_LABEL_RE = re.compile(_BLANK_LABEL)
_LANG_TAG_RE = re.compile(_LANG_TAG)

# The surrogate code points, U+D800 to U+DFFF, as a character-class range:
# UTF-8 cannot encode them, so no line or document string may hold one.
_SURROGATES = r"\ud800-\udfff"
_SURROGATE_RE = re.compile(f"[{_SURROGATES}]")

# The scanner's grammar minus ``\u`` escapes in IRIs and lone surrogates.  An
# IRI character is what scan_iri accepts without an escape; literal content is
# what scan_literal collects (a backslash takes the next character with it).
# Labels and tags are matched greedily by the scanner and are always followed
# here by whitespace or '.', so backtracking cannot pick a different split.
_SPACE = f"[{_WS}]"
_IRI = rf"<([^\x00-\x20<>\\{_SURROGATES}]+)>"
_LITERAL_RUN = rf'[^"\\{_SURROGATES}]*'
_LINE_RE = re.compile(
    rf"{_SPACE}*(?:{_IRI}|_:({_BLANK_LABEL})){_SPACE}+"
    rf"{_IRI}{_SPACE}+"
    rf"(?:{_IRI}|_:({_BLANK_LABEL})"
    rf'|"({_LITERAL_RUN}(?:\\.{_LITERAL_RUN})*)"(?:@({_LANG_TAG})|\^\^{_IRI})?)'
    rf"{_SPACE}*\.{_SPACE}*"
)


class ErrorCode(Enum):
    """Stable identifiers for everything the parser can reject."""

    MISSING_TERMINAL_DOT = "MissingTerminalDot"
    UNTERMINATED_IRI = "UnterminatedIri"
    UNTERMINATED_LITERAL = "UnterminatedLiteral"
    LITERAL_AS_SUBJECT = "LiteralAsSubject"
    BLANK_AS_PREDICATE = "BlankAsPredicate"
    BAD_ESCAPE = "BadEscape"
    MISSING_OBJECT = "MissingObject"
    UNEXPECTED_TOKEN = "UnexpectedToken"
    INVALID_ENCODING = "InvalidEncoding"


class PayloadKind(Enum):
    URI = "uri"
    BLANK = "blank"
    LITERAL = "literal"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and runs in C; Enum's own hashes the name in
    # Python.  No output depends on hash order.
    __hash__ = object.__hash__


class NodePayload(NamedTuple):
    """An RDF term: an IRI, a blank node label or a literal.

    The parser builds every term, and a hypernode carries the term as its
    payload, so this is the only term type.  A term is a tuple of its six
    fields, so it is immutable, has no ``__dict__``, and is built, hashed
    and compared in C; it equals the plain tuple of the same fields.  Built
    through the :meth:`uri`/:meth:`blank`/:meth:`literal` factories, which
    populate exactly the fields of one kind and build the tuple positionally
    (``tuple.__new__``), skipping the keyword handling of the generated
    constructor.  Direct construction is unchecked so that loaded documents
    can be inspected by validators.
    """

    kind: PayloadKind
    iri: str | None = None
    blank_label: str | None = None
    lexical_form: str | None = None
    language_tag: str | None = None
    datatype_iri: str | None = None

    @classmethod
    def uri(cls, iri: str) -> NodePayload:
        return tuple.__new__(cls, (PayloadKind.URI, iri, None, None, None, None))

    @classmethod
    def blank(cls, label: str) -> NodePayload:
        return tuple.__new__(cls, (PayloadKind.BLANK, None, label, None, None, None))

    @classmethod
    def literal(
        cls,
        lexical_form: str,
        language_tag: str | None = None,
        datatype_iri: str | None = None,
    ) -> NodePayload:
        if language_tag is not None and datatype_iri is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")
        return tuple.__new__(
            cls, (PayloadKind.LITERAL, None, None, lexical_form, language_tag, datatype_iri)
        )


class Statement(NamedTuple):
    """One RDF triple; equal to the plain 3-tuple and without a source line."""

    subject: NodePayload
    predicate: NodePayload
    object: NodePayload


@dataclass(frozen=True)
class ParseError:
    """A rejected line.  ``column`` is 1-based, 0 when no single position applies."""

    line_no: int
    code: ErrorCode
    message: str
    column: int = 0

    def __str__(self) -> str:
        where = f"line {self.line_no}"
        if self.column:
            where += f", col {self.column}"
        return f"{where}: {self.code.value}: {self.message}"


_SURROGATE_MESSAGE = "\\u escape names a surrogate code point"


class BadEscape(ValueError):
    """Undefined or malformed backslash escape; ``offset`` indexes the raw text."""

    def __init__(self, offset: int, message: str = "bad escape sequence"):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def unescape_literal(raw: str) -> str:
    """Decode ``\\n \\r \\t \\" \\\\`` and ``\\uXXXX`` escapes in literal content.

    Any other backslash sequence, and a ``\\u`` escape naming a surrogate
    code point (U+D800 to U+DFFF), raises :class:`BadEscape` carrying the
    offset of the offending backslash within ``raw``.
    """
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise BadEscape(i, "dangling backslash")
        esc = raw[i + 1]
        if esc in _SIMPLE_ESCAPES:
            out.append(_SIMPLE_ESCAPES[esc])
            i += 2
            continue
        if esc == "u":
            digits = raw[i + 2 : i + 6]
            if len(digits) < 4 or any(d not in _HEX_DIGITS for d in digits):
                raise BadEscape(i, "\\u requires four hex digits")
            code_point = int(digits, 16)
            if 0xD800 <= code_point <= 0xDFFF:
                raise BadEscape(i, _SURROGATE_MESSAGE)
            out.append(chr(code_point))
            i += 6
            continue
        raise BadEscape(i, f"undefined escape '\\{esc}'")
    return "".join(out)


class _Halt(Exception):
    """Internal bail-out; parse_line converts it into a ParseError value."""

    def __init__(self, code: ErrorCode, message: str, column: int = 0):
        super().__init__(message)
        self.code = code
        self.message = message
        self.column = column


class _Scanner:
    def __init__(self, line: str):
        self.line = line
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def peek(self) -> str:
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def skip_ws(self) -> int:
        start = self.pos
        while self.pos < len(self.line) and self.line[self.pos] in _WS:
            self.pos += 1
        return self.pos - start

    def require_ws(self, after: str) -> None:
        if self.skip_ws() == 0 and self.pos < len(self.line):
            raise _Halt(
                ErrorCode.UNEXPECTED_TOKEN,
                f"whitespace required after {after}",
                self.pos + 1,
            )

    def scan_iri(self) -> str:
        # caller guarantees the scanner sits on '<'
        open_pos = self.pos
        self.pos += 1
        out: list[str] = []
        while True:
            if self.at_end():
                raise _Halt(ErrorCode.UNTERMINATED_IRI, "IRI not closed by '>'", open_pos + 1)
            ch = self.line[self.pos]
            if ch == ">":
                self.pos += 1
                break
            if ch in _WS or ch == "<" or ord(ch) < 0x20:
                raise _Halt(
                    ErrorCode.UNTERMINATED_IRI,
                    "IRI interrupted before closing '>'",
                    self.pos + 1,
                )
            if ch == "\\":
                # only \uXXXX is meaningful inside an IRI
                digits = self.line[self.pos + 2 : self.pos + 6]
                if self.line[self.pos + 1 : self.pos + 2] != "u" or len(digits) < 4 or any(
                    d not in _HEX_DIGITS for d in digits
                ):
                    raise _Halt(ErrorCode.BAD_ESCAPE, "bad escape in IRI", self.pos + 1)
                code_point = int(digits, 16)
                if 0xD800 <= code_point <= 0xDFFF:
                    raise _Halt(ErrorCode.BAD_ESCAPE, _SURROGATE_MESSAGE, self.pos + 1)
                out.append(chr(code_point))
                self.pos += 6
                continue
            out.append(ch)
            self.pos += 1
        value = "".join(out)
        if not value:
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "empty IRI", open_pos + 1)
        return value

    def scan_blank(self) -> str:
        # returns the label; the caller makes (or shares) the term
        start = self.pos
        if self.line[self.pos : self.pos + 2] != "_:":
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "'_' must introduce '_:label'", start + 1)
        match = _BLANK_LABEL_RE.match(self.line, self.pos + 2)
        if not match:
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "invalid blank node label", start + 1)
        self.pos = match.end()
        return match.group()

    def scan_literal(self) -> NodePayload:
        open_pos = self.pos
        self.pos += 1
        raw: list[str] = []
        while True:
            if self.at_end():
                raise _Halt(
                    ErrorCode.UNTERMINATED_LITERAL, "literal not closed by '\"'", open_pos + 1
                )
            ch = self.line[self.pos]
            if ch == '"':
                self.pos += 1
                break
            if ch == "\\":
                # keep the pair raw; unescape_literal validates it below
                raw.append(self.line[self.pos : self.pos + 2])
                self.pos += 2
                continue
            raw.append(ch)
            self.pos += 1
        raw_text = "".join(raw)
        try:
            lexical = unescape_literal(raw_text)
        except BadEscape as exc:
            raise _Halt(ErrorCode.BAD_ESCAPE, str(exc), open_pos + 2 + exc.offset) from exc
        if self.peek() == "@":
            tag_pos = self.pos
            match = _LANG_TAG_RE.match(self.line, self.pos + 1)
            if not match:
                raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "malformed language tag", tag_pos + 1)
            self.pos = match.end()
            return NodePayload.literal(lexical, language_tag=match.group().lower())
        if self.peek() == "^":
            caret_pos = self.pos
            if self.line[self.pos : self.pos + 2] != "^^":
                raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "datatype requires '^^'", caret_pos + 1)
            self.pos += 2
            if self.peek() != "<":
                raise _Halt(
                    ErrorCode.UNEXPECTED_TOKEN, "datatype requires an IRI", self.pos + 1
                )
            return NodePayload.literal(lexical, datatype_iri=self.scan_iri())
        return NodePayload.literal(lexical)


def _uri(terms: dict, iri: str) -> NodePayload:
    """The document's term for ``iri``, made on first sight."""
    return terms.get(iri) or terms.setdefault(iri, NodePayload.uri(iri))


def _blank(terms: dict, label: str) -> NodePayload:
    """The document's term for ``_:label``; keyed ``(label,)``, so that a
    label never meets an IRI spelled the same."""
    return terms.get((label,)) or terms.setdefault((label,), NodePayload.blank(label))


def _parse_line(line: str, terms: dict) -> Statement:
    surrogate = _SURROGATE_RE.search(line)
    if surrogate is not None:
        message = f"not valid UTF-8: lone surrogate U+{ord(surrogate[0]):04X}"
        raise _Halt(ErrorCode.INVALID_ENCODING, message, surrogate.start() + 1)
    scanner = _Scanner(line)
    scanner.skip_ws()

    ch = scanner.peek()
    if ch == "<":
        subject = _uri(terms, scanner.scan_iri())
    elif ch == "_":
        subject = _blank(terms, scanner.scan_blank())
    elif ch == '"':
        raise _Halt(
            ErrorCode.LITERAL_AS_SUBJECT,
            "a literal is not allowed as subject",
            scanner.pos + 1,
        )
    else:
        raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "expected a subject term", scanner.pos + 1)
    scanner.require_ws("subject")

    ch = scanner.peek()
    if ch == "<":
        predicate = _uri(terms, scanner.scan_iri())
    elif ch == "_":
        raise _Halt(
            ErrorCode.BLANK_AS_PREDICATE,
            "a blank node is not allowed as predicate",
            scanner.pos + 1,
        )
    else:
        raise _Halt(
            ErrorCode.UNEXPECTED_TOKEN, "expected an IRI predicate", scanner.pos + 1
        )
    scanner.require_ws("predicate")

    ch = scanner.peek()
    if ch == "<":
        obj = _uri(terms, scanner.scan_iri())
    elif ch == "_":
        obj = _blank(terms, scanner.scan_blank())
    elif ch == '"':
        obj = scanner.scan_literal()
    elif ch == "." or scanner.at_end():
        raise _Halt(ErrorCode.MISSING_OBJECT, "statement has no object term", scanner.pos + 1)
    else:
        raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "expected an object term", scanner.pos + 1)

    scanner.skip_ws()
    if scanner.peek() != ".":
        raise _Halt(
            ErrorCode.MISSING_TERMINAL_DOT,
            "statement must end with '.'",
            scanner.pos + 1,
        )
    scanner.pos += 1
    scanner.skip_ws()
    if not scanner.at_end():
        raise _Halt(
            ErrorCode.UNEXPECTED_TOKEN,
            "unexpected text after terminating '.'",
            scanner.pos + 1,
        )
    return tuple.__new__(Statement, (subject, predicate, obj))


def _match_line(match: re.Match[str], terms: dict) -> Statement:
    """Build the statement of a ``_LINE_RE`` match; raises BadEscape."""
    s_iri, s_blank, p_iri, o_iri, o_blank, raw, tag, dt_iri = match.groups()
    subject = _uri(terms, s_iri) if s_iri is not None else _blank(terms, s_blank)
    if o_iri is not None:
        obj = _uri(terms, o_iri)
    elif o_blank is not None:
        obj = _blank(terms, o_blank)
    else:
        obj = NodePayload.literal(unescape_literal(raw), None if tag is None else tag.lower(), dt_iri)
    return tuple.__new__(Statement, (subject, _uri(terms, p_iri), obj))


def _parse(line: str, line_no: int, terms: dict) -> Statement | ParseError:
    """:func:`parse_line` with the IRI and blank terms taken from ``terms``."""
    match = _LINE_RE.fullmatch(line)
    if match is not None:
        try:
            return _match_line(match, terms)
        except BadEscape:
            pass
    try:
        return _parse_line(line, terms)
    except _Halt as halt:
        return ParseError(line_no, halt.code, halt.message, halt.column)


def parse_line(line: str, line_no: int = 1) -> Statement | ParseError:
    """Parse one line; returns a Statement or a ParseError value, never raises.

    The whole-line expression ``_LINE_RE`` is tried first.  A line it does
    not match, or whose literal holds a bad escape, is parsed again by the
    scanner, which then builds the ParseError; both paths give the same
    result on every line the expression matches.
    """
    return _parse(line, line_no, {})


def parse_document(text: str | bytes) -> tuple[list[Statement], list[ParseError]]:
    """Parse a whole document, recovering per line.

    Accepts ``str`` or UTF-8 ``bytes``; one leading byte order mark (U+FEFF)
    is dropped.  Undecodable bytes reject the whole document: the result is
    ``([], [ParseError(..., INVALID_ENCODING, ...)])``.  A line ends at LF,
    CR LF or a lone CR (the N-Triples EOL), as in a file read in text mode.
    Statements come back in source order; each malformed line contributes one
    error and is skipped.  Each line is parsed as :func:`parse_line` parses
    it, with one difference: the call makes one term object per distinct IRI
    and per distinct blank label, and every statement that names it holds
    that object, whichever path parsed its line.  Terms of separate calls
    are equal but separate objects.
    """
    if isinstance(text, (bytes, bytearray)):
        data = bytes(text)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            line_no = prefix.count(b"\n") + 1
            return [], [
                ParseError(line_no, ErrorCode.INVALID_ENCODING, f"not valid UTF-8: {exc.reason}")
            ]
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    statements: list[Statement] = []
    errors: list[ParseError] = []
    terms: dict[str | tuple[str], NodePayload] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip(_WS)
        if not stripped or stripped.startswith("#"):
            continue
        result = _parse(line, line_no, terms)
        if isinstance(result, Statement):
            statements.append(result)
        else:
            errors.append(result)
    return statements, errors


def format_term(term: NodePayload) -> str:
    """Render a term in canonical N-Triples syntax (re-parseable).

    Raises ValueError when the term lacks the field its kind requires, or is
    a literal with both a language tag and a datatype.
    """
    if term.kind is PayloadKind.URI:
        if term.iri is None:
            raise ValueError("uri payload without an iri")
        return f"<{term.iri.translate(_IRI_ESCAPES)}>"
    if term.kind is PayloadKind.BLANK:
        if term.blank_label is None:
            raise ValueError("blank payload without a label")
        return f"_:{term.blank_label}"
    if term.lexical_form is None:
        raise ValueError("literal payload without a lexical form")
    text = f'"{term.lexical_form.translate(_LITERAL_ESCAPES)}"'
    if term.language_tag is not None:
        if term.datatype_iri is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")
        return f"{text}@{term.language_tag}"
    if term.datatype_iri is not None:
        return f"{text}^^<{term.datatype_iri.translate(_IRI_ESCAPES)}>"
    return text


def format_statement(stmt: Statement) -> str:
    """Render a statement as one canonical N-Triples line (without newline)."""
    return (
        f"{format_term(stmt.subject)} {format_term(stmt.predicate)} "
        f"{format_term(stmt.object)} ."
    )
