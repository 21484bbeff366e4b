"""Line-based N-Triples parsing.

The accepted grammar is the line-delimited subset

    subject ws predicate ws object ws? '.' ws?

where ``ws`` is space, tab or CR.  The statement grammar is the table
``_SLOTS``: a subject is ``<IRI>`` or ``_:label``, a predicate ``<IRI>``, an
object either or a quoted literal with an optional ``@lang`` or ``^^<IRI>``
suffix, and any other start is the slot's own error.  Lines of ``ws`` alone,
or whose first other character is ``#``, are skipped.  A malformed line never
aborts a document: it becomes a :class:`ParseError` value with its line
number, and parsing goes on.  A parsed line is a :class:`Statement`, the
named tuple ``(subject, predicate, object)``, and keeps no line number.

Every term is a :class:`NodePayload`, the one RDF term type of the package,
a named tuple of six fields: the hypergraph layer stores the parser's terms
as hypernode payloads as they are, and :func:`format_term` renders them
back.  Every reader of a hypernode asks two rules.  ``_term_kind`` says
whether a payload is a term and of which kind: a :class:`NodePayload` whose
kind is a :class:`PayloadKind` is a term of that kind, and nothing else is a
term.  ``_term_problem`` says why a :class:`NodePayload` is malformed (an
unknown kind, a field that is not a string or belongs to another kind, a
missing required field, a tag beside a datatype, an empty IRI or datatype
IRI, a blank label or a language tag outside ``_BLANK_LABEL`` or
``_LANG_TAG``), so every term it passes is one the parser can read back;
the placement checks, the renderers, the writer and both readers of a
document give its message.  Each rule has a column form that judges a whole
batch in a few passes, ``_term_kinds`` and ``_malformed_terms``, with the
per-term rule as its fallback; routing and the node writer ask those.
:func:`parse_document` makes one term object per distinct IRI and per
distinct blank label of the document, and every statement that names it
holds that object, so the later set and index lookups of equal terms meet
identical objects.  Terms are compared by value (RDF 1.1 term equality), so
sharing them changes no result.

Each term rule is written once and both ways of reading a line use it: the
character classes ``_IRI_CHAR`` and ``_LITERAL_CHAR`` (what a term holds
without an escape), the whitespace set ``_WS``, the patterns
``_BLANK_LABEL`` and ``_LANG_TAG``, and one escape decoder, ``_unescape``,
which reads ``\\uXXXX`` in IRIs and literals and the ``_SIMPLE_ESCAPES`` in
literals only (:func:`unescape_literal`).  A ``\\uXXXX`` escape must not
name a surrogate code point (U+D800 to U+DFFF), which UTF-8 cannot encode:
it is a ``BadEscape`` error at the backslash, and a lone surrogate character
in a line is an ``InvalidEncoding`` error at its column.  The character
classes and ``_SURROGATE_RE`` (which :mod:`hg2rdf.hg2` shares) are built
from one surrogate range.

Each line is parsed in one of two ways, both read from ``_SLOTS``.  The fast
path is ``_LINE_RE``, joined from one pattern per term start over the slots
and matched against the whole line; it accepts well-formed lines whose IRIs
hold no escape (literal escapes are matched as pairs and decoded by
:func:`unescape_literal`), which is nearly every line of real data.  A line
the expression does not match, or whose literal holds a bad escape, goes to
the scanner ``_Scanner``, which reads the full grammar above in one loop over
the slots: it matches a term's content as one run of its character class (a
backslash takes the next character with it), decodes the run, and only then
looks at the character that ended it.  The scanner alone builds a line's
:class:`ParseError`, so error codes, messages and columns do not depend on
which path a line took first.
"""
from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from enum import Enum
from functools import partial
from operator import is_not, itemgetter
from typing import NamedTuple

_WS = " \t\r"
_SPACE = f"[{_WS}]"

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


def _escaper(table: dict[int, str]) -> Callable[[str], str]:
    """Text written with ``table``'s escapes.  ``translate`` looks up every
    character of its text, so it runs only on text where one search, built
    from the table's keys, finds a character to escape."""
    search = re.compile(f"[{''.join(map(re.escape, map(chr, table)))}]").search
    return lambda text: text.translate(table) if search(text) else text


_escape_literal = _escaper(_LITERAL_ESCAPES)
_escape_iri = _escaper(_IRI_ESCAPES)

_BLANK_LABEL = r"[A-Za-z][A-Za-z0-9]*"
_LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_BLANK_LABEL_RE = re.compile(_BLANK_LABEL)
_LANG_TAG_RE = re.compile(_LANG_TAG)

# The surrogate code points, U+D800 to U+DFFF, as a character-class range:
# UTF-8 cannot encode them, so no line or document string may hold one.
_SURROGATES = r"\ud800-\udfff"
_SURROGATE_RE = re.compile(f"[{_SURROGATES}]")

# The byte order mark.  Both readers, parse_document and hg2's deserialize,
# drop one leading mark (RFC 8259 section 8.1 lets a JSON parser ignore it);
# a second one is content.
_BOM = "\ufeff"

# A character an IRI or a literal holds without a backslash escape.  An IRI
# ends at '>' and is interrupted by '<' or any character at or below space.
_IRI_CHAR = rf"[^\x00-\x20<>\\{_SURROGATES}]"
_LITERAL_CHAR = rf'[^"\\{_SURROGATES}]'

# The scanner's run of a term's content: a backslash takes the next
# character, whatever it is, with it, and _unescape judges the pair.
_IRI_RUN_RE = re.compile(rf"(?:{_IRI_CHAR}|\\.?)*", re.DOTALL)
_LITERAL_RUN_RE = re.compile(rf"(?:{_LITERAL_CHAR}|\\.?)*", re.DOTALL)
_SPACE_RUN_RE = re.compile(f"{_SPACE}*")


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


# The statement grammar, one row per slot: its name, the characters a term
# there may start with ('<' an IRI, '_' a blank label, '"' a literal), and
# the code and message the scanner halts with on any other start, keyed by
# that character, "" for the end of the line and None for anything else.
_NO_OBJECT = (ErrorCode.MISSING_OBJECT, "statement has no object term")
_SLOTS = (
    ("subject", "<_", {
        '"': (ErrorCode.LITERAL_AS_SUBJECT, "a literal is not allowed as subject"),
        None: (ErrorCode.UNEXPECTED_TOKEN, "expected a subject term"),
    }),
    ("predicate", "<", {
        "_": (ErrorCode.BLANK_AS_PREDICATE, "a blank node is not allowed as predicate"),
        None: (ErrorCode.UNEXPECTED_TOKEN, "expected an IRI predicate"),
    }),
    ("object", '<_"', {
        ".": _NO_OBJECT, "": _NO_OBJECT,
        None: (ErrorCode.UNEXPECTED_TOKEN, "expected an object term"),
    }),
)

# The scanner's grammar minus escapes in IRIs and lone surrogates.  Labels
# and tags are matched greedily by the scanner and are always followed here
# by whitespace or '.', so backtracking cannot pick a different split.
_IRI = rf"<({_IRI_CHAR}+)>"
_LITERAL_RUN = f"{_LITERAL_CHAR}*"
_TERM_PATTERNS = {"<": _IRI, "_": f"_:({_BLANK_LABEL})",
                  '"': rf'"({_LITERAL_RUN}(?:\\.{_LITERAL_RUN})*)"(?:@({_LANG_TAG})|\^\^{_IRI})?'}
_LINE_RE = re.compile(f"{_SPACE}*" + f"{_SPACE}+".join(
    f"(?:{'|'.join(map(_TERM_PATTERNS.__getitem__, starts))})" if len(starts) > 1
    else _TERM_PATTERNS[starts]
    for _, starts, _ in _SLOTS
) + rf"{_SPACE}*\.{_SPACE}*")


class PayloadKind(Enum):
    URI = "uri"
    BLANK = "blank"
    LITERAL = "literal"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and runs in C; Enum's own hashes the name in
    # Python.  No output depends on hash order.
    __hash__ = object.__hash__


#: The payload fields of each term kind, the one it cannot do without first.
_KIND_FIELDS = {
    PayloadKind.URI: ("iri",),
    PayloadKind.BLANK: ("blank_label",),
    PayloadKind.LITERAL: ("lexical_form", "language_tag", "datatype_iri"),
}


class NodePayload(NamedTuple):
    """An RDF term: an IRI, a blank node label or a literal.

    The parser builds every term, and a hypernode carries the term as its
    payload, so this is the only term type.  A term is a tuple of its six
    fields, so it is immutable, has no ``__dict__``, and is built, hashed
    and compared in C; it equals the plain tuple of the same fields.  Built
    through the :meth:`uri`/:meth:`blank`/:meth:`literal` factories, which
    populate exactly the fields of one kind and build the tuple positionally
    (``tuple.__new__``), skipping the keyword handling of the generated
    constructor.  Direct construction is unchecked, so a hand-built term
    can be malformed; ``deserialize`` refuses every malformed term, so only
    such hand-built terms reach ``validate_mapping``.
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


#: The field names of a term, in order, after its kind.
_PAYLOAD_FIELDS = NodePayload._fields[1:]


def _term_kind(payload: object) -> PayloadKind | None:
    """The term kind of a hypernode payload: its kind for a
    :class:`NodePayload` whose kind is a :class:`PayloadKind`, and ``None``
    for anything else (an opaque payload, or a term of unknown kind)."""
    if isinstance(payload, NodePayload) and isinstance(payload.kind, PayloadKind):
        return payload.kind
    return None


#: The syntax a set field's string must have, where the parser reads one:
#: an IRI is not empty, and a blank label and a language tag are matched
#: by the parser's own patterns; each with the end of its message.
_FIELD_SYNTAX = {
    "iri": (bool, "is empty"),
    "blank_label": (_BLANK_LABEL_RE.fullmatch, "is not a blank node label"),
    "language_tag": (_LANG_TAG_RE.fullmatch, "is not a language tag"),
    "datatype_iri": (bool, "is empty"),
}


def _term_problem(payload: object, name: str = "term") -> tuple[str, str] | None:
    """Why a :class:`NodePayload` is not a well-formed term, as a violation
    kind and a message that calls the term ``name``; ``None`` for a good
    term and for any other (opaque) payload.  The first check that fails
    answers: the kind is a :class:`PayloadKind`; each set field, in order,
    is a string its kind carries; the required field is set; a literal has
    no tag beside a datatype; each set field has its ``_FIELD_SYNTAX``, so
    every term the rule passes is one the parser can read back."""
    if not isinstance(payload, NodePayload):
        return None
    kind = payload.kind
    if not isinstance(kind, PayloadKind):
        return "UnknownPayloadKind", f"{name} has unknown kind {kind!r}"
    fields = _KIND_FIELDS[kind]
    for field, value in zip(_PAYLOAD_FIELDS, payload[1:]):
        if value is not None:
            if not isinstance(value, str):
                return "NonStringField", f"{name} field '{field}' must be a string"
            if field not in fields:
                return "ForeignField", f"{kind.value} {name} cannot carry '{field}'"
    if getattr(payload, fields[0]) is None:
        return "IncompletePayload", f"{kind.value} {name} has no {fields[0]}"
    if payload.language_tag is not None and payload.datatype_iri is not None:
        return "LanguageTagOnTyped", f"{name} carries both a language tag and a datatype"
    for field, (syntax, what) in _FIELD_SYNTAX.items():
        value = getattr(payload, field)
        if value is not None and not syntax(value):
            return "MalformedField", f"{kind.value} {name} field '{field}' {what}"
    return None


#: The shape of each well-formed term: its kind, then the type of each
#: field, ``str`` where the term carries it and ``NoneType`` elsewhere; a
#: literal carries at most one of its two optional fields.
_TERM_SHAPES = frozenset(
    (kind, *(str if field in (fields[0], extra) else type(None) for field in _PAYLOAD_FIELDS))
    for kind, fields in _KIND_FIELDS.items()
    for extra in (None, *fields[1:])
)
_KIND_COLUMN = itemgetter(0)
_FIELD_COLUMNS = tuple(map(itemgetter, range(1, len(NodePayload._fields))))
_SYNTAX_COLUMNS = tuple((itemgetter(NodePayload._fields.index(field)), syntax)
                        for field, (syntax, _) in _FIELD_SYNTAX.items())
_is_set = partial(is_not, None)


def _malformed_terms(payloads: Sequence[object]) -> list[int]:
    """The column form of :func:`_term_problem`: the positions of the
    payloads it refuses, ascending.

    A batch of :class:`NodePayload` values is judged a column at a time:
    its set of term shapes (kind, then each field's type) must lie in
    ``_TERM_SHAPES``, and each column with a ``_FIELD_SYNTAX`` must pass it
    wherever it is set.  Any other batch, and one that fails a column
    check, is judged term by term, so the verdicts are always the rule's;
    a caller asks :func:`_term_problem` for a flagged term's message.
    """
    if set(map(type, payloads)) <= {NodePayload}:
        try:
            shapes = set(zip(map(_KIND_COLUMN, payloads),
                             *(map(type, map(column, payloads)) for column in _FIELD_COLUMNS)))
        except TypeError:  # a kind that cannot be hashed
            shapes = None
        if shapes is not None and shapes <= _TERM_SHAPES and all(
            all(map(syntax, filter(_is_set, map(column, payloads)))) for column, syntax in _SYNTAX_COLUMNS
        ):
            return []
    return [position for position, payload in enumerate(payloads) if _term_problem(payload)]


def _term_kinds(payloads: Sequence[object]) -> list[PayloadKind | None]:
    """The column form of :func:`_term_kind`: each payload's term kind, in order."""
    if set(map(type, payloads)) <= {NodePayload}:
        kinds = list(map(_KIND_COLUMN, payloads))
        if set(map(type, kinds)) <= {PayloadKind}:
            return kinds
    return list(map(_term_kind, payloads))


class Statement(NamedTuple):
    """One RDF triple; equal to the plain 3-tuple and without a source line."""

    subject: NodePayload
    predicate: NodePayload
    object: NodePayload


class ParseError(NamedTuple):
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


class BadEscape(ValueError):
    """Undefined or malformed backslash escape; ``offset`` indexes the raw text."""

    def __init__(self, offset: int, message: str = "bad escape sequence"):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_UCHAR_DIGITS = re.compile("[0-9A-Fa-f]{4}")


def _unescape(raw: str, simple_escapes: dict[str, str]) -> str:
    """Decode ``\\uXXXX`` and the ``simple_escapes`` in an IRI's or a
    literal's content; raises :class:`BadEscape` as unescape_literal does."""
    if "\\" not in raw:
        return raw
    out: list[str] = []
    done = 0
    while (i := raw.find("\\", done)) >= 0:
        out.append(raw[done:i])
        esc = raw[i + 1 : i + 2]
        if not esc:
            raise BadEscape(i, "dangling backslash")
        if esc in simple_escapes:
            out.append(simple_escapes[esc])
            done = i + 2
        elif esc == "u":
            if not _UCHAR_DIGITS.fullmatch(raw, i + 2, i + 6):
                raise BadEscape(i, "\\u requires four hex digits")
            char = chr(int(raw[i + 2 : i + 6], 16))
            if _SURROGATE_RE.match(char):
                raise BadEscape(i, "\\u escape names a surrogate code point")
            out.append(char)
            done = i + 6
        else:
            raise BadEscape(i, f"undefined escape '\\{esc}'")
    out.append(raw[done:])
    return "".join(out)


def unescape_literal(raw: str) -> str:
    """Decode ``\\n \\r \\t \\" \\\\`` and ``\\uXXXX`` escapes in literal content.

    Any other backslash sequence, and a ``\\u`` escape naming a surrogate
    code point (U+D800 to U+DFFF), raises :class:`BadEscape` carrying the
    offset of the offending backslash within ``raw``.
    """
    return _unescape(raw, _SIMPLE_ESCAPES)


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
        self.pos = _SPACE_RUN_RE.match(self.line, start).end()
        return self.pos - start

    def require_ws(self, after: str) -> None:
        if self.skip_ws() == 0 and self.pos < len(self.line):
            raise _Halt(
                ErrorCode.UNEXPECTED_TOKEN,
                f"whitespace required after {after}",
                self.pos + 1,
            )

    def decode(self, start: int, simple_escapes: dict[str, str]) -> str:
        """The content from ``start`` to the scanner, decoded; a bad escape
        halts at its backslash."""
        try:
            return _unescape(self.line[start : self.pos], simple_escapes)
        except BadEscape as exc:
            raise _Halt(ErrorCode.BAD_ESCAPE, str(exc), start + 1 + exc.offset) from exc

    def scan_iri(self) -> str:
        # caller guarantees the scanner sits on '<'; the run is decoded
        # before the character that ended it is looked at
        start = self.pos + 1
        self.pos = _IRI_RUN_RE.match(self.line, start).end()
        value = self.decode(start, {})
        if self.at_end():
            raise _Halt(ErrorCode.UNTERMINATED_IRI, "IRI not closed by '>'", start)
        if self.peek() != ">":
            raise _Halt(ErrorCode.UNTERMINATED_IRI, "IRI interrupted before closing '>'", self.pos + 1)
        self.pos += 1
        if not value:
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "empty IRI", start)
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
        # an unclosed literal is reported before any escape in it
        start = self.pos + 1
        self.pos = _LITERAL_RUN_RE.match(self.line, start).end()
        if self.at_end():
            raise _Halt(ErrorCode.UNTERMINATED_LITERAL, "literal not closed by '\"'", start)
        lexical = self.decode(start, _SIMPLE_ESCAPES)
        self.pos += 1
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
    read: list[NodePayload] = []
    for name, starts, refusals in _SLOTS:
        ch = scanner.peek()
        if not ch or ch not in starts:
            code, message = refusals.get(ch, refusals[None])
            raise _Halt(code, message, scanner.pos + 1)
        if ch == "<":
            read.append(_uri(terms, scanner.scan_iri()))
        elif ch == "_":
            read.append(_blank(terms, scanner.scan_blank()))
        else:
            read.append(scanner.scan_literal())
        if len(read) < len(_SLOTS):
            scanner.require_ws(name)
    scanner.skip_ws()
    if scanner.peek() != ".":
        raise _Halt(ErrorCode.MISSING_TERMINAL_DOT, "statement must end with '.'", scanner.pos + 1)
    scanner.pos += 1
    scanner.skip_ws()
    if not scanner.at_end():
        message = "unexpected text after terminating '.'"
        raise _Halt(ErrorCode.UNEXPECTED_TOKEN, message, scanner.pos + 1)
    return tuple.__new__(Statement, read)


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
    text = text.removeprefix(_BOM).replace("\r\n", "\n").replace("\r", "\n")
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

    Raises ValueError for a payload that is not a :class:`NodePayload`, and
    with the message of ``_term_problem`` for a malformed term.  Escapes
    are applied only to text that holds a character to escape.  ``to_dot``
    renders the hypernodes the node writer found well formed through
    ``_format_term``, the same rendering without the judgment.
    """
    if not isinstance(term, NodePayload):
        raise ValueError(f"not a term: {type(term).__name__}")
    problem = _term_problem(term)
    if problem is not None:
        raise ValueError(problem[1])
    return _format_term(term)


def _format_term(term: NodePayload) -> str:
    """:func:`format_term` for a term known to be well formed."""
    kind = term.kind
    if kind is PayloadKind.URI:
        return f"<{_escape_iri(term.iri)}>"
    if kind is PayloadKind.BLANK:
        return f"_:{term.blank_label}"
    text = f'"{_escape_literal(term.lexical_form)}"'
    if term.language_tag is not None:
        return f"{text}@{term.language_tag}"
    if term.datatype_iri is not None:
        return f"{text}^^<{_escape_iri(term.datatype_iri)}>"
    return text


def format_statement(stmt: Statement) -> str:
    """Render a statement as one canonical N-Triples line (without newline)."""
    return (
        f"{format_term(stmt.subject)} {format_term(stmt.predicate)} "
        f"{format_term(stmt.object)} ."
    )
