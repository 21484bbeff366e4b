"""Line-based N-Triples parsing.

The accepted grammar is the line-delimited subset

    subject ws predicate ws object ws? '.' ws?

where a subject is ``<IRI>`` or ``_:label``, a predicate is ``<IRI>``, and an
object is ``<IRI>``, ``_:label``, or a quoted literal with an optional
``@lang`` or ``^^<IRI>`` suffix.  Blank lines and lines whose first non-space
character is ``#`` are skipped.  Malformed lines never abort a document: each
one is reported as a :class:`ParseError` value and parsing continues with the
next line.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

_HEX_DIGITS = set("0123456789abcdefABCDEF")
_WS = " \t\r"

_SIMPLE_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}
_REVERSE_ESCAPES = {"\n": "\\n", "\r": "\\r", "\t": "\\t", '"': '\\"', "\\": "\\\\"}

_BLANK_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_LANG_TAG_RE = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")


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


@dataclass(frozen=True)
class IriRef:
    """An absolute IRI, stored verbatim; equality is exact string equality."""

    value: str


@dataclass(frozen=True)
class BlankLabel:
    """A blank node label; identity is only meaningful within one document."""

    label: str


@dataclass(frozen=True)
class Literal:
    """A string object term, optionally language-tagged or datatyped."""

    lexical_form: str
    language_tag: str | None = None
    datatype: IriRef | None = None

    def __post_init__(self) -> None:
        if self.language_tag is not None and self.datatype is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")


Term = IriRef | BlankLabel | Literal


@dataclass(frozen=True)
class Statement:
    """One parsed triple.  ``line_no`` is the source line and does not affect equality."""

    subject: IriRef | BlankLabel
    predicate: IriRef
    object: Term
    line_no: int = field(default=0, compare=False)


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


class BadEscape(ValueError):
    """Undefined or malformed backslash escape; ``offset`` indexes the raw text."""

    def __init__(self, offset: int, message: str = "bad escape sequence"):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def unescape_literal(raw: str) -> str:
    """Decode ``\\n \\r \\t \\" \\\\`` and ``\\uXXXX`` escapes in literal content.

    Any other backslash sequence raises :class:`BadEscape` carrying the offset
    of the offending backslash within ``raw``.
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
            out.append(chr(int(digits, 16)))
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

    def scan_iri(self) -> IriRef:
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
                out.append(chr(int(digits, 16)))
                self.pos += 6
                continue
            out.append(ch)
            self.pos += 1
        value = "".join(out)
        if not value:
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "empty IRI", open_pos + 1)
        return IriRef(value)

    def scan_blank(self) -> BlankLabel:
        start = self.pos
        if self.line[self.pos : self.pos + 2] != "_:":
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "'_' must introduce '_:label'", start + 1)
        match = _BLANK_LABEL_RE.match(self.line, self.pos + 2)
        if not match:
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "invalid blank node label", start + 1)
        self.pos = match.end()
        return BlankLabel(match.group())

    def scan_literal(self) -> Literal:
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
            return Literal(lexical, language_tag=match.group().lower())
        if self.peek() == "^":
            caret_pos = self.pos
            if self.line[self.pos : self.pos + 2] != "^^":
                raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "datatype requires '^^'", caret_pos + 1)
            self.pos += 2
            if self.peek() != "<":
                raise _Halt(
                    ErrorCode.UNEXPECTED_TOKEN, "datatype requires an IRI", self.pos + 1
                )
            return Literal(lexical, datatype=self.scan_iri())
        return Literal(lexical)


def _parse_line(line: str, line_no: int) -> Statement:
    scanner = _Scanner(line)
    scanner.skip_ws()

    ch = scanner.peek()
    if ch == "<":
        subject: IriRef | BlankLabel = scanner.scan_iri()
    elif ch == "_":
        subject = scanner.scan_blank()
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
        predicate = scanner.scan_iri()
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
        obj: Term = scanner.scan_iri()
    elif ch == "_":
        obj = scanner.scan_blank()
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
    return Statement(subject, predicate, obj, line_no=line_no)


def parse_line(line: str, line_no: int = 1) -> Statement | ParseError:
    """Parse one line; returns a Statement or a ParseError value, never raises."""
    try:
        return _parse_line(line, line_no)
    except _Halt as halt:
        return ParseError(line_no, halt.code, halt.message, halt.column)


def parse_document(text: str | bytes) -> tuple[list[Statement], list[ParseError]]:
    """Parse a whole document, recovering per line.

    Accepts ``str`` or UTF-8 ``bytes``; one leading byte order mark (U+FEFF)
    is dropped.  Undecodable bytes reject the whole document: the result is
    ``([], [ParseError(..., INVALID_ENCODING, ...)])``.
    Statements come back in source order; each malformed line contributes one
    error and is skipped.
    """
    if isinstance(text, (bytes, bytearray)):
        data = bytes(text)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data[: exc.start].count(b"\n") + 1
            return [], [
                ParseError(line_no, ErrorCode.INVALID_ENCODING, f"not valid UTF-8: {exc.reason}")
            ]
    text = text.removeprefix("\ufeff")
    statements: list[Statement] = []
    errors: list[ParseError] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        result = parse_line(line, line_no)
        if isinstance(result, Statement):
            statements.append(result)
        else:
            errors.append(result)
    return statements, errors


def _escape_literal(text: str) -> str:
    out: list[str] = []
    for ch in text:
        if ch in _REVERSE_ESCAPES:
            out.append(_REVERSE_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def _escape_iri(text: str) -> str:
    out: list[str] = []
    for ch in text:
        if ch in "<>\\" or ord(ch) <= 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def format_term(term: Term) -> str:
    """Render a term in canonical N-Triples syntax (re-parseable)."""
    if isinstance(term, IriRef):
        return f"<{_escape_iri(term.value)}>"
    if isinstance(term, BlankLabel):
        return f"_:{term.label}"
    text = f'"{_escape_literal(term.lexical_form)}"'
    if term.language_tag is not None:
        return f"{text}@{term.language_tag}"
    if term.datatype is not None:
        return f"{text}^^<{_escape_iri(term.datatype.value)}>"
    return text


def format_statement(stmt: Statement) -> str:
    """Render a statement as one canonical N-Triples line (without newline)."""
    return (
        f"{format_term(stmt.subject)} {format_term(stmt.predicate)} "
        f"{format_term(stmt.object)} ."
    )
