"""Parser behavior: grammar coverage, escapes, error values, recovery."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hg2rdf import (
    BadEscape,
    ErrorCode,
    Hypergraph,
    NodePayload,
    ParseError,
    PayloadKind,
    Statement,
    format_statement,
    format_term,
    parse_document,
    parse_line,
    unescape_literal,
)
from oracles import loop_escape_iri, loop_escape_literal, scanner_parse_line


uri, blank, literal = NodePayload.uri, NodePayload.blank, NodePayload.literal


def test_w3c_sample_parses_to_three_exact_statements(w3c_sample_text):
    statements, errors = parse_document(w3c_sample_text)
    assert errors == []
    subject = uri("http://www.w3.org/2001/sw/RDFCore/ntriples/")
    assert statements == [
        Statement(subject, uri("http://purl.org/dc/elements/1.1/creator"), literal("Dave Beckett")),
        Statement(subject, uri("http://purl.org/dc/elements/1.1/creator"), literal("Art Barstow")),
        Statement(subject, uri("http://purl.org/dc/elements/1.1/publisher"), uri("http://www.w3.org/")),
    ]
    assert all(type(s) is Statement for s in statements)
    publisher = uri("http://purl.org/dc/elements/1.1/publisher")
    assert statements[2] == (subject, publisher, uri("http://www.w3.org/"))


def test_statement_is_slotted_and_ignores_line_no_in_equality():
    # a statement is the triple alone: the line number given to parse_line
    # reaches only a ParseError
    first = parse_line("<a:s> <a:p> <a:o> .", 1)
    again = parse_line("<a:s> <a:p> <a:o> .", 7)
    triple = (uri("a:s"), uri("a:p"), uri("a:o"))
    assert type(first) is Statement and Statement._fields == ("subject", "predicate", "object")
    assert first == again == Statement(*triple) == triple
    assert hash(first) == hash(again) == hash(triple)
    assert not hasattr(first, "__dict__") and not hasattr(first, "line_no")
    with pytest.raises(AttributeError):
        first.object = uri("a:x")
    with pytest.raises(TypeError):
        Statement(*triple, line_no=1)


def test_a_term_is_a_tuple_of_its_six_fields():
    term = literal("v", language_tag="en")
    assert not hasattr(term, "__dict__")
    with pytest.raises(AttributeError):
        term.lexical_form = "w"
    fields = (PayloadKind.LITERAL, None, None, "v", "en", None)
    assert term == fields and hash(term) == hash(fields)
    assert NodePayload(PayloadKind.LITERAL, lexical_form="v", language_tag="en") == term
    # a hypernode payload is interned by equality, so an opaque tuple of the
    # same fields names the term's node (JSON cannot produce a tuple)
    graph = Hypergraph()
    node = graph.add_node(term)
    assert graph.add_node(fields) == node and graph.find(fields) == node


def test_comments_and_blank_lines_are_skipped():
    text = "# leading comment\n\n   \n<a:s> <a:p> <a:o> .\n  # indented comment\njunk\n"
    statements, errors = parse_document(text)
    assert statements == [(uri("a:s"), uri("a:p"), uri("a:o"))]
    # skipped lines still count: the junk line is line 6
    assert [e.line_no for e in errors] == [6]


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\xa0", "\u3000"])
def test_only_the_grammar_whitespace_makes_a_line_blank(space):
    # ws is space, tab and CR: any other whitespace is content, so a line of
    # it is one scanner error, not a blank line or a comment
    text = f"{space}\n{space}# c\n{space}<a:s> <a:p> <a:o> .\n \t\n  # c\n"
    statements, errors = parse_document(text)
    assert statements == []
    assert [(e.line_no, e.code, e.column) for e in errors] == [
        (line_no, ErrorCode.UNEXPECTED_TOKEN, 1) for line_no in (1, 2, 3)
    ]
    assert errors == [parse_line(line, n) for n, line in enumerate(text.split("\n")[:3], start=1)]


@pytest.mark.parametrize(
    "line,subject,objekt",
    [
        ("_:alice <a:knows> _:bob .", blank("alice"), blank("bob")),
        ('<a:s> <a:p> "plain" .', uri("a:s"), literal("plain")),
        ('<a:s> <a:p> "chat"@FR .', uri("a:s"), literal("chat", language_tag="fr")),
        (
            '<a:s> <a:p> "5"^^<x:int> .',
            uri("a:s"),
            literal("5", datatype_iri="x:int"),
        ),
    ],
)
def test_term_forms(line, subject, objekt):
    statement = parse_line(line)
    assert isinstance(statement, Statement)
    assert statement.subject == subject
    assert statement.object == objekt


def test_literal_escapes_decode():
    statement = parse_line('<a:s> <a:p> "a\\tb\\nc\\r\\"d\\\\e\\u00E9" .')
    assert isinstance(statement, Statement)
    assert statement.object == literal('a\tb\nc\r"d\\eé')


def test_iri_unicode_escape_decodes():
    statement = parse_line("<a:caf\\u00E9> <a:p> <a:o> .")
    assert isinstance(statement, Statement)
    assert statement.subject == uri("a:café")


def test_unescape_literal_table():
    # independent table of (escape, expected codepoint) pairs
    cases = {
        "\\n": chr(int("0A", 16)),
        "\\r": chr(int("0D", 16)),
        "\\t": chr(int("09", 16)),
        '\\"': chr(int("22", 16)),
        "\\\\": chr(int("5C", 16)),
        "\\u0041": chr(int("0041", 16)),
        "\\u4E16": chr(int("4E16", 16)),
    }
    for raw, expected in cases.items():
        assert unescape_literal(f"x{raw}y") == f"x{expected}y"


def test_unescape_literal_rejects_unknown_escape():
    with pytest.raises(BadEscape) as info:
        unescape_literal("\\q")
    assert info.value.offset == 0
    with pytest.raises(BadEscape) as info:
        unescape_literal("abc\\u12")
    assert info.value.offset == 3
    with pytest.raises(BadEscape):
        unescape_literal("tail\\")
    with pytest.raises(BadEscape) as info:
        unescape_literal("ab\\uDBFF")
    assert info.value.offset == 2


@pytest.mark.parametrize(
    "line,code",
    [
        ("<a:s> <a:p> <a:o>", ErrorCode.MISSING_TERMINAL_DOT),
        ("<a:s <a:p> <a:o> .", ErrorCode.UNTERMINATED_IRI),
        ("<a:s> <a:p> <a:o .", ErrorCode.UNTERMINATED_IRI),
        ('<a:s> <a:p> "open .', ErrorCode.UNTERMINATED_LITERAL),
        ('"text" <a:p> <a:o> .', ErrorCode.LITERAL_AS_SUBJECT),
        ("<a:s> _:b <a:o> .", ErrorCode.BLANK_AS_PREDICATE),
        ('<a:s> <a:p> "bad\\qescape" .', ErrorCode.BAD_ESCAPE),
        ("<a:s> <a:p> .", ErrorCode.MISSING_OBJECT),
        ("<a:s> <a:p>", ErrorCode.MISSING_OBJECT),
        ("<a:s> <a:p> <a:o> . trailing", ErrorCode.UNEXPECTED_TOKEN),
        ("bareword <a:p> <a:o> .", ErrorCode.UNEXPECTED_TOKEN),
        ('<a:s> "lit" <a:o> .', ErrorCode.UNEXPECTED_TOKEN),
        ("<> <a:p> <a:o> .", ErrorCode.UNEXPECTED_TOKEN),
        ('<a:s> <a:p> "x"@ .', ErrorCode.UNEXPECTED_TOKEN),
        ('<a:s> <a:p> "x"^<a:t> .', ErrorCode.UNEXPECTED_TOKEN),
        ('<a:s> <a:p> "x"^^"y" .', ErrorCode.UNEXPECTED_TOKEN),
        ("<a:s><a:p> <a:o> .", ErrorCode.UNEXPECTED_TOKEN),
    ],
)
def test_malformed_lines_become_error_values(line, code):
    result = parse_line(line, line_no=7)
    assert isinstance(result, ParseError)
    assert result.code is code
    assert result.line_no == 7


# One representative line per ErrorCode with the exact column and message of
# its error; InvalidEncoding comes from undecodable bytes, so its line is bytes.
ERROR_POSITIONS = {
    ErrorCode.MISSING_TERMINAL_DOT: ("<a:s> <a:p> <a:o>", 18, "statement must end with '.'"),
    ErrorCode.UNTERMINATED_IRI: ("<a:s> <a:p> <a:o", 13, "IRI not closed by '>'"),
    ErrorCode.UNTERMINATED_LITERAL: ('<a:s> <a:p> "open .', 13, "literal not closed by '\"'"),
    ErrorCode.LITERAL_AS_SUBJECT: ('  "text" <a:p> <a:o> .', 3, "a literal is not allowed as subject"),
    ErrorCode.BLANK_AS_PREDICATE: (
        "<a:s> _:b <a:o> .", 7, "a blank node is not allowed as predicate"
    ),
    ErrorCode.BAD_ESCAPE: ('<a:s> <a:p> "ok\\qno" .', 16, "undefined escape '\\q' at offset 2"),
    ErrorCode.MISSING_OBJECT: ("<a:s> <a:p> .", 13, "statement has no object term"),
    ErrorCode.UNEXPECTED_TOKEN: ("<a:s><a:p> <a:o> .", 6, "whitespace required after subject"),
    ErrorCode.INVALID_ENCODING: (b'<a:s> <a:p> "\xff" .', 0, "not valid UTF-8: invalid start byte"),
}


@pytest.mark.parametrize("code", list(ErrorCode), ids=lambda code: code.value)
def test_every_error_code_has_a_pinned_column_and_message(code):
    line, column, message = ERROR_POSITIONS[code]
    assert parse_document(line) == ([], [ParseError(1, code, message, column)])


# The text before and after a term's content, for each slot a bad escape can
# sit in, and the escape decoder's messages with the offset of the backslash
# in the content.
_ESCAPE_SLOTS = (
    ("<", "> <a:p> <a:o> ."),
    ("<a:s> <a:p> <", "> ."),
    ('<a:s> <a:p> "v"^^<', "> ."),
    ('<a:s> <a:p> "', '" .'),
)
_DECODER_MESSAGES = (
    ("a:x\\q", 3, "undefined escape '\\q'"),
    ("a:\\u12", 2, "\\u requires four hex digits"),
    ("a:\\u12G4", 2, "\\u requires four hex digits"),
    ("a:\\uD800", 2, "\\u escape names a surrogate code point"),
    ("a:b\\udfff", 3, "\\u escape names a surrogate code point"),
)


def test_surrogate_escapes_are_bad_escapes_at_the_backslash():
    for line, column in (
        ('<a:s> <a:p> "x\\uD800y" .', 15),
        ('<a:s> <a:p> "x\\udfffy"@en .', 15),
        ("<http://a/s\\uDC00> <a:p> <a:o> .", 12),
        ('<a:s> <a:p> "x"^^<a:\\uDBFF> .', 21),
    ):
        result = parse_line(line)
        assert isinstance(result, ParseError), line
        assert (result.code, result.column) == (ErrorCode.BAD_ESCAPE, column), line
    # a bad escape gets the same message in every slot, IRI or literal
    for before, after in _ESCAPE_SLOTS:
        for content, offset, message in _DECODER_MESSAGES:
            line = before + content + after
            column = len(before) + offset + 1
            error = ParseError(1, ErrorCode.BAD_ESCAPE, f"{message} at offset {offset}", column)
            assert parse_line(line) == scanner_parse_line(line) == error, line
        # a backslash that ends an IRI's line dangles; in a literal it would
        # take the closing quote, so there only the decoder itself sees one
        if before.endswith("<"):
            line = before + "a:x\\"
            error = ParseError(1, ErrorCode.BAD_ESCAPE, "dangling backslash at offset 3", len(before) + 4)
            assert parse_line(line) == error, line
    with pytest.raises(BadEscape, match="^dangling backslash at offset 3$"):
        unescape_literal("a:x\\")
    # the code points on either side of the surrogate block are characters
    statement = parse_line('<a:\\uD7FF> <a:p> "\\uE000" .')
    assert isinstance(statement, Statement)
    assert (statement.subject, statement.object) == (uri("a:\ud7ff"), literal("\ue000"))


def test_lone_surrogates_in_str_input_are_invalid_encoding_at_their_column():
    for line, column in (
        ("<urn:a\ud800> <urn:p> <urn:o> .", 7),
        ('<a:s> <a:p> "x\udfffy"@en .', 15),
        ('<a:s> <a:p> "x\\\udc00" .', 16),
        ('<a:s> <a:p> "x"^^<a:\udbff> .', 21),
        ("<a:\\u0041\udbff> <a:p> <a:o> .", 10),
    ):
        code_point = ord(line[column - 1])
        error = ParseError(
            1, ErrorCode.INVALID_ENCODING, f"not valid UTF-8: lone surrogate U+{code_point:04X}", column
        )
        assert parse_line(line) == error, line
        assert scanner_parse_line(line) == error, line
        assert parse_document(line + "\n") == ([], [error]), line


def test_parse_error_str_mentions_position():
    result = parse_line("<a:s> <a:p> <a:o>", line_no=3)
    assert isinstance(result, ParseError)
    assert "line 3" in str(result)
    assert "MissingTerminalDot" in str(result)


def test_document_recovery_keeps_good_lines():
    text = (
        "<a:s> <a:p> <a:o> .\n"
        "this line is junk\n"
        '<a:s> <a:p> "fine" .\n'
        "<a:s> <a:p> <a:o\n"
    )
    statements, errors = parse_document(text)
    assert len(statements) == 2
    assert [e.line_no for e in errors] == [2, 4]


def test_document_accepts_bytes():
    statements, errors = parse_document(b"<a:s> <a:p> <a:o> .\n")
    assert len(statements) == 1 and not errors


def test_leading_byte_order_mark_is_dropped():
    expected = [Statement(uri("urn:s"), uri("urn:p"), uri("urn:o"))]
    assert parse_document("\ufeff<urn:s> <urn:p> <urn:o> .\n") == (expected, [])
    assert parse_document("\ufeff<urn:s> <urn:p> <urn:o> .\n".encode("utf-8")) == (expected, [])
    # only one leading mark is a byte order mark; a second one is content
    _, errors = parse_document("\ufeff\ufeff<urn:s> <urn:p> <urn:o> .\n")
    assert [e.code for e in errors] == [ErrorCode.UNEXPECTED_TOKEN]


def test_invalid_utf8_is_an_error_value_not_an_exception():
    for eol in (b"\n", b"\r\n", b"\r"):
        statements, errors = parse_document(b"<a:s> <a:p> <a:o> ." + eol + b"\xff\xfe junk" + eol)
        assert statements == []
        assert len(errors) == 1
        assert errors[0].code is ErrorCode.INVALID_ENCODING
        assert errors[0].line_no == 2


def test_crlf_documents_parse():
    for eol in ("\r\n", "\r"):
        statements, errors = parse_document(
            f"<a:s> <a:p> <a:o> .{eol}<a:s> <a:p> \"x\" .{eol}junk{eol}"
        )
        assert statements == [
            (uri("a:s"), uri("a:p"), uri("a:o")),
            (uri("a:s"), uri("a:p"), literal("x")),
        ]
        assert [e.line_no for e in errors] == [3]


def test_language_tag_is_case_normalized():
    statement = parse_line('<a:s> <a:p> "x"@EN-Latn .')
    assert isinstance(statement, Statement)
    assert statement.object.language_tag == "en-latn"


def test_literal_cannot_have_both_tag_and_datatype():
    with pytest.raises(ValueError):
        literal("x", language_tag="en", datatype_iri="a:t")


def test_format_round_trip_is_identity():
    cases = [
        Statement(uri("a:s"), uri("a:p"), uri("a:o")),
        Statement(blank("b1"), uri("a:p"), blank("b2")),
        Statement(uri("a:s"), uri("a:p"), literal('tricky " \\ \n\t value')),
        Statement(uri("a:s"), uri("a:p"), literal("chat", language_tag="fr")),
        Statement(uri("a:s"), uri("a:p"), literal("5", datatype_iri="x:int")),
        Statement(uri("a:s with space"), uri("a:p"), uri("a:o>")),
    ]
    for statement in cases:
        assert parse_line(format_statement(statement)) == statement


# Control characters, the characters either escaping treats apart, space,
# DEL, and non-ASCII characters from the BMP and beyond it.
_ESCAPE_PROBES = (*map(chr, range(0x21)), "\x7f", "<", ">", '"', "\\", "é", "\u2028",
                  "\uffff", "\U0001f600")


@settings(max_examples=500)
@given(st.text(st.one_of(st.characters(), st.sampled_from(_ESCAPE_PROBES)), max_size=12))
def test_format_term_escapes_as_the_per_character_loops_did(text):
    assert format_term(uri(text)) == f"<{loop_escape_iri(text)}>"
    assert format_term(literal(text)) == f'"{loop_escape_literal(text)}"'
    assert format_term(literal(text, datatype_iri=text)) == (
        f'"{loop_escape_literal(text)}"^^<{loop_escape_iri(text)}>'
    )


def test_format_term_escapes_iri_delimiters():
    rendered = format_term(uri("a:x>y z"))
    assert ">" not in rendered[1:-1]
    assert " " not in rendered
