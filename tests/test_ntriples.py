"""Parser behavior: grammar coverage, escapes, error values, recovery."""
from __future__ import annotations

import pytest

from hg2rdf import (
    BadEscape,
    BlankLabel,
    ErrorCode,
    IriRef,
    Literal,
    ParseError,
    Statement,
    format_statement,
    format_term,
    parse_document,
    parse_line,
    unescape_literal,
)


def test_w3c_sample_parses_to_three_exact_statements(w3c_sample_text):
    statements, errors = parse_document(w3c_sample_text)
    assert errors == []
    subject = IriRef("http://www.w3.org/2001/sw/RDFCore/ntriples/")
    assert statements == [
        Statement(subject, IriRef("http://purl.org/dc/elements/1.1/creator"), Literal("Dave Beckett")),
        Statement(subject, IriRef("http://purl.org/dc/elements/1.1/creator"), Literal("Art Barstow")),
        Statement(subject, IriRef("http://purl.org/dc/elements/1.1/publisher"), IriRef("http://www.w3.org/")),
    ]
    assert [s.line_no for s in statements] == [1, 2, 3]


def test_comments_and_blank_lines_are_skipped():
    text = "# leading comment\n\n   \n<a:s> <a:p> <a:o> .\n  # indented comment\n"
    statements, errors = parse_document(text)
    assert len(statements) == 1
    assert errors == []
    assert statements[0].line_no == 4


@pytest.mark.parametrize(
    "line,subject,objekt",
    [
        ("_:alice <a:knows> _:bob .", BlankLabel("alice"), BlankLabel("bob")),
        ('<a:s> <a:p> "plain" .', IriRef("a:s"), Literal("plain")),
        ('<a:s> <a:p> "chat"@FR .', IriRef("a:s"), Literal("chat", language_tag="fr")),
        (
            '<a:s> <a:p> "5"^^<x:int> .',
            IriRef("a:s"),
            Literal("5", datatype=IriRef("x:int")),
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
    assert statement.object == Literal('a\tb\nc\r"d\\eé')


def test_iri_unicode_escape_decodes():
    statement = parse_line("<a:caf\\u00E9> <a:p> <a:o> .")
    assert isinstance(statement, Statement)
    assert statement.subject == IriRef("a:café")


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
    expected = [Statement(IriRef("urn:s"), IriRef("urn:p"), IriRef("urn:o"))]
    assert parse_document("\ufeff<urn:s> <urn:p> <urn:o> .\n") == (expected, [])
    assert parse_document("\ufeff<urn:s> <urn:p> <urn:o> .\n".encode("utf-8")) == (expected, [])
    # only one leading mark is a byte order mark; a second one is content
    _, errors = parse_document("\ufeff\ufeff<urn:s> <urn:p> <urn:o> .\n")
    assert [e.code for e in errors] == [ErrorCode.UNEXPECTED_TOKEN]


def test_invalid_utf8_is_an_error_value_not_an_exception():
    statements, errors = parse_document(b"<a:s> <a:p> <a:o> .\n\xff\xfe junk\n")
    assert statements == []
    assert len(errors) == 1
    assert errors[0].code is ErrorCode.INVALID_ENCODING
    assert errors[0].line_no == 2


def test_crlf_documents_parse():
    statements, errors = parse_document("<a:s> <a:p> <a:o> .\r\n<a:s> <a:p> \"x\" .\r\n")
    assert len(statements) == 2 and not errors


def test_language_tag_is_case_normalized():
    statement = parse_line('<a:s> <a:p> "x"@EN-Latn .')
    assert isinstance(statement, Statement)
    assert statement.object.language_tag == "en-latn"


def test_literal_cannot_have_both_tag_and_datatype():
    with pytest.raises(ValueError):
        Literal("x", language_tag="en", datatype=IriRef("a:t"))


def test_format_round_trip_is_identity():
    cases = [
        Statement(IriRef("a:s"), IriRef("a:p"), IriRef("a:o")),
        Statement(BlankLabel("b1"), IriRef("a:p"), BlankLabel("b2")),
        Statement(IriRef("a:s"), IriRef("a:p"), Literal('tricky " \\ \n\t value')),
        Statement(IriRef("a:s"), IriRef("a:p"), Literal("chat", language_tag="fr")),
        Statement(IriRef("a:s"), IriRef("a:p"), Literal("5", datatype=IriRef("x:int"))),
        Statement(IriRef("a:s with space"), IriRef("a:p"), IriRef("a:o>")),
    ]
    for statement in cases:
        assert parse_line(format_statement(statement)) == statement


def test_format_term_escapes_iri_delimiters():
    rendered = format_term(IriRef("a:x>y z"))
    assert ">" not in rendered[1:-1]
    assert " " not in rendered
