"""The whole-line expression against the scanner it stands in front of.

``parse_line`` tries ``_LINE_RE`` first and falls back to the character
scanner; ``oracles.scanner_parse_line`` runs the scanner alone.  The two must
agree on every line: the same statement, or the same error line number,
code, message and column.
"""
from __future__ import annotations

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hg2rdf import (
    NodePayload,
    ParseError,
    Statement,
    format_statement,
    parse_document,
    parse_line,
)
from hg2rdf import ntriples
from oracles import scanner_parse_line
from test_acceptance import fuzz_corpus


def assert_same_result(line: str, line_no: int = 5) -> Statement | ParseError:
    fast = parse_line(line, line_no)
    slow = scanner_parse_line(line, line_no)
    assert type(fast) is type(slow), (line, fast, slow)
    if isinstance(slow, ParseError):
        assert (fast.line_no, fast.code, fast.message, fast.column) == (
            slow.line_no,
            slow.code,
            slow.message,
            slow.column,
        ), line
    else:
        assert fast == slow, line
    return fast


# Pieces of lines, each kind in a well-formed and a broken list: IRIs with and
# without \u escapes (a surrogate among them), blank labels, literals with
# every escape, tags, datatypes, whitespace and every delimiter on its own.
_IRIS = ("<http://example.org/s>", "<a:p>", "<a:o#x?y=1>", "<a:caf\\u00E9>", "<a:\u00e9\u4e16>")
_BAD_IRIS = ("<a:\\uD800>", "<a:\\u12>", "<a:x\\q>", "<a:b c>", "<>", "<a:o", "a:o>")
_BLANKS = ("_:b1", "_:alice")
_BAD_BLANKS = ("_:", "_:1", "_b", "_:b-c")
_LITERALS = ('"x"', '""', '"a\\tb\\n\\"c\\\\d"', '"\\u00E9"', '"caf\u00e9 \u4e16"')
_BAD_LITERALS = ('"\\q"', '"\\uDC00"', '"\\u12"', '"tail\\"', '"open')
_SUFFIXES = ("", "@en", "@EN-us", "^^<x:int>", "^^<a:\\u0041>")
_BAD_SUFFIXES = ("@en-", "@", "^^", "^<x:t>", '^^"y"', "^^<x:int")
_SPACES = (" ", "  ", "\t", "\r", " \t")
_BAD_SPACES = ("", "\n", "\x0b")
_STRAYS = ("<", ">", '"', ".", "_", ":", "@", "^", "\\", "#", "x", "\n")


_OBJECTS = _IRIS + _BLANKS + tuple(lit + suffix for lit in _LITERALS for suffix in _SUFFIXES)
_BAD_OBJECTS = (
    ("",)
    + _BAD_IRIS
    + _BAD_BLANKS
    + tuple(lit + suffix for lit in _BAD_LITERALS for suffix in _SUFFIXES[:2])
    + tuple(lit + suffix for lit in _LITERALS[:2] for suffix in _BAD_SUFFIXES)
)
_EDGES = ("",) + _SPACES
# (well-formed, broken) choices for each position of a line.
_PIECES = (
    (_EDGES, _STRAYS),
    (_IRIS + _BLANKS, _BAD_IRIS + _BAD_BLANKS + _LITERALS[:2]),
    (_SPACES, _BAD_SPACES),
    (_IRIS, _BAD_IRIS + _BLANKS),
    (_SPACES, _BAD_SPACES),
    (_OBJECTS, _BAD_OBJECTS),
    (_EDGES, _STRAYS),
    ((".",), ("", "..", ",")),
    (_EDGES, _STRAYS),
)


@st.composite
def _shaped_lines(draw: st.DrawFn) -> str:
    """A line with at most two broken pieces: mostly statements and near misses."""
    broken = draw(st.sets(st.integers(0, len(_PIECES) - 1), max_size=2))
    return "".join(draw(st.sampled_from(pieces[i in broken])) for i, pieces in enumerate(_PIECES))


_token_soup = st.lists(
    st.one_of(
        st.sampled_from(
            _IRIS + _BAD_IRIS + _BLANKS + _BAD_BLANKS + _LITERALS + _BAD_LITERALS
            + _SUFFIXES + _BAD_SUFFIXES + _SPACES + _BAD_SPACES + _STRAYS
        ),
        st.text(max_size=2),
    ),
    max_size=10,
).map("".join)


@given(st.one_of(_shaped_lines(), _token_soup))
@example('<a:s> <a:p> "\\q" .')
@example('<a:s> <a:p> "x\\uD800y"@en .')
@settings(max_examples=1500, deadline=None)
def test_parse_line_agrees_with_the_scanner(line):
    assert_same_result(line)


def test_parse_line_agrees_with_the_scanner_on_the_acceptance_corpus():
    lines = 0
    matched = 0
    for document in fuzz_corpus():
        text = "".join(format_statement(s) + "\n" for s in document)
        statements, errors = parse_document(text)
        assert (statements, errors) == (document, [])
        for line, statement in zip(text.splitlines(), document, strict=True):
            assert assert_same_result(line) == statement
            lines += 1
            matched += ntriples._LINE_RE.fullmatch(line) is not None
    # No corpus IRI needs an escape, so every line takes the fast path.
    assert matched == lines == 8757


class _NoScanner:
    def __init__(self, line: str):
        raise AssertionError(f"the scanner ran on {line!r}")


# IRIs format without a \u escape when they avoid controls, space, <, > and \;
# a lone surrogate has no UTF-8 encoding and makes no well-formed line.
_plain_iris = st.text(
    st.characters(exclude_characters="<>\\", min_codepoint=0x21, codec="utf-8"),
    min_size=1,
    max_size=16,
).map(NodePayload.uri)
_statements = st.builds(
    Statement,
    subject=st.one_of(
        _plain_iris, st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,6}", fullmatch=True).map(NodePayload.blank)
    ),
    predicate=_plain_iris,
    object=st.one_of(
        _plain_iris,
        st.builds(NodePayload.literal, st.text(max_size=16)),
        st.builds(
            lambda text, tag: NodePayload.literal(text, language_tag=tag),
            st.text(max_size=16),
            st.from_regex(r"[a-z]{1,3}(?:-[a-z0-9]{1,3})?", fullmatch=True),
        ),
        st.builds(lambda text, dt: NodePayload.literal(text, datatype_iri=dt.iri), st.text(max_size=16), _plain_iris),
    ),
)


@given(_statements, st.sampled_from(_EDGES), st.sampled_from(_EDGES))
@settings(max_examples=300, deadline=None)
def test_well_formed_lines_never_reach_the_scanner(statement, before, after):
    line = before + format_statement(statement) + after
    with mock.patch.object(ntriples, "_Scanner", _NoScanner):
        assert parse_line(line) == statement
