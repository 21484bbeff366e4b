"""The per-statement write path against the code it replaced.

``parse_document`` makes one term object per distinct IRI and blank label,
``integrate`` maps each statement in one interning pass, and
``check_domain_range`` resolves each predicate once per call.  Each must
give what its oracle in ``oracles.py`` gives: the same statements and
errors, the same structure, indexes, report and document bytes, and the
same warnings in the same order.  Inputs: hypothesis documents over a few
repeated terms (escaped and malformed lines among them), the oracles'
random statement lists, and the seeded benchmark corpora.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hg2rdf import (
    PayloadKind,
    check_domain_range,
    integrate,
    parse_document,
    serialize,
)
from hg2rdf import ntriples
from hg2rdf.schema import RDF_TYPE, RDFS_DOMAIN, RDFS_LITERAL, RDFS_RANGE, RDFS_SUBCLASSOF
from oracles import (
    assert_same_indexes,
    naive_check_domain_range,
    oracle_integrate,
    oracle_parse_document,
    random_document,
)

# A few terms, so that lines repeat them and schema statements meet their
# instances.  ``<urn:café>`` is ``<urn:café>`` spelled with an escape,
# which only the scanner reads; ``<x>`` is an IRI spelled like the blank
# label ``_:x``.
_IRIS = ("<urn:a>", "<urn:b>", "<urn:C>", "<urn:D>", "<x>", "<urn:café>", "<urn:caf\\u00E9>")
_VOCABULARY = tuple(f"<{iri}>" for iri in (RDF_TYPE, RDFS_SUBCLASSOF, RDFS_DOMAIN, RDFS_RANGE))
_BLANKS = ("_:x", "_:y")
_LITERALS = ('"v"', '"v"@EN', '"5"^^<urn:int>', '"a\\tb"', '"\\q"', '"e"^^<urn:caf\\u00E9>',
             f'"x"^^<{RDFS_LITERAL}>')
_classes = st.sampled_from(("<urn:C>", "<urn:D>", f"<{RDFS_LITERAL}>"))
_lines = st.one_of(
    st.tuples(st.sampled_from(_IRIS + _BLANKS), st.sampled_from(_IRIS),
              st.sampled_from(_IRIS + _BLANKS + _LITERALS)).map(" ".join),
    st.tuples(st.sampled_from(_IRIS + _BLANKS), st.sampled_from(_VOCABULARY), _classes).map(" ".join),
    st.tuples(st.sampled_from(_IRIS), st.sampled_from(_VOCABULARY[2:]), _classes).map(" ".join),
).map(lambda line: line + " .") | st.sampled_from(
    ("", "# comment", '"s" <urn:a> <urn:b> .', "<urn:a> _:x <urn:b> .", "<urn:a> <urn:b> <urn:c>",
     "<urn:a> <urn:b> .", "<urn:\ud800> <urn:b> <urn:c> .")
)
documents = st.lists(_lines, max_size=30).map("\n".join)


@given(documents)
@settings(max_examples=300, deadline=None)
def test_parse_document_gives_the_per_line_results(text):
    assert parse_document(text) == oracle_parse_document(text)


@given(documents)
@settings(max_examples=200, deadline=None)
def test_integrate_and_check_domain_range_agree_with_their_oracles(text):
    new, new_report = integrate(parse_document(text)[0])
    old, old_report = oracle_integrate(oracle_parse_document(text)[0])
    assert new == old
    assert_same_indexes(new, old)
    assert new_report == old_report
    assert serialize(new) == serialize(old)
    assert check_domain_range(new) == naive_check_domain_range(old)


@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_integrate_agrees_with_its_oracle_on_random_statement_lists(seed):
    statements = random_document(random.Random(seed), max_statements=40)
    new, new_report = integrate(statements)
    old, old_report = oracle_integrate(statements)
    assert (new, new_report) == (old, old_report)
    assert_same_indexes(new, old)
    assert serialize(new) == serialize(old)
    assert check_domain_range(new) == naive_check_domain_range(new)


@pytest.mark.parametrize("workload", ["ingest", "validate", "query"])
def test_bench_corpora_take_the_write_path_as_the_oracles_do(bench_corpora, workload):
    corpus = bench_corpora[workload]
    statements, old_statements, errors = [], [], 0
    for name in [*corpus.schema_inputs, *corpus.inputs]:
        parsed = parse_document(corpus.files[name])
        assert parsed == oracle_parse_document(corpus.files[name])
        statements += parsed[0]
        old_statements += oracle_parse_document(corpus.files[name])[0]
        errors += len(parsed[1])
    new, new_report = integrate(statements)
    old, old_report = oracle_integrate(old_statements)
    assert new == old
    assert_same_indexes(new, old)
    assert new_report == old_report
    assert serialize(new) == serialize(old)
    warnings = check_domain_range(new)
    assert warnings == naive_check_domain_range(old)
    # The validate corpus has malformed lines and unsatisfied constraints,
    # so the comparison covers errors and warnings, not just empty lists.
    if workload == "validate":
        assert errors > 0 and len(warnings) > 100


def test_a_document_holds_one_object_per_distinct_iri_and_blank_label():
    subjects = ("<urn:s>", "<urn:caf\\u00E9>", "_:x", "<urn:café>")
    objects = ("<x>", "_:x", '"café"', "<urn:s>")
    lines = [f"{subjects[i % 4]} <urn:p{i % 3}> {objects[i % 7 % 4]} ." for i in range(84)]
    text = "\n".join(lines)
    scanned = sum(ntriples._LINE_RE.fullmatch(line) is None for line in lines)
    assert 0 < scanned < len(lines)  # both parser paths make terms

    statements, errors = parse_document(text)
    assert errors == [] and len(statements) == len(lines)
    terms = [term for statement in statements for term in statement
             if term.kind is not PayloadKind.LITERAL]
    # urn:s, urn:café (plain and escaped), _:x, x, urn:p0..urn:p2
    assert len(set(terms)) == 7
    assert len({id(term) for term in terms}) == 7
    # Another call makes equal terms; they need not be the same objects.
    assert parse_document(text) == (statements, errors)
