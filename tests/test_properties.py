"""Property-based checks across the whole pipeline."""
from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from hg2rdf import (
    BlankLabel,
    IriRef,
    Layer,
    Literal,
    ParseError,
    Statement,
    deserialize,
    format_statement,
    generate_connectors,
    integrate,
    load_builtin_vocabulary,
    map_schema_statement,
    map_statement,
    parse_line,
    route_statement,
    serialize,
    validate_mapping,
)
from hg2rdf import HG2
from hg2rdf.mapper import SCHEMA_PREDICATES
from oracles import (
    canonical_form,
    matrix_closure,
    naive_anchors,
    naive_reachable,
    random_class_graph,
    random_document,
    random_structure,
)

iri_terms = st.text(min_size=1, max_size=24).map(IriRef)
blank_terms = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,9}", fullmatch=True).map(BlankLabel)
language_tags = st.from_regex(r"[a-z]{1,4}(?:-[a-z0-9]{1,4}){0,2}", fullmatch=True)
plain_literals = st.text(max_size=24).map(Literal)
tagged_literals = st.builds(
    lambda text, tag: Literal(text, language_tag=tag),
    st.text(max_size=24),
    language_tags,
)
typed_literals = st.builds(
    lambda text, dt: Literal(text, datatype=dt), st.text(max_size=24), iri_terms
)
literal_terms = st.one_of(plain_literals, tagged_literals, typed_literals)

statements = st.builds(
    Statement,
    subject=st.one_of(iri_terms, blank_terms),
    predicate=iri_terms,
    object=st.one_of(iri_terms, blank_terms, literal_terms),
)


@given(statements)
def test_format_then_parse_is_identity(statement):
    assert parse_line(format_statement(statement)) == statement


@given(st.text(max_size=80))
def test_parse_line_is_total(line):
    result = parse_line(line)
    assert isinstance(result, (Statement, ParseError))


@given(statements)
def test_routing_is_total_and_matches_the_rule(statement):
    layer = route_statement(statement)
    expected_schema = (
        isinstance(statement.subject, IriRef)
        and isinstance(statement.object, IriRef)
        and statement.predicate.value in SCHEMA_PREDICATES
    )
    assert layer is (Layer.SCHEMA if expected_schema else Layer.INSTANCE)


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_serialization_round_trip_on_random_structures(seed):
    hg2 = random_structure(random.Random(seed))
    assert deserialize(serialize(hg2)) == hg2


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_anchor_index_agrees_with_the_connector_scan(seed):
    built = random_structure(random.Random(seed))
    for hg2 in (built, deserialize(serialize(built))):
        for node in range(hg2.h.node_count):
            assert hg2.anchors_of_node(node) == naive_anchors(hg2.connectors_v, node)
        for edge in range(hg2.h.edge_count):
            assert hg2.anchors_of_edge(edge) == naive_anchors(hg2.connectors_e, edge)
        for connector in [*hg2.connectors_v, *hg2.connectors_e]:
            assert hg2.add_connector(replace(connector)) is False
        assert hg2 == built


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_reachability_agrees_with_the_fixpoint_oracle(seed):
    rng = random.Random(seed)
    hg2 = random_structure(rng)
    for start in range(hg2.h.node_count):
        assert hg2.h.forward_reachable(start) == naive_reachable(hg2.h, start)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_subclass_closure_agrees_with_the_matrix_oracle(seed):
    graph = random_class_graph(random.Random(seed), max_nodes=16)
    for node in range(graph.node_count):
        assert graph.subclass_closure(node) == matrix_closure(graph, node)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_one_hyperedge_per_distinct_instance_statement(seed):
    corpus = random_document(random.Random(seed))
    hg2, report = integrate(corpus)
    distinct_instance = {s for s in corpus if route_statement(s) is Layer.INSTANCE}
    assert report.hyperedges_created == len(distinct_instance)
    assert all(
        len(edge.head) == 1 and len(edge.tail) == 2 for edge in hg2.h.edges
    )


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_mapper_builds_always_validate_clean(seed):
    corpus = random_document(random.Random(seed))
    hg2, report = integrate(corpus)
    assert validate_mapping(hg2) == []
    assert report.warnings == []


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_integration_is_order_stable(seed):
    rng = random.Random(seed)
    corpus = random_document(rng)
    shuffled = list(corpus)
    rng.shuffle(shuffled)
    first, _ = integrate(corpus)
    second, _ = integrate(shuffled)
    assert canonical_form(first) == canonical_form(second)


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_connector_generation_is_idempotent_on_random_builds(seed):
    corpus = random_document(random.Random(seed))
    hg2 = HG2(g=load_builtin_vocabulary())
    for statement in dict.fromkeys(corpus):
        if route_statement(statement) is Layer.SCHEMA:
            map_schema_statement(statement, hg2.g)
        else:
            map_statement(statement, hg2)
    generate_connectors(hg2)
    snapshot = (list(hg2.connectors_v), list(hg2.connectors_e))
    generate_connectors(hg2)
    assert (hg2.connectors_v, hg2.connectors_e) == snapshot


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_double_integration_interns_to_the_same_structure(seed):
    corpus = random_document(random.Random(seed))
    once, _ = integrate(corpus)
    twice, _ = integrate(corpus + corpus)
    assert canonical_form(twice) == canonical_form(once)
