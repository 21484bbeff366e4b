"""Property-based checks across the whole pipeline."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hg2rdf import (
    EdgeConnector,
    EdgeKind,
    Hypergraph,
    Layer,
    NodeConnector,
    NodePayload,
    ParseError,
    PayloadKind,
    Statement,
    check_domain_range,
    deserialize,
    format_statement,
    generate_connectors,
    instances_of,
    integrate,
    load_builtin_vocabulary,
    map_schema_statement,
    map_statement,
    parse_line,
    route_statement,
    serialize,
    statement_of,
    to_dot,
    validate_mapping,
)
from hg2rdf import HG2
from hg2rdf.mapper import SCHEMA_PREDICATES
from hg2rdf.schema import RDFS_LITERAL
from oracles import (
    DataclassConnectorStore,
    DataclassPayload,
    canonical_form,
    head_list_search,
    matrix_closure,
    naive_anchors,
    naive_check_domain_range,
    naive_generate_connectors,
    naive_instances,
    naive_reachable,
    oracle_check_domain_range,
    oracle_statement_of,
    random_class_graph,
    random_document,
    random_structure,
    scan_instances,
)

iri_terms = st.text(min_size=1, max_size=24).map(NodePayload.uri)
blank_terms = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,9}", fullmatch=True).map(NodePayload.blank)
language_tags = st.from_regex(r"[a-z]{1,4}(?:-[a-z0-9]{1,4}){0,2}", fullmatch=True)
plain_literals = st.text(max_size=24).map(NodePayload.literal)
tagged_literals = st.builds(
    lambda text, tag: NodePayload.literal(text, language_tag=tag),
    st.text(max_size=24),
    language_tags,
)
typed_literals = st.builds(
    lambda text, dt: NodePayload.literal(text, datatype_iri=dt.iri), st.text(max_size=24), iri_terms
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
        statement.subject.kind is PayloadKind.URI
        and statement.object.kind is PayloadKind.URI
        and statement.predicate.iri in SCHEMA_PREDICATES
    )
    assert layer is (Layer.SCHEMA if expected_schema else Layer.INSTANCE)


# Few field values, and half the pairs a term and its copy, so that equal and
# unequal pairs both occur often.
_fields = st.sampled_from([None, "", "a", "b"])
_terms = st.builds(NodePayload, st.sampled_from(PayloadKind), _fields, _fields, _fields,
                   _fields, _fields)
term_pairs = st.one_of(st.tuples(_terms, _terms), _terms.map(lambda t: (t, NodePayload(*t))))


@given(term_pairs)
def test_terms_compare_and_hash_as_the_dataclass_terms_did(pair):
    a, b = pair
    old_a, old_b = DataclassPayload.of(a), DataclassPayload.of(b)
    assert (a == b) is (old_a == old_b)
    assert (hash(a) == hash(b)) is (hash(old_a) == hash(old_b))


# Complete and incomplete terms, tag-plus-datatype literals and opaque
# payloads, joined by hyperedges with one to three nodes per slot.  Half the
# payloads are IRIs and half the edges statement-shaped, so that statements
# and each reason for None occur often.
_other_payloads = st.one_of(blank_terms, literal_terms, _terms, st.sampled_from(["opaque", 7, None]))
_payloads = st.booleans().flatmap(lambda iri: iri_terms if iri else _other_payloads)


@st.composite
def placement_structures(draw) -> HG2:
    hg2 = HG2()
    hg2.h._append_nodes(draw(st.lists(_payloads, min_size=1, max_size=6)))
    node = st.integers(0, hg2.h.node_count - 1)
    slot = st.lists(node, min_size=1, max_size=3)
    shaped = st.tuples(st.lists(node, min_size=1, max_size=1), st.lists(node, min_size=2, max_size=2))
    for head, tail in draw(st.lists(st.one_of(shaped, st.tuples(slot, slot)), max_size=8)):
        hg2.h.add_hyperedge(head, tail)
    return hg2


@given(placement_structures())
@settings(max_examples=300, deadline=None)
def test_statement_of_agrees_with_its_old_checks(hg2):
    for edge_id in range(-1, hg2.h.edge_count + 1):
        assert statement_of(hg2, edge_id) == oracle_statement_of(hg2, edge_id)


# Every sort of hypernode payload, each drawn with whether its kind is
# unknown: half are IRI terms over a few IRIs that the graph layer below
# constrains and types, the rest other well-formed terms, incomplete and
# tag-plus-datatype terms, opaque payloads, and, one in sixteen, a term
# whose kind is no PayloadKind (one of them unhashable).
_iris = st.sampled_from(["urn:p", "urn:q", "urn:x", "urn:A", "urn:B", RDFS_LITERAL])
_other_known_payloads = st.one_of(
    blank_terms,
    st.builds(lambda text, dt: NodePayload.literal(text, datatype_iri=dt), st.text(max_size=4), _iris),
    literal_terms,
    _terms,
    st.sampled_from(["opaque", 7, None, [1, "a"], {"k": 1.5}]),
)
_unknown_kind_terms = st.builds(
    NodePayload, st.sampled_from(["uri", "literal", 7, ["blank"]]), _fields, _fields, _fields
)
_drawn_payloads = st.integers(0, 15).flatmap(lambda roll: st.tuples(
    _iris.map(NodePayload.uri) if roll < 8 else _other_known_payloads if roll < 15
    else _unknown_kind_terms,
    st.just(roll == 15),
))


@st.composite
def checked_structures(draw) -> tuple[HG2, bool]:
    """A structure with connectors, and whether it holds a term of unknown kind."""
    hg2 = HG2(g=load_builtin_vocabulary())
    for source, kind, target in draw(st.lists(st.tuples(_iris, st.sampled_from(EdgeKind), _iris),
                                              max_size=8)):
        hg2.g.add_edge(hg2.g.intern(source), hg2.g.intern(target), kind)
    drawn = draw(st.lists(_drawn_payloads, min_size=1, max_size=8))
    for payload, _ in drawn:
        hg2.h.add_node(payload)
    node = st.integers(0, hg2.h.node_count - 1)
    slot = st.lists(node, min_size=1, max_size=3)
    shaped = st.tuples(st.lists(node, min_size=1, max_size=1), st.lists(node, min_size=2, max_size=2))
    for head, tail in draw(st.lists(st.one_of(shaped, st.tuples(slot, slot)), max_size=8)):
        hg2.h.add_hyperedge(head, tail)
    generate_connectors(hg2)
    return hg2, any(unknown for _, unknown in drawn)


@given(checked_structures())
@settings(max_examples=300, deadline=None)
def test_every_reader_of_a_hypernode_takes_every_payload(structure):
    hg2, unknown_kind = structure
    to_dot(hg2)
    validate_mapping(hg2)
    for edge_id in range(hg2.h.edge_count):
        statement_of(hg2, edge_id)
    assert check_domain_range(hg2) == naive_check_domain_range(hg2) == oracle_check_domain_range(hg2)
    if unknown_kind:
        with pytest.raises(ValueError, match="^hypernode [0-9]+ has unknown kind "):
            serialize(hg2)
    else:
        text = serialize(hg2)
        assert serialize(deserialize(text)) == text


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 2)), max_size=40))
def test_connector_stores_agree_with_the_dataclass_keyed_store(offers):
    hg2 = HG2()
    for node in range(4):
        hg2.h.add_node(node)
        hg2.g.intern(f"urn:g{node}")
    for node in range(4):
        hg2.h.add_hyperedge([node], [(node + 1) % 4])
    oracle = DataclassConnectorStore()
    for is_edge, source, target in offers:
        connector = (EdgeConnector if is_edge else NodeConnector)(source, target)
        assert hg2.add_connector(connector) is oracle.add_connector(connector)
    assert hg2.connectors_v == oracle.connectors_v
    assert hg2.connectors_e == oracle.connectors_e
    for node in range(4):
        assert hg2.anchors_of_node(node) == naive_anchors(oracle.connectors_v, node)
    assert deserialize(serialize(hg2)) == hg2


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
        for connector in [*hg2.connectors_v, *hg2.connectors_e]:
            assert hg2.add_connector(replace(connector)) is False
        assert hg2 == built


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_instances_of_agrees_with_the_connector_scan(seed):
    built = random_structure(random.Random(seed))
    for hg2 in (built, deserialize(serialize(built))):
        for iri in hg2.g.iris:
            items = instances_of(hg2, iri).items
            assert items == scan_instances(hg2, iri)
            assert set(items) == naive_instances(hg2, iri)


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_reachability_agrees_with_the_fixpoint_oracle(seed):
    rng = random.Random(seed)
    hg2 = random_structure(rng)
    for start in range(hg2.h.node_count):
        assert hg2.h.forward_reachable(start) == naive_reachable(hg2.h, start)


# Few nodes, so ids repeat within a slot, across head and tail, and across edges.
small_hypergraphs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
                st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
            ),
            max_size=12,
        ),
    )
)


@given(small_hypergraphs)
def test_forward_star_search_agrees_with_the_head_list_search(graph):
    n, edges = graph
    h = Hypergraph()
    for node in range(n):
        h.add_node(node)
    for head, tail in edges:
        h.add_hyperedge(head, tail)
    for start in range(n):
        for target in (None, *range(n)):
            expected = head_list_search(h, start, target)
            reached = h._search(start, target)
            assert list(reached) == list(expected)
            for node, previous in reached.items():
                assert (h._forward[previous][node], previous) == expected[node]
            if target is None:
                continue
            path: tuple[int, ...] | None = ()
            if target != start:
                path = None
                if target in expected:
                    edge_ids = []
                    node = target
                    while node != start:
                        edge_id, node = expected[node]
                        edge_ids.append(edge_id)
                    path = tuple(reversed(edge_ids))
            assert h.forward_path(start, target) == path


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


def mapped(corpus: list[Statement]) -> HG2:
    """The structure ``integrate`` builds from ``corpus``, before connectors."""
    hg2 = HG2(g=load_builtin_vocabulary())
    for statement in dict.fromkeys(corpus):
        if route_statement(statement) is Layer.SCHEMA:
            map_schema_statement(statement, hg2.g)
        else:
            map_statement(statement, hg2)
    return hg2


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_connector_generation_agrees_with_the_per_occurrence_oracle(seed):
    corpus = random_document(random.Random(seed), max_statements=40)
    built, _ = integrate(corpus)
    oracle = mapped(corpus)
    naive_generate_connectors(oracle)
    assert built.connectors_v == oracle.connectors_v
    assert built.connectors_e == oracle.connectors_e


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_connector_generation_is_idempotent_on_random_builds(seed):
    hg2 = mapped(random_document(random.Random(seed)))
    generate_connectors(hg2)
    snapshot = (hg2.connectors_v, hg2.connectors_e)
    generate_connectors(hg2)
    assert (hg2.connectors_v, hg2.connectors_e) == snapshot


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_double_integration_interns_to_the_same_structure(seed):
    corpus = random_document(random.Random(seed))
    once, _ = integrate(corpus)
    twice, _ = integrate(corpus + corpus)
    assert canonical_form(twice) == canonical_form(once)
