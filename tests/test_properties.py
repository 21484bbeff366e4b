"""Property-based checks across the whole pipeline."""
from __future__ import annotations

import json
import random
import re
from dataclasses import astuple
from itertools import chain, starmap

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
    SchemaGraph,
    SchemaViolation,
    Statement,
    Violation,
    check_domain_range,
    deserialize,
    format_statement,
    format_term,
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
from hg2rdf.cli import _node_line
from hg2rdf.mapper import SCHEMA_PREDICATES
from hg2rdf.schema import RDFS_LITERAL
from oracles import (
    canonical_form,
    malformed_term,
    matrix_closure,
    naive_anchors,
    naive_check_domain_range,
    naive_generate_connectors,
    naive_instances,
    naive_path,
    naive_reachable,
    naive_search,
    oracle_deserialize,
    oracle_statement_of,
    random_class_graph,
    random_document,
    random_structure,
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


# Few field values, and half the pairs a term and its copy, so that equal and
# unequal pairs both occur often.
_FIELD_VALUES = [None, "", "a", "b"]
_fields = st.sampled_from(_FIELD_VALUES)
_terms = st.builds(NodePayload, st.sampled_from(PayloadKind), _fields, _fields, _fields,
                   _fields, _fields)
term_pairs = st.one_of(st.tuples(_terms, _terms), _terms.map(lambda t: (t, NodePayload(*t))))


@given(term_pairs)
def test_terms_compare_and_hash_by_their_fields(pair):
    """A term against the other term drawn and against each term that
    differs from it in one field."""
    a, b = pair
    near = [a._replace(**{name: value}) for name in a._fields
            for value in (PayloadKind if name == "kind" else _FIELD_VALUES)]
    for other in (b, *near):
        assert (a == other) is (a._asdict() == other._asdict())
        assert (hash(a) == hash(other)) is (a == other)


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


# Every sort of hypernode payload: half are IRI terms over a few IRIs that
# the graph layer below constrains and types, the rest other well-formed
# terms, terms with missing, foreign and non-string fields (one of them
# unhashable) and tag-plus-datatype literals, opaque payloads, and, one in
# sixteen, a term whose kind is no PayloadKind (one of them unhashable).
_iris = st.sampled_from(["urn:p", "urn:q", "urn:x", "urn:A", "urn:B", RDFS_LITERAL])
_odd_fields = st.sampled_from([None, "a", 5, True, ["a"]])
_other_known_payloads = st.one_of(
    blank_terms,
    st.builds(lambda text, dt: NodePayload.literal(text, datatype_iri=dt), st.text(max_size=4), _iris),
    literal_terms,
    _terms,
    st.builds(NodePayload, st.sampled_from(PayloadKind), _odd_fields, _odd_fields, _odd_fields,
              _odd_fields, _odd_fields),
    st.sampled_from(["opaque", 7, None, [1, "a"], {"k": 1.5}]),
)
_unknown_kind_terms = st.builds(
    NodePayload, st.sampled_from(["uri", "literal", 7, ["blank"]]), _fields, _fields, _fields
)
_drawn_payloads = st.integers(0, 15).flatmap(
    lambda roll: _iris.map(NodePayload.uri) if roll < 8 else _other_known_payloads if roll < 15
    else _unknown_kind_terms
)
@st.composite
def checked_structures(draw) -> HG2:
    """A structure with connectors."""
    hg2 = HG2(g=load_builtin_vocabulary())
    for source, kind, target in draw(st.lists(st.tuples(_iris, st.sampled_from(EdgeKind), _iris),
                                              max_size=8)):
        hg2.g.add_edge(hg2.g.intern(source), hg2.g.intern(target), kind)
    for payload in draw(st.lists(_drawn_payloads, min_size=1, max_size=8)):
        hg2.h.add_node(payload)
    node = st.integers(0, hg2.h.node_count - 1)
    slot = st.lists(node, min_size=1, max_size=3)
    shaped = st.tuples(st.lists(node, min_size=1, max_size=1), st.lists(node, min_size=2, max_size=2))
    for head, tail in draw(st.lists(st.one_of(shaped, st.tuples(slot, slot)), max_size=8)):
        hg2.h.add_hyperedge(head, tail)
    generate_connectors(hg2)
    return hg2


def _hypernodes_document(hg2: HG2) -> str:
    """A document of the structure's hypernodes alone, each term written
    with its kind and set fields as they are, however malformed; terms of
    unknown kind are left out (a document's unknown kind is UnknownKind)."""
    records = []
    for payload in hg2.h.nodes:
        record = {"id": len(records)}
        if not isinstance(payload, NodePayload):
            record.update(kind="opaque", value=payload)
        elif isinstance(payload.kind, PayloadKind):
            record["kind"] = payload.kind.value
            record.update((name, value) for name, value in zip(NodePayload._fields[1:], payload[1:])
                          if value is not None)
        else:
            continue
        records.append(record)
    sections = dict.fromkeys(["hyperedges", "graph_nodes", "graph_edges", "connectors_v",
                              "connectors_e"], [])
    return json.dumps({"meta": {"format": "hg2/1"}, "hypernodes": records, **sections})


@given(checked_structures())
@settings(max_examples=300, deadline=None)
def test_every_reader_of_a_hypernode_takes_every_payload(hg2):
    """Every door that reads a hypernode accepts a well-formed term or an
    opaque payload and refuses a malformed term with the term rule's text;
    no AttributeError, KeyError or TypeError escapes any of them."""
    nodes = hg2.h.nodes
    problems = [malformed_term(payload, f"hypernode {node}") for node, payload in enumerate(nodes)]
    assert [violation for violation in validate_mapping(hg2) if violation.edge is None] == [
        Violation(*problem, node=node) for node, problem in enumerate(problems) if problem
    ]
    for edge_id, edge in enumerate(hg2.h.edges):
        if any(problems[node] for node in (*edge.head, *edge.tail)):
            assert statement_of(hg2, edge_id) is None
        else:
            statement_of(hg2, edge_id)
    for node, payload in enumerate(nodes):
        problem = malformed_term(payload)
        if problem is not None or not isinstance(payload, NodePayload):
            message = problem[1] if problem else f"not a term: {type(payload).__name__}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                format_term(payload)
            assert _node_line(hg2, node) == f"hypernode {node}"
        else:
            assert _node_line(hg2, node) == format_term(payload)
    to_dot(hg2)
    assert check_domain_range(hg2) == naive_check_domain_range(hg2)
    refusal = next(filter(None, problems), None)
    if refusal is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(refusal[1])}$"):
            serialize(hg2)
    else:
        text = serialize(hg2)
        assert serialize(deserialize(text)) == text
    written = [payload for payload in nodes
               if not isinstance(payload, NodePayload) or isinstance(payload.kind, PayloadKind)]
    refusal = next(filter(None, (malformed_term(payload, "hypernode") for payload in written)), None)
    for load in (deserialize, oracle_deserialize):
        if refusal is not None:
            with pytest.raises(SchemaViolation, match=f"^{re.escape(refusal[1])}$"):
                load(_hypernodes_document(hg2))
        else:
            assert load(_hypernodes_document(hg2)).h.nodes == written


# Statements for the routing rule: each slot holds an IRI term, another
# well-formed term, a term with odd fields (non-string, one unhashable,
# foreign or missing) or a term of unknown kind, and half the predicates are
# a schema predicate's IRI, as its term or in a term with odd fields.
_odd_terms = st.builds(NodePayload, st.sampled_from(PayloadKind), _odd_fields, _odd_fields,
                       _odd_fields, _odd_fields, _odd_fields)
_slot_terms = st.one_of(iri_terms, blank_terms, literal_terms, _odd_terms, _unknown_kind_terms)
_schema_iris = st.sampled_from(sorted(SCHEMA_PREDICATES))
_schema_predicates = st.one_of(
    _schema_iris.map(NodePayload.uri),
    st.builds(NodePayload, st.sampled_from([*PayloadKind, "uri"]), _schema_iris, _odd_fields,
              _odd_fields, _odd_fields, _odd_fields),
)
routed_statements = st.builds(
    Statement,
    st.one_of(_iris.map(NodePayload.uri), _slot_terms),
    st.one_of(_schema_predicates, _slot_terms),
    st.one_of(_iris.map(NodePayload.uri), _slot_terms),
)


def _first_refusal(statements: list[Statement]) -> str | None:
    """The term rule's message for the first malformed term of statements
    that cannot be hashed, and None when they can be."""
    try:
        hash(tuple(statements))
    except TypeError:
        return next(filter(None, map(malformed_term, chain.from_iterable(statements))))[1]
    return None


def _is_iri(term: NodePayload) -> bool:
    return term.kind is PayloadKind.URI and malformed_term(term) is None


@given(routed_statements)
@settings(max_examples=300)
def test_routing_is_total_and_matches_the_rule(statement):
    refusal = _first_refusal([statement])
    if refusal is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            route_statement(statement)
        return
    subject, predicate, objekt = statement
    expected_schema = (
        _is_iri(predicate) and predicate.iri in SCHEMA_PREDICATES and _is_iri(subject) and _is_iri(objekt)
    )
    assert route_statement(statement) is (Layer.SCHEMA if expected_schema else Layer.INSTANCE)


@given(routed_statements)
@settings(max_examples=300)
def test_map_schema_statement_takes_exactly_what_routes_to_the_schema_layer(statement):
    graph = SchemaGraph()
    refusal = _first_refusal([statement])
    if refusal is None and route_statement(statement) is Layer.SCHEMA:
        assert map_schema_statement(statement, graph) is True
        assert graph.iris == list(dict.fromkeys([statement.subject.iri, statement.object.iri]))
        return
    problem = refusal or next(filter(None, map(malformed_term, statement)), (None, None))[1]
    message = problem or "route_statement sends this statement to the instance layer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        map_schema_statement(statement, graph)
    assert graph.iris == [] and not graph.edges


@given(routed_statements)
@settings(max_examples=300)
def test_map_statement_takes_exactly_what_routes_to_the_instance_layer(statement):
    hg2 = HG2(g=load_builtin_vocabulary())
    refusal = _first_refusal([statement])
    if refusal is None and route_statement(statement) is Layer.INSTANCE:
        assert map_statement(statement, hg2) == 0
        edge = hg2.h.edges[0]
        assert [hg2.h.nodes[node] for node in (edge.tail[0], edge.head[0], edge.tail[1])] == list(statement)
        return
    message = refusal or "route_statement sends this statement to the schema layer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        map_statement(statement, hg2)
    assert hg2.h.node_count == 0 and hg2.h.edge_count == 0


@given(st.lists(routed_statements, max_size=6))
@settings(max_examples=200, deadline=None)
def test_malformed_terms_never_reach_the_schema_layer(statements):
    """integrate refuses an unhashable term with the rule's text, or keeps
    every malformed term in the instance layer, so the graph layer holds
    string IRIs only, serialize writes the structure or refuses its first
    malformed hypernode with the rule's text, and to_dot renders it."""
    refusal = _first_refusal(statements)
    if refusal is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            integrate(statements)
        return
    hg2, report = integrate(statements)
    assert all(isinstance(iri, str) for iri in hg2.g.iris)
    problems = [malformed_term(payload, f"hypernode {node}") for node, payload in enumerate(hg2.h.nodes)]
    problems = [problem for problem in problems if problem]
    assert report.warnings[:len(problems)] == [f"{kind}: {message}" for kind, message in problems]
    if problems:
        with pytest.raises(ValueError, match=f"^{re.escape(problems[0][1])}$"):
            serialize(hg2)
    else:
        assert deserialize(serialize(hg2)) == hg2
    to_dot(hg2)


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 2)), max_size=40))
def test_connector_stores_agree_with_a_dict_of_pairs_per_kind(offers):
    hg2 = HG2()
    for node in range(4):
        hg2.h.add_node(node)
        hg2.g.intern(f"urn:g{node}")
    for node in range(4):
        hg2.h.add_hyperedge([node], [(node + 1) % 4])
    stores: dict[type, dict[tuple[int, int], None]] = {NodeConnector: {}, EdgeConnector: {}}
    for is_edge, source, target in offers:
        kind = EdgeConnector if is_edge else NodeConnector
        assert hg2.add_connector(source, target, kind) is ((source, target) not in stores[kind])
        stores[kind][source, target] = None
    connectors_v = tuple(starmap(NodeConnector, stores[NodeConnector]))
    assert hg2.connectors_v == connectors_v
    assert hg2.connectors_e == tuple(starmap(EdgeConnector, stores[EdgeConnector]))
    for node in range(4):
        assert hg2.anchors_of_node(node) == naive_anchors(connectors_v, node)
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
            assert hg2.add_connector(*astuple(connector), type(connector)) is False
        assert hg2 == built


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_instances_of_agrees_with_the_connector_scan(seed):
    built = random_structure(random.Random(seed))
    for hg2 in (built, deserialize(serialize(built))):
        for iri in hg2.g.iris:
            items = instances_of(hg2, iri).items
            assert items == tuple(sorted(naive_instances(hg2, iri)))


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
def test_forward_star_search_agrees_with_the_breadth_first_oracle(graph):
    n, edges = graph
    h = Hypergraph()
    for node in range(n):
        h.add_node(node)
    for head, tail in edges:
        h.add_hyperedge(head, tail)
    heads = {node for head, _ in edges for node in head}
    for start in range(n):
        expected = naive_search(h, start)
        reached = h._search(start)
        assert h.forward_reachable(start) == set(expected)
        # the search records the heads only, as and whence the oracle reached them
        assert list(reached) == [node for node in expected if node in heads]
        for node, previous in reached.items():
            assert (h._forward[previous][node], previous) == expected[node]
        for target in range(n):
            assert h.forward_path(start, target) == naive_path(expected, start, target)


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
