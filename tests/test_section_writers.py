"""The section writers of both layers against the one-at-a-time writers
they replaced.

``_append_nodes`` and ``_append_edges`` take whole sections; the oracles
``oracle_append_node`` and ``oracle_append_edge`` take one node or edge per
call.  Both must leave the same nodes, edges and derived indexes: the
payload index, the incidence lists and each forward star's items in order,
none of which ``HG2.__eq__`` compares.  ``integrate`` and ``deserialize``
are checked against ``oracle_integrate`` and ``oracle_deserialize`` (which
write through the oracles) on hypothesis inputs and the seed-1 corpora in
``test_write_path.py`` and ``test_hg2_io.py``; here the instance section of
``integrate``, ``_map_instances``, meets the one-at-a-time oracles, and the
column-at-a-time decoding of the hypernodes section meets the documents its
per-record fallback has to catch.  ``SchemaGraph._append_edges`` meets
``oracle_append_graph_edge``, the schema section of ``integrate`` meets
``oracle_schema_layer`` (one ``intern`` per endpoint and one ``add_edge``
per statement), and the graph sections of a document load whole, or raise
as the oracle's reader raises.
"""
from __future__ import annotations

import json
import random
import re
from itertools import filterfalse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hg2rdf import (
    HG2,
    SCHEMA_PREDICATES,
    EdgeKind,
    GraphEdge,
    NodePayload,
    SchemaGraph,
    SchemaViolation,
    Statement,
    UnknownKind,
    deserialize,
    integrate,
    load_builtin_vocabulary,
    parse_document,
    serialize,
)
from hg2rdf.mapper import _map_instances
from hg2rdf.schema import RDF_PROPERTY
from oracles import (
    assert_same_indexes,
    malformed_term,
    oracle_add_hyperedge,
    oracle_add_node,
    oracle_append_edge,
    oracle_append_graph_edge,
    oracle_append_node,
    oracle_deserialize,
    oracle_schema_layer,
    random_document,
)
from test_hg2_io import assert_same_outcome, outcome

# Few distinct values, so payloads repeat; lists are unhashable and never
# indexed; a section with a malformed term is refused whole.
section_payloads = st.one_of(
    st.builds(NodePayload.uri, st.sampled_from("abc")),
    st.builds(NodePayload.literal, st.sampled_from("xy")),
    st.sampled_from(("opaque", 1, None)),
    st.lists(st.integers(0, 2), max_size=2),
    st.sampled_from((NodePayload.uri(5), NodePayload.uri(["a"]), NodePayload.blank(None))),
)


@st.composite
def sections(draw) -> tuple[list[list], list[list[tuple[list[int], list[int]]]]]:
    """Node sections, then edge sections over the nodes of the sections
    that hold no malformed term."""
    node_sections = draw(st.lists(st.lists(section_payloads, max_size=5), min_size=1, max_size=3))
    count = sum(len(section) for section in node_sections if not any(map(malformed_term, section)))
    if not count:
        return node_sections, []
    slot = st.lists(st.integers(0, count - 1), min_size=1, max_size=3)
    return node_sections, draw(st.lists(st.lists(st.tuples(slot, slot), max_size=5), max_size=3))


@settings(max_examples=200, deadline=None)
@given(sections())
def test_section_writers_leave_what_one_at_a_time_writes_leave(drawn):
    node_sections, edge_sections = drawn
    new, old = HG2(), HG2()
    for section in node_sections:
        problem = next(filter(None, map(malformed_term, section)), None)
        if problem is not None:
            # refused with the first malformed term's message; nothing is written
            with pytest.raises(ValueError, match=f"^{re.escape(problem[1])}$"):
                new.h._append_nodes(section)
            assert new == old
            assert_same_indexes(new, old)
            continue
        start = new.h.node_count
        assert new.h._append_nodes(section) == start
        for payload in section:
            oracle_append_node(old.h, payload)
    for section in edge_sections:
        start = new.h.edge_count
        heads, tails = [list(head) for head, _ in section], [list(tail) for _, tail in section]
        assert new.h._append_edges(heads, tails) == start
        for head, tail in section:
            oracle_append_edge(old.h, list(head), list(tail))
    assert new == old
    assert_same_indexes(new, old)


statements = st.builds(
    Statement,
    st.builds(NodePayload.uri, st.sampled_from("stu")) | st.builds(NodePayload.blank, st.sampled_from("b")),
    st.builds(NodePayload.uri, st.sampled_from("pqs")),
    st.builds(NodePayload.uri, st.sampled_from("ot")) | st.builds(NodePayload.literal, st.sampled_from("vs")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(statements, max_size=12))
def test_map_instances_interns_as_the_one_at_a_time_writers_did(drawn):
    whole, old = HG2(), HG2()
    assert _map_instances(whole.h, drawn) == 0
    for statement in drawn:
        subject = oracle_add_node(old.h, statement.subject)
        predicate = oracle_add_node(old.h, statement.predicate)
        objekt = oracle_add_node(old.h, statement.object)
        oracle_add_hyperedge(old.h, [predicate], [subject, objekt])
    assert whole == old
    assert_same_indexes(whole, old)


def three_terms() -> dict:
    """A document whose hypernodes are three distinct terms."""
    hg2 = HG2()
    for payload in (NodePayload.uri("urn:a"), NodePayload.literal("v", language_tag="en"),
                    NodePayload.literal("5", datatype_iri="urn:int")):
        hg2.h.add_node(payload)
    hg2.h.add_hyperedge([0], [0, 1])
    return json.loads(serialize(hg2))


def edited(*edits: tuple[int, dict], replace: bool = False) -> str:
    """The three terms' document with each edited record updated by its
    fields, or, with ``replace``, replaced by them (its id kept)."""
    document = three_terms()
    for index, fields in edits:
        if replace:
            document["hypernodes"][index] = {"id": index}
        document["hypernodes"][index].update(fields)
    return json.dumps(document)


@pytest.mark.parametrize(("text", "refused"), [
    # a non-string field in a middle record
    (edited((1, {"iri": 5})), (SchemaViolation, "hypernode field 'iri' must be a string")),
    (edited((1, {"lexical_form": ["v"]})),
     (SchemaViolation, "hypernode field 'lexical_form' must be a string")),
    (edited((1, {"datatype_iri": True})),
     (SchemaViolation, "hypernode field 'datatype_iri' must be a string")),
    # an unknown kind
    (edited((1, {"kind": "iri"})), (UnknownKind, "unknown hypernode kind 'iri'")),
    (edited((2, {"kind": 1})), (UnknownKind, "unknown hypernode kind 1")),
    (edited((1, {"kind": None})), (UnknownKind, "unknown hypernode kind None")),
    # a literal turned opaque that keeps its term fields, which an opaque
    # record may hold only as null
    (edited((1, {"kind": "opaque"})), (SchemaViolation, "opaque hypernode cannot carry 'lexical_form'")),
    (edited((1, {"kind": "opaque", "value": 1}), (2, {"kind": "x"})),
     (SchemaViolation, "opaque hypernode cannot carry 'lexical_form'")),
    # a repeated term
    (edited((2, {"kind": "uri", "iri": "urn:a", "lexical_form": None, "datatype_iri": None})),
     (SchemaViolation, "hypernodes 0 and 2 carry the same term")),
    # the first bad record raises, not the first bad column
    (edited((1, {"blank_label": 7}), (2, {"kind": "x"})),
     (SchemaViolation, "hypernode field 'blank_label' must be a string")),
    (edited((1, {"kind": "x"}), (2, {"iri": 7})), (UnknownKind, "unknown hypernode kind 'x'")),
    # an opaque payload in the middle of the section
    (edited((1, {"kind": "opaque"}), replace=True),
     (SchemaViolation, "opaque hypernode has no value")),
    (edited((1, {"kind": "opaque", "value": 1}), (2, {"kind": "x"}), replace=True),
     (UnknownKind, "unknown hypernode kind 'x'")),
    (edited((1, {"kind": "opaque", "value": [1, "v"]})),
     (SchemaViolation, "opaque hypernode cannot carry 'lexical_form'")),
    (edited((1, {"kind": "opaque", "value": "urn:a"}), (2, {"kind": "opaque", "value": "urn:a"})),
     (SchemaViolation, "opaque hypernode cannot carry 'lexical_form'")),
    # a term without its required field, and a tag beside a datatype
    (edited((1, {"lexical_form": None})), (SchemaViolation, "literal hypernode has no lexical_form")),
    (edited((2, {"language_tag": "en"})),
     (SchemaViolation, "hypernode carries both a language tag and a datatype")),
])
def test_a_hypernodes_section_that_fails_a_column_check_raises_as_the_oracle(text, refused):
    assert outcome(deserialize, text) == refused
    assert outcome(oracle_deserialize, text) == refused


@pytest.mark.parametrize("text", [
    # an opaque payload in the middle, without term keys
    edited((1, {"kind": "opaque", "value": [1, "v"]}), replace=True),
    edited((1, {"kind": "opaque", "value": "urn:a"}), (2, {"kind": "opaque", "value": "urn:a"}),
           replace=True),
    edited((1, {"iri": None, "blank_label": None})),  # a null field is an absent one
    edited((1, {"kind": "opaque", "value": 1, "lexical_form": None, "language_tag": None})),
])
def test_odd_but_valid_hypernodes_sections_load_as_the_oracle_loads(text):
    assert isinstance(outcome(deserialize, text), HG2)
    assert_same_outcome(text)


def assert_same_graph(a: SchemaGraph, b: SchemaGraph) -> None:
    """The same IRIs and ids, edges in the same order, and the same indexes."""
    assert a == b
    assert_same_indexes(HG2(g=a), HG2(g=b))


graph_edges = st.builds(GraphEdge, st.integers(0, 3), st.integers(0, 3), st.sampled_from(EdgeKind))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(graph_edges, max_size=8), max_size=3))
def test_the_graph_edge_writer_leaves_what_one_at_a_time_writes_leave(edge_sections):
    new, old = SchemaGraph(), SchemaGraph()
    assert new._append_nodes([f"urn:{name}" for name in "abcd"]) == 0
    for name in "abcd":
        old.intern(f"urn:{name}")
    for section in edge_sections:
        new._append_edges(list(filterfalse(new.edges.__contains__, dict.fromkeys(section))))
        for edge in section:
            if edge not in old.edges:
                oracle_append_graph_edge(old, edge)
    assert_same_graph(new, old)


# Statements over a few ends, with the schema predicates among the
# predicates; some ends are no IRI, or are malformed, and so keep their
# statement in the instance layer.
_ends = st.sampled_from([NodePayload.uri("urn:a"), NodePayload.uri("urn:b"), NodePayload.uri("urn:C"),
                         NodePayload.uri(RDF_PROPERTY),
                         NodePayload.blank("b"), NodePayload.literal("v"), NodePayload.uri(""),
                         NodePayload.uri(5), NodePayload.blank("a b")])
_predicates = st.sampled_from([*map(NodePayload.uri, SCHEMA_PREDICATES), NodePayload.uri("urn:p")])
schema_statements = st.builds(Statement, _ends, _predicates, _ends)


@settings(max_examples=200, deadline=None)
@given(st.lists(schema_statements, max_size=16))
def test_integrate_maps_the_schema_layer_as_oracle_schema_layer_does(drawn):
    """Or refuses a malformed end with the message the oracle's
    statement-by-statement mapping raises."""
    try:
        expected = oracle_schema_layer(drawn)
    except ValueError as refusal:
        with pytest.raises(ValueError, match=f"^{re.escape(str(refusal))}$"):
            integrate(drawn)
        return
    assert_same_graph(integrate(drawn)[0].g, expected)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_integrate_maps_the_schema_layer_of_random_documents_as_oracle_schema_layer_does(seed):
    statements = random_document(random.Random(seed), max_statements=40)
    assert_same_graph(integrate(statements)[0].g, oracle_schema_layer(statements))


@pytest.mark.parametrize("workload", ["ingest", "validate"])
def test_integrate_maps_the_schema_layer_of_the_bench_corpora_as_oracle_schema_layer_does(
        bench_corpora, workload):
    corpus = bench_corpora[workload]
    statements = [statement for name in (*corpus.schema_inputs, *corpus.inputs)
                  for statement in parse_document(corpus.files[name])[0]]
    built = integrate(statements)[0]
    assert built.g.edge_count > 100
    assert_same_graph(built.g, oracle_schema_layer(statements))


def vocabulary_document() -> dict:
    """A document whose graph layer is the built-in vocabulary: 13 nodes
    and the 4 SubClassOf edges under the root."""
    return json.loads(serialize(HG2(g=load_builtin_vocabulary())))


def test_the_graph_sections_of_a_document_load_whole(monkeypatch):
    text = json.dumps(vocabulary_document())
    sections = []
    for name in ("_append_nodes", "_append_edges"):
        writer = getattr(SchemaGraph, name)
        monkeypatch.setattr(SchemaGraph, name, lambda graph, section, writer=writer, name=name: (
            sections.append((name, len(section))), writer(graph, section))[1])
    for name in ("intern", "add_edge"):
        monkeypatch.setattr(SchemaGraph, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
    loaded = deserialize(text)
    assert sections == [("_append_nodes", 13), ("_append_edges", 4)]
    monkeypatch.undo()
    assert_same_graph(loaded.g, oracle_deserialize(text).g)


def _set(section: str, index: int, **fields):
    return lambda document: document[section][index].update(fields)


@pytest.mark.parametrize(("edit", "refused"), [
    (_set("graph_nodes", 4, iri="http://www.w3.org/2000/01/rdf-schema#Class"),
     (SchemaViolation, "duplicate graph node iri 'http://www.w3.org/2000/01/rdf-schema#Class'")),
    (_set("graph_nodes", 2, iri=5), (SchemaViolation, "graph node 2 needs a string iri")),
    (_set("graph_nodes", 2, iri=None), (SchemaViolation, "graph node 2 needs a string iri")),
    (_set("graph_nodes", 2, iri=""), (SchemaViolation, "graph node 2 has an empty iri")),
    (_set("graph_edges", 1, kind="x"), (UnknownKind, "unknown graph edge kind 'x'")),
    (_set("graph_edges", 1, kind=None), (UnknownKind, "unknown graph edge kind None")),
    (_set("graph_edges", 2, to="0"),
     (SchemaViolation, "graph edge 2 is malformed: ids must be int, got '0'")),
    (_set("graph_edges", 2, **{"from": True}),
     (SchemaViolation, "graph edge 2 is malformed: ids must be int, got True")),
    (_set("graph_edges", 3, to=13),
     (SchemaViolation, "graph edge 3 is malformed: graph node 13 does not exist")),
    (_set("graph_edges", 3, **{"from": -1}),
     (SchemaViolation, "graph edge 3 is malformed: graph node -1 does not exist")),
    (_set("graph_edges", 3, **{"from": 1}), (SchemaViolation, "graph_edges entry 3 is a duplicate")),
    # the first bad record raises, not the first bad column
    (lambda document: (_set("graph_edges", 1, to=99)(document), _set("graph_edges", 2, kind="x")(document)),
     (SchemaViolation, "graph edge 1 is malformed: graph node 99 does not exist")),
    (lambda document: (_set("graph_nodes", 3, iri=[])(document), _set("graph_nodes", 5, iri=None)(document)),
     (SchemaViolation, "graph node 3 needs a string iri")),
])
def test_a_graph_section_that_fails_its_check_raises_as_the_oracle(edit, refused):
    document = vocabulary_document()
    edit(document)
    text = json.dumps(document)
    assert outcome(deserialize, text) == refused
    assert outcome(oracle_deserialize, text) == refused
