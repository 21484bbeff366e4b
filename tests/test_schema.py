"""Schema graph: interning, edge kinds, closure, constraints, vocabulary."""
from __future__ import annotations

import random

import pytest

from hg2rdf import (
    BUILTIN_VOCABULARY,
    EdgeKind,
    GraphEdge,
    SchemaGraph,
    UnknownNodeError,
    load_builtin_vocabulary,
)
from hg2rdf.schema import (
    RDF_PROPERTY,
    RDF_STATEMENT,
    RDFS_CLASS,
    RDFS_LITERAL,
    RDFS_RESOURCE,
)
from oracles import assert_frozen_containers_refuse_writes, matrix_closure, random_class_graph


def chain(iris: list[str]) -> SchemaGraph:
    graph = SchemaGraph()
    ids = [graph.intern(iri) for iri in iris]
    for child, parent in zip(ids, ids[1:]):
        graph.add_edge(child, parent, EdgeKind.SUBCLASS_OF)
    return graph


def test_intern_is_idempotent():
    graph = SchemaGraph()
    a = graph.intern("urn:a")
    assert graph.intern("urn:a") == a
    assert graph.intern("urn:b") == a + 1
    assert graph.node_count == 2
    assert graph.iris == ["urn:a", "urn:b"]


@pytest.mark.parametrize("iri", [5, None, ("urn:a",), b"urn:a"])
def test_intern_refuses_an_iri_that_is_not_a_string(iri):
    graph = SchemaGraph()
    with pytest.raises(TypeError, match="^a graph node's iri must be a string, not "):
        graph.intern(iri)
    assert graph.iris == [] and graph.find(iri) is None


def test_intern_refuses_an_empty_iri():
    """No IRI term can carry it: the parser refuses ``<>`` and the term
    rule ``NodePayload.uri("")``."""
    graph = SchemaGraph()
    graph.intern("urn:a")
    with pytest.raises(ValueError, match="^a graph node's iri must not be empty$"):
        graph.intern("")
    assert graph.iris == ["urn:a"] and graph.find("") is None


def test_freeze_blocks_mutation_but_not_lookups(frozen_structures):
    graph = chain(["urn:a", "urn:b"])
    graph.freeze()
    assert graph.intern("urn:a") == 0  # an existing IRI is a lookup
    with pytest.raises(RuntimeError):
        graph.intern("urn:new")
    with pytest.raises(RuntimeError):
        graph.add_edge(1, 0, EdgeKind.SUBCLASS_OF)
    assert graph.subclass_closure(1) == {0, 1}
    for frozen in frozen_structures:
        assert_frozen_containers_refuse_writes(frozen, "g")


def test_find_and_iri_of():
    graph = SchemaGraph()
    a = graph.intern("urn:a")
    assert graph.find("urn:a") == a
    assert graph.find("urn:missing") is None
    assert graph.iri_of(a) == "urn:a"
    with pytest.raises(UnknownNodeError):
        graph.iri_of(99)
    for bad, error, message in (
        (0.5, TypeError, "ids must be int, got 0.5"),
        (True, TypeError, "ids must be int, got True"),
        (-1, UnknownNodeError, "graph node -1 does not exist"),
        (1, UnknownNodeError, "graph node 1 does not exist"),  # the first absent id
    ):
        with pytest.raises(error) as excinfo:
            graph.iri_of(bad)
        assert str(excinfo.value) == message


def test_add_edge_deduplicates_but_keeps_distinct_kinds():
    graph = SchemaGraph()
    a, b = graph.intern("urn:a"), graph.intern("urn:b")
    assert graph.add_edge(a, b, EdgeKind.SUBCLASS_OF) is True
    assert graph.add_edge(a, b, EdgeKind.SUBCLASS_OF) is False
    assert graph.add_edge(a, b, EdgeKind.DOMAIN) is True
    assert graph.edge_count == 2
    with pytest.raises(UnknownNodeError):
        graph.add_edge(a, 17, EdgeKind.TYPE)


def test_edges_keep_first_insertion_order_and_one_copy():
    graph = SchemaGraph()
    a, b, c = (graph.intern(iri) for iri in ("urn:a", "urn:b", "urn:c"))
    graph.add_edge(b, c, EdgeKind.TYPE)
    graph.add_edge(a, b, EdgeKind.SUBCLASS_OF)
    assert graph.add_edge(b, c, EdgeKind.TYPE) is False
    graph.add_edge(a, c, EdgeKind.RANGE)
    assert list(graph.edges) == [
        GraphEdge(b, c, EdgeKind.TYPE),
        GraphEdge(a, b, EdgeKind.SUBCLASS_OF),
        GraphEdge(a, c, EdgeKind.RANGE),
    ]
    assert graph.edge_count == 3


def test_graph_equality_is_order_sensitive():
    def build(order: list[tuple[int, int, EdgeKind]]) -> SchemaGraph:
        graph = SchemaGraph()
        graph.intern("urn:a")
        graph.intern("urn:b")
        for edge in order:
            graph.add_edge(*edge)
        return graph

    forward = [(0, 1, EdgeKind.SUBCLASS_OF), (1, 0, EdgeKind.TYPE)]
    assert build(forward) == build(forward)
    assert build(forward) != build(forward[::-1])


def test_edge_kind_serial_letters():
    assert {k.value for k in EdgeKind} == {"s", "t", "d", "r"}


def test_subclass_closure_on_a_chain():
    graph = chain(["urn:a", "urn:b", "urn:c"])
    # closure of the top class is everything below it plus itself
    assert graph.subclass_closure(2) == {0, 1, 2}
    assert graph.subclass_closure(1) == {0, 1}
    assert graph.subclass_closure(0) == {0}


def test_subclass_closure_on_a_diamond():
    graph = SchemaGraph()
    top, left, right, bottom = (graph.intern(f"urn:{x}") for x in "tlrb")
    graph.add_edge(left, top, EdgeKind.SUBCLASS_OF)
    graph.add_edge(right, top, EdgeKind.SUBCLASS_OF)
    graph.add_edge(bottom, left, EdgeKind.SUBCLASS_OF)
    graph.add_edge(bottom, right, EdgeKind.SUBCLASS_OF)
    assert graph.subclass_closure(top) == {top, left, right, bottom}
    assert graph.subclass_closure(left) == {left, bottom}


def test_subclass_closure_survives_cycles():
    graph = SchemaGraph()
    a, b = graph.intern("urn:a"), graph.intern("urn:b")
    graph.add_edge(a, b, EdgeKind.SUBCLASS_OF)
    graph.add_edge(b, a, EdgeKind.SUBCLASS_OF)
    assert graph.subclass_closure(a) == {a, b}
    assert graph.subclass_closure(b) == {a, b}


def test_subclass_closure_ignores_other_edge_kinds():
    graph = SchemaGraph()
    a, b = graph.intern("urn:a"), graph.intern("urn:b")
    graph.add_edge(a, b, EdgeKind.TYPE)
    graph.add_edge(a, b, EdgeKind.DOMAIN)
    assert graph.subclass_closure(b) == {b}


def test_closure_matches_matrix_oracle_on_random_graphs():
    rng = random.Random(5150)
    for _ in range(30):
        graph = random_class_graph(rng, max_nodes=20)
        for node in range(graph.node_count):
            assert graph.subclass_closure(node) == matrix_closure(graph, node)


def test_constraint_of_takes_first_declaration():
    graph = SchemaGraph()
    p = graph.intern("urn:p")
    first, second = graph.intern("urn:c1"), graph.intern("urn:c2")
    graph.add_edge(p, first, EdgeKind.DOMAIN)
    graph.add_edge(p, second, EdgeKind.DOMAIN)
    assert graph.constraint_of(p, EdgeKind.DOMAIN) == first
    assert graph.constraint_of(p, EdgeKind.RANGE) is None
    assert graph.constraint_of(first, EdgeKind.DOMAIN) is None


def test_constraint_of_rejects_non_constraint_kinds():
    graph = SchemaGraph()
    p = graph.intern("urn:p")
    with pytest.raises(ValueError):
        graph.constraint_of(p, EdgeKind.SUBCLASS_OF)
    with pytest.raises(ValueError):
        graph.constraint_of(p, EdgeKind.TYPE)


def test_builtin_vocabulary_shape():
    graph = load_builtin_vocabulary()
    assert graph.node_count == len(BUILTIN_VOCABULARY) == 13
    assert graph.iris == list(BUILTIN_VOCABULARY)
    assert graph.edge_count == 4
    root = graph.find(RDFS_RESOURCE)
    assert root is not None
    for iri in (RDFS_CLASS, RDFS_LITERAL, RDF_PROPERTY, RDF_STATEMENT):
        node = graph.find(iri)
        assert GraphEdge(node, root, EdgeKind.SUBCLASS_OF) in graph.edges
    assert graph.subclass_closure(root) == {
        root,
        graph.find(RDFS_CLASS),
        graph.find(RDFS_LITERAL),
        graph.find(RDF_PROPERTY),
        graph.find(RDF_STATEMENT),
    }


def test_builtin_vocabulary_is_fresh_per_call():
    a, b = load_builtin_vocabulary(), load_builtin_vocabulary()
    assert a == b
    a.intern("urn:extra")
    assert a != b


def test_freeze_blocks_mutation_but_not_queries():
    graph = chain(["urn:a", "urn:b"])
    graph.freeze()
    with pytest.raises(RuntimeError):
        graph.intern("urn:new")
    with pytest.raises(RuntimeError):
        graph.add_edge(0, 1, EdgeKind.TYPE)
    assert graph.intern("urn:a") == 0  # existing IRIs still resolve
    assert graph.subclass_closure(1) == {0, 1}
    iris, edges = graph.iris, graph.edges
    with pytest.raises(AttributeError):
        graph.iris.append("urn:new")
    with pytest.raises(TypeError):
        graph.edges[GraphEdge(1, 0, EdgeKind.DOMAIN)] = None
    assert graph.iris == ("urn:a", "urn:b") and list(graph.edges) == [GraphEdge(0, 1, EdgeKind.SUBCLASS_OF)]
    assert graph.find("urn:new") is None and graph.constraint_of(1, EdgeKind.DOMAIN) is None
    graph.freeze()
    assert graph.iris is iris and graph.edges is edges
