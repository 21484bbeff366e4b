"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test prints one PASS line on success (visible with ``pytest -s``); under
``pytest -v`` the per-test PASSED/FAILED line serves the same purpose.  The
fuzz corpus is generated once from a fixed seed and shared by criteria 5, 6,
and 8.
"""
from __future__ import annotations

import random

from hg2rdf import (
    HG2,
    EdgeConnector,
    IntegrationReport,
    Layer,
    NodeConnector,
    NodePayload,
    Statement,
    check_domain_range,
    deserialize,
    integrate,
    parse_document,
    route_statement,
    serialize,
    validate_layering,
    validate_mapping,
)
from conftest import (
    CONSTRAINT_DATA,
    CONSTRAINT_SCHEMA,
    CONSTRAINT_TYPING,
    W3C_SAMPLE,
    build_demo_structure,
)
from oracles import (
    matrix_reachability,
    naive_reachable,
    random_class_graph,
    random_document,
    random_structure,
)

_CORPUS: list[list[Statement]] | None = None
_BUILDS: list[tuple[list[Statement], HG2, IntegrationReport]] | None = None


def fuzz_corpus() -> list[list[Statement]]:
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(20260818)
        _CORPUS = [random_document(rng) for _ in range(1000)]
    return _CORPUS


def fuzz_builds() -> list[tuple[list[Statement], HG2, IntegrationReport]]:
    global _BUILDS
    if _BUILDS is None:
        _BUILDS = [(doc, *integrate(doc)) for doc in fuzz_corpus()]
    return _BUILDS


def test_01_sample_document_parses_to_the_three_exact_statements():
    statements, errors = parse_document(W3C_SAMPLE)
    assert errors == []
    assert len(statements) == 3
    subject = NodePayload.uri("http://www.w3.org/2001/sw/RDFCore/ntriples/")
    creator = NodePayload.uri("http://purl.org/dc/elements/1.1/creator")
    publisher = NodePayload.uri("http://purl.org/dc/elements/1.1/publisher")
    assert statements[0] == Statement(subject, creator, NodePayload.literal("Dave Beckett"))
    assert statements[1] == Statement(subject, creator, NodePayload.literal("Art Barstow"))
    assert statements[2] == Statement(subject, publisher, NodePayload.uri("http://www.w3.org/"))
    assert statements[0].object.lexical_form == "Dave Beckett"
    print("PASS  1: sample document parses to the three exact statements")


def test_02_seven_node_example_rebuilds_with_the_exact_inventory():
    hg2, node, graph = build_demo_structure()
    assert hg2.h.node_count == 7
    assert hg2.h.edge_count == 4
    assert hg2.g.node_count == 6
    assert len(hg2.connectors_v) == 3
    assert len(hg2.connectors_e) == 3

    def names(ids: list[int]) -> set[int]:
        back = {v: k for k, v in node.items()}
        return {back[i] for i in ids}

    edges = hg2.h.edges
    assert names(edges[0].head) == {1, 2} and names(edges[0].tail) == {3}
    assert names(edges[1].head) == {3, 4} and names(edges[1].tail) == {5, 6}
    assert names(edges[2].head) == {4, 5} and names(edges[2].tail) == {7}
    assert names(edges[3].head) == {5, 6} and names(edges[3].tail) == {7}
    assert hg2.connectors_v == (
        NodeConnector(node[1], graph["a"]),
        NodeConnector(node[6], graph["b"]),
        NodeConnector(node[2], graph["d"]),
    )
    assert hg2.connectors_e == (
        EdgeConnector(0, graph["c"]),
        EdgeConnector(2, graph["e"]),
        EdgeConnector(3, graph["f"]),
    )
    print("PASS  2: seven-node example rebuilds with the exact inventory")


def test_03_forward_reachability_matches_the_fixpoint_oracle():
    hg2, node, _ = build_demo_structure()
    reached = hg2.h.forward_reachable(node[1])
    back = {v: k for k, v in node.items()}
    assert {back[i] for i in reached} == {3, 5, 6, 7}
    assert reached == naive_reachable(hg2.h, node[1])
    print("PASS  3: forward reachability matches the fixpoint oracle")


def test_04_sample_integration_counts_are_exact():
    statements, _ = parse_document(W3C_SAMPLE)
    hg2, report = integrate(statements)
    assert report.hyperedges_created == 3
    assert hg2.h.node_count == 6
    assert len(hg2.connectors_e) == 3
    assert len(hg2.connectors_v) == 6
    print("PASS  4: sample integration counts are exact")


def test_05_one_hyperedge_per_distinct_instance_statement_across_the_corpus():
    builds = fuzz_builds()
    assert len(builds) >= 1000
    for corpus, hg2, report in builds:
        distinct_instance = {
            s for s in corpus if route_statement(s) is Layer.INSTANCE
        }
        assert report.hyperedges_created == len(distinct_instance)
        for edge in hg2.h.edges:
            assert len(edge.head) == 1 and len(edge.tail) == 2
    print("PASS  5: one hyperedge per distinct instance statement on 1000 documents")


def test_06_placement_rules_hold_across_the_corpus():
    for _, hg2, report in fuzz_builds():
        assert validate_mapping(hg2) == []
        assert report.warnings == []
    print("PASS  6: placement rules hold on 1000 documents")


def test_07_serialization_round_trip_is_structural_identity():
    rng = random.Random(777)
    for _ in range(100):
        hg2 = random_structure(rng)
        assert deserialize(serialize(hg2)) == hg2
    demo, _, _ = build_demo_structure()
    assert deserialize(serialize(demo)) == demo
    statements, _ = parse_document(W3C_SAMPLE)
    built, _ = integrate(statements)
    assert deserialize(serialize(built)) == built
    print("PASS  7: serialization round trip is structural identity")


def test_08_connectors_can_only_originate_in_the_hypergraph_layer():
    # the API offers exactly two connector shapes, both directed h -> g
    hg2, _, _ = build_demo_structure()
    for connector in hg2.connectors_v:
        assert hasattr(connector, "hypernode") and hasattr(connector, "graph_node")
    for connector in hg2.connectors_e:
        assert hasattr(connector, "hyperedge") and hasattr(connector, "graph_node")
    # the two classes are the only kinds: a graph-to-hypergraph kind is refused
    try:
        hg2.add_connector(0, 0, ("graph_node", "hypernode"))
        raise AssertionError("a kind other than the two connector classes must be rejected")
    except TypeError:
        pass
    # the connector sets are read-only views: nothing bypasses add_connector
    for name in ("connectors_v", "connectors_e"):
        try:
            getattr(hg2, name).append(NodeConnector(0, 0))
            raise AssertionError(f"{name} must not accept an append")
        except AttributeError:
            pass
        try:
            setattr(hg2, name, [])
            raise AssertionError(f"{name} must not accept an assignment")
        except AttributeError:
            pass
    assert len(hg2.connectors_v) == len(hg2.connectors_e) == 3
    for _, built, _ in fuzz_builds():
        assert validate_layering(built) == []
    print("PASS  8: connectors only originate in the hypergraph layer")


def test_09_domain_checker_flags_exactly_the_missing_typing():
    full, errors = parse_document(CONSTRAINT_SCHEMA + CONSTRAINT_TYPING + CONSTRAINT_DATA)
    assert not errors
    hg2, _ = integrate(full)
    assert check_domain_range(hg2) == []

    without_typing, _ = parse_document(CONSTRAINT_SCHEMA + CONSTRAINT_DATA)
    hg2, _ = integrate(without_typing)
    warnings = check_domain_range(hg2)
    assert len(warnings) == 1
    assert warnings[0].kind == "DomainUnsatisfied"
    print("PASS  9: domain checker flags exactly the missing typing")


def test_10_subclass_closure_matches_brute_force_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(100):
        graph = random_class_graph(rng, max_nodes=50)
        reach = matrix_reachability(graph)
        n = graph.node_count
        for node in range(n):
            expected = {i for i in range(n) if reach[i][node]}
            assert graph.subclass_closure(node) == expected
    print("PASS 10: subclass closure matches brute force on 100 random graphs")
