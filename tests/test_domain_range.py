"""check_domain_range against its oracle, and guards on how it scales.

The oracle in ``oracles.naive_check_domain_range`` scans every graph edge
per constraint lookup and rebuilds a subclass closure per hyperedge; the
library answers from indexes.  The two must return the same warnings in the
same order.
"""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hg2rdf import (
    EdgeKind,
    NodePayload,
    SchemaGraph,
    Statement,
    check_domain_range,
    deserialize,
    integrate,
    parse_document,
    serialize,
)
from hg2rdf.schema import RDF_TYPE, RDFS_DOMAIN, RDFS_LITERAL, RDFS_RANGE, RDFS_SUBCLASSOF
from oracles import naive_check_domain_range, random_document
from test_acceptance import fuzz_builds


def test_agrees_with_the_oracle_on_the_acceptance_corpus():
    documents_with_warnings = 0
    total = 0
    for _, hg2, _ in fuzz_builds():
        warnings = check_domain_range(hg2)
        assert warnings == naive_check_domain_range(hg2)
        documents_with_warnings += bool(warnings)
        total += len(warnings)
    # The corpus exercises the check: without warnings the comparison is empty.
    assert (documents_with_warnings, total) == (82, 102)


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_agrees_with_the_oracle_on_random_builds_and_their_round_trips(seed):
    built, _ = integrate(random_document(random.Random(seed)))
    for hg2 in (built, deserialize(serialize(built))):
        assert check_domain_range(hg2) == naive_check_domain_range(hg2)


def test_first_declaration_wins_and_a_subclass_cycle_terminates():
    text = (
        # Two domains and two ranges on one property: the first of each counts.
        f"<urn:p> <{RDFS_DOMAIN}> <urn:A> .\n"
        f"<urn:p> <{RDFS_DOMAIN}> <urn:B> .\n"
        f"<urn:q> <{RDFS_RANGE}> <urn:D> .\n"
        f"<urn:q> <{RDFS_RANGE}> <{RDFS_LITERAL}> .\n"
        # A and C are subclasses of each other.
        f"<urn:A> <{RDFS_SUBCLASSOF}> <urn:C> .\n"
        f"<urn:C> <{RDFS_SUBCLASSOF}> <urn:A> .\n"
        f"<urn:s1> <{RDF_TYPE}> <urn:C> .\n"
        f"<urn:s2> <{RDF_TYPE}> <urn:B> .\n"
        "<urn:s1> <urn:p> <urn:o> .\n"
        "<urn:s2> <urn:p> <urn:o> .\n"
        '<urn:s1> <urn:q> "text" .\n'
    )
    statements, errors = parse_document(text)
    assert not errors
    built, _ = integrate(statements)
    for hg2 in (built, deserialize(serialize(built))):
        graph = hg2.g
        assert graph.constraint_of(graph.find("urn:p"), EdgeKind.DOMAIN) == graph.find("urn:A")
        assert graph.constraint_of(graph.find("urn:q"), EdgeKind.RANGE) == graph.find("urn:D")
        warnings = check_domain_range(hg2)
        assert [(w.kind, w.class_iri) for w in warnings] == [
            ("DomainUnsatisfied", "urn:A"),
            ("RangeUnsatisfied", "urn:D"),
        ]
        assert warnings == naive_check_domain_range(hg2)


def _many_hyperedges(rng: random.Random) -> list[Statement]:
    """Ten constrained properties over a ten-class chain, 3000 instance
    statements, a third of the subjects untyped."""
    classes = [NodePayload.uri(f"urn:C{i}") for i in range(10)]
    properties = [NodePayload.uri(f"urn:p{i}") for i in range(10)]
    statements = [
        Statement(child, NodePayload.uri(RDFS_SUBCLASSOF), parent)
        for child, parent in zip(classes[1:], classes)
    ]
    for index, prop in enumerate(properties):
        statements.append(Statement(prop, NodePayload.uri(RDFS_DOMAIN), classes[index]))
        statements.append(Statement(prop, NodePayload.uri(RDFS_RANGE), classes[(index * 3) % 10]))
    entities = [NodePayload.uri(f"urn:e{i}") for i in range(300)]
    for entity in entities:
        if rng.random() < 0.67:
            statements.append(Statement(entity, NodePayload.uri(RDF_TYPE), rng.choice(classes)))
    for _ in range(3000):
        objekt = rng.choice(entities) if rng.random() < 0.8 else NodePayload.literal("x")
        statements.append(Statement(rng.choice(entities), rng.choice(properties), objekt))
    return statements


class _UnscannableEdges(list):
    def __iter__(self):
        raise AssertionError("the graph's edge list was scanned")


def test_one_closure_per_constraint_class_and_no_edge_scan(monkeypatch):
    hg2, _ = integrate(_many_hyperedges(random.Random(7)))
    assert hg2.h.edge_count > 2500
    expected = naive_check_domain_range(hg2)
    constraint_classes = {
        edge.dst for edge in hg2.g.edges if edge.kind in (EdgeKind.DOMAIN, EdgeKind.RANGE)
    }

    calls: list[int] = []
    closure = SchemaGraph.subclass_closure

    def counting_closure(graph, node):
        calls.append(node)
        return closure(graph, node)

    monkeypatch.setattr(SchemaGraph, "subclass_closure", counting_closure)
    monkeypatch.setattr(hg2.g, "edges", _UnscannableEdges(hg2.g.edges))
    warnings = check_domain_range(hg2)

    assert warnings == expected
    assert len(warnings) > 100
    assert len(calls) == len(set(calls))
    assert set(calls) <= constraint_classes
