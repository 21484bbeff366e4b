"""Shared fixtures: the W3C authorship sample and a small hand-built structure."""
from __future__ import annotations

import pytest

from hg2rdf import (
    HG2,
    EdgeConnector,
    NodeConnector,
    Statement,
    parse_document,
)

# The three authorship triples from the W3C N-Triples page: one subject,
# two creators, one publisher.
W3C_SAMPLE = (
    "<http://www.w3.org/2001/sw/RDFCore/ntriples/> "
    '<http://purl.org/dc/elements/1.1/creator> "Dave Beckett" .\n'
    "<http://www.w3.org/2001/sw/RDFCore/ntriples/> "
    '<http://purl.org/dc/elements/1.1/creator> "Art Barstow" .\n'
    "<http://www.w3.org/2001/sw/RDFCore/ntriples/> "
    "<http://purl.org/dc/elements/1.1/publisher> <http://www.w3.org/> .\n"
)

# Three-triple constraint example: one domain declaration, one typing
# statement, one instance statement whose subject the typing covers.
CONSTRAINT_SCHEMA = (
    "<http://example.org/creator> "
    "<http://www.w3.org/2000/01/rdf-schema#domain> <http://example.org/Doc> .\n"
)
CONSTRAINT_TYPING = (
    "<http://example.org/d> "
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Doc> .\n"
)
CONSTRAINT_DATA = '<http://example.org/d> <http://example.org/creator> "X" .\n'


def build_demo_structure() -> tuple[HG2, dict[int, int], dict[str, int]]:
    """Hand-built seven-node example: four hyperedges over nodes 1..7, six
    graph nodes a..f, three node connectors and three edge connectors."""
    hg2 = HG2()
    node = {name: hg2.h.add_node(name) for name in range(1, 8)}
    edge = [
        hg2.h.add_hyperedge([node[1], node[2]], [node[3]]),
        hg2.h.add_hyperedge([node[3], node[4]], [node[5], node[6]]),
        hg2.h.add_hyperedge([node[4], node[5]], [node[7]]),
        hg2.h.add_hyperedge([node[5], node[6]], [node[7]]),
    ]
    graph = {letter: hg2.g.intern(letter) for letter in "abcdef"}
    hg2.add_connector(NodeConnector(node[1], graph["a"]))
    hg2.add_connector(NodeConnector(node[6], graph["b"]))
    hg2.add_connector(NodeConnector(node[2], graph["d"]))
    hg2.add_connector(EdgeConnector(edge[0], graph["c"]))
    hg2.add_connector(EdgeConnector(edge[2], graph["e"]))
    hg2.add_connector(EdgeConnector(edge[3], graph["f"]))
    return hg2, node, graph


@pytest.fixture
def w3c_sample_text() -> str:
    return W3C_SAMPLE


@pytest.fixture
def w3c_statements() -> list[Statement]:
    statements, errors = parse_document(W3C_SAMPLE)
    assert not errors
    return statements


@pytest.fixture
def demo_structure() -> tuple[HG2, dict[int, int], dict[str, int]]:
    return build_demo_structure()
