"""Shared fixtures: the W3C authorship sample, a small hand-built structure
and the seed-1 benchmark corpora."""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from hg2rdf import (
    HG2,
    EdgeConnector,
    NodeConnector,
    Statement,
    deserialize,
    integrate,
    parse_document,
    serialize,
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

# A hand-edited hg2/1 document: two statements about urn:a, whose second
# subject is urn:a again with a literal's field added.  Loaded, the two
# nodes would be one term printed twice, and a lookup of urn:a would find
# only the first.
FOREIGN_FIELD_DOCUMENT = (
    '{"meta": {"format": "hg2/1"}, "hypernodes": ['
    '{"id": 0, "kind": "uri", "iri": "urn:a"}, {"id": 1, "kind": "uri", "iri": "urn:p"}, '
    '{"id": 2, "kind": "uri", "iri": "urn:a", "lexical_form": "x"}, '
    '{"id": 3, "kind": "uri", "iri": "urn:o"}], '
    '"hyperedges": [{"id": 0, "head": [1], "tail": [0, 0]}, {"id": 1, "head": [1], "tail": [2, 3]}], '
    '"graph_nodes": [], "graph_edges": [], "connectors_v": [], "connectors_e": []}'
)


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
    hg2.add_connector(node[1], graph["a"], NodeConnector)
    hg2.add_connector(node[6], graph["b"], NodeConnector)
    hg2.add_connector(node[2], graph["d"], NodeConnector)
    hg2.add_connector(edge[0], graph["c"], EdgeConnector)
    hg2.add_connector(edge[2], graph["e"], EdgeConnector)
    hg2.add_connector(edge[3], graph["f"], EdgeConnector)
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


@pytest.fixture
def frozen_structures() -> list[HG2]:
    """The two frozen structures the package hands out, over the constraint
    example and the W3C sample: an ``integrate`` result and a ``deserialize``
    of it after ``freeze``."""
    statements, errors = parse_document(CONSTRAINT_SCHEMA + CONSTRAINT_TYPING + CONSTRAINT_DATA + W3C_SAMPLE)
    assert not errors
    built, _ = integrate(statements)
    loaded = deserialize(serialize(built))
    loaded.freeze()
    return [built, loaded]


@pytest.fixture(scope="session")
def bench_corpora() -> dict[str, object]:
    """Seed-1 benchmark corpora by workload, generated by ``bench/corpus.py``."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(bench))
        corpus = importlib.import_module("corpus")
    return {name: corpus.generate(corpus.SHAPES[name], 1) for name in ("ingest", "validate", "query")}
