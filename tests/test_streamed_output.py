"""Streamed hg2/1 and DOT output against the joined text.

``serialize(hg2, out)`` and ``to_dot(hg2, out)`` must write exactly the
string the call without ``out`` returns, which must equal the oracles'
text, at every chunk size; and the streamed form must hold about one chunk
of text at a time, whatever the size of the structure.
"""
from __future__ import annotations

import io
import random
import tracemalloc

import pytest

import hg2rdf.hg2 as hg2_module
from hg2rdf import HG2, NodeConnector, NodePayload, serialize, to_dot
from oracles import check_dot, oracle_serialize, oracle_to_dot, random_structure


def streamed(render, hg2: HG2) -> str:
    buffer = io.StringIO()
    assert render(hg2, buffer) is None
    return buffer.getvalue()


def nodes_without_edges() -> HG2:
    """Hypernodes, graph nodes and node connectors, but no hyperedge, graph
    edge or edge connector: filled and empty sections side by side."""
    hg2 = HG2()
    for i in range(5):
        hg2.h.add_node(NodePayload.uri(f"http://example.org/n{i}"))
    for i in range(3):
        hg2.g.intern(f"urn:class:{i}")
    for i in range(5):
        hg2.add_connector(i, i % 3, NodeConnector)
    return hg2


STRUCTURES = [HG2(), nodes_without_edges(),
              *(random_structure(random.Random(seed)) for seed in range(80))]


# A chunk size of 1 or 2 puts a chunk boundary inside every non-empty section.
@pytest.mark.parametrize("batch", [1, 2, hg2_module._BATCH])
def test_streamed_document_is_the_joined_document_and_the_oracles(monkeypatch, batch):
    monkeypatch.setattr(hg2_module, "_BATCH", batch)
    for hg2 in STRUCTURES:
        text = serialize(hg2)
        assert streamed(serialize, hg2) == text == oracle_serialize(hg2)


@pytest.mark.parametrize("batch", [1, 2, hg2_module._BATCH])
def test_streamed_digraph_is_the_joined_digraph_and_the_oracles(monkeypatch, batch):
    monkeypatch.setattr(hg2_module, "_BATCH", batch)
    for hg2 in STRUCTURES:
        text = to_dot(hg2)
        assert streamed(to_dot, hg2) == text == oracle_to_dot(hg2)
        assert check_dot(text) == []


class _Sink:
    """A text handle that drops what it is given."""

    def write(self, text: str) -> int:
        return len(text)


def chain(length: int) -> HG2:
    """``length`` IRI hypernodes linked in a chain, with node connectors."""
    hg2 = HG2()
    for i in range(length):
        hg2.h.add_node(NodePayload.uri(f"http://example.org/resource/{i}"))
    for i in range(length - 1):
        hg2.h.add_hyperedge([i], [i + 1])
    for i in range(8):
        hg2.g.intern(f"urn:class:{i}")
    for i in range(length):
        hg2.add_connector(i, i % 8, NodeConnector)
    return hg2


def traced_peak(render, *args) -> int:
    """Peak bytes allocated by ``render(*args)``, above what was live before."""
    tracemalloc.start()
    try:
        render(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("render", [serialize, to_dot])
def test_streamed_output_holds_about_one_chunk_whatever_the_size(render):
    # Both structures fill at least two chunks of each of their sections, so
    # the streamed peak is one chunk's text on both; the joined text grows
    # with the input (three times the records here).
    small, large = chain(2 * hg2_module._BATCH), chain(6 * hg2_module._BATCH)
    joined_small, joined_large = traced_peak(render, small), traced_peak(render, large)
    streamed_small = traced_peak(render, small, _Sink())
    streamed_large = traced_peak(render, large, _Sink())
    assert joined_large > 2.5 * joined_small
    assert streamed_large < 1.25 * streamed_small
    assert 3 * streamed_large < joined_large
