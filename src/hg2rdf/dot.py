"""Graphviz DOT rendering of the two-layer structure.

DOT has no native hyperedges, so each hyperedge becomes a square junction
vertex: head nodes point at the junction with bold links, the junction points
at its tail nodes in order.  The graph layer is a second cluster with its
edges labeled by kind (s/t/d/r), and connectors cross between the clusters as
dashed links.  Like :func:`hg2rdf.hg2.serialize`, :func:`to_dot` returns the
text or streams it to a handle in chunks, so a large structure's digraph is
never held whole.
"""
from __future__ import annotations

from collections.abc import Iterator
from typing import TextIO

from .hg2 import HG2, _batches, _emit
from .ntriples import format_term

# Control characters other than newline, as the \uXXXX escapes format_term writes.
_CONTROL_ESCAPES = {code: f"\\u{code:04X}" for code in range(0x20) if code != 0x0A}


def _escape(text: str) -> str:
    if not text.isprintable():
        text = text.translate(_CONTROL_ESCAPES)
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _node_label(payload: object) -> str:
    try:
        return format_term(payload)
    except ValueError:  # an opaque payload, or a term that cannot be written
        return str(payload)


def _lines(hg2: HG2) -> Iterator[str]:
    """The digraph's lines in order, without their newlines."""
    yield "digraph hg2 {"
    yield "  rankdir=LR;"

    yield "  subgraph cluster_hypergraph {"
    yield '    label="hypergraph layer";'
    for node_id, payload in enumerate(hg2.h.nodes):
        yield f'    h{node_id} [label="{_escape(_node_label(payload))}"];'
    for edge_id, edge in enumerate(hg2.h.edges):
        yield f'    e{edge_id} [shape=box, label="E{edge_id}"];'
        for node in edge.head:
            yield f"    h{node} -> e{edge_id} [style=bold];"
        for node in edge.tail:
            yield f"    e{edge_id} -> h{node};"
    yield "  }"

    yield "  subgraph cluster_graph {"
    yield '    label="graph layer";'
    for node_id, iri in enumerate(hg2.g.iris):
        yield f'    g{node_id} [label="{_escape(iri)}"];'
    for graph_edge in hg2.g.edges:
        yield f'    g{graph_edge.src} -> g{graph_edge.dst} [label="{graph_edge.kind.value}"];'
    yield "  }"

    for node, graph_node in hg2._connectors_v:
        yield f"  h{node} -> g{graph_node} [style=dashed];"
    for edge_id, graph_node in hg2._connectors_e:
        yield f"  e{edge_id} -> g{graph_node} [style=dashed];"

    yield "}"


def to_dot(hg2: HG2, out: TextIO | None = None) -> str | None:
    """Render the structure as a DOT digraph (deterministic output).

    Without ``out`` the digraph is returned as one string.  With ``out``, a
    text handle, it is written there in chunks of about a thousand lines as
    they are made, and ``None`` is returned; the bytes are the same.
    """
    return _emit(("\n".join(batch) + "\n" for batch in _batches(_lines(hg2))), out)
