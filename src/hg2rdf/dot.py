"""Graphviz DOT rendering of the two-layer structure.

DOT has no native hyperedges, so each hyperedge becomes a square junction
vertex: head nodes point at the junction with bold links, the junction points
at its tail nodes in order.  The graph layer is a second cluster with its
edges labeled by kind (s/t/d/r), and connectors cross between the clusters as
dashed links.
"""
from __future__ import annotations

from .hg2 import HG2
from .ntriples import NodePayload, format_term

# Control characters other than newline, as the \uXXXX escapes format_term writes.
_CONTROL_ESCAPES = {code: f"\\u{code:04X}" for code in range(0x20) if code != 0x0A}


def _escape(text: str) -> str:
    if not text.isprintable():
        text = text.translate(_CONTROL_ESCAPES)
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _node_label(payload: object) -> str:
    if isinstance(payload, NodePayload):
        try:
            return format_term(payload)
        except ValueError:
            pass
    return str(payload)


def to_dot(hg2: HG2) -> str:
    """Render the structure as a DOT digraph (deterministic output)."""
    lines = ["digraph hg2 {", "  rankdir=LR;"]

    lines.append("  subgraph cluster_hypergraph {")
    lines.append('    label="hypergraph layer";')
    for node_id, payload in enumerate(hg2.h.nodes):
        lines.append(f'    h{node_id} [label="{_escape(_node_label(payload))}"];')
    for edge_id, edge in enumerate(hg2.h.edges):
        lines.append(f'    e{edge_id} [shape=box, label="E{edge_id}"];')
        for node in edge.head:
            lines.append(f"    h{node} -> e{edge_id} [style=bold];")
        for node in edge.tail:
            lines.append(f"    e{edge_id} -> h{node};")
    lines.append("  }")

    lines.append("  subgraph cluster_graph {")
    lines.append('    label="graph layer";')
    for node_id, iri in enumerate(hg2.g.iris):
        lines.append(f'    g{node_id} [label="{_escape(iri)}"];')
    for graph_edge in hg2.g.edges:
        lines.append(
            f'    g{graph_edge.src} -> g{graph_edge.dst} [label="{graph_edge.kind.value}"];'
        )
    lines.append("  }")

    for node, graph_node in hg2._connectors_v:
        lines.append(f"  h{node} -> g{graph_node} [style=dashed];")
    for edge_id, graph_node in hg2._connectors_e:
        lines.append(f"  e{edge_id} -> g{graph_node} [style=dashed];")

    lines.append("}")
    return "\n".join(lines) + "\n"
