"""Read-only cross-layer queries over a built structure.

Every query takes IRIs as plain strings, resolves them to hypernodes through
``Hypergraph.find``, returns ids in a deterministic order, and never mutates:
a structure serialized before and after any of these calls is byte-identical.
The searches themselves live in :class:`~hg2rdf.hypergraph.Hypergraph`, and
so do the ascending reach answers a frozen structure keeps per head; this
module resolves IRIs and wraps the answers.
"""
from __future__ import annotations

from typing import NamedTuple

from .hg2 import HG2
from .ntriples import NodePayload


class QueryResult(NamedTuple):
    """Hypernode or hyperedge ids answering a query, unique and sorted."""

    items: tuple[int, ...]


class PathResult(NamedTuple):
    found: bool
    edges: tuple[int, ...]


def _node_of(hg2: HG2, iri: str) -> int | None:
    return hg2.h.find(NodePayload.uri(iri))


def statements_about(hg2: HG2, subject_iri: str) -> QueryResult:
    """All hyperedges whose subject slot (tail position 0) is the given IRI.

    Incident edges come once each in ascending id order, so the edges need
    no sorting or deduplication.
    """
    node = _node_of(hg2, subject_iri)
    if node is None:
        return QueryResult(())
    edges = hg2.h.edges
    return QueryResult(
        tuple(edge for edge in hg2.h.incidence_of(node) if edges[edge].tail[0] == node)
    )


def instances_of(hg2: HG2, class_iri: str) -> QueryResult:
    """All hypernodes typed as the class or any class in its subclass closure."""
    class_node = hg2.g.find(class_iri)
    if class_node is None:
        return QueryResult(())
    closure = hg2.g.subclass_closure(class_node)
    return QueryResult(tuple(sorted(hg2.nodes_anchored_in(closure))))


def reachable_from(hg2: HG2, iri: str) -> QueryResult:
    """Hypernodes reachable from the IRI's node by firing hyperedges forward.

    The ids come from :meth:`~hg2rdf.hypergraph.Hypergraph._sorted_reachable`,
    so on a frozen structure a repeated start is answered without a search.
    """
    node = _node_of(hg2, iri)
    if node is None:
        return QueryResult(())
    return QueryResult(hg2.h._sorted_reachable(node))


def path_exists(hg2: HG2, from_iri: str, to_iri: str) -> PathResult:
    """Is the target forward-reachable from the source?  Includes a witness.

    Reflexive by convention: a term reaches itself through the empty path
    (provided it exists at all).  The witness is
    :meth:`~hg2rdf.hypergraph.Hypergraph.forward_path`'s breadth-first edge
    sequence, so it is deterministic and shortest in edge count.
    """
    source = _node_of(hg2, from_iri)
    target = _node_of(hg2, to_iri)
    if source is None or target is None:
        return PathResult(False, ())
    path = hg2.h.forward_path(source, target)
    return PathResult(path is not None, path or ())
