"""Read-only cross-layer queries over a built structure.

Every query takes IRIs as plain strings, resolves them to hypernodes through
the payload index, returns ids in a deterministic order, and never mutates: a
structure serialized before and after any of these calls is byte-identical.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .hg2 import HG2
from .hypergraph import HEAD, TAIL
from .ntriples import NodePayload


@dataclass(frozen=True)
class QueryResult:
    """Hypernode or hyperedge ids answering a query, unique and sorted."""

    items: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.items) != len(set(self.items)):
            raise ValueError("query result items must be unique")


@dataclass(frozen=True)
class PathResult:
    found: bool
    edges: tuple[int, ...]


def _node_of(hg2: HG2, iri: str) -> int | None:
    return hg2.find_node(NodePayload.uri(iri))


def statements_about(hg2: HG2, subject_iri: str) -> QueryResult:
    """All hyperedges whose subject slot (tail position 0) is the given IRI.

    Incidences come in edge-id order, and a node fills tail position 0 of an
    edge at most once, so the edges need no sorting or deduplication.
    """
    node = _node_of(hg2, subject_iri)
    if node is None:
        return QueryResult(())
    return QueryResult(
        tuple(
            occ.edge
            for occ in hg2.h.incidence_of(node)
            if occ.slot == TAIL and occ.position == 0
        )
    )


def instances_of(hg2: HG2, class_iri: str) -> QueryResult:
    """All hypernodes typed as the class or any class in its subclass closure."""
    class_node = hg2.g.find(class_iri)
    if class_node is None:
        return QueryResult(())
    closure = hg2.g.subclass_closure(class_node)
    return QueryResult(tuple(sorted(hg2.nodes_anchored_in(closure))))


def reachable_from(hg2: HG2, iri: str) -> QueryResult:
    """Hypernodes reachable from the IRI's node by firing hyperedges forward."""
    node = _node_of(hg2, iri)
    if node is None:
        return QueryResult(())
    return QueryResult(tuple(sorted(hg2.h.forward_reachable(node))))


def path_exists(hg2: HG2, from_iri: str, to_iri: str) -> PathResult:
    """Is the target forward-reachable from the source?  Includes a witness.

    Reflexive by convention: a term reaches itself through the empty path
    (provided it exists at all).  The witness is the breadth-first hyperedge
    sequence, scanning edges in ascending id order, so it is deterministic
    and shortest in edge count.
    """
    source = _node_of(hg2, from_iri)
    target = _node_of(hg2, to_iri)
    if source is None or target is None:
        return PathResult(False, ())
    if source == target:
        return PathResult(True, ())

    parents: dict[int, tuple[int, int]] = {}
    seen = {source}
    queue: deque[int] = deque([source])
    while queue:
        current = queue.popleft()
        # incidences are in edge-id order; a node may head one edge twice
        fired = dict.fromkeys(
            occ.edge for occ in hg2.h.incidence_of(current) if occ.slot == HEAD
        )
        for edge_id in fired:
            for node in hg2.h.edges[edge_id].tail:
                if node in seen:
                    continue
                seen.add(node)
                parents[node] = (edge_id, current)
                if node == target:
                    witness: list[int] = []
                    walk = node
                    while walk != source:
                        edge, walk = parents[walk]
                        witness.append(edge)
                    witness.reverse()
                    return PathResult(True, tuple(witness))
                queue.append(node)
    return PathResult(False, ())
