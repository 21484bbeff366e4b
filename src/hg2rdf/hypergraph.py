"""Directed hypergraph with ordered head/tail slots per hyperedge.

Node payloads are opaque at this layer; ids are dense integers assigned in
first-insertion order.  Head and tail are ordered lists so callers can assign
positional roles; the same node may appear on both sides of one edge.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple

HEAD = "head"
TAIL = "tail"


class UnknownNodeError(LookupError):
    """Referenced node id is not present in the hypergraph."""


class EmptySlotError(ValueError):
    """A hyperedge needs at least one head node and one tail node."""


class Occurrence(NamedTuple):
    edge: int
    slot: str
    position: int


@dataclass
class HyperEdge:
    id: int
    head: list[int]
    tail: list[int]


def _check_ids(*ids: object) -> None:
    """Reject any id that is not a plain int; bool is refused, as hg2/1 does."""
    for value in ids:
        if type(value) is not int:
            raise TypeError(f"ids must be int, got {value!r}")


class Freezable:
    """One-way switch to read-only; mutators call :meth:`_check_mutable` first."""

    frozen = False

    def freeze(self) -> None:
        self.frozen = True

    def _check_mutable(self) -> None:
        if self.frozen:
            raise RuntimeError(f"{type(self).__name__} is frozen")


class Hypergraph(Freezable):
    """Append-only store of nodes and head/tail-partitioned hyperedges."""

    def __init__(self) -> None:
        self.nodes: list[Any] = []
        self.edges: list[HyperEdge] = []
        self._incidence: list[list[Occurrence]] = []

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self.nodes):
            raise UnknownNodeError(node)

    def add_node(self, payload: Any) -> int:
        """Append a node and return its id (equal to the previous node count)."""
        self._check_mutable()
        self.nodes.append(payload)
        self._incidence.append([])
        return len(self.nodes) - 1

    def add_hyperedge(self, head: Iterable[int], tail: Iterable[int]) -> int:
        """Append an edge joining existing nodes; head and tail order is kept."""
        self._check_mutable()
        head = list(head)
        tail = list(tail)
        if not head or not tail:
            raise EmptySlotError("head and tail must each name at least one node")
        _check_ids(*head, *tail)
        for node in (*head, *tail):
            self._check_node(node)
        edge_id = len(self.edges)
        self.edges.append(HyperEdge(edge_id, head, tail))
        for position, node in enumerate(head):
            self._incidence[node].append(Occurrence(edge_id, HEAD, position))
        for position, node in enumerate(tail):
            self._incidence[node].append(Occurrence(edge_id, TAIL, position))
        return edge_id

    def incidence_of(self, node: int) -> list[Occurrence]:
        """Every (edge, slot, position) occurrence of ``node``, in edge-id order."""
        self._check_node(node)
        return list(self._incidence[node])

    def forward_reachable(self, start: int) -> set[int]:
        """Nodes reachable by repeatedly firing edges headed by a reached node.

        An edge fires as soon as any one of its head nodes is reached; firing
        reaches every tail node.  ``start`` seeds the process but is only part
        of the result if some fired edge reaches it again.
        """
        self._check_node(start)
        reached: set[int] = set()
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for occurrence in self._incidence[node]:
                if occurrence.slot != HEAD:
                    continue
                for target in self.edges[occurrence.edge].tail:
                    if target not in reached:
                        reached.add(target)
                        frontier.append(target)
        return reached
