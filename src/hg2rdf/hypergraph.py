"""Directed hypergraph with ordered head/tail slots per hyperedge.

A node's payload is any value; a node's or a hyperedge's id is its position
in ``nodes`` or ``edges``, and a repeated hashable payload names its first
node, as an IRI names one node of :class:`~hg2rdf.schema.SchemaGraph`.  The
node writer judges each section it appends with the column form of the
parser's term rule, ``_malformed_terms``, and refuses a section that holds a
malformed term, so no hypergraph holds one and no reader handles one.
Head and tail are ordered tuples so callers can assign positional roles; the
same node may appear on both sides of one edge.  A hyperedge is frozen,
slots included, so no edit of one goes around the writers.  Each node lists the ids of the edges
it sits in and keeps its forward star: a map from each distinct node that an
edge it heads has in its tail to the first such edge; the head index
``_heads`` is the set of nodes whose star is not empty.  One breadth-first
search over the forward stars is the only code that fires edges, and it
queues heads only, so a query never visits a leaf on its own.  Two section
writers, ``_append_nodes`` and ``_append_edges``, are the only code that
writes nodes, edges and these indexes (``freeze`` turns the two lists into
tuples): the checked mutators end in one-element calls of them, and
``deserialize`` and ``integrate`` hand them whole sections at once.
A frozen hypergraph searches from each head at most once: it keeps the
search of every head queried and the ascending answer of every head whose
reach is asked for, and ``forward_path`` reads its witness from the kept
search.  The writers refuse after ``freeze``, so no kept entry goes stale;
an unfrozen hypergraph keeps nothing.
:func:`_check_index` is the id-range rule of both layers and the connectors.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .ntriples import _malformed_terms, _term_problem


class UnknownNodeError(LookupError):
    """Referenced node id is not present in the hypergraph."""


class EmptySlotError(ValueError):
    """A hyperedge needs at least one head node and one tail node."""


@dataclass(frozen=True, slots=True)
class HyperEdge:
    head: tuple[int, ...]
    tail: tuple[int, ...]


def _check_id(value: object) -> None:
    """Reject an id that is not a plain int; bool is refused, as hg2/1 does."""
    if type(value) is not int:
        raise TypeError(f"ids must be int, got {value!r}")


def _check_index(value: object, count: int, what: str, error: type[LookupError] = UnknownNodeError) -> None:
    """Refuse a non-int id (TypeError) and an int outside ``range(count)``
    (``error``, with the message ``"<what> <value> does not exist"``)."""
    if type(value) is not int or not 0 <= value < count:
        _check_id(value)
        raise error(f"{what} {value} does not exist")


class Freezable:
    """One-way switch to read-only; mutators call :meth:`_check_mutable` first."""

    frozen = False

    def freeze(self) -> None:
        self.frozen = True

    def _check_mutable(self) -> None:
        if self.frozen:
            raise RuntimeError(f"{type(self).__name__} is frozen")


class Hypergraph(Freezable):
    """Append-only store of interned nodes and head/tail-partitioned hyperedges.

    ``_index`` maps each hashable payload to the first node that carries it;
    an unhashable payload gets a new node each time and is never found.
    Payloads are interned by equality, and an RDF term is a tuple of its
    fields, so a plain tuple equal to a term names the term's node (a loaded
    document cannot hold one: JSON has no tuples).  After :meth:`freeze`,
    ``nodes`` and ``edges`` are tuples, which refuse every write.
    """

    def __init__(self) -> None:
        self.nodes: list[Any] = []
        self.edges: list[HyperEdge] = []
        self._incidence: list[list[int]] = []
        self._forward: list[dict[int, int]] = []
        self._heads: set[int] = set()
        self._index: dict[Any, int] = {}
        self._searches: dict[int, dict[int, int]] = {}
        self._answers: dict[int, tuple[int, ...]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return tuple(self.nodes) == tuple(other.nodes) and tuple(self.edges) == tuple(other.edges)

    def freeze(self) -> None:
        """Make the node and edge lists tuples; a second call changes nothing.

        From then on each head's firing search (:meth:`_search`) and its
        ascending reach (:meth:`_sorted_reachable`) are computed on the first
        query and kept: the writers refuse, so the indexes they derive from
        never change.  A queried head keeps one search map, at most one
        entry per head, and one answer, at most one id per node; a start
        that heads nothing keeps neither.
        """
        super().freeze()
        self.nodes = tuple(self.nodes)
        self.edges = tuple(self.edges)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _check_node(self, node: int, role: str = "hypernode") -> None:
        _check_index(node, len(self.nodes), role)

    def add_node(self, payload: Any) -> int:
        """Return the node carrying ``payload``, appending it on first sight;
        a malformed term raises the writer's ValueError."""
        existing = self.find(payload)
        if existing is not None:
            return existing
        self._check_mutable()
        return self._append_nodes((payload,))

    def find(self, payload: Any) -> int | None:
        """Id of the first node carrying ``payload``, if any."""
        try:
            return self._index.get(payload)
        except TypeError:
            return None

    def _append_nodes(self, payloads: Sequence[Any]) -> int:
        """Append one node per payload, without interning; returns the first
        new id.  With :meth:`_append_edges`, the only writer of the node
        list, its per-node indexes and the payload index (the first node
        wins).  A whole section's indexes are allocated in one run, next to
        each other, which is the memory the firing search walks.

        The section is judged first by the term rule's column form,
        ``_malformed_terms``, in one pass; a section that holds a malformed
        term raises ValueError with the rule's message for the first one,
        and nothing is written.
        """
        malformed = _malformed_terms(payloads)
        if malformed:
            raise ValueError(_term_problem(payloads[malformed[0]])[1])
        nodes, index = self.nodes, self._index
        start = len(nodes)
        nodes.extend(payloads)
        new = range(start, len(nodes))
        self._incidence.extend([[] for _ in new])
        self._forward.extend([{} for _ in new])
        for node_id in new:
            try:
                index.setdefault(nodes[node_id], node_id)
            except TypeError:
                pass  # unhashable payloads stay unindexed
        return start

    def add_hyperedge(self, head: Iterable[int], tail: Iterable[int]) -> int:
        """Append an edge joining existing nodes; head and tail order is kept."""
        self._check_mutable()
        head = tuple(head)
        tail = tuple(tail)
        if not head or not tail:
            raise EmptySlotError("head and tail must each name at least one node")
        for node in head:
            self._check_node(node, "head hypernode")
        for node in tail:
            self._check_node(node, "tail hypernode")
        return self._append_edges((head,), (tail,))

    def _append_edges(self, heads: Sequence[Sequence[int]], tails: Sequence[Sequence[int]]) -> int:
        """Store edges whose slots are already checked, one per head and
        tail pair; returns the first new id.  The only code that appends to
        the edge list and files edge ids in the per-node indexes and the
        head index.  Each edge holds its slots as tuples (a tuple passed in
        is kept as it is, with no copy), so no later edit of the caller's
        sequences reaches the edge or the indexes filed from it.  Heads
        repeat (a statement's head is its predicate), so the edges of a
        section with equal heads share one head tuple, the first one met.

        Edges arrive in id order, so each forward star keeps, for every tail
        node, the lowest-id edge that reaches it, and its keys in the order a
        scan of the node's edges by id, each tail by position, first meets
        them.  The stars hold only ints, so the cyclic collector skips them.
        """
        forward, incidence = self._forward, self._incidence
        start = len(self.edges)
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        heads = [shared.setdefault(head, head) for head in map(tuple, heads)]
        self.edges.extend(map(HyperEdge, heads, map(tuple, tails)))
        self._heads.update(*shared)
        for edge_id, (head, tail) in enumerate(zip(heads, tails), start):
            for node in head:
                star = forward[node]
                for tail_node in tail:
                    if tail_node not in star:
                        star[tail_node] = edge_id
            for node in {*head, *tail}:
                incidence[node].append(edge_id)
        return start

    def incidence_of(self, node: int) -> list[int]:
        """Ids of the edges ``node`` sits in, each once, in ascending order."""
        self._check_node(node)
        return list(self._incidence[node])

    def _search(self, start: int) -> dict[int, int]:
        """Map each head node reached from ``start`` to the node whose edge
        reached it, in the order reached.

        An edge fires as soon as any one of its head nodes is reached; firing
        reaches every tail node.  A node that heads no edge fires nothing, so
        only heads are queued: a popped node's new head children, one C-level
        intersection of its star with ``_heads``, in star order (first edge
        id, then tail position).  Heads thus fire in the order, and from the
        parents, of a search that queued every node, and the witness edge of
        ``node`` reached from ``previous`` is ``self._forward[previous][node]``.
        The nodes are popped in the order ``[start, *reached]``.

        A frozen hypergraph keeps the map of each head in ``_searches`` and
        returns that one map to every later call; callers only read it.  A
        map is kept only once it is whole, so threads that miss together
        each search and all get the first map kept.
        """
        self._check_node(start)
        reached = self._searches.get(start)
        if reached is not None:
            return reached
        forward, heads, edges = self._forward, self._heads, self.edges
        reached = {}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            star = forward[node]
            children = sorted((star.keys() & heads).difference(reached),
                              key=lambda child: (star[child], edges[star[child]].tail.index(child)))
            reached.update(dict.fromkeys(children, node))
            queue.extend(children)
        if self.frozen and start in heads:
            reached = self._searches.setdefault(start, reached)
        return reached

    def forward_reachable(self, start: int) -> set[int]:
        """Nodes reachable by repeatedly firing edges headed by a reached node:
        the keys of the stars of ``start`` and of every head reached.

        ``start`` seeds the process but is only part of the result if some
        fired edge reaches it again.
        """
        return set().union(*map(self._forward.__getitem__, [start, *self._search(start)]))

    def _sorted_reachable(self, start: int) -> tuple[int, ...]:
        """:meth:`forward_reachable` as an ascending tuple.  A frozen
        hypergraph keeps the tuple of each head in ``_answers`` and returns
        that one tuple to every later call."""
        self._check_node(start)
        answer = self._answers.get(start)
        if answer is None:
            answer = tuple(sorted(self.forward_reachable(start)))
            if self.frozen and start in self._heads:
                answer = self._answers.setdefault(start, answer)
        return answer

    def forward_path(self, start: int, target: int) -> tuple[int, ...] | None:
        """Edge ids of a firing path from ``start`` to ``target``, or None.

        A node reaches itself through the empty path ``()``.  The path is the
        breadth-first one, so it is deterministic and shortest in edge count:
        its last edge leaves the first node popped by :meth:`_search` whose
        star holds ``target``, and the parents the search recorded lead back
        from there to ``start``.
        """
        self._check_node(start)
        self._check_node(target)
        if start == target:
            return ()
        forward, reached = self._forward, self._search(start)
        node = next((node for node in (start, *reached) if target in forward[node]), None)
        if node is None:
            return None
        path = [forward[node][target]]
        while node != start:
            previous = reached[node]
            path.append(forward[previous][node])
            node = previous
        return tuple(reversed(path))
