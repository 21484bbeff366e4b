"""Labeled directed graph for RDFS vocabulary.

Nodes are interned IRIs (one node per distinct IRI); edges carry one of four
kinds, abbreviated s/t/d/r: SubClassOf, Type, Domain, Range.  SubClassOf edges
point from the subclass to its parent.  The edges are one insertion-ordered
dict keyed by :class:`GraphEdge`, which holds their order and uniqueness.

Two section writers, ``SchemaGraph._append_nodes`` and
``SchemaGraph._append_edges``, are the only code that writes the nodes, the
edges and their indexes, as ``Hypergraph``'s two writers are for its layer:
``intern``, ``add_edge`` and :func:`load_builtin_vocabulary` end in calls to
them, and ``integrate`` and ``deserialize`` hand them whole sections.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from enum import Enum
from itertools import count
from types import MappingProxyType
from typing import NamedTuple

from .hypergraph import Freezable, _check_index

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

RDF_TYPE = RDF_NS + "type"
RDF_PROPERTY = RDF_NS + "Property"
RDF_STATEMENT = RDF_NS + "Statement"
RDF_SUBJECT = RDF_NS + "subject"
RDF_PREDICATE = RDF_NS + "predicate"
RDF_OBJECT = RDF_NS + "object"
RDF_DATATYPE = RDF_NS + "datatype"

RDFS_RESOURCE = RDFS_NS + "Resource"
RDFS_CLASS = RDFS_NS + "Class"
RDFS_LITERAL = RDFS_NS + "Literal"
RDFS_SUBCLASSOF = RDFS_NS + "subClassOf"
RDFS_DOMAIN = RDFS_NS + "domain"
RDFS_RANGE = RDFS_NS + "range"

#: Every IRI pre-interned by load_builtin_vocabulary, in interning order.
BUILTIN_VOCABULARY = (
    RDFS_RESOURCE,
    RDFS_CLASS,
    RDFS_LITERAL,
    RDF_PROPERTY,
    RDF_STATEMENT,
    RDF_TYPE,
    RDFS_SUBCLASSOF,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDF_SUBJECT,
    RDF_PREDICATE,
    RDF_OBJECT,
    RDF_DATATYPE,
)

#: Builtin classes that sit directly under the hierarchy root.
_ROOTED_CLASSES = (RDFS_CLASS, RDFS_LITERAL, RDF_PROPERTY, RDF_STATEMENT)


class EdgeKind(Enum):
    SUBCLASS_OF = "s"
    TYPE = "t"
    DOMAIN = "d"
    RANGE = "r"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and runs in C; Enum's own hashes the name in
    # Python.  No output depends on hash order.
    __hash__ = object.__hash__


#: The edge kinds that ``constraint_of`` answers for.
_CONSTRAINT_KINDS = (EdgeKind.DOMAIN, EdgeKind.RANGE)


class GraphEdge(NamedTuple):
    """A labeled edge; as a tuple it hashes and compares in C, as the key
    of ``SchemaGraph.edges``."""

    src: int
    dst: int
    kind: EdgeKind


class SchemaGraph(Freezable):
    """Interned IRI nodes plus deduplicated, insertion-ordered labeled edges.

    Edges are append-only; ``edges`` maps each to None in insertion order,
    and graphs are equal only with their edges in the same order.  The edge
    writer also fills two indexes that the lookups read instead of scanning
    ``edges``: the SubClassOf children of each class, and the first Domain
    and the first Range target of each node.  After :meth:`freeze`,
    ``iris`` and ``edges`` refuse every write.
    """

    def __init__(self) -> None:
        self.iris: list[str] = []
        self._ids: dict[str, int] = {}
        self.edges: dict[GraphEdge, None] = {}
        self._subclass_children: dict[int, list[int]] = {}
        self._constraints: dict[tuple[int, EdgeKind], int] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchemaGraph):
            return NotImplemented
        return tuple(self.iris) == tuple(other.iris) and list(self.edges) == list(other.edges)

    def freeze(self) -> None:
        """Make ``iris`` a tuple and ``edges`` a read-only view of its dict, once."""
        if not self.frozen:
            self.iris = tuple(self.iris)
            self.edges = MappingProxyType(self.edges)
        super().freeze()

    @property
    def node_count(self) -> int:
        return len(self.iris)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _check_node(self, node: int) -> None:
        _check_index(node, len(self.iris), "graph node")

    def intern(self, iri: str) -> int:
        """Return the node id for ``iri``, creating it on first sight; a new
        ``iri`` that is not a string raises TypeError, and an empty one
        ValueError, as no IRI term can carry it."""
        existing = self._ids.get(iri)
        if existing is not None:
            return existing
        if not isinstance(iri, str):
            raise TypeError(f"a graph node's iri must be a string, not {type(iri).__name__}")
        if not iri:
            raise ValueError("a graph node's iri must not be empty")
        self._check_mutable()
        return self._append_nodes((iri,))

    def _append_nodes(self, iris: Sequence[str]) -> int:
        """Append one node per IRI, each a string the graph does not hold
        yet and none twice; returns the first new id.  The only writer of
        ``iris`` and the IRI index."""
        start = len(self.iris)
        self.iris.extend(iris)
        self._ids.update(zip(iris, count(start)))
        return start

    def find(self, iri: str) -> int | None:
        """Id of the node for ``iri``, if any; ``None`` for an unhashable value."""
        try:
            return self._ids.get(iri)
        except TypeError:
            return None

    def iri_of(self, node: int) -> str:
        self._check_node(node)
        return self.iris[node]

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> bool:
        """Record an edge; exact duplicates are dropped.  Returns True if new."""
        self._check_mutable()
        self._check_node(src)
        self._check_node(dst)
        edge = GraphEdge(src, dst, kind)
        if edge in self.edges:
            return False
        self._append_edges((edge,))
        return True

    def _append_edges(self, edges: Iterable[GraphEdge]) -> None:
        """Store new edges between existing nodes, in order, none already
        stored and none twice; the only writer of the edge store and both
        lookup indexes."""
        store, children, constraints = self.edges, self._subclass_children, self._constraints
        for edge in edges:
            store[edge] = None
            src, dst, kind = edge
            if kind is EdgeKind.SUBCLASS_OF:
                children.setdefault(dst, []).append(src)
            elif kind in _CONSTRAINT_KINDS:
                constraints.setdefault((src, kind), dst)

    def subclass_closure(self, node: int) -> set[int]:
        """The class itself plus all its SubClassOf descendants; cycle-safe."""
        self._check_node(node)
        closure = {node}
        stack = [node]
        while stack:
            for child in self._subclass_children.get(stack.pop(), ()):
                if child not in closure:
                    closure.add(child)
                    stack.append(child)
        return closure

    def constraint_of(self, node: int, kind: EdgeKind) -> int | None:
        """Target of the first Domain or Range edge out of ``node``, if any.

        "First" is in edge insertion order.  The answer is one lookup in the
        index that ``_append_edges`` fills, so the cost does not grow with the
        number of edges.
        """
        if kind not in _CONSTRAINT_KINDS:
            raise ValueError("constraint_of answers Domain or Range lookups only")
        self._check_node(node)
        return self._constraints.get((node, kind))


def load_builtin_vocabulary() -> SchemaGraph:
    """A fresh graph holding the built-in RDF/RDFS vocabulary.

    All anchor nodes needed by connector generation pre-exist here, and the
    four builtin classes are placed under the hierarchy root.
    """
    graph = SchemaGraph()
    graph._append_nodes(BUILTIN_VOCABULARY)
    ids = graph._ids
    graph._append_edges([GraphEdge(ids[iri], ids[RDFS_RESOURCE], EdgeKind.SUBCLASS_OF)
                         for iri in _ROOTED_CLASSES])
    return graph
