"""Integration engine: stratify statements and build the two-layer structure.

Routing is purely syntactic.  A statement goes to the schema layer when its
predicate is one of the four vocabulary properties (rdfs:subClassOf, rdf:type,
rdfs:domain, rdfs:range) *and* both subject and object are IRIs; everything
else — including rdf:type with a blank or literal participant — stays in the
instance layer.  Instance statements become hyperedges with the predicate as
the single head node and subject/object as tail positions 0/1; schema
statements become labeled edges in the graph layer.  The parser's terms are
:class:`NodePayload` values and become hypernode payloads unconverted.  Each
distinct statement is mapped once, and hypernodes are interned by the
hypergraph layer alone, so one term is one hypernode and one statement is
one hyperedge.

Connector generation then ties the layers together: every hyperedge anchors to
rdf:Statement, role occurrences anchor to rdf:subject / rdf:predicate /
rdf:object, datatyped literals to rdf:datatype, and typed instance nodes to
their class node.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Iterable

from .hg2 import HG2, EdgeConnector, NodeConnector, Violation
from .hypergraph import Hypergraph, _check_id
from .ntriples import _REQUIRED_FIELD, NodePayload, PayloadKind, Statement
from .schema import (
    RDF_DATATYPE,
    RDF_OBJECT,
    RDF_PREDICATE,
    RDF_STATEMENT,
    RDF_SUBJECT,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LITERAL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    EdgeKind,
    GraphEdge,
    SchemaGraph,
    load_builtin_vocabulary,
)


class Layer(Enum):
    SCHEMA = "schema"
    INSTANCE = "instance"


#: Vocabulary predicates that may route a statement to the graph layer,
#: with the edge kind each one produces there.
SCHEMA_PREDICATES: dict[str, EdgeKind] = {
    RDFS_SUBCLASSOF: EdgeKind.SUBCLASS_OF,
    RDF_TYPE: EdgeKind.TYPE,
    RDFS_DOMAIN: EdgeKind.DOMAIN,
    RDFS_RANGE: EdgeKind.RANGE,
}

#: Graph nodes that must exist before connectors can be generated.
ANCHOR_IRIS = (RDF_STATEMENT, RDF_SUBJECT, RDF_PREDICATE, RDF_OBJECT, RDF_DATATYPE)


class MissingAnchorError(LookupError):
    """A built-in anchor node is absent from the graph layer."""


def route_statement(statement: Statement) -> Layer:
    """Decide which layer a statement belongs to."""
    if (
        statement.subject.kind is PayloadKind.URI
        and statement.object.kind is PayloadKind.URI
        and statement.predicate.iri in SCHEMA_PREDICATES
    ):
        return Layer.SCHEMA
    return Layer.INSTANCE


def map_statement(statement: Statement, hg2: HG2) -> int:
    """Record an instance statement as a new hyperedge; returns its id.

    The predicate becomes the sole head node; the subject and object become
    tail positions 0 and 1.  The statement's terms become the payloads as
    they are, interned through the hypergraph's own index, so a repeated
    term reuses its hypernode; repeated statements are dropped by
    :func:`integrate` before they get here.  :func:`integrate` maps each
    instance statement through the same body.
    """
    hg2.h._check_mutable()
    return _map_instance(hg2.h, statement)


def _map_instance(h: Hypergraph, statement: Statement) -> int:
    """:func:`map_statement` on a mutable hypergraph.  Every id comes from
    ``h``'s own index or append, so none needs a range check."""
    subject = h._intern(statement.subject)
    predicate = h._intern(statement.predicate)
    objekt = h._intern(statement.object)
    return h._append_edge([predicate], [subject, objekt])


#: The term kinds that may not sit in a head slot, with the violation each gives.
_HEAD_VIOLATIONS = {PayloadKind.LITERAL: "LiteralInHead", PayloadKind.BLANK: "BlankInHead"}


def statement_of(hg2: HG2, edge_id: int) -> Statement | None:
    """Reconstruct the statement a hyperedge encodes, if it is statement-shaped.

    Returns None for an absent edge id, for a hyperedge or one of its nodes
    that breaks a placement rule of :func:`validate_mapping`, and for a
    hyperedge with an opaque payload, so exactly the hyperedges that those
    rules pass come back.  An id that is not a plain int raises TypeError.
    """
    _check_id(edge_id)
    if not 0 <= edge_id < hg2.h.edge_count:
        return None
    edge = hg2.h.edges[edge_id]
    if _placement_violations(hg2, {*edge.head, *edge.tail}, (edge_id,)):
        return None
    payloads = [hg2.h.nodes[n] for n in (edge.tail[0], edge.head[0], edge.tail[1])]
    if not all(isinstance(p, NodePayload) for p in payloads):
        return None
    return Statement(*payloads)


def map_schema_statement(statement: Statement, graph: SchemaGraph) -> bool:
    """Record a schema statement as a labeled graph edge (subject → object).

    For rdfs:subClassOf this realizes the child → parent direction.  Returns
    True when a new edge was added, False on an exact duplicate.
    """
    graph._check_mutable()
    return _map_schema(graph, statement)


def _map_schema(graph: SchemaGraph, statement: Statement) -> bool:
    """:func:`map_schema_statement` on a mutable graph; both endpoints come
    from ``graph.intern``, so neither needs a range check."""
    kind = SCHEMA_PREDICATES[statement.predicate.iri]
    edge = GraphEdge(graph.intern(statement.subject.iri), graph.intern(statement.object.iri), kind)
    if edge in graph.edges:
        return False
    graph._append_edge(edge)
    return True


def generate_connectors(hg2: HG2) -> None:
    """Wire the hypergraph layer to the graph layer.

    Emits, deduplicated: one edge connector per hyperedge to rdf:Statement;
    role connectors from head nodes to rdf:predicate and from tail positions
    0/1 to rdf:subject/rdf:object; a connector to rdf:datatype from every
    datatyped literal node; and a typing connector from every instance node
    whose IRI has a type edge in the graph layer to the class node it points
    at.  Node connectors are collected first, in first-offer order, so each
    distinct one reaches ``add_connector`` once.  Safe to run repeatedly: the
    second run adds nothing.
    """
    anchors: dict[str, int] = {}
    for iri in ANCHOR_IRIS:
        node = hg2.g.find(iri)
        if node is None:
            raise MissingAnchorError(f"graph layer has no node for <{iri}>; load the built-in vocabulary first")
        anchors[iri] = node

    offers: dict[tuple[int, int], None] = {}
    tail_roles = (anchors[RDF_SUBJECT], anchors[RDF_OBJECT])
    for edge_id, edge in enumerate(hg2.h.edges):
        hg2.add_connector(EdgeConnector(edge_id, anchors[RDF_STATEMENT]))
        for node in edge.head:
            offers[node, anchors[RDF_PREDICATE]] = None
        for node, role in zip(edge.tail, tail_roles):
            offers[node, role] = None

    class_nodes: dict[int, list[int]] = {}
    for graph_edge in hg2.g.edges:
        if graph_edge.kind is EdgeKind.TYPE:
            class_nodes.setdefault(graph_edge.src, []).append(graph_edge.dst)

    for node_id, payload in enumerate(hg2.h.nodes):
        if not isinstance(payload, NodePayload):
            continue
        if payload.kind is PayloadKind.LITERAL and payload.datatype_iri is not None:
            offers[node_id, anchors[RDF_DATATYPE]] = None
        elif payload.kind is PayloadKind.URI and payload.iri is not None:
            graph_node = hg2.g.find(payload.iri)
            if graph_node is not None:
                for class_node in class_nodes.get(graph_node, ()):
                    offers[node_id, class_node] = None

    for node_id, graph_node in offers:
        hg2.add_connector(NodeConnector(node_id, graph_node))


def validate_mapping(hg2: HG2) -> list[Violation]:
    """Check the placement rules; reports violations without mutating.

    A literal node may never sit in a head slot or in tail position 0, a
    blank node may never sit in a head slot, every statement-shaped hyperedge
    has exactly one head and two tails, a term payload must carry the field
    its kind requires, and a literal payload may not carry both a language
    tag and a datatype.  Structures built purely through map_statement
    satisfy all of these, and :func:`statement_of` reads the same rules.
    """
    return _placement_violations(hg2, range(hg2.h.node_count), range(hg2.h.edge_count))


def _placement_violations(hg2: HG2, node_ids: Iterable[int], edge_ids: Iterable[int]) -> list[Violation]:
    """The placement rules over the given hypernodes, then the given
    hyperedges, each in the order given."""
    nodes, edges = hg2.h.nodes, hg2.h.edges
    violations: list[Violation] = []
    for node_id in node_ids:
        payload = nodes[node_id]
        if not isinstance(payload, NodePayload):
            continue
        required = _REQUIRED_FIELD[payload.kind]
        if getattr(payload, required) is None:
            violations.append(Violation(
                "IncompletePayload", f"{payload.kind.value} hypernode {node_id} has no {required}",
                node=node_id,
            ))
        if (payload.kind is PayloadKind.LITERAL
                and payload.language_tag is not None and payload.datatype_iri is not None):
            violations.append(Violation(
                "LanguageTagOnTyped",
                f"hypernode {node_id} carries both a language tag and a datatype", node=node_id,
            ))

    def kind_of(node: int) -> PayloadKind | None:
        payload = nodes[node]
        return payload.kind if isinstance(payload, NodePayload) else None

    for edge_id in edge_ids:
        edge = edges[edge_id]
        if len(edge.head) != 1 or len(edge.tail) != 2:
            violations.append(Violation(
                "EdgeArityViolation",
                f"hyperedge {edge_id} has |head|={len(edge.head)}, "
                f"|tail|={len(edge.tail)}; statements need 1 and 2",
                edge=edge_id,
            ))
        for node in edge.head:
            kind = kind_of(node)
            if kind in _HEAD_VIOLATIONS:
                violations.append(Violation(
                    _HEAD_VIOLATIONS[kind],
                    f"{kind.value} hypernode {node} occupies a head slot of hyperedge {edge_id}",
                    node=node, edge=edge_id,
                ))
        if edge.tail and kind_of(edge.tail[0]) is PayloadKind.LITERAL:
            violations.append(Violation(
                "LiteralAsSubject",
                f"literal hypernode {edge.tail[0]} occupies tail position 0 of hyperedge {edge_id}",
                node=edge.tail[0], edge=edge_id,
            ))
    return violations


@dataclass(frozen=True)
class ConstraintWarning:
    kind: str
    node: int
    predicate_iri: str
    class_iri: str

    def __str__(self) -> str:
        role = "subject" if self.kind == "DomainUnsatisfied" else "object"
        return (
            f"{self.kind}: {role} hypernode {self.node} of <{self.predicate_iri}> "
            f"is not typed as <{self.class_iri}> or a subclass of it"
        )


def check_domain_range(hg2: HG2) -> list[ConstraintWarning]:
    """Soft-check rdfs:domain / rdfs:range declarations against the instances.

    For every statement-shaped hyperedge whose predicate has a domain
    constraint C, the subject must carry a typing connector to C or to a
    descendant of C; symmetrically for range and the object, except that a
    literal object satisfies any range whose subclass closure contains
    rdfs:Literal.  Produces warnings, never rejections, in hyperedge order.

    The cost is linear in hyperedges plus graph edges: each head node's
    IRI and constraints are resolved once per call (through the index behind
    ``SchemaGraph.constraint_of``) and kept in a local dict, anchors are
    read in place from the per-hypernode anchor lists, and each constraint
    class's subclass closure is computed once per call and kept in a local
    dict.
    """
    warnings: list[ConstraintWarning] = []
    literal_class = hg2.g.find(RDFS_LITERAL)
    closures: dict[int, set[int]] = {}

    def closure_of(class_node: int) -> set[int]:
        closure = closures.get(class_node)
        if closure is None:
            closure = closures[class_node] = hg2.g.subclass_closure(class_node)
        return closure

    node_anchors = hg2._node_anchors

    def typed_within(node: int, class_node: int) -> bool:
        return not closure_of(class_node).isdisjoint(node_anchors.get(node, ()))

    def constraints_of(head: int) -> tuple[str, int | None, int | None] | None:
        """The head's predicate IRI with its domain and range, or None when
        the head is no IRI term or names no graph node."""
        payload = hg2.h.nodes[head]
        if (
            not isinstance(payload, NodePayload)
            or payload.kind is not PayloadKind.URI
            or payload.iri is None  # reported by validate_mapping as IncompletePayload
        ):
            return None
        predicate_node = hg2.g.find(payload.iri)
        if predicate_node is None:
            return None
        return (
            payload.iri,
            hg2.g.constraint_of(predicate_node, EdgeKind.DOMAIN),
            hg2.g.constraint_of(predicate_node, EdgeKind.RANGE),
        )

    resolved: dict[int, tuple[str, int | None, int | None] | None] = {}
    for edge in hg2.h.edges:
        if len(edge.head) != 1 or len(edge.tail) != 2:
            continue
        head = edge.head[0]
        if head in resolved:
            constraints = resolved[head]
        else:
            constraints = resolved[head] = constraints_of(head)
        if constraints is None:
            continue
        predicate_iri, domain, range_class = constraints

        if domain is not None and not typed_within(edge.tail[0], domain):
            warnings.append(
                ConstraintWarning(
                    "DomainUnsatisfied", edge.tail[0], predicate_iri, hg2.g.iri_of(domain)
                )
            )

        if range_class is not None:
            object_node = edge.tail[1]
            object_payload = hg2.h.nodes[object_node]
            if isinstance(object_payload, NodePayload) and object_payload.kind is PayloadKind.LITERAL:
                satisfied = literal_class is not None and literal_class in closure_of(range_class)
            else:
                satisfied = typed_within(object_node, range_class)
            if not satisfied:
                warnings.append(
                    ConstraintWarning(
                        "RangeUnsatisfied", object_node, predicate_iri, hg2.g.iri_of(range_class)
                    )
                )
    return warnings


@dataclass
class IntegrationReport:
    statements_in: int = 0
    hyperedges_created: int = 0
    schema_edges_created: int = 0
    connectors_v: int = 0
    connectors_e: int = 0
    warnings: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"statements in:        {self.statements_in}",
            f"hyperedges created:   {self.hyperedges_created}",
            f"schema edges created: {self.schema_edges_created}",
            f"node connectors:      {self.connectors_v}",
            f"edge connectors:      {self.connectors_e}",
            f"warnings:             {len(self.warnings)}",
        ]
        lines.extend(f"  {warning}" for warning in self.warnings)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return asdict(self)


def integrate(statements: list[Statement]) -> tuple[HG2, IntegrationReport]:
    """Build a frozen two-layer structure from parsed statements.

    Pipeline: load the built-in vocabulary, route each distinct statement to
    its layer, map it, generate connectors, then run the placement checks
    (their findings land in the report as warnings).  An RDF graph is a set
    of triples, so a repeated statement is mapped once; first-seen order is
    kept, which makes the result deterministic for a given input.  Mapping
    is one pass over the distinct statements through the bodies of
    :func:`map_statement` and :func:`map_schema_statement`: each term is
    interned through its layer's own index and the edge appended, and the
    ids that came from that interning are not range-checked again.  The
    result is frozen and safe to query concurrently.
    """
    hg2 = HG2(g=load_builtin_vocabulary())
    report = IntegrationReport(statements_in=len(statements))
    for statement in dict.fromkeys(statements):
        if route_statement(statement) is Layer.SCHEMA:
            if _map_schema(hg2.g, statement):
                report.schema_edges_created += 1
        else:
            _map_instance(hg2.h, statement)
    report.hyperedges_created = hg2.h.edge_count
    generate_connectors(hg2)
    report.connectors_v = len(hg2._connectors_v)
    report.connectors_e = len(hg2._connectors_e)
    report.warnings.extend(str(violation) for violation in validate_mapping(hg2))
    hg2.freeze()
    return hg2, report
