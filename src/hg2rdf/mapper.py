"""Integration engine: stratify statements and build the two-layer structure.

Routing is purely syntactic, by the one rule of :func:`route_statement`.  A
statement goes to the schema layer when its predicate is exactly one of the
four vocabulary properties (rdfs:subClassOf, rdf:type, rdfs:domain,
rdfs:range) as an IRI term *and* its subject and object are well-formed IRI
terms; everything else — rdf:type with a blank, literal or malformed
participant too — stays in the instance layer.  Instance statements become
hyperedges with the predicate as the single head node and subject/object as
tail positions 0/1; schema statements become labeled edges in the graph
layer.  The parser's terms are :class:`NodePayload` values and become
hypernode payloads unconverted.  Each distinct statement is mapped once, and
hypernodes are interned by the hypergraph layer alone, so one term is one
hypernode and one statement is one hyperedge.

Connector generation then ties the layers together: every hyperedge anchors to
rdf:Statement, role occurrences anchor to rdf:subject / rdf:predicate /
rdf:object, datatyped literals to rdf:datatype, and typed instance nodes to
their class node.

Every reader of a hypernode here asks the parser's rules: ``_term_kind``,
whether the payload is a term and of which kind, and ``_term_problem``,
whether a term is well formed; routing asks their column forms,
``_term_kinds`` and ``_malformed_terms``, once for all statements.
:func:`validate_mapping` asks the term rule only for the hypernodes the node
writer already filed as malformed.
"""
from __future__ import annotations

from enum import Enum
from itertools import chain, compress, filterfalse, repeat
from operator import and_, attrgetter, is_, itemgetter, not_
from typing import Iterable, NamedTuple, Sequence

from .hg2 import HG2, EdgeConnector, NodeConnector, Violation
from .hypergraph import Hypergraph, _check_id
from .ntriples import NodePayload, PayloadKind, Statement, _malformed_terms, _term_kind, _term_kinds, _term_problem
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

#: Each schema predicate as the one IRI term it must be, with its edge kind.
_SCHEMA_TERMS = {NodePayload.uri(iri): kind for iri, kind in SCHEMA_PREDICATES.items()}

#: Graph nodes that must exist before connectors can be generated.
ANCHOR_IRIS = (RDF_STATEMENT, RDF_SUBJECT, RDF_PREDICATE, RDF_OBJECT, RDF_DATATYPE)


class MissingAnchorError(LookupError):
    """A built-in anchor node is absent from the graph layer."""


def route_statement(statement: Statement) -> Layer:
    """Decide which layer a statement belongs to, by the one routing rule:
    the schema layer when the predicate is exactly a ``SCHEMA_PREDICATES``
    IRI term and the subject and object are IRI terms the term rule passes,
    the instance layer otherwise.  A term field that cannot be hashed (a
    list, say) raises ValueError with the term rule's message.  This is the
    one-statement call of the rule that :func:`integrate` applies to all
    of its statements at once.
    """
    _distinct((statement,))
    return Layer.SCHEMA if _schema_routes((statement,))[0] else Layer.INSTANCE


_SUBJECT, _PREDICATE, _OBJECT = map(itemgetter, range(3))
_ENDS = itemgetter(0, 2)
_IRI = attrgetter("iri")


def _schema_routes(statements: Sequence[Statement]) -> list[bool]:
    """Whether :func:`route_statement` sends each statement, all known to
    hash, to the schema layer.  The candidates are the statements whose
    predicate is a schema term; their subjects and objects are judged as
    one column, by the column forms of the term rule and of ``_term_kind``,
    so no term is judged on its own unless the column fails."""
    routes = list(map(_SCHEMA_TERMS.__contains__, map(_PREDICATE, statements)))
    candidates = list(compress(range(len(routes)), routes))
    ends = list(chain.from_iterable(map(_ENDS, compress(statements, routes))))
    uris = list(map(is_, _term_kinds(ends), repeat(PayloadKind.URI)))
    for position in _malformed_terms(ends):
        uris[position] = False
    for candidate, schema in zip(candidates, map(and_, uris[::2], uris[1::2])):
        if not schema:
            routes[candidate] = False
    return routes


def _distinct(statements: Sequence[Statement]) -> dict[Statement, None]:
    """The distinct statements in first-seen order; an unhashable one raises :func:`_refusal`."""
    try:
        return dict.fromkeys(statements)
    except TypeError as error:  # an unhashable field
        raise _refusal(chain.from_iterable(statements)) or error from None


def _refusal(terms: Iterable[object]) -> ValueError | None:
    """ValueError with the term rule's message for the first malformed term."""
    problem = next(filter(None, map(_term_problem, terms)), None)
    return None if problem is None else ValueError(problem[1])


def map_statement(statement: Statement, hg2: HG2) -> int:
    """Record an instance statement as a new hyperedge; returns its id.

    The predicate becomes the sole head node; the subject and object become
    tail positions 0 and 1.  The statement's terms become the payloads as
    they are, interned through the hypergraph's own index, so a repeated
    term reuses its hypernode; repeated statements are dropped by
    :func:`integrate` before they get here.  :func:`integrate` maps all of
    its instance statements through the same body.  It maps exactly the
    statements that :func:`route_statement` sends to the instance layer;
    for a statement routed to the schema layer it raises ValueError before
    any term is interned.  A term field that cannot be hashed raises
    ValueError with the term rule's message.
    """
    hg2.h._check_mutable()
    if route_statement(statement) is not Layer.INSTANCE:
        raise ValueError("route_statement sends this statement to the schema layer")
    return _map_instances(hg2.h, (statement,))


def _map_instances(h: Hypergraph, statements: Sequence[Statement]) -> int:
    """:func:`map_statement` for each statement in turn, on a mutable
    hypergraph, as one append of the new terms and one of the edges; returns
    the first edge id.  The new terms are appended in the order a
    statement-by-statement interning would meet them (subject, predicate,
    object), and every id comes from ``h``'s own index, so none needs a
    range check."""
    index = h._index
    h._append_nodes([
        term for term in dict.fromkeys(chain.from_iterable(statements)) if term not in index
    ])
    return h._append_edges(
        [[index[predicate]] for _, predicate, _ in statements],
        [[index[subject], index[objekt]] for subject, _, objekt in statements],
    )


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
    if None in map(_term_kind, payloads):
        return None
    return Statement(*payloads)


def map_schema_statement(statement: Statement, graph: SchemaGraph) -> bool:
    """Record a schema statement as a labeled graph edge (subject → object).

    For rdfs:subClassOf this realizes the child → parent direction.  Returns
    True when a new edge was added, False on an exact duplicate.  It maps
    exactly the statements that :func:`route_statement` sends to the schema
    layer; for any other it raises ValueError, with the term rule's message
    when a term is malformed, before either endpoint is interned.
    """
    graph._check_mutable()
    if route_statement(statement) is not Layer.SCHEMA:
        raise _refusal(statement) or ValueError("route_statement sends this statement to the instance layer")
    return _map_schemas(graph, (statement,)) == 1


def _map_schemas(graph: SchemaGraph, statements: Sequence[Statement]) -> int:
    """:func:`map_schema_statement` for each statement in turn, on a mutable
    graph, for statements routed to the schema layer, as one append of the
    new IRIs and one of the new edges; returns the number of new edges.
    The IRIs are interned in the order a statement-by-statement mapping
    meets them (subject, then object), so ids and edge order are the same,
    and every endpoint comes from ``graph``'s own index, so none needs a
    range check."""
    ids = graph._ids
    subjects = list(map(_IRI, map(_SUBJECT, statements)))
    objects = list(map(_IRI, map(_OBJECT, statements)))
    graph._append_nodes(list(filterfalse(ids.__contains__, dict.fromkeys(
        chain.from_iterable(zip(subjects, objects))))))
    edges = dict.fromkeys(map(tuple.__new__, repeat(GraphEdge), zip(
        map(ids.__getitem__, subjects), map(ids.__getitem__, objects),
        map(_SCHEMA_TERMS.__getitem__, map(_PREDICATE, statements)))))
    new = list(filterfalse(graph.edges.__contains__, edges))
    graph._append_edges(new)
    return len(new)


def generate_connectors(hg2: HG2) -> None:
    """Wire the hypergraph layer to the graph layer.

    Emits, deduplicated: one edge connector per hyperedge to rdf:Statement;
    role connectors from head nodes to rdf:predicate and from tail positions
    0/1 to rdf:subject/rdf:object; a connector to rdf:datatype from every
    datatyped literal node; and a typing connector from every instance node
    whose IRI has a type edge in the graph layer to the class node it points
    at.  Node connectors are collected first, as int pairs in first-offer
    order, so each distinct one reaches ``add_connector`` once, as its ids
    and kind; no connector record is built.  Safe to run repeatedly: the
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
        hg2.add_connector(edge_id, anchors[RDF_STATEMENT], EdgeConnector)
        for node in edge.head:
            offers[node, anchors[RDF_PREDICATE]] = None
        for node, role in zip(edge.tail, tail_roles):
            offers[node, role] = None

    class_nodes: dict[int, list[int]] = {}
    for graph_edge in hg2.g.edges:
        if graph_edge.kind is EdgeKind.TYPE:
            class_nodes.setdefault(graph_edge.src, []).append(graph_edge.dst)

    for node_id, payload in enumerate(hg2.h.nodes):
        kind = _term_kind(payload)
        if kind is PayloadKind.LITERAL and payload.datatype_iri is not None:
            offers[node_id, anchors[RDF_DATATYPE]] = None
        elif kind is PayloadKind.URI:
            graph_node = hg2.g.find(payload.iri)
            if graph_node is not None:
                for class_node in class_nodes.get(graph_node, ()):
                    offers[node_id, class_node] = None

    for node_id, graph_node in offers:
        hg2.add_connector(node_id, graph_node, NodeConnector)


def validate_mapping(hg2: HG2) -> list[Violation]:
    """Check the placement rules; reports violations without mutating.

    A literal node may never sit in a head slot or in tail position 0, a
    blank node may never sit in a head slot, every statement-shaped hyperedge
    has exactly one head and two tails, and every term payload is well
    formed by the parser's one term rule, ``_term_problem``: a malformed term
    is reported once, as the violation kind and message the rule gives
    (``UnknownPayloadKind``, ``NonStringField``, ``ForeignField``,
    ``IncompletePayload`` or ``LanguageTagOnTyped``), and a term of unknown
    kind passes the slot rules.  The rule's messages are given only for the
    hypernodes the node writer filed as malformed, so a structure with none
    judges no term here.  Structures built purely through map_statement
    from parsed statements satisfy all of these, and :func:`statement_of`
    reads the same rules.
    """
    return _placement_violations(hg2, hg2.h._malformed, range(hg2.h.edge_count))


def _placement_violations(hg2: HG2, node_ids: Iterable[int], edge_ids: Iterable[int]) -> list[Violation]:
    """The term rule over the given hypernodes, then the placement rules
    over the given hyperedges, each in the order given."""
    nodes, edges = hg2.h.nodes, hg2.h.edges
    violations: list[Violation] = []
    for node_id in node_ids:
        problem = _term_problem(nodes[node_id], f"hypernode {node_id}")
        if problem is not None:
            violations.append(Violation(*problem, node=node_id))

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
            kind = _term_kind(nodes[node])
            if kind in _HEAD_VIOLATIONS:
                violations.append(Violation(
                    _HEAD_VIOLATIONS[kind],
                    f"{kind.value} hypernode {node} occupies a head slot of hyperedge {edge_id}",
                    node=node, edge=edge_id,
                ))
        if edge.tail and _term_kind(nodes[edge.tail[0]]) is PayloadKind.LITERAL:
            violations.append(Violation(
                "LiteralAsSubject",
                f"literal hypernode {edge.tail[0]} occupies tail position 0 of hyperedge {edge_id}",
                node=edge.tail[0], edge=edge_id,
            ))
    return violations


class ConstraintWarning(NamedTuple):
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


#: The constraints, in warning order: the warning each gives, the tail slot
#: it constrains and the graph edge kind that declares it.
_CONSTRAINTS = (("DomainUnsatisfied", 0, EdgeKind.DOMAIN), ("RangeUnsatisfied", 1, EdgeKind.RANGE))


def check_domain_range(hg2: HG2) -> list[ConstraintWarning]:
    """Soft-check rdfs:domain / rdfs:range declarations against the instances.

    For every statement-shaped hyperedge whose predicate has a domain
    constraint C, the subject must carry a typing connector to C or to a
    descendant of C; symmetrically for range and the object, except that a
    literal object satisfies any range whose subclass closure contains
    rdfs:Literal.  Produces warnings, never rejections, in hyperedge order,
    a hyperedge's domain warning before its range warning.

    The cost is linear in hyperedges plus graph edges: each head node's
    checks, ``(warning kind, tail slot, predicate IRI, class IRI, closure)``
    each, are resolved once per call through the index behind
    ``SchemaGraph.constraint_of``, each constraint class's subclass closure
    is computed once per call, and anchors are read in place from the
    per-hypernode anchor lists.
    """
    nodes, graph, node_anchors = hg2.h.nodes, hg2.g, hg2._node_anchors
    literal_class = graph.find(RDFS_LITERAL)
    closures: dict[int, set[int]] = {}
    checks_of: dict[int, list[tuple[str, int, str, str, set[int]]]] = {}
    warnings: list[ConstraintWarning] = []
    for edge in hg2.h.edges:
        if len(edge.head) != 1 or len(edge.tail) != 2:
            continue
        head = edge.head[0]
        checks = checks_of.get(head)
        if checks is None:
            checks = checks_of[head] = []
            payload = nodes[head]
            predicate = graph.find(payload.iri) if _term_kind(payload) is PayloadKind.URI else None
            for kind, slot, edge_kind in _CONSTRAINTS if predicate is not None else ():
                class_node = graph.constraint_of(predicate, edge_kind)
                if class_node is None:
                    continue
                if class_node not in closures:
                    closures[class_node] = graph.subclass_closure(class_node)
                checks.append((kind, slot, payload.iri, graph.iri_of(class_node), closures[class_node]))
        for kind, slot, predicate_iri, class_iri, closure in checks:
            node = edge.tail[slot]
            if slot == 1 and _term_kind(nodes[node]) is PayloadKind.LITERAL:
                satisfied = literal_class in closure
            else:
                satisfied = not closure.isdisjoint(node_anchors.get(node, ()))
            if not satisfied:
                warnings.append(ConstraintWarning(kind, node, predicate_iri, class_iri))
    return warnings


class IntegrationReport(NamedTuple):
    """What :func:`integrate` built, counted once it is done."""

    statements_in: int = 0
    hyperedges_created: int = 0
    schema_edges_created: int = 0
    connectors_v: int = 0
    connectors_e: int = 0
    warnings: Sequence[str] = ()

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
        return {**self._asdict(), "warnings": list(self.warnings)}


def integrate(statements: list[Statement]) -> tuple[HG2, IntegrationReport]:
    """Build a frozen two-layer structure from parsed statements.

    Pipeline: load the built-in vocabulary, route the distinct statements
    to their layers by the rule of :func:`route_statement`, map them,
    generate connectors, then run the placement checks (their findings land
    in the report as warnings).  An RDF graph is a set of triples, so a
    repeated statement is mapped once; first-seen order is kept, which makes
    the result deterministic for a given input.  Each step takes a whole
    section: routing judges the subjects and objects of every statement with
    a schema predicate as one column of the term rule; the schema statements
    go together through the body of :func:`map_schema_statement`, as one
    append of their new IRIs and one of their edges; and the instance
    statements go together through the body of :func:`map_statement`, as
    one append of their new terms and one of their hyperedges.  Each term
    is interned through its layer's own index, and the ids that came from
    that interning are not range-checked again.  The report is built once,
    from the finished structure, which is frozen and safe to query
    concurrently.  A statement that cannot be hashed (a term field such as
    a list) raises ValueError with the term rule's message for the first
    malformed term; any other malformed term goes to the instance layer,
    and is reported there.
    """
    hg2 = HG2(g=load_builtin_vocabulary())
    builtin_edges = hg2.g.edge_count
    distinct = list(_distinct(statements))
    schema = _schema_routes(distinct)
    _map_schemas(hg2.g, list(compress(distinct, schema)))
    _map_instances(hg2.h, list(compress(distinct, map(not_, schema))))
    generate_connectors(hg2)
    warnings = [str(violation) for violation in validate_mapping(hg2)]
    hg2.freeze()
    return hg2, IntegrationReport(len(statements), hg2.h.edge_count, hg2.g.edge_count - builtin_edges,
                                  len(hg2._connectors_v), len(hg2._connectors_e), warnings)
