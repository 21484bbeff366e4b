"""Independent oracles and corpus generators for the test suite.

Everything here is deliberately naive — fixpoint loops, matrix closure,
brute-force scans over whole edge lists — so that agreement with the library
is meaningful.  The generators take an explicit random.Random so corpora are
reproducible from a seed.
"""
from __future__ import annotations

import random
import re

from hg2rdf import (
    HG2,
    BlankLabel,
    EdgeConnector,
    EdgeKind,
    Hypergraph,
    IriRef,
    Literal,
    NodeConnector,
    NodePayload,
    SchemaGraph,
    Statement,
    format_statement,
)
from hg2rdf.schema import RDF_TYPE, RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBCLASSOF


def naive_reachable(hypergraph: Hypergraph, start: int) -> set[int]:
    """Fixpoint reachability: any edge with a triggered head node fires fully.

    The start node triggers edges but is only reported if some edge emits it.
    """
    reached: set[int] = set()
    while True:
        active = reached | {start}
        added = False
        for edge in hypergraph.edges:
            if any(node in active for node in edge.head):
                for target in edge.tail:
                    if target not in reached:
                        reached.add(target)
                        added = True
        if not added:
            return reached


def matrix_reachability(graph: SchemaGraph) -> list[list[bool]]:
    """Reflexive-transitive reachability over SubClassOf edges, by
    Floyd-Warshall on the full adjacency matrix."""
    n = graph.node_count
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for edge in graph.edges:
        if edge.kind is EdgeKind.SUBCLASS_OF:
            reach[edge.src][edge.dst] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i = reach[i]
                row_k = reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def matrix_closure(graph: SchemaGraph, node: int) -> set[int]:
    """Brute-force subclass closure: node itself plus everything that reaches
    it over SubClassOf edges."""
    reach = matrix_reachability(graph)
    return {i for i in range(graph.node_count) if reach[i][node]}


def naive_instances(hg2: HG2, class_iri: str) -> set[int]:
    """Enumerate every (hypernode, class) connector pair and keep the ones
    whose class reaches the queried class over SubClassOf edges."""
    class_node = hg2.g.find(class_iri)
    if class_node is None:
        return set()
    result: set[int] = set()
    for connector in hg2.connectors_v:
        seen = {connector.graph_node}
        stack = [connector.graph_node]
        while stack:
            current = stack.pop()
            for edge in hg2.g.edges:
                if edge.kind is EdgeKind.SUBCLASS_OF and edge.src == current and edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        if class_node in seen:
            result.add(connector.hypernode)
    return result


def naive_anchors(connectors: list[NodeConnector] | list[EdgeConnector], source: int) -> list[int]:
    """Graph nodes of the connectors leaving ``source``, by a scan of the
    whole connector list in insertion order."""
    return [
        c.graph_node
        for c in connectors
        if (c.hypernode if isinstance(c, NodeConnector) else c.hyperedge) == source
    ]


_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
_LITERAL_TEXTS = ("x", "hello world", 'quote " mark', "tab\tchar", "café 世界", "")
_SCHEMA_PREDICATES = (RDF_TYPE, RDFS_SUBCLASSOF, RDFS_DOMAIN, RDFS_RANGE)


def random_statement(rng: random.Random) -> Statement:
    def iri() -> IriRef:
        return IriRef(f"http://example.org/{rng.choice(_WORDS)}{rng.randrange(6)}")

    def blank() -> BlankLabel:
        return BlankLabel(f"b{rng.randrange(5)}")

    def literal() -> Literal:
        text = rng.choice(_LITERAL_TEXTS)
        roll = rng.random()
        if roll < 0.34:
            return Literal(text)
        if roll < 0.67:
            return Literal(text, language_tag=rng.choice(("en", "en-us", "de")))
        return Literal(text, datatype=iri())

    subject = iri() if rng.random() < 0.8 else blank()
    if rng.random() < 0.25:
        predicate = IriRef(rng.choice(_SCHEMA_PREDICATES))
    else:
        predicate = iri()
    roll = rng.random()
    if roll < 0.5:
        objekt: IriRef | BlankLabel | Literal = iri()
    elif roll < 0.65:
        objekt = blank()
    else:
        objekt = literal()
    return Statement(subject, predicate, objekt)


def random_document(rng: random.Random, max_statements: int = 18) -> list[Statement]:
    return [random_statement(rng) for _ in range(rng.randrange(0, max_statements))]


def random_document_text(rng: random.Random) -> str:
    lines: list[str] = []
    for statement in random_document(rng):
        if rng.random() < 0.1:
            lines.append("# interleaved comment")
        if rng.random() < 0.05:
            lines.append("")
        lines.append(format_statement(statement))
    return "".join(line + "\n" for line in lines)


def random_structure(rng: random.Random) -> HG2:
    """An arbitrary valid two-layer structure (not necessarily mapper-shaped)."""
    hg2 = HG2()
    node_count = rng.randrange(0, 12)
    for i in range(node_count):
        roll = rng.random()
        if roll < 0.40:
            payload: object = NodePayload.uri(f"http://example.org/n{i}")
        elif roll < 0.55:
            payload = NodePayload.blank(f"b{i}")
        elif roll < 0.70:
            payload = NodePayload.literal(f"v{i}")
        elif roll < 0.80:
            payload = NodePayload.literal(f"v{i}", language_tag="en")
        elif roll < 0.90:
            payload = NodePayload.literal(f"v{i}", datatype_iri="http://example.org/dt")
        else:
            payload = f"opaque-{i}"
        hg2.add_node(payload, intern=False)
    edge_count = rng.randrange(0, 8) if node_count else 0
    for _ in range(edge_count):
        head = [rng.randrange(node_count) for _ in range(rng.randrange(1, 3))]
        tail = [rng.randrange(node_count) for _ in range(rng.randrange(1, 4))]
        hg2.h.add_hyperedge(head, tail)
    graph_count = rng.randrange(0, 10)
    for i in range(graph_count):
        hg2.g.intern(f"urn:class:{i}")
    if graph_count:
        kinds = list(EdgeKind)
        for _ in range(rng.randrange(0, 12)):
            hg2.g.add_edge(rng.randrange(graph_count), rng.randrange(graph_count), rng.choice(kinds))
        for _ in range(rng.randrange(0, 6) if node_count else 0):
            hg2.add_connector(NodeConnector(rng.randrange(node_count), rng.randrange(graph_count)))
        for _ in range(rng.randrange(0, 6) if edge_count else 0):
            hg2.add_connector(EdgeConnector(rng.randrange(edge_count), rng.randrange(graph_count)))
    return hg2


def random_class_graph(rng: random.Random, max_nodes: int = 50) -> SchemaGraph:
    """Random SubClassOf graph, cycles included, with a little non-subclass noise."""
    graph = SchemaGraph()
    count = rng.randrange(1, max_nodes + 1)
    for i in range(count):
        graph.intern(f"urn:c{i}")
    for _ in range(rng.randrange(0, count * 2)):
        graph.add_edge(rng.randrange(count), rng.randrange(count), EdgeKind.SUBCLASS_OF)
    noise = (EdgeKind.TYPE, EdgeKind.DOMAIN, EdgeKind.RANGE)
    for _ in range(rng.randrange(0, 5)):
        graph.add_edge(rng.randrange(count), rng.randrange(count), rng.choice(noise))
    return graph


def canonical_form(hg2: HG2) -> tuple:
    """Id-free description of a structure, for isomorphism comparisons.

    Two structures built from the same statements in different orders must
    canonicalize identically; payload repr stands in for node identity.
    """
    payloads = [repr(payload) for payload in hg2.h.nodes]

    def edge_shape(edge_id: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        edge = hg2.h.edges[edge_id]
        return (
            tuple(payloads[n] for n in edge.head),
            tuple(payloads[n] for n in edge.tail),
        )

    return (
        tuple(sorted(payloads)),
        tuple(sorted(edge_shape(e.id) for e in hg2.h.edges)),
        tuple(sorted(hg2.g.iris)),
        tuple(
            sorted(
                (hg2.g.iri_of(e.src), hg2.g.iri_of(e.dst), e.kind.value) for e in hg2.g.edges
            )
        ),
        tuple(
            sorted(
                (payloads[c.hypernode], hg2.g.iri_of(c.graph_node)) for c in hg2.connectors_v
            )
        ),
        tuple(
            sorted(
                (edge_shape(c.hyperedge), hg2.g.iri_of(c.graph_node))
                for c in hg2.connectors_e
            )
        ),
    )


_DOT_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_DOT_QUOTED = r'"(?:[^"\\\n]|\\.)*"'
_DOT_VALUE = rf"(?:{_DOT_ID}|{_DOT_QUOTED})"
_DOT_ATTR = rf"{_DOT_ID}={_DOT_VALUE}"
_DOT_ATTRS = rf" \[{_DOT_ATTR}(?:, {_DOT_ATTR})*\]"
_DOT_LINE_PATTERNS = (
    re.compile(rf"subgraph {_DOT_ID} \{{"),
    re.compile(rf"{_DOT_ID}={_DOT_VALUE};"),
    re.compile(rf"{_DOT_ID}(?:{_DOT_ATTRS})?;"),
    re.compile(rf"{_DOT_ID} -> {_DOT_ID}(?:{_DOT_ATTRS})?;"),
)


def check_dot(text: str) -> list[str]:
    """Tiny DOT grammar checker; returns a list of problems (empty = valid).

    Covers the digraph subset the exporter can emit: nested subgraphs,
    attribute lines, node statements, and edge statements with optional
    attribute lists; quoted values may contain escaped characters.
    """
    problems: list[str] = []
    lines = text.splitlines()
    if not lines:
        return ["empty document"]
    if not re.fullmatch(rf"digraph {_DOT_ID} \{{", lines[0].strip()):
        problems.append(f"line 1: expected a digraph header, got {lines[0]!r}")
        return problems
    depth = 1
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if depth == 0:
            problems.append(f"line {line_no}: content after the closing brace")
            continue
        if line == "}":
            depth -= 1
            continue
        for pattern in _DOT_LINE_PATTERNS:
            if pattern.fullmatch(line):
                if line.endswith("{"):
                    depth += 1
                break
        else:
            problems.append(f"line {line_no}: unrecognized statement {line!r}")
    if depth != 0:
        problems.append(f"unbalanced braces: {depth} left open")
    return problems
