"""Independent oracles and corpus generators for the test suite.

Everything here is deliberately naive — fixpoint loops, matrix closure,
brute-force scans over whole edge lists — so that agreement with the library
is meaningful.  The generators take an explicit random.Random so corpora are
reproducible from a seed.
"""
from __future__ import annotations

import json
import math
import random
import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any

from hg2rdf import (
    ANCHOR_IRIS,
    FORMAT_VERSION,
    HG2,
    SCHEMA_PREDICATES,
    ConstraintWarning,
    EdgeConnector,
    EdgeKind,
    ErrorCode,
    Hypergraph,
    IntegrationReport,
    Layer,
    NodeConnector,
    NodePayload,
    ParseError,
    PayloadKind,
    SchemaGraph,
    SchemaViolation,
    Statement,
    UnknownKind,
    format_statement,
    generate_connectors,
    load_builtin_vocabulary,
    parse_line,
    route_statement,
    validate_mapping,
)
from hg2rdf.dot import _escape as _dot_escape
from hg2rdf.dot import _node_label as _dot_label
from hg2rdf.hypergraph import _check_id
from hg2rdf.ntriples import _BLANK_LABEL_RE, _LANG_TAG_RE, BadEscape, _blank, _Halt, _parse_line, _uri
from hg2rdf.schema import (
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
)


def scanner_parse_line(line: str, line_no: int = 1) -> Statement | ParseError:
    """parse_line by the character scanner alone, without the whole-line
    expression tried first."""
    try:
        return _parse_line(line, {})
    except _Halt as halt:
        return ParseError(line_no, halt.code, halt.message, halt.column)


# The character scanner as it was when it read term content one character at
# a time, with the \uXXXX rule written once for IRIs and once for literals.
# Its IRI escape errors have their own messages: "bad escape in IRI", and the
# surrogate message without "at offset N".

_LOOP_HEX_DIGITS = set("0123456789abcdefABCDEF")
_LOOP_WS = " \t\r"
_LOOP_SIMPLE_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}
_LOOP_SURROGATE_MESSAGE = "\\u escape names a surrogate code point"


def loop_unescape_literal(raw: str) -> str:
    """unescape_literal, one character at a time."""
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise BadEscape(i, "dangling backslash")
        esc = raw[i + 1]
        if esc in _LOOP_SIMPLE_ESCAPES:
            out.append(_LOOP_SIMPLE_ESCAPES[esc])
            i += 2
            continue
        if esc == "u":
            digits = raw[i + 2 : i + 6]
            if len(digits) < 4 or any(d not in _LOOP_HEX_DIGITS for d in digits):
                raise BadEscape(i, "\\u requires four hex digits")
            code_point = int(digits, 16)
            if 0xD800 <= code_point <= 0xDFFF:
                raise BadEscape(i, _LOOP_SURROGATE_MESSAGE)
            out.append(chr(code_point))
            i += 6
            continue
        raise BadEscape(i, f"undefined escape '\\{esc}'")
    return "".join(out)


class _LoopScanner:
    def __init__(self, line: str):
        self.line = line
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def peek(self) -> str:
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def skip_ws(self) -> int:
        start = self.pos
        while self.pos < len(self.line) and self.line[self.pos] in _LOOP_WS:
            self.pos += 1
        return self.pos - start

    def require_ws(self, after: str) -> None:
        if self.skip_ws() == 0 and self.pos < len(self.line):
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, f"whitespace required after {after}", self.pos + 1)

    def scan_iri(self) -> str:
        open_pos = self.pos
        self.pos += 1
        out: list[str] = []
        while True:
            if self.at_end():
                raise _Halt(ErrorCode.UNTERMINATED_IRI, "IRI not closed by '>'", open_pos + 1)
            ch = self.line[self.pos]
            if ch == ">":
                self.pos += 1
                break
            if ch in _LOOP_WS or ch == "<" or ord(ch) < 0x20:
                raise _Halt(ErrorCode.UNTERMINATED_IRI, "IRI interrupted before closing '>'", self.pos + 1)
            if ch == "\\":
                digits = self.line[self.pos + 2 : self.pos + 6]
                if self.line[self.pos + 1 : self.pos + 2] != "u" or len(digits) < 4 or any(
                    d not in _LOOP_HEX_DIGITS for d in digits
                ):
                    raise _Halt(ErrorCode.BAD_ESCAPE, "bad escape in IRI", self.pos + 1)
                code_point = int(digits, 16)
                if 0xD800 <= code_point <= 0xDFFF:
                    raise _Halt(ErrorCode.BAD_ESCAPE, _LOOP_SURROGATE_MESSAGE, self.pos + 1)
                out.append(chr(code_point))
                self.pos += 6
                continue
            out.append(ch)
            self.pos += 1
        value = "".join(out)
        if not value:
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "empty IRI", open_pos + 1)
        return value

    def scan_blank(self) -> str:
        start = self.pos
        if self.line[self.pos : self.pos + 2] != "_:":
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "'_' must introduce '_:label'", start + 1)
        match = _BLANK_LABEL_RE.match(self.line, self.pos + 2)
        if not match:
            raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "invalid blank node label", start + 1)
        self.pos = match.end()
        return match.group()

    def scan_literal(self) -> NodePayload:
        open_pos = self.pos
        self.pos += 1
        raw: list[str] = []
        while True:
            if self.at_end():
                raise _Halt(ErrorCode.UNTERMINATED_LITERAL, "literal not closed by '\"'", open_pos + 1)
            ch = self.line[self.pos]
            if ch == '"':
                self.pos += 1
                break
            if ch == "\\":
                raw.append(self.line[self.pos : self.pos + 2])
                self.pos += 2
                continue
            raw.append(ch)
            self.pos += 1
        try:
            lexical = loop_unescape_literal("".join(raw))
        except BadEscape as exc:
            raise _Halt(ErrorCode.BAD_ESCAPE, str(exc), open_pos + 2 + exc.offset) from exc
        if self.peek() == "@":
            tag_pos = self.pos
            match = _LANG_TAG_RE.match(self.line, self.pos + 1)
            if not match:
                raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "malformed language tag", tag_pos + 1)
            self.pos = match.end()
            return NodePayload.literal(lexical, language_tag=match.group().lower())
        if self.peek() == "^":
            caret_pos = self.pos
            if self.line[self.pos : self.pos + 2] != "^^":
                raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "datatype requires '^^'", caret_pos + 1)
            self.pos += 2
            if self.peek() != "<":
                raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "datatype requires an IRI", self.pos + 1)
            return NodePayload.literal(lexical, datatype_iri=self.scan_iri())
        return NodePayload.literal(lexical)


def _loop_parse_line(line: str, terms: dict) -> Statement:
    surrogate = _SURROGATE_RE.search(line)
    if surrogate is not None:
        message = f"not valid UTF-8: lone surrogate U+{ord(surrogate[0]):04X}"
        raise _Halt(ErrorCode.INVALID_ENCODING, message, surrogate.start() + 1)
    scanner = _LoopScanner(line)
    scanner.skip_ws()

    ch = scanner.peek()
    if ch == "<":
        subject = _uri(terms, scanner.scan_iri())
    elif ch == "_":
        subject = _blank(terms, scanner.scan_blank())
    elif ch == '"':
        raise _Halt(ErrorCode.LITERAL_AS_SUBJECT, "a literal is not allowed as subject", scanner.pos + 1)
    else:
        raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "expected a subject term", scanner.pos + 1)
    scanner.require_ws("subject")

    ch = scanner.peek()
    if ch == "<":
        predicate = _uri(terms, scanner.scan_iri())
    elif ch == "_":
        raise _Halt(ErrorCode.BLANK_AS_PREDICATE, "a blank node is not allowed as predicate", scanner.pos + 1)
    else:
        raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "expected an IRI predicate", scanner.pos + 1)
    scanner.require_ws("predicate")

    ch = scanner.peek()
    if ch == "<":
        obj = _uri(terms, scanner.scan_iri())
    elif ch == "_":
        obj = _blank(terms, scanner.scan_blank())
    elif ch == '"':
        obj = scanner.scan_literal()
    elif ch == "." or scanner.at_end():
        raise _Halt(ErrorCode.MISSING_OBJECT, "statement has no object term", scanner.pos + 1)
    else:
        raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "expected an object term", scanner.pos + 1)

    scanner.skip_ws()
    if scanner.peek() != ".":
        raise _Halt(ErrorCode.MISSING_TERMINAL_DOT, "statement must end with '.'", scanner.pos + 1)
    scanner.pos += 1
    scanner.skip_ws()
    if not scanner.at_end():
        raise _Halt(ErrorCode.UNEXPECTED_TOKEN, "unexpected text after terminating '.'", scanner.pos + 1)
    return Statement(subject, predicate, obj)


def loop_scanner_parse_line(line: str, line_no: int = 1) -> Statement | ParseError:
    """parse_line by the character-loop scanner alone."""
    try:
        return _loop_parse_line(line, {})
    except _Halt as halt:
        return ParseError(line_no, halt.code, halt.message, halt.column)


_REVERSE_ESCAPES = {"\n": "\\n", "\r": "\\r", "\t": "\\t", '"': '\\"', "\\": "\\\\"}


def loop_escape_literal(text: str) -> str:
    """A literal's lexical form as format_term wrote it, one character at a
    time, before the escaping became a translation table."""
    out: list[str] = []
    for ch in text:
        if ch in _REVERSE_ESCAPES:
            out.append(_REVERSE_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def loop_escape_iri(text: str) -> str:
    """An IRI as format_term wrote it, one character at a time."""
    out: list[str] = []
    for ch in text:
        if ch in "<>\\" or ord(ch) <= 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


# The term and the connector store as they were before both became tuples:
# a frozen slotted dataclass, whose kind hashed through Enum.__hash__, and one
# insertion-ordered dict per connector kind keyed by the connector dataclasses.

_EnumHashedKind = Enum("_EnumHashedKind", {kind.name: kind.value for kind in PayloadKind})


@dataclass(frozen=True, slots=True)
class DataclassPayload:
    """A NodePayload's fields as the frozen dataclass term held them."""

    kind: _EnumHashedKind
    iri: str | None = None
    blank_label: str | None = None
    lexical_form: str | None = None
    language_tag: str | None = None
    datatype_iri: str | None = None

    @classmethod
    def of(cls, term: NodePayload) -> DataclassPayload:
        return cls(_EnumHashedKind[term.kind.name], *term[1:])


class DataclassConnectorStore:
    """HG2's connector stores keyed by the connector dataclasses; ids are
    taken as valid, so only the duplicate check and the order are modelled."""

    def __init__(self) -> None:
        self._stores: dict[type, dict[Any, None]] = {NodeConnector: {}, EdgeConnector: {}}

    def add_connector(self, connector: NodeConnector | EdgeConnector) -> bool:
        store = self._stores[type(connector)]
        if connector in store:
            return False
        store[connector] = None
        return True

    @property
    def connectors_v(self) -> tuple[NodeConnector, ...]:
        return tuple(self._stores[NodeConnector])

    @property
    def connectors_e(self) -> tuple[EdgeConnector, ...]:
        return tuple(self._stores[EdgeConnector])


# statement_of as it was before it read the placement rules of
# validate_mapping: its own term test and its own subject and predicate checks.

_REQUIRED_FIELD = {
    PayloadKind.URI: "iri",
    PayloadKind.BLANK: "blank_label",
    PayloadKind.LITERAL: "lexical_form",
}


def _is_term(payload: object) -> bool:
    """Whether a payload is a complete RDF term: a NodePayload carrying the
    field its kind requires, and not a literal with both a tag and a datatype."""
    if not isinstance(payload, NodePayload):
        return False
    if getattr(payload, _REQUIRED_FIELD[payload.kind]) is None:
        return False
    return not (
        payload.kind is PayloadKind.LITERAL
        and payload.language_tag is not None
        and payload.datatype_iri is not None
    )


def oracle_statement_of(hg2: HG2, edge_id: int) -> Statement | None:
    """The statement a hyperedge encodes, or None for an absent edge id, wrong
    arity, an opaque or incomplete payload, a literal with both a language
    tag and a datatype, a literal subject or a non-IRI predicate."""
    _check_id(edge_id)
    if not 0 <= edge_id < hg2.h.edge_count:
        return None
    edge = hg2.h.edges[edge_id]
    if len(edge.head) != 1 or len(edge.tail) != 2:
        return None
    payloads = [hg2.h.nodes[n] for n in (edge.tail[0], edge.head[0], edge.tail[1])]
    if not all(_is_term(p) for p in payloads):
        return None
    subject, predicate, objekt = payloads
    if subject.kind is PayloadKind.LITERAL or predicate.kind is not PayloadKind.URI:
        return None
    return Statement(subject, predicate, objekt)


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


def naive_path(hypergraph: Hypergraph, start: int, target: int) -> tuple[int, ...] | None:
    """Breadth-first witness: each dequeued node scans every edge in id order
    for edges it heads; ``()`` for start == target, None when unreachable."""
    if start == target:
        return ()
    parents: dict[int, tuple[int, int]] = {}
    seen = {start}
    queue = [start]
    for current in queue:
        for edge_id, edge in enumerate(hypergraph.edges):
            if current not in edge.head:
                continue
            for node in edge.tail:
                if node not in seen:
                    seen.add(node)
                    parents[node] = (edge_id, current)
                    queue.append(node)
    if target not in parents:
        return None
    path: list[int] = []
    while target != start:
        edge_id, target = parents[target]
        path.append(edge_id)
    return tuple(reversed(path))


def head_list_search(
    hypergraph: Hypergraph, start: int, target: int | None = None
) -> dict[int, tuple[int, int]]:
    """The firing search as it was before forward stars: each node lists the
    ids of the edges it heads, every repeat of a tail is visited, and each
    reached node maps to the (edge, node) that reached it first."""
    heads: list[list[int]] = [[] for _ in hypergraph.nodes]
    for edge_id, edge in enumerate(hypergraph.edges):
        for node in set(edge.head):
            heads[node].append(edge_id)
    reached: dict[int, tuple[int, int]] = {}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for edge_id in heads[node]:
            for tail_node in hypergraph.edges[edge_id].tail:
                if tail_node not in reached:
                    reached[tail_node] = (edge_id, node)
                    if tail_node == target:
                        return reached
                    queue.append(tail_node)
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


def naive_anchors(connectors: tuple[NodeConnector, ...], node: int) -> list[int]:
    """Graph nodes of the connectors leaving hypernode ``node``, by a scan of
    the whole connector sequence in insertion order."""
    return [c.graph_node for c in connectors if c.hypernode == node]


def naive_generate_connectors(hg2: HG2) -> None:
    """generate_connectors offering each connector at every occurrence: one
    ``add_connector`` call per hyperedge and per head or tail slot, in edge
    order, then the datatype and typing connectors per node, leaving the
    deduplication to ``add_connector``."""
    anchors = {iri: hg2.g.find(iri) for iri in ANCHOR_IRIS}
    for edge_id, edge in enumerate(hg2.h.edges):
        hg2.add_connector(EdgeConnector(edge_id, anchors[RDF_STATEMENT]))
        for node in edge.head:
            hg2.add_connector(NodeConnector(node, anchors[RDF_PREDICATE]))
        for position, node in enumerate(edge.tail):
            if position == 0:
                hg2.add_connector(NodeConnector(node, anchors[RDF_SUBJECT]))
            elif position == 1:
                hg2.add_connector(NodeConnector(node, anchors[RDF_OBJECT]))

    class_nodes: dict[int, list[int]] = {}
    for graph_edge in hg2.g.edges:
        if graph_edge.kind is EdgeKind.TYPE:
            class_nodes.setdefault(graph_edge.src, []).append(graph_edge.dst)

    for node_id, payload in enumerate(hg2.h.nodes):
        if not isinstance(payload, NodePayload):
            continue
        if payload.kind is PayloadKind.LITERAL and payload.datatype_iri is not None:
            hg2.add_connector(NodeConnector(node_id, anchors[RDF_DATATYPE]))
        elif payload.kind is PayloadKind.URI and payload.iri is not None:
            graph_node = hg2.g.find(payload.iri)
            if graph_node is not None:
                for class_node in class_nodes.get(graph_node, ()):
                    hg2.add_connector(NodeConnector(node_id, class_node))


def scan_instances(hg2: HG2, class_iri: str) -> tuple[int, ...]:
    """instances_of by a scan of every node connector against the class's
    subclass closure, sorted."""
    class_node = hg2.g.find(class_iri)
    if class_node is None:
        return ()
    closure = hg2.g.subclass_closure(class_node)
    return tuple(sorted({c.hypernode for c in hg2.connectors_v if c.graph_node in closure}))


def naive_constraint_of(graph: SchemaGraph, node: int, kind: EdgeKind) -> int | None:
    """Target of the first ``kind`` edge out of ``node``, by a scan of every
    graph edge in insertion order."""
    for edge in graph.edges:
        if edge.src == node and edge.kind is kind:
            return edge.dst
    return None


def naive_check_domain_range(hg2: HG2) -> list[ConstraintWarning]:
    """check_domain_range with an edge scan per constraint lookup and a fresh
    subclass closure per hyperedge."""

    def typed_within(node: int, class_node: int) -> bool:
        closure = hg2.g.subclass_closure(class_node)
        return any(anchor in closure for anchor in hg2.anchors_of_node(node))

    warnings: list[ConstraintWarning] = []
    literal_class = hg2.g.find(RDFS_LITERAL)
    for edge in hg2.h.edges:
        if len(edge.head) != 1 or len(edge.tail) != 2:
            continue
        head_payload = hg2.h.nodes[edge.head[0]]
        if (
            not isinstance(head_payload, NodePayload)
            or head_payload.kind is not PayloadKind.URI
            or head_payload.iri is None
        ):
            continue
        predicate_node = hg2.g.find(head_payload.iri)
        if predicate_node is None:
            continue

        domain = naive_constraint_of(hg2.g, predicate_node, EdgeKind.DOMAIN)
        if domain is not None and not typed_within(edge.tail[0], domain):
            warnings.append(
                ConstraintWarning(
                    "DomainUnsatisfied", edge.tail[0], head_payload.iri, hg2.g.iri_of(domain)
                )
            )

        range_class = naive_constraint_of(hg2.g, predicate_node, EdgeKind.RANGE)
        if range_class is not None:
            object_node = edge.tail[1]
            object_payload = hg2.h.nodes[object_node]
            if isinstance(object_payload, NodePayload) and object_payload.kind is PayloadKind.LITERAL:
                satisfied = (
                    literal_class is not None
                    and literal_class in hg2.g.subclass_closure(range_class)
                )
            else:
                satisfied = typed_within(object_node, range_class)
            if not satisfied:
                warnings.append(
                    ConstraintWarning(
                        "RangeUnsatisfied", object_node, head_payload.iri, hg2.g.iri_of(range_class)
                    )
                )
    return warnings


# The write path as it was before each statement was mapped in one pass:
# the parser makes a fresh term per occurrence, integrate maps through the
# checked public mutators, and check_domain_range resolves the predicate of
# every hyperedge anew.

def oracle_parse_document(text: str | bytes) -> tuple[list[Statement], list[ParseError]]:
    """parse_document as one ``parse_line`` call per line, with no term
    shared between lines."""
    if isinstance(text, (bytes, bytearray)):
        data = bytes(text)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            line_no = prefix.count(b"\n") + 1
            return [], [
                ParseError(line_no, ErrorCode.INVALID_ENCODING, f"not valid UTF-8: {exc.reason}")
            ]
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    statements: list[Statement] = []
    errors: list[ParseError] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip(" \t\r")
        if not stripped or stripped.startswith("#"):
            continue
        result = parse_line(line, line_no)
        if isinstance(result, Statement):
            statements.append(result)
        else:
            errors.append(result)
    return statements, errors


def oracle_integrate(statements: list[Statement]) -> tuple[HG2, IntegrationReport]:
    """integrate with each distinct statement mapped through the checked
    mutators: ``add_node`` per term and ``add_hyperedge``, or ``intern`` per
    endpoint and ``add_edge``."""
    hg2 = HG2(g=load_builtin_vocabulary())
    report = IntegrationReport(statements_in=len(statements))
    for statement in dict.fromkeys(statements):
        if route_statement(statement) is Layer.SCHEMA:
            kind = SCHEMA_PREDICATES[statement.predicate.iri]
            src = hg2.g.intern(statement.subject.iri)
            dst = hg2.g.intern(statement.object.iri)
            if hg2.g.add_edge(src, dst, kind):
                report.schema_edges_created += 1
        else:
            subject = hg2.h.add_node(statement.subject)
            predicate = hg2.h.add_node(statement.predicate)
            objekt = hg2.h.add_node(statement.object)
            hg2.h.add_hyperedge([predicate], [subject, objekt])
    report.hyperedges_created = hg2.h.edge_count
    generate_connectors(hg2)
    report.connectors_v = len(hg2._connectors_v)
    report.connectors_e = len(hg2._connectors_e)
    report.warnings.extend(str(violation) for violation in validate_mapping(hg2))
    hg2.freeze()
    return hg2, report


def oracle_check_domain_range(hg2: HG2) -> list[ConstraintWarning]:
    """check_domain_range with the head's IRI, graph node, domain and range
    looked up for every hyperedge (closures are still kept per call)."""
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

    for edge in hg2.h.edges:
        if len(edge.head) != 1 or len(edge.tail) != 2:
            continue
        head_payload = hg2.h.nodes[edge.head[0]]
        if (
            not isinstance(head_payload, NodePayload)
            or head_payload.kind is not PayloadKind.URI
            or head_payload.iri is None
        ):
            continue
        predicate_node = hg2.g.find(head_payload.iri)
        if predicate_node is None:
            continue

        domain = hg2.g.constraint_of(predicate_node, EdgeKind.DOMAIN)
        if domain is not None and not typed_within(edge.tail[0], domain):
            warnings.append(
                ConstraintWarning(
                    "DomainUnsatisfied", edge.tail[0], head_payload.iri, hg2.g.iri_of(domain)
                )
            )

        range_class = hg2.g.constraint_of(predicate_node, EdgeKind.RANGE)
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
                        "RangeUnsatisfied", object_node, head_payload.iri, hg2.g.iri_of(range_class)
                    )
                )
    return warnings


_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
_LITERAL_TEXTS = ("x", "hello world", 'quote " mark', "tab\tchar", "café 世界", "")
_SCHEMA_PREDICATES = (RDF_TYPE, RDFS_SUBCLASSOF, RDFS_DOMAIN, RDFS_RANGE)


def random_statement(rng: random.Random) -> Statement:
    def iri() -> NodePayload:
        return NodePayload.uri(f"http://example.org/{rng.choice(_WORDS)}{rng.randrange(6)}")

    def blank() -> NodePayload:
        return NodePayload.blank(f"b{rng.randrange(5)}")

    def literal() -> NodePayload:
        text = rng.choice(_LITERAL_TEXTS)
        roll = rng.random()
        if roll < 0.34:
            return NodePayload.literal(text)
        if roll < 0.67:
            return NodePayload.literal(text, language_tag=rng.choice(("en", "en-us", "de")))
        return NodePayload.literal(text, datatype_iri=iri().iri)

    subject = iri() if rng.random() < 0.8 else blank()
    if rng.random() < 0.25:
        predicate = NodePayload.uri(rng.choice(_SCHEMA_PREDICATES))
    else:
        predicate = iri()
    roll = rng.random()
    if roll < 0.5:
        objekt = iri()
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
        hg2.h._append_node(payload)
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
        tuple(sorted(edge_shape(e) for e in range(hg2.h.edge_count))),
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


def oracle_to_dot(hg2: HG2) -> str:
    """The DOT text as ``to_dot`` wrote it before it streamed: every line
    collected in one list, then joined."""
    lines = ["digraph hg2 {", "  rankdir=LR;"]
    lines.append("  subgraph cluster_hypergraph {")
    lines.append('    label="hypergraph layer";')
    for node_id, payload in enumerate(hg2.h.nodes):
        lines.append(f'    h{node_id} [label="{_dot_escape(_dot_label(payload))}"];')
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
        lines.append(f'    g{node_id} [label="{_dot_escape(iri)}"];')
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


def assert_same_indexes(a: HG2, b: HG2) -> None:
    """Every identity table and index of two structures agrees, key order
    included; ``HG2.__eq__`` compares only what ``serialize`` writes."""
    assert list(a.h._index.items()) == list(b.h._index.items())
    assert a.h._incidence == b.h._incidence
    assert [list(f.items()) for f in a.h._forward] == [list(f.items()) for f in b.h._forward]
    assert list(a._node_anchors.items()) == list(b._node_anchors.items())
    assert list(a._anchored_nodes.items()) == list(b._anchored_nodes.items())
    assert list(a.g._ids.items()) == list(b.g._ids.items())
    assert list(a.g.edges) == list(b.g.edges)
    assert list(a.g._subclass_children.items()) == list(b.g._subclass_children.items())
    assert list(a.g._constraints.items()) == list(b.g._constraints.items())


# The hg2/1 reader and writer as they were before they were rewritten for
# speed: the writer builds the whole document and hands it to json.dumps, and
# the reader adds every record through the checked public mutators.  The only
# changes are that both refuse non-finite floats, and the reader refuses an
# RDF term listed as two hypernodes.

_PAYLOAD_FIELDS = ("iri", "blank_label", "lexical_form", "language_tag", "datatype_iri")


def _payload_to_json(node_id: int, payload: Any) -> dict[str, Any]:
    if isinstance(payload, NodePayload):
        record: dict[str, Any] = {"id": node_id, "kind": payload.kind.value}
        for name in _PAYLOAD_FIELDS:
            value = getattr(payload, name)
            if value is not None:
                record[name] = value
        return record
    return {"id": node_id, "kind": "opaque", "value": payload}


def oracle_serialize(hg2: HG2) -> str:
    """Render the structure as a deterministic, human-readable JSON document."""
    document = {
        "meta": {"format": FORMAT_VERSION},
        "hypernodes": [
            _payload_to_json(node_id, payload) for node_id, payload in enumerate(hg2.h.nodes)
        ],
        "hyperedges": [
            {"id": edge_id, "head": list(edge.head), "tail": list(edge.tail)}
            for edge_id, edge in enumerate(hg2.h.edges)
        ],
        "graph_nodes": [{"id": node_id, "iri": iri} for node_id, iri in enumerate(hg2.g.iris)],
        "graph_edges": [
            {"from": edge.src, "to": edge.dst, "kind": edge.kind.value} for edge in hg2.g.edges
        ],
        "connectors_v": [
            {"from": c.hypernode, "to": c.graph_node} for c in hg2.connectors_v
        ],
        "connectors_e": [
            {"from": c.hyperedge, "to": c.graph_node} for c in hg2.connectors_e
        ],
    }
    return json.dumps(document, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


# A JSON escape of a code point in U+D800..U+DFFF.  Valid pairs decode to one
# character, so only a document that has such an escape can hold a lone one.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _holds_surrogate(value: Any) -> bool:
    """Whether any string in a decoded JSON value, keys included, holds a
    surrogate code point; iterative, so nesting depth costs no stack."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            if _SURROGATE_RE.search(item):
                return True
        elif isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return False


def _reject_constant(name: str) -> float:
    raise SchemaViolation(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise SchemaViolation(f"number {text} overflows a float")
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaViolation(message)


def _as_int(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaViolation(f"{context} must be an integer, got {value!r}")
    return value


def _as_records(document: dict[str, Any], section: str) -> list[dict[str, Any]]:
    _require(section in document, f"missing section '{section}'")
    records = document[section]
    _require(isinstance(records, list), f"section '{section}' must be a list")
    for record in records:
        _require(isinstance(record, dict), f"entries of '{section}' must be objects")
    return records


def _check_dense_ids(records: list[dict[str, Any]], section: str) -> None:
    for index, record in enumerate(records):
        _require("id" in record, f"entry {index} of '{section}' has no id")
        if _as_int(record["id"], f"{section} id") != index:
            raise SchemaViolation(f"ids in '{section}' must be dense and ordered")


def _payload_from_json(record: dict[str, Any]) -> Any:
    kind = record.get("kind")
    if kind == "opaque":
        _require("value" in record, "opaque hypernode has no value")
        return record["value"]
    try:
        payload_kind = PayloadKind(kind)
    except ValueError:
        raise UnknownKind(f"unknown hypernode kind {kind!r}") from None
    fields = {}
    for name in _PAYLOAD_FIELDS:
        value = record.get(name)
        if value is not None:
            _require(isinstance(value, str), f"hypernode field '{name}' must be a string")
        fields[name] = value
    return NodePayload(payload_kind, **fields)


def oracle_deserialize(text: str) -> HG2:
    """Rebuild an HG2 from its serialized document, one checked record at a time."""
    try:
        document = json.loads(text, parse_float=_finite_float, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaViolation("JSON nesting exceeds the parser's depth limit") from None
    if _SURROGATE_ESCAPE_RE.search(text) and _holds_surrogate(document):
        raise SchemaViolation("a string holds a lone surrogate code point")
    _require(isinstance(document, dict), "document root must be an object")
    meta = document.get("meta")
    _require(isinstance(meta, dict), "missing 'meta' section")
    _require(meta.get("format") == FORMAT_VERSION, f"unsupported format {meta.get('format')!r}")

    hg2 = HG2()
    node_records = _as_records(document, "hypernodes")
    _check_dense_ids(node_records, "hypernodes")
    first_node: dict[NodePayload, int] = {}
    repeats: list[tuple[int, int]] = []
    for node_id, record in enumerate(node_records):
        payload = _payload_from_json(record)
        hg2.h._append_node(payload)
        if isinstance(payload, NodePayload):
            if payload in first_node:
                repeats.append((first_node[payload], node_id))
            else:
                first_node[payload] = node_id
    if repeats:
        first, second = repeats[0]
        raise SchemaViolation(f"hypernodes {first} and {second} carry the same term")

    edge_records = _as_records(document, "hyperedges")
    _check_dense_ids(edge_records, "hyperedges")
    for index, record in enumerate(edge_records):
        head = record.get("head")
        tail = record.get("tail")
        _require(isinstance(head, list) and isinstance(tail, list),
                 f"hyperedge {index} needs 'head' and 'tail' lists")
        try:
            hg2.h.add_hyperedge(head, tail)
        except (LookupError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"hyperedge {index} is malformed: {exc}") from exc

    graph_node_records = _as_records(document, "graph_nodes")
    _check_dense_ids(graph_node_records, "graph_nodes")
    for index, record in enumerate(graph_node_records):
        iri = record.get("iri")
        _require(isinstance(iri, str), f"graph node {index} needs a string iri")
        if hg2.g.intern(iri) != index:
            raise SchemaViolation(f"duplicate graph node iri {iri!r}")

    for index, record in enumerate(_as_records(document, "graph_edges")):
        try:
            kind = EdgeKind(record.get("kind"))
        except ValueError:
            raise UnknownKind(f"unknown graph edge kind {record.get('kind')!r}") from None
        try:
            added = hg2.g.add_edge(record.get("from"), record.get("to"), kind)
        except (LookupError, TypeError) as exc:
            raise SchemaViolation(f"graph edge {index} is malformed: {exc}") from exc
        _require(added, f"graph_edges entry {index} is a duplicate")

    for section, factory in (("connectors_v", NodeConnector), ("connectors_e", EdgeConnector)):
        for index, record in enumerate(_as_records(document, section)):
            try:
                added = hg2.add_connector(factory(record.get("from"), record.get("to")))
            except (LookupError, TypeError) as exc:
                raise SchemaViolation(f"{section} entry {index} is malformed or dangling: {exc}") from exc
            _require(added, f"{section} entry {index} is a duplicate")
    return hg2
