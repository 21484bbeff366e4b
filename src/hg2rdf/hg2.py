"""The two-layer container: hypergraph + schema graph + connector sets.

Connectors are directed dependency links and always point from the hypergraph
layer into the graph layer; the two dataclasses make the opposite direction
unrepresentable.  The container owns the hypernode payload index, one
insertion-ordered store per connector kind, and two node-connector indexes
(hypernode to graph nodes and its reverse); nothing else keeps identity state.

``serialize``/``deserialize`` round-trip the whole structure through a JSON
document with sections ``hypernodes``, ``hyperedges``, ``graph_nodes``,
``graph_edges``, ``connectors_v``, ``connectors_e``, and ``meta`` (format
version ``hg2/1``).  Ids are dense and first-seen ordered, so output is
deterministic for a given structure.

Hypernode payloads serialize in two shapes: :class:`NodePayload` instances,
the parser's RDF terms (kind ``uri``/``blank``/``literal``), write their
fields; anything else is written as kind ``opaque`` with its JSON value, so
payloads that are not JSON-representable (e.g. tuples) will not round-trip
identically.
"""
from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from .hypergraph import Freezable, Hypergraph, _check_ids
from .ntriples import NodePayload, PayloadKind
from .schema import EdgeKind, SchemaGraph

FORMAT_VERSION = "hg2/1"


class UnknownHyperNodeError(LookupError):
    pass


class UnknownHyperEdgeError(LookupError):
    pass


class UnknownGraphNodeError(LookupError):
    pass


class SerializationError(ValueError):
    """Base for everything deserialize can reject."""


class SchemaViolation(SerializationError):
    """Document structure does not match the hg2/1 layout."""


class UnknownKind(SerializationError):
    """A kind discriminator holds a value outside its vocabulary."""


@dataclass(frozen=True, slots=True)
class NodeConnector:
    """Dependency link from a hypernode to a graph node (c-v)."""

    hypernode: int
    graph_node: int


@dataclass(frozen=True, slots=True)
class EdgeConnector:
    """Dependency link from a hyperedge to a graph node (c-e)."""

    hyperedge: int
    graph_node: int


Connector = NodeConnector | EdgeConnector


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    node: int | None = None
    edge: int | None = None

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class HG2(Freezable):
    """A hypergraph H, a schema graph G, and the connector sets between them.

    ``node_index`` maps each hashable payload to its first hypernode; it is
    the only term identity table.  Each connector kind is stored once, as the
    keys of an insertion-ordered dict that is both the order ``serialize``
    and ``to_dot`` replay and the duplicate check; ``connectors_v`` and
    ``connectors_e`` expose it as read-only tuples.  Node connectors also
    fill hypernode → graph nodes (:meth:`anchors_of_node`) and its reverse
    (:meth:`nodes_anchored_in`).  Only :meth:`add_connector` writes these.
    """

    def __init__(self, g: SchemaGraph | None = None):
        self.h = Hypergraph()
        self.g = g if g is not None else SchemaGraph()
        self._connectors_v: dict[NodeConnector, None] = {}
        self._connectors_e: dict[EdgeConnector, None] = {}
        self._node_anchors: dict[int, list[int]] = {}
        self._anchored_nodes: dict[int, list[int]] = {}
        self.node_index: dict[Any, int] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HG2):
            return NotImplemented
        return (
            self.h == other.h
            and self.g == other.g
            and self.connectors_v == other.connectors_v
            and self.connectors_e == other.connectors_e
        )

    def freeze(self) -> None:
        """Make the structure read-only; queries remain safe for concurrent use."""
        super().freeze()
        self.h.freeze()
        self.g.freeze()

    def add_node(self, payload: Any, intern: bool = True) -> int:
        """Add a hypernode; with ``intern`` a repeated payload reuses its node."""
        if intern:
            existing = self.find_node(payload)
            if existing is not None:
                return existing
        self._check_mutable()
        node_id = self.h.add_node(payload)
        try:
            self.node_index.setdefault(payload, node_id)
        except TypeError:
            pass  # unhashable opaque payloads stay unindexed
        return node_id

    def find_node(self, payload: Any) -> int | None:
        """Node id of the first hypernode carrying ``payload``, if any."""
        try:
            return self.node_index.get(payload)
        except TypeError:
            return None

    def add_connector(self, connector: Connector) -> bool:
        """Record a connector of in-range int ids; False if it is a duplicate."""
        self._check_mutable()
        if isinstance(connector, NodeConnector):
            source, store = connector.hypernode, self._connectors_v
            _check_ids(source, connector.graph_node)
            if not 0 <= source < self.h.node_count:
                raise UnknownHyperNodeError(f"hypernode {source} does not exist")
        elif isinstance(connector, EdgeConnector):
            source, store = connector.hyperedge, self._connectors_e
            _check_ids(source, connector.graph_node)
            if not 0 <= source < self.h.edge_count:
                raise UnknownHyperEdgeError(f"hyperedge {source} does not exist")
        else:
            raise TypeError(f"not a connector: {connector!r}")
        if not 0 <= connector.graph_node < self.g.node_count:
            raise UnknownGraphNodeError(f"graph node {connector.graph_node} does not exist")
        if connector in store:
            return False
        store[connector] = None
        if store is self._connectors_v:
            self._node_anchors.setdefault(source, []).append(connector.graph_node)
            self._anchored_nodes.setdefault(connector.graph_node, []).append(source)
        return True

    @property
    def connectors_v(self) -> tuple[NodeConnector, ...]:
        """Node connectors (C_v) in insertion order."""
        return tuple(self._connectors_v)

    @property
    def connectors_e(self) -> tuple[EdgeConnector, ...]:
        """Edge connectors (C_e) in insertion order."""
        return tuple(self._connectors_e)

    @property
    def connector_count(self) -> int:
        return len(self._connectors_v) + len(self._connectors_e)

    def anchors_of_node(self, node: int) -> list[int]:
        """Graph nodes one connector hop away from a hypernode, in insertion order."""
        if not 0 <= node < self.h.node_count:
            raise UnknownHyperNodeError(f"hypernode {node} does not exist")
        return list(self._node_anchors.get(node, ()))

    def nodes_anchored_in(self, graph_nodes: Iterable[int]) -> set[int]:
        """Hypernodes with a node connector to any of the given graph nodes."""
        return {
            node
            for graph_node in graph_nodes
            for node in self._anchored_nodes.get(graph_node, ())
        }


def validate_layering(hg2: HG2) -> list[Violation]:
    """Check that every connector endpoint exists in its layer.

    Connectors originating in the graph layer cannot be represented at all,
    and ``add_connector`` range-checks every endpoint, so the only reportable
    defect is a dangling endpoint in a store filled around it.  Never
    mutates; violations are values.
    """
    violations: list[Violation] = []
    for connectors, layer, count in (
        (hg2.connectors_v, "hypernode", hg2.h.node_count),
        (hg2.connectors_e, "hyperedge", hg2.h.edge_count),
    ):
        for connector in connectors:
            source = getattr(connector, layer)
            if not 0 <= source < count:
                where = {"node": source} if layer == "hypernode" else {"edge": source}
                violations.append(Violation(
                    "DanglingEndpoint", f"connector references missing {layer} {source}", **where
                ))
            if not 0 <= connector.graph_node < hg2.g.node_count:
                violations.append(Violation(
                    "DanglingEndpoint",
                    f"connector references missing graph node {connector.graph_node}",
                    node=connector.graph_node,
                ))
    return violations


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


def serialize(hg2: HG2) -> str:
    """Render the structure as a deterministic, human-readable JSON document."""
    document = {
        "meta": {"format": FORMAT_VERSION},
        "hypernodes": [
            _payload_to_json(node_id, payload) for node_id, payload in enumerate(hg2.h.nodes)
        ],
        "hyperedges": [
            {"id": edge.id, "head": list(edge.head), "tail": list(edge.tail)}
            for edge in hg2.h.edges
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
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


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


def deserialize(text: str) -> HG2:
    """Rebuild an HG2 from its serialized document.

    Raises :class:`SchemaViolation` for structural problems (JSON nested
    past the parser's depth limit included) and :class:`UnknownKind` when a
    kind discriminator is out of vocabulary.  A non-int id, a repeated graph
    node IRI, graph edge or connector, and a string holding a lone surrogate
    (a ``\\uD800``..``\\uDFFF`` escape that is not half of a pair, which
    cannot be written as UTF-8) are each a :class:`SchemaViolation` too.
    """
    try:
        document = json.loads(text)
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
    for record in node_records:
        hg2.add_node(_payload_from_json(record), intern=False)

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
