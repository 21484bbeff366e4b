"""The two-layer container: hypergraph + schema graph + connector sets.

Connectors are directed dependency links and always point from the hypergraph
layer into the graph layer; the two dataclasses make the opposite direction
unrepresentable.  The container owns the hypernode payload index and the
per-source anchor index; nothing else keeps identity state.

``serialize``/``deserialize`` round-trip the whole structure through a JSON
document with sections ``hypernodes``, ``hyperedges``, ``graph_nodes``,
``graph_edges``, ``connectors_v``, ``connectors_e``, and ``meta`` (format
version ``hg2/1``).  Ids are dense and first-seen ordered, so output is
deterministic for a given structure.

Hypernode payloads serialize in two shapes: :class:`NodePayload` instances
carry an RDF term (kind ``uri``/``blank``/``literal``); anything else is
written as kind ``opaque`` with its JSON value, so payloads that are not
JSON-representable (e.g. tuples) will not round-trip identically.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .hypergraph import Hypergraph
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


class PayloadKind(Enum):
    URI = "uri"
    BLANK = "blank"
    LITERAL = "literal"


@dataclass(frozen=True)
class NodePayload:
    """RDF term data attached to a hypernode.

    Built through the :meth:`uri`/:meth:`blank`/:meth:`literal` factories,
    which populate exactly the fields of one kind.  Direct construction is
    unchecked so that loaded documents can be inspected by validators.
    """

    kind: PayloadKind
    iri: str | None = None
    blank_label: str | None = None
    lexical_form: str | None = None
    language_tag: str | None = None
    datatype_iri: str | None = None

    @classmethod
    def uri(cls, iri: str) -> NodePayload:
        return cls(PayloadKind.URI, iri=iri)

    @classmethod
    def blank(cls, label: str) -> NodePayload:
        return cls(PayloadKind.BLANK, blank_label=label)

    @classmethod
    def literal(
        cls,
        lexical_form: str,
        language_tag: str | None = None,
        datatype_iri: str | None = None,
    ) -> NodePayload:
        if language_tag is not None and datatype_iri is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")
        return cls(
            PayloadKind.LITERAL,
            lexical_form=lexical_form,
            language_tag=language_tag,
            datatype_iri=datatype_iri,
        )


@dataclass(frozen=True)
class NodeConnector:
    """Dependency link from a hypernode to a graph node (c-v)."""

    hypernode: int
    graph_node: int


@dataclass(frozen=True)
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


class HG2:
    """A hypergraph H, a schema graph G, and the connector sets between them.

    ``node_index`` maps each hashable payload to its first hypernode; it is
    the only term identity table.  Each connector source has an anchor list
    (graph nodes in insertion order) that deduplicates connectors and answers
    :meth:`anchors_of_node`/:meth:`anchors_of_edge` without a scan.
    """

    def __init__(self, g: SchemaGraph | None = None):
        self.h = Hypergraph()
        self.g = g if g is not None else SchemaGraph()
        self.connectors_v: list[NodeConnector] = []
        self.connectors_e: list[EdgeConnector] = []
        self._node_anchors: dict[int, list[int]] = {}
        self._edge_anchors: dict[int, list[int]] = {}
        self.node_index: dict[Any, int] = {}
        self.frozen = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HG2):
            return NotImplemented
        return (
            self.h == other.h
            and self.g == other.g
            and self.connectors_v == other.connectors_v
            and self.connectors_e == other.connectors_e
        )

    def _check_mutable(self) -> None:
        if self.frozen:
            raise RuntimeError("HG2 is frozen")

    def freeze(self) -> None:
        """Make the structure read-only; queries remain safe for concurrent use."""
        self.frozen = True
        self.h.freeze()
        self.g.freeze()

    def add_node(self, payload: Any, intern: bool = True) -> int:
        """Add a hypernode; with ``intern`` a repeated payload reuses its node."""
        if intern:
            existing = self.node_index.get(payload)
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
        """Record a connector; exact duplicates are dropped.  Returns True if new."""
        self._check_mutable()
        if isinstance(connector, NodeConnector):
            if not 0 <= connector.hypernode < self.h.node_count:
                raise UnknownHyperNodeError(connector.hypernode)
            source, index, connectors = connector.hypernode, self._node_anchors, self.connectors_v
        elif isinstance(connector, EdgeConnector):
            if not 0 <= connector.hyperedge < self.h.edge_count:
                raise UnknownHyperEdgeError(connector.hyperedge)
            source, index, connectors = connector.hyperedge, self._edge_anchors, self.connectors_e
        else:
            raise TypeError(f"not a connector: {connector!r}")
        if not 0 <= connector.graph_node < self.g.node_count:
            raise UnknownGraphNodeError(connector.graph_node)
        anchors = index.setdefault(source, [])
        if connector.graph_node in anchors:
            return False
        anchors.append(connector.graph_node)
        connectors.append(connector)
        return True

    @property
    def connector_count(self) -> int:
        return len(self.connectors_v) + len(self.connectors_e)

    def anchors_of_node(self, node: int) -> list[int]:
        """Graph nodes one connector hop away from a hypernode, in insertion order."""
        if not 0 <= node < self.h.node_count:
            raise UnknownHyperNodeError(node)
        return list(self._node_anchors.get(node, ()))

    def anchors_of_edge(self, edge: int) -> list[int]:
        """Graph nodes one connector hop away from a hyperedge, in insertion order."""
        if not 0 <= edge < self.h.edge_count:
            raise UnknownHyperEdgeError(edge)
        return list(self._edge_anchors.get(edge, ()))


def validate_layering(hg2: HG2) -> list[Violation]:
    """Check that every connector endpoint exists in its layer.

    Connectors originating in the graph layer cannot be represented at all,
    so the only reportable defect is a dangling endpoint (possible after
    loading a corrupted document).  Never mutates; violations are values.
    """
    violations: list[Violation] = []
    for connector in hg2.connectors_v:
        if not 0 <= connector.hypernode < hg2.h.node_count:
            violations.append(
                Violation(
                    "DanglingEndpoint",
                    f"connector references missing hypernode {connector.hypernode}",
                    node=connector.hypernode,
                )
            )
        if not 0 <= connector.graph_node < hg2.g.node_count:
            violations.append(
                Violation(
                    "DanglingEndpoint",
                    f"connector references missing graph node {connector.graph_node}",
                    node=connector.graph_node,
                )
            )
    for connector in hg2.connectors_e:
        if not 0 <= connector.hyperedge < hg2.h.edge_count:
            violations.append(
                Violation(
                    "DanglingEndpoint",
                    f"connector references missing hyperedge {connector.hyperedge}",
                    edge=connector.hyperedge,
                )
            )
        if not 0 <= connector.graph_node < hg2.g.node_count:
            violations.append(
                Violation(
                    "DanglingEndpoint",
                    f"connector references missing graph node {connector.graph_node}",
                    node=connector.graph_node,
                )
            )
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

    Raises :class:`SchemaViolation` for structural problems and
    :class:`UnknownKind` when a kind discriminator is out of vocabulary.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
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
            hg2.h.add_hyperedge(
                [_as_int(n, "hyperedge head entry") for n in head],
                [_as_int(n, "hyperedge tail entry") for n in tail],
            )
        except (LookupError, ValueError) as exc:
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
            hg2.g.add_edge(
                _as_int(record.get("from"), "graph edge 'from'"),
                _as_int(record.get("to"), "graph edge 'to'"),
                kind,
            )
        except LookupError as exc:
            raise SchemaViolation(f"graph edge {index} is malformed: {exc}") from exc

    for section, factory in (("connectors_v", NodeConnector), ("connectors_e", EdgeConnector)):
        for index, record in enumerate(_as_records(document, section)):
            connector = factory(
                _as_int(record.get("from"), f"{section} 'from'"),
                _as_int(record.get("to"), f"{section} 'to'"),
            )
            try:
                hg2.add_connector(connector)
            except LookupError as exc:
                raise SchemaViolation(f"{section} entry {index} is dangling: {exc}") from exc
    return hg2
