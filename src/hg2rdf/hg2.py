"""The two-layer container: hypergraph + schema graph + connector sets.

Connectors are directed dependency links and always point from the hypergraph
layer into the graph layer; their two kinds, :class:`NodeConnector` and
:class:`EdgeConnector`, make the opposite direction unrepresentable.  The two
dataclasses are the kind tokens ``HG2.add_connector(source, graph_node,
kind)`` takes and the records of the read views; the write path builds none.
Each layer interns its own nodes (hypernode payloads in
:class:`Hypergraph`, IRIs in :class:`SchemaGraph`); the container owns only
what crosses the layers: one insertion-ordered store of ``(source, graph
node)`` int pairs per connector kind, and two node-connector indexes
(hypernode to graph nodes and its reverse).

``serialize``/``deserialize`` round-trip the whole structure through a JSON
document with sections ``hypernodes``, ``hyperedges``, ``graph_nodes``,
``graph_edges``, ``connectors_v``, ``connectors_e``, and ``meta`` (format
version ``hg2/1``).  Ids are dense and first-seen ordered, so output is
deterministic for a given structure.

Hypernode payloads serialize in two shapes, told apart by the parser's
``_term_kind``: RDF terms (kind ``uri``/``blank``/``literal``) write their
kind and the string fields of that kind (the parser's ``_KIND_FIELDS``), and
the loader builds them back positionally; any other payload is written as
kind ``opaque`` with its JSON value, so payloads that are not
JSON-representable (e.g. tuples) will not round-trip identically.  A
malformed term is refused both ways with the message of the parser's one
term rule, ``_term_problem`` (a ``ValueError`` from ``serialize``, for the
first hypernode the node writer filed as malformed and before any text is
written, a :class:`SchemaViolation` from ``deserialize``), so that one term
cannot load as two nodes.  ``deserialize`` does not judge the terms it
decodes: the node writer judges the section once, as it judges every
section, and a verdict it files sends the first malformed record through
the per-record decoder, which raises the rule's message.
``_RECORD_KEYS`` lists the keys each section's records may hold, ``meta``
included; any other key is refused.  A non-finite float cannot be written
(``NaN`` and ``Infinity`` are not JSON, so other platforms could not read
the document), and ``deserialize`` refuses those tokens and, through the
parser's ``_SURROGATE_RE``, lone surrogates.

``serialize`` writes each record from a fixed template (one ``%`` template
per hyperedge shape ``(len(head), len(tail))``, made when the shape is first
met, and one for a connector), with the string escaper of :mod:`json`, and
gives the bytes ``json.dumps(..., indent=2)`` gives.  It
returns the document as a string, or writes it to a text handle
in chunks as the records are made, so that a large document is never held
whole.  ``deserialize`` checks every section whole, the ids, slots,
endpoints and duplicates of its records in one pass each, before it stores
any record of it, and then appends the section in one call to the private
writer that the public mutators end in: ``Hypergraph._append_nodes`` and
``_append_edges`` (the only writers of hypernodes, hyperedges and their
per-node indexes), ``SchemaGraph._append_nodes`` and ``_append_edges`` (the
same for graph nodes and graph edges) and ``_append_connectors``, so no
section loads record by record.  Hypernodes are decoded one field at a
time across the section.  A section that fails the check goes through the
record-by-record decoder or the checked mutators (``intern``, ``add_edge``,
``add_connector`` with the record's ids and the section's kind), so a bad
record raises the exception class and message they give.
``_all_ids`` is the id rule of ``_check_index`` over a whole section.
"""
from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice, repeat, starmap
from json.encoder import encode_basestring as _quote
from typing import Any, NamedTuple, TextIO

from .hypergraph import Freezable, HyperEdge, Hypergraph, _check_index
from .ntriples import _BOM, _KIND_FIELDS, _PAYLOAD_FIELDS, _SURROGATE_RE, NodePayload, PayloadKind
from .ntriples import _term_kind, _term_problem
from .schema import EdgeKind, GraphEdge, SchemaGraph

FORMAT_VERSION = "hg2/1"


class UnknownHyperEdgeError(LookupError):
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


class Violation(NamedTuple):
    kind: str
    message: str
    node: int | None = None
    edge: int | None = None

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class HG2(Freezable):
    """A hypergraph H, a schema graph G, and the connector sets between them.

    Nodes are added and found through the layers (``h.add_node``/``h.find``,
    ``g.intern``/``g.find``).  Each connector kind is stored once, as the
    ``(source, graph node)`` int pairs keyed in an insertion-ordered dict
    that is both the order ``serialize`` and ``to_dot`` replay and the
    duplicate check; the pairs hash in C and the collector does not track
    them.  :meth:`add_connector` takes the two ids and the connector class
    as the kind, as ``SchemaGraph.add_edge`` takes its edge kind, and builds
    no record; ``connectors_v`` and ``connectors_e`` build read-only tuples
    of the connector dataclasses when called.  Node connectors also fill
    hypernode → graph nodes (:meth:`anchors_of_node`) and its reverse
    (:meth:`nodes_anchored_in`).  Only ``_append_connectors``, behind
    :meth:`add_connector` and ``deserialize``, writes these.
    """

    def __init__(self, g: SchemaGraph | None = None):
        self.h = Hypergraph()
        self.g = g if g is not None else SchemaGraph()
        self._connectors_v: dict[tuple[int, int], None] = {}
        self._connectors_e: dict[tuple[int, int], None] = {}
        self._node_anchors: dict[int, list[int]] = {}
        self._anchored_nodes: dict[int, list[int]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HG2):
            return NotImplemented
        return (
            self.h == other.h
            and self.g == other.g
            and list(self._connectors_v) == list(other._connectors_v)
            and list(self._connectors_e) == list(other._connectors_e)
        )

    def freeze(self) -> None:
        """Make the structure read-only, both layers' containers included;
        queries remain safe for concurrent use."""
        super().freeze()
        self.h.freeze()
        self.g.freeze()

    def add_connector(self, source: int, graph_node: int, kind: type[Connector]) -> bool:
        """Record a connector of ``kind`` (:class:`NodeConnector` or
        :class:`EdgeConnector`) from hypernode or hyperedge ``source`` to
        ``graph_node``, both in-range int ids; False if it is a duplicate.
        Each id is checked by one direct ``_check_index`` call."""
        if self.frozen:
            self._check_mutable()
        if kind is NodeConnector:
            store = self._connectors_v
            _check_index(source, len(self.h.nodes), "hypernode")
        elif kind is EdgeConnector:
            store = self._connectors_e
            _check_index(source, len(self.h.edges), "hyperedge", UnknownHyperEdgeError)
        else:
            raise TypeError(f"not a connector kind: {kind!r}")
        _check_index(graph_node, len(self.g.iris), "graph node")
        pair = (source, graph_node)
        if pair in store:
            return False
        self._append_connectors(kind, (pair,))
        return True

    def _append_connectors(self, kind: type[Connector], pairs: Iterable[tuple[int, int]]) -> None:
        """Store new ``(source, graph node)`` pairs of one connector kind
        between existing endpoints; the only writer of the connector stores
        and of the two node-connector indexes."""
        if kind is EdgeConnector:
            store = self._connectors_e
            for pair in pairs:
                store[pair] = None
            return
        store, anchors, anchored = self._connectors_v, self._node_anchors, self._anchored_nodes
        for pair in pairs:
            store[pair] = None
            source, target = pair
            anchors.setdefault(source, []).append(target)
            anchored.setdefault(target, []).append(source)

    @property
    def connectors_v(self) -> tuple[NodeConnector, ...]:
        """Node connectors (C_v) in insertion order."""
        return tuple(starmap(NodeConnector, self._connectors_v))

    @property
    def connectors_e(self) -> tuple[EdgeConnector, ...]:
        """Edge connectors (C_e) in insertion order."""
        return tuple(starmap(EdgeConnector, self._connectors_e))

    @property
    def connector_count(self) -> int:
        return len(self._connectors_v) + len(self._connectors_e)

    def anchors_of_node(self, node: int) -> list[int]:
        """Graph nodes one connector hop away from a hypernode, in insertion order."""
        self.h._check_node(node)
        return list(self._node_anchors.get(node, ()))

    def nodes_anchored_in(self, graph_nodes: Iterable[int]) -> set[int]:
        """Hypernodes with a node connector to any of the given graph nodes;
        each id is checked as :meth:`anchors_of_node` checks its own."""
        nodes: set[int] = set()
        for graph_node in graph_nodes:
            self.g._check_node(graph_node)
            nodes.update(self._anchored_nodes.get(graph_node, ()))
        return nodes


def validate_layering(hg2: HG2) -> list[Violation]:
    """Check that every connector endpoint exists in its layer.

    Connectors originating in the graph layer cannot be represented at all,
    and ``add_connector`` range-checks every endpoint, so the only reportable
    defect is a dangling endpoint in a store filled around it.  Never
    mutates; violations are values.
    """
    violations: list[Violation] = []
    for store, layer, count in (
        (hg2._connectors_v, "hypernode", hg2.h.node_count),
        (hg2._connectors_e, "hyperedge", hg2.h.edge_count),
    ):
        for source, graph_node in store:
            if not 0 <= source < count:
                where = {"node": source} if layer == "hypernode" else {"edge": source}
                violations.append(Violation(
                    "DanglingEndpoint", f"connector references missing {layer} {source}", **where
                ))
            if not 0 <= graph_node < hg2.g.node_count:
                violations.append(Violation(
                    "DanglingEndpoint",
                    f"connector references missing graph node {graph_node}",
                    node=graph_node,
                ))
    return violations


# serialize writes what ``json.dumps(document, indent=2, ensure_ascii=False)``
# would, one record at a time: record fields sit six spaces deep, and
# ``_quote`` is the escaper ``json.dumps`` itself uses for strings.
_FIELD = "\n      "
_NEXT_FIELD = "," + _FIELD


def _json(value: Any) -> str:
    """An opaque payload's value as it appears in the document."""
    text = json.dumps(value, indent=2, ensure_ascii=False, allow_nan=False)
    return text.replace("\n", _FIELD)


def _id_slots(count: int) -> str:
    """A list of ``count`` ids as the document writes it, one ``%d`` per id."""
    if not count:
        return "[]"
    return "[\n        " + ",\n        ".join(["%d"] * count) + "\n      ]"


def _record(*fields: str) -> str:
    """One object of a section, from its fields rendered as ``"key": value``."""
    return "    {" + _FIELD + _NEXT_FIELD.join(fields) + "\n    }"


# A connector record, as the text ``_record`` makes of its fields.
_CONNECTOR_RECORD = _record('"from": %d', '"to": %d')


def _edge_records(edges: list[HyperEdge]) -> Iterator[str]:
    """The hyperedge records, each from the one template of its
    ``(len(head), len(tail))`` shape, made when the shape is first met."""
    templates: dict[tuple[int, int], str] = {}
    for edge_id, edge in enumerate(edges):
        head, tail = edge.head, edge.tail
        shape = len(head), len(tail)
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = _record(
                '"id": %d', f'"head": {_id_slots(shape[0])}', f'"tail": {_id_slots(shape[1])}'
            )
        yield template % (edge_id, *head, *tail)


def _hypernode_record(node_id: int, payload: Any) -> str:
    """A node the writer did not file as malformed: a term or an opaque payload."""
    kind = _term_kind(payload)
    if kind is None:
        return _record(f'"id": {node_id}', '"kind": "opaque"', f'"value": {_json(payload)}')
    return _record(
        f'"id": {node_id}',
        f'"kind": {_quote(kind.value)}',
        *(
            f'"{name}": {_quote(value)}'
            for name in _KIND_FIELDS[kind]
            if (value := getattr(payload, name)) is not None
        ),
    )


# Records (or DOT lines) per chunk.  A 5 MiB document is then about a hundred
# ``write`` calls, and the text held at once stays near 1 MiB; at 4096 the
# process high-water mark of a large build already rose by 4 MiB.
_BATCH = 1024


def _batches(items: Iterator[str]) -> Iterator[list[str]]:
    while batch := list(islice(items, _BATCH)):
        yield batch


def _emit(chunks: Iterator[str], out: TextIO | None) -> str | None:
    """Join the chunks into one string, or, given ``out``, write each to it
    as it is made and return ``None``."""
    if out is None:
        return "".join(chunks)
    for chunk in chunks:
        out.write(chunk)
    return None


def _section(name: str, records: Iterator[str]) -> Iterator[str]:
    """One section's text, in chunks of at most ``_BATCH`` records."""
    batches = _batches(records)
    first = next(batches, None)
    if first is None:
        yield f',\n  "{name}": []'
        return
    yield f',\n  "{name}": [\n' + ",\n".join(first)
    for batch in batches:
        yield ",\n" + ",\n".join(batch)
    yield "\n  ]"


def _document(hg2: HG2) -> Iterator[str]:
    """The document's text in order, one chunk per batch of records."""
    yield f'{{\n  "meta": {{\n    "format": {_quote(FORMAT_VERSION)}\n  }}'
    yield from _section("hypernodes", starmap(_hypernode_record, enumerate(hg2.h.nodes)))
    yield from _section("hyperedges", _edge_records(hg2.h.edges))
    yield from _section("graph_nodes", (
        _record(f'"id": {node_id}', f'"iri": {_quote(iri)}')
        for node_id, iri in enumerate(hg2.g.iris)
    ))
    yield from _section("graph_edges", (
        _record(f'"from": {edge.src}', f'"to": {edge.dst}', f'"kind": {_quote(edge.kind.value)}')
        for edge in hg2.g.edges
    ))
    for name, store in (("connectors_v", hg2._connectors_v), ("connectors_e", hg2._connectors_e)):
        yield from _section(name, map(_CONNECTOR_RECORD.__mod__, store))
    yield "\n}\n"


def serialize(hg2: HG2, out: TextIO | None = None) -> str | None:
    """Render the structure as a deterministic, human-readable JSON document.

    The text is what ``json.dumps(document, indent=2, ensure_ascii=False)``
    writes for the section layout, built record by record without the
    intermediate document.  Without ``out`` the document is returned as one
    string.  With ``out``, a text handle, it is written there in chunks of
    about a thousand records as they are made, so the whole text is never
    held at once, and ``None`` is returned; the bytes are the same.  A non-finite
    float anywhere in a payload is a ``ValueError``: ``NaN`` and
    ``Infinity`` are not JSON, and parsers other than Python's refuse them.
    So is a malformed term, with the message of the parser's
    ``_term_problem`` for the first hypernode the node writer filed as
    malformed; that is raised before anything is written to ``out``.  A
    non-finite float is found as its record is written, so with ``out`` the
    handle may then already hold part of the document.
    """
    malformed = hg2.h._malformed
    if malformed:
        node_id = malformed[0]
        raise ValueError(_term_problem(hg2.h.nodes[node_id], f"hypernode {node_id}")[1])
    return _emit(_document(hg2), out)


# A JSON escape of a code point in U+D800..U+DFFF.  Valid pairs decode to one
# character, so only a document that has such an escape can hold a lone one.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


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


def _all_ids(values: list[Any], count: int) -> bool:
    """Whether every value is a plain int in ``range(count)``; a bool is not."""
    return not values or (
        set(map(type, values)) == {int} and min(values) >= 0 and max(values) < count
    )


_PAYLOAD_KINDS = {kind.value: kind for kind in PayloadKind}
# The keys a record of each section may hold.  A hypernode record holds
# "value" only when its kind is "opaque", and a term field only as a string
# its kind carries or as null, which counts as absent.
_RECORD_KEYS = {
    "meta": {"format"},
    "hypernodes": {"id", "kind", "value", *_PAYLOAD_FIELDS},
    "hyperedges": {"id", "head", "tail"},
    "graph_nodes": {"id", "iri"},
    "graph_edges": {"from", "to", "kind"},
    "connectors_v": {"from", "to"},
    "connectors_e": {"from", "to"},
}


def _as_records(document: dict[str, Any], section: str) -> list[dict[str, Any]]:
    """A section's records; outside the hypernodes (checked by kind as they
    decode), the first record with a key not in ``_RECORD_KEYS`` is refused."""
    _require(section in document, f"missing section '{section}'")
    records = document[section]
    _require(isinstance(records, list), f"section '{section}' must be a list")
    _require(set(map(type, records)) <= {dict}, f"entries of '{section}' must be objects")
    keys = _RECORD_KEYS[section]
    if section != "hypernodes" and not set().union(*records) <= keys:
        for index, record in enumerate(records):
            for key in record:
                _require(key in keys, f"{section} entry {index} cannot carry '{key}'")
    return records


def _check_dense_ids(records: list[dict[str, Any]], section: str) -> None:
    ids = [record.get("id") for record in records]
    if ids == list(range(len(ids))) and _all_ids(ids, len(ids)):
        return
    for index, record in enumerate(records):
        _require("id" in record, f"entry {index} of '{section}' has no id")
        value = record["id"]
        if type(value) is not int:
            raise SchemaViolation(f"{section} id must be an integer, got {value!r}")
        _require(value == index, f"ids in '{section}' must be dense and ordered")


def _payload_from_json(record: dict[str, Any]) -> Any:
    kind = record.get("kind")
    payload_kind = _PAYLOAD_KINDS.get(kind) if type(kind) is str else None
    if payload_kind is None and kind != "opaque":
        raise UnknownKind(f"unknown hypernode kind {kind!r}")
    for key, value in record.items():
        # "value" only on an opaque record, and a term field there only as null
        allowed = key != "value" if payload_kind else key not in _PAYLOAD_FIELDS or value is None
        _require(key in _RECORD_KEYS["hypernodes"] and allowed, f"{kind} hypernode cannot carry '{key}'")
    if payload_kind is None:
        _require("value" in record, "opaque hypernode has no value")
        return record["value"]
    payload = tuple.__new__(NodePayload, (payload_kind, *map(record.get, _PAYLOAD_FIELDS)))
    problem = _term_problem(payload, "hypernode")
    if problem is not None:
        raise SchemaViolation(problem[1])
    return payload


def _payloads_from_json(records: list[dict[str, Any]]) -> list[Any]:
    """The payloads of a hypernodes section, unjudged, decoded one column
    at a time when every record is a term record (each kind a term kind,
    each key a term's); otherwise every record goes through
    :func:`_payload_from_json`, so the first bad record raises as it does
    there.  The node writer judges the decoded terms."""
    kinds = [record.get("kind") for record in records]
    keys = set().union(*records)
    if set(map(type, kinds)) <= {str} and set(kinds) <= _PAYLOAD_KINDS.keys() \
            and keys <= _RECORD_KEYS["hypernodes"] and "value" not in keys:
        columns = [map(_PAYLOAD_KINDS.__getitem__, kinds),
                   *([record.get(name) for record in records] for name in _PAYLOAD_FIELDS)]
        return list(map(tuple.__new__, repeat(NodePayload), zip(*columns)))
    return list(map(_payload_from_json, records))


# Each section below is checked whole first, with passes that run in C where
# they can, and then appended through the containers' private append helpers,
# the code the public mutators end in.  A section that fails its check is
# loaded record by record through the public mutators instead; the first
# record they refuse raises, and the message names that record.


def _load_hyperedges(hg2: HG2, records: list[dict[str, Any]]) -> None:
    heads = [record.get("head") for record in records]
    tails = [record.get("tail") for record in records]
    slots = heads + tails
    if set(map(type, slots)) <= {list} and all(slots) and _all_ids(
        list(chain.from_iterable(slots)), hg2.h.node_count
    ):
        # Each tail id becomes its node's one int object.  Queries read tail
        # ids (the forward stars' keys, a statement's subject), and then read
        # them from one packed run, not from the ints json.loads left among
        # the records; queries use head ids only as list indexes.
        ids = list(range(hg2.h.node_count))
        for tail in tails:
            tail[:] = map(ids.__getitem__, tail)
        hg2.h._append_edges(heads, tails)
        return
    for index, (head, tail) in enumerate(zip(heads, tails)):
        _require(isinstance(head, list) and isinstance(tail, list),
                 f"hyperedge {index} needs 'head' and 'tail' lists")
        try:
            hg2.h.add_hyperedge(head, tail)
        except (LookupError, TypeError, ValueError) as exc:
            raise SchemaViolation(f"hyperedge {index} is malformed: {exc}") from exc


_EDGE_KINDS = {kind.value: kind for kind in EdgeKind}


def _load_connectors(
    hg2: HG2, records: list[dict[str, Any]], section: str, kind: type[Connector], source_count: int
) -> None:
    sources = [record.get("from") for record in records]
    targets = [record.get("to") for record in records]
    if _all_ids(sources, source_count) and _all_ids(targets, hg2.g.node_count):
        pairs = list(zip(sources, targets))
        if len(set(pairs)) == len(pairs):
            hg2._append_connectors(kind, pairs)
            return
    for index, (source, target) in enumerate(zip(sources, targets)):
        try:
            added = hg2.add_connector(source, target, kind)
        except (LookupError, TypeError) as exc:
            raise SchemaViolation(f"{section} entry {index} is malformed or dangling: {exc}") from exc
        _require(added, f"{section} entry {index} is a duplicate")


def _load_graph_nodes(g: SchemaGraph, records: list[dict[str, Any]]) -> None:
    iris = [record.get("iri") for record in records]
    if set(map(type, iris)) <= {str} and len(set(iris)) == len(iris):
        g._append_nodes(iris)
        return
    for index, iri in enumerate(iris):
        _require(isinstance(iri, str), f"graph node {index} needs a string iri")
        if g.intern(iri) != index:
            raise SchemaViolation(f"duplicate graph node iri {iri!r}")


def _load_graph_edges(g: SchemaGraph, records: list[dict[str, Any]]) -> None:
    sources = [record.get("from") for record in records]
    targets = [record.get("to") for record in records]
    kinds = [record.get("kind") for record in records]
    if set(map(type, kinds)) <= {str} and set(kinds) <= _EDGE_KINDS.keys() \
            and _all_ids(sources, g.node_count) and _all_ids(targets, g.node_count):
        edges = list(map(GraphEdge, sources, targets, map(_EDGE_KINDS.__getitem__, kinds)))
        if len(set(edges)) == len(edges):
            g._append_edges(edges)
            return
    for index, (source, target, kind) in enumerate(zip(sources, targets, kinds)):
        edge_kind = _EDGE_KINDS.get(kind) if type(kind) is str else None
        if edge_kind is None:
            raise UnknownKind(f"unknown graph edge kind {kind!r}")
        try:
            added = g.add_edge(source, target, edge_kind)
        except (LookupError, TypeError) as exc:
            raise SchemaViolation(f"graph edge {index} is malformed: {exc}") from exc
        _require(added, f"graph_edges entry {index} is a duplicate")


def _refuse_repeated_terms(h: Hypergraph) -> None:
    """Raise for the first hypernode whose RDF term an earlier one carries.

    The payload index keeps the first node of each term, so a second node
    would be unreachable by lookup and queries would miss its edges.  Opaque
    payloads may repeat (and an unhashable one is never indexed).
    """
    for node_id, payload in enumerate(h.nodes):
        if isinstance(payload, NodePayload) and h._index[payload] != node_id:
            raise SchemaViolation(
                f"hypernodes {h._index[payload]} and {node_id} carry the same term"
            )


def deserialize(text: str) -> HG2:
    """Rebuild an HG2 from its serialized document.

    Raises :class:`SchemaViolation` for structural problems (JSON nested
    past the parser's depth limit included) and :class:`UnknownKind` when a
    kind discriminator is out of vocabulary.  An unknown section, a record
    key outside ``_RECORD_KEYS``, a non-int id, a malformed term (with the
    message of the parser's ``_term_problem``), a
    repeated RDF term among the hypernodes (opaque
    payloads may repeat), a repeated graph node IRI, graph edge or
    connector, a ``NaN``, ``Infinity`` or ``-Infinity`` token (not JSON), a
    number that overflows a float (it would load as infinity, which
    ``serialize`` cannot write), and a string holding a lone surrogate (a
    ``\\uD800``..``\\uDFFF`` escape that is not half of a pair, which cannot
    be written as UTF-8) are each a :class:`SchemaViolation` too.  Sections
    load in document order, each checked whole before it is stored.  The
    text is not referenced once it is parsed, so a caller that hands over
    its only reference does not keep it alive while the records load.  One
    leading byte order mark (U+FEFF) is dropped, as ``parse_document`` drops
    it.
    """
    text = text.removeprefix(_BOM)
    try:
        document = json.loads(text, parse_float=_finite_float, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaViolation("JSON nesting exceeds the parser's depth limit") from None
    if _SURROGATE_ESCAPE_RE.search(text) and _holds_surrogate(document):
        raise SchemaViolation("a string holds a lone surrogate code point")
    # Only the decoded document is read from here on.  When the caller passed
    # its only reference, the text is freed now instead of after the load.
    del text
    _require(isinstance(document, dict), "document root must be an object")
    meta = document.get("meta")
    _require(isinstance(meta, dict), "missing 'meta' section")
    _require(meta.get("format") == FORMAT_VERSION, f"unsupported format {meta.get('format')!r}")
    for key in meta:
        _require(key in _RECORD_KEYS["meta"], f"meta cannot carry '{key}'")
    for name in document:
        _require(name in _RECORD_KEYS, f"unknown section '{name}'")

    hg2 = HG2()
    node_records = _as_records(document, "hypernodes")
    _check_dense_ids(node_records, "hypernodes")
    hg2.h._append_nodes(_payloads_from_json(node_records))
    if hg2.h._malformed:
        # raises with the term rule's message for the first malformed record
        _payload_from_json(node_records[hg2.h._malformed[0]])
    if len(hg2.h._index) != hg2.h.node_count:
        _refuse_repeated_terms(hg2.h)

    edge_records = _as_records(document, "hyperedges")
    _check_dense_ids(edge_records, "hyperedges")
    _load_hyperedges(hg2, edge_records)

    graph_node_records = _as_records(document, "graph_nodes")
    _check_dense_ids(graph_node_records, "graph_nodes")
    _load_graph_nodes(hg2.g, graph_node_records)
    _load_graph_edges(hg2.g, _as_records(document, "graph_edges"))
    _load_connectors(hg2, _as_records(document, "connectors_v"), "connectors_v",
                     NodeConnector, hg2.h.node_count)
    _load_connectors(hg2, _as_records(document, "connectors_e"), "connectors_e",
                     EdgeConnector, hg2.h.edge_count)
    return hg2
