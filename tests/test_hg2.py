"""Two-layer container: connectors, indexing, layering checks, serialization."""
from __future__ import annotations

import io
import json
import random
import re

import pytest

from hg2rdf import (
    FORMAT_VERSION,
    HG2,
    EdgeConnector,
    EdgeKind,
    NodeConnector,
    NodePayload,
    PayloadKind,
    SchemaViolation,
    SerializationError,
    Statement,
    UnknownHyperEdgeError,
    UnknownKind,
    UnknownNodeError,
    deserialize,
    integrate,
    instances_of,
    parse_document,
    serialize,
    validate_layering,
    validate_mapping,
)
from oracles import assert_frozen_containers_refuse_writes, assert_refused_unchanged, random_structure


def small() -> HG2:
    hg2 = HG2()
    hg2.h.add_node(NodePayload.uri("urn:s"))
    hg2.h.add_node(NodePayload.uri("urn:p"))
    hg2.h.add_node(NodePayload.literal("v", language_tag="en"))
    hg2.h.add_hyperedge([1], [0, 2])
    hg2.g.intern("urn:class")
    return hg2


def test_payload_factories_populate_one_kind():
    assert NodePayload.uri("urn:x").kind is PayloadKind.URI
    assert NodePayload.blank("b").blank_label == "b"
    lit = NodePayload.literal("v", datatype_iri="urn:dt")
    assert lit.language_tag is None and lit.datatype_iri == "urn:dt"
    with pytest.raises(ValueError):
        NodePayload.literal("v", language_tag="en", datatype_iri="urn:dt")


def test_add_node_interns_by_payload():
    hg2 = HG2()
    a = hg2.h.add_node(NodePayload.uri("urn:x"))
    assert hg2.h.add_node(NodePayload.uri("urn:x")) == a
    assert hg2.h._append_nodes((NodePayload.uri("urn:x"),)) == a + 1
    assert hg2.h.find(NodePayload.uri("urn:x")) == a
    assert hg2.h.find(NodePayload.uri("urn:missing")) is None


def test_unhashable_payloads_are_allowed_but_unindexed():
    hg2 = HG2()
    node = hg2.h.add_node(["not", "hashable"])
    assert hg2.h.nodes[node] == ["not", "hashable"]
    assert hg2.h.find(["not", "hashable"]) is None


def test_interning_add_node_treats_an_unhashable_payload_as_absent():
    hg2 = HG2()
    first = hg2.h.add_node(["x"])
    assert hg2.h.add_node(["x"]) == first + 1  # never indexed, so never reused
    assert hg2.h.find(["x"]) is None


def test_connectors_validate_endpoints_and_deduplicate():
    hg2 = small()
    assert hg2.add_connector(0, 0, NodeConnector) is True
    assert hg2.add_connector(0, 0, NodeConnector) is False
    assert hg2.add_connector(0, 0, EdgeConnector) is True
    assert hg2.connectors_v == (NodeConnector(0, 0),)
    assert hg2.connectors_e == (EdgeConnector(0, 0),)
    assert hg2.connector_count == 2
    with pytest.raises(UnknownNodeError, match="^hypernode 9 does not exist$"):
        hg2.add_connector(9, 0, NodeConnector)
    with pytest.raises(UnknownHyperEdgeError):
        hg2.add_connector(3, 0, EdgeConnector)
    # three hypernodes, one hyperedge and one graph node; the source is checked first
    for kind, layer, error, count in ((NodeConnector, "hypernode", UnknownNodeError, 3),
                                      (EdgeConnector, "hyperedge", UnknownHyperEdgeError, 1)):
        for source, graph_node, expected, message in (
            (0.5, 0, TypeError, "ids must be int, got 0.5"),
            (True, 0, TypeError, "ids must be int, got True"),
            (-1, 0, error, f"{layer} -1 does not exist"),
            (count, 0, error, f"{layer} {count} does not exist"),  # the first absent id
            (count, 1, error, f"{layer} {count} does not exist"),
            (0, None, TypeError, "ids must be int, got None"),
            (0, False, TypeError, "ids must be int, got False"),
            (0, -1, UnknownNodeError, "graph node -1 does not exist"),
            (0, 7, UnknownNodeError, "graph node 7 does not exist"),
        ):
            with pytest.raises(expected) as excinfo:
                hg2.add_connector(source, graph_node, kind)
            assert type(excinfo.value) is expected and str(excinfo.value) == message
    assert hg2.connector_count == 2


@pytest.mark.parametrize("kind", ["node", None, HG2, NodeConnector(0, 0), NodePayload])
def test_add_connector_refuses_a_kind_that_is_neither_connector_class(kind):
    hg2 = small()
    # the kind is judged before either id, so a bad id does not change the error
    for source, graph_node in ((0, 0), (9, 0), (0, 7), (0.5, None)):
        with pytest.raises(TypeError, match=f"^not a connector kind: {re.escape(repr(kind))}$"):
            hg2.add_connector(source, graph_node, kind)
    assert hg2.connector_count == 0 and serialize(hg2) == serialize(small())


def test_anchors_come_back_in_insertion_order():
    hg2 = small()
    extra = hg2.g.intern("urn:other")
    hg2.add_connector(0, extra, NodeConnector)
    hg2.add_connector(0, 0, NodeConnector)
    hg2.add_connector(1, 0, NodeConnector)
    assert hg2.anchors_of_node(0) == [extra, 0]
    assert hg2.anchors_of_node(2) == []
    with pytest.raises(UnknownNodeError, match="^hypernode 42 does not exist$"):
        hg2.anchors_of_node(42)


@pytest.mark.parametrize("bad", [True, False, 1.0, "0", None])
def test_mutators_reject_ids_that_are_not_plain_ints(bad):
    hg2 = small()
    hg2.add_connector(0, 0, NodeConnector)
    before = serialize(hg2)
    incidence = [hg2.h.incidence_of(node) for node in range(hg2.h.node_count)]
    for mutate in (
        lambda: hg2.add_connector(bad, 0, NodeConnector),
        lambda: hg2.add_connector(1, bad, NodeConnector),
        lambda: hg2.add_connector(bad, 0, EdgeConnector),
        lambda: hg2.add_connector(0, bad, EdgeConnector),
        lambda: hg2.h.add_hyperedge([bad], [0]),
        lambda: hg2.h.add_hyperedge([1], [0, bad]),
        lambda: hg2.g.add_edge(bad, 0, EdgeKind.TYPE),
        lambda: hg2.g.add_edge(0, bad, EdgeKind.TYPE),
    ):
        with pytest.raises(TypeError):
            mutate()
    assert serialize(hg2) == before
    assert incidence == [hg2.h.incidence_of(node) for node in range(hg2.h.node_count)]
    assert hg2.anchors_of_node(1) == [] and hg2.connector_count == 1
    assert deserialize(before) == hg2


@pytest.mark.parametrize("bad", [0.5, True])
def test_readers_reject_ids_that_are_not_plain_ints(bad):
    hg2 = small()
    hg2.add_connector(0, 0, NodeConnector)
    for read in (
        lambda: hg2.anchors_of_node(bad),
        lambda: hg2.h.incidence_of(bad),
        lambda: hg2.h.forward_reachable(bad),
        lambda: hg2.h.forward_path(bad, 0),
        lambda: hg2.h.forward_path(0, bad),
        lambda: hg2.g.iri_of(bad),
    ):
        with pytest.raises(TypeError, match=f"^ids must be int, got {bad!r}$"):
            read()


def test_nodes_anchored_in_checks_each_graph_node_id():
    statements, _ = parse_document(
        "<urn:rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:Dog> .\n"
        '<urn:rex> <urn:name> "Rex" .\n'
    )
    hg2, _ = integrate(statements)
    dog, rex = hg2.g.find("urn:Dog"), hg2.h.find(NodePayload.uri("urn:rex"))
    assert hg2.nodes_anchored_in([dog]) == {rex} == set(instances_of(hg2, "urn:Dog").items)
    assert hg2.nodes_anchored_in([]) == set()
    # each id is refused as anchors_of_node refuses its own
    for bad in (float(dog), True):
        with pytest.raises(TypeError, match=f"^ids must be int, got {bad!r}$"):
            hg2.nodes_anchored_in([dog, bad])
    absent = 10**9
    with pytest.raises(UnknownNodeError, match=f"^graph node {absent} does not exist$"):
        hg2.nodes_anchored_in([absent])
    with pytest.raises(UnknownNodeError, match="^graph node -1 does not exist$"):
        hg2.nodes_anchored_in([-1])


def test_freeze_propagates_to_both_layers(frozen_structures):
    hg2 = small()
    hg2.freeze()
    assert hg2.h.frozen and hg2.g.frozen
    with pytest.raises(RuntimeError):
        hg2.h.add_node(NodePayload.uri("urn:new"))
    with pytest.raises(RuntimeError):
        hg2.add_connector(0, 0, NodeConnector)
    for frozen in (hg2, *frozen_structures):
        assert_frozen_containers_refuse_writes(frozen, "h", "g")


def test_validate_layering_is_empty_for_api_built_structures():
    hg2 = small()
    hg2.add_connector(0, 0, NodeConnector)
    hg2.add_connector(0, 0, EdgeConnector)
    assert validate_layering(hg2) == []


def test_validate_layering_reports_dangling_endpoints():
    hg2 = small()
    # plant (source, graph node) pairs in the private stores to simulate a
    # corrupted structure
    hg2._connectors_v[99, 0] = None
    hg2._connectors_e[0, 55] = None
    kinds = [v.kind for v in validate_layering(hg2)]
    assert kinds == ["DanglingEndpoint", "DanglingEndpoint"]
    messages = [v.message for v in validate_layering(hg2)]
    assert any("hypernode 99" in m for m in messages)
    assert any("graph node 55" in m for m in messages)


def test_serialized_document_layout():
    hg2 = small()
    hg2.add_connector(0, 0, NodeConnector)
    hg2.add_connector(0, 0, EdgeConnector)
    text = serialize(hg2)
    assert text.endswith("\n")
    assert serialize(hg2) == text  # deterministic
    document = json.loads(text)
    assert document["meta"]["format"] == FORMAT_VERSION == "hg2/1"
    assert {record["kind"] for record in document["hypernodes"]} == {"uri", "literal"}
    assert document["hyperedges"] == [{"id": 0, "head": [1], "tail": [0, 2]}]
    assert document["graph_nodes"] == [{"id": 0, "iri": "urn:class"}]
    assert document["connectors_v"] == [{"from": 0, "to": 0}]
    assert document["connectors_e"] == [{"from": 0, "to": 0}]
    # literal fields serialize only when set
    literal_record = document["hypernodes"][2]
    assert literal_record == {
        "id": 2,
        "kind": "literal",
        "lexical_form": "v",
        "language_tag": "en",
    }


def test_round_trip_identity_on_handmade_structures():
    hg2 = small()
    hg2.add_connector(0, 0, NodeConnector)
    hg2.add_connector(0, 0, EdgeConnector)
    assert deserialize(serialize(hg2)) == hg2


def test_round_trip_preserves_opaque_payloads():
    hg2 = HG2()
    hg2.h.add_node("just a string")
    hg2.h.add_node(17)
    restored = deserialize(serialize(hg2))
    assert restored.h.nodes == ["just a string", 17]
    assert restored == hg2


def test_round_trip_identity_on_random_structures():
    rng = random.Random(24601)
    for _ in range(40):
        hg2 = random_structure(rng)
        assert deserialize(serialize(hg2)) == hg2


def test_graph_edges_survive_round_trip():
    hg2 = HG2()
    a, b = hg2.g.intern("urn:a"), hg2.g.intern("urn:b")
    hg2.g.add_edge(a, b, EdgeKind.SUBCLASS_OF)
    hg2.g.add_edge(b, a, EdgeKind.RANGE)
    restored = deserialize(serialize(hg2))
    assert restored.g == hg2.g


@pytest.mark.parametrize(
    "mutate,exception",
    [
        (lambda d: d.pop("meta"), SchemaViolation),
        (lambda d: d["meta"].update(format="hg2/0"), SchemaViolation),
        (lambda d: d.pop("hypernodes"), SchemaViolation),
        (lambda d: d["hypernodes"][0].update(id=5), SchemaViolation),
        (lambda d: d["hypernodes"][0].update(kind="mystery"), UnknownKind),
        (lambda d: d["hyperedges"][0].update(head=[]), SchemaViolation),
        (lambda d: d["hyperedges"][0].update(tail=[0, 99]), SchemaViolation),
        (lambda d: d["hyperedges"][0].update(head="nope"), SchemaViolation),
        (lambda d: d["hyperedges"][0].update(head=[True]), SchemaViolation),
        (lambda d: d["graph_edges"][0].update(kind="x"), UnknownKind),
        (lambda d: d["graph_edges"][0].update(to=9), SchemaViolation),
        (lambda d: d["connectors_v"][0].update({"from": 77}), SchemaViolation),
        (lambda d: d["connectors_e"][0].update(to=44), SchemaViolation),
        (lambda d: d["graph_nodes"].append({"id": 1, "iri": "urn:class"}), SchemaViolation),
    ],
)
def test_deserialize_rejects_malformed_documents(mutate, exception):
    hg2 = small()
    hg2.g.add_edge(0, 0, EdgeKind.TYPE)
    hg2.add_connector(0, 0, NodeConnector)
    hg2.add_connector(0, 0, EdgeConnector)
    document = json.loads(serialize(hg2))
    mutate(document)
    with pytest.raises(exception):
        deserialize(json.dumps(document))


@pytest.mark.parametrize("section", ["graph_edges", "connectors_v", "connectors_e"])
def test_deserialize_rejects_a_repeated_entry(section):
    hg2 = small()
    hg2.g.add_edge(0, 0, EdgeKind.TYPE)
    hg2.add_connector(0, 0, NodeConnector)
    hg2.add_connector(0, 0, EdgeConnector)
    document = json.loads(serialize(hg2))
    document[section].append(dict(document[section][0]))
    with pytest.raises(SchemaViolation, match=f"{section} entry 1 is a duplicate"):
        deserialize(json.dumps(document))


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d["hyperedges"][0].update(head=[42]),
         "hyperedge 0 is malformed: head hypernode 42 does not exist"),
        (lambda d: d["hyperedges"][0].update(tail=[0, 99]),
         "hyperedge 0 is malformed: tail hypernode 99 does not exist"),
        (lambda d: d["graph_edges"][0].update(to=9),
         "graph edge 0 is malformed: graph node 9 does not exist"),
        (lambda d: d["connectors_v"][0].update({"from": 77}),
         "connectors_v entry 0 is malformed or dangling: hypernode 77 does not exist"),
        (lambda d: d["connectors_e"][0].update({"from": 5}),
         "connectors_e entry 0 is malformed or dangling: hyperedge 5 does not exist"),
        (lambda d: d["connectors_e"][0].update(to=44),
         "connectors_e entry 0 is malformed or dangling: graph node 44 does not exist"),
    ],
)
def test_deserialize_names_the_missing_endpoint(mutate, message):
    hg2 = small()
    hg2.g.add_edge(0, 0, EdgeKind.TYPE)
    hg2.add_connector(0, 0, NodeConnector)
    hg2.add_connector(0, 0, EdgeConnector)
    document = json.loads(serialize(hg2))
    mutate(document)
    with pytest.raises(SchemaViolation) as excinfo:
        deserialize(json.dumps(document))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("value", [float("nan"), float("inf"), [1.0, {"x": -float("inf")}]])
def test_serialize_refuses_a_non_finite_float(value):
    hg2 = HG2()
    hg2.h.add_node(value)
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize(hg2)
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize(hg2, io.StringIO())


def test_integrate_and_add_node_refuse_a_term_of_unknown_kind_with_the_rules_text():
    odd = NodePayload("uri", iri="urn:x")  # a str, not a PayloadKind
    message = "term has unknown kind 'uri'"
    with pytest.raises(ValueError, match=f"^{message}$"):
        integrate([Statement(odd, NodePayload.uri("urn:p"), NodePayload.uri("urn:o"))])
    hg2 = HG2()
    hg2.h.add_node(NodePayload.uri("urn:x"))
    assert_refused_unchanged(hg2, message, lambda: hg2.h.add_node(odd))
    assert deserialize(serialize(hg2)) == hg2


@pytest.mark.parametrize("payload, name", [
    (NodePayload(PayloadKind.URI, iri="urn:a", lexical_form="x"), "lexical_form"),
    (NodePayload(PayloadKind.BLANK, iri="urn:a", blank_label="b"), "iri"),
    (NodePayload(PayloadKind.LITERAL, blank_label="b", lexical_form="x"), "blank_label"),
])
def test_add_node_refuses_a_term_field_foreign_to_its_kind(payload, name):
    hg2 = HG2()
    hg2.h.add_node(NodePayload.uri("urn:a"))
    message = f"{payload.kind.value} term cannot carry '{name}'"
    assert_refused_unchanged(hg2, message, lambda: hg2.h.add_node(payload))
    assert deserialize(serialize(hg2)) == hg2


@pytest.mark.parametrize("payload", [
    NodePayload.uri(5),
    NodePayload.blank(7),
    NodePayload.literal("x", language_tag=["en"]),
    NodePayload.literal("x", datatype_iri=b"urn:t"),
])
def test_add_node_refuses_a_term_field_that_is_not_a_string(payload):
    hg2 = HG2()
    name = next(name for name in NodePayload._fields[1:]
                if getattr(payload, name) is not None and not isinstance(getattr(payload, name), str))
    assert_refused_unchanged(hg2, f"term field '{name}' must be a string", lambda: hg2.h.add_node(payload))
    assert serialize(hg2) == serialize(HG2())


@pytest.mark.parametrize("payload, message", [
    (NodePayload(PayloadKind.URI), "uri term has no iri"),
    (NodePayload(PayloadKind.LITERAL, lexical_form="x", language_tag="en", datatype_iri="urn:t"),
     "term carries both a language tag and a datatype"),
])
def test_add_node_refuses_an_incomplete_term_and_a_tag_beside_a_datatype(payload, message):
    hg2 = HG2()
    assert_refused_unchanged(hg2, message, lambda: hg2.h.add_node(payload))
    assert validate_mapping(hg2) == []


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_deserialize_refuses_non_finite_number_tokens(token):
    hg2 = HG2()
    hg2.h.add_node(1.5)
    text = serialize(hg2)
    assert '"value": 1.5' in text
    with pytest.raises(SchemaViolation, match=f"^{re.escape(token)} is not a JSON number$"):
        deserialize(text.replace("1.5", token))


@pytest.mark.parametrize("number", ["1e400", "-1e400"])
def test_deserialize_refuses_a_number_that_overflows_a_float(number):
    hg2 = HG2()
    hg2.h.add_node(1.5)
    text = serialize(hg2).replace("1.5", number)
    with pytest.raises(SchemaViolation, match=f"^number {re.escape(number)} overflows a float$"):
        deserialize(text)


def test_deserialize_rejects_non_json_and_non_objects():
    with pytest.raises(SchemaViolation):
        deserialize("this is not json")
    with pytest.raises(SchemaViolation):
        deserialize("[1, 2, 3]")
    assert issubclass(SchemaViolation, SerializationError)
    assert issubclass(UnknownKind, SerializationError)


def test_deserialize_rejects_nesting_past_the_json_depth_limit():
    with pytest.raises(SchemaViolation, match="nesting"):
        deserialize("[" * 200_000 + "]" * 200_000)


def test_structural_equality_of_containers():
    a = small()
    b = small()
    assert a == b
    b.add_connector(0, 0, NodeConnector)
    assert a != b
    assert a != "something else"
    # connector order is part of the structure, since serialize replays it
    a.add_connector(1, 0, NodeConnector)
    a.add_connector(0, 0, NodeConnector)
    b.add_connector(1, 0, NodeConnector)
    assert a != b and serialize(a) != serialize(b)
