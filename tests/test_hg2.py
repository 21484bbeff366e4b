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
from oracles import random_structure


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
    assert hg2.add_connector(NodeConnector(0, 0)) is True
    assert hg2.add_connector(NodeConnector(0, 0)) is False
    assert hg2.add_connector(EdgeConnector(0, 0)) is True
    assert hg2.connectors_v == (NodeConnector(0, 0),)
    assert hg2.connectors_e == (EdgeConnector(0, 0),)
    assert hg2.connector_count == 2
    with pytest.raises(UnknownNodeError, match="^hypernode 9 does not exist$"):
        hg2.add_connector(NodeConnector(9, 0))
    with pytest.raises(UnknownHyperEdgeError):
        hg2.add_connector(EdgeConnector(3, 0))
    for bad, error, message in (
        (0.5, TypeError, "ids must be int, got 0.5"),
        (True, TypeError, "ids must be int, got True"),
        (-1, UnknownHyperEdgeError, "hyperedge -1 does not exist"),
        (1, UnknownHyperEdgeError, "hyperedge 1 does not exist"),  # the first absent id
    ):
        with pytest.raises(error) as excinfo:
            hg2.add_connector(EdgeConnector(bad, 0))
        assert str(excinfo.value) == message
    with pytest.raises(UnknownNodeError, match="^graph node 7 does not exist$"):
        hg2.add_connector(NodeConnector(0, 7))
    with pytest.raises(TypeError):
        hg2.add_connector(("node", 0, 0))


def test_anchors_come_back_in_insertion_order():
    hg2 = small()
    extra = hg2.g.intern("urn:other")
    hg2.add_connector(NodeConnector(0, extra))
    hg2.add_connector(NodeConnector(0, 0))
    hg2.add_connector(NodeConnector(1, 0))
    assert hg2.anchors_of_node(0) == [extra, 0]
    assert hg2.anchors_of_node(2) == []
    with pytest.raises(UnknownNodeError, match="^hypernode 42 does not exist$"):
        hg2.anchors_of_node(42)


@pytest.mark.parametrize("bad", [True, False, 1.0, "0", None])
def test_mutators_reject_ids_that_are_not_plain_ints(bad):
    hg2 = small()
    hg2.add_connector(NodeConnector(0, 0))
    before = serialize(hg2)
    incidence = [hg2.h.incidence_of(node) for node in range(hg2.h.node_count)]
    for mutate in (
        lambda: hg2.add_connector(NodeConnector(bad, 0)),
        lambda: hg2.add_connector(NodeConnector(1, bad)),
        lambda: hg2.add_connector(EdgeConnector(bad, 0)),
        lambda: hg2.add_connector(EdgeConnector(0, bad)),
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
    hg2.add_connector(NodeConnector(0, 0))
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


def test_freeze_propagates_to_both_layers():
    hg2 = small()
    hg2.freeze()
    assert hg2.h.frozen and hg2.g.frozen
    with pytest.raises(RuntimeError):
        hg2.h.add_node(NodePayload.uri("urn:new"))
    with pytest.raises(RuntimeError):
        hg2.add_connector(NodeConnector(0, 0))


def test_validate_layering_is_empty_for_api_built_structures():
    hg2 = small()
    hg2.add_connector(NodeConnector(0, 0))
    hg2.add_connector(EdgeConnector(0, 0))
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
    hg2.add_connector(NodeConnector(0, 0))
    hg2.add_connector(EdgeConnector(0, 0))
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
    hg2.add_connector(NodeConnector(0, 0))
    hg2.add_connector(EdgeConnector(0, 0))
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
    hg2.add_connector(NodeConnector(0, 0))
    hg2.add_connector(EdgeConnector(0, 0))
    document = json.loads(serialize(hg2))
    mutate(document)
    with pytest.raises(exception):
        deserialize(json.dumps(document))


@pytest.mark.parametrize("section", ["graph_edges", "connectors_v", "connectors_e"])
def test_deserialize_rejects_a_repeated_entry(section):
    hg2 = small()
    hg2.g.add_edge(0, 0, EdgeKind.TYPE)
    hg2.add_connector(NodeConnector(0, 0))
    hg2.add_connector(EdgeConnector(0, 0))
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
    hg2.add_connector(NodeConnector(0, 0))
    hg2.add_connector(EdgeConnector(0, 0))
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


def test_serialize_refuses_a_term_of_unknown_kind_with_the_violations_text():
    odd = NodePayload("uri", iri="urn:x")  # a str, not a PayloadKind
    hg2, _ = integrate([Statement(odd, NodePayload.uri("urn:p"), NodePayload.uri("urn:o"))])
    message = "hypernode 0 has unknown kind 'uri'"
    assert [violation.message for violation in validate_mapping(hg2)] == [message]
    with pytest.raises(ValueError, match=f"^{message}$"):
        serialize(hg2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        serialize(hg2, io.StringIO())


@pytest.mark.parametrize("payload", [
    NodePayload.uri(5),
    NodePayload.blank(7),
    NodePayload.literal("x", language_tag=["en"]),
    NodePayload.literal("x", datatype_iri=b"urn:t"),
])
def test_serialize_refuses_a_term_field_that_is_not_a_string(payload):
    hg2 = HG2()
    hg2.h.add_node(payload)
    with pytest.raises(TypeError):
        serialize(hg2)


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
    b.add_connector(NodeConnector(0, 0))
    assert a != b
    assert a != "something else"
    # connector order is part of the structure, since serialize replays it
    a.add_connector(NodeConnector(1, 0))
    a.add_connector(NodeConnector(0, 0))
    b.add_connector(NodeConnector(1, 0))
    assert a != b and serialize(a) != serialize(b)
