"""Integration engine: routing, mapping, connectors, checks, pipeline."""
from __future__ import annotations

import pytest

from hg2rdf import (
    HG2,
    ConstraintWarning,
    EdgeConnector,
    EdgeKind,
    GraphEdge,
    Layer,
    MissingAnchorError,
    NodeConnector,
    NodePayload,
    PayloadKind,
    SchemaGraph,
    Statement,
    UnknownNodeError,
    Violation,
    check_domain_range,
    deserialize,
    format_statement,
    format_term,
    generate_connectors,
    integrate,
    load_builtin_vocabulary,
    map_schema_statement,
    map_statement,
    parse_document,
    parse_line,
    route_statement,
    serialize,
    statement_of,
    to_dot,
    validate_mapping,
)
from hg2rdf.schema import (
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
from conftest import CONSTRAINT_DATA, CONSTRAINT_SCHEMA, CONSTRAINT_TYPING
from test_acceptance import fuzz_corpus


def iri(value: str) -> NodePayload:
    return NodePayload.uri(value)


def fresh() -> HG2:
    return HG2(g=load_builtin_vocabulary())


# ---------------------------------------------------------------- routing

def test_vocabulary_statement_routes_to_schema_layer():
    statement = Statement(iri("urn:Dog"), iri(RDFS_SUBCLASSOF), iri("urn:Animal"))
    assert route_statement(statement) is Layer.SCHEMA


def test_ordinary_predicate_routes_to_instance_layer():
    statement = Statement(iri("urn:d1"), iri("urn:creator"), NodePayload.literal("X"))
    assert route_statement(statement) is Layer.INSTANCE


def test_typing_with_blank_participant_stays_in_instance_layer():
    assert route_statement(Statement(iri("urn:d1"), iri(RDF_TYPE), NodePayload.blank("b"))) is Layer.INSTANCE
    assert route_statement(Statement(NodePayload.blank("b"), iri(RDF_TYPE), iri("urn:C"))) is Layer.INSTANCE
    assert route_statement(Statement(iri("urn:d1"), iri(RDF_TYPE), NodePayload.literal("C"))) is Layer.INSTANCE


def test_every_vocabulary_predicate_routes_when_both_ends_are_iris():
    for predicate in (RDF_TYPE, RDFS_SUBCLASSOF, RDFS_DOMAIN, RDFS_RANGE):
        statement = Statement(iri("urn:a"), iri(predicate), iri("urn:b"))
        assert route_statement(statement) is Layer.SCHEMA


#: A schema-predicate statement with one malformed term, the violation its
#: term gives as hypernode 0, 1 or 2 of ``integrate``, and that hypernode.
MALFORMED_SCHEMA_STATEMENTS = [
    (Statement(iri("urn:s"), iri(RDF_TYPE), NodePayload.uri(5)),
     "NonStringField: hypernode 2 field 'iri' must be a string", 2),
    (Statement(NodePayload(PayloadKind.URI), iri(RDF_TYPE), iri("urn:C")),
     "IncompletePayload: uri hypernode 0 has no iri", 0),
    (Statement(NodePayload(PayloadKind.URI, "urn:a", lexical_form="x"), iri(RDF_TYPE), iri("urn:a")),
     "ForeignField: uri hypernode 0 cannot carry 'lexical_form'", 0),
    (Statement(iri("urn:s"), NodePayload(PayloadKind.URI, RDF_TYPE, blank_label="b"), iri("urn:C")),
     "ForeignField: uri hypernode 1 cannot carry 'blank_label'", 1),
    (Statement(iri("urn:s"), NodePayload("uri", RDFS_SUBCLASSOF), iri("urn:C")),
     "UnknownPayloadKind: hypernode 1 has unknown kind 'uri'", 1),
]
MALFORMED_IDS = ["non-string-object", "incomplete-subject", "foreign-subject", "foreign-predicate",
                 "unknown-kind-predicate"]


@pytest.mark.parametrize("statement, warning, node", MALFORMED_SCHEMA_STATEMENTS, ids=MALFORMED_IDS)
def test_a_malformed_term_keeps_a_schema_predicate_statement_in_the_instance_layer(statement, warning, node):
    assert route_statement(statement) is Layer.INSTANCE
    hg2, report = integrate([statement])
    assert report.warnings == [warning]
    assert report.hyperedges_created == 1 and report.schema_edges_created == 0
    assert hg2.g == load_builtin_vocabulary() and hg2.g.find("urn:a") is None
    assert statement_of(hg2, 0) is None
    message = warning.split(": ", 1)[1]
    with pytest.raises(ValueError, match=f"^{message}$"):
        serialize(hg2)
    assert f"h{node} [label=" in to_dot(hg2)
    graph = SchemaGraph()
    with pytest.raises(ValueError, match=f"^{message.replace(f'hypernode {node}', 'term')}$"):
        map_schema_statement(statement, graph)
    assert graph.iris == [] and not graph.edges


@pytest.mark.parametrize("statement", [
    Statement(iri("urn:s"), iri(RDF_TYPE), NodePayload.literal("C")),
    Statement(NodePayload.blank("b"), iri(RDF_TYPE), iri("urn:C")),
    Statement(iri("urn:s"), iri("urn:p"), iri("urn:o")),
], ids=["literal-object", "blank-subject", "other-predicate"])
def test_map_schema_statement_refuses_a_statement_routed_to_the_instance_layer(statement):
    graph = SchemaGraph()
    with pytest.raises(ValueError, match="^route_statement sends this statement to the instance layer$"):
        map_schema_statement(statement, graph)
    assert graph.iris == [] and not graph.edges


@pytest.mark.parametrize("predicate", [RDF_TYPE, RDFS_SUBCLASSOF, RDFS_DOMAIN, RDFS_RANGE])
def test_map_statement_refuses_a_statement_routed_to_the_schema_layer(predicate):
    """It mapped ``rdf:type`` and the other schema statements into the
    hypergraph layer, where ``integrate`` would put them in the graph layer."""
    hg2 = fresh()
    with pytest.raises(ValueError, match="^route_statement sends this statement to the schema layer$"):
        map_statement(Statement(iri("urn:a"), iri(predicate), iri("urn:C")), hg2)
    assert hg2.h.node_count == 0 and hg2.h.edge_count == 0
    assert validate_mapping(hg2) == []


# ------------------------------------------------------------- payloads

def test_payload_round_trip_for_each_term_kind():
    terms = {
        "<urn:x>": iri("urn:x"),
        "_:b7": NodePayload.blank("b7"),
        '"plain"': NodePayload.literal("plain"),
        '"tagged"@en': NodePayload.literal("tagged", language_tag="en"),
        '"5"^^<urn:int>': NodePayload.literal("5", datatype_iri="urn:int"),
    }
    for text, term in terms.items():
        parsed = parse_line(f"<urn:s> <urn:p> {text} .").object
        assert parsed == term
        assert format_term(parsed) == text
        assert parse_line(f"<urn:s> <urn:p> {format_term(parsed)} .").object == term


def test_format_term_rejects_incomplete_payloads():
    for payload, message in (
        (NodePayload(PayloadKind.URI), "uri term has no iri"),
        (NodePayload(PayloadKind.BLANK), "blank term has no blank_label"),
        (NodePayload(PayloadKind.LITERAL), "literal term has no lexical_form"),
        (
            NodePayload(PayloadKind.LITERAL, lexical_form="x", language_tag="en", datatype_iri="urn:t"),
            "term carries both a language tag and a datatype",
        ),
        (NodePayload("uri", iri="urn:x"), "term has unknown kind 'uri'"),
        (NodePayload(7, iri="urn:x"), "term has unknown kind 7"),
        (NodePayload.uri(5), "term field 'iri' must be a string"),
        (NodePayload.literal("x", datatype_iri=["urn:t"]), "term field 'datatype_iri' must be a string"),
        (NodePayload(PayloadKind.URI, iri="urn:a", lexical_form="x"), "uri term cannot carry 'lexical_form'"),
        ("x", "not a term: str"),
        (None, "not a term: NoneType"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            format_term(payload)


# ------------------------------------------------------------ map_statement

def test_map_statement_builds_head_predicate_tail_subject_object():
    hg2 = fresh()
    statement = Statement(iri("urn:s"), iri("urn:p"), NodePayload.literal("Dave Beckett"))
    edge_id = map_statement(statement, hg2)
    edge = hg2.h.edges[edge_id]
    assert hg2.h.nodes[edge.head[0]] == NodePayload.uri("urn:p")
    assert hg2.h.nodes[edge.tail[0]] == NodePayload.uri("urn:s")
    assert hg2.h.nodes[edge.tail[1]] == NodePayload.literal("Dave Beckett")
    assert (len(edge.head), len(edge.tail)) == (1, 2)


def test_interning_shares_nodes_across_statements(w3c_statements):
    hg2 = fresh()
    for statement in w3c_statements:
        map_statement(statement, hg2)
    assert hg2.h.edge_count == 3
    # 1 shared subject + 2 predicates + 3 objects
    assert hg2.h.node_count == 6


def test_self_triple_uses_one_node_in_all_three_slots():
    hg2 = fresh()
    statement = Statement(iri("urn:a"), iri("urn:a"), iri("urn:a"))
    edge_id = map_statement(statement, hg2)
    assert hg2.h.node_count == 1
    edge = hg2.h.edges[edge_id]
    assert edge.head == [0] and edge.tail == [0, 0]


def test_duplicate_statements_reuse_the_hyperedge():
    statement = Statement(iri("urn:s"), iri("urn:p"), NodePayload.literal("same"))
    repeated = Statement(iri("urn:s"), iri("urn:p"), NodePayload.literal("same"))
    assert repeated is not statement and repeated == statement
    hg2, report = integrate([statement, repeated])
    assert report.statements_in == 2
    assert hg2.h.edge_count == 1
    assert hg2.h.node_count == 3  # equal literals share one hypernode


def test_mapping_twice_adds_no_new_hypernodes(w3c_statements):
    once, _ = integrate(w3c_statements)
    twice, _ = integrate(w3c_statements + w3c_statements)
    assert serialize(twice) == serialize(once)


def test_statement_of_refuses_ids_that_are_not_plain_ints():
    hg2 = fresh()
    statement = Statement(iri("urn:s"), iri("urn:p"), iri("urn:o"))
    map_statement(statement, hg2)
    map_statement(Statement(iri("urn:t"), iri("urn:p"), iri("urn:o")), hg2)
    assert statement_of(hg2, 0) == statement
    for bad in (0.5, True):
        with pytest.raises(TypeError, match=f"^ids must be int, got {bad!r}$"):
            statement_of(hg2, bad)
    # an int that names no hyperedge is still not an error
    assert statement_of(hg2, -1) is None and statement_of(hg2, hg2.h.edge_count) is None


def test_statement_of_inverts_map_statement():
    hg2 = fresh()
    statements = [
        Statement(iri("urn:s"), iri("urn:p"), iri("urn:o")),
        Statement(NodePayload.blank("b"), iri("urn:p"), NodePayload.literal("x", language_tag="en")),
        Statement(iri("urn:s"), iri("urn:q"), NodePayload.literal("5", datatype_iri="urn:int")),
    ]
    for statement in statements:
        assert statement_of(hg2, map_statement(statement, hg2)) == statement
    unrecoverable = [
        Statement(NodePayload.literal("x"), iri("urn:p"), iri("urn:o")),
        Statement(iri("urn:s"), NodePayload.blank("b"), iri("urn:o")),
        Statement(iri("urn:s"), iri("urn:p"), NodePayload(PayloadKind.URI)),
        Statement(
            iri("urn:s"),
            iri("urn:p"),
            NodePayload(PayloadKind.LITERAL, lexical_form="x", language_tag="en", datatype_iri="urn:t"),
        ),
    ]
    for statement in unrecoverable:
        assert statement_of(hg2, map_statement(statement, hg2)) is None
    assert statement_of(hg2, 999) is None
    hg2.h.add_hyperedge([0], [0, 0, 0])
    assert statement_of(hg2, hg2.h.edge_count - 1) is None


def test_a_term_of_unknown_kind_is_one_violation_and_passes_the_slot_rules():
    hg2 = HG2()
    odd = hg2.h.add_node(NodePayload("literal", lexical_form="x"))  # a str, not a PayloadKind
    p = hg2.h.add_node(iri("urn:p"))
    o = hg2.h.add_node(iri("urn:o"))
    hg2.h.add_hyperedge([odd], [odd, o])  # head and subject slots
    hg2.h.add_hyperedge([p], [p, o])
    assert validate_mapping(hg2) == [
        Violation("UnknownPayloadKind", "hypernode 0 has unknown kind 'literal'", node=odd)
    ]
    assert statement_of(hg2, 0) is None
    assert statement_of(hg2, 1) == Statement(iri("urn:p"), iri("urn:p"), iri("urn:o"))


def test_integrate_reports_a_term_of_unknown_kind():
    statement = Statement(NodePayload("uri", iri="urn:x"), iri("urn:p"), iri("urn:o"))
    hg2, report = integrate([statement])
    assert report.warnings == ["UnknownPayloadKind: hypernode 0 has unknown kind 'uri'"]
    assert statement_of(hg2, 0) is None
    assert check_domain_range(hg2) == []


def test_a_term_with_a_non_string_field_is_refused_alike_by_every_reader():
    hg2 = fresh()
    p, o = hg2.h.add_node(iri("urn:p")), hg2.h.add_node(iri("urn:o"))
    odd = hg2.h.add_node(NodePayload.uri(5))
    hg2.h.add_hyperedge([p], [odd, o])
    message = f"hypernode {odd} field 'iri' must be a string"
    assert validate_mapping(hg2) == [Violation("NonStringField", message, node=odd)]
    assert statement_of(hg2, 0) is None
    assert f'h{odd} [label="{NodePayload.uri(5)}"];' in to_dot(hg2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        serialize(hg2)


def test_connectors_and_constraints_skip_an_unhashable_iri_as_an_opaque_payload():
    statements, _ = parse_document(CONSTRAINT_SCHEMA + CONSTRAINT_TYPING)
    found = []
    for subject in (NodePayload.uri(["http://example.org/d"]), ["http://example.org/d"]):
        hg2 = fresh()
        for statement in statements:
            map_schema_statement(statement, hg2.g)
        creator = hg2.h.add_node(iri("http://example.org/creator"))
        hg2.h.add_hyperedge([creator], [hg2.h.add_node(subject), hg2.h.add_node(iri("urn:x"))])
        generate_connectors(hg2)
        found.append((hg2.connectors_v, check_domain_range(hg2)))
    assert found[0] == found[1]
    assert [warning.kind for warning in found[0][1]] == ["DomainUnsatisfied"]
    assert SchemaGraph().find(["http://example.org/d"]) is None


def test_integrate_refuses_an_unhashable_term_with_the_rules_text():
    statements = [Statement(iri("urn:s"), iri("urn:p"), iri("urn:o")),
                  Statement(iri("urn:s"), iri("urn:p"), NodePayload.literal("x", language_tag=["en"]))]
    with pytest.raises(ValueError, match="^term field 'language_tag' must be a string$"):
        integrate(statements)


UNHASHABLE = NodePayload.uri(["a"])
UNHASHABLE_MESSAGE = "^term field 'iri' must be a string$"


def test_map_statement_refuses_an_unhashable_term_with_the_rules_text():
    hg2 = fresh()
    with pytest.raises(ValueError, match=UNHASHABLE_MESSAGE):
        map_statement(Statement(UNHASHABLE, iri("urn:p"), iri("urn:o")), hg2)
    assert hg2.h.node_count == 0 and hg2.h.edge_count == 0


def test_map_schema_statement_refuses_an_unhashable_term_with_the_rules_text():
    with pytest.raises(ValueError, match=UNHASHABLE_MESSAGE):
        map_schema_statement(Statement(UNHASHABLE, iri(RDF_TYPE), iri("urn:C")), SchemaGraph())


def test_map_schema_statement_interns_nothing_for_a_statement_it_refuses():
    graph = SchemaGraph()
    with pytest.raises(ValueError, match=UNHASHABLE_MESSAGE):
        map_schema_statement(Statement(iri("urn:s"), iri(RDF_TYPE), UNHASHABLE), graph)
    assert graph.iris == [] and not graph.edges


def test_route_statement_refuses_an_unhashable_term_with_the_rules_text():
    with pytest.raises(ValueError, match=UNHASHABLE_MESSAGE):
        route_statement(Statement(iri("urn:s"), UNHASHABLE, iri("urn:o")))


def test_integrate_reports_a_term_with_a_foreign_field():
    foreign = NodePayload(PayloadKind.URI, iri="urn:a", lexical_form="x")
    hg2, report = integrate([Statement(iri("urn:a"), iri("urn:p"), iri("urn:o")),
                             Statement(foreign, iri("urn:p"), iri("urn:o"))])
    assert report.warnings == ["ForeignField: uri hypernode 3 cannot carry 'lexical_form'"]
    assert statement_of(hg2, 0) == Statement(iri("urn:a"), iri("urn:p"), iri("urn:o"))
    assert statement_of(hg2, 1) is None


def test_edge_kinds_hash_by_identity():
    assert EdgeKind.__hash__ is object.__hash__
    assert len({GraphEdge(0, 1, kind) for kind in EdgeKind}) == len(EdgeKind)


def test_statement_of_recovers_every_parsed_statement_of_the_acceptance_corpus():
    edges = 0
    for document in fuzz_corpus():
        statements, errors = parse_document("".join(format_statement(s) + "\n" for s in document))
        assert errors == []
        hg2, _ = integrate(statements)
        instance = [s for s in dict.fromkeys(statements) if route_statement(s) is Layer.INSTANCE]
        assert [statement_of(hg2, edge) for edge in range(hg2.h.edge_count)] == instance
        edges += len(instance)
    # Pinned so that a corpus without instance statements cannot pass vacuously.
    assert edges == 7893


# ----------------------------------------------------- map_schema_statement

def test_subclass_edge_points_child_to_parent():
    graph = SchemaGraph()
    added = map_schema_statement(
        Statement(iri("urn:Dog"), iri(RDFS_SUBCLASSOF), iri("urn:Animal")), graph
    )
    assert added is True
    dog, animal = graph.find("urn:Dog"), graph.find("urn:Animal")
    assert GraphEdge(dog, animal, EdgeKind.SUBCLASS_OF) in graph.edges


def test_range_edge_is_findable_through_constraint_of():
    graph = SchemaGraph()
    map_schema_statement(
        Statement(iri("urn:creator"), iri(RDFS_RANGE), iri(RDFS_LITERAL)), graph
    )
    creator = graph.find("urn:creator")
    assert graph.constraint_of(creator, EdgeKind.RANGE) == graph.find(RDFS_LITERAL)


def test_duplicate_schema_statement_adds_nothing():
    graph = SchemaGraph()
    statement = Statement(iri("urn:a"), iri(RDFS_DOMAIN), iri("urn:b"))
    assert map_schema_statement(statement, graph) is True
    assert map_schema_statement(statement, graph) is False
    assert graph.edge_count == 1


# -------------------------------------------------------------- connectors

def test_connector_generation_on_the_w3c_sample(w3c_statements):
    hg2 = fresh()
    for statement in w3c_statements:
        map_statement(statement, hg2)
    generate_connectors(hg2)
    assert len(hg2.connectors_e) == 3
    statement_anchor = hg2.g.find(RDF_STATEMENT)
    assert all(c.graph_node == statement_anchor for c in hg2.connectors_e)
    assert len(hg2.connectors_v) == 6
    predicate_anchor = hg2.g.find(RDF_PREDICATE)
    subject_anchor = hg2.g.find(RDF_SUBJECT)
    object_anchor = hg2.g.find(RDF_OBJECT)
    by_anchor: dict[int, int] = {}
    for connector in hg2.connectors_v:
        by_anchor[connector.graph_node] = by_anchor.get(connector.graph_node, 0) + 1
    assert by_anchor == {predicate_anchor: 2, subject_anchor: 1, object_anchor: 3}


def test_connector_generation_is_idempotent(w3c_statements):
    hg2 = fresh()
    for statement in w3c_statements:
        map_statement(statement, hg2)
    generate_connectors(hg2)
    before = (hg2.connectors_v, hg2.connectors_e)
    generate_connectors(hg2)
    assert (hg2.connectors_v, hg2.connectors_e) == before


def test_integrate_offers_each_connector_once(monkeypatch):
    offered = []
    add_connector = HG2.add_connector

    def counted(self, *connector):
        offered.append(connector)
        return add_connector(self, *connector)

    monkeypatch.setattr(HG2, "add_connector", counted)
    # <urn:d> is typed as rdf:subject, the anchor its subject role also
    # reaches, so one pair is offered by both the role and the typing pass
    typed_as_a_role, errors = parse_document(
        f"<urn:d> <{RDF_TYPE}> <{RDF_SUBJECT}> .\n<urn:d> <urn:p> <urn:d> .\n"
    )
    assert not errors
    hg2, _ = integrate(typed_as_a_role)
    assert NodeConnector(0, hg2.g.find(RDF_SUBJECT)) in hg2.connectors_v
    assert len(offered) == hg2.connector_count
    for corpus in fuzz_corpus()[:200]:
        offered.clear()
        hg2, _ = integrate(corpus)
        assert len(offered) == hg2.connector_count


def test_integrate_builds_no_connector_record(monkeypatch, w3c_statements):
    def refuse(self, *fields):
        raise AssertionError(f"{type(self).__name__}{fields} was built")

    for kind in (NodeConnector, EdgeConnector):
        monkeypatch.setattr(kind, "__init__", refuse)
    wired = 0
    for corpus in (w3c_statements, *fuzz_corpus()):
        hg2, report = integrate(corpus)
        assert hg2.connector_count == report.connectors_v + report.connectors_e
        wired += hg2.connector_count
    assert wired > 10_000
    # the writers and the loader read and store int pairs as well
    hg2, _ = integrate(w3c_statements)
    assert deserialize(serialize(hg2)) == hg2 and to_dot(hg2)
    with pytest.raises(AssertionError, match="^NodeConnector"):
        hg2.connectors_v  # the read view does build records


def test_empty_build_has_no_connectors():
    hg2 = fresh()
    generate_connectors(hg2)
    assert hg2.connector_count == 0


def test_generate_connectors_requires_the_vocabulary():
    hg2 = HG2()  # bare graph layer, no anchors
    hg2.h.add_node(NodePayload.uri("urn:s"))
    with pytest.raises(MissingAnchorError):
        generate_connectors(hg2)


def test_typing_connector_links_instance_node_to_its_class():
    text = (
        "<urn:d> <" + RDF_TYPE + "> <urn:Doc> .\n"
        '<urn:d> <urn:p> "x" .\n'
    )
    statements, errors = parse_document(text)
    assert not errors
    hg2, _ = integrate(statements)
    node = hg2.h.find(NodePayload.uri("urn:d"))
    class_node = hg2.g.find("urn:Doc")
    assert class_node in hg2.anchors_of_node(node)


def test_datatyped_literal_gets_a_datatype_connector():
    statements, _ = parse_document('<urn:s> <urn:p> "5"^^<urn:int> .\n')
    hg2, _ = integrate(statements)
    literal_node = hg2.h.find(NodePayload.literal("5", datatype_iri="urn:int"))
    anchors = hg2.anchors_of_node(literal_node)
    assert hg2.g.find("http://www.w3.org/1999/02/22-rdf-syntax-ns#datatype") in anchors


# ------------------------------------------------------------ classification

def positions(hg2: HG2, node: int) -> set[tuple[str, int]]:
    """Every (slot, position) the node fills, read from the edges it sits in."""
    return {
        (slot, position)
        for edge_id in hg2.h.incidence_of(node)
        for slot in ("head", "tail")
        for position, member in enumerate(getattr(hg2.h.edges[edge_id], slot))
        if member == node
    }


def test_incidence_and_payload_kind_place_a_node(w3c_statements):
    hg2 = fresh()
    for statement in w3c_statements:
        map_statement(statement, hg2)
    predicate = hg2.h.find(NodePayload.uri("http://purl.org/dc/elements/1.1/creator"))
    assert hg2.h.nodes[predicate].kind is PayloadKind.URI
    assert positions(hg2, predicate) == {("head", 0)}
    literal = hg2.h.find(NodePayload.literal("Dave Beckett"))
    assert hg2.h.nodes[literal].kind is PayloadKind.LITERAL
    assert positions(hg2, literal) == {("tail", 1)}
    with pytest.raises(UnknownNodeError):
        hg2.h.incidence_of(404)


def test_classify_blank_subject():
    hg2 = fresh()
    map_statement(Statement(NodePayload.blank("b"), iri("urn:p"), iri("urn:o")), hg2)
    blank = hg2.h.find(NodePayload.blank("b"))
    assert hg2.h.nodes[blank].kind is PayloadKind.BLANK
    assert positions(hg2, blank) == {("tail", 0)}


# ---------------------------------------------------------- validate_mapping

def test_mapper_output_always_validates_clean(w3c_statements):
    hg2 = fresh()
    for statement in w3c_statements:
        map_statement(statement, hg2)
    assert validate_mapping(hg2) == []
    assert validate_mapping(HG2()) == []


def test_injected_literal_in_head_is_reported():
    hg2 = HG2()
    lit = hg2.h.add_node(NodePayload.literal("v"))
    other = hg2.h.add_node(NodePayload.uri("urn:x"))
    hg2.h.add_hyperedge([lit], [other, other])
    kinds = [v.kind for v in validate_mapping(hg2)]
    assert kinds == ["LiteralInHead"]


def test_injected_blank_in_head_is_reported():
    hg2 = HG2()
    blank = hg2.h.add_node(NodePayload.blank("b"))
    other = hg2.h.add_node(NodePayload.uri("urn:x"))
    hg2.h.add_hyperedge([blank], [other, other])
    assert [v.kind for v in validate_mapping(hg2)] == ["BlankInHead"]


def test_head_slot_violations_come_in_head_order_with_their_messages():
    hg2 = HG2()
    lit = hg2.h.add_node(NodePayload.literal("v"))
    blank = hg2.h.add_node(NodePayload.blank("b"))
    other = hg2.h.add_node(NodePayload.uri("urn:x"))
    hg2.h.add_hyperedge([lit, blank], [other, other])
    hg2.h.add_hyperedge([blank, other, lit], [other, other])
    assert validate_mapping(hg2) == [
        Violation("EdgeArityViolation",
                  "hyperedge 0 has |head|=2, |tail|=2; statements need 1 and 2", edge=0),
        Violation("LiteralInHead",
                  "literal hypernode 0 occupies a head slot of hyperedge 0", node=0, edge=0),
        Violation("BlankInHead",
                  "blank hypernode 1 occupies a head slot of hyperedge 0", node=1, edge=0),
        Violation("EdgeArityViolation",
                  "hyperedge 1 has |head|=3, |tail|=2; statements need 1 and 2", edge=1),
        Violation("BlankInHead",
                  "blank hypernode 1 occupies a head slot of hyperedge 1", node=1, edge=1),
        Violation("LiteralInHead",
                  "literal hypernode 0 occupies a head slot of hyperedge 1", node=0, edge=1),
    ]


def test_injected_literal_subject_is_reported():
    hg2 = HG2()
    lit = hg2.h.add_node(NodePayload.literal("v"))
    pred = hg2.h.add_node(NodePayload.uri("urn:p"))
    hg2.h.add_hyperedge([pred], [lit, pred])
    assert [v.kind for v in validate_mapping(hg2)] == ["LiteralAsSubject"]


def test_wrong_arity_is_reported():
    hg2 = HG2()
    a = hg2.h.add_node(NodePayload.uri("urn:a"))
    b = hg2.h.add_node(NodePayload.uri("urn:b"))
    hg2.h.add_hyperedge([a], [b, b, b])
    hg2.h.add_hyperedge([a, b], [b, a])
    kinds = [v.kind for v in validate_mapping(hg2)]
    assert kinds == ["EdgeArityViolation", "EdgeArityViolation"]


def test_contradictory_literal_payload_is_reported():
    hg2 = HG2()
    node = hg2.h.add_node(
        NodePayload(PayloadKind.LITERAL, lexical_form="x", language_tag="en", datatype_iri="urn:dt"),
    )
    violations = validate_mapping(hg2)
    assert [v.kind for v in violations] == ["LanguageTagOnTyped"]
    assert violations[0].node == node


def test_incomplete_payloads_are_reported():
    hg2 = HG2()
    for kind in (PayloadKind.URI, PayloadKind.BLANK, PayloadKind.LITERAL):
        hg2.h.add_node(NodePayload(kind))
    hg2.h.add_node("opaque payloads have no required field")
    violations = validate_mapping(hg2)
    assert [(v.kind, v.node) for v in violations] == [
        ("IncompletePayload", 0),
        ("IncompletePayload", 1),
        ("IncompletePayload", 2),
    ]
    assert str(violations[1]) == "IncompletePayload: blank hypernode 1 has no blank_label"


# --------------------------------------------------------- check_domain_range

def constraint_example(include_typing: bool) -> HG2:
    text = CONSTRAINT_SCHEMA + (CONSTRAINT_TYPING if include_typing else "") + CONSTRAINT_DATA
    statements, errors = parse_document(text)
    assert not errors
    hg2, _ = integrate(statements)
    return hg2


def test_satisfied_domain_produces_no_warnings():
    assert check_domain_range(constraint_example(include_typing=True)) == []


def test_missing_typing_produces_exactly_one_domain_warning():
    warnings = check_domain_range(constraint_example(include_typing=False))
    assert len(warnings) == 1
    warning = warnings[0]
    assert warning.kind == "DomainUnsatisfied"
    assert warning.predicate_iri == "http://example.org/creator"
    assert warning.class_iri == "http://example.org/Doc"
    assert "DomainUnsatisfied" in str(warning)


def test_no_constraints_means_no_warnings():
    statements, _ = parse_document('<urn:s> <urn:p> "x" .\n<urn:s> <urn:q> <urn:o> .\n')
    hg2, _ = integrate(statements)
    assert check_domain_range(hg2) == []


def test_subclass_typing_satisfies_a_domain_on_the_parent():
    text = (
        "<urn:walks> <" + RDFS_DOMAIN + "> <urn:Animal> .\n"
        "<urn:Dog> <" + RDFS_SUBCLASSOF + "> <urn:Animal> .\n"
        "<urn:rex> <" + RDF_TYPE + "> <urn:Dog> .\n"
        "<urn:rex> <urn:walks> <urn:park> .\n"
    )
    statements, _ = parse_document(text)
    hg2, _ = integrate(statements)
    assert check_domain_range(hg2) == []


def test_literal_object_satisfies_range_of_literal_class():
    text = (
        "<urn:p> <" + RDFS_RANGE + "> <" + RDFS_LITERAL + "> .\n"
        '<urn:s> <urn:p> "text" .\n'
    )
    statements, _ = parse_document(text)
    hg2, _ = integrate(statements)
    assert check_domain_range(hg2) == []


def test_literal_object_fails_a_class_range():
    text = (
        "<urn:p> <" + RDFS_RANGE + "> <urn:Doc> .\n"
        '<urn:s> <urn:p> "text" .\n'
    )
    statements, _ = parse_document(text)
    hg2, _ = integrate(statements)
    warnings = check_domain_range(hg2)
    assert [w.kind for w in warnings] == ["RangeUnsatisfied"]


def test_untyped_iri_object_fails_a_class_range():
    text = (
        "<urn:p> <" + RDFS_RANGE + "> <urn:Doc> .\n"
        "<urn:s> <urn:p> <urn:thing> .\n"
    )
    statements, _ = parse_document(text)
    hg2, _ = integrate(statements)
    assert [w.kind for w in warnings_of(hg2)] == ["RangeUnsatisfied"]


def test_predicate_without_an_iri_is_skipped():
    hg2 = HG2(g=load_builtin_vocabulary())
    predicate = hg2.h.add_node(NodePayload(PayloadKind.URI))
    subject = hg2.h.add_node(NodePayload.uri("urn:s"))
    hg2.h.add_hyperedge([predicate], [subject, subject])
    assert check_domain_range(hg2) == []
    assert [v.kind for v in validate_mapping(hg2)] == ["IncompletePayload"]


def warnings_of(hg2: HG2) -> list[ConstraintWarning]:
    return check_domain_range(hg2)


# ---------------------------------------------------------------- integrate

def test_integrate_reports_the_w3c_sample_counts(w3c_statements):
    hg2, report = integrate(w3c_statements)
    assert report.statements_in == 3
    assert report.hyperedges_created == 3
    assert report.schema_edges_created == 0
    assert report.connectors_e == 3
    assert report.connectors_v == 6
    assert report.warnings == []
    assert hg2.frozen


def test_integrate_empty_input_leaves_builtin_vocabulary_only():
    hg2, report = integrate([])
    assert report.statements_in == 0
    assert hg2.h.node_count == 0
    assert hg2.h.edge_count == 0
    assert hg2.g.node_count == 13
    assert hg2.connector_count == 0


def test_integrate_splits_schema_and_instance():
    statements, _ = parse_document(
        "<urn:Dog> <" + RDFS_SUBCLASSOF + "> <urn:Animal> .\n"
        '<urn:rex> <urn:name> "Rex" .\n'
    )
    hg2, report = integrate(statements)
    assert report.hyperedges_created == 1
    assert report.schema_edges_created == 1


def test_integrate_output_is_frozen_and_deterministic(w3c_statements):
    first, _ = integrate(w3c_statements)
    second, _ = integrate(w3c_statements)
    assert serialize(first) == serialize(second)
    with pytest.raises(RuntimeError):
        first.h.add_node(NodePayload.uri("urn:late"))


def test_report_summary_and_dict(w3c_statements):
    _, report = integrate(w3c_statements)
    summary = report.summary()
    assert "statements in:        3" in summary
    assert "hyperedges created:   3" in summary
    data = report.to_dict()
    assert data["connectors_v"] == 6
    assert data["warnings"] == []
