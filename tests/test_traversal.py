"""Traversal queries: subject lookup, class membership, reachability paths."""
from __future__ import annotations

from hg2rdf import (
    HG2,
    NodePayload,
    deserialize,
    instances_of,
    integrate,
    parse_document,
    path_exists,
    reachable_from,
    serialize,
    statement_of,
    statements_about,
)
from oracles import naive_instances


def build(text: str) -> HG2:
    statements, errors = parse_document(text)
    assert not errors
    hg2, _ = integrate(statements)
    return hg2


SUBJECT = "http://www.w3.org/2001/sw/RDFCore/ntriples/"


def test_statements_about_finds_all_three_sample_edges(w3c_sample_text):
    hg2 = build(w3c_sample_text)
    result = statements_about(hg2, SUBJECT)
    assert result.items == (0, 1, 2)
    subjects = {statement_of(hg2, e).subject.iri for e in result.items}
    assert subjects == {SUBJECT}


def test_a_node_added_through_the_hypergraph_layer_is_found_by_every_reader():
    hg2 = HG2()
    subject = hg2.h.add_node(NodePayload.uri("urn:s"))
    predicate = hg2.h.add_node(NodePayload.uri("urn:p"))
    edge = hg2.h.add_hyperedge([predicate], [subject, subject])

    def answers(structure: HG2) -> tuple:
        return (
            structure.h.find(NodePayload.uri("urn:s")),
            statements_about(structure, "urn:s").items,
            structure.h.add_node(NodePayload.uri("urn:s")),
            structure.h.node_count,
        )

    before = answers(hg2)
    assert before == (subject, (edge,), subject, 2)
    assert answers(deserialize(serialize(hg2))) == before


def test_statements_about_unknown_iri_is_empty(w3c_sample_text):
    hg2 = build(w3c_sample_text)
    assert statements_about(hg2, "urn:absent").items == ()


def test_statements_about_ignores_object_occurrences(w3c_sample_text):
    # the publisher IRI appears only in an object slot
    hg2 = build(w3c_sample_text)
    assert statements_about(hg2, "http://www.w3.org/").items == ()


def test_statements_about_accepts_plain_strings(w3c_sample_text):
    hg2 = build(w3c_sample_text)
    assert statements_about(hg2, SUBJECT).items == (0, 1, 2)


def test_instances_of_walks_the_subclass_closure():
    hg2 = build(
        "<urn:Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <urn:Animal> .\n"
        "<urn:rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:Dog> .\n"
        '<urn:rex> <urn:name> "Rex" .\n'
    )
    rex = hg2.h.find(NodePayload.uri("urn:rex"))
    assert instances_of(hg2, "urn:Animal").items == (rex,)
    assert instances_of(hg2, "urn:Dog").items == (rex,)
    assert set(instances_of(hg2, "urn:Animal").items) == naive_instances(hg2, "urn:Animal")


def test_instances_of_monotone_up_the_hierarchy():
    hg2 = build(
        "<urn:Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <urn:Animal> .\n"
        "<urn:Cat> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <urn:Animal> .\n"
        "<urn:rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:Dog> .\n"
        "<urn:tom> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:Cat> .\n"
        '<urn:rex> <urn:name> "Rex" .\n'
        '<urn:tom> <urn:name> "Tom" .\n'
    )
    dogs = set(instances_of(hg2, "urn:Dog").items)
    cats = set(instances_of(hg2, "urn:Cat").items)
    animals = set(instances_of(hg2, "urn:Animal").items)
    assert dogs <= animals and cats <= animals
    assert animals == dogs | cats


def test_instances_of_unknown_or_empty_class():
    hg2 = build('<urn:s> <urn:p> "x" .\n')
    assert instances_of(hg2, "urn:NoSuchClass").items == ()
    empty, _ = integrate([])
    resource = "http://www.w3.org/2000/01/rdf-schema#Resource"
    assert instances_of(empty, resource).items == ()


def test_path_exists_follows_hyperedges_forward():
    # predicates sit in head slots, so reachability flows predicate -> terms
    hg2 = build("<urn:s> <urn:p> <urn:o> .\n")
    result = path_exists(hg2, "urn:p", "urn:o")
    assert result.found is True
    assert result.edges == (0,)
    assert path_exists(hg2, "urn:o", "urn:p").found is False


def test_path_witness_on_the_seven_node_example():
    hg2 = HG2()
    node = {i: hg2.h.add_node(NodePayload.uri(f"urn:n{i}")) for i in range(1, 8)}
    hg2.h.add_hyperedge([node[1], node[2]], [node[3]])
    hg2.h.add_hyperedge([node[3], node[4]], [node[5], node[6]])
    hg2.h.add_hyperedge([node[4], node[5]], [node[7]])
    hg2.h.add_hyperedge([node[5], node[6]], [node[7]])
    result = path_exists(hg2, "urn:n1", "urn:n7")
    assert result.found is True
    # breadth-first with ascending edge ids: the witness is reproducible
    assert result.edges == (0, 1, 2)
    assert path_exists(hg2, "urn:n1", "urn:n7") == result
    assert path_exists(hg2, "urn:n7", "urn:n1").found is False


def test_path_reflexive_convention():
    hg2 = build('<urn:s> <urn:p> "x" .\n')
    result = path_exists(hg2, "urn:s", "urn:s")
    assert result == (True, ()) or (result.found is True and result.edges == ())


def test_path_unknown_terms_are_unreachable():
    hg2 = build('<urn:s> <urn:p> "x" .\n')
    assert path_exists(hg2, "urn:ghost", "urn:s").found is False
    assert path_exists(hg2, "urn:s", "urn:ghost").found is False


def test_path_disconnected_terms():
    hg2 = build(
        "<urn:a> <urn:p> <urn:b> .\n"
        "<urn:c> <urn:q> <urn:d> .\n"
    )
    assert path_exists(hg2, "urn:a", "urn:d").found is False


def test_reachable_from_matches_forward_reachable():
    hg2 = build(
        "<urn:s> <urn:p> <urn:o> .\n"
        "<urn:o2> <urn:o> <urn:z> .\n"  # o in a head slot
    )
    start = hg2.h.find(NodePayload.uri("urn:p"))
    expected = tuple(sorted(hg2.h.forward_reachable(start)))
    assert reachable_from(hg2, "urn:p").items == expected
    assert reachable_from(hg2, "urn:nowhere").items == ()


def test_queries_leave_the_structure_untouched(w3c_sample_text):
    hg2 = build(w3c_sample_text)
    before = serialize(hg2)
    statements_about(hg2, SUBJECT)
    instances_of(hg2, "urn:Anything")
    reachable_from(hg2, SUBJECT)
    path_exists(hg2, SUBJECT, "http://www.w3.org/")
    assert serialize(hg2) == before
