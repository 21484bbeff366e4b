"""DOT rendering: vertex inventory, link styles, grammar validity, escaping."""
from __future__ import annotations

import re

from hg2rdf import HG2, integrate, parse_document, to_dot
from oracles import check_dot


def test_demo_structure_inventory(demo_structure):
    hg2, _, _ = demo_structure
    text = to_dot(hg2)
    assert len(re.findall(r"^\s*h\d+ \[", text, re.M)) == 7
    assert len(re.findall(r"^\s*e\d+ \[shape=box", text, re.M)) == 4
    assert len(re.findall(r"^\s*g\d+ \[", text, re.M)) == 6
    assert len(re.findall(r"style=dashed", text)) == 6
    assert check_dot(text) == []


def test_two_clusters_are_always_present():
    text = to_dot(HG2())
    assert "cluster_hypergraph" in text
    assert "cluster_graph" in text
    assert check_dot(text) == []


def test_head_links_are_bold_and_point_at_the_junction():
    statements, _ = parse_document("<urn:s> <urn:p> <urn:o> .\n")
    hg2, _ = integrate(statements)
    text = to_dot(hg2)
    head_links = re.findall(r"h(\d+) -> e0 \[style=bold\]", text)
    assert len(head_links) == 1
    tail_links = re.findall(r"e0 -> h\d+;", text)
    assert len(tail_links) == 2
    assert check_dot(text) == []


def test_graph_edges_carry_kind_labels():
    statements, _ = parse_document(
        "<urn:Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <urn:Animal> .\n"
    )
    hg2, _ = integrate(statements)
    text = to_dot(hg2)
    assert re.search(r'g\d+ -> g\d+ \[label="s"\]', text)
    assert check_dot(text) == []


def test_labels_with_quotes_and_backslashes_stay_well_formed():
    statements, errors = parse_document('<urn:s> <urn:p> "say \\"hi\\" \\\\ there\\n" .\n')
    assert not errors
    hg2, _ = integrate(statements)
    text = to_dot(hg2)
    # every label line must still satisfy the DOT grammar after escaping
    assert check_dot(text) == []
    assert "say" in text and "there" in text


def test_integrated_build_renders_valid_dot(w3c_sample_text):
    statements, _ = parse_document(w3c_sample_text)
    hg2, _ = integrate(statements)
    assert check_dot(to_dot(hg2)) == []


def test_output_is_deterministic(demo_structure):
    hg2, _, _ = demo_structure
    assert to_dot(hg2) == to_dot(hg2)


def test_control_characters_in_labels_are_written_as_visible_escapes():
    statements, errors = parse_document(
        "<urn:x\\u0000y\\u000Dz> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <urn:C> .\n"
    )
    assert not errors
    hg2, _ = integrate(statements)
    opaque = HG2()
    opaque.h.add_node("tab\there")
    for text in (to_dot(hg2), to_dot(opaque)):
        assert not any(ord(ch) < 0x20 for ch in text.replace("\n", ""))
        assert check_dot(text) == []
    assert '    g13 [label="urn:x\\\\u0000y\\\\u000Dz"];\n' in to_dot(hg2)
    assert '    h0 [label="tab\\\\u0009here"];\n' in to_dot(opaque)
