"""hg2/1 reader and writer against the oracles they replaced.

``serialize`` must write the oracle's bytes, and ``deserialize`` must build
the same structure with the same indexes, or raise the same exception with
the same message.  Inputs: hypothesis structures with awkward payloads, the
seeded benchmark corpora, and a seeded mutation fuzz over documents.
"""
from __future__ import annotations

import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hg2rdf import (
    HG2,
    EdgeConnector,
    EdgeKind,
    NodeConnector,
    NodePayload,
    SchemaViolation,
    SerializationError,
    UnknownKind,
    deserialize,
    instances_of,
    integrate,
    parse_document,
    path_exists,
    reachable_from,
    serialize,
    statements_about,
    to_dot,
)
from hg2rdf.ntriples import _BLANK_LABEL, _LANG_TAG
from conftest import FOREIGN_FIELD_DOCUMENT
from oracles import (
    assert_same_indexes,
    oracle_deserialize,
    oracle_serialize,
    oracle_to_dot,
    random_structure,
)

# Characters JSON escapes or that UTF-8 and JavaScript treat specially.
_AWKWARD = ('"', "\\", "\x00", "\x08", "\t", "\n", "\x1f", "\x7f", "\u2028", "\u2029",
            "é", "\U0001f600", "\ud800", "\udfff")
texts = st.text(st.one_of(st.characters(), st.sampled_from(_AWKWARD)), max_size=6)
opaque_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)
# Well-formed terms: an IRI is not empty, and a blank label and a language
# tag have the parser's syntax.
iris = texts.filter(bool)
payloads = st.one_of(
    st.builds(NodePayload.uri, iris),
    st.builds(NodePayload.blank, st.from_regex(_BLANK_LABEL, fullmatch=True)),
    st.builds(NodePayload.literal, texts, st.none() | st.from_regex(_LANG_TAG, fullmatch=True)),
    st.builds(lambda form, datatype: NodePayload.literal(form, datatype_iri=datatype), texts, iris),
    opaque_values,
)


@st.composite
def structures(draw) -> HG2:
    hg2 = HG2()
    for payload in draw(st.lists(payloads, max_size=6)):
        # a term is one hypernode (a repeat is refused on load); opaque
        # payloads may repeat
        if isinstance(payload, NodePayload):
            hg2.h.add_node(payload)
        else:
            hg2.h._append_nodes((payload,))
    if hg2.h.node_count:
        slot = st.lists(st.integers(0, hg2.h.node_count - 1), min_size=1, max_size=3)
        for head, tail in draw(st.lists(st.tuples(slot, slot), max_size=5)):
            hg2.h.add_hyperedge(head, tail)
    for iri in draw(st.lists(texts, max_size=5, unique=True)):
        hg2.g.intern(iri)
    if hg2.g.node_count:
        graph_node = st.integers(0, hg2.g.node_count - 1)
        for src, dst, kind in draw(st.lists(
                st.tuples(graph_node, graph_node, st.sampled_from(EdgeKind)), max_size=5)):
            hg2.g.add_edge(src, dst, kind)
        for count, kind in ((hg2.h.node_count, NodeConnector),
                            (hg2.h.edge_count, EdgeConnector)):
            if count:
                pairs = st.tuples(st.integers(0, count - 1), graph_node)
                for source, target in draw(st.lists(pairs, max_size=5)):
                    hg2.add_connector(source, target, kind)
    return hg2


def outcome(load, text: str):
    """The structure ``load`` builds, or the class and message it raises."""
    try:
        return load(text)
    except Exception as exc:  # compared, never swallowed: see assert_same_outcome
        return type(exc), str(exc)


def assert_same_outcome(text: str) -> None:
    new, old = outcome(deserialize, text), outcome(oracle_deserialize, text)
    if isinstance(old, HG2):
        assert isinstance(new, HG2), new
        assert new == old
        assert_same_indexes(new, old)
    else:
        assert new == old
        assert issubclass(new[0], SerializationError), new


@settings(max_examples=150, deadline=None)
@given(structures())
def test_serialize_writes_the_oracles_bytes(hg2):
    text = serialize(hg2)
    assert text == oracle_serialize(hg2)
    assert_same_outcome(text)


def test_serialize_writes_the_oracles_bytes_for_empty_sections_and_opaque_containers():
    hg2 = HG2()
    assert serialize(hg2) == oracle_serialize(hg2)
    for payload in ([], {}, [[], {}], {"k": [1, {"x": None}], "": "\u2028"}, -0.0, 10**30):
        hg2.h.add_node(payload)
    hg2.h.add_hyperedge([0, 1, 2], [2])
    assert serialize(hg2) == oracle_serialize(hg2)
    assert_same_outcome(serialize(hg2))


def test_serialize_writes_the_oracles_bytes_for_every_hyperedge_shape():
    # one template per (len(head), len(tail)); each shape is met twice, apart
    rng = random.Random(7)
    hg2 = HG2()
    for node in range(12):
        hg2.h.add_node(node)
    shapes = [(heads, tails) for heads in range(1, 5) for tails in range(1, 7)]
    for heads, tails in shapes + shapes[::-1]:
        hg2.h.add_hyperedge(rng.choices(range(12), k=heads), rng.choices(range(12), k=tails))
    assert serialize(hg2) == oracle_serialize(hg2)
    assert deserialize(serialize(hg2)) == hg2


@pytest.mark.parametrize("number", ["1e400", "-1e400"])
def test_both_readers_refuse_a_number_that_overflows_a_float(number):
    hg2 = HG2()
    hg2.h.add_node([1.5])
    text = serialize(hg2).replace("1.5", number)
    refused = (SchemaViolation, f"number {number} overflows a float")
    assert outcome(oracle_deserialize, text) == refused
    assert outcome(deserialize, text) == refused


def test_both_readers_refuse_a_term_listed_as_two_hypernodes():
    hg2 = HG2()
    hg2.h._append_nodes(("opaque", NodePayload.uri("urn:a"), "opaque", NodePayload.uri("urn:b")))
    hg2.h.add_hyperedge([1], [3])
    assert outcome(deserialize, serialize(hg2)) == outcome(oracle_deserialize, serialize(hg2))
    assert isinstance(outcome(deserialize, serialize(hg2)), HG2)  # opaque repeats load
    hg2.h._append_nodes((NodePayload.uri("urn:b"), NodePayload.uri("urn:a")))
    refused = (SchemaViolation, "hypernodes 3 and 4 carry the same term")
    assert outcome(deserialize, serialize(hg2)) == refused
    assert outcome(oracle_deserialize, serialize(hg2)) == refused


def test_both_readers_drop_one_leading_byte_order_mark():
    hg2 = HG2()
    hg2.h.add_hyperedge([hg2.h.add_node(NodePayload.uri("urn:p"))], [hg2.h.add_node([1])])
    text = serialize(hg2)
    assert deserialize("\ufeff" + text) == hg2
    assert_same_outcome("\ufeff" + text)
    # only one leading mark is a byte order mark; a second one is not JSON
    assert_same_outcome("\ufeff\ufeff" + text)
    assert outcome(deserialize, "\ufeff\ufeff" + text)[0] is SchemaViolation


def test_both_readers_refuse_a_term_field_foreign_to_its_kind():
    refused = (SchemaViolation, "uri hypernode cannot carry 'lexical_form'")
    assert outcome(deserialize, FOREIGN_FIELD_DOCUMENT) == refused
    assert outcome(oracle_deserialize, FOREIGN_FIELD_DOCUMENT) == refused


@pytest.mark.parametrize("term, name", [
    (NodePayload.uri("urn:a"), "blank_label"),
    (NodePayload.uri("urn:a"), "datatype_iri"),
    (NodePayload.blank("b"), "iri"),
    (NodePayload.blank("b"), "language_tag"),
    (NodePayload.literal("x"), "iri"),
    (NodePayload.literal("x", language_tag="en"), "blank_label"),
])
def test_each_kind_refuses_each_field_it_does_not_carry(term, name):
    hg2 = HG2()
    for index in range(3):
        hg2.h.add_node(NodePayload.uri(f"urn:n{index}"))
    hg2.h.add_node(term)
    document = json.loads(serialize(hg2))
    document["hypernodes"][3][name] = None  # absent and null are alike
    assert_same_outcome(json.dumps(document))
    assert deserialize(json.dumps(document)) == hg2
    document["hypernodes"][3][name] = "urn:a"
    refused = (SchemaViolation, f"{term.kind.value} hypernode cannot carry '{name}'")
    assert outcome(deserialize, json.dumps(document)) == refused
    assert outcome(oracle_deserialize, json.dumps(document)) == refused


def misspelled_language_tag(with_opaque: bool) -> dict:
    """A tagged literal's document with ``language_tag`` spelled
    ``langauge_tag``, which would load as an untagged literal."""
    hg2 = HG2()
    hg2.h.add_node(NodePayload.uri("urn:a"))
    hg2.h.add_node(NodePayload.literal("chat", language_tag="fr"))
    if with_opaque:  # the section then goes through the record decoder
        hg2.h.add_node(["opaque"])
    hg2.h.add_hyperedge([0], [0, 1])
    document = json.loads(serialize(hg2))
    record = document["hypernodes"][1]
    record["langauge_tag"] = record.pop("language_tag")
    return document


@pytest.mark.parametrize("document, refused", [
    (misspelled_language_tag(False), "literal hypernode cannot carry 'langauge_tag'"),
    (misspelled_language_tag(True), "literal hypernode cannot carry 'langauge_tag'"),
    ({**json.loads(FOREIGN_FIELD_DOCUMENT), "hypernodes": [
        {"id": 0, "kind": "uri", "iri": "urn:a", "value": 5, "lang": "en"}]},
     "uri hypernode cannot carry 'value'"),
    ({**json.loads(FOREIGN_FIELD_DOCUMENT), "hypernodes": [
        {"id": 0, "kind": "opaque", "value": 5, "lang": "en"}], "hyperedges": []},
     "opaque hypernode cannot carry 'lang'"),
    ({**json.loads(FOREIGN_FIELD_DOCUMENT), "hyperedge": []}, "unknown section 'hyperedge'"),
    ({**json.loads(FOREIGN_FIELD_DOCUMENT), "hypernodes": [
        {"id": 0, "kind": "opaque", "value": [1], "iri": "urn:b"}], "hyperedges": []},
     "opaque hypernode cannot carry 'iri'"),
    ({**json.loads(FOREIGN_FIELD_DOCUMENT), "meta": {"format": "hg2/1", "note": "x"}},
     "meta cannot carry 'note'"),
    (json.loads(serialize(integrate(parse_document(
        '<urn:s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:C> .\n'
        '<urn:s> <urn:p> "x" .\n')[0])[0])), None),
], ids=["misspelled-tag", "misspelled-tag-beside-opaque", "uri-value", "opaque-stray-key",
        "unknown-section", "opaque-term-key", "meta-key", "each-section-key"])
def test_both_readers_refuse_a_key_or_section_the_format_does_not_have(document, refused):
    if refused is None:  # a key added to the last record of each section in turn
        for section in ("hyperedges", "graph_nodes", "graph_edges", "connectors_v", "connectors_e"):
            index = len(document[section]) - 1
            edited = {**document, section: [*document[section][:-1],
                                            {**document[section][-1], "note": None}]}
            assert_refused_alike(json.dumps(edited), f"{section} entry {index} cannot carry 'note'")
        return
    assert_refused_alike(json.dumps(document), refused)


def assert_refused_alike(text: str, refused: str) -> None:
    assert outcome(deserialize, text) == (SchemaViolation, refused)
    assert outcome(oracle_deserialize, text) == (SchemaViolation, refused)


@pytest.mark.parametrize("kind", [1, True, None, ["t"], {"k": 1}, "x"])
def test_both_readers_refuse_a_graph_edge_kind_outside_the_vocabulary(kind):
    hg2 = HG2()
    hg2.g.add_edge(hg2.g.intern("urn:a"), hg2.g.intern("urn:b"), EdgeKind.TYPE)
    document = json.loads(serialize(hg2))
    document["graph_edges"][0]["kind"] = kind
    text = json.dumps(document)
    refused = (UnknownKind, f"unknown graph edge kind {kind!r}")
    assert outcome(deserialize, text) == refused
    assert outcome(oracle_deserialize, text) == refused


_BAD_VALUES = (None, True, 1.5, -1, 10**30, "x", [0], {"a": 0}, "\ud800", float("nan"))


def mutate(document: dict, rng: random.Random) -> None:
    """Replace one field or one section, or drop one key, in place."""
    sections = [name for name, value in document.items() if isinstance(value, list) and value]
    roll = rng.random()
    if roll < 0.15 or not sections:
        document[rng.choice(list(document))] = rng.choice(_BAD_VALUES)
        return
    record = rng.choice(document[rng.choice(sections)])
    key = rng.choice(list(record))
    if roll < 0.3:
        del record[key]
    elif isinstance(record[key], list) and record[key] and roll < 0.6:
        record[key][rng.randrange(len(record[key]))] = rng.choice(_BAD_VALUES)
    else:
        record[key] = rng.choice(_BAD_VALUES)


def test_mutated_documents_fail_alike_in_both_readers():
    rng = random.Random(8088)
    failures = 0
    for _ in range(1500):
        document = json.loads(serialize(random_structure(rng)))
        mutate(document, rng)
        text = json.dumps(document)
        assert_same_outcome(text)
        failures += not isinstance(outcome(deserialize, text), HG2)
    assert failures > 1000  # the fuzz reaches the error paths, not just valid loads
    keyed = 0
    for _ in range(100):  # a key the format does not have, in meta or one record of a section
        document = json.loads(serialize(random_structure(rng)))
        for section, value in document.items():
            records = [value] if section == "meta" else value
            if records:
                record = rng.choice(records)
                record["note"] = rng.choice(_BAD_VALUES)
                text = json.dumps(document)
                del record["note"]
                assert_same_outcome(text)
                assert not isinstance(outcome(deserialize, text), HG2)
                keyed += 1
    assert keyed > 400


@pytest.fixture(scope="module")
def loads(bench_corpora) -> dict[str, tuple[HG2, str, HG2, HG2]]:
    """Per workload: the built structure, its document, and the document
    loaded by ``deserialize`` and by the oracle."""
    result = {}
    for name, corpus in bench_corpora.items():
        statements = []
        for file_name in [*corpus.schema_inputs, *corpus.inputs]:
            statements += parse_document(corpus.files[file_name])[0]
        hg2 = integrate(statements)[0]
        text = serialize(hg2)
        result[name] = hg2, text, deserialize(text), oracle_deserialize(text)
    return result


@pytest.mark.parametrize("workload", ["ingest", "validate", "query"])
def test_bench_corpora_write_and_load_as_the_oracles_do(loads, workload):
    hg2, text, new, old = loads[workload]
    assert text == oracle_serialize(hg2)
    assert new == old == hg2
    assert_same_indexes(new, old)


@pytest.mark.parametrize("workload", ["ingest", "validate", "query"])
def test_bench_corpora_stream_the_oracles_text(loads, workload):
    hg2, text, _, _ = loads[workload]  # text == oracle_serialize(hg2), tested above
    for render, joined in ((serialize, text), (to_dot, oracle_to_dot(hg2))):
        buffer = io.StringIO()
        render(hg2, buffer)
        assert buffer.getvalue() == joined


def test_queries_answer_alike_on_both_loads_of_the_query_corpus(bench_corpora, loads):
    corpus = bench_corpora["query"]
    _, _, new, old = loads["query"]
    entities, properties = corpus.entities, corpus.properties
    queries = [
        *((statements_about, iri) for iri in entities[::25]),
        *((instances_of, iri) for iri in corpus.classes[::4]),
        *((reachable_from, iri) for iri in [*properties, *entities[::100]]),
        *((path_exists, source, entities[i * 37 % len(entities)])
          for i, source in enumerate(properties)),
        *((path_exists, source, target) for source, target in zip(properties, properties[1:])),
    ]
    found = 0
    for query, *args in queries:
        answer = query(new, *args)
        assert answer == query(old, *args), (query.__name__, args)
        found += bool(answer.edges if query is path_exists else answer.items)
    assert found > len(queries) // 2
