"""The term rule's verdict, given once per section by the node writer.

``Hypergraph._append_nodes`` judges each section it appends with the column
form of the term rule, ``_malformed_terms``, and refuses a section that
holds a malformed term, so no structure holds one and no reader judges a
node again.  Here the writer meets a model that judges every payload afresh
with ``oracles.malformed_term``, on random structures and sections with
opaque and malformed payloads: a section is refused exactly when the model
finds a malformed term in it, with the first one's message, and nothing is
written; the column form gives the per-term rule's verdict term by term;
and a count pins how often the write path asks either form.
"""
from __future__ import annotations

import io
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hg2rdf import (
    HG2,
    NodePayload,
    ParseError,
    PayloadKind,
    SchemaViolation,
    Statement,
    deserialize,
    format_term,
    integrate,
    parse_document,
    parse_line,
    serialize,
    to_dot,
    validate_mapping,
)
from hg2rdf.cli import main
from hg2rdf.mapper import SCHEMA_PREDICATES
from hg2rdf.ntriples import _BLANK_LABEL, _LANG_TAG, _malformed_terms, _term_kind, _term_kinds, _term_problem
from oracles import (
    assert_refused_unchanged,
    malformed_term,
    oracle_deserialize,
    oracle_malformed_terms,
    oracle_serialize,
    oracle_to_dot,
    random_structure,
)


def assert_the_writer_agrees_with_the_model(hg2: HG2, section: list) -> None:
    """The section is refused exactly when the model finds a malformed term
    in it, with the first one's message, and nothing is written; either
    way the structure holds no malformed term, and the readers answer as
    their oracles do."""
    problem = next(filter(None, map(malformed_term, section)), None)
    if problem is None:
        start = hg2.h.node_count
        assert hg2.h._append_nodes(section) == start
        assert list(hg2.h.nodes[start:]) == section
    else:
        assert_refused_unchanged(hg2, problem[1], lambda: hg2.h._append_nodes(section))
    assert not any(map(malformed_term, hg2.h.nodes))
    assert all(violation.edge is not None for violation in validate_mapping(hg2))
    assert to_dot(hg2) == oracle_to_dot(hg2)
    out = io.StringIO()
    assert serialize(hg2, out) is None
    assert out.getvalue() == oracle_serialize(hg2)


# Terms of every sort: well formed, malformed (each failure of the rule,
# the syntax of a label, a tag and an IRI among them), terms of no known
# kind, opaque payloads, and plain tuples that equal a term or look like one.
_well_formed = st.one_of(
    st.builds(NodePayload.uri, st.sampled_from(["urn:a", "urn:b", "x y"])),
    st.builds(NodePayload.blank, st.from_regex(_BLANK_LABEL, fullmatch=True)),
    st.builds(NodePayload.literal, st.sampled_from(["", "v"]),
              st.none() | st.from_regex(_LANG_TAG, fullmatch=True)),
    st.builds(lambda form: NodePayload.literal(form, datatype_iri="urn:dt"), st.sampled_from(["", "5"])),
)
_odd = st.sampled_from([None, "", "a", "a b", "en-", 5, True])
_malformed = st.one_of(
    st.builds(NodePayload, st.sampled_from(PayloadKind), _odd, _odd, _odd, _odd, _odd),
    st.sampled_from([NodePayload.blank("a b"), NodePayload.blank(""), NodePayload.literal("x", "en us"),
                     NodePayload.literal("x", ""), NodePayload.uri(""),
                     NodePayload.literal("x", datatype_iri=""), NodePayload("uri", iri="urn:x"),
                     NodePayload(["uri"], iri="urn:x"), NodePayload.uri(["a"])]),
)
_opaque = st.sampled_from(["urn:a", 1, None, ["a"], {"k": 1},
                           (PayloadKind.URI, "urn:a", None, None, None, None),
                           (PayloadKind.BLANK, None, "a b", None, None, None), ()])
_terms = st.one_of(_well_formed, _malformed)


@given(st.integers(0, 2**32), st.lists(st.one_of(_well_formed, _malformed, st.sampled_from(["opaque", 7, ["a"]])),
                                      max_size=6))
@settings(max_examples=200, deadline=None)
def test_the_node_writer_refuses_a_section_exactly_when_the_model_finds_a_malformed_term(seed, section):
    assert_the_writer_agrees_with_the_model(random_structure(random.Random(seed)), section)


def test_the_node_writer_refuses_a_section_with_a_malformed_term_and_writes_nothing():
    hg2 = HG2()
    hg2.h.add_node(NodePayload.uri("urn:a"))
    assert_refused_unchanged(hg2, "term field 'iri' must be a string", lambda: hg2.h.add_node(NodePayload.uri(5)))
    section = [NodePayload.blank(None), NodePayload.uri("urn:b"), NodePayload.uri(["b"])]
    assert_refused_unchanged(hg2, "blank term has no blank_label", lambda: hg2.h._append_nodes(section))
    assert_the_writer_agrees_with_the_model(hg2, section)

    # every section is judged, whoever appends it
    section = [NodePayload.uri("urn:c"), NodePayload.uri(7), NodePayload.blank("a b")]
    assert_refused_unchanged(hg2, "term field 'iri' must be a string", lambda: hg2.h._append_nodes(section))
    assert hg2.h._append_nodes([NodePayload.uri("urn:c"), NodePayload.blank("ab")]) == 1
    assert_the_writer_agrees_with_the_model(hg2, [NodePayload.uri("urn:d")])


def test_the_write_path_judges_each_section_as_one_column(bench_corpora, monkeypatch):
    """On the seed-1 ingest corpus ``integrate`` makes two passes of the
    term rule's column form, one over the subjects and objects of the
    statements with a schema predicate (in routing) and one over the
    hypernode section; ``deserialize`` makes one, over its hypernode
    section; writing and rendering make none.  No term is judged on its
    own anywhere on that path."""
    corpus = bench_corpora["ingest"]
    statements = [statement for name in (*corpus.schema_inputs, *corpus.inputs)
                  for statement in parse_document(corpus.files[name])[0]]
    calls, passes = [], []

    def counted(*args):
        calls.append(args)
        return _term_problem(*args)

    def column(payloads):
        passes.append(len(payloads))
        return _malformed_terms(payloads)

    for rule, stand_in, holders in ((_term_problem, counted, {"ntriples", "mapper", "hg2", "hypergraph"}),
                                    (_malformed_terms, column, {"ntriples", "mapper", "hypergraph"})):
        modules = [module for name, module in sorted(sys.modules.items())
                   if name.startswith("hg2rdf.") and getattr(module, rule.__name__, None) is rule]
        assert {module.__name__ for module in modules} == {f"hg2rdf.{name}" for name in holders}
        for module in modules:
            monkeypatch.setattr(module, rule.__name__, stand_in)

    built, _ = integrate(statements)
    schema_ends = 2 * sum(statement.predicate.iri in SCHEMA_PREDICATES for statement in statements)
    assert (built.h.node_count, passes, calls) == (9_192, [schema_ends, 9_192], [])
    assert schema_ends == 5_568
    passes.clear()
    text = serialize(built)
    to_dot(built)
    loaded = deserialize(text)
    assert validate_mapping(loaded) == []
    assert serialize(loaded) == text
    to_dot(loaded)
    assert (passes, calls) == ([9_192], [])


def test_a_section_with_an_opaque_record_is_judged_once_on_load(monkeypatch):
    """An opaque record sends a hypernodes section through the per-record
    decoder, which checks kinds and keys only: the node writer's one pass
    judges each record once.  Only a refused section costs more calls: one
    for the writer's message, then, for the reader's message, one per
    record up to the malformed term and one for its wording."""
    hg2 = HG2()
    for i in range(5):
        hg2.h.add_node(NodePayload.uri(f"urn:n{i}"))
    hg2.h.add_node(["opaque"])
    text = serialize(hg2)
    calls = []

    def counted(*args):
        calls.append(args)
        return _term_problem(*args)

    for holder in ("ntriples", "hg2", "hypergraph"):
        monkeypatch.setattr(f"hg2rdf.{holder}._term_problem", counted)
    assert deserialize(text) == hg2
    assert len(calls) == 6
    calls.clear()
    document = json.loads(text)
    document["hypernodes"][2]["iri"] = ""
    with pytest.raises(SchemaViolation, match="^uri hypernode field 'iri' is empty$"):
        deserialize(json.dumps(document))
    assert len(calls) == 6 + 1 + 3 + 1



@given(st.lists(_terms, max_size=8) | st.lists(st.one_of(_terms, _opaque), max_size=8))
@settings(max_examples=500, deadline=None)
def test_the_column_rule_gives_the_term_rules_verdict_term_by_term(batch):
    verdicts = oracle_malformed_terms(batch)
    assert _malformed_terms(batch) == [position for position, _ in verdicts]
    assert verdicts == [(position, problem) for position, payload in enumerate(batch)
                        if (problem := malformed_term(payload)) is not None]
    assert _term_kinds(batch) == list(map(_term_kind, batch))


# Each lexical form the parser refuses, as a line's term and as the term a
# caller can build: its slot, the term, the field and the end of the rule's
# message.
_UNREADABLE = [
    ("_:a b", "subject", NodePayload.blank("a b"), "blank_label", "is not a blank node label"),
    ("_:", "subject", NodePayload.blank(""), "blank_label", "is not a blank node label"),
    ('"x"@en us', "object", NodePayload.literal("x", "en us"), "language_tag", "is not a language tag"),
    ('"x"@', "object", NodePayload.literal("x", ""), "language_tag", "is not a language tag"),
    ("<>", "subject", NodePayload.uri(""), "iri", "is empty"),
    ('"x"^^<>', "object", NodePayload.literal("x", datatype_iri=""), "datatype_iri", "is empty"),
]
_FILLERS = {"subject": NodePayload.uri("urn:s"), "object": NodePayload.uri("urn:o")}


@pytest.mark.parametrize(("spelling", "slot", "term", "field", "what"), _UNREADABLE)
def test_a_term_the_parser_refuses_is_refused_at_every_door(tmp_path, capsys, spelling, slot, term, field,
                                                            what):
    line = f"{spelling} <urn:p> <urn:o> ." if slot == "subject" else f"<urn:s> <urn:p> {spelling} ."
    assert isinstance(parse_line(line), ParseError)
    kind = term.kind.value
    with pytest.raises(ValueError, match=f"^{re.escape(f'{kind} term field {field!r} {what}')}$"):
        format_term(term)

    # no structure takes the term: integrate and the node writer refuse it
    message = f"{kind} term field {field!r} {what}"
    statement = Statement(**{**_FILLERS, slot: term}, predicate=NodePayload.uri("urn:p"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate([statement])
    hg2 = HG2()
    assert_refused_unchanged(hg2, message, lambda: hg2.h.add_node(term))

    # a document that holds the term does not load, so no query answers from it
    filler = {"blank_label": NodePayload.blank("ab"), "language_tag": NodePayload.literal("x", "en"),
              "iri": NodePayload.uri("urn:x"), "datatype_iri": NodePayload.literal("x", datatype_iri="urn:dt")}
    document = json.loads(serialize(integrate([Statement(**{**_FILLERS, slot: filler[field]},
                                                         predicate=NodePayload.uri("urn:p"))])[0]))
    document["hypernodes"][0 if slot == "subject" else 2][field] = getattr(term, field)
    text = json.dumps(document)
    refusal = f"{kind} hypernode field {field!r} {what}"
    for load in (deserialize, oracle_deserialize):
        with pytest.raises(SchemaViolation, match=f"^{re.escape(refusal)}$"):
            load(text)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert main(["query", "-i", str(path), "--reachable", "urn:p"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert refusal in captured.err
