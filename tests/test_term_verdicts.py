"""The term rule's verdicts, filed once per hypernode by the node writer.

``Hypergraph._append_nodes`` judges each new hypernode and files the ids of
the malformed ones; ``validate_mapping``, ``serialize`` and ``to_dot`` read
those verdicts instead of judging every node again.  Here each reader meets
a model that judges every node afresh with ``oracles.malformed_term``, on
random structures with opaque and malformed payloads; the writer files only
its own new nodes, ascending, and none when its caller vouches for them; and
a count pins how often the write path asks the rule.
"""
from __future__ import annotations

import io
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hg2rdf import (
    HG2,
    NodePayload,
    Violation,
    deserialize,
    integrate,
    parse_document,
    serialize,
    to_dot,
    validate_mapping,
)
from hg2rdf.ntriples import _term_problem
from oracles import malformed_term, oracle_serialize, oracle_to_dot, random_structure


def judged_afresh(hg2: HG2) -> list[Violation]:
    """Each malformed hypernode's violation, every node judged by the model."""
    return [Violation(*problem, node=node_id) for node_id, payload in enumerate(hg2.h.nodes)
            if (problem := malformed_term(payload, f"hypernode {node_id}"))]


def assert_readers_agree_with_the_model(hg2: HG2) -> None:
    expected = judged_afresh(hg2)
    assert hg2.h._malformed == [violation.node for violation in expected]
    violations = validate_mapping(hg2)
    assert violations[:len(expected)] == expected
    assert all(violation.edge is not None for violation in violations[len(expected):])
    assert to_dot(hg2) == oracle_to_dot(hg2)
    out = io.StringIO()
    if expected:
        with pytest.raises(ValueError, match=f"^{re.escape(expected[0].message)}$"):
            serialize(hg2, out)
        assert out.getvalue() == ""
    else:
        assert serialize(hg2, out) is None
        assert out.getvalue() == oracle_serialize(hg2)


@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_each_reader_of_the_verdicts_agrees_with_judging_every_node(seed):
    assert_readers_agree_with_the_model(random_structure(random.Random(seed), malformed=True))


def test_the_node_writer_files_the_verdicts_of_its_own_new_nodes_in_ascending_order():
    hg2 = HG2()
    hg2.h.add_node(NodePayload.uri("urn:a"))
    assert hg2.h._malformed == []
    hg2.h.add_node(NodePayload.uri(5))
    assert hg2.h._malformed == [1]
    hg2.h._append_nodes([NodePayload.blank(None), NodePayload.uri("urn:b"), NodePayload.uri(["b"])])
    assert hg2.h._malformed == [1, 2, 4]
    assert_readers_agree_with_the_model(hg2)
    assert [violation.node for violation in validate_mapping(hg2)] == [1, 2, 4]

    # a caller that passes well_formed=True has judged its payloads itself
    assert hg2.h._append_nodes([NodePayload.uri("urn:c"), NodePayload.uri(7)], well_formed=True) == 5
    assert hg2.h._malformed == [1, 2, 4]
    assert [violation.node for violation in validate_mapping(hg2)] == [1, 2, 4]


def test_the_write_path_asks_the_term_rule_once_per_hypernode(bench_corpora, monkeypatch):
    """On the seed-1 ingest corpus ``integrate`` asks the rule once per
    hypernode at the node writer and twice per statement with a schema
    predicate and IRI subject and object (in routing); writing, reading
    and rendering the result ask it no more."""
    corpus = bench_corpora["ingest"]
    statements = [statement for name in (*corpus.schema_inputs, *corpus.inputs)
                  for statement in parse_document(corpus.files[name])[0]]
    calls = []

    def counted(*args):
        calls.append(args)
        return _term_problem(*args)

    modules = [module for name, module in sorted(sys.modules.items())
               if name.startswith("hg2rdf.") and getattr(module, "_term_problem", None) is _term_problem]
    assert {module.__name__ for module in modules} >= {"hg2rdf.ntriples", "hg2rdf.hypergraph",
                                                       "hg2rdf.mapper", "hg2rdf.hg2"}
    for module in modules:
        monkeypatch.setattr(module, "_term_problem", counted)

    built, _ = integrate(statements)
    assert (built.h.node_count, len(calls)) == (9_192, 14_760)
    calls.clear()
    text = serialize(built)
    to_dot(built)
    loaded = deserialize(text)
    assert validate_mapping(loaded) == []
    assert serialize(loaded) == text
    to_dot(loaded)
    assert calls == []
