"""Command-line driver: subcommands, exit codes, stream discipline."""
from __future__ import annotations

import copy
import json
import random

import pytest

from hg2rdf import (
    HG2,
    NodePayload,
    SerializationError,
    deserialize,
    integrate,
    parse_document,
    serialize,
)
from hg2rdf.cli import main
from conftest import CONSTRAINT_DATA, CONSTRAINT_SCHEMA, CONSTRAINT_TYPING, W3C_SAMPLE
from oracles import check_dot


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.nt"
    path.write_text(W3C_SAMPLE, encoding="utf-8")
    return str(path)


@pytest.fixture
def taxonomy_file(tmp_path):
    path = tmp_path / "taxonomy.nt"
    path.write_text(
        "<urn:Dog> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <urn:Animal> .\n"
        "<urn:rex> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:Dog> .\n"
        '<urn:rex> <urn:name> "Rex" .\n',
        encoding="utf-8",
    )
    return str(path)


def test_build_writes_document_and_report(sample_file, capsys):
    assert main(["build", "--input", sample_file]) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert len(document["hyperedges"]) == 3
    assert "hyperedges created:   3" in captured.err
    assert "statements in:        3" in captured.err


def test_build_without_inputs_is_a_usage_error(capsys):
    assert main(["build"]) == 2
    assert "required" in capsys.readouterr().err


def test_build_strict_fails_on_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.nt"
    bad.write_text("<urn:s> <urn:p> <urn:o> .\nthis is junk\n", encoding="utf-8")
    assert main(["build", "--strict", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.nt:2" in err
    assert main(["build", "--input", str(bad)]) == 0  # lenient run keeps going


def test_build_output_flag_writes_file(sample_file, tmp_path, capsys):
    out = tmp_path / "built.json"
    assert main(["build", "--input", sample_file, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text(encoding="utf-8"))["meta"]["format"] == "hg2/1"


def test_build_is_deterministic(sample_file, capsys):
    main(["build", "--input", sample_file])
    first = capsys.readouterr().out
    main(["build", "--input", sample_file])
    assert capsys.readouterr().out == first


def test_query_statements_about(sample_file, capsys):
    code = main(
        [
            "query",
            "--input",
            sample_file,
            "--statements-about",
            "<http://www.w3.org/2001/sw/RDFCore/ntriples/>",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith(" .") for line in lines)
    assert any("Dave Beckett" in line for line in lines)


def test_query_accepts_bare_iris(sample_file, capsys):
    main(["query", "--input", sample_file, "--statements-about", "http://www.w3.org/2001/sw/RDFCore/ntriples/"])
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_query_instances_of_unknown_class_is_empty_success(sample_file, capsys):
    assert main(["query", "--input", sample_file, "--instances-of", "<urn:Nothing>"]) == 0
    assert capsys.readouterr().out == ""


def test_query_instances_of_class(taxonomy_file, capsys):
    assert main(["query", "--input", taxonomy_file, "--instances-of", "<urn:Animal>"]) == 0
    assert capsys.readouterr().out == "<urn:rex>\n"


def test_query_reflexive_path(sample_file, capsys):
    code = main(
        [
            "query",
            "--input",
            sample_file,
            "--path",
            "<http://www.w3.org/>",
            "<http://www.w3.org/>",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "true\n"


def test_query_path_with_witness(sample_file, capsys):
    main(
        [
            "query",
            "--input",
            sample_file,
            "--path",
            "<http://purl.org/dc/elements/1.1/creator>",
            "<http://www.w3.org/2001/sw/RDFCore/ntriples/>",
        ]
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "true"
    assert len(lines) == 2  # one witness hyperedge


def test_query_reachable(sample_file, capsys):
    main(["query", "--input", sample_file, "--reachable", "<http://purl.org/dc/elements/1.1/creator>"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # subject and the two creator literals


def test_query_without_a_selector_is_a_usage_error(sample_file, capsys):
    assert main(["query", "--input", sample_file]) == 2


def test_query_rejects_multiple_selectors(sample_file, capsys):
    code = main(
        [
            "query",
            "--input",
            sample_file,
            "--reachable",
            "<urn:x>",
            "--instances-of",
            "<urn:y>",
        ]
    )
    assert code == 2


def test_query_over_a_serialized_document_matches_the_nt_build(
    sample_file, tmp_path, capsys
):
    out = tmp_path / "built.json"
    main(["build", "--input", sample_file, "--output", str(out)])
    capsys.readouterr()
    iri = "<http://www.w3.org/2001/sw/RDFCore/ntriples/>"
    main(["query", "--input", sample_file, "--statements-about", iri])
    from_nt = capsys.readouterr().out
    main(["query", "--input", str(out), "--statements-about", iri])
    assert capsys.readouterr().out == from_nt


def test_export_dot(sample_file, capsys):
    assert main(["export", "--input", sample_file, "--format", "dot"]) == 0
    assert check_dot(capsys.readouterr().out) == []


def test_export_json_doc(sample_file, capsys):
    assert main(["export", "--input", sample_file, "--format", "json-doc"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["format"] == "hg2/1"


def test_export_requires_a_known_format(sample_file, capsys):
    assert main(["export", "--input", sample_file, "--format", "pdf"]) == 2
    assert main(["export", "--input", sample_file]) == 2


def test_validate_clean_build(sample_file, capsys):
    assert main(["validate", "--input", sample_file]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_reports_injected_violations(tmp_path, capsys):
    hg2 = HG2()
    lit = hg2.add_node(NodePayload.literal("v"))
    other = hg2.add_node(NodePayload.uri("urn:x"))
    hg2.h.add_hyperedge([lit], [other, other])
    doc = tmp_path / "broken.json"
    doc.write_text(serialize(hg2), encoding="utf-8")
    assert main(["validate", "--input", str(doc)]) == 1
    assert "LiteralInHead" in capsys.readouterr().out


def test_validate_prints_constraint_warnings_but_passes(tmp_path, capsys):
    data = tmp_path / "data.nt"
    data.write_text(CONSTRAINT_SCHEMA + CONSTRAINT_DATA, encoding="utf-8")
    assert main(["validate", "--input", str(data)]) == 0
    assert "DomainUnsatisfied" in capsys.readouterr().out


def test_schema_flag_loads_vocabulary_before_data(tmp_path, capsys):
    schema = tmp_path / "schema.nt"
    schema.write_text(CONSTRAINT_SCHEMA + CONSTRAINT_TYPING, encoding="utf-8")
    data = tmp_path / "data.nt"
    data.write_text(CONSTRAINT_DATA, encoding="utf-8")
    assert main(["validate", "--schema", str(schema), "--input", str(data)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_stats_prints_six_counts(sample_file, capsys):
    assert main(["stats", "--input", sample_file]) == 0
    out = capsys.readouterr().out
    assert out == (
        "hypernodes: 6\n"
        "hyperedges: 3\n"
        "graph nodes: 13\n"
        "graph edges: 4\n"
        "node connectors: 6\n"
        "edge connectors: 3\n"
    )


def test_stats_on_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.nt"
    empty.write_text("", encoding="utf-8")
    assert main(["stats", "--input", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "hypernodes: 0\n" in out
    assert "graph nodes: 13\n" in out  # builtin vocabulary


def test_missing_file_is_an_io_error(capsys):
    assert main(["stats", "--input", "/no/such/file.nt"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_serialized_document_must_be_the_only_input(sample_file, tmp_path, capsys):
    doc = tmp_path / "built.json"
    main(["build", "--input", sample_file, "--output", str(doc)])
    capsys.readouterr()
    assert main(["stats", "--input", str(doc), "--input", sample_file]) == 2
    assert main(["stats", "--input", str(doc), "--schema", sample_file]) == 2


def test_corrupt_document_is_rejected(tmp_path, capsys):
    doc = tmp_path / "corrupt.json"
    doc.write_text("{not json", encoding="utf-8")
    assert main(["stats", "--input", str(doc)]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_parse_errors_go_to_stderr_with_positions(tmp_path, capsys):
    bad = tmp_path / "bad.nt"
    bad.write_text('<urn:s> <urn:p> "x" .\njunk line\n', encoding="utf-8")
    assert main(["stats", "--input", str(bad)]) == 0
    captured = capsys.readouterr()
    assert "bad.nt:2" in captured.err
    assert "UnexpectedToken" in captured.err


def test_bom_prefixed_nt_file_parses_cleanly(tmp_path, capsys):
    data = tmp_path / "bom.nt"
    data.write_bytes("﻿<urn:s> <urn:p> <urn:o> .\n".encode("utf-8"))
    assert main(["stats", "--input", str(data)]) == 0
    captured = capsys.readouterr()
    assert "hyperedges: 1\n" in captured.out
    assert captured.err == ""


def test_validate_reports_a_predicate_without_an_iri(tmp_path, capsys):
    statements, errors = parse_document(
        "<urn:p> <http://www.w3.org/2000/01/rdf-schema#domain> <urn:C> .\n"
        "<urn:s> <urn:p> <urn:o> .\n"
    )
    assert not errors
    hg2, _ = integrate(statements)
    document = json.loads(serialize(hg2))
    record = next(r for r in document["hypernodes"] if r.get("iri") == "urn:p")
    del record["iri"]
    doc = tmp_path / "incomplete.json"
    doc.write_text(json.dumps(document), encoding="utf-8")
    assert main(["validate", "--input", str(doc)]) == 1
    captured = capsys.readouterr()
    assert f"IncompletePayload: uri hypernode {record['id']} has no iri" in captured.out
    assert "Traceback" not in captured.err


MUTATION_BASE = (
    "<urn:p> <http://www.w3.org/2000/01/rdf-schema#domain> <urn:C> .\n"
    "<urn:p> <http://www.w3.org/2000/01/rdf-schema#range> <urn:C> .\n"
    "<urn:D> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <urn:C> .\n"
    "<urn:s> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <urn:D> .\n"
    "<urn:s> <urn:p> <urn:o> .\n"
    "<urn:o> <urn:p> _:b .\n"
    '_:b <urn:q> "5"^^<urn:int> .\n'
    '<urn:s> <urn:q> "x"@en .\n'
)
MUTATION_VALUES = (
    None, 0, 1, 2, -1, 10**9, True, 1.5, "", "urn:s", "uri", "blank", "literal",
    "opaque", "Type", [], [0], [0, 1], [1, 1, 1], {},
)
SUBCOMMANDS = (
    ["build"],
    ["query", "--instances-of", "urn:C"],
    ["query", "--statements-about", "urn:s"],
    ["query", "--reachable", "urn:p"],
    ["query", "--path", "urn:p", "urn:o"],
    ["export", "--format", "json-doc"],
    ["export", "--format", "dot"],
    ["validate"],
    ["stats"],
)


def test_single_field_mutations_never_crash_the_cli(tmp_path, capsys):
    statements, _ = parse_document(MUTATION_BASE)
    hg2, _ = integrate(statements)
    base = json.loads(serialize(hg2))
    rng = random.Random(4057)
    doc = tmp_path / "mutant.json"
    loaded = 0
    for _ in range(200):
        document = copy.deepcopy(base)
        section = rng.choice(sorted(document))
        record = document[section] if section == "meta" else rng.choice(document[section])
        key = rng.choice(sorted(record))
        if rng.random() < 0.25:
            del record[key]
        else:
            record[key] = rng.choice(MUTATION_VALUES)
        text = json.dumps(document)
        try:
            deserialize(text)
        except SerializationError:
            continue
        loaded += 1
        doc.write_text(text, encoding="utf-8")
        for command in SUBCOMMANDS:
            assert main([*command, "--input", str(doc)]) in (0, 1, 2), (command, text)
            capsys.readouterr()
    assert loaded > 20  # enough mutants load for the subcommands to be exercised
