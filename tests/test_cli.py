"""Command-line driver: subcommands, exit codes, stream discipline."""
from __future__ import annotations

import contextlib
import copy
import errno
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hg2rdf.cli
import hg2rdf.hg2 as hg2_module
import hg2rdf.mapper
from hg2rdf import (
    HG2,
    NodePayload,
    PayloadKind,
    SerializationError,
    deserialize,
    integrate,
    parse_document,
    serialize,
    validate_mapping,
)
from hg2rdf.cli import main
from conftest import (
    CONSTRAINT_DATA,
    CONSTRAINT_SCHEMA,
    CONSTRAINT_TYPING,
    FOREIGN_FIELD_DOCUMENT,
    W3C_SAMPLE,
)
from oracles import check_dot, random_structure


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


def test_query_names_a_node_it_cannot_write_by_its_id(tmp_path, capsys):
    hg2 = HG2()
    start = hg2.h.add_node(NodePayload.uri("urn:a"))
    for payload in ("opaque", [1, 2], {"k": 1}, None, NodePayload.literal("x", "en")):
        hg2.h.add_hyperedge([start], [hg2.h.add_node(payload)])
    document = tmp_path / "doc.json"
    document.write_text(serialize(hg2), encoding="utf-8")
    assert main(["query", "--input", str(document), "--reachable", "urn:a"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        *(f"hypernode {node}" for node in range(1, 5)), '"x"@en'
    ]
    # No document holds a malformed term; built through the API, one is
    # named as an opaque payload is.
    for payload in (NodePayload(PayloadKind.URI), NodePayload.uri(5), NodePayload.uri(["a"]),
                    NodePayload(PayloadKind.URI, iri="urn:b", lexical_form="x")):
        node = hg2.h.add_node(payload)
        assert hg2rdf.cli._node_line(hg2, node) == f"hypernode {node}"


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


@pytest.mark.parametrize(
    "command", [["build"], ["export", "--format", "json-doc"], ["export", "--format", "dot"]]
)
def test_output_file_and_standard_output_get_the_same_bytes(tmp_path, monkeypatch, command):
    # Two records per chunk, so the output is many writes to either handle.
    monkeypatch.setattr(hg2_module, "_BATCH", 2)
    data = tmp_path / "data.nt"
    data.write_text(MUTATION_BASE + W3C_SAMPLE, encoding="utf-8")
    target = tmp_path / "out"
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert main([*command, "--input", str(data)]) == 0
        assert main([*command, "--input", str(data), "--output", str(target)]) == 0
        stdout.flush()
    assert stdout.buffer.getvalue() == target.read_bytes()
    assert target.read_bytes().count(b"\n") > 50


def test_validate_clean_build(sample_file, capsys):
    assert main(["validate", "--input", sample_file]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_reports_injected_violations(tmp_path, capsys):
    hg2 = HG2()
    lit = hg2.h.add_node(NodePayload.literal("v"))
    other = hg2.h.add_node(NodePayload.uri("urn:x"))
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


def test_validate_runs_the_placement_checks_once_per_input(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(hg2):
        calls.append(hg2)
        return validate_mapping(hg2)

    monkeypatch.setattr(hg2rdf.mapper, "validate_mapping", counted)
    monkeypatch.setattr(hg2rdf.cli, "validate_mapping", counted)
    data = tmp_path / "data.nt"
    data.write_text(CONSTRAINT_SCHEMA + CONSTRAINT_DATA, encoding="utf-8")
    assert main(["validate", "--input", str(data)]) == 0
    assert len(calls) == 1  # inside integrate; the command reads the report
    doc = tmp_path / "doc.json"
    assert main(["build", "--input", str(data), "--output", str(doc)]) == 0
    capsys.readouterr()
    calls.clear()
    assert main(["validate", "--input", str(doc)]) == 0
    assert len(calls) == 1
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


def test_python_dash_m_runs_the_cli(sample_file):
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "hg2rdf", "stats", "-i", sample_file],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("hypernodes: 6\n")


class _FullStdout(io.StringIO):
    """Standard output on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("argv", [
    ["build"],
    ["query", "--statements-about", "http://www.w3.org/2001/sw/RDFCore/ntriples/"],
    ["export", "--format", "dot"],
    ["validate"],
    ["stats"],
], ids=lambda argv: argv[0])
def test_a_failed_write_to_standard_output_exits_2_with_one_line(argv, sample_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main([*argv, "-i", sample_file]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write standard output: [Errno 28] No space left on device\n"
    )


@pytest.mark.parametrize("argv", [["--help"], ["stats", "--help"]], ids=" ".join)
def test_a_failed_help_write_exits_2_with_one_line(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: cannot write standard output: [Errno 28] No space left on device\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["stats", "--help"], ["stats"]], ids=" ".join)
def test_a_buffered_standard_output_on_a_full_disk_exits_2_with_one_line(argv, sample_file):
    # the text is still buffered when main returns, so the flush at exit
    # would fail a second time if the descriptor were left as it was
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "hg2rdf", *argv, "-i", sample_file],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60, check=False,
        )
    assert (run.returncode, run.stderr.decode()) == (
        2, "error: cannot write standard output: [Errno 28] No space left on device\n"
    )


@pytest.mark.parametrize("command,first_read", [
    (["export", "--format", "dot"], 100),  # fails mid-stream: the digraph is about 1 MB
    (["stats"], 0),  # fails in the final flush, so the exit flush would fail again
], ids=["export-dot", "stats"])
def test_a_reader_that_closes_the_pipe_early_gets_exit_2_and_no_traceback(command, first_read, tmp_path):
    corpus = tmp_path / "large.nt"
    corpus.write_text(
        "".join(f'<urn:s{i}> <urn:p{i % 50}> "value {i}" .\n' for i in range(4000)),
        encoding="utf-8",
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout still holds text at exit
    with subprocess.Popen(
        [sys.executable, "-m", "hg2rdf", *command, "-i", str(corpus)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as child:
        assert len(child.stdout.read(first_read)) == first_read
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: cannot write standard output: [Errno 32] Broken pipe\n"


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


def test_build_to_a_missing_directory_is_an_output_error(sample_file, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["build", "--input", sample_file, "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert "hyperedges created" not in captured.err  # no report after a failed write


@pytest.mark.parametrize("fmt", ["json-doc", "dot"])
def test_export_to_an_unwritable_path_is_an_output_error(sample_file, tmp_path, capsys, fmt):
    # A directory cannot be opened for writing.
    assert main(["export", "--input", sample_file, "--format", fmt, "--output", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {tmp_path}: ")


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


def test_export_of_a_document_with_an_overflowing_number_is_an_input_error(tmp_path, capsys):
    hg2 = HG2()
    hg2.h.add_node(1.5)
    doc = tmp_path / "overflow.json"
    doc.write_text(serialize(hg2).replace("1.5", "1e400"), encoding="utf-8")
    assert main(["export", "--input", str(doc), "--format", "json-doc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {doc}: number 1e400 overflows a float"]


def test_stats_rejects_a_document_with_a_repeated_connector(sample_file, tmp_path, capsys):
    doc = tmp_path / "built.json"
    main(["build", "--input", sample_file, "--output", str(doc)])
    document = json.loads(doc.read_text(encoding="utf-8"))
    document["connectors_v"].append(document["connectors_v"][0])
    doc.write_text(json.dumps(document), encoding="utf-8")
    capsys.readouterr()
    assert main(["stats", "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "connectors_v entry 6 is a duplicate" in captured.err


@pytest.mark.parametrize("argv", [
    ["query", "--statements-about", "urn:a"], ["validate"], ["stats"],
], ids=" ".join)
def test_a_term_with_a_field_foreign_to_its_kind_is_an_input_error(argv, tmp_path, capsys):
    doc = tmp_path / "foreign.json"
    doc.write_text(FOREIGN_FIELD_DOCUMENT, encoding="utf-8")
    assert main([*argv, "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {doc}: uri hypernode cannot carry 'lexical_form'"]


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_an_unknown_option_without_a_command_is_named(capsys):
    assert main(["--bogus"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("hg2rdf: error: unrecognized arguments: --bogus\n")
    assert "required" not in err


def test_a_missing_command_is_a_usage_error(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.endswith(
        "hg2rdf: error: the following arguments are required: command\n"
    )


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


def test_bom_prefixed_document_loads_with_the_same_stats(sample_file, tmp_path, capsys):
    doc = tmp_path / "built.json"
    main(["build", "--input", sample_file, "--output", str(doc)])
    assert main(["stats", "--input", str(doc)]) == 0
    expected = capsys.readouterr().out
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + doc.read_bytes())
    assert main(["stats", "--input", str(bom)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_non_utf8_nt_file_is_a_parse_error(tmp_path, capsys):
    data = tmp_path / "bad.nt"
    data.write_bytes(b"\xff<urn:s> <urn:p> <urn:o> .\n")
    assert main(["build", "--input", str(data)]) == 0
    captured = capsys.readouterr()
    assert "bad.nt:1: InvalidEncoding: not valid UTF-8" in captured.err
    assert "statements in:        0" in captured.err
    assert main(["build", "--strict", "--input", str(data)]) == 1
    assert "aborting: 1 parse error(s)" in capsys.readouterr().err


def test_non_utf8_document_is_an_input_error(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_bytes(b"\xff{}")
    assert main(["validate", "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "bad.json: not valid UTF-8" in captured.err


@pytest.mark.parametrize("data, message", [
    (b"\xff{}", "not valid UTF-8: invalid start byte at byte 0"),
    (b"{}\n\xc3", "not valid UTF-8: unexpected end of data at byte 3"),
    (b"{not json", "not valid JSON: Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)"),
    (b'{"meta": {"format": "hg2/1"}}', "missing section 'hypernodes'"),
    (b'{"meta": {"format": "hg2/0"}}', "unsupported format 'hg2/0'"),
])
def test_unreadable_documents_are_named_with_their_reason(tmp_path, capsys, data, message):
    doc = tmp_path / "doc.json"
    doc.write_bytes(data)
    assert main(["stats", "--input", str(doc)]) == 2
    assert capsys.readouterr() == ("", f"error: {doc}: {message}\n")


def test_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert main(["stats", "--input", str(doc)]) == 2
    assert "error: " in capsys.readouterr().err


def test_lone_cr_line_endings_split_lines_as_lf_does(tmp_path, capsys):
    data = tmp_path / "cr.nt"
    data.write_bytes(W3C_SAMPLE.encode("utf-8").replace(b"\n", b"\r"))
    assert main(["stats", "--input", str(data)]) == 0
    captured = capsys.readouterr()
    assert "hyperedges: 3\n" in captured.out
    assert captured.err == ""


def test_validate_refuses_a_document_with_a_predicate_without_an_iri(tmp_path, capsys):
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
    assert main(["validate", "--input", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {doc}: uri hypernode has no iri"]


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
    # 300 draws: mutants that null a term's required field no longer load
    for _ in range(300):
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


def run_strict(argv: list[str]) -> tuple[int, str]:
    """Run the CLI with standard output as strict UTF-8, as on a terminal or
    a pipe (StringIO never encodes, so it would hide a string that cannot be
    written), and standard error with Python's backslashreplace; returns the
    exit code and the standard error text."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
        stdout.flush()
        stderr.flush()
    return code, stderr.buffer.getvalue().decode()


def test_surrogate_escapes_in_nt_files_are_parse_errors(tmp_path):
    data = tmp_path / "surrogate.nt"
    data.write_text(
        '<urn:s> <urn:p> "fine" .\n'
        '<urn:s> <urn:p> "x\\uD800y" .\n'
        "<urn:s\\uDC00> <urn:p> <urn:o> .\n",
        encoding="utf-8",
    )
    for command in SUBCOMMANDS:
        code, err = run_strict([*command, "--input", str(data)])
        assert code == 0, command
        assert "surrogate.nt:2: BadEscape: \\u escape names a surrogate code point" in err
        assert "surrogate.nt:3: BadEscape" in err
    assert run_strict(["build", "--strict", "--input", str(data)])[0] == 1


def test_lone_surrogate_in_a_document_is_an_input_error(tmp_path):
    statements, _ = parse_document('<urn:s> <urn:p> "x" .\n')
    document = json.loads(serialize(integrate(statements)[0]))
    record = next(r for r in document["hypernodes"] if r["kind"] == "literal")
    record["lexical_form"] = "x\ud800y"
    doc = tmp_path / "surrogate.json"
    doc.write_text(json.dumps(document), encoding="utf-8")
    assert "\\ud800" in doc.read_text(encoding="utf-8")
    for command in SUBCOMMANDS:
        code, err = run_strict([*command, "--input", str(doc)])
        assert code == 2, command
        assert "lone surrogate" in err
    # an escaped pair is one character, not a surrogate
    record["lexical_form"] = "x\U0001F600y"
    assert deserialize(json.dumps(document)).h.nodes[record["id"]].lexical_form == "x\U0001F600y"


# Replacement values for one field: every JSON type, the kind names, ids in
# and out of range, and strings that may hold lone surrogates.
_STRINGS = st.text(
    st.one_of(st.characters(categories=["Cs"]), st.sampled_from("az:/")), min_size=1, max_size=4
)
_IDS = st.integers(-1, 12)
_FIELD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["uri", "blank", "literal", "opaque", "Type", "SubClassOf", "hg2/1",
                     "urn:class:0", "http://example.org/n0"]),
    _STRINGS,
    _IDS,
    st.lists(_IDS, max_size=3),
    st.dictionaries(st.sampled_from(["id", "kind", "iri", "from"]), _IDS, max_size=2),
)


def _values_like(value: object) -> st.SearchStrategy[object]:
    """Values of the field's own JSON type, which the loader is likelier to accept."""
    if isinstance(value, str):
        return _STRINGS
    if isinstance(value, list):
        return st.lists(_IDS, min_size=1, max_size=3)
    return _IDS


@given(seed=st.integers(0, 2**32), data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_documents_are_rejected_or_never_crash_the_cli(tmp_path_factory, seed, data):
    document = json.loads(serialize(random_structure(random.Random(seed))))
    sections = sorted(k for k, v in document.items() if v)
    # The CLI writes hypernode strings back out, so half the draws go there.
    if "hypernodes" in sections:
        sections += ["hypernodes"] * (len(sections) - 1)
    section = data.draw(st.sampled_from(sections))
    record = document[section]
    if section != "meta":
        record = record[data.draw(st.integers(0, len(record) - 1))]
    key = data.draw(st.sampled_from(sorted(record)))
    if data.draw(st.integers(0, 4)) == 0:
        del record[key]
    else:
        record[key] = data.draw(st.one_of(_values_like(record[key]), _FIELD_VALUES))
    text = json.dumps(document)
    try:
        deserialize(text)
    except SerializationError:
        return
    doc = tmp_path_factory.mktemp("mutant") / "doc.json"
    doc.write_text(text, encoding="utf-8")
    for command in SUBCOMMANDS:
        assert run_strict([*command, "--input", str(doc)])[0] in (0, 1, 2), (command, text)
