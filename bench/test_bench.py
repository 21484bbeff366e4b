"""The benchmark's own tests: ``python -m pytest bench``."""
from __future__ import annotations

import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import tracing
from corpus import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LITERAL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    SHAPES,
    XSD,
    Model,
    generate,
    scaled,
    uri,
)
from reference import (
    Reference,
    check_query,
    check_stats,
    check_validate,
    digest,
    key,
)
from run import Session
from worker import Worker

C0, C1 = "http://example.org/c/0", "http://example.org/c/1"
P, Q = "http://example.org/p/0", "http://example.org/p/1"
A, B = "http://example.org/e/0", "http://example.org/e/1"
X = ("literal", "x", None, XSD + "string")
Y = ("literal", "y", "en", None)

# Ten lines checked by hand: two duplicates of one statement, one malformed
# line, and an rdf:type with a blank subject, which stays in the instance layer.
HAND_ENTRIES = [
    ("t.nt", 1, (uri(C1), uri(RDFS_SUBCLASSOF), uri(C0))),
    ("t.nt", 2, (uri(P), uri(RDFS_DOMAIN), uri(C0))),
    ("t.nt", 3, (uri(P), uri(RDFS_RANGE), uri(RDFS_LITERAL))),
    ("t.nt", 4, (uri(A), uri(RDF_TYPE), uri(C1))),
    ("t.nt", 5, (uri(A), uri(P), X)),
    ("t.nt", 6, (uri(B), uri(P), Y)),
    ("t.nt", 7, (uri(A), uri(P), X)),
    ("t.nt", 8, "MissingObject"),
    ("t.nt", 9, (("blank", "b0"), uri(RDF_TYPE), uri(C1))),
    ("t.nt", 10, (uri(A), uri(Q), uri(B))),
]


@pytest.fixture
def hand() -> Reference:
    return Reference(Model(HAND_ENTRIES))


def small(workload: str, seed: int):
    return generate(scaled(SHAPES[workload], 0.05), seed)


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_same_seed_gives_byte_identical_corpora(workload):
    assert small(workload, 7).files == small(workload, 7).files
    assert small(workload, 7).files != small(workload, 8).files


def test_model_of_hand_checked_corpus(hand):
    model = hand.model
    assert len(model.statements) == 9
    assert model.malformed == [("t.nt", 8, "MissingObject")]
    assert list(model.schema_triples) == [item for _, n, item in HAND_ENTRIES if n <= 4]
    assert list(model.instance_triples) == [
        (uri(A), uri(P), X), (uri(B), uri(P), Y),
        (("blank", "b0"), uri(RDF_TYPE), uri(C1)), (uri(A), uri(Q), uri(B)),
    ]
    assert model.types == {A: [C1]}
    assert model.parents == {C1: [C0]}


def test_references_of_hand_checked_corpus(hand):
    # hypernodes: A, P, X, B, Y, _:b0, rdf:type, C1, Q.  Node connectors: ten
    # role anchors, X's datatype and A's type.  Graph: 13 built-in nodes plus
    # C0, C1, P, A; 4 built-in subclass edges plus the 4 schema lines.
    assert hand.stats() == {
        "hypernodes": 9, "hyperedges": 4, "graph nodes": 17, "graph edges": 8,
        "node connectors": 12, "edge connectors": 4,
    }
    assert hand.errors() == {"MissingObject": 1}
    assert hand.warnings() == {("DomainUnsatisfied", P, C0): 1}
    assert hand.answer(("statements_about", A))["count"] == 2
    assert hand.instances_of(C0) == [key(uri(A))]
    assert sorted(hand.reachable_from(P)) == sorted(key(t) for t in (uri(A), X, uri(B), Y))
    assert hand.reachable_from(A) == []
    assert hand.answer(("path_exists", P, B)) == {"found": True, "hops": 1}
    assert hand.answer(("path_exists", A, B)) == {"found": False, "hops": 0}


def stats_output(counts: dict[str, int]) -> dict:
    return {"rc": 0, "stdout": "".join(f"{k}: {v}\n" for k, v in counts.items())}


def test_tampered_answers_are_counted_as_failed(hand):
    assert check_stats(stats_output(hand.stats()), hand) == []
    assert check_stats(stats_output({**hand.stats(), "hyperedges": 5}), hand)

    warning = (f"warning: DomainUnsatisfied: subject hypernode 3 of <{P}> is not typed "
               f"as <{C0}> or a subclass of it\n")
    good = {"rc": 0, "stdout": warning, "errors": {"MissingObject": 1}}
    assert check_validate(good, hand) == []
    assert check_validate({**good, "stdout": "ok\n"}, hand)
    assert check_validate({**good, "errors": {}}, hand)

    edges = {key(t) for t in hand.model.instance_triples}
    witness = {"found": True, "witness": [(uri(B), uri(P), Y)]}
    assert check_query(("path_exists", P, B), witness, hand, edges) == []
    broken = {"found": True, "witness": [(uri(A), uri(Q), uri(B))]}
    assert check_query(("path_exists", P, B), broken, hand, edges)
    answer = {"count": 1, "digest": digest([key(uri(A))])}
    assert check_query(("instances_of", C0), answer, hand, edges) == []
    assert check_query(("instances_of", C0), {**answer, "digest": digest([])}, hand, edges)

    session = Session()
    queries = [("instances_of", C0)]
    ops = [[{"cmd": "instances_of", "q": 0, "same": True}]] * 3
    session.check("query", {"answers": {"0": answer}, "ops": ops}, hand, queries)
    assert (session.attempted, session.failed) == (3, 0)
    tampered = {"0": {**answer, "count": 2}}
    session.check("query", {"answers": tampered, "ops": ops}, hand, queries)
    assert (session.attempted, session.failed) == (6, 3)


def run_worker(tmp_path, workload: str, trace: bool, **job) -> tuple[Worker, dict, Reference]:
    corpus = small(workload, 3)
    for name, text in corpus.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    job = {"name": workload, "dir": str(tmp_path), "inputs": corpus.inputs,
           "schema_inputs": corpus.schema_inputs, "seconds": None, "reps": 2, "warmup": 0,
           "setup_reps": 1, "trace": trace, "queries": [], "workload": workload,
           "calibrate": True, "table_size": 1 << 10, "interleave": False, **job}
    worker = Worker(job)
    return worker, getattr(worker, workload)(), Reference(corpus.model)


@pytest.mark.parametrize("workload", ["ingest", "validate"])
def test_untraced_run_installs_no_wrappers_and_passes_its_checks(tmp_path, workload):
    _, result, ref = run_worker(tmp_path, workload, trace=False)
    assert tracing.wrapped_targets() == []
    session = Session()
    session.check(workload, result, ref)
    assert session.attempted > 0
    assert (session.failed, session.problems) == (0, [])


def test_traced_run_wraps_every_target(tmp_path):
    run_worker(tmp_path, "validate", trace=True)
    assert len(tracing.wrapped_targets()) == len(tracing.TARGETS)
    tracing.uninstall()
    assert tracing.wrapped_targets() == []


def test_interleaved_run_traces_one_operation_of_each_pair(tmp_path):
    worker, result, _ = run_worker(tmp_path, "validate", trace=True, reps=6, interleave=True)
    traced = set(worker.recorder.spans[4::5])
    assert traced == {0, 3, 4} == {i for i in range(6) if tracing.traced_op(i)}
    assert len(result["ops"]) == 6


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's VmHWM")
def test_worker_peak_memory_leaves_out_the_parent_s():
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touched, so it is resident
    child = subprocess.run([sys.executable, "-c", "import worker; print(worker.peak_rss_kb())"],
                           cwd=Path(__file__).parent, capture_output=True, text=True, check=True)
    assert int(child.stdout) < 48 << 10


def test_self_time_subtracts_the_children():
    names = ["outer", "inner"]
    spans = array("q", [0, 0, 100, -1, 0,  # name, start, end, parent, op
                        1, 10, 30, 0, 0,
                        1, 40, 50, 0, 0])
    outer = tracing.aggregate(names, spans)[0]["outer"]
    assert outer["calls"] == 1
    assert outer["s"] == pytest.approx(100e-9)
    assert outer["self_s"] == pytest.approx(70e-9)
