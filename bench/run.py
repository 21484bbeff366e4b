"""Seeded ingest / validate / query benchmark for hg2rdf (stdlib only).

    python3 bench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

``--workload`` is ``ingest``, ``validate``, ``query`` or ``all``.  The run
generates its corpus from ``--seed``, computes reference answers from the
generator's model, and runs the workload in a fresh worker process against
the checkout's ``src/hg2rdf``: one client in a closed loop, one operation at
a time, for ``--seconds``.  Every output is checked against the reference.
It prints a table of every metric with its unit and sample count, then, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 1`` it instead makes the traced run of all three workloads
(so every per-layer metric is measured whichever workload is named): a
worker on the full corpus that interleaves traced and plain operations, for
the per-layer numbers and the tracing overhead, and a traced worker on a
half-size corpus of ``ingest`` and ``validate`` for the growth exponents.
The traced run uses fixed repetition counts, not ``--seconds``, so its
per-layer numbers compare across runs.

The exit code is 0 only when the program ran; a missing ``src/hg2rdf``
exits 2 without printing a result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_left
from pathlib import Path

import tracing
from corpus import ERROR_CODES, SHAPES, generate, scaled
from reference import (
    ROUND,
    ROUND_SIZE,
    Reference,
    check_build,
    check_export,
    check_query,
    check_stats,
    check_validate,
    key,
    query_mix,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ingest", "validate", "query")
TIME_LIMIT_S = 170
QUERY_ROUNDS = 17       # rounds of the query mix; the loop runs whole cycles of them
TRACED_ROUNDS = 6       # the first rounds of the mix, in the traced run
TRACED_REPS = 5         # traced passes per worker (median taken)
#: Set-ups per run (median taken).  About one in six is slowed by the
#: machine, so a median of three spread by 30% on query's 0.35 s set-up.
SETUP_REPS = 9
#: The calibration kernel's time on the reference machine (2-CPU sandbox,
#: Python 3.11) at its quiet speed.  Every reported time is the measured time
#: times NOMINAL / (kernel time measured around that operation), i.e. the
#: time the operation would take at that speed.  The machine's speed drifts
#: by up to 2x over seconds; the ratio to the kernel drifts far less.
NOMINAL_CALIBRATION_NS = 18_000_000
#: The machine's slow spells last a second or two and a wider window dilutes
#: them: re-scaling the same six runs, query's setup_s spread by 14% across
#: seeds with a 3 s window and by 7% with 1.5 s.
CALIBRATION_WINDOW_S = 1.5
#: Entries of the kernel's int32 table, sized like the memory each workload
#: walks: ingest and validate rebuild mid-sized structures every operation,
#: query walks one large structure.  A kernel with the wrong footprint
#: tracks the machine's drift worse (measured: validate's spread rose from 8%
#: to 12% with the large table, query's fell from 16% to 8%).
CALIBRATION_TABLE = {"ingest": 1 << 21, "validate": 1 << 21, "query": 1 << 24}

#: Metrics the final JSON line carries, with their units; BENCHMARK.json
#: lists the same ones.  Every workload has them.
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}

GROWTH_STAGES = {
    "ingest": ("cli.main", "ntriples.parse_document", "mapper.integrate",
               "mapper.generate_connectors", "mapper.validate_mapping", "hg2.serialize",
               "hg2.deserialize", "dot.to_dot"),
    "validate": ("cli.main", "ntriples.parse_document", "mapper.integrate",
                 "mapper.generate_connectors", "mapper.validate_mapping",
                 "mapper.check_domain_range", "hg2.validate_layering", "hg2.anchors_of_node",
                 "schema.constraint_of", "schema.subclass_closure"),
}


class BenchError(RuntimeError):
    pass


class Session:
    """A private work directory inside the checkout and a wall-clock budget."""

    def __init__(self) -> None:
        self.dir = ROOT / ".bench_work" / str(os.getpid())
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __enter__(self) -> Session:
        self.dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    def materialize(self, workload: str, seed: int, factor: float = 1.0):
        """Write the workload's corpus files; returns (corpus, reference, dir)."""
        shape = SHAPES[workload] if factor == 1.0 else scaled(SHAPES[workload], factor)
        corpus = generate(shape, seed)
        directory = self.dir / f"{workload}-{factor}"
        directory.mkdir(exist_ok=True)
        for name, text in corpus.files.items():
            (directory / name).write_text(text, encoding="utf-8")
        return corpus, Reference(corpus.model), directory

    def spawn(self, name: str, directory: Path, corpus, **job) -> dict:
        job = {"name": name, "dir": str(directory), "inputs": corpus.inputs,
               "schema_inputs": corpus.schema_inputs, "seconds": None, "reps": None,
               "warmup": 0, "setup_reps": 1, "trace": False, "queries": [], "cycle": 1,
               "calibrate": True, "interleave": False, **job}
        job["table_size"] = CALIBRATION_TABLE.get(job["workload"], 0)
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(job), encoding="utf-8")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before worker " + name)
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(path)],
                                  stdout=subprocess.DEVNULL, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {name} did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {name} exited {proc.returncode}")
        return json.loads(Path(f"{path}.out").read_text(encoding="utf-8"))

    def check(self, workload: str, result: dict, ref: Reference, queries=()) -> None:
        """Count every operation of a worker result, and the ones that failed."""
        problems: list[str] = []
        if workload == "query":
            edges = {key(t) for t in ref.model.instance_triples}
            bad = set()
            for index, answer in result["answers"].items():
                found = check_query(tuple(queries[int(index)]), answer, ref, edges)
                if found:
                    bad.add(int(index))
                    problems += found
            ops = [op for round_ in result["ops"] for op in round_]
            for op in ops:
                self.attempted += 1
                if op["q"] in bad or not op["same"]:
                    self.failed += 1
            if any(not op["same"] for op in ops):
                problems.append("a repeated query answered differently")
        else:
            checks = {"build": check_build, "stats": check_stats, "export": check_export,
                      "validate": check_validate}
            digests: dict[str, str] = {}
            for op_group in result["ops"]:
                for op in op_group:
                    found = checks[op["cmd"]](op, ref)
                    if "sha1" in op and digests.setdefault(op["cmd"], op["sha1"]) != op["sha1"]:
                        found.append(f"{op['cmd']} output differs between repetitions")
                    self.attempted += 1
                    if found:
                        self.failed += 1
                        problems += found
        self.problems += problems[:5]


def median_of(values) -> float:
    return statistics.median(values) if values else 0.0


def calibrated(result: dict):
    """Seconds at nominal machine speed for an operation ``{"t", "ns"}``: its
    time scaled by the median kernel time within CALIBRATION_WINDOW_S of it.
    A window, not the neighbouring samples, because a single kernel run
    jitters by 20%."""
    ends = [end for end, _ in result["calibrations"]]
    kernel = [ns for _, ns in result["calibrations"]]
    window = CALIBRATION_WINDOW_S * 1e9

    def seconds(op: dict) -> float:
        low = bisect_left(ends, op["t"] - window)
        high = bisect_left(ends, op["t"] + op["ns"] + window)
        return op["ns"] * NOMINAL_CALIBRATION_NS / statistics.median(kernel[low:high] or kernel) / 1e9

    return seconds


def timed(session: Session, workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """The untraced run: returns the JSON metrics and the table rows."""
    corpus, ref, directory = session.materialize(workload, seed)
    queries: list = []
    if workload == "query":
        queries = query_mix(corpus, ref, seed, QUERY_ROUNDS)
        prepared = session.spawn("prepare", directory, corpus, workload="prepare",
                                 calibrate=False)
        if prepared["ops"][0][0]["rc"] != 0:
            raise BenchError("building the query document failed")
    result = session.spawn(workload, directory, corpus, workload=workload, seconds=seconds,
                           warmup=1, setup_reps=SETUP_REPS, queries=queries,
                           round_size=ROUND_SIZE, cycle=QUERY_ROUNDS if queries else 1)
    attempted, failed = session.attempted, session.failed
    session.check(workload, result, ref, queries)
    # One operation in a fresh worker that does not calibrate (the kernel's
    # table would count), as one CLI process would run it; after several
    # passes the allocator's fragmentation, not the program, sets the peak.
    memory = session.spawn(f"{workload}-memory", directory, corpus, workload=workload, reps=1,
                           queries=queries, round_size=ROUND_SIZE, calibrate=False)
    session.check(workload, memory, ref, queries)
    peak_rss_kb = memory["peak_rss_kb"]
    attempted, failed = session.attempted - attempted, session.failed - failed

    triples = len(corpus.model.statements)
    ops = result["ops"]
    seconds_of = calibrated(result)
    setup = [seconds_of(sample) for sample in result["setup"]]
    rows = [("setup_s", median_of(setup), "s", len(setup))]
    op_seconds = [sum(seconds_of(op) for op in group) for group in ops]
    by_kind: dict[str, list[float]] = {}
    for group in ops:
        for op in group:
            by_kind.setdefault(op["cmd"], []).append(seconds_of(op))
    if workload == "query":
        micros = [seconds_of(op) * 1e6 for group in ops for op in group]
        rows.append(("query_p50_us", median_of(micros), "us", len(micros)))
        if len(micros) >= 1000:  # p99 needs ten samples beyond it
            rows.append(("query_p99_us", statistics.quantiles(micros, n=100)[98], "us",
                         len(micros)))
        for kind, _ in ROUND:
            samples = by_kind[kind]
            rows.append((f"{kind}_p50_us", median_of(samples) * 1e6, "us", len(samples)))
    else:
        names = {"build": "build", "stats": "load", "export": "export", "validate": "validate"}
        for cmd, samples in by_kind.items():
            rows.append((f"{names[cmd]}_triples_per_s", triples / median_of(samples),
                         "triples/s", len(samples)))
    kernel = [ns for _, ns in result["calibrations"]]
    rows += [
        ("op_p50_ms", median_of(op_seconds) * 1e3, "ms", len(op_seconds)),
        ("ops_per_s", len(op_seconds) / sum(op_seconds), "1/s", len(op_seconds)),
        ("peak_rss_mb", peak_rss_kb / 1024, "MiB", 1),
        ("failed_ratio", failed / max(attempted, 1), "ratio", attempted),
        ("machine_speed", NOMINAL_CALIBRATION_NS / median_of(kernel), "x nominal", len(kernel)),
    ]
    metrics = {name: value for name, value, _, _ in rows if name in END_TO_END}
    header = (f"workload {workload}: seed {seed}, {len(corpus.model.entries)} lines in "
              f"{len(corpus.files)} file(s), {triples} triples, {len(ops)} timed operations")
    return metrics, [header, *rows]


def traced_ops(result: dict) -> dict[int, dict[str, float]]:
    """Flatten a traced worker result: op id -> metric name -> value, with
    span times calibrated like the operation that holds them."""
    seconds_of = calibrated(result)
    groups = {-1: result["setup"], **dict(enumerate(result["ops"]))}
    speed = {op: sum(seconds_of(t) for t in group) / (sum(t["ns"] for t in group) / 1e9)
             for op, group in groups.items() if group}
    names = result["span_names"]
    spans = array("q")
    with open(result["spans"], "rb") as handle:
        spans.frombytes(handle.read())
    flat: dict[int, dict[str, float]] = {}
    for op, per_name in tracing.aggregate(names, spans).items():
        target = flat.setdefault(op, {})
        for name, entry in per_name.items():
            for field, value in entry.items():
                target[f"{name}.{field}"] = value if field == "calls" else value * speed[op]
    for op, name, value in result["counts"]:
        flat.setdefault(op, {})[name] = value
    return flat


def trace_overhead(result: dict) -> tuple[float, float]:
    """Seconds tracing adds to an operation of an interleaved worker: the
    median over its (traced, plain) pairs of the difference, and the IQR of
    those differences."""
    seconds_of = calibrated(result)
    times = [sum(seconds_of(op) for op in group) for group in result["ops"]]
    diffs = [(times[i] - times[i + 1]) * (1 if tracing.traced_op(i) else -1)
             for i in range(0, len(times) - 1, 2)]
    quartiles = statistics.quantiles(diffs, n=4)
    return median_of(diffs), quartiles[2] - quartiles[0]


def per_op_median(flat: dict[int, dict[str, float]], name: str) -> float:
    return median_of([values.get(name, 0.0) for op, values in flat.items() if op >= 0])


def trace_pipeline(session: Session, workload: str, seed: int) -> dict[str, tuple]:
    """Traced per-layer metrics of ingest or validate, with growth and overhead."""
    flats = {}
    for factor in (1.0, 0.5):
        corpus, ref, directory = session.materialize(workload, seed, factor)
        name = f"{workload}-{factor}-traced"
        # The full corpus also gives the overhead: as many plain passes,
        # interleaved with the traced ones.
        full = factor == 1.0
        result = session.spawn(name, directory, corpus, workload=workload,
                               reps=TRACED_REPS * (2 if full else 1), trace=True,
                               interleave=full)
        session.check(workload, result, ref)
        flat = traced_ops(result)
        flats[factor] = flat
        for op, values in flat.items():
            truth = {"ntriples.statements": len(corpus.model.statements),
                     **{f"ntriples.errors.{c}": n for c, n in ref.errors().items()}}
            wrong = [n for n, v in truth.items() if values.get(n, 0) != v]
            if wrong:
                session.problems.append(f"{name} op {op}: counts {wrong} differ from the model")
                session.failed += 1
        if full:
            overhead = trace_overhead(result)
            last = result["ops"][-1]
            doc_bytes = next((op["bytes"] for op in last if op["cmd"] == "build"), 0)
            dot_bytes = next((op["bytes"] for op in last if op["cmd"] == "export"), 0)

    flat = flats[1.0]

    def med(name: str) -> float:
        return per_op_median(flat, name)

    unit = {"s": "s", "self_s": "s", "calls": "count"}
    metrics: dict[str, tuple] = {}

    def put(name: str, value: float, unit_name: str | None = None) -> None:
        suffix = name.rsplit(".", 1)[-1]
        metrics[f"{workload}.{name}"] = (value, unit_name or unit.get(suffix, "count"))

    put("ntriples.parse_document.s", med("ntriples.parse_document.s"))
    put("ntriples.statements", med("ntriples.statements"))
    for code in ERROR_CODES:
        put(f"ntriples.errors.{code}", med(f"ntriples.errors.{code}"))
    put("mapper.integrate.self_s", med("mapper.integrate.self_s"))
    put("mapper.generate_connectors.s", med("mapper.generate_connectors.s"))
    put("mapper.validate_mapping.s", med("mapper.validate_mapping.s"))
    if workload == "validate":
        put("mapper.check_domain_range.s", med("mapper.check_domain_range.s"))
        put("mapper.check_domain_range.self_s", med("mapper.check_domain_range.self_s"))
        put("mapper.check_domain_range.share", median_of(
            [v.get("mapper.check_domain_range.s", 0.0) / v["cli.main.s"]
             for op, v in flat.items() if op >= 0]), "ratio")
    for count in ("hyperedges", "schema_edges", "connectors_v", "connectors_e"):
        put(f"mapper.{count}", med(f"mapper.{count}"))
    if workload == "validate":
        put("mapper.warnings", med("mapper.warnings"))
        put("hg2.validate_layering.s", med("hg2.validate_layering.s"))
        put("hg2.anchors_of_node.calls", med("hg2.anchors_of_node.calls"))
        put("hg2.anchors_of_node.s", med("hg2.anchors_of_node.s"))
    else:
        put("hg2.serialize.s", med("hg2.serialize.s"))
        put("hg2.deserialize.s", med("hg2.deserialize.s"))
        put("hg2.doc_bytes", doc_bytes, "B")
    put("hg2.add_connector.calls", med("hg2.add_connector.calls"))
    put("hg2.add_connector.new_ratio", median_of(
        [v.get("hg2.add_connector.new", 0) / v["hg2.add_connector.calls"]
         for op, v in flat.items() if op >= 0]), "ratio")
    if workload == "validate":
        for name in ("schema.constraint_of", "schema.subclass_closure"):
            put(f"{name}.calls", med(f"{name}.calls"))
            put(f"{name}.s", med(f"{name}.s"))
    else:
        put("dot.to_dot.s", med("dot.to_dot.s"))
        put("dot.bytes", dot_bytes, "B")
    put("cli.main.self_s", med("cli.main.self_s"))
    for stage in GROWTH_STAGES[workload]:
        full = med(f"{stage}.s")
        half = per_op_median(flats[0.5], f"{stage}.s")
        put(f"{stage}.growth", math.log2(full / half) if full > 0 and half > 0 else 0.0, "log2")
    put("trace_overhead_ms", overhead[0] * 1e3, "ms")
    put("trace_overhead_iqr_ms", overhead[1] * 1e3, "ms")
    return metrics


def trace_query(session: Session, seed: int) -> dict[str, tuple]:
    corpus, ref, directory = session.materialize("query", seed)
    mix = query_mix(corpus, ref, seed, TRACED_ROUNDS)
    # Every round twice in a row, once traced and once plain (interleaved).
    queries = [query for start in range(0, len(mix), ROUND_SIZE) for _ in range(2)
               for query in mix[start:start + ROUND_SIZE]]
    prepared = session.spawn("prepare", directory, corpus, workload="prepare", calibrate=False)
    if prepared["ops"][0][0]["rc"] != 0:
        raise BenchError("building the query document failed")
    result = session.spawn("query-traced", directory, corpus, workload="query",
                           reps=2 * TRACED_ROUNDS, trace=True, interleave=True,
                           queries=queries, round_size=ROUND_SIZE)
    session.check("query", result, ref, queries)
    overhead, overhead_iqr = trace_overhead(result)
    flat = traced_ops(result)
    rounds = [values for op, values in flat.items() if op >= 0]

    def total(name: str) -> float:
        return sum(values.get(name, 0.0) for values in rounds)

    def per_query(name: str) -> float:
        return total(name) / len(mix)

    metrics: dict[str, tuple] = {
        "query.hg2.deserialize.s": (flat[-1]["hg2.deserialize.s"], "s"),
        "query.schema.subclass_closure.calls": (per_query("schema.subclass_closure.calls"), "count"),
        "query.schema.subclass_closure.s": (per_query("schema.subclass_closure.s"), "s"),
        "query.hypergraph.incidence_of.calls": (per_query("hypergraph.incidence_of.calls"), "count"),
        "query.hypergraph.incidence_of.s": (per_query("hypergraph.incidence_of.s"), "s"),
        "query.hypergraph.forward_reachable.s": (per_query("hypergraph.forward_reachable.s"), "s"),
    }
    for kind in ("statements_about", "instances_of", "reachable_from", "path_exists"):
        name = f"traversal.{kind}"
        calls = total(f"{name}.calls")
        metrics[f"query.{name}.self_s"] = (total(f"{name}.self_s") / calls, "s")
        metrics[f"query.{name}.items"] = (total(f"{name}.items") / calls, "count")
    metrics["query.trace_overhead_us"] = (overhead / ROUND_SIZE * 1e6, "us")
    metrics["query.trace_overhead_iqr_us"] = (overhead_iqr / ROUND_SIZE * 1e6, "us")
    return metrics


def print_rows(rows: list) -> None:
    print(rows[0])
    print(f"  {'metric':<34} {'value':>16}  {'unit':<10} samples")
    for name, value, unit, samples in rows[1:]:
        print(f"  {name:<34} {value:>16.6g}  {unit:<10} {samples}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "hg2rdf" / "cli.py").is_file():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'hg2rdf'}", file=sys.stderr)
        return 2

    metrics: dict[str, dict] = {}
    with Session() as session:
        try:
            if args.trace:
                per_layer = {**trace_pipeline(session, "ingest", args.seed),
                             **trace_pipeline(session, "validate", args.seed),
                             **trace_query(session, args.seed)}
                header = (f"traced run: seed {args.seed}, all workloads, {TRACED_REPS} traced "
                          f"passes per worker, {TRACED_ROUNDS} traced rounds of {ROUND_SIZE} "
                          "queries")
                print_rows([header, *((n, v, u, "") for n, (v, u) in per_layer.items())])
                metrics = {n: {"value": v, "unit": u} for n, (v, u) in per_layer.items()}
            else:
                workloads = WORKLOADS if args.workload == "all" else (args.workload,)
                for workload in workloads:
                    values, rows = timed(session, workload, args.seed, args.seconds)
                    print_rows(rows)
                    prefix = f"{workload}." if args.workload == "all" else ""
                    metrics.update({f"{prefix}{n}": {"value": v, "unit": END_TO_END[n]}
                                    for n, v in values.items()})
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": session.failed == 0 and not session.problems,
                      "attempted": session.attempted, "failed": session.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
