"""One workload against the checkout's hg2rdf, in a process of its own.

Usage: ``python3 bench/worker.py JOB.json`` (``run.py`` writes the job and
reads back ``JOB.json.out``).  Keeping each workload in a fresh process makes
its peak resident set that workload's peak memory and keeps the corpus model
and the references out of it.

Before every timed operation, and outside the timing, the worker runs
``gc.collect()`` so one operation's garbage is not charged to the next.  At
least every ``CALIBRATION_INTERVAL_S`` it also times a fixed pure-Python
calibration kernel, so ``run.py`` can correct each operation for the speed
the machine had at that moment.  Only a job with ``"trace": true`` imports
``tracing`` and installs wrappers; with ``"interleave": true`` as well, it
takes them off for every other operation (``tracing.traced_op``).
"""
from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from array import array
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path

from reference import digest, error_counts, key

SRC = Path(__file__).resolve().parent.parent / "src"
CALIBRATION_INTERVAL_S = 0.25


class ProgramMissing(RuntimeError):
    pass


class _Slot:
    __slots__ = ("index", "text")

    def __init__(self, index: int, text: str):
        self.index = index
        self.text = text


def calibration_kernel(table: array) -> int:
    """Fixed interpreter work of the kinds hg2rdf does: string formatting,
    dict inserts, small objects and a sort, then scattered reads over a
    table bigger than the caches.  It never changes, so its time measures
    only the machine: how fast it runs and how much of the memory system
    the neighbours leave it."""
    strings = {}
    slots = []
    for i in range(3750):
        text = f"http://example.org/{i % 5000}/{i}"
        strings[text] = (i, text.split("/"))
        slots.append(_Slot(i, text))
    total = len(sorted(strings, reverse=True)) + sum(s.index for s in slots[::7])
    j = 0
    mask = len(table) - 1  # a power of two, so the walk below has full period
    for _ in range(40000):
        j = (j * 1103515245 + 12345) & mask
        total += table[j]
    return total


def peak_rss_kb() -> int:
    """This process's own peak resident set size, KiB.

    Linux's ``VmHWM``, not ``ru_maxrss``: a process started by fork (or
    vfork) and exec keeps its parent's peak in ``ru_maxrss``, so the
    benchmark's own memory would count whenever it is the larger."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def import_program():
    """Import ``hg2rdf.cli`` afresh from the checkout; returns (module, ns)."""
    for name in [n for n in sys.modules if n == "hg2rdf" or n.startswith("hg2rdf.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gc.collect()
    start = time.perf_counter_ns()
    try:
        cli = importlib.import_module("hg2rdf.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import hg2rdf from {SRC}: {exc}") from exc
    elapsed = time.perf_counter_ns() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"hg2rdf was imported from {cli.__file__}, not {SRC}")
    return cli, elapsed


def term(payload) -> tuple:
    """A hypernode payload as the reference's term tuple."""
    kind = payload.kind.value
    if kind == "uri":
        return ("uri", payload.iri)
    if kind == "blank":
        return ("blank", payload.blank_label)
    return ("literal", payload.lexical_form, payload.language_tag, payload.datatype_iri)


def statement(hg2, edge_id: int) -> tuple:
    edge = hg2.h.edges[edge_id]
    nodes = hg2.h.nodes
    return (term(nodes[edge.tail[0]]), term(nodes[edge.head[0]]), term(nodes[edge.tail[1]]))


def render(hg2, kind: str, result) -> dict:
    """A query result in the reference's terms: a digest, or the witness."""
    if kind == "path_exists":
        return {"found": result.found, "witness": [statement(hg2, e) for e in result.edges]}
    if kind == "statements_about":
        keys = [key(statement(hg2, e)) for e in result.items]
    else:
        keys = [key(term(hg2.h.nodes[n])) for n in result.items]
    return {"count": len(keys), "digest": digest(keys)}


class Worker:
    def __init__(self, job: dict):
        self.job = job
        self.dir = Path(job["dir"])
        self.cli = None
        self.calibrations: list[tuple[int, int]] = []  # (end ns, kernel ns)
        self.table = None  # the calibration kernel's, made on first use
        self.recorder = None
        self.wrapped = False  # whether the program carries the wrappers
        if job["trace"]:
            import tracing

            self.recorder = tracing.Recorder()

    # -- timing --------------------------------------------------------------

    def calibrate(self, force: bool = False) -> None:
        if not self.job["calibrate"]:
            return
        now = time.perf_counter_ns()
        if not force and self.calibrations and \
                now - self.calibrations[-1][0] < CALIBRATION_INTERVAL_S * 1e9:
            return
        if self.table is None:
            self.table = array("i", bytes(4 * self.job["table_size"]))
        gc.collect()
        start = time.perf_counter_ns()
        calibration_kernel(self.table)
        end = time.perf_counter_ns()
        self.calibrations.append((end, end - start))

    def timed(self, function, *args) -> tuple[object, dict]:
        """Call ``function`` once, timed; returns (result, {"t", "ns"})."""
        self.calibrate()
        gc.collect()
        start = time.perf_counter_ns()
        result = function(*args)
        elapsed = time.perf_counter_ns() - start
        return result, {"t": start, "ns": elapsed}

    def run_cli(self, argv: list[str], stdout_path: Path | None = None
                ) -> tuple[int, dict, str, str]:
        """One in-process CLI call: (exit code, timing, stdout, stderr).

        With ``stdout_path`` standard output goes to that file, as it would
        from a shell, instead of an in-memory buffer four bytes a character."""
        err = io.StringIO()
        with ExitStack() as stack:
            out = (stack.enter_context(open(stdout_path, "w", encoding="utf-8"))
                   if stdout_path else io.StringIO())
            stack.enter_context(redirect_stdout(out))
            stack.enter_context(redirect_stderr(err))
            rc, timing = self.timed(self.main, argv)
            text = "" if stdout_path else out.getvalue()
        return rc, timing, text, err.getvalue()

    def main(self, argv: list[str]) -> int:
        if not self.wrapped:
            return self.cli.main(argv)
        span = self.recorder.enter(self.recorder.name_id("cli.main"))
        try:
            return self.cli.main(argv)
        finally:
            self.recorder.exit(span)

    def loop(self, operation) -> list:
        """Warm-up runs, then ``reps`` runs, or whole cycles of ``cycle`` runs
        until ``seconds`` have passed, so every input is measured equally often."""
        for _ in range(self.job["warmup"]):
            operation()
        results = []
        deadline = time.perf_counter() + (self.job["seconds"] or 0)
        while True:
            if self.recorder is not None:
                self.recorder.op = len(results)
                if self.job["interleave"]:
                    import tracing

                    self.set_wrappers(tracing.traced_op(len(results)))
            results.append(operation())
            if self.job["reps"] is not None:
                if len(results) >= self.job["reps"]:
                    break
            elif time.perf_counter() >= deadline and len(results) % self.job["cycle"] == 0:
                break
        self.calibrate(force=True)
        return results

    def install_wrappers(self) -> None:
        """Wrap the freshly imported program when this is a traced job."""
        if self.recorder is not None:
            self.set_wrappers(True)

    def set_wrappers(self, on: bool) -> None:
        import tracing

        if not on:
            tracing.uninstall()
        elif not tracing.wrapped_targets():
            tracing.install(self.recorder)
        self.wrapped = on

    # -- workloads -----------------------------------------------------------

    def setup_import(self) -> list[dict]:
        samples = []
        for _ in range(self.job["setup_reps"]):
            self.calibrate(force=True)
            start = time.perf_counter_ns()
            self.cli, elapsed = import_program()
            samples.append({"t": start, "ns": elapsed})
        self.calibrate(force=True)
        return samples

    def paths(self, names: list[str], flag: str) -> list[str]:
        argv = []
        for name in names:
            argv += [flag, str(self.dir / name)]
        return argv

    def ingest(self) -> dict:
        setup = self.setup_import()
        self.install_wrappers()
        corpus = self.paths(self.job["inputs"], "-i")
        doc = str(self.dir / "doc.json")
        dot = self.dir / "doc.dot"

        def one_pass() -> list[dict]:
            rc, build, _, err = self.run_cli(["build", *corpus, "-o", doc])
            data = Path(doc).read_bytes()
            build.update(cmd="build", rc=rc, errors=error_counts(err),
                         sha1=hashlib.sha1(data).hexdigest(), bytes=len(data))
            rc, stats, out, _ = self.run_cli(["stats", "-i", doc])
            stats.update(cmd="stats", rc=rc, stdout=out)
            rc, export, _, _ = self.run_cli(["export", "-i", doc, "--format", "dot"], dot)
            data = dot.read_bytes()
            export.update(cmd="export", rc=rc, lines=data.count(b"\n"),
                          boxes=data.count(b"[shape=box"), dashed=data.count(b"[style=dashed]"),
                          sha1=hashlib.sha1(data).hexdigest(), bytes=len(data))
            return [build, stats, export]

        return {"setup": setup, "ops": self.loop(one_pass)}

    def validate(self) -> dict:
        setup = self.setup_import()
        self.install_wrappers()
        argv = ["validate", *self.paths(self.job["schema_inputs"], "-s"),
                *self.paths(self.job["inputs"], "-i")]

        def one_validate() -> list[dict]:
            rc, timing, out, err = self.run_cli(argv)
            timing.update(cmd="validate", rc=rc, stdout=out, errors=error_counts(err))
            return [timing]

        return {"setup": setup, "ops": self.loop(one_validate)}

    def prepare(self) -> dict:
        """Build the query workload's document; not timed."""
        self.cli, _ = import_program()
        rc, _, _, _ = self.run_cli(["build", *self.paths(self.job["inputs"], "-i"),
                                    "-o", str(self.dir / "doc.json")])
        return {"setup": [], "ops": [[{"cmd": "build", "rc": rc}]]}

    def query(self) -> dict:
        text = (self.dir / "doc.json").read_text(encoding="utf-8")
        setup = []
        hg2 = None
        if self.recorder is not None:
            self.recorder.op = -1
        for _ in range(self.job["setup_reps"]):
            hg2 = None
            self.calibrate(force=True)
            start = time.perf_counter_ns()
            self.cli, elapsed = import_program()
            self.install_wrappers()
            load = time.perf_counter_ns()
            hg2 = importlib.import_module("hg2rdf.hg2").deserialize(text)
            hg2.freeze()
            setup.append({"t": start, "ns": elapsed + time.perf_counter_ns() - load})
        self.calibrate(force=True)
        # The structure lives for the whole loop; freezing it out of the
        # collector keeps the per-query gc.collect() from rescanning it.
        gc.collect()
        gc.freeze()
        traversal = importlib.import_module("hg2rdf.traversal")
        queries = [tuple(q) for q in self.job["queries"]]
        first: dict[int, object] = {}
        answers: dict[str, dict] = {}
        position = 0

        def one_round() -> list[dict]:
            nonlocal position
            timings = []
            for _ in range(self.job["round_size"]):
                index = position % len(queries)
                position += 1
                kind, *args = queries[index]
                result, timing = self.timed(getattr(traversal, kind), hg2, *args)
                if index not in first:
                    first[index] = result
                    answers[str(index)] = render(hg2, kind, result)
                timing.update(cmd=kind, q=index, same=result == first[index])
                timings.append(timing)
            return timings

        return {"setup": setup, "ops": self.loop(one_round), "answers": answers}

    def write_spans(self, result: dict) -> None:
        if self.recorder is None:
            return
        spans_path = self.dir / f"{self.job['name']}.spans"
        with open(spans_path, "wb") as handle:
            self.recorder.spans.tofile(handle)
        result["spans"] = str(spans_path)
        result["span_names"] = self.recorder.names
        result["counts"] = [[op, name, value] for (op, name), value in self.recorder.counts.items()]


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    worker = Worker(job)
    try:
        result = getattr(worker, job["workload"])()
    except ProgramMissing as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 3
    worker.write_spans(result)
    result["calibrations"] = worker.calibrations
    result["peak_rss_kb"] = peak_rss_kb()
    Path(job_path + ".out").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
