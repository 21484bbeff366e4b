"""Span recorder and the wrappers that feed it, for the traced run only.

The wrappers replace public hg2rdf names from the outside (nothing under
``src/`` changes): module globals that callers resolve at call time, and
methods looked up on their class.  Each call records one span — name, start,
end, parent span and operation id — in a flat in-memory array that the worker
writes out when the run ends.  ``aggregate`` turns spans into per-operation
call counts, inclusive time and self time (inclusive time minus the time the
span's children cover).
"""
from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter_ns

#: (module[:class], attribute, span name).  The ``hg2rdf.cli`` globals are the
#: names the CLI resolves at call time; ``hg2rdf.traversal`` and
#: ``hg2rdf.hg2.deserialize`` are the ones the query workload calls directly.
TARGETS = (
    ("hg2rdf.cli", "parse_document", "ntriples.parse_document"),
    ("hg2rdf.cli", "integrate", "mapper.integrate"),
    ("hg2rdf.cli", "serialize", "hg2.serialize"),
    ("hg2rdf.cli", "deserialize", "hg2.deserialize"),
    ("hg2rdf.cli", "to_dot", "dot.to_dot"),
    ("hg2rdf.cli", "validate_layering", "hg2.validate_layering"),
    ("hg2rdf.cli", "validate_mapping", "mapper.validate_mapping"),
    ("hg2rdf.cli", "check_domain_range", "mapper.check_domain_range"),
    ("hg2rdf.cli", "statements_about", "traversal.statements_about"),
    ("hg2rdf.cli", "instances_of", "traversal.instances_of"),
    ("hg2rdf.cli", "reachable_from", "traversal.reachable_from"),
    ("hg2rdf.cli", "path_exists", "traversal.path_exists"),
    ("hg2rdf.mapper", "generate_connectors", "mapper.generate_connectors"),
    ("hg2rdf.mapper", "validate_mapping", "mapper.validate_mapping"),
    ("hg2rdf.traversal", "statements_about", "traversal.statements_about"),
    ("hg2rdf.traversal", "instances_of", "traversal.instances_of"),
    ("hg2rdf.traversal", "reachable_from", "traversal.reachable_from"),
    ("hg2rdf.traversal", "path_exists", "traversal.path_exists"),
    ("hg2rdf.hg2", "deserialize", "hg2.deserialize"),
    ("hg2rdf.hg2:HG2", "add_connector", "hg2.add_connector"),
    ("hg2rdf.hg2:HG2", "anchors_of_node", "hg2.anchors_of_node"),
    ("hg2rdf.schema:SchemaGraph", "constraint_of", "schema.constraint_of"),
    ("hg2rdf.schema:SchemaGraph", "subclass_closure", "schema.subclass_closure"),
    ("hg2rdf.hypergraph:Hypergraph", "incidence_of", "hypergraph.incidence_of"),
    ("hg2rdf.hypergraph:Hypergraph", "forward_reachable", "hypergraph.forward_reachable"),
)

_FIELDS = 5  # name id, start ns, end ns, parent index, operation id


class Recorder:
    """Spans of one process, plus counters keyed by (operation, name)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int) -> int:
        index = len(self.spans) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((name_id, perf_counter_ns(), 0, parent, self.op))
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index * _FIELDS + 2] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[(self.op, name)] += value


def _observe(recorder: Recorder, name: str, result: object) -> None:
    """Counters taken at the span boundary from the value a call returned."""
    if name == "ntriples.parse_document":
        statements, errors = result
        recorder.count("ntriples.statements", len(statements))
        for error in errors:
            recorder.count(f"ntriples.errors.{error.code.value}")
    elif name == "mapper.integrate":
        report = result[1]
        recorder.count("mapper.hyperedges", report.hyperedges_created)
        recorder.count("mapper.schema_edges", report.schema_edges_created)
        recorder.count("mapper.connectors_v", report.connectors_v)
        recorder.count("mapper.connectors_e", report.connectors_e)
    elif name == "mapper.check_domain_range":
        recorder.count("mapper.warnings", len(result))
    elif name == "hg2.add_connector":
        recorder.count("hg2.add_connector.new", int(result))
    elif name.startswith("traversal."):
        items = result.edges if name == "traversal.path_exists" else result.items
        recorder.count(f"{name}.items", len(items))


_OBSERVED = ("ntriples.parse_document", "mapper.integrate", "mapper.check_domain_range",
             "hg2.add_connector")


def _wrap(function, recorder: Recorder, name: str):
    name_id = recorder.name_id(name)
    observed = name in _OBSERVED or name.startswith("traversal.")

    def traced(*args, **kwargs):
        index = recorder.enter(name_id)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.exit(index)
        if observed:
            _observe(recorder, name, result)
        return result

    traced.__wrapped__ = function
    traced.bench_span = name
    return traced


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(recorder: Recorder) -> None:
    """Wrap every target of the currently imported program."""
    for path, attribute, name in TARGETS:
        owner = _owner(path)
        setattr(owner, attribute, _wrap(owner.__dict__[attribute], recorder, name))


def uninstall() -> None:
    """Put back the program's own function of every wrapped target."""
    for path, attribute, _ in TARGETS:
        owner = _owner(path)
        function = owner.__dict__[attribute]
        if hasattr(function, "bench_span"):
            setattr(owner, attribute, function.__wrapped__)


def traced_op(index: int) -> bool:
    """Whether operation ``index`` of an interleaved job runs with wrappers.

    Operations come in pairs, one traced and one not, so the tracing overhead
    is the difference within each pair and the machine's drift cancels; the
    order alternates (traced first, then plain first) so neither side always
    gets the caches the other warmed."""
    return index % 4 in (0, 3)


def wrapped_targets() -> list[str]:
    """``path.attribute`` of every target that currently carries a wrapper."""
    return [
        f"{path}.{attribute}"
        for path, attribute, _ in TARGETS
        if hasattr(_owner(path).__dict__[attribute], "bench_span")
    ]


def aggregate(names: list[str], spans: array) -> dict[int, dict[str, dict[str, float]]]:
    """Per operation id and span name: calls, inclusive seconds, self seconds."""
    count = len(spans) // _FIELDS
    durations = [spans[i * _FIELDS + 2] - spans[i * _FIELDS + 1] for i in range(count)]
    covered = [0] * count
    for i in range(count):
        parent = spans[i * _FIELDS + 3]
        if parent >= 0:
            covered[parent] += durations[i]
    result: dict[int, dict[str, dict[str, float]]] = {}
    for i in range(count):
        per_name = result.setdefault(spans[i * _FIELDS + 4], {})
        entry = per_name.setdefault(names[spans[i * _FIELDS]], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += durations[i] / 1e9
        entry["self_s"] += (durations[i] - covered[i]) / 1e9
    return result
