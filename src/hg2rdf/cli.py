"""Command-line driver: build, query, export, validate, stats.

Inputs ending in ``.nt`` are parsed as N-Triples and integrated; a single
input with any other extension is read as a serialized structure document.
``--schema`` files are N-Triples loaded before the ``--input`` files, so
vocabulary can be supplied separately from instance data.  Blank node labels
share one scope across all files of a build.

Reports and errors go to standard error; results and documents go to
standard output (or ``--output``), written as they are produced, so a large
document or digraph is never held whole.  Exit codes: 0 success, 1 parse errors
under ``--strict`` or validation violations, 2 usage and I/O failures (a
failed write to standard output too: a full disk, or a reader that left).
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from typing import TextIO

from .dot import to_dot
from .hg2 import HG2, SerializationError, deserialize, serialize, validate_layering
from .mapper import (
    IntegrationReport,
    check_domain_range,
    integrate,
    statement_of,
    validate_mapping,
)
from .ntriples import format_statement, format_term, parse_document
from .traversal import instances_of, path_exists, reachable_from, statements_about


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser with a help write that can fail: argparse's own
    writer drops an OSError, so ``--help`` into a full disk would exit 0."""

    def print_help(self, file: TextIO | None = None) -> None:
        file = sys.stdout if file is None else file
        if file is not None:  # None when standard output is closed
            file.write(self.format_help())


def _add_io_arguments(parser: argparse.ArgumentParser, with_output: bool = True) -> None:
    parser.add_argument(
        "--input",
        "-i",
        action="append",
        default=[],
        metavar="PATH",
        help="N-Triples file (.nt), or a serialized structure document",
    )
    parser.add_argument(
        "--schema",
        "-s",
        action="append",
        default=[],
        metavar="PATH",
        help="N-Triples vocabulary file, loaded before the --input files",
    )
    if with_output:
        parser.add_argument(
            "--output",
            "-o",
            metavar="PATH",
            help="write to PATH instead of standard output",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="hg2rdf",
        description="Integrate RDF N-Triples into a two-layer hypergraph-graph structure.",
    )
    # The command is required, but main checks that itself: argparse checks
    # required arguments before unknown ones, so ``hg2rdf --bogus`` would
    # only say that a command is missing.
    subparsers = parser.add_subparsers(dest="command")

    build = subparsers.add_parser("build", help="integrate inputs and emit the structure")
    _add_io_arguments(build)
    build.add_argument("--strict", action="store_true", help="exit 1 on any parse error")

    query = subparsers.add_parser("query", help="run a traversal query")
    _add_io_arguments(query)
    kind = query.add_mutually_exclusive_group(required=True)
    kind.add_argument("--instances-of", metavar="IRI", help="hypernodes typed as the class or a subclass")
    kind.add_argument("--statements-about", metavar="IRI", help="hyperedges with the IRI in the subject slot")
    kind.add_argument("--reachable", metavar="IRI", help="hypernodes reachable by firing hyperedges forward")
    kind.add_argument("--path", nargs=2, metavar=("FROM", "TO"), help="reachability with a hyperedge witness")

    export = subparsers.add_parser("export", help="render the structure")
    _add_io_arguments(export)
    export.add_argument("--format", required=True, choices=["json-doc", "dot"])

    validate = subparsers.add_parser("validate", help="run structural checks")
    _add_io_arguments(validate, with_output=False)

    stats = subparsers.add_parser("stats", help="print size counts")
    _add_io_arguments(stats, with_output=False)
    return parser


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _read_document(path: str) -> HG2:
    # No local keeps the bytes or the text, so ``deserialize`` can drop the
    # text once it is parsed.
    try:
        return deserialize(_read_file(path).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not valid UTF-8: {exc.reason} at byte {exc.start}") from exc
    except SerializationError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_structure(args: argparse.Namespace) -> tuple[HG2, IntegrationReport | None, int]:
    """Build or load the structure named by --schema/--input.

    Returns (structure, report-or-None, parse error count).  Parse errors are
    printed to standard error as they are found.
    """
    if not args.input and not args.schema:
        raise CliError("at least one --input or --schema file is required")

    documents = [path for path in args.input if not path.endswith(".nt")]
    if documents:
        if len(args.input) != 1 or args.schema:
            raise CliError("a serialized document must be the only input")
        hg2 = _read_document(args.input[0])
        hg2.freeze()
        return hg2, None, 0

    statements = []
    error_count = 0
    for path in [*args.schema, *args.input]:
        parsed, errors = parse_document(_read_file(path))
        for error in errors:
            print(
                f"{path}:{error.line_no}: {error.code.value}: {error.message}",
                file=sys.stderr,
            )
        error_count += len(errors)
        statements.extend(parsed)
    hg2, report = integrate(statements)
    return hg2, report, error_count


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """The handle results are written to: ``path``, or standard output."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _as_iri(text: str) -> str:
    if text.startswith("<") and text.endswith(">"):
        return text[1:-1]
    return text


def _edge_line(hg2: HG2, edge_id: int) -> str:
    statement = statement_of(hg2, edge_id)
    if statement is None:
        return f"hyperedge {edge_id}"
    return format_statement(statement)


def _node_line(hg2: HG2, node_id: int) -> str:
    payload = hg2.h.nodes[node_id]
    try:
        return format_term(payload)
    except ValueError:  # an opaque payload, or a term that cannot be written
        return f"hypernode {node_id}"


def cmd_build(args: argparse.Namespace) -> int:
    hg2, report, error_count = _load_structure(args)
    if args.strict and error_count:
        print(f"aborting: {error_count} parse error(s)", file=sys.stderr)
        return 1
    with _output(args.output) as out:
        serialize(hg2, out)
    if report is not None:
        print(report.summary(), file=sys.stderr)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    hg2, _, _ = _load_structure(args)
    lines: list[str] = []
    if args.statements_about is not None:
        result = statements_about(hg2, _as_iri(args.statements_about))
        lines.extend(_edge_line(hg2, edge_id) for edge_id in result.items)
    elif args.instances_of is not None:
        result = instances_of(hg2, _as_iri(args.instances_of))
        lines.extend(_node_line(hg2, node_id) for node_id in result.items)
    elif args.reachable is not None:
        result = reachable_from(hg2, _as_iri(args.reachable))
        lines.extend(_node_line(hg2, node_id) for node_id in result.items)
    else:
        witness = path_exists(hg2, _as_iri(args.path[0]), _as_iri(args.path[1]))
        lines.append("true" if witness.found else "false")
        lines.extend(_edge_line(hg2, edge_id) for edge_id in witness.edges)
    with _output(args.output) as out:
        out.write("".join(line + "\n" for line in lines))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    hg2, _, _ = _load_structure(args)
    with _output(args.output) as out:
        (serialize if args.format == "json-doc" else to_dot)(hg2, out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    hg2, report, _ = _load_structure(args)
    # integrate already ran the placement checks; their findings are the
    # report's warnings, as text.
    findings = report.warnings if report is not None else map(str, validate_mapping(hg2))
    violations = [*map(str, validate_layering(hg2)), *findings]
    warnings = check_domain_range(hg2)
    for violation in violations:
        print(violation)
    for warning in warnings:
        print(f"warning: {warning}")
    if not violations and not warnings:
        print("ok")
    return 1 if violations else 0


def cmd_stats(args: argparse.Namespace) -> int:
    hg2, _, _ = _load_structure(args)
    print(f"hypernodes: {hg2.h.node_count}")
    print(f"hyperedges: {hg2.h.edge_count}")
    print(f"graph nodes: {hg2.g.node_count}")
    print(f"graph edges: {hg2.g.edge_count}")
    print(f"node connectors: {len(hg2._connectors_v)}")
    print(f"edge connectors: {len(hg2._connectors_e)}")
    return 0


_HANDLERS = {
    "build": cmd_build,
    "query": cmd_query,
    "export": cmd_export,
    "validate": cmd_validate,
    "stats": cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args, unknown = parser.parse_known_args(argv)
            if unknown:
                parser.error(f"unrecognized arguments: {' '.join(unknown)}")
            if args.command is None:
                parser.error("the following arguments are required: command")
        except SystemExit as exc:  # after --help, or a usage error on stderr
            code = exc.code if isinstance(exc.code, int) else 2
        else:
            code = _HANDLERS[args.command](args)
        if sys.stdout is not None:  # None when standard output is closed
            sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        # Reads and --output writes fail as CliError, so this is standard
        # output, help included.  Its descriptor goes to the null device, so
        # that the flush at exit of what is still buffered cannot fail again
        # (after a closed pipe, as Python's signal docs advise in "Note on
        # SIGPIPE", or on a full disk); a stream without one is left as it is.
        with suppress(AttributeError, OSError, ValueError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
