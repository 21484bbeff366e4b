"""``oracles.LEDGER`` against the names ``oracles.py`` defines and the test
files that import them.

Every public top-level name of ``oracles.py`` has a row; each row names the
test files that import it, all of them and at least one, so an oracle no
test uses fails here; and the ``src/`` code a row guards still exists.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import oracles
from oracles import LEDGER

TESTS = Path(__file__).resolve().parent
ROLES = {"faster-form oracle", "refactor pin", "generator", "checker"}

# The faster paths of src/ that must each keep a faster-form oracle.
FASTER_PATHS = {
    "hg2rdf.ntriples._LINE_RE",
    "hg2rdf.ntriples.parse_document",
    "hg2rdf.ntriples.format_term",
    "hg2rdf.ntriples._malformed_terms",
    "hg2rdf.mapper.integrate",
    "hg2rdf.mapper._map_schemas",
    "hg2rdf.schema.SchemaGraph._append_edges",
    "hg2rdf.hypergraph.Hypergraph._append_nodes",
    "hg2rdf.hypergraph.Hypergraph._append_edges",
    "hg2rdf.hg2.serialize",
    "hg2rdf.hg2.deserialize",
    "hg2rdf.dot.to_dot",
    "hg2rdf.mapper.check_domain_range",
    "hg2rdf.hypergraph.Hypergraph._search",
    "hg2rdf.schema.SchemaGraph.subclass_closure",
    "hg2rdf.traversal.instances_of",
    "hg2rdf.hg2.HG2.anchors_of_node",
    "hg2rdf.mapper.generate_connectors",
}


def defined_names(tree: ast.Module) -> set[str]:
    """The public names a module's top-level statements define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def importers() -> dict[str, set[str]]:
    """Each name imported from ``oracles``, mapped to the test files that
    import it."""
    found: dict[str, set[str]] = {}
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                for alias in node.names:
                    found.setdefault(alias.name, set()).add(path.name)
    return found


def resolve(path: str) -> object:
    """The object a dotted ``hg2rdf.<module>.<attribute>...`` path names."""
    package, module, *attributes = path.split(".")
    target = importlib.import_module(f"{package}.{module}")
    for attribute in attributes:
        target = getattr(target, attribute)
    return target


def test_every_public_name_of_oracles_has_a_row():
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    assert defined_names(tree) - {"LEDGER"} == LEDGER.keys()


def test_each_row_names_every_test_file_that_imports_it():
    found = importers()
    for name, (_, role, tests) in LEDGER.items():
        assert role in ROLES, name
        assert tests, f"no test file uses {name}"
        assert set(tests) == found.get(name, set()), name
    assert found.keys() - {"LEDGER"} <= LEDGER.keys()


def test_every_guarded_path_resolves():
    for name, (guards, role, _) in LEDGER.items():
        if role == "faster-form oracle":
            assert guards is not None, name
        if guards is not None:
            resolve(guards)


def test_every_faster_path_keeps_a_faster_form_oracle():
    guarded = {guards for guards, role, _ in LEDGER.values() if role == "faster-form oracle"}
    assert FASTER_PATHS <= guarded
