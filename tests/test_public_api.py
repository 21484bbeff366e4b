"""The package's public surface: the exported names, and that each resolves."""
from __future__ import annotations

import inspect

import hg2rdf
import hg2rdf.hg2
import hg2rdf.ntriples

#: Every name ``hg2rdf.__all__`` exports, sorted; an API change shows up here.
PUBLIC_NAMES = (
    "ANCHOR_IRIS",
    "BUILTIN_VOCABULARY",
    "BadEscape",
    "ConstraintWarning",
    "EdgeConnector",
    "EdgeKind",
    "EmptySlotError",
    "ErrorCode",
    "FORMAT_VERSION",
    "GraphEdge",
    "HG2",
    "HyperEdge",
    "Hypergraph",
    "IntegrationReport",
    "Layer",
    "MissingAnchorError",
    "NodeConnector",
    "NodePayload",
    "ParseError",
    "PathResult",
    "PayloadKind",
    "QueryResult",
    "RDFS_NS",
    "RDF_NS",
    "SCHEMA_PREDICATES",
    "SchemaGraph",
    "SchemaViolation",
    "SerializationError",
    "Statement",
    "UnknownHyperEdgeError",
    "UnknownKind",
    "UnknownNodeError",
    "Violation",
    "__version__",
    "check_domain_range",
    "deserialize",
    "format_statement",
    "format_term",
    "generate_connectors",
    "instances_of",
    "integrate",
    "load_builtin_vocabulary",
    "parse_document",
    "parse_line",
    "path_exists",
    "reachable_from",
    "route_statement",
    "serialize",
    "statement_of",
    "statements_about",
    "to_dot",
    "unescape_literal",
    "validate_layering",
    "validate_mapping",
)


def test_the_exported_names_are_pinned():
    assert PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))
    assert tuple(sorted(hg2rdf.__all__)) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 54


def test_hypernode_identity_belongs_to_the_hypergraph_layer():
    for name in ("add_node", "find_node", "node_index"):
        assert not hasattr(hg2rdf.HG2, name) and not hasattr(hg2rdf.HG2(), name)
    assert list(inspect.signature(hg2rdf.Hypergraph.add_node).parameters) == ["self", "payload"]


def test_every_exported_name_resolves():
    assert [name for name in hg2rdf.__all__ if not hasattr(hg2rdf, name)] == []
    assert len(hg2rdf.__all__) == len(set(hg2rdf.__all__))


def test_star_import_succeeds():
    namespace: dict[str, object] = {}
    exec("from hg2rdf import *", namespace)
    assert set(hg2rdf.__all__) <= namespace.keys()


def test_the_term_type_resolves_from_the_package_and_both_modules():
    assert hg2rdf.NodePayload is hg2rdf.hg2.NodePayload is hg2rdf.ntriples.NodePayload
    assert hg2rdf.PayloadKind is hg2rdf.hg2.PayloadKind is hg2rdf.ntriples.PayloadKind
