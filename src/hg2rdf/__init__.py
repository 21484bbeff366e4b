"""hg2rdf: parse RDF N-Triples and integrate them into a two-layer structure.

The instance layer is a directed hypergraph (one hyperedge per statement,
predicate in the head, subject and object in the tail); the schema layer is a
labeled graph of class and property nodes; connectors tie the layers
together.  See the README for a tour.
"""
from __future__ import annotations

from .dot import to_dot
from .hg2 import (
    FORMAT_VERSION,
    HG2,
    EdgeConnector,
    NodeConnector,
    NodePayload,
    PayloadKind,
    SchemaViolation,
    SerializationError,
    UnknownHyperEdgeError,
    UnknownKind,
    Violation,
    deserialize,
    serialize,
    validate_layering,
)
from .hypergraph import (
    EmptySlotError,
    HyperEdge,
    Hypergraph,
    UnknownNodeError,
)
from .mapper import (
    ANCHOR_IRIS,
    SCHEMA_PREDICATES,
    ConstraintWarning,
    IntegrationReport,
    Layer,
    MissingAnchorError,
    check_domain_range,
    generate_connectors,
    integrate,
    route_statement,
    statement_of,
    validate_mapping,
)
from .ntriples import (
    BadEscape,
    ErrorCode,
    ParseError,
    Statement,
    format_statement,
    format_term,
    parse_document,
    parse_line,
    unescape_literal,
)
from .schema import (
    BUILTIN_VOCABULARY,
    RDF_NS,
    RDFS_NS,
    EdgeKind,
    GraphEdge,
    SchemaGraph,
    load_builtin_vocabulary,
)
from .traversal import (
    PathResult,
    QueryResult,
    instances_of,
    path_exists,
    reachable_from,
    statements_about,
)

__version__ = "0.1.0"

__all__ = [
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
    "RDF_NS",
    "RDFS_NS",
    "SCHEMA_PREDICATES",
    "SchemaGraph",
    "SchemaViolation",
    "SerializationError",
    "Statement",
    "UnknownHyperEdgeError",
    "UnknownKind",
    "UnknownNodeError",
    "Violation",
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
    "__version__",
]
