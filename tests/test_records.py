"""The immutable value records: their text, hashing and immutability, and
which exported classes are dataclasses.

``ParseError``, ``Violation``, ``ConstraintWarning``, ``GraphEdge``,
``QueryResult``, ``PathResult`` and ``IntegrationReport`` are named tuples:
the generated methods come from ``collections.namedtuple``, not from
``@dataclass``, whose per-method ``exec`` runs at import.  Their ``repr``
and ``str`` are pinned here as the dataclasses wrote them.
"""
from __future__ import annotations

import dataclasses
import inspect

import pytest

import hg2rdf
from hg2rdf import (
    ConstraintWarning,
    EdgeKind,
    ErrorCode,
    GraphEdge,
    IntegrationReport,
    ParseError,
    PathResult,
    QueryResult,
    Violation,
)

#: One record of each kind, with its ``repr`` and its ``str``.
RECORDS = [
    (ParseError(3, ErrorCode.BAD_ESCAPE, "dangling backslash at offset 0"),
     "ParseError(line_no=3, code=<ErrorCode.BAD_ESCAPE: 'BadEscape'>, "
     "message='dangling backslash at offset 0', column=0)",
     "line 3: BadEscape: dangling backslash at offset 0"),
    (ParseError(2, ErrorCode.UNEXPECTED_TOKEN, "junk", column=9),
     "ParseError(line_no=2, code=<ErrorCode.UNEXPECTED_TOKEN: 'UnexpectedToken'>, "
     "message='junk', column=9)",
     "line 2, col 9: UnexpectedToken: junk"),
    (Violation("LiteralAsSubject", "literal hypernode 1 occupies tail position 0", node=1, edge=0),
     "Violation(kind='LiteralAsSubject', message='literal hypernode 1 occupies tail position 0', "
     "node=1, edge=0)",
     "LiteralAsSubject: literal hypernode 1 occupies tail position 0"),
    (Violation("K", "m"),
     "Violation(kind='K', message='m', node=None, edge=None)",
     "K: m"),
    (ConstraintWarning("DomainUnsatisfied", 4, "urn:p", "urn:C"),
     "ConstraintWarning(kind='DomainUnsatisfied', node=4, predicate_iri='urn:p', class_iri='urn:C')",
     "DomainUnsatisfied: subject hypernode 4 of <urn:p> is not typed as <urn:C> or a subclass of it"),
    (ConstraintWarning("RangeUnsatisfied", 5, "urn:p", "urn:C"),
     "ConstraintWarning(kind='RangeUnsatisfied', node=5, predicate_iri='urn:p', class_iri='urn:C')",
     "RangeUnsatisfied: object hypernode 5 of <urn:p> is not typed as <urn:C> or a subclass of it"),
    (GraphEdge(1, 2, EdgeKind.TYPE),
     "GraphEdge(src=1, dst=2, kind=<EdgeKind.TYPE: 't'>)",
     "GraphEdge(src=1, dst=2, kind=<EdgeKind.TYPE: 't'>)"),
    (QueryResult((0, 3)), "QueryResult(items=(0, 3))", "QueryResult(items=(0, 3))"),
    (PathResult(True, (2,)), "PathResult(found=True, edges=(2,))", "PathResult(found=True, edges=(2,))"),
    (PathResult(False, ()), "PathResult(found=False, edges=())", "PathResult(found=False, edges=())"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, text, string", RECORDS, ids=IDS)
def test_repr_and_str_are_pinned(record, text, string):
    assert repr(record) == text
    assert str(record) == string


@pytest.mark.parametrize("record", [record for record, _, _ in RECORDS], ids=IDS)
def test_equal_records_hash_equal_and_equal_their_plain_tuple(record):
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert record == tuple(record)
    assert len({record, copy}) == 1


@pytest.mark.parametrize("record", [record for record, _, _ in RECORDS], ids=IDS)
def test_assigning_a_field_raises_attribute_error(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__ either


def test_exactly_three_exported_classes_are_dataclasses():
    # A new dataclass adds generated code to every import of the package.
    classes = {name: getattr(hg2rdf, name) for name in hg2rdf.__all__}
    found = {name for name, value in classes.items()
             if inspect.isclass(value) and dataclasses.is_dataclass(value)}
    assert found == {"NodeConnector", "EdgeConnector", "HyperEdge"}


def test_the_integration_report_is_a_named_tuple_with_its_dataclass_text():
    # Not in RECORDS: its warnings are a list, so it cannot be hashed.
    report = IntegrationReport(3, 2, 1, 6, 3, ["K: m"])
    assert repr(report) == (
        "IntegrationReport(statements_in=3, hyperedges_created=2, schema_edges_created=1, "
        "connectors_v=6, connectors_e=3, warnings=['K: m'])"
    )
    data = report.to_dict()
    assert list(data) == list(IntegrationReport._fields) and data["warnings"] == ["K: m"]
    assert data["warnings"] is not report.warnings
    with pytest.raises(AttributeError):
        report.connectors_v = 7
