"""The package's public surface: every exported name resolves."""
from __future__ import annotations

import hg2rdf
import hg2rdf.hg2
import hg2rdf.ntriples


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
