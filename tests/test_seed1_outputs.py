"""The CLI's outputs on the seed-1 benchmark corpora, pinned by sha256.

For each workload the corpus is written to a directory and run through
``build`` (the document), ``stats``, ``export --format dot`` and ``export
--format json-doc`` of that document, and ``validate`` (its exit code,
standard output, and standard error with the directory replaced by
``<dir>``).  A change that keeps these digests writes byte for byte what the
code before it wrote.  Run ``python tests/test_seed1_outputs.py`` from the
repository root (with ``src`` on ``PYTHONPATH``) to print the digests.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from hg2rdf.cli import main

PINNED = {
    "ingest": {
        "build": "b899fe2bd855ad836eb3b4d06d0129d239fae33750a325a8a8d76fc197419e27",
        "stats": "c02940b43dd05330c8b9f822bb7a4c5ad74e769ec42d6dfa06ee3c3b98f0fbdc",
        "export-dot": "06c785ea81e6ee55afd04e6990138ea3a8e69b2a5b67957c90d05150b33c5492",
        "export-json-doc": "b899fe2bd855ad836eb3b4d06d0129d239fae33750a325a8a8d76fc197419e27",
        "validate": "e80d922c170673e359f5c8645addf95b9ab77efbd7a219a3cfc3cf00bc7d9d3f",
    },
    "validate": {
        "build": "cfc7f572a25b2dc1863102e0641c6e0bfed976fdfa020187d37a77a2e056b6bf",
        "stats": "f470d03d0aed03b0e9b26971e438a791363f1d17b74b3b4c298d5e5bb29f3ee1",
        "export-dot": "474e832ac812015cbbd1e3a7ab85c8b5d9c4c0fb54703ce0c5ee94ea7d57f822",
        "export-json-doc": "cfc7f572a25b2dc1863102e0641c6e0bfed976fdfa020187d37a77a2e056b6bf",
        "validate": "c28071ed727dead9a6e899b60fe52e7abed6b74609eca68fb623f27a1c4e2af7",
    },
    "query": {
        "build": "b6c2bb79319d327057caa31256832b46cafe8537b94716633b183b4c22fb3d62",
        "stats": "37e341dd5d639a3102436c91678f4a31c1c8786963ae9635769da75eb5300d6f",
        "export-dot": "c3c38af895e01bdcfd3d868f4363fb15340c6adbc47a89eb3cd866164bd883ee",
        "export-json-doc": "b6c2bb79319d327057caa31256832b46cafe8537b94716633b183b4c22fb3d62",
        "validate": "e6249f34f62c27640fd202ab110fddadac7588c89b48682bfebcce57135ca225",
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digests(corpus, directory: Path) -> dict[str, str]:
    """The sha256 of each output of one corpus, written under ``directory``."""
    inputs: list[str] = []
    for flag, names in (("-s", corpus.schema_inputs), ("-i", corpus.inputs)):
        for name in names:
            (directory / name).write_text(corpus.files[name], encoding="utf-8")
            inputs += [flag, str(directory / name)]
    doc, out = str(directory / "doc.json"), directory / "out"
    result = {}
    assert _run(["build", *inputs, "-o", doc])[0] == 0
    result["build"] = _sha256(Path(doc).read_text(encoding="utf-8"))
    code, stdout, _ = _run(["stats", "-i", doc])
    assert code == 0
    result["stats"] = _sha256(stdout)
    for fmt in ("dot", "json-doc"):
        assert _run(["export", "-i", doc, "--format", fmt, "-o", str(out)])[0] == 0
        result[f"export-{fmt}"] = _sha256(out.read_text(encoding="utf-8"))
    code, stdout, stderr = _run(["validate", *inputs])
    result["validate"] = _sha256(f"{code}\n{stdout}\0{stderr.replace(str(directory), '<dir>')}")
    return result


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_seed1_outputs_keep_their_digests(bench_corpora, tmp_path, workload):
    assert digests(bench_corpora[workload], tmp_path) == PINNED[workload]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    corpus_module = importlib.import_module("corpus")
    for name in PINNED:
        with tempfile.TemporaryDirectory() as directory:
            print(name, digests(corpus_module.generate(corpus_module.SHAPES[name], 1), Path(directory)))
