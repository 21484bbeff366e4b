"""The README's library quick start runs as written against the current API."""
from __future__ import annotations

import re
from pathlib import Path

from hg2rdf import deserialize

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first ``python`` block under the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert match is not None, "the quick start has no python block"
    return match.group(1)


def test_the_readme_quick_start_runs(capsys):
    namespace: dict = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert namespace["errors"] == [] and len(namespace["statements"]) == 3
    assert '"Rex"' in printed
    # rex is an Animal through Dog, and the document round-trips
    rex = namespace["hg2"].h.find(namespace["statements"][2].subject)
    assert namespace["result"].items == (rex,) and str((rex,)) in printed
    assert deserialize(namespace["doc"]) == namespace["hg2"]
