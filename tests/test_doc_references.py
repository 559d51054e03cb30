"""Every ``repro.…`` name the README and ``docs/`` put in backticks exists.

A doc that names a deleted module or class sends readers to code that is
gone, so each backticked dotted name must resolve by import plus getattr.
Two spellings are not Python names and are handled apart: globs such as
``repro.analysis.report.render_*`` must match at least one attribute, and
file names such as ``repro.json`` are skipped.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
NAME = re.compile(r"`(repro(?:\.[\w*]+)+)")
FILE_SUFFIXES = (".json", ".jsonl", ".md", ".py", ".log")


def _names() -> list[tuple[str, str]]:
    found = set()
    for doc in DOCS:
        for name in NAME.findall(doc.read_text(encoding="utf-8")):
            found.add((doc.name, name))
    return sorted(found)


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_docs_name_enough_symbols():
    assert len(_names()) > 50


@pytest.mark.parametrize("doc,name", _names(), ids=lambda v: v)
def test_backticked_name_resolves(doc, name):
    if name.endswith(FILE_SUFFIXES):
        return  # a file name, not a Python name
    if "*" in name:
        parent, _, pattern = name.rpartition(".")
        regex = re.compile(pattern.replace("*", r"\w*") + r"\Z")
        assert any(regex.match(attr) for attr in dir(_resolve(parent))), (doc, name)
        return
    _resolve(name)
