"""Never-crash property for the code analyzer.

The analyzer runs as a CI gate: an exception on weird-but-valid Python
would block every PR with a traceback instead of a finding.  So the
property mirrors the codec's tolerant-decode guarantee — any
syntactically valid source (Hypothesis-generated stress modules, every
real file in this repo, and even *invalid* sources) must come back as a
report, never an exception.
"""

import ast
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings

from repro.check.code import check_code, load_module, scan_module
from repro.check.code.analyzer import collect_suppressions
from repro.check.code.modules import classify

from tests.strategies import garbled_lines, python_modules

REPO = pathlib.Path(__file__).resolve().parents[2]
ALL_PY = sorted(
    p
    for d in ("src", "tests", "benchmarks")
    for p in (REPO / d).rglob("*.py")
    if "__pycache__" not in p.parts
)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(source=python_modules())
def test_analyzer_never_raises_on_valid_python(tmp_path_factory, source):
    ast.parse(source)  # strategy sanity: the input really is valid Python
    target = tmp_path_factory.mktemp("prop") / "gen.py"
    target.write_text(source)
    report = check_code([target])
    assert report.exit_code() in (0, 1)


@settings(max_examples=40)
@given(line=garbled_lines())
def test_analyzer_never_raises_on_garbage(tmp_path_factory, line):
    """Even non-Python bytes must land as CC000, not an exception."""
    target = tmp_path_factory.mktemp("garbage") / "junk.py"
    target.write_text(line, errors="replace")
    report = check_code([target])
    assert report.exit_code() in (0, 1)


def test_analyzer_scans_every_repo_file_without_raising():
    infos = [load_module(p) for p in ALL_PY]
    classify(infos)
    for info in infos:
        scan_module(info)  # must not raise on any real source
        if info.source:
            collect_suppressions(info.source)
    assert len(infos) > 100, "repo sweep looks truncated"


@pytest.mark.parametrize("snippet", [
    "",  # empty file
    "\x00\x01\x02",  # binary junk
    "def f(:\n",  # syntax error
    "async def f():\n    await (lambda: 0)\n",  # odd-but-valid await target
    "class C:\n    pass\n" * 200,  # deeply repeated
    "x = (" + "(" * 40 + "1" + ")" * 40 + ")",  # nesting
])
def test_edge_sources_produce_reports(tmp_path, snippet):
    target = tmp_path / "edge.py"
    target.write_text(snippet)
    report = check_code([target])
    assert report.exit_code() in (0, 1)
