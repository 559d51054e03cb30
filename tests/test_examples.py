"""The fast example scripts run end to end and exit cleanly.

Each example is a public walk-through of the library API, so a rename or
removal in ``src/`` that an example still uses must fail here, not in a
reader's terminal.  The slow figure/accuracy examples are left to their
benchmark counterparts.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


@pytest.mark.parametrize(
    "name",
    ["quickstart", "live_monitoring", "query_campaign", "dissemination", "packet_tracing"],
)
def test_example_exits_zero(name, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
