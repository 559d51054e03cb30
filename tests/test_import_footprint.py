"""The batch and serve doors load only what they run.

``refill analyze`` and ``refill serve`` reconstruct from a store; the
simulator (``repro.simnet``), the loss model (``repro.lognet``) and numpy
belong to ``refill simulate`` alone.  Each door runs in a fresh interpreter
under ``-X importtime``, which names every module the process imported
over its whole life.
"""

import os
import pathlib
import subprocess
import sys
import urllib.request

from repro.serve.runner import read_printed_ports

REPO = pathlib.Path(__file__).resolve().parents[1]
STORE = REPO / "tests" / "fixtures" / "defective-deployment"
#: Modules only ``refill simulate`` needs.
SIMULATOR_ONLY = ("numpy", "repro.simnet", "repro.lognet")


def _refill(stderr, *argv: str, **kwargs) -> subprocess.Popen:
    """``refill <argv>`` in a fresh interpreter, import times to ``stderr``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, stderr=stderr, text=True, **kwargs,
    )


def _simulator_modules(importtime: str) -> list[str]:
    names = [
        line.rsplit("|", 1)[1].strip()
        for line in importtime.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "repro.cli" in names, importtime[-2000:]
    return sorted(
        name for name in names
        if any(name == top or name.startswith(top + ".") for top in SIMULATOR_ONLY)
    )


def test_analyze_loads_no_simulator_module(tmp_path):
    with open(tmp_path / "stderr", "w") as stderr:
        proc = _refill(
            stderr, "analyze", "-q", "--logs", str(STORE),
            "--flows-out", str(tmp_path / "flows.json"), stdout=subprocess.DEVNULL,
        )
        proc.wait(timeout=120)
    importtime = (tmp_path / "stderr").read_text()
    assert proc.returncode == 0, importtime[-2000:]
    assert (tmp_path / "flows.json").stat().st_size > 2
    assert _simulator_modules(importtime) == []


def test_serve_loads_no_simulator_module(tmp_path):
    stderr = open(tmp_path / "stderr", "w")
    proc = _refill(
        stderr, "serve", "-q", "--logs", str(STORE), "--port", "0", "--http-port", "0",
        "--checkpoint", str(tmp_path / "cp.json"), "--print-ports",
        stdout=subprocess.PIPE,
    )
    try:
        ports = read_printed_ports(proc.stdout, expect={"http"})
        url = f"http://127.0.0.1:{ports['http']['port']}"
        with urllib.request.urlopen(f"{url}/flows", timeout=30) as resp:
            assert resp.status == 200
        urllib.request.urlopen(
            urllib.request.Request(f"{url}/shutdown", method="POST"), timeout=30
        ).close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        stderr.close()
    importtime = (tmp_path / "stderr").read_text()
    assert proc.returncode == 0, importtime[-2000:]
    assert _simulator_modules(importtime) == []
