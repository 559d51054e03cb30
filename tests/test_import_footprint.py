"""The batch and serve doors load only what they run, and every module has a door.

``refill analyze`` and ``refill serve`` reconstruct from a store; the
simulator (``repro.simnet``), the loss model (``repro.lognet``) and numpy
belong to ``refill simulate`` alone.  An in-process ``refill analyze`` also
loads neither the ``refill check --code`` analyzer, the process pool, the
daemon, the stress engine, the figure renderer, the FSM miner
(``repro.learn``) nor ``importlib.metadata`` (``--version`` alone reads it).
``refill serve`` and ``refill --help`` load no ``repro.check`` either: the
static analyzer belongs to ``analyze``, ``check`` and the commands that
lint.  Each door runs in a fresh interpreter
under ``-X importtime``, which names every module the process imported
over its whole life.

The other direction is static: every ``src/repro`` module must be reached
by some ``import`` from an entry point (the CLI, ``examples/``,
``benchmarks/``, ``refillbench/``).  A module only its own tests import is
code no user runs.
"""

import ast
import os
import pathlib
import subprocess
import sys
import urllib.request

from repro.serve.runner import read_printed_ports

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
STORE = REPO / "tests" / "fixtures" / "defective-deployment"
#: Modules only ``refill simulate`` needs.
SIMULATOR_ONLY = ("numpy", "repro.simnet", "repro.lognet")
#: Modules an in-process ``refill analyze`` does not run.
NOT_IN_ANALYZE = (
    *SIMULATOR_ONLY,
    "importlib.metadata",
    "repro.learn",
    "repro.check.code",
    "repro.serve",
    "repro.stress",
    "repro.vis",
    "multiprocessing",
    "concurrent.futures.process",
)
#: Modules neither ``refill serve`` nor ``refill --help`` runs.
NOT_IN_SERVE = (*SIMULATOR_ONLY, "repro.check")
#: Where the static import walk starts: the CLI and every script directory.
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("examples", "benchmarks", "refillbench")


def _module_file(name: str) -> pathlib.Path | None:
    """The source file of module ``name`` under ``src/`` or the repo root."""
    for root in (SRC, REPO):
        base = root.joinpath(*name.split("."))
        for path in (base.with_suffix(".py"), base / "__init__.py"):
            if path.is_file():
                return path
    return None


def _imported_names(path: pathlib.Path, name: str):
    """Every dotted name an ``import`` in ``path`` may load, at any depth.

    ``from a import b`` yields ``a`` and ``a.b``: ``b`` may be a submodule.
    """
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                module = ".".join(filter(None, [*parts, module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _static_closure() -> set[str]:
    """Modules reached from the entry points by following every ``import``.

    Importing ``a.b.c`` runs ``a/__init__`` and ``a/b/__init__`` first, so
    each parent package joins the closure with the module.
    """
    todo = [(name, _module_file(name)) for name in ENTRY_MODULES]
    for directory in ENTRY_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            todo.append((".".join(path.relative_to(REPO).with_suffix("").parts), path))
    seen: set[str] = set()
    while todo:
        name, path = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for dotted in _imported_names(path, name):
            parts = dotted.split(".")
            for cut in range(1, len(parts) + 1):
                module = ".".join(parts[:cut])
                found = module not in seen and _module_file(module)
                if found:
                    todo.append((module, found))
    return seen


def test_every_src_module_is_reached_from_an_entry_point():
    """A module only tests import is code no door runs: delete it or move it."""
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")
    }
    unreached = sorted(modules - _static_closure())
    assert not unreached, f"no entry point imports {unreached}"


def _refill(stderr, *argv: str, **kwargs) -> subprocess.Popen:
    """``refill <argv>`` in a fresh interpreter, import times to ``stderr``."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, stderr=stderr, text=True, **kwargs,
    )


def _loaded(importtime: str, tops=SIMULATOR_ONLY) -> list[str]:
    """The imported modules that are, or sit under, one of ``tops``."""
    names = [
        line.rsplit("|", 1)[1].strip()
        for line in importtime.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "repro.cli" in names, importtime[-2000:]
    return sorted(
        name for name in names
        if any(name == top or name.startswith(top + ".") for top in tops)
    )


def test_analyze_loads_no_simulator_module(tmp_path):
    """No simulator module, and (an in-process run) no analyzer or process pool."""
    with open(tmp_path / "stderr", "w") as stderr:
        proc = _refill(
            stderr, "analyze", "-q", "--logs", str(STORE),
            "--flows-out", str(tmp_path / "flows.json"), stdout=subprocess.DEVNULL,
        )
        proc.wait(timeout=120)
    importtime = (tmp_path / "stderr").read_text()
    assert proc.returncode == 0, importtime[-2000:]
    assert (tmp_path / "flows.json").stat().st_size > 2
    assert _loaded(importtime, NOT_IN_ANALYZE) == []


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
    assert _loaded(importtime, NOT_IN_SERVE) == []


def test_help_loads_no_static_analyzer(tmp_path):
    with open(tmp_path / "stderr", "w") as stderr:
        proc = _refill(stderr, "--help", stdout=subprocess.DEVNULL)
        proc.wait(timeout=120)
    importtime = (tmp_path / "stderr").read_text()
    assert proc.returncode == 0, importtime[-2000:]
    assert _loaded(importtime, NOT_IN_SERVE) == []
