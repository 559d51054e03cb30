"""``refill analyze --workers N``: every split of the store gives the same
flows bytes, stdout, exit code and counters as ``--workers 1``, and a
failed worker fails the command loudly with nothing written."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]
DEFECTIVE = REPO / "tests" / "fixtures" / "defective-deployment"

#: ``--workers 1`` first: every other variant is held against it.
VARIANTS = {
    "workers-1": ["--workers", "1"],
    "workers-2": ["--workers", "2"],
    "workers-3": ["--workers", "3"],
    "process-2": ["--backend", "process", "--workers", "2"],
}


def damage(store: pathlib.Path) -> None:
    """The damage every door must agree on: a torn final record, an ``=``
    turned into ``\\x1d``, a garbage line, a duplicated line, ``pkt=p+…``,
    a tab, ``t=1_0`` and a non-ASCII ``info`` value."""
    shards = sorted(store.glob("node_*.log"))
    torn = shards[1]
    torn.write_text(torn.read_text().rstrip("\n"))
    shard = shards[2]
    lines = shard.read_text().split("\n")
    lines[0] = lines[0].replace("=", "\x1d", 1)
    lines.insert(2, "garbage line without tokens")
    lines.insert(4, lines[4])
    lines[5] = lines[5].replace("pkt=p", "pkt=p+", 1)
    lines[6] = lines[6].replace(" ", "\t", 1)
    lines[7] = lines[7].rpartition(" t=")[0] + " t=1_0"
    lines[8] += " info=café"
    shard.write_text("\n".join(lines))


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("workers")
    simulated = root / "simulated"
    assert main(["simulate", "-q", "--nodes", "20", "--days", "1", "--seed", "11",
                 "--out", str(simulated)]) == 0
    damaged = root / "damaged"
    shutil.copytree(simulated, damaged)
    damage(damaged)
    return {"simulated": simulated, "damaged": damaged, "defective": DEFECTIVE}


def analyze(store, out: pathlib.Path, extra, capsys):
    flows, metrics = out / "flows.json", out / "metrics.json"
    out.mkdir()
    code = main(["analyze", "-q", "--logs", str(store), "--flows-out", str(flows),
                 "--metrics-out", str(metrics), *extra])
    stdout = capsys.readouterr().out
    counters = json.loads(metrics.read_text())["counters"]
    # each process has its own shape memo, so only the sum is fixed
    hits = counters.pop("refill.memo.hits", 0)
    misses = counters.pop("refill.memo.misses", 0)
    assert hits + misses == counters.get("refill.packets", 0)
    return code, stdout, flows.read_bytes(), counters


@pytest.mark.parametrize("store", ["simulated", "damaged", "defective"])
def test_every_split_gives_the_same_run(stores, store, tmp_path, capsys):
    runs = {
        name: analyze(stores[store], tmp_path / name, extra, capsys)
        for name, extra in VARIANTS.items()
    }
    reference = runs.pop("workers-1")
    assert reference[0] == 0 and reference[2].startswith(b"{")
    for name, run in runs.items():
        assert run == reference, name
    if store == "damaged":
        assert sum(v for k, v in reference[3].items() if k.startswith("codec.corrupt")) > 0


def test_bad_worker_counts_exit_2(stores, capsys):
    for bad in ("0", "-2", "many"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--logs", str(stores["simulated"]), "--workers", bad])
        assert exc.value.code == 2
    capsys.readouterr()


#: Runs ``refill analyze`` in a fresh, single-threaded interpreter whose
#: forks go as ``FORK`` says and whose workers fail as ``FAIL`` says;
#: prints the exit code, the number of workers forked and those still
#: waiting to be reaped.
FAILING_ANALYZE = textwrap.dedent("""\
    import errno, json, os, signal, sys
    from repro.core import split
    from repro.cli import main

    parent, pids, fork = os.getpid(), [], os.fork

    def recording_fork():
        FORK
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    class Session(split.ReconstructionSession):
        def reconstruct_groups(self, groups):
            if os.getpid() != parent:
                FAIL
            return super().reconstruct_groups(groups)

    os.fork = recording_fork
    split.ReconstructionSession = Session
    code = main(sys.argv[1:])
    left = []
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
            left.append(pid)
        except ChildProcessError:
            pass
    print(json.dumps({"code": code, "forked": len(pids), "left": left}))
""")


@pytest.mark.parametrize("fork, fail, reason, forked", [
    ("pass", "raise RuntimeError('boom in a worker')", "RuntimeError: boom in a worker", 2),
    ("pass", "os.kill(os.getpid(), signal.SIGKILL)", "killed by signal 9", 2),
    ("if pids: raise OSError(errno.EAGAIN, 'no fork')", "pass", "cannot start a worker", 1),
])
def test_failed_worker_fails_the_command(stores, tmp_path, fork, fail, reason, forked):
    flows = tmp_path / "flows.json"
    script = FAILING_ANALYZE.replace("FORK", fork).replace("FAIL", fail)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, "analyze", "--logs", str(stores["simulated"]),
         "--workers", "3", "--flows-out", str(flows)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 1, "forked": forked, "left": []}
    assert "event=analyze.worker-failed" in proc.stderr
    assert reason in proc.stderr
    assert not flows.exists()
