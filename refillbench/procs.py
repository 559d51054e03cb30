"""Child processes of the benchmark: one-shot CLI runs and the serve daemon.

Every child runs the program from the checkout's ``src/`` with the
interpreter running the benchmark, writes its stdout/stderr to files in the
run's work directory (never to an unread pipe: the daemon's ``http.access``
log writes one line per request), and is reaped with ``wait4`` so its peak
resident set size comes from the kernel, not from sampling.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from repro.serve.runner import read_printed_ports

#: Longest any single child may run before it is killed and counted failed.
CHILD_TIMEOUT_S = 150.0
#: Longest a daemon may take from SIGTERM to exit before it is killed.
STOP_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 60.0


def _env(root: pathlib.Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``): ``(exit code, peak RSS MB)``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # Linux reports KiB


@dataclass
class ChildRun:
    wall_s: float
    code: int
    rss_mb: float


def run_cli(root: pathlib.Path, work: pathlib.Path, tag: str, argv: list[str]) -> ChildRun:
    """Run ``python -m repro <argv>`` to completion and time it end to end."""
    out = work / f"{tag}.out"
    err = work / f"{tag}.err"
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=root, env=_env(root), stdout=fout, stderr=ferr,
        )
        code, rss_mb = _reap(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - started
    return ChildRun(wall, code, rss_mb)


class Daemon:
    """One ``refill serve --shards 1`` process with HTTP helpers."""

    def __init__(self, root: pathlib.Path, work: pathlib.Path, store, tag: str) -> None:
        self.root = root
        self.store = pathlib.Path(store)
        self.tag = tag
        self.checkpoint = work / f"{tag}.checkpoint.json"
        self._out_path = work / f"{tag}.out"
        self._err_path = work / f"{tag}.err"
        self.proc: Optional[subprocess.Popen] = None
        self.ingest_port = 0
        self.http_port = 0
        self.rss_mb = 0.0
        self.exit_code: Optional[int] = None

    def start(self) -> float:
        """Spawn the daemon; returns seconds from spawn until ``/healthz`` answers."""
        started = time.perf_counter()
        with open(self._out_path, "wb") as fout, open(self._err_path, "wb") as ferr:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--logs", str(self.store),
                    "--port", "0", "--http-port", "0",
                    "--checkpoint", str(self.checkpoint),
                    "--checkpoint-interval", "0",
                    "--shards", "1",
                    "--print-ports",
                ],
                cwd=self.root, env=_env(self.root), stdout=fout, stderr=ferr,
            )
        ports = self._await_ports(started + 60.0)
        self.ingest_port = int(ports["ingest"]["port"])
        self.http_port = int(ports["http"]["port"])
        while self.timed("GET", "/healthz")[0] != 200:
            self._require_alive(started + 60.0)
            time.sleep(0.005)
        return time.perf_counter() - started

    def _await_ports(self, deadline: float) -> dict:
        while True:
            text = self._out_path.read_text(errors="replace")
            try:
                return read_printed_ports(text.splitlines(), expect={"ingest", "http"})
            except ValueError:
                self._require_alive(deadline)
                time.sleep(0.01)

    def _require_alive(self, deadline: float) -> None:
        if self.proc is None or self.proc.poll() is not None:
            raise RuntimeError(f"daemon {self.tag} exited during start-up")
        if time.perf_counter() > deadline:
            raise RuntimeError(f"daemon {self.tag} did not start in time")

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def request(self, method: str, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.http_port, timeout=HTTP_TIMEOUT_S)
        try:
            conn.request(method, path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def timed(self, method: str, path: str) -> tuple[int, bytes, float]:
        """``request`` plus its client-side latency in seconds (status 0 on I/O error)."""
        started = time.perf_counter()
        try:
            status, body = self.request(method, path)
        except (OSError, http.client.HTTPException):
            status, body = 0, b""
        return status, body, time.perf_counter() - started

    def wait_ready(self, timeout: float = 120.0) -> bool:
        """Poll ``/readyz`` until 200; False on timeout or daemon death."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline and self.alive():
            status, _body, _s = self.timed("GET", "/readyz")
            if status == 200:
                return True
            time.sleep(0.005)
        return False

    def metrics(self) -> dict:
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> int:
        """Graceful SIGTERM, reap, record peak RSS; returns the exit code."""
        if self.proc is None or self.exit_code is not None:
            return self.exit_code or 0
        if self.proc.poll() is not None:
            # it exited on its own and poll() reaped it: no rusage to read
            self.exit_code = self.proc.returncode
            return self.exit_code
        self.proc.send_signal(signal.SIGTERM)
        self.exit_code, self.rss_mb = _reap(self.proc, STOP_TIMEOUT_S)
        return self.exit_code
