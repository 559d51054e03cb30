"""Run a serve daemon on a background thread (tests, benchmarks).

The daemon's natural habitat is a foreground process (``refill serve``),
but tests and benchmarks want it *next to* the code exercising it.
:class:`ServerThread` runs the server's event loop on a daemon thread,
blocks until the listeners are bound (so ``tcp_port``/``http_port`` are
real), and stops it through the same graceful-shutdown path SIGTERM takes —
drain, refresh, checkpoint — so a stopped server's checkpoint is always
valid to restart from.  It builds the one daemon class,
:class:`RefillServer`, at every ``config.shards``.

External harnesses (CI scripts, the verify skill) that run ``refill serve
--print-ports`` as a subprocess parse its output with
:func:`read_printed_ports`: the flag emits exactly one flushed JSON object
per line per listener, so a harness can read lines until it has the
listener it needs instead of scraping logs.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable, Optional

from repro.obs.registry import MetricsRegistry
from repro.serve.config import ServeConfig
from repro.serve.server import RefillServer


def parse_port_line(line: str) -> Optional[dict[str, Any]]:
    """Parse one ``--print-ports`` line; ``None`` for non-listener output.

    Tolerates interleaved log lines (the daemon logs to stderr but a
    harness may merge streams): anything that is not a JSON object with a
    ``listener`` key is skipped.
    """
    stripped = line.strip()
    if not stripped.startswith("{"):
        return None
    try:
        data = json.loads(stripped)
    except ValueError:
        return None
    if not isinstance(data, dict) or "listener" not in data:
        return None
    return data


def read_printed_ports(
    lines: Iterable[str], *, expect: Optional[Iterable[str]] = None
) -> dict[str, dict[str, Any]]:
    """Collect ``--print-ports`` lines into ``{listener-name: descriptor}``.

    With ``expect``, returns as soon as every named listener has been seen
    (so a harness reading a live process's stdout does not block forever);
    raises ``ValueError`` if the stream ends first.
    """
    wanted = set(expect) if expect is not None else None
    out: dict[str, dict[str, Any]] = {}
    for line in lines:
        data = parse_port_line(line)
        if data is None:
            continue
        out[data["listener"]] = data
        if wanted is not None and wanted.issubset(out):
            return out
    if wanted is not None and not wanted.issubset(out):
        missing = sorted(wanted - set(out))
        raise ValueError(f"port stream ended before listeners {missing} appeared")
    return out


class ServerThread:
    """A live daemon on a background thread; context-manager friendly.

    With ``config.shards > 1`` the shard subprocesses are children of this
    process.
    """

    def __init__(
        self, config: ServeConfig, *, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.server = RefillServer(config, registry=registry)
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def tcp_port(self) -> int:
        assert self.server.tcp_port is not None, "server not started"
        return self.server.tcp_port

    @property
    def http_port(self) -> int:
        assert self.server.http_port is not None, "server not started"
        return self.server.http_port

    def listeners(self) -> dict[str, dict[str, Any]]:
        """Bound listeners by name — the same descriptors ``--print-ports``
        emits, minus the serialization round-trip."""
        return {entry["listener"]: entry for entry in self.server.listeners()}

    def start(self, timeout: float = 30.0) -> "ServerThread":
        """Start the loop; returns once the listeners are bound."""

        def _run() -> None:
            try:
                self.server.run(ready=lambda _server: self._started.set())
            except BaseException as exc:  # noqa: BLE001 - surfaced to starter
                self._error = exc
            finally:
                self._started.set()

        self._thread = threading.Thread(
            target=_run, name="refill-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("server did not start in time")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, refresh, checkpoint, join."""
        if self._thread is None:
            return
        self.server.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("server did not stop in time")
        self._thread = None
        if self._error is not None:
            raise RuntimeError("server crashed") from self._error

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
