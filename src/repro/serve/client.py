"""Client side of the ingest protocol: push log lines at a daemon.

:class:`LineSender` is a small blocking socket client speaking the protocol
in :mod:`repro.serve.protocol`.  The convenience functions cover the two
deployment shapes:

- :func:`push_lines` — one source, one connection: ``HELLO`` (when named),
  skip the server's offset, stream, ``BYE``;
- :func:`push_store` — replay a whole on-disk store, shard by shard, each
  shard as a *node-bound* source named after its file.  Because the binding
  reproduces the store loader's misfiled-line rule and offsets make re-runs
  no-ops, pushing a store twice (or across a server restart) reconstructs
  byte-identically to ``refill analyze`` over the same directory.

Writes go through a plain blocking socket on purpose: when the server's
ingest queue is full its reader stops draining, the TCP window closes, and
``sendall`` here simply blocks — the protocol's backpressure reaches all
the way into this function without any extra machinery.

Every named push also mints a **trace id** (:mod:`repro.obs.tracing`) and
carries it as ``trace=`` metadata in the ``HELLO`` line, so the daemon's
flight recorder can attribute decode/refresh time back to the push that
caused it.  The id travels only in the control line — data lines are
untouched — and old servers that reject the unknown key can be accommodated
by passing ``trace=False``.
"""

from __future__ import annotations

import pathlib
import socket
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.events.store import read_complete_lines, store_shards
from repro.obs.tracing import mint_trace_id
from repro.serve import protocol

#: Lines per ``sendall`` batch; keeps peak client memory flat on big shards.
_SEND_BATCH = 2048


@dataclass(frozen=True)
class PushResult:
    """Outcome of pushing one source's material."""

    #: Lines actually sent on this connection.
    sent: int
    #: Lines skipped because the server had already accepted them.
    skipped: int
    #: The server's ``BYE`` acknowledgement count (== ``sent``).
    accepted: int
    #: Trace id sent in ``HELLO`` (``None`` for anonymous/untraced pushes).
    trace: Optional[str] = None


class LineSender:
    """Blocking protocol client over TCP or a unix socket."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        unix_socket: Optional[str] = None,
        timeout: Optional[float] = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    def connect(self) -> "LineSender":
        if self.unix_socket is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_socket)
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        self._sock = sock
        self._rfile = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "LineSender":
        return self.connect()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # protocol

    def hello(
        self,
        source: str,
        node: Optional[int] = None,
        trace: Optional[str] = None,
    ) -> int:
        """Declare a resumable source; returns the server's resume offset."""
        self._send_text(
            protocol.Hello(source=source, node=node, trace=trace).format() + "\n"
        )
        return int(protocol.parse_ok(self._read_line()).get("offset", 0))

    def send_lines(self, lines: Iterable[str]) -> int:
        """Stream data lines; blocks when the server applies backpressure."""
        sent = 0
        batch: list[str] = []
        for line in lines:
            batch.append(line)
            if len(batch) >= _SEND_BATCH:
                self._send_text("".join(part + "\n" for part in batch))
                sent += len(batch)
                batch = []
        if batch:
            self._send_text("".join(part + "\n" for part in batch))
            sent += len(batch)
        return sent

    def bye(self) -> int:
        """Finish politely; returns the server's accepted-line count."""
        self._send_text(protocol.BYE + "\n")
        return int(protocol.parse_ok(self._read_line()).get("accepted", 0))

    # ------------------------------------------------------------------ #
    # plumbing

    def _send_text(self, text: str) -> None:
        assert self._sock is not None, "not connected"
        self._sock.sendall(text.encode("utf-8"))

    def _read_line(self) -> str:
        assert self._rfile is not None, "not connected"
        raw = self._rfile.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return raw.decode("utf-8", errors="replace").rstrip("\r\n")  # noqa: B005 - char-set strip


def _resolve_trace(trace: Union[str, bool, None]) -> Optional[str]:
    """``True``/``None`` mint a fresh id, ``False`` disables, str passes."""
    if trace is False:
        return None
    if trace is True or trace is None:
        return mint_trace_id()
    return trace


def push_lines(
    lines: list[str],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_socket: Optional[str] = None,
    source: Optional[str] = None,
    node: Optional[int] = None,
    timeout: Optional[float] = 30.0,
    trace: Union[str, bool, None] = None,
) -> PushResult:
    """Push a list of complete lines over one connection.

    With a ``source`` name the transfer is resumable: the server's ``HELLO``
    offset is skipped, so calling this again with the same (or a grown)
    list sends only the tail.  Anonymous pushes send everything.

    ``trace`` controls the ``HELLO`` trace metadata: by default a fresh id
    is minted per push; pass an explicit id to correlate several pushes
    under one trace, or ``False`` to omit the key (e.g. against an old
    server).  Anonymous pushes send no ``HELLO`` and are never traced.
    """
    trace_id = _resolve_trace(trace) if source is not None else None
    with LineSender(host, port, unix_socket=unix_socket, timeout=timeout) as sender:
        skipped = 0
        if source is not None:
            skipped = sender.hello(source, node, trace_id)
        to_send = lines[skipped:]
        sender.send_lines(to_send)
        accepted = sender.bye()
    return PushResult(
        sent=len(to_send), skipped=skipped, accepted=accepted, trace=trace_id
    )


def push_store(
    store,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_socket: Optional[str] = None,
    source_prefix: str = "",
    timeout: Optional[float] = 30.0,
    trace: Union[str, bool, None] = None,
    workers: int = 1,
) -> dict[str, PushResult]:
    """Replay every shard of an on-disk store at a daemon.

    Each ``node_<id>.log`` becomes its own node-bound resumable source named
    ``<source_prefix><filename>``; only newline-terminated lines are sent
    (a shard mid-write is picked up on the next push).  Returns per-source
    results keyed by source name.

    One trace id spans the whole replay (all shards) so the daemon sees the
    store push as a single logical flow; ``trace=False`` disables the
    metadata entirely.

    ``workers > 1`` pushes that many sources concurrently (one connection
    each, blocking sends on a thread pool).  The daemon only guarantees
    ordering *within* a source, which each connection preserves on its own,
    so concurrency never changes the reconstruction — it just keeps a
    sharded daemon's workers busy in parallel.  The result dict is keyed
    and ordered by source name either way.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    push_trace = _resolve_trace(trace)
    shards = store_shards(store)

    def _push_one(node: int, file: pathlib.Path) -> PushResult:
        return push_lines(
            read_complete_lines(file),
            host=host,
            port=port,
            unix_socket=unix_socket,
            source=source_prefix + file.name,
            node=node,
            timeout=timeout,
            trace=push_trace if push_trace is not None else False,
        )

    if workers == 1 or len(shards) <= 1:
        return {source_prefix + file.name: _push_one(node, file) for node, file in shards}
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, len(shards))) as pool:
        outcomes = list(pool.map(lambda shard: _push_one(*shard), shards))
    return {
        source_prefix + file.name: outcome
        for (_node, file), outcome in zip(shards, outcomes)
    }
