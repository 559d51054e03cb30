"""One shard's reconstruction state, and the subprocess that hosts it.

:class:`ShardWorker` owns reconstruction state: one streaming
:class:`~repro.core.session.ReconstructionSession` over an
:class:`~repro.core.backends.incremental.IncrementalBackend`, the
:class:`~repro.serve.ingest.SourceBook` of per-source offsets, and the
shard-file write/restore path.  It is loop-agnostic — its work is
synchronous — and :class:`~repro.serve.server.RefillServer` uses it in two
places:

- ``--shards 1``: the daemon drives one worker in-process, so a pushed
  line goes decode → ``session.ingest`` → refresh with no socket hop;
- ``--shards N``: each worker runs inside its own **subprocess** (a
  ``RefillServer`` with private loopback listeners, registry, and flight
  recorder), spawned from :func:`run_shard` with a picklable
  :class:`ShardSpec` and reached through :mod:`repro.serve.router`.
  Subprocesses, not threads: reconstruction is CPU-bound Python, so only
  separate interpreters scale it past one core.

Shard subprocesses do not own coordination: they ignore ``SIGINT`` (a
terminal Ctrl-C reaches the whole process group; the public daemon decides
what to do with it) and leave ``SIGTERM`` at its default — an abrupt kill
writes *nothing*, which is exactly right, because a shard file newer than
the manifest would desynchronize resume offsets from shard state.  Shard
files are written only on the daemon's command (``POST
/checkpoint?epoch=N``) against epoch-stamped paths, and the daemon's
manifest swap commits them (see :mod:`repro.serve.checkpoint`).
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import signal
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.core.backends.incremental import IncrementalBackend
from repro.core.serialize import (
    dumps_canonical,
    flow_to_dict,
    flows_to_json,
    report_to_dict,
    reports_to_json,
)
from repro.core.session import ReconstructionSession
from repro.events.packet import PacketKey
from repro.obs.registry import MetricsRegistry, MetricsSnapshot, get_registry
from repro.obs.structlog import configure_logging, get_logger
from repro.obs.tracing import traced, use_trace
from repro.serve.checkpoint import (
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
    shard_checkpoint_path,
)
from repro.serve.config import ServeConfig
from repro.serve.ingest import ANONYMOUS_SOURCE, IngestItem, SourceBook, decode_lines

_log = get_logger("refill.serve.shard")

#: Environment variable naming a directory where shard subprocesses report
#: leaked asyncio tasks at loop close; set by the test suite's task-ledger
#: fixture so the leak check reaches across the process boundary.
TASK_LEDGER_ENV = "REFILL_TASK_LEDGER_DIR"


@dataclass(frozen=True)
class ShardSpec:
    """Picklable description of one shard subprocess (spawn-safe)."""

    #: This worker's index in ``range(shards)``.
    index: int
    #: Shard count (the hash modulus).
    shards: int
    #: The daemon's manifest path (``None`` → checkpointing disabled).
    manifest_path: Optional[str]
    #: Exact shard checkpoint file to restore, or ``None`` for a fresh start.
    restore_file: Optional[str]
    delivery_node: Optional[int]
    flush_interval: float
    ingest_queue_batches: int
    ingest_batch_lines: int
    trace_capacity: int

    def to_config(self) -> ServeConfig:
        """The subprocess server's config: loopback listeners on OS-assigned
        ports, no store, no checkpoint path (epoch files are written on the
        daemon's command only)."""
        return ServeConfig(
            store=None,
            host="127.0.0.1",
            port=0,
            http_host="127.0.0.1",
            http_port=0,
            checkpoint_interval=0.0,
            flush_interval=self.flush_interval,
            ingest_queue_batches=self.ingest_queue_batches,
            ingest_batch_lines=self.ingest_batch_lines,
            delivery_node=self.delivery_node,
            trace_capacity=self.trace_capacity,
        )

    def epoch_path(self, epoch: int) -> pathlib.Path:
        """Where this shard's epoch-``epoch`` checkpoint file lives."""
        assert self.manifest_path is not None, "checkpointing is not configured"
        return shard_checkpoint_path(self.manifest_path, self.index, epoch)


class ShardWorker:
    """Session + source book + shard-file checkpointing for one shard.

    Loop-agnostic and single-writer by contract.  It is also the daemon's
    in-process shard state: :class:`~repro.serve.server.RefillServer` at
    ``--shards 1`` (and inside every shard subprocess) drives it through
    the same methods it drives :class:`~repro.serve.router.ShardSet`
    through at ``--shards N``.  ``book`` is the daemon's public
    :class:`SourceBook`; a worker constructed alone keeps its own.
    """

    def __init__(self, config: ServeConfig, book: Optional[SourceBook] = None) -> None:
        self.config = config
        self.book = book if book is not None else SourceBook()
        self.session = ReconstructionSession(
            backend=IncrementalBackend(),
            delivery_node=config.resolved_delivery_node(),
        )

    # ------------------------------------------------------------------ #
    # shard-file checkpoint / restore

    def restore(self, files: list[Optional[str]]) -> None:
        """Adopt this shard's checkpoint file (``files[0]``), if any, and
        reconstruct its evidence once, before the daemon listens."""
        path = files[0]
        if path is None:
            return
        checkpoint = load_checkpoint(path)
        self.session.restore_state(checkpoint.session_state)
        self.book.restore(
            checkpoint.offsets, checkpoint.corrupt_lines, checkpoint.lines_ingested
        )
        self.refresh()
        _log.info(
            "serve.restored",
            checkpoint=str(path),
            packets=len(self.session.packets()),
            sources=len(self.book.ingested),
            lines=self.book.lines_ingested,
        )

    def write_checkpoint(self, path) -> pathlib.Path:
        """Write this shard's checkpoint file to ``path`` now."""
        with traced("serve.checkpoint"):
            checkpoint = Checkpoint(
                session_state=self.session.export_state(),
                offsets=dict(self.book.ingested),
                corrupt_lines=dict(self.book.corrupt),
                lines_ingested=self.book.lines_ingested,
            )
            written = save_checkpoint(path, checkpoint)
        _log.debug("serve.checkpointed", path=str(written))
        return written

    # ------------------------------------------------------------------ #
    # ingest

    def ingest_item(self, item: IngestItem) -> None:
        """Decode one queued batch into the session and count its lines."""
        registry = get_registry()
        # the batch's spans attribute to the trace that produced it — the
        # ids ride entirely outside the decoded lines
        with use_trace(item.trace_id):
            with traced("serve.decode", source=item.source or ANONYMOUS_SOURCE):
                events_by_node, corrupt = decode_lines(item.lines, item.node_bind)
            if events_by_node:
                with traced("serve.ingest.batch"):
                    self.session.ingest(events_by_node)
        n = len(item.lines)
        if not n:
            # an empty flush marker (connection closed with nothing pending)
            # must not touch the book
            return
        self.book.count_ingested(item.source, n)
        registry.counter("serve.ingest.lines").inc(n)
        if corrupt:
            source = item.source if item.source is not None else ANONYMOUS_SOURCE
            self.book.corrupt[source] = self.book.corrupt.get(source, 0) + corrupt
            registry.counter("codec.corrupt_lines", source=source).inc(corrupt)

    # ------------------------------------------------------------------ #
    # the daemon's shard-state surface (same methods as router.ShardSet)

    def start(self) -> None:
        """In-process state has nothing to spawn."""

    async def ingest(self, item: IngestItem) -> None:
        self.ingest_item(item)

    def refresh(self) -> None:
        """Refresh dirty flows (an idle gap, or a source finished)."""
        if self.session.pending:
            with traced("serve.refresh"):
                self.session.refresh()

    async def write_epoch(self, manifest_path: pathlib.Path, epoch: int) -> int:
        self.write_checkpoint(shard_checkpoint_path(manifest_path, 0, epoch))
        return len(self.session.packets())

    async def readiness(self) -> dict[str, Any]:
        pending = self.session.pending
        return {
            "ready": pending == 0,
            "lag_lines": 0,
            "pending_packets": pending,
            "queued_batches": 0,
        }

    async def packets(self) -> list[str]:
        return [str(p) for p in self.session.packets()]

    async def flows_json(self) -> dict[str, Any]:
        return flows_to_json(self.session.flows())

    async def reports_json(self) -> dict[str, Any]:
        return reports_to_json(self.session.reports())

    async def packet_body(self, kind: str, packet: PacketKey) -> tuple[int, str]:
        if kind == "flow":
            found = self.session.flow(packet)
            body = flow_to_dict(found) if found is not None else None
        else:
            found = self.session.reports().get(packet)
            body = report_to_dict(found) if found is not None else None
        if body is None:
            return 404, dumps_canonical({"error": f"unknown packet {packet}"})
        return 200, dumps_canonical(body)

    async def summary_parts(self) -> tuple[Mapping[PacketKey, Any], int, int]:
        """``(reports, pending, batches_ingested)`` for ``/summary``."""
        session = self.session
        return session.reports(), session.pending, session.batches_ingested

    async def corrupt_lines(self) -> dict[str, int]:
        return dict(self.book.corrupt)

    async def metrics(self, own: MetricsSnapshot) -> MetricsSnapshot:
        return own

    def update_gauges(self) -> None:
        get_registry().gauge("serve.ingest.pending_packets").set(self.session.pending)

    async def watch(self) -> Optional[str]:
        """In-process state cannot die apart from the daemon."""
        return None

    def listeners(self) -> list[dict[str, Any]]:
        return []

    async def close(self) -> None:
        pass

    def join(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# the subprocess entry point


def run_shard(spec: ShardSpec, conn: Any) -> int:
    """Run one shard server in this (spawned) process.

    ``conn`` is the public daemon's end-of-pipe: one message is sent
    through it — the bound listener ports once the server is up, or an
    ``error`` payload if start-up failed — then it is closed.  The daemon
    drives everything else over the normal ingest/query protocols.
    """
    from repro.serve.server import RefillServer  # deferred: import cycle

    configure_logging(level="warning")
    # Coordination belongs to the public daemon: a group-wide Ctrl-C must
    # not make shards race it to a graceful exit, and SIGTERM stays an abrupt kill so
    # a dying shard never writes a checkpoint newer than the manifest.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ledger_dir = os.environ.get(TASK_LEDGER_ENV)
    if ledger_dir:
        _install_child_task_ledger(ledger_dir)
    server = RefillServer(spec.to_config(), registry=MetricsRegistry(), shard=spec)

    def _ready(running: "RefillServer") -> None:
        conn.send(
            {
                "shard": spec.index,
                "ingest_port": running.tcp_port,
                "http_port": running.http_port,
            }
        )

    try:
        code = server.run(ready=_ready)
    except BaseException as exc:
        try:
            conn.send({"shard": spec.index, "error": repr(exc)})
        except (OSError, ValueError):
            pass
        raise
    finally:
        conn.close()
    return code


def _install_child_task_ledger(report_dir: str) -> None:
    """Mirror the test suite's task-leak check inside a shard subprocess.

    The parent-process fixture monkeypatches ``asyncio.runners`` to fail a
    test when a loop closes with undone tasks; that patch cannot reach a
    spawned child, so the child wraps the same hook itself and *writes a
    report file* the fixture collects after the cluster stops.
    """
    import asyncio.runners as runners

    real = runners._cancel_all_tasks

    def checking(loop: asyncio.AbstractEventLoop) -> None:
        leaked = [
            task for task in asyncio.all_tasks(loop) if not task.done()
        ]
        if leaked:
            report = {
                "pid": os.getpid(),
                "tasks": sorted(repr(task) for task in leaked),
            }
            path = pathlib.Path(report_dir) / f"shard-leaks-{os.getpid()}.json"
            path.write_text(json.dumps(report, indent=2, sort_keys=True))
        real(loop)

    runners._cancel_all_tasks = checking
