"""The live reconstruction daemon: ingest + checkpoint + query in one loop.

:class:`RefillServer` is the one daemon class, at every ``--shards``.  It
owns everything that does not depend on where the sessions live:

- **readers** (:mod:`repro.serve.ingest`) frame connection/tail bytes into
  line batches on a bounded queue, against the public
  :class:`~repro.serve.ingest.SourceBook` of resume offsets;
- a single **consumer** task hands batches to the shard state, refreshes
  dirty flows after an idle gap, and writes periodic checkpoints;
- the **query API** (:mod:`repro.serve.http`), the flight recorder,
  signal handling, and the graceful shutdown.

Only two things depend on the shard count: where reconstruction state
lives, and how a query reaches it.  That is the shard state, ``state``:

- ``--shards 1``: one in-process :class:`~repro.serve.shard.ShardWorker`
  (decode → ``session.ingest`` → refresh, with no socket hop);
- ``--shards N``: a :class:`~repro.serve.router.ShardSet` of N subprocess
  workers, reached through routing, scatter-gather merges, a checkpoint
  barrier and a liveness monitor.

Each shard subprocess is itself a ``RefillServer`` built by
:func:`repro.serve.shard.run_shard` with a :class:`ShardSpec`.  It differs
only in coordination: it installs no signal handlers (the public daemon
owns shutdown), restores the one shard file the daemon names, and writes
its shard file only on ``POST /checkpoint?epoch=N``.

Checkpoints are one protocol at every ``--shards``: under the ingest lock,
every shard writes its epoch-stamped file, then the manifest at the
checkpoint path is atomically replaced — the commit point (see
:mod:`repro.serve.checkpoint`).  Restore is one path too: read the
manifest, check its ``shards`` and its files, restore the evidence, and
re-derive its flows once through the normal refresh.

Everything runs on one event loop in one thread: session mutations happen
only inside synchronous stretches of the consumer or a handler, so state is
consistent at every ``await`` without locks.  Reconstruction is CPU work —
a query issued mid-refresh waits; per-packet flows are tiny, so stalls are
bounded by one batch, not the corpus.

Graceful shutdown (SIGTERM/SIGINT or ``POST /shutdown``): stop accepting,
cancel live connections and tails, drain the queued batches into the
shard state (concurrently with reaping, so a reader parked on a full queue
can always finish), refresh, checkpoint, stop the shards, exit.  A dead
shard, a failed forward or any other consumer failure is fail-stop: the
daemon skips the final checkpoint, so the last committed manifest stays
the recoverable truth, and :meth:`RefillServer.run` returns 1.
Evidence still in a connection's socket buffer is *not* consumed — that is
what per-source offsets are for: the restarted server tells each
reconnecting source how much to skip, so nothing is lost and no line is
re-sent.
"""

from __future__ import annotations

import asyncio
import pathlib
import signal
import time
import traceback
from typing import Any, Callable, Optional, Union

from repro.core.serialize import dumps_canonical
from repro.events.packet import PacketKey
from repro.obs.recorder import FlightRecorder, use_recorder
from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    use_registry,
)
from repro.obs.structlog import get_logger
from repro.serve._compat import install_streams_cancel_filter, timeout
from repro.serve.checkpoint import (
    ClusterManifest,
    gc_shard_files,
    open_manifest,
    save_manifest,
    shard_checkpoint_path,
)
from repro.serve.config import ServeConfig
from repro.serve.http import QueryApi, build_summary
from repro.serve.ingest import IngestHub, IngestItem, SourceBook
from repro.serve.router import ShardSet
from repro.serve.shard import ShardSpec, ShardWorker

_log = get_logger("refill.serve")

#: Every metric family the daemon emits — the doc-coverage test in
#: ``tests/stress/test_docs.py`` holds ``docs/OBSERVABILITY.md`` to this
#: list, so a new gauge cannot ship undocumented.
SERVE_METRIC_NAMES = (
    "serve.ingest.lines",
    "serve.ingest.lag_lines",
    "serve.ingest.lag_seconds",
    "serve.ingest.pending_packets",
    "serve.ingest.queue_batches",
    "serve.ingest.queue_saturation",
    "serve.queue.wait.seconds",
    "serve.source.staleness_seconds",
    "serve.checkpoint.age_seconds",
    "serve.checkpoint.duration_seconds",
    "serve.checkpoints",
    "serve.requests",
    "serve.request.seconds",
    "serve.shard.up",
    "serve.shard.lines",
)


class RefillServer:
    """A long-running reconstruction service over N shards (N >= 1)."""

    def __init__(
        self,
        config: ServeConfig,
        *,
        registry: Optional[MetricsRegistry] = None,
        shard: Optional[ShardSpec] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = FlightRecorder(config.trace_capacity)
        self.metadata = config.metadata()
        #: ``None`` for the public daemon; the spec when this server is one
        #: subprocess worker behind a ``--shards N`` daemon.
        self.shard = shard
        self.book = SourceBook()
        self.hub = IngestHub(config, self.book)
        self.api = QueryApi(self)
        #: Where reconstruction state lives (see the module docstring).
        self.state: Union[ShardWorker, ShardSet] = (
            ShardSet(config, self.book)
            if config.shards > 1
            else ShardWorker(config, self.book)
        )
        #: The manifest path; ``None`` turns checkpointing off (and always
        #: in a shard subprocess, which writes only at the daemon's order).
        self.manifest_path = config.resolved_checkpoint() if shard is None else None
        #: Bound listener ports, published once the listeners are up.
        self.tcp_port: Optional[int] = None
        self.http_port: Optional[int] = None
        #: Whether start-up restored state from an existing checkpoint.
        self.restored = False
        self._restore_checked = False
        self._epoch = 0
        self._dirty_since_checkpoint = False
        self._degraded = False
        self._started_at = time.monotonic()
        #: ``time.monotonic()`` of the last committed checkpoint (age gauge).
        self._last_checkpoint_at: Optional[float] = None
        #: Queue wait of the most recently ingested batch (lag gauge).
        self._last_queue_wait = 0.0
        self._final_snapshot: Optional[MetricsSnapshot] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._ingest_lock: Optional[asyncio.Lock] = None

    # ------------------------------------------------------------------ #
    # start-up restore (sync; before the loop)

    def restore(self) -> bool:
        """Check the checkpoint at the configured path and adopt it.

        The one restore path: read the manifest and every shard file it
        names (``ValueError`` for any bad piece, so a bad checkpoint stops
        start-up before anything listens), adopt the public offsets, and
        restore the shard state.  Idempotent; returns whether there was
        state to restore.
        """
        if self._restore_checked:
            return self.restored
        shards = self.config.shards
        files: list[Optional[str]] = [None] * shards
        if self.shard is not None:
            files = [self.shard.restore_file]
        elif self.manifest_path is not None:
            manifest = open_manifest(self.manifest_path, shards)
            if manifest is not None:
                self.book.restore(manifest.offsets, {}, manifest.lines_routed)
                self._epoch = manifest.epoch
                files = [
                    str(self.manifest_path.parent / name)
                    for name in manifest.shard_files
                ]
        with use_registry(self.registry), use_recorder(self.recorder):
            self.state.restore(files)
        self._restore_checked = True
        self.restored = files[0] is not None
        return self.restored

    # ------------------------------------------------------------------ #
    # checkpoints: one protocol at every --shards

    async def checkpoint(self) -> Optional[dict[str, Any]]:
        """Commit a checkpoint now; ``None`` when no path is configured.

        Under the ingest lock every shard writes its epoch ``E+1`` file,
        then the manifest swap commits the epoch and older shard files are
        deleted.  A crash before the swap leaves epoch ``E`` intact.
        """
        path = self.manifest_path
        if path is None:
            return None
        assert self._ingest_lock is not None
        async with self._ingest_lock:
            started = time.perf_counter()
            epoch = self._epoch + 1
            packets = await self.state.write_epoch(path, epoch)
            manifest = ClusterManifest(
                shards=self.config.shards,
                epoch=epoch,
                offsets=dict(self.book.ingested),
                lines_routed=self.book.lines_ingested,
                shard_files=tuple(
                    shard_checkpoint_path(path, index, epoch).name
                    for index in range(self.config.shards)
                ),
            )
            save_manifest(path, manifest)
            self._epoch = epoch
            gc_shard_files(path, manifest)
            registry = get_registry()
            registry.counter("serve.checkpoints").inc()
            registry.gauge("serve.checkpoint.duration_seconds").set(
                time.perf_counter() - started
            )
            self._last_checkpoint_at = time.monotonic()
            self._dirty_since_checkpoint = False
        _log.debug("serve.checkpointed", manifest=str(path), epoch=epoch)
        return {"path": str(path), "packets": packets, "epoch": epoch}

    async def _checkpoint_or_warn(self) -> None:
        try:
            await self.checkpoint()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - keep serving, keep stopping
            _log.error("serve.checkpoint-failed", error=str(exc))

    def _checkpoint_age(self) -> float:
        anchor = (
            self._last_checkpoint_at
            if self._last_checkpoint_at is not None
            else self._started_at
        )
        return max(0.0, time.monotonic() - anchor)

    # ------------------------------------------------------------------ #
    # the query surface (QueryApi calls these; the shard state answers)

    async def api_readiness(self) -> tuple[bool, dict[str, Any]]:
        """Ready when the queue is drained and every shard is caught up.

        The detail dict mirrors the pipeline-health gauges so a probe (or a
        human with ``curl``) sees the same numbers Prometheus scrapes: line
        lag, the dirty set, queue depth/saturation, the last batch's queue
        wait, and checkpoint age.
        """
        lag = self.book.lag_lines()
        queued = self.hub.queue.qsize()
        inner = await self.state.readiness()
        ready = lag == 0 and queued == 0 and inner["ready"]
        detail = {
            "ready": ready,
            "lag_lines": lag + inner["lag_lines"],
            "pending_packets": inner["pending_packets"],
            "queued_batches": queued + inner["queued_batches"],
            "queue_saturation": queued / self.hub.queue.maxsize,
            "lag_seconds": 0.0 if ready else self._last_queue_wait,
            "checkpoint_age_seconds": self._checkpoint_age(),
        }
        if "shards" in inner:
            detail["shards"] = inner["shards"]
        return ready, detail

    async def api_packets_body(self) -> str:
        return dumps_canonical({"packets": await self.state.packets()})

    async def api_flows_body(self) -> str:
        return await self.state.flows_body()

    async def api_reports_body(self) -> str:
        return dumps_canonical(await self.state.reports_json())

    async def api_packet_body(self, kind: str, packet: PacketKey) -> tuple[int, str]:
        return await self.state.packet_body(kind, packet)

    async def api_summary(self) -> dict[str, Any]:
        reports, pending, batches = await self.state.summary_parts()
        return build_summary(
            reports,
            pending=pending,
            batches_ingested=batches,
            lines_ingested=self.book.lines_ingested,
            sources=len(self.book.ingested),
            metadata=self.metadata,
        )

    async def api_offsets(self) -> dict[str, Any]:
        book = self.book
        return {
            "offsets": dict(sorted(book.ingested.items())),
            "received": dict(sorted(book.received.items())),
            "corrupt_lines": dict(sorted((await self.state.corrupt_lines()).items())),
            "lines_ingested": book.lines_ingested,
        }

    async def api_metrics_snapshot(self) -> MetricsSnapshot:
        return await self.state.metrics(get_registry())

    async def api_checkpoint(self, epoch: Optional[int]) -> tuple[int, dict[str, Any]]:
        """``POST /checkpoint``: commit now, or write one epoch's shard file.

        ``epoch`` is the shard protocol — only a shard subprocess accepts
        it, and only it: its file is committed by the public daemon's
        manifest swap, so a shard never writes on its own.  Returns
        ``(status, payload)``: 400 when ``epoch`` is sent to the wrong
        kind of daemon, 409 when no checkpoint path is configured.
        """
        if self.shard is None:
            if epoch is not None:
                return 400, {"error": "epoch is internal to shard workers"}
            written = await self.checkpoint()
            if written is None:
                return 409, {"error": "no checkpoint path configured"}
            return 200, written
        if epoch is None:
            return 400, {"error": "a shard worker checkpoints only at an epoch"}
        assert isinstance(self.state, ShardWorker)
        path = self.state.write_checkpoint(self.shard.epoch_path(epoch))
        packets = len(self.state.session.packets())
        return 200, {"path": str(path), "packets": packets, "epoch": epoch}

    def listeners(self) -> list[dict[str, Any]]:
        """One descriptor per bound listener (the ``--print-ports`` shape).

        Each entry carries a unique ``listener`` name plus enough to connect
        (``port`` for TCP, ``path`` for unix sockets); harnesses parse the
        emitted lines into a name-keyed dict without positional guessing.
        At ``--shards N`` every shard's private listeners follow.
        """
        out: list[dict[str, Any]] = [
            {
                "listener": "ingest",
                "transport": "tcp",
                "host": self.config.host,
                "port": self.tcp_port,
            }
        ]
        if self.config.unix_socket is not None:
            out.append(
                {
                    "listener": "ingest-unix",
                    "transport": "unix",
                    "path": self.config.unix_socket,
                }
            )
        out.append(
            {
                "listener": "http",
                "transport": "tcp",
                "host": self.config.http_host,
                "port": self.http_port,
            }
        )
        return out + self.state.listeners()

    def request_shutdown(self) -> None:
        """Trigger graceful shutdown; safe from any thread."""
        loop, event = self._loop, self._shutdown
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    # ------------------------------------------------------------------ #
    # the consumer

    async def _ingest(self, item: IngestItem) -> None:
        """Hand one batch to the shard state (the only writer of it)."""
        registry = get_registry()
        if item.enqueued_at and registry.enabled:
            wait = time.perf_counter() - item.enqueued_at
            self._last_queue_wait = wait
            registry.histogram("serve.queue.wait.seconds").observe(wait)
            registry.gauge("serve.ingest.lag_seconds").set(wait)
        assert self._ingest_lock is not None
        async with self._ingest_lock:
            await self.state.ingest(item)
        if item.lines:
            self._dirty_since_checkpoint = True

    def _fail_stop(self, reason: str, event: str = "serve.shard-failed") -> None:
        """In-memory state is unrecoverable (a shard is gone, or the
        consumer died, maybe mid-batch), so stop; the last committed
        manifest stays the truth (clients re-push from its offsets on
        restart)."""
        _log.error(event, error=reason)
        self._degraded = True
        assert self._shutdown is not None
        self._shutdown.set()

    def _consumer_failed(self, exc: Exception) -> None:
        if isinstance(exc, (ConnectionError, OSError)):
            self._fail_stop(f"forward failed: {exc}")
            return
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        self._fail_stop(
            f"{type(exc).__name__}: {exc} at {frame.filename}:{frame.lineno}",
            "serve.consumer-failed",
        )

    async def _drain_queue(self) -> None:
        """Ingest everything queued right now (shutdown; consumer stopped)."""
        while not self._degraded and not self.hub.queue.empty():
            try:
                await self._ingest(self.hub.queue.get_nowait())
            except Exception as exc:  # noqa: BLE001 - fail-stop, see _consume
                self._consumer_failed(exc)

    def _update_gauges(self) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        lag = self.book.lag_lines()
        queued = self.hub.queue.qsize()
        registry.gauge("serve.ingest.lag_lines").set(lag)
        registry.gauge("serve.ingest.queue_batches").set(queued)
        registry.gauge("serve.ingest.queue_saturation").set(
            queued / self.hub.queue.maxsize
        )
        if lag == 0 and queued == 0:
            # drained: the last batch's wait no longer describes the present
            self._last_queue_wait = 0.0
            registry.gauge("serve.ingest.lag_seconds").set(0.0)
        registry.gauge("serve.checkpoint.age_seconds").set(self._checkpoint_age())
        now = time.time()
        for source, seen in self.book.last_seen.items():
            registry.gauge("serve.source.staleness_seconds", source=source).set(
                max(0.0, now - seen)
            )
        self.state.update_gauges()

    async def _consume(self) -> None:
        """Single writer of shard state: dequeue, ingest, refresh.

        On an idle gap (``flush_interval`` with nothing queued) dirty flows
        are refreshed so queries and the readiness probe see fresh results;
        periodic checkpoints piggyback on the same cadence.  Any exception
        is fail-stop: a batch may be half in the session with its lines
        uncounted, so checkpointing it could duplicate evidence on resume.
        """
        try:
            await self._consume_loop()
        except Exception as exc:  # noqa: BLE001 - every failure fail-stops
            self._consumer_failed(exc)

    async def _consume_loop(self) -> None:
        interval = self.config.checkpoint_interval
        next_checkpoint = time.monotonic() + interval if interval > 0 else None
        while True:
            try:
                # timeout() (asyncio.timeout / its 3.10 backport), not
                # wait_for: wait_for wraps the get in a child task, and a
                # cancellation arriving while it reaps that child on timeout
                # is lost (bpo-42130 family) — the shutdown path then
                # deadlocks awaiting a task that never finishes
                async with timeout(self.config.flush_interval):
                    item = await self.hub.queue.get()
            except TimeoutError:
                self.state.refresh()
            else:
                await self._ingest(item)
                self.hub.queue.task_done()
                if item.flush and self.hub.queue.empty():
                    # last batch of a closed connection and nothing else
                    # queued: refresh now instead of waiting out an idle gap
                    self.state.refresh()
            self._update_gauges()
            if (
                next_checkpoint is not None
                and self._dirty_since_checkpoint
                and time.monotonic() >= next_checkpoint
            ):
                await self._checkpoint_or_warn()
                next_checkpoint = time.monotonic() + interval

    async def _watch(self) -> None:
        reason = await self.state.watch()
        if reason is not None:
            self._fail_stop(reason)

    # ------------------------------------------------------------------ #
    # lifecycle

    async def _main(self, ready: Optional[Callable[["RefillServer"], None]]) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        install_streams_cancel_filter(loop)
        self._shutdown = asyncio.Event()
        self._ingest_lock = asyncio.Lock()
        if self.shard is None:
            # a shard subprocess takes orders from the public daemon, not
            # the tty
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._shutdown.set)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform

        servers: list[asyncio.AbstractServer] = []
        tcp = await asyncio.start_server(
            self.hub.handle_connection, self.config.host, self.config.port
        )
        servers.append(tcp)
        self.tcp_port = tcp.sockets[0].getsockname()[1]
        if self.config.unix_socket is not None:
            servers.append(
                await asyncio.start_unix_server(
                    self.hub.handle_connection, path=self.config.unix_socket
                )
            )
        http = await asyncio.start_server(
            self.api.handle_connection, self.config.http_host, self.config.http_port
        )
        servers.append(http)
        self.http_port = http.sockets[0].getsockname()[1]

        consumer = asyncio.create_task(self._consume())
        watcher = asyncio.create_task(self._watch())
        tails = [
            asyncio.create_task(self.hub.tail_file(path, self._shutdown))
            for path in self.config.tail
        ]
        _log.info(
            "serve.listening",
            ingest_port=self.tcp_port,
            http_port=self.http_port,
            unix_socket=self.config.unix_socket or "-",
            tails=len(tails),
            restored=self.restored,
            shards=self.config.shards,
            epoch=self._epoch,
            shard=self.shard.index if self.shard is not None else "-",
        )
        if ready is not None:
            ready(self)

        await self._shutdown.wait()
        _log.info("serve.draining", queued=self.hub.queue.qsize())
        for server in servers:
            server.close()
        # Cancel every producer and the consumer *before* reaping: a reader
        # parked in _enqueue() on a full queue can only finish once cancelled
        # or drained, and from Python 3.12.1 wait_closed() waits for
        # connection handlers — an idle connection sitting in its read
        # timeout would stall shutdown forever.
        consumer.cancel()
        watcher.cancel()
        for tail in tails:
            tail.cancel()
        workers = [
            consumer,
            watcher,
            *tails,
            *self.hub.cancel_readers(),
            *self.api.cancel_handlers(),
        ]
        pending_workers = set(workers)
        while pending_workers:
            # drain concurrently with the reap so a producer caught mid-put
            # always finds a free slot to complete its cancellation through
            _done, pending_workers = await asyncio.wait(
                pending_workers, timeout=0.05
            )
            await self._drain_queue()
        for worker in workers:
            if not worker.cancelled() and worker.exception() is not None:
                _log.warning(
                    "serve.worker-error", error=str(worker.exception())
                )
        for server in servers:
            await server.wait_closed()
        # whatever the readers got onto the queue before they stopped
        await self._drain_queue()
        await self._finalize()
        if self.config.unix_socket is not None:
            # refill: no-cc001 -- one-shot unlink on the shutdown path, after serving stopped
            pathlib.Path(self.config.unix_socket).unlink(missing_ok=True)
        self._write_final_outputs()
        _log.info(
            "serve.stopped",
            lines=self.book.lines_ingested,
            epoch=self._epoch,
            degraded=self._degraded,
        )

    async def _finalize(self) -> None:
        """Refresh, final checkpoint, final metrics, then stop the shards.

        Order matters: commit while the shards still serve, capture the
        merged snapshot, and only then tell them to exit.  A degraded
        daemon skips the checkpoint — the last committed manifest stays
        the recoverable truth.
        """
        if not self._degraded:
            self.state.refresh()
            self._update_gauges()
            await self._checkpoint_or_warn()
            if self.config.metrics_out is not None:
                try:
                    self._final_snapshot = await self.api_metrics_snapshot()
                except (ConnectionError, OSError, RuntimeError) as exc:
                    _log.warning("serve.final-metrics-failed", error=str(exc))
        await self.state.close()

    def _write_final_outputs(self) -> None:
        """Dump ``--metrics-out`` / ``--trace-out`` on graceful shutdown.

        The metrics file follows the ``refill analyze --metrics-out``
        contract exactly (sorted-key JSON snapshot plus trailing newline);
        the trace file is the flight recorder as JSON Lines, oldest first.
        """
        if self.config.metrics_out is not None:
            snapshot = self._final_snapshot or self.registry.snapshot()
            path = pathlib.Path(self.config.metrics_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(snapshot.to_json_str() + "\n")
            _log.info("serve.metrics-written", path=str(path))
        if self.config.trace_out is not None:
            count = self.recorder.dump_jsonl(self.config.trace_out)
            _log.info(
                "serve.trace-written", path=self.config.trace_out, records=count
            )

    def run(self, ready: Optional[Callable[["RefillServer"], None]] = None) -> int:
        """Blocking entry point: serve until SIGTERM/SIGINT or ``/shutdown``;
        ``1`` after a fail-stop, else ``0``.

        Restores (see :meth:`restore`) and starts the shard state before
        the loop — shard subprocesses spawn here, since process creation
        is blocking work — and joins them after it exits.  All
        instrumentation of the daemon (and of the reconstruction it hosts)
        lands in ``self.registry`` — what ``GET /metrics`` serves — and
        every completed traced span lands in ``self.recorder`` — what ``GET
        /debug/trace`` serves.  Both contexts are installed before the loop
        starts, so every task the daemon spawns inherits them.
        """
        self.restore()
        with use_registry(self.registry), use_recorder(self.recorder):
            try:
                self.state.start()
                asyncio.run(self._main(ready))
            finally:
                self.state.join()
        return 1 if self._degraded else 0
