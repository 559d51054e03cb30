"""Server-side ingest: connections, file tails, and the bounded queue.

Readers (one task per connection, one per tailed file) frame bytes into
complete lines by the codec's one line rule (:func:`~repro.events.codec.cut_lines`) and enqueue
them as :class:`IngestItem` batches on a *bounded* :class:`asyncio.Queue`.
A full queue blocks the reader coroutine, which stops draining its socket —
kernel buffers fill, the TCP window closes, and the producer is throttled
instead of the daemon buffering unboundedly.  The single consumer (in
:mod:`repro.serve.server`) decodes batches with the shared tolerant scanner
and feeds the reconstruction session; decode work deliberately stays out of
the readers so backpressure reflects *reconstruction* capacity, not parse
capacity.

Offsets bookkeeping lives in :class:`SourceBook`: ``received`` counts lines
accepted off the wire (what a reconnecting ``HELLO`` must skip), and
``ingested`` counts lines the consumer has fed to the session (what a
checkpoint may safely record).  The gap between the two is exactly the
queue — the served ``serve.ingest.lag_lines`` gauge.
"""

from __future__ import annotations

import asyncio
import pathlib
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.events.codec import DecodeIssue, LineAssembler, scan_lines
from repro.events.event import Event
from repro.events.store import read_complete_lines, shard_node
from repro.obs.recorder import get_recorder
from repro.obs.structlog import get_logger
from repro.obs.tracing import current_trace_id, mint_trace_id, set_trace_id, traced
from repro.serve import protocol
from repro.serve._compat import timeout
from repro.serve.config import ServeConfig

_log = get_logger("refill.serve.ingest")

#: Source name used for connections that never sent a ``HELLO``.
ANONYMOUS_SOURCE = "(anonymous)"


@dataclass
class IngestItem:
    """One queued batch of complete lines from one source."""

    source: Optional[str]
    node_bind: Optional[int]
    lines: list[str]
    #: Trace id of the connection/tail that produced the batch (metadata
    #: only — carried so the consumer's decode/ingest spans attribute to
    #: the originating push; never consulted when decoding the lines).
    trace_id: Optional[str] = None
    #: ``time.perf_counter()`` at enqueue; the consumer's dequeue observes
    #: the difference as ``serve.queue.wait.seconds``.
    enqueued_at: float = 0.0
    #: True on the last batch of a closing connection: the source is done
    #: sending, so the consumer may refresh immediately once the queue is
    #: drained instead of waiting out a ``flush_interval`` idle gap.
    flush: bool = False


@dataclass
class SourceBook:
    """Per-source line accounting (see module docstring)."""

    #: Lines ingested into the session — the checkpointable truth.
    ingested: dict[str, int] = field(default_factory=dict)
    #: Lines accepted off the wire — what HELLO reports to clients.
    received: dict[str, int] = field(default_factory=dict)
    #: Lines the tolerant scanner (or a node binding) rejected.
    corrupt: dict[str, int] = field(default_factory=dict)
    #: Total ingested lines across every source, anonymous included.
    lines_ingested: int = 0
    #: Wall time a source last delivered lines (runtime-only — never
    #: checkpointed; feeds the per-source staleness gauges).
    last_seen: dict[str, float] = field(default_factory=dict)

    def restore(self, offsets: dict[str, int], corrupt: dict[str, int],
                lines_ingested: int) -> None:
        """Adopt checkpointed offsets: received restarts at ingested."""
        self.ingested = dict(offsets)
        self.received = dict(offsets)
        self.corrupt = dict(corrupt)
        self.lines_ingested = lines_ingested

    def count_ingested(self, source: Optional[str], n: int) -> None:
        """Record ``n`` lines of ``source`` as ingested (``None``: anonymous)."""
        self.lines_ingested += n
        if source is not None:
            self.ingested[source] = self.ingested.get(source, 0) + n

    def lag_lines(self) -> int:
        """Lines accepted but not yet ingested (the queue's content)."""
        received = sum(self.received.values())
        tracked = sum(
            n for source, n in self.ingested.items() if source in self.received
        )
        return max(0, received - tracked)


def decode_lines(
    lines: list[str], node_bind: Optional[int]
) -> tuple[dict[int, list[Event]], int]:
    """Tolerantly decode a line batch into per-node ordered events.

    Returns ``(events_by_node, corrupt_count)``.  The store loader's
    scanner decides, misfiled lines under a node binding included, which
    keeps served flows byte-identical to a batch run over the same files.
    """
    events_by_node: dict[int, list[Event]] = {}
    corrupt = 0
    for _lineno, decoded in scan_lines(lines, node_bind):
        if isinstance(decoded, DecodeIssue):
            corrupt += 1
        else:
            events_by_node.setdefault(decoded.node, []).append(decoded)
    return events_by_node, corrupt


class IngestHub:
    """Owns the bounded queue and the reader-side protocol."""

    def __init__(self, config: ServeConfig, book: SourceBook) -> None:
        self.config = config
        self.book = book
        self.queue: asyncio.Queue[IngestItem] = asyncio.Queue(
            maxsize=config.ingest_queue_batches
        )
        self.connections_total = 0
        #: Live connection-reader tasks; shutdown cancels them so a reader
        #: parked on a full queue (or an idle socket) cannot stall the drain.
        self.reader_tasks: set[asyncio.Task] = set()
        #: Sources with an active HELLO'd connection — one pusher at a time,
        #: or two clients handed the same offset would double-ingest.
        self._active_sources: set[str] = set()

    def cancel_readers(self) -> list[asyncio.Task]:
        """Cancel every live connection reader; returns the tasks to reap."""
        tasks = [task for task in self.reader_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        return tasks

    # ------------------------------------------------------------------ #
    # connection reader

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self.reader_tasks.add(task)
        try:
            await self._read_connection(reader, writer)
        finally:
            if task is not None:
                self.reader_tasks.discard(task)

    async def _read_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One ingest connection: optional HELLO, data lines, optional BYE.

        Any exception is contained to this connection — a hostile or broken
        peer never takes the daemon down.
        """
        self.connections_total += 1
        assembler = LineAssembler()
        source: Optional[str] = None
        node_bind: Optional[int] = None
        accepted = 0
        first_line = True
        pending: list[str] = []
        batch_limit = self.config.ingest_batch_lines
        #: Data lines not yet folded into ``book.received`` — settled before
        #: every await so concurrently-running coroutines (metrics, lag
        #: gauges, HELLO offsets) observe exactly the per-line counts.
        recv_pending = 0

        def settle() -> None:
            nonlocal recv_pending
            if recv_pending:
                if source is not None:
                    self.book.received[source] = (
                        self.book.received.get(source, 0) + recv_pending
                    )
                recv_pending = 0

        try:
            while True:
                try:
                    async with timeout(self.config.flush_interval):
                        chunk = await reader.read(65536)
                except TimeoutError:
                    # slow producer: ship what we have instead of sitting on it
                    if pending:
                        await self._enqueue(source, node_bind, pending)
                        pending = []
                    continue
                if not chunk:
                    break  # disconnect; partial tail (if any) is discarded
                with traced("serve.frame"):
                    framed = list(assembler.feed(chunk))
                if framed and source is not None:
                    # once per chunk, not per line — staleness needs chunk
                    # granularity and time.time() is hot-loop poison
                    # refill: no-cc010 -- one read per network chunk, not per line; the per-line form was the 34% regression
                    self.book.last_seen[source] = time.time()
                for line in framed:
                    # control_word strips and splits every line; a data line
                    # can only be a control word if it is the first line
                    # (HELLO) or literally contains "BYE", so skip the rest
                    if first_line or "BYE" in line:
                        word = protocol.control_word(line)
                    else:
                        word = None
                    if word == protocol.HELLO and first_line:
                        first_line = False
                        try:
                            hello = protocol.parse_hello(line)
                        except ValueError as exc:
                            writer.write(f"ERR {exc}\n".encode())
                            await writer.drain()
                            return
                        if hello.source in self._active_sources:
                            # a second pusher would get the same offset and
                            # double-ingest the suffix — refuse it outright
                            writer.write(
                                f"ERR source {hello.source} already has an"
                                " active connection\n".encode()
                            )
                            await writer.drain()
                            return
                        self._active_sources.add(hello.source)
                        # from here `source` marks ownership: the finally
                        # below releases exactly what this connection claimed
                        source, node_bind = hello.source, hello.node
                        # the trace id is task-local: this reader's spans
                        # and batches attribute to it, siblings are unaffected
                        set_trace_id(hello.trace)
                        recorder = get_recorder()
                        if recorder is not None:
                            recorder.record_event(
                                "ingest.hello",
                                trace_id=hello.trace,
                                source=source,
                                offset=self.book.received.get(source, 0),
                            )
                        offset = self.book.received.get(source, 0)
                        writer.write(
                            (protocol.format_ok(offset=offset) + "\n").encode()
                        )
                        await writer.drain()
                        continue
                    first_line = False
                    if word == protocol.BYE:
                        settle()
                        await self._enqueue(source, node_bind, pending, flush=True)
                        pending = []
                        writer.write(
                            (protocol.format_ok(accepted=accepted) + "\n").encode()
                        )
                        await writer.drain()
                        return
                    pending.append(line)
                    accepted += 1
                    recv_pending += 1
                    if len(pending) >= batch_limit:
                        settle()
                        await self._enqueue(source, node_bind, pending)
                        pending = []
                settle()
        except asyncio.CancelledError:
            # server shutdown: drop the un-enqueued tail instead of blocking
            # on the queue — the checkpoint records only *ingested* offsets,
            # so a reconnecting client is told to resend exactly these lines
            settle()
            pending = []
            raise
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # mid-stream disconnects are normal operation
        except Exception as exc:  # noqa: BLE001 - isolate hostile peers
            _log.warning("ingest.connection-error", error=str(exc))
        finally:
            settle()
            if source is not None:
                self._active_sources.discard(source)
            if pending:
                await self._enqueue(source, node_bind, pending, flush=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _enqueue(
        self,
        source: Optional[str],
        node_bind: Optional[int],
        lines: list[str],
        flush: bool = False,
    ) -> None:
        item = IngestItem(
            source,
            node_bind,
            list(lines),
            trace_id=current_trace_id(),
            enqueued_at=time.perf_counter(),
            flush=flush,
        )
        # the span times backpressure: a full queue parks this reader here
        with traced("serve.enqueue"):
            await self.queue.put(item)

    # ------------------------------------------------------------------ #
    # file tailing

    async def tail_file(self, path, stop: asyncio.Event) -> None:
        """Poll ``path`` for newly completed lines until ``stop`` is set.

        The source id is the file's name; offsets make restarts resume at
        the checkpointed line, and a vanished/unreadable file just pauses
        the tail (deployments rotate and re-ship logs).
        """
        path = pathlib.Path(path)
        source = path.name
        node_bind = shard_node(path)
        # one trace spans the tail session — every batch this task enqueues
        # attributes to it, exactly like a pushing client's HELLO trace
        set_trace_id(mint_trace_id())
        recorder = get_recorder()
        if recorder is not None:
            recorder.record_event(
                "ingest.tail.start", trace_id=current_trace_id(), source=source
            )
        while not stop.is_set():
            offset = self.book.received.get(source, 0)
            try:
                lines = read_complete_lines(path, start_line=offset)
            except OSError:
                lines = []
            if lines:
                self.book.received[source] = offset + len(lines)
                # refill: no-cc010 -- once per poll interval when new lines landed, not per line
                self.book.last_seen[source] = time.time()
                for start in range(0, len(lines), self.config.ingest_batch_lines):
                    await self._enqueue(
                        source,
                        node_bind,
                        lines[start : start + self.config.ingest_batch_lines],
                    )
            try:
                async with timeout(self.config.tail_interval):
                    await stop.wait()
            except TimeoutError:
                continue
