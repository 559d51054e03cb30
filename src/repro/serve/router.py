"""The shard set: N subprocess workers behind one daemon, scatter-gather.

At ``refill serve --shards N`` (N > 1) the
:class:`~repro.serve.server.RefillServer` keeps its public listeners, the
ingest hub, the :class:`~repro.serve.ingest.SourceBook` of resume offsets
and the flight recorder, and reaches reconstruction state through a
:class:`ShardSet`: ``N`` **shard worker subprocesses** (each a
``RefillServer`` on private loopback ports, see
:func:`repro.serve.shard.run_shard`) owning disjoint slices of state,
partitioned by the deterministic packet hash (:mod:`repro.serve.sharding`).
At ``--shards 1`` the same daemon drives one in-process
:class:`~repro.serve.shard.ShardWorker` through the same methods.

Data path.  Readers enqueue line batches exactly as at ``--shards 1``; the
consumer hands each batch to :meth:`ShardSet.ingest`, which *routes*
instead of decoding: each line's ``pkt=`` token picks a shard, and the
batch's slices are forwarded over persistent per-``(source, shard)``
ingest connections speaking the ordinary wire protocol.  Per-source
ordering is preserved (one consumer, one connection per source and shard,
in-order TCP), and backpressure is end-to-end: a full shard queue parks
the forwarding ``drain()``, which parks the consumer, which fills the
daemon's bounded queue, which stops the reader — the client's TCP window
closes just as before.

Query path.  The daemon's ``api_*`` methods call this class's query
methods, which fan out to every shard's private query port and merge
deterministically: flows/reports as canonical-key dict unions
(byte-identical to the unsharded body), summary counters summed,
``/metrics`` through :func:`repro.obs.registry.merge_shard_snapshots`
(counters summed; gauges/histograms relabeled ``shard=k``), readiness as
the min over shards *plus* the conservation check that every routed line
has reached a shard session.

Checkpoints are **coordinated**: the daemon quiesces routing (its ingest
lock), :meth:`ShardSet.write_epoch` waits on the line-conservation barrier
and has every shard write an epoch-stamped file, then the daemon commits
by atomically replacing the manifest — see :mod:`repro.serve.checkpoint`
for the crash-consistency story.  A dead shard fail-stops the daemon
(:meth:`ShardSet.watch`).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import multiprocessing.connection
import pathlib
import time
from typing import Any, Mapping, Optional

from repro.core.serialize import dumps_canonical, report_from_dict
from repro.core.session import session_evidence
from repro.events.packet import PacketKey
from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    merge_shard_snapshots,
)
from repro.obs.structlog import get_logger
from repro.serve import protocol
from repro.serve._compat import timeout
from repro.serve.checkpoint import load_checkpoint
from repro.serve.config import ServeConfig
from repro.serve.ingest import IngestItem, SourceBook
from repro.serve.shard import ShardSpec, run_shard
from repro.serve.sharding import shard_for_line, shard_for_packet

_log = get_logger("refill.serve.router")

#: How long a shard subprocess may take to report its listener ports.
SHARD_START_TIMEOUT = 60.0

#: Per-request deadline for daemon → shard query fan-out.
_SHARD_HTTP_TIMEOUT = 30.0

#: How long a checkpoint barrier may wait for routed lines to settle.
BARRIER_TIMEOUT = 60.0


class _ShardLink:
    """Daemon-side handle to one shard: its ports and the persistent
    per-source forwarding connections."""

    def __init__(self, index: int, ingest_port: int, http_port: int) -> None:
        self.index = index
        self.ingest_port = ingest_port
        self.http_port = http_port
        #: One ingest connection per source (``None`` key = anonymous
        #: lines), opened lazily and kept for the daemon's lifetime.
        self._conns: dict[
            Optional[str], tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}

    async def send(
        self,
        source: Optional[str],
        node_bind: Optional[int],
        trace_id: Optional[str],
        lines: list[str],
    ) -> None:
        """Forward ``lines`` in order; blocks under shard backpressure."""
        conn = self._conns.get(source)
        if conn is None:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.ingest_port
            )
            if source is not None:
                hello = protocol.Hello(source=source, node=node_bind, trace=trace_id)
                writer.write((hello.format() + "\n").encode("utf-8"))
                await writer.drain()
                async with timeout(_SHARD_HTTP_TIMEOUT):
                    reply = await reader.readline()
                # The shard's offset counts *its* slice of the source and is
                # meaningless to the client — resume skipping already
                # happened at the daemon's edge — so only sanity-check it.
                if not reply.startswith(protocol.OK.encode()):
                    raise ConnectionError(
                        f"shard {self.index} refused source {source!r}: "
                        f"{reply.decode(errors='replace').strip()}"
                    )
            conn = self._conns[source] = (reader, writer)
        _reader, writer = conn
        writer.write("".join(line + "\n" for line in lines).encode("utf-8"))
        await writer.drain()

    async def close(self) -> None:
        for _reader, writer in self._conns.values():
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._conns.clear()


class ShardSet:
    """N shard subprocesses, as the daemon's reconstruction state.

    Offers the same methods as the in-process
    :class:`~repro.serve.shard.ShardWorker`; ``book`` is the daemon's
    public :class:`SourceBook`, advanced here as lines are routed.
    """

    def __init__(self, config: ServeConfig, book: SourceBook) -> None:
        self.config = config
        self.shards = config.shards
        self.book = book
        self._procs: list[multiprocessing.process.BaseProcess] = []
        self._links: list[_ShardLink] = []
        #: Lines forwarded per shard (feeds ``serve.shard.lines{shard=}``).
        self._routed: list[int] = [0] * self.shards
        #: Shard file each shard restores (set by :meth:`restore`).
        self._restore_files: list[Optional[str]] = [None] * self.shards

    # ------------------------------------------------------------------ #
    # shard subprocess lifecycle (sync; spawn before / join after the loop)

    def restore(self, files: list[Optional[str]]) -> None:
        """Read every shard file now, so a malformed one stops start-up
        before any shard spawns; each shard then restores its own file."""
        for path in files:
            if path is not None:
                session_evidence(load_checkpoint(path).session_state)
        self._restore_files = files

    def start(self) -> None:
        """Spawn every shard, each restoring its file, and await its ports."""
        manifest = self.config.resolved_checkpoint()
        ctx = multiprocessing.get_context("spawn")
        conns: list[multiprocessing.connection.Connection] = []
        for index in range(self.shards):
            spec = ShardSpec(
                index=index,
                shards=self.shards,
                manifest_path=str(manifest) if manifest is not None else None,
                restore_file=self._restore_files[index],
                delivery_node=self.config.resolved_delivery_node(),
                flush_interval=self.config.flush_interval,
                ingest_queue_batches=self.config.ingest_queue_batches,
                ingest_batch_lines=self.config.ingest_batch_lines,
                trace_capacity=self.config.trace_capacity,
            )
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=run_shard,
                args=(spec, child_conn),
                name=f"refill-shard-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            conns.append(parent_conn)
        for index, conn in enumerate(conns):
            try:
                if not conn.poll(SHARD_START_TIMEOUT):
                    raise RuntimeError(
                        f"shard {index} did not report its ports within "
                        f"{SHARD_START_TIMEOUT:.0f}s"
                    )
                msg = conn.recv()
            finally:
                conn.close()
            if "error" in msg:
                raise RuntimeError(f"shard {index} failed to start: {msg['error']}")
            self._links.append(
                _ShardLink(index, msg["ingest_port"], msg["http_port"])
            )
            _log.info(
                "cluster.shard-up",
                shard=index,
                ingest_port=msg["ingest_port"],
                http_port=msg["http_port"],
            )

    async def close(self) -> None:
        """Tell every shard to exit (after the daemon's final checkpoint)."""
        replies = await asyncio.gather(
            *(
                self._shard_request(link, "POST", "/shutdown")
                for link in self._links
            ),
            return_exceptions=True,
        )
        for index, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                _log.warning("cluster.shard-shutdown-odd", shard=index, error=str(reply))
            elif reply[0] != 202:
                _log.warning("cluster.shard-shutdown-odd", shard=index, code=reply[0])
        for link in self._links:
            await link.close()

    def join(self) -> None:
        """Reap shard subprocesses after the loop exited (blocking is fine
        here — nothing else is running in this process anymore)."""
        for index, proc in enumerate(self._procs):
            proc.join(timeout=10.0)
            if proc.is_alive():
                _log.warning("cluster.shard-kill", shard=index)
                proc.terminate()
                proc.join(timeout=5.0)

    async def watch(self) -> Optional[str]:
        """Watch shard liveness; returns why once a shard has died."""
        registry = get_registry()
        while True:
            for index, proc in enumerate(self._procs):
                alive = proc.is_alive()
                if registry.enabled:
                    registry.gauge("serve.shard.up", shard=index).set(
                        1.0 if alive else 0.0
                    )
                if not alive:
                    return f"shard {index} died (exit code {proc.exitcode})"
            await asyncio.sleep(0.25)

    def listeners(self) -> list[dict[str, Any]]:
        """Every shard's private listeners."""
        out: list[dict[str, Any]] = []
        for link in self._links:
            for kind, port in (("ingest", link.ingest_port), ("http", link.http_port)):
                out.append(
                    {
                        "listener": f"shard{link.index}-{kind}",
                        "transport": "tcp",
                        "host": "127.0.0.1",
                        "port": port,
                        "shard": link.index,
                    }
                )
        return out

    # ------------------------------------------------------------------ #
    # shard HTTP fan-out

    async def _shard_request(
        self, link: _ShardLink, method: str, path: str
    ) -> tuple[int, bytes]:
        """One HTTP/1.1 request against a shard's private query listener."""
        reader, writer = await asyncio.open_connection("127.0.0.1", link.http_port)
        try:
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: shard{link.index}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            async with timeout(_SHARD_HTTP_TIMEOUT):
                raw = await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        head, sep, body = raw.partition(b"\r\n\r\n")
        if not sep:
            raise ConnectionError(f"shard {link.index} sent a torn response")
        return int(head.split(None, 2)[1]), body

    async def _fanout(self, method: str, path: str) -> list[tuple[int, bytes]]:
        return list(
            await asyncio.gather(
                *(self._shard_request(link, method, path) for link in self._links)
            )
        )

    async def _fanout_json(self, path: str, *, any_status: bool = False) -> list[Any]:
        payloads = []
        for index, (status, body) in enumerate(await self._fanout("GET", path)):
            if status != 200 and not any_status:
                raise RuntimeError(f"shard {index} answered {path} with {status}")
            payloads.append(json.loads(body))
        return payloads

    # ------------------------------------------------------------------ #
    # queries (scatter-gather merges)

    async def readiness(self) -> dict[str, Any]:
        """Ready iff every shard is ready and every routed line is
        accounted inside a shard session (the conservation check covers
        lines in flight in loopback socket buffers, which neither side's
        queue gauges can see)."""
        shard_states = [
            (status, json.loads(body))
            for status, body in await self._fanout("GET", "/readyz")
        ]
        totals = await self._fanout_json("/offsets")
        ingested = sum(t["lines_ingested"] for t in totals)
        routed = self.book.lines_ingested
        return {
            "ready": ingested == routed
            and all(status == 200 for status, _ in shard_states),
            "lag_lines": max(0, routed - ingested)
            + sum(d["lag_lines"] for _, d in shard_states),
            "pending_packets": sum(d["pending_packets"] for _, d in shard_states),
            "queued_batches": sum(d["queued_batches"] for _, d in shard_states),
            "shards": {
                str(index): status == 200
                for index, (status, _) in enumerate(shard_states)
            },
        }

    async def packets(self) -> list[str]:
        keys = {
            PacketKey.parse(p)
            for payload in await self._fanout_json("/packets")
            for p in payload["packets"]
        }
        return [str(k) for k in sorted(keys)]

    async def flows_body(self) -> str:
        return dumps_canonical(await self._merged("/flows"))

    async def reports_json(self) -> dict[str, Any]:
        return await self._merged("/reports")

    async def _merged(self, path: str) -> dict[str, Any]:
        """Union of per-shard canonical-key dict bodies (disjoint packets;
        ``dumps_canonical`` re-sorts, so the union's bytes equal the
        unsharded serialization)."""
        merged: dict[str, Any] = {}
        for payload in await self._fanout_json(path):
            merged.update(payload)
        return merged

    async def packet_body(self, kind: str, packet: PacketKey) -> tuple[int, str]:
        """Single-packet routes go straight to the owning shard."""
        link = self._links[shard_for_packet(packet, self.shards)]
        status, body = await self._shard_request(link, "GET", f"/{kind}/{packet}")
        return status, body.decode("utf-8")

    async def summary_parts(self) -> tuple[Mapping[PacketKey, Any], int, int]:
        reports = {
            PacketKey.parse(p): report_from_dict(d)
            for p, d in (await self.reports_json()).items()
        }
        summaries = await self._fanout_json("/summary")
        return (
            reports,
            sum(s["pending"] for s in summaries),
            sum(s["batches_ingested"] for s in summaries),
        )

    async def corrupt_lines(self) -> dict[str, int]:
        corrupt: dict[str, int] = {}
        for payload in await self._fanout_json("/offsets"):
            for source, count in payload["corrupt_lines"].items():
                corrupt[source] = corrupt.get(source, 0) + count
        return corrupt

    async def metrics(self, registry: MetricsRegistry) -> MetricsSnapshot:
        snapshots = [
            MetricsSnapshot.from_json(payload)
            for payload in await self._fanout_json("/metrics")
        ]
        return merge_shard_snapshots(registry.snapshot(), list(enumerate(snapshots)))

    def update_gauges(self) -> None:
        """Shard gauges live in the shards (relabeled on merge)."""

    # ------------------------------------------------------------------ #
    # ingest (routes instead of decoding) and coordinated epochs

    def refresh(self) -> None:
        """Each shard refreshes itself on its own idle gap."""

    async def ingest(self, item: IngestItem) -> None:
        buckets: dict[int, list[str]] = {}
        for line in item.lines:
            buckets.setdefault(shard_for_line(line, self.shards), []).append(line)
        for index in sorted(buckets):
            await self._links[index].send(
                item.source, item.node_bind, item.trace_id, buckets[index]
            )
        self.book.count_ingested(item.source, len(item.lines))
        registry = get_registry()
        if registry.enabled:
            for index, lines in buckets.items():
                self._routed[index] += len(lines)
                registry.gauge("serve.shard.lines", shard=index).set(
                    self._routed[index]
                )

    async def _barrier(self) -> None:
        """Wait until shard sessions account for every routed line.

        The caller holds the daemon's ingest lock, so the routed count is
        frozen; shard consumers drain their queues and socket buffers
        toward it.
        """
        target = self.book.lines_ingested
        deadline = time.monotonic() + BARRIER_TIMEOUT
        while True:
            totals = await self._fanout_json("/offsets")
            states = await self._fanout_json("/readyz", any_status=True)
            ingested = sum(t["lines_ingested"] for t in totals)
            if ingested == target and all(
                s["queued_batches"] == 0 and s["lag_lines"] == 0 for s in states
            ):
                return
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"cluster barrier timed out: shards hold {ingested} of "
                    f"{target} routed lines"
                )
            await asyncio.sleep(0.02)

    async def write_epoch(self, manifest_path: pathlib.Path, epoch: int) -> int:
        """Quiesce, then have every shard write its epoch-``epoch`` file.

        The daemon's manifest swap that follows is the commit point.
        Returns the packet count across shards.
        """
        await self._barrier()
        packets = 0
        for index, (status, body) in enumerate(
            await self._fanout("POST", f"/checkpoint?epoch={epoch}")
        ):
            if status != 200:
                raise RuntimeError(
                    f"shard {index} failed its epoch-{epoch} checkpoint "
                    f"({status}): {body.decode(errors='replace').strip()}"
                )
            packets += json.loads(body)["packets"]
        return packets
