"""Configuration of the live reconstruction daemon (``refill serve``).

One frozen dataclass holds every knob; the CLI builds it from flags, tests
build it directly.  Ports default to ``0`` ("let the OS pick"), so embedded
servers — tests, benchmarks, the simnet end-to-end driver — never collide;
the bound ports are published on the running :class:`~repro.serve.server.
RefillServer` once the listeners are up.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Optional

from repro.events.store import StoreMetadata, load_store_metadata


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`~repro.serve.server.RefillServer` needs.

    Attributes
    ----------
    store:
        Optional store directory, read for deployment metadata only
        (``operations.json`` provides the base-station id that drives
        delivery detection).  The shards themselves are *not* preloaded —
        evidence arrives through ingest — and the daemon writes nothing
        there.
    host / port:
        TCP ingest listener (``port=0``: OS-assigned).
    unix_socket:
        Optional unix-socket ingest listener path (removed on shutdown).
    http_host / http_port:
        Query-API listener.
    checkpoint_path:
        Checkpoint manifest; ``None`` turns checkpointing off.  The shard
        files it names sit next to it.
    checkpoint_interval:
        Seconds between periodic checkpoints (``0`` disables the timer;
        shutdown still checkpoints).
    flush_interval:
        Idle time after which pending dirty packets are refreshed (and the
        readiness probe can report "caught up").
    ingest_queue_batches / ingest_batch_lines:
        The bounded ingest queue: at most ``ingest_queue_batches`` batches
        of at most ``ingest_batch_lines`` lines are in flight.  A full
        queue blocks connection readers, which stops reading from their
        sockets — TCP backpressure throttles slow-producer-overwhelming
        bursts instead of buffering them unboundedly.
    tail:
        Log files to tail (source id = file name); each poll ingests the
        newly *completed* lines, so a writer caught mid-append is safe.
    tail_interval:
        Tail poll period in seconds (positive).
    delivery_node:
        Overrides the store metadata's base-station id (``None`` + no store
        disables delivery detection).
    metrics_out:
        Optional path: write the final :class:`MetricsSnapshot` (JSON, same
        contract as ``refill analyze --metrics-out``) on graceful shutdown —
        SIGTERM/SIGINT and ``POST //shutdown`` alike.
    trace_out:
        Optional path: dump the flight recorder (JSON Lines, oldest first)
        on graceful shutdown.
    trace_capacity:
        Flight-recorder ring size (completed spans + events retained).
    shards:
        Number of shards.  ``1`` (the default) keeps reconstruction state
        in the daemon's process; ``N > 1`` hashes lines by packet key to
        ``N`` subprocess workers (:class:`~repro.serve.router.ShardSet`)
        behind a scatter-gather query API.  Output and the checkpoint
        format are the same either way.
    """

    store: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    unix_socket: Optional[str] = None
    http_host: str = "127.0.0.1"
    http_port: int = 0
    checkpoint_path: Optional[str] = None
    checkpoint_interval: float = 30.0
    flush_interval: float = 0.5
    ingest_queue_batches: int = 64
    ingest_batch_lines: int = 512
    tail: tuple[str, ...] = field(default_factory=tuple)
    tail_interval: float = 0.25
    delivery_node: Optional[int] = None
    metrics_out: Optional[str] = None
    trace_out: Optional[str] = None
    trace_capacity: int = 1024
    shards: int = 1

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.ingest_queue_batches <= 0:
            raise ValueError("ingest_queue_batches must be positive")
        if self.ingest_batch_lines <= 0:
            raise ValueError("ingest_batch_lines must be positive")
        if self.flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        if self.tail_interval <= 0:
            # a zero poll period re-reads every tailed file in a busy loop
            raise ValueError("tail_interval must be positive")
        if self.trace_capacity <= 0:
            raise ValueError("trace_capacity must be positive")

    def resolved_checkpoint(self) -> Optional[pathlib.Path]:
        """The checkpoint file path, or ``None`` when checkpointing is off."""
        if self.checkpoint_path is None:
            return None
        return pathlib.Path(self.checkpoint_path)

    def metadata(self) -> Optional[StoreMetadata]:
        """Deployment metadata from the configured store, if any."""
        if self.store is None:
            return None
        return load_store_metadata(self.store)

    def resolved_delivery_node(self) -> Optional[int]:
        """Explicit override first, then the store's base station."""
        if self.delivery_node is not None:
            return self.delivery_node
        meta = self.metadata()
        return meta.base_station if meta is not None else None
