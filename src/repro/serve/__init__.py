"""Long-running reconstruction service: ingest, checkpoint, query.

``refill serve`` turns the streaming session layer into a daemon: log lines
arrive over line-framed TCP/unix-socket connections or tailed files, flow
through a bounded queue into an incremental
:class:`~repro.core.session.ReconstructionSession`, and are queryable over a
small HTTP/JSON API whose flow payloads are byte-identical to a batch
``refill analyze`` of the same lines.  :class:`RefillServer` is the one
daemon at every ``--shards``; with ``--shards N`` it hashes lines by packet
key across ``N`` subprocess workers (:mod:`repro.serve.router`,
:mod:`repro.serve.shard`) and scatter-gathers queries back into the
identical bytes.  See ``docs/SERVING.md``.
"""

from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    MANIFEST_VERSION,
    Checkpoint,
    ClusterManifest,
    ShardMismatchError,
    load_checkpoint,
    load_manifest,
    reshard_manifest,
    save_checkpoint,
    save_manifest,
)
from repro.serve.client import LineSender, PushResult, push_lines, push_store
from repro.serve.config import ServeConfig
from repro.serve.runner import ServerThread, read_printed_ports
from repro.serve.server import RefillServer
from repro.serve.shard import ShardSpec, ShardWorker
from repro.serve.sharding import shard_for_key, shard_for_line, shard_for_packet

__all__ = [
    "CHECKPOINT_VERSION",
    "MANIFEST_VERSION",
    "Checkpoint",
    "ClusterManifest",
    "LineSender",
    "PushResult",
    "RefillServer",
    "ServeConfig",
    "ServerThread",
    "ShardMismatchError",
    "ShardSpec",
    "ShardWorker",
    "load_checkpoint",
    "load_manifest",
    "push_lines",
    "push_store",
    "read_printed_ports",
    "reshard_manifest",
    "save_checkpoint",
    "save_manifest",
    "shard_for_key",
    "shard_for_line",
    "shard_for_packet",
]
