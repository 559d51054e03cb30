"""On-disk log store: the directory format shared by the CLI and examples.

A store directory holds one ``node_<id>.log`` text file per node (the
:mod:`repro.events.codec` line format) plus an ``operations.json`` with the
deployment metadata the analysis layer needs (sink/base-station ids, the
sensing period, the server-outage operations log).

Field data is dirty: ``load_store`` defaults to *tolerant* decoding, where
undecodable lines (truncated flash pages, bit flips) are counted and
skipped instead of aborting the whole analysis.  Bytes become text through
:func:`~repro.events.codec.decode_text`, the same rule the serve daemon
applies, so both doors see identical lines.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.events.codec import DecodeIssue, decode_text, encode_log, scan_log_text
from repro.events.event import Event
from repro.events.log import NodeLog


@dataclass
class StoreMetadata:
    """Deployment facts recorded alongside the logs."""

    sink: int
    base_station: int
    gen_interval: float
    outages: tuple[tuple[float, float], ...] = ()
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "sink": self.sink,
            "base_station": self.base_station,
            "gen_interval": self.gen_interval,
            "outages": [list(w) for w in self.outages],
            **self.extra,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "StoreMetadata":
        known = {"sink", "base_station", "gen_interval", "outages"}
        return cls(
            sink=int(data["sink"]),
            base_station=int(data["base_station"]),
            gen_interval=float(data["gen_interval"]),
            outages=tuple((float(a), float(b)) for a, b in data.get("outages", [])),
            extra={k: v for k, v in data.items() if k not in known},
        )


@dataclass
class LoadedStore:
    """Result of reading a store directory."""

    logs: dict[int, NodeLog]
    metadata: StoreMetadata
    #: Per-node count of lines that failed to decode (tolerant mode).
    corrupt_lines: dict[int, int] = field(default_factory=dict)

    @property
    def total_events(self) -> int:
        return sum(len(log) for log in self.logs.values())


def shard_path(directory, node: int) -> pathlib.Path:
    """Path of one node's log shard inside a store directory.

    The single place the ``node_<id>.log`` naming convention lives — the
    store writer/loaders and the fault-injection harness all resolve shard
    files through it.
    """
    return pathlib.Path(directory) / f"node_{node:04d}.log"


def save_store(
    directory, logs: Mapping[int, NodeLog], metadata: StoreMetadata
) -> pathlib.Path:
    """Write logs + metadata; returns the directory path."""
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for node, log in sorted(logs.items()):
        shard_path(path, node).write_text(encode_log(log) + "\n")
    (path / "operations.json").write_text(
        json.dumps(metadata.to_json(), indent=2) + "\n"
    )
    return path


def load_store_metadata(directory) -> StoreMetadata:
    """Read just the ``operations.json`` of a store directory."""
    path = pathlib.Path(directory)
    return StoreMetadata.from_json(json.loads((path / "operations.json").read_text()))


def _decode_shard(
    file: pathlib.Path, node: int, *, strict: bool
) -> tuple[NodeLog, int]:
    """Decode one ``node_*.log`` file: ``(log, bad_line_count)``."""
    events: list[Event] = []
    bad = 0
    for _lineno, decoded in scan_log_text(decode_text(file.read_bytes())):
        if isinstance(decoded, DecodeIssue):
            if strict:
                raise ValueError(decoded.error)
            bad += 1
            continue
        if decoded.node != node:
            if strict:
                raise ValueError(
                    f"event node {decoded.node} in file of node {node}"
                )
            bad += 1
            continue
        events.append(decoded)
    return NodeLog(node, events), bad


def iter_store_logs(
    directory, *, strict: bool = False
) -> Iterator[tuple[int, NodeLog, int]]:
    """Decode one ``node_*.log`` shard at a time: ``(node, log, bad_lines)``.

    Only one shard's events are alive per step — the streaming substrate for
    corpora that do not fit in memory.  ``strict`` matches
    :func:`load_store`: ``False`` skips undecodable / misfiled lines and
    counts them, ``True`` raises on the first.
    """
    path = pathlib.Path(directory)
    for file in sorted(path.glob("node_*.log")):
        node = int(file.stem.split("_")[1])
        log, bad = _decode_shard(file, node, strict=strict)
        yield node, log, bad


def read_complete_lines(file, start_line: int = 0) -> list[str]:
    """Newline-*terminated* lines of a text file, from ``start_line`` (0-based).

    A trailing unterminated line (a writer caught mid-append) is excluded, so
    repeated polls that pass the previous total as ``start_line`` see every
    line exactly once — the offset substrate shared by the serve layer's file
    tailer and the resumable store-push client.  Lines are decoded with
    :func:`~repro.events.codec.decode_text`, the rule the store loader uses.
    """
    if start_line < 0:
        raise ValueError("start_line must be >= 0")
    parts = pathlib.Path(file).read_bytes().split(b"\n")
    # after split, the final piece is b"" iff the file ended in a newline;
    # anything else there is an unterminated partial line
    complete = parts[:-1]
    return [decode_text(part).rstrip("\r") for part in complete[start_line:]]


def load_store(directory, *, strict: bool = False) -> LoadedStore:
    """Read a store directory.

    ``strict=False`` (the default) skips undecodable lines and lines whose
    recorded node id disagrees with the file they sit in, counting them in
    ``corrupt_lines``; ``strict=True`` raises on the first bad line.
    """
    metadata = load_store_metadata(directory)
    logs: dict[int, NodeLog] = {}
    corrupt: dict[int, int] = {}
    for node, log, bad in iter_store_logs(directory, strict=strict):
        logs[node] = log
        if bad:
            corrupt[node] = bad
    return LoadedStore(logs=logs, metadata=metadata, corrupt_lines=corrupt)


class ShardedStore:
    """Re-scannable shard-at-a-time view of a store directory.

    Satisfies the :class:`repro.events.merge.LogSource` protocol: every
    :meth:`iter_logs` call decodes the ``node_*.log`` files afresh, one at a
    time, so a :class:`~repro.core.session.ReconstructionSession` in
    streaming mode can reconstruct a corpus far larger than memory —
    repeated scans trade CPU for a bounded working set.

    ``corrupt_lines`` holds the per-node bad-line counts of the *latest*
    completed pass (tolerant mode only; counts are per pass, not summed).
    """

    def __init__(self, directory, *, strict: bool = False) -> None:
        self.directory = pathlib.Path(directory)
        self.strict = strict
        self.metadata = load_store_metadata(self.directory)
        self.corrupt_lines: dict[int, int] = {}

    def nodes(self) -> list[int]:
        """Node ids present, from file names alone (no decoding)."""
        return sorted(
            int(f.stem.split("_")[1]) for f in self.directory.glob("node_*.log")
        )

    def iter_logs(self) -> Iterator[tuple[int, NodeLog]]:
        corrupt: dict[int, int] = {}
        for node, log, bad in iter_store_logs(self.directory, strict=self.strict):
            if bad:
                corrupt[node] = bad
            yield node, log
        self.corrupt_lines = corrupt

    def load_node(self, node: int) -> NodeLog:
        """Decode a single node's shard (empty log when the file is absent)."""
        file = shard_path(self.directory, node)
        if not file.exists():
            return NodeLog(node)
        log, _bad = _decode_shard(file, node, strict=self.strict)
        return log

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedStore({str(self.directory)!r})"
