"""On-disk log store: the directory format shared by the CLI and examples.

A store directory holds one ``node_<id>.log`` text file per node (the
:mod:`repro.events.codec` line format) plus an ``operations.json`` with the
deployment metadata the analysis layer needs (sink/base-station ids, the
sensing period, the server-outage operations log).

Field data is dirty, so loading is tolerant: undecodable lines, misfiled
lines and a torn final record are counted in ``corrupt_lines`` and skipped.
Only this module reads shards for their events, through
:mod:`repro.events.codec`'s one line rule and one scanner, which every other
door shares, so all doors see identical lines.  A consumer of every scanned
line (the corpus lint) passes a :data:`ShardTap` and rides the load's scan.
"""

from __future__ import annotations

import json
import pathlib
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from repro.events.codec import DecodeIssue, cut_lines, decode_text, encode_log, scan_log_text
from repro.events.event import Event
from repro.events.log import NodeLog

#: One scanned shard line.
ScanItem = tuple[int, Union[Event, DecodeIssue]]
#: ``tap(node, file, scan)``: a pass-through over one shard's scan; the
#: loader reads the stream it returns, which must yield the same items.
ShardTap = Callable[[int, pathlib.Path, Iterator[ScanItem]], Iterable[ScanItem]]


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


_SHARD_NAME = re.compile(r"^node_(\d+)\.log$")


def shard_node(file) -> Optional[int]:
    """The node a ``node_<id>.log`` file belongs to; ``None`` for any other
    name.  Every door binds a shard's lines to this node."""
    match = _SHARD_NAME.match(pathlib.Path(file).name)
    return int(match.group(1)) if match else None


def store_shards(directory) -> list[tuple[int, pathlib.Path]]:
    """``(node, path)`` of every shard file in a store, in file-name order."""
    files = sorted(pathlib.Path(directory).glob("node_*.log"))
    return [(node, f) for f in files if (node := shard_node(f)) is not None]


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
    """Read a store's ``operations.json``; a missing, unparsable or mistyped
    file raises ``ValueError`` naming it."""
    path = pathlib.Path(directory) / "operations.json"
    try:
        return StoreMetadata.from_json(json.loads(path.read_text()))
    except FileNotFoundError:
        raise ValueError(f"{path}: store metadata file is missing") from None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise ValueError(f"{path}: store metadata unreadable: {reason}") from None


def _decode_shard(
    file: pathlib.Path, node: int, tap: Optional[ShardTap] = None
) -> tuple[NodeLog, int]:
    """Read and decode one ``node_*.log`` file: ``(log, bad_line_count)``.

    Every loader below reads shards through here, once per shard per pass.
    """
    scan: Iterable[ScanItem] = scan_log_text(decode_text(file.read_bytes()), node)
    if tap is not None:
        scan = tap(node, file, scan)
    events: list[Event] = []
    bad = 0
    for _lineno, decoded in scan:
        if isinstance(decoded, DecodeIssue):
            bad += 1
        else:
            events.append(decoded)
    return NodeLog(node, events), bad


def iter_store_logs(
    directory, tap: Optional[ShardTap] = None
) -> Iterator[tuple[int, NodeLog, int]]:
    """Decode one ``node_*.log`` shard at a time: ``(node, log, bad_lines)``.

    Bad lines are skipped and counted, as in :func:`load_store`.  ``tap``
    sees each shard's scan on the way.
    """
    for node, file in store_shards(directory):
        log, bad = _decode_shard(file, node, tap)
        yield node, log, bad


def read_complete_lines(file, start_line: int = 0) -> list[str]:
    """Newline-*terminated* lines of a text file, from ``start_line`` (0-based).

    A trailing unterminated line (a writer caught mid-append) is excluded, so
    repeated polls that pass the previous total as ``start_line`` see every
    line exactly once — the offset substrate shared by the serve layer's file
    tailer and the resumable store-push client.  Lines are cut by
    :func:`~repro.events.codec.cut_lines`, the rule the store loader uses.
    """
    if start_line < 0:
        raise ValueError("start_line must be >= 0")
    lines, _rest = cut_lines(decode_text(pathlib.Path(file).read_bytes()))
    return lines[start_line:]


def load_store(directory, *, tap: Optional[ShardTap] = None) -> LoadedStore:
    """Read a store directory, each shard exactly once.

    Undecodable lines, lines whose recorded node id disagrees with the file
    they sit in, and a torn final record are skipped and counted in
    ``corrupt_lines``.  A missing or unreadable ``operations.json`` raises
    ``ValueError`` (see :func:`load_store_metadata`) before any shard is
    read.  ``tap`` sees every shard's scan as the load reads it.
    """
    metadata = load_store_metadata(directory)
    logs: dict[int, NodeLog] = {}
    corrupt: dict[int, int] = {}
    for node, log, bad in iter_store_logs(directory, tap):
        logs[node] = log
        if bad:
            corrupt[node] = bad
    return LoadedStore(logs=logs, metadata=metadata, corrupt_lines=corrupt)

