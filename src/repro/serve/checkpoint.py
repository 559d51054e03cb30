"""Checkpoint/restore of a live reconstruction daemon, at every ``--shards``.

The file at the configured checkpoint path is always a **manifest**
(:class:`ClusterManifest`, format version 2).  It holds the daemon's
*per-source ingest offsets* and names one epoch-stamped **shard file** per
shard, each a :class:`Checkpoint` (format version 1) pairing that shard's
resumable session state (:meth:`ReconstructionSession.export_state` — the
accumulated per-packet events, nothing derived from them) with its line
counts.  Offsets and state are only meaningful together: the offsets say
which lines are already inside the sessions, so a restarted daemon can
tell every reconnecting source exactly how much to skip and is re-sent no
line.  The restored shard re-derives its flows and reports once, through
the same refresh live ingest uses.

A checkpoint is a two-phase commit.  Every shard first writes
``<stem>.shard<k>.e<epoch>.json``; only then is the manifest replaced — the
manifest swap is the commit point.  A crash between the two leaves the
previous manifest pointing at the previous epoch's intact files, so a
restart never sees a torn or half-advanced state.  Old epochs are
garbage-collected after the swap.  :func:`open_manifest` is the one
start-up check of the manifest: it must match the requested ``--shards``
and every file it names must exist; the daemon then reads each of those
files with :func:`load_checkpoint` before it listens.

Both layers write atomically (temp file + ``os.replace`` in the same
directory), and both readers raise ``ValueError`` for anything that is
not a well-formed file of their format.  :func:`reshard_checkpoint`
splits one checkpoint into N per-shard checkpoints — the session's
evidence is split by the cluster hash
(:func:`repro.core.session.split_session_state`, the layout's owner),
while the per-source offsets (not per-packet partitionable) are assigned
wholesale to shard 0; consumers only ever read per-source sums across
shards, so the attribution is sound.  :func:`merge_checkpoints` is the
inverse.  :func:`reshard_manifest` uses both to rewrite a stopped daemon's
checkpoint for a new ``--shards``, and converts a lone version-1 file
into a manifest.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional, Sequence

#: Format version of a shard checkpoint file.
CHECKPOINT_VERSION = 1

#: Format version of the manifest at the configured checkpoint path.
MANIFEST_VERSION = 2


@dataclass(frozen=True)
class Checkpoint:
    """Everything a restarted shard needs to resume ingest."""

    #: :meth:`ReconstructionSession.export_state` payload.
    session_state: dict[str, Any]
    #: Per-source count of complete lines already ingested into the session.
    offsets: dict[str, int] = field(default_factory=dict)
    #: Per-source count of lines the tolerant scanner rejected.
    corrupt_lines: dict[str, int] = field(default_factory=dict)
    #: Total lines ingested across all sources (anonymous ones included).
    lines_ingested: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "version": CHECKPOINT_VERSION,
            "session": self.session_state,
            "offsets": {k: self.offsets[k] for k in sorted(self.offsets)},
            "corrupt_lines": {
                k: self.corrupt_lines[k] for k in sorted(self.corrupt_lines)
            },
            "lines_ingested": self.lines_ingested,
        }

    @classmethod
    def from_json(cls, data: Any) -> "Checkpoint":
        version = _object(data, "checkpoint").get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        with _fields("checkpoint"):
            return cls(
                session_state=dict(_object(data["session"], "checkpoint session")),
                offsets=_counts(data, "offsets"),
                corrupt_lines=_counts(data, "corrupt_lines"),
                lines_ingested=int(data.get("lines_ingested", 0)),
            )


def save_checkpoint(path, checkpoint: Checkpoint) -> pathlib.Path:
    """Atomically write ``checkpoint`` to ``path``; returns the path."""
    path = pathlib.Path(path)
    return _atomic_write(path, checkpoint.to_json())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file (raises on missing/torn/unversioned files)."""
    return Checkpoint.from_json(json.loads(pathlib.Path(path).read_text()))


# ---------------------------------------------------------------------- #
# manifests (v2)


class ShardMismatchError(ValueError):
    """An existing manifest disagrees with the requested ``--shards``."""


@dataclass(frozen=True)
class ClusterManifest:
    """The daemon-level half of a checkpoint: who owns what, and where.

    Holds the daemon's public books (per-source resume offsets, total
    accepted lines) and names the epoch's per-shard checkpoint files.
    Per-shard session state lives in those files; the invariant is that
    the sum of the shard files' ``lines_ingested`` equals
    :attr:`lines_routed`.
    """

    #: Cluster width the shard files were written for.
    shards: int
    #: Monotonic coordinated-checkpoint counter; stamps the shard filenames.
    epoch: int
    #: Per-source resume offsets, as the router hands them to ``HELLO``.
    offsets: dict[str, int] = field(default_factory=dict)
    #: Total lines routed across all sources (anonymous ones included).
    lines_routed: int = 0
    #: Shard checkpoint filenames (relative to the manifest's directory),
    #: index ``k`` belonging to shard ``k``.
    shard_files: tuple[str, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "version": MANIFEST_VERSION,
            "shards": self.shards,
            "epoch": self.epoch,
            "offsets": {k: self.offsets[k] for k in sorted(self.offsets)},
            "lines_routed": self.lines_routed,
            "shard_files": list(self.shard_files),
        }

    @classmethod
    def from_json(cls, data: Any) -> "ClusterManifest":
        version = _object(data, "manifest").get("version")
        if version != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {version!r}")
        with _fields("manifest"):
            shards = int(data["shards"])
            files = tuple(str(f) for f in data.get("shard_files", ()))
            if shards < 1:
                raise ValueError(f"manifest shards must be positive, not {shards}")
            if len(files) != shards:
                raise ValueError(
                    f"manifest names {len(files)} shard files for {shards} shards"
                )
            for name in files:
                # a bare name keeps every read inside the manifest's directory
                if name in ("", ".", "..") or pathlib.PurePath(name).name != name:
                    raise ValueError(f"manifest shard file {name!r} is not a bare file name")
            return cls(
                shards=shards,
                epoch=int(data["epoch"]),
                offsets=_counts(data, "offsets"),
                lines_routed=int(data.get("lines_routed", 0)),
                shard_files=files,
            )


def save_manifest(path, manifest: ClusterManifest) -> pathlib.Path:
    """Atomically write ``manifest`` to ``path`` — the v2 commit point."""
    return _atomic_write(pathlib.Path(path), manifest.to_json())


def load_manifest(path) -> ClusterManifest:
    """Read a manifest (raises on any other version and on torn JSON)."""
    return ClusterManifest.from_json(json.loads(pathlib.Path(path).read_text()))


def open_manifest(path, shards: int) -> Optional[ClusterManifest]:
    """The start-up restore check; ``None`` when there is nothing to restore.

    Raises ``ValueError`` for anything a daemon started with ``--shards
    shards`` must not resume from: a version-1 file, a malformed manifest,
    a manifest for another width (:class:`ShardMismatchError`), or one
    naming a missing shard file.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    if isinstance(data, Mapping) and data.get("version") == CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path} is a version-1 file, not a manifest; convert "
            "it offline with repro.serve.checkpoint.reshard_manifest"
            f"({str(path)!r}, {shards})"
        )
    manifest = ClusterManifest.from_json(data)
    if manifest.shards != shards:
        raise ShardMismatchError(
            f"checkpoint manifest {path} was written by --shards "
            f"{manifest.shards}, not --shards {shards}; restart with "
            f"--shards {manifest.shards}, or rebalance offline with "
            "repro.serve.checkpoint.reshard_manifest()"
        )
    for name in manifest.shard_files:
        if not (path.parent / name).exists():
            raise ValueError(
                f"checkpoint manifest {path} names missing shard file "
                f"{name!r}; restore aborted"
            )
    return manifest


def shard_checkpoint_path(manifest_path, shard: int, epoch: int) -> pathlib.Path:
    """Where shard ``shard``'s epoch-``epoch`` checkpoint lives on disk.

    ``cluster.json`` → ``cluster.shard03.e7.json``, always in the manifest's
    directory so the whole cluster state moves as one directory.
    """
    manifest_path = pathlib.Path(manifest_path)
    return manifest_path.with_name(
        f"{_stem(manifest_path)}.shard{shard:02d}.e{epoch}.json"
    )


def gc_shard_files(manifest_path, manifest: ClusterManifest) -> list[pathlib.Path]:
    """Delete shard files from epochs other than ``manifest.epoch``.

    Called only after the manifest swap committed the new epoch; returns the
    removed paths.  Unknown files (not matching the shard-file pattern) are
    never touched.
    """
    manifest_path = pathlib.Path(manifest_path)
    # escaped: a stem like ``cp[1]`` is a file name, not a character class
    pattern = f"{glob.escape(_stem(manifest_path))}.shard*.e*.json"
    keep = set(manifest.shard_files)
    removed = []
    for candidate in sorted(manifest_path.parent.glob(pattern)):
        if candidate.name not in keep:
            candidate.unlink(missing_ok=True)
            removed.append(candidate)
    return removed


# ---------------------------------------------------------------------- #
# offline resharding


def reshard_checkpoint(
    checkpoint: Checkpoint, shards: int
) -> list[Checkpoint]:
    """Split one checkpoint into ``shards`` per-shard checkpoints.

    The session's evidence is partitioned by the cluster hash
    (:func:`repro.serve.sharding.shard_for_packet`), matching where the
    router would have sent each packet's lines.  The per-source offsets and
    line counts are *not* per-packet partitionable, so they go wholesale to
    shard 0 — cluster consumers only read per-source sums over all shards,
    for which the attribution is exact.
    """
    from repro.core.session import split_session_state
    from repro.serve.sharding import shard_for_packet

    states = split_session_state(
        checkpoint.session_state,
        shards,
        lambda packet: shard_for_packet(packet, shards),
    )
    out = [Checkpoint(session_state=states[0], offsets=dict(checkpoint.offsets),
                      corrupt_lines=dict(checkpoint.corrupt_lines),
                      lines_ingested=checkpoint.lines_ingested)]
    out.extend(Checkpoint(session_state=state) for state in states[1:])
    return out


def merge_checkpoints(checkpoints: Sequence[Checkpoint]) -> Checkpoint:
    """Fold per-shard checkpoints back into one checkpoint.

    Inverse of :func:`reshard_checkpoint`; per-source counts are summed, so
    it also accepts shard files written by a live daemon (where every
    shard carries its own share of each source).  Sessions of either state
    version merge into the current one.
    """
    from repro.core.session import merge_session_states

    offsets: dict[str, int] = {}
    corrupt: dict[str, int] = {}
    lines = 0
    for cp in checkpoints:
        for source, count in cp.offsets.items():
            offsets[source] = offsets.get(source, 0) + count
        for source, count in cp.corrupt_lines.items():
            corrupt[source] = corrupt.get(source, 0) + count
        lines += cp.lines_ingested
    return Checkpoint(
        session_state=merge_session_states([cp.session_state for cp in checkpoints]),
        offsets=offsets,
        corrupt_lines=corrupt,
        lines_ingested=lines,
    )


def reshard_manifest(path, new_shards: int) -> ClusterManifest:
    """Offline rebalancing: rewrite a checkpoint for a new ``--shards``.

    Loads the manifest at ``path``, merges every shard file, re-splits for
    ``new_shards``, writes the new epoch's shard files, and commits a new
    manifest.  A version-1 file at ``path`` is the converter's other input:
    the daemon refuses to start from one, and this turns it into a
    manifest.  Run this with the daemon *stopped*; the next ``refill serve
    --shards <new_shards>`` restores from it directly.
    """
    path = pathlib.Path(path)
    data = json.loads(path.read_text())
    if isinstance(data, Mapping) and data.get("version") == CHECKPOINT_VERSION:
        merged = Checkpoint.from_json(data)
        epoch = 1
    else:
        manifest = ClusterManifest.from_json(data)
        merged = merge_checkpoints(
            [load_checkpoint(path.parent / name) for name in manifest.shard_files]
        )
        epoch = manifest.epoch + 1
    parts = reshard_checkpoint(merged, new_shards)
    files = []
    for index, part in enumerate(parts):
        target = shard_checkpoint_path(path, index, epoch)
        save_checkpoint(target, part)
        files.append(target.name)
    manifest = ClusterManifest(
        shards=new_shards,
        epoch=epoch,
        offsets=dict(merged.offsets),
        lines_routed=merged.lines_ingested,
        shard_files=tuple(files),
    )
    save_manifest(path, manifest)
    gc_shard_files(path, manifest)
    return manifest


# ---------------------------------------------------------------------- #
# plumbing


def _object(data: Any, what: str) -> Mapping[str, Any]:
    """``data`` if it is a JSON object; ``ValueError`` otherwise."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} is not a JSON object")
    return data


@contextlib.contextmanager
def _fields(what: str) -> Iterator[None]:
    """Report a missing or mistyped field as ``ValueError`` — the error a
    daemon's start-up check turns into one line and exit 2."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{what} has a missing or malformed field: {exc!r}") from None


def _counts(data: Mapping[str, Any], key: str) -> dict[str, int]:
    """The optional per-source line counts at ``data[key]``."""
    return {str(k): int(v) for k, v in data.get(key, {}).items()}


def _stem(manifest_path: pathlib.Path) -> str:
    """The manifest's file name without ``.json``; prefixes its shard files."""
    name = manifest_path.name
    return name[: -len(".json")] if name.endswith(".json") else name


def _atomic_write(path: pathlib.Path, payload: dict[str, Any]) -> pathlib.Path:
    """Write-temp, fsync, rename, fsync the directory.

    The file fsync puts the bytes on disk before the rename can expose
    them; the directory fsync makes the rename itself survive a power
    loss, so a committed manifest never names an epoch file whose bytes
    were lost.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return path
