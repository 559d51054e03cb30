"""Corruption operators over on-disk log stores.

:mod:`repro.lognet.loss` models losses the *paper* describes (write
failure, crash truncation, chunk loss, node loss) on in-memory logs.  The
operators here go beyond that model and attack the **store itself** — the
text files an analyst actually receives — which is what exercises the
tolerant scanner, the corpus lint and the reconstruction layer end to end:

- :class:`GarbleLines` — byte-level line damage (truncated flash pages,
  bit flips, separator loss) feeding :func:`repro.events.codec.scan_log_text`;
- :class:`DuplicateRecords` — retransmitted collection chunks append the
  same records twice;
- :class:`ReorderWindow` — bounded within-node reordering (collection
  races, log-buffer draining);
- :class:`NodeBlackout` — whole shard files vanish after collection
  (beyond ``node_loss_p``, which models loss *in transit*);
- :class:`CorruptMetadata` — ``operations.json`` damage;
- :class:`Degrade` — the :class:`~repro.lognet.loss.LogLossSpec` pipeline
  re-applied to the stored logs, so classic record loss composes with the
  store-level operators in one plan.

Every operator is deterministic under a :class:`~repro.util.rng.RngStreams`
family: the plan derives one named stream per (operator index, kind) and
per-node draws happen in sorted node order.  Plans serialize to JSON and
back, which is how reproducer artifacts record what was done to a corpus.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, fields
from typing import Any, Iterable, Mapping, Sequence

from repro.events.codec import encode_event
from repro.events.store import iter_store_logs, read_complete_lines, store_shards
from repro.lognet.loss import LogLossSpec, apply_losses
from repro.util.rng import RngStreams

#: Characters injected by the garbler — a mix of separators, control bytes
#: and multi-byte text, chosen to stress every branch of the decoder.
_NOISE = "=\x00\x7fÿ  \t#"


def _write_lines(file, lines: Sequence[str]) -> None:
    file.write_text("\n".join(lines) + ("\n" if lines else ""))


@dataclass(frozen=True)
class FaultOp:
    """Base class: one deterministic mutation of a store directory."""

    kind = "base"

    def apply(self, directory, stream: random.Random) -> None:
        raise NotImplementedError

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class GarbleLines(FaultOp):
    """Damage individual log lines so they no longer decode (usually).

    Each line is independently hit with probability ``p``; the damage is a
    random truncation, a character flip, noise injection, or the loss of
    every ``=`` separator.  The tolerant scanner must count the wreckage as
    ``DecodeIssue`` lines and carry on.
    """

    p: float = 0.05
    kind = "garble"

    def apply(self, directory, stream: random.Random) -> None:
        for _node, file in store_shards(directory):
            lines = read_complete_lines(file)
            out = []
            for line in lines:
                if line and stream.random() < self.p:
                    line = self._mutate(line, stream)
                out.append(line)
            _write_lines(file, out)

    @staticmethod
    def _mutate(line: str, stream: random.Random) -> str:
        mode = stream.randrange(4)
        if mode == 0:  # truncated flash page
            return line[: stream.randrange(len(line))]
        if mode == 1:  # bit flip
            i = stream.randrange(len(line))
            return line[:i] + stream.choice(_NOISE) + line[i + 1 :]
        if mode == 2:  # noise burst
            i = stream.randrange(len(line) + 1)
            burst = "".join(stream.choice(_NOISE) for _ in range(stream.randint(1, 6)))
            return line[:i] + burst + line[i:]
        return line.replace("=", " ")  # separator loss


@dataclass(frozen=True)
class DuplicateRecords(FaultOp):
    """Append-duplicate individual records (retransmitted log chunks)."""

    p: float = 0.03
    max_copies: int = 2
    kind = "duplicate"

    def apply(self, directory, stream: random.Random) -> None:
        for _node, file in store_shards(directory):
            out: list[str] = []
            for line in read_complete_lines(file):
                out.append(line)
                if line and stream.random() < self.p:
                    out.extend([line] * stream.randint(1, self.max_copies))
            _write_lines(file, out)


@dataclass(frozen=True)
class ReorderWindow(FaultOp):
    """Shuffle records inside bounded windows of a node's log.

    Models collection races and out-of-order log-buffer draining: the
    *global* position of a record is roughly preserved but its local order
    is scrambled — the corpus lint flags the timestamp regressions
    (``LC005`` warnings) and reconstruction must still converge.
    """

    window: int = 6
    p: float = 0.2
    kind = "reorder"

    def apply(self, directory, stream: random.Random) -> None:
        if self.window < 2:
            return
        for _node, file in store_shards(directory):
            lines = read_complete_lines(file)
            for start in range(0, len(lines), self.window):
                if stream.random() < self.p:
                    chunk = lines[start : start + self.window]
                    stream.shuffle(chunk)
                    lines[start : start + self.window] = chunk
            _write_lines(file, lines)


@dataclass(frozen=True)
class NodeBlackout(FaultOp):
    """Delete whole shard files — the log existed but never reached the
    analyst's store (operator error, disk loss after collection)."""

    count: int = 1
    immune: tuple[int, ...] = ()
    kind = "blackout"

    def apply(self, directory, stream: random.Random) -> None:
        candidates = [
            (node, file)
            for node, file in store_shards(directory)
            if node not in self.immune
        ]
        for _node, file in stream.sample(candidates, min(self.count, len(candidates))):
            file.unlink()


@dataclass(frozen=True)
class CorruptMetadata(FaultOp):
    """Damage ``operations.json`` (``drop_key`` | ``bad_json`` | ``wrong_type``).

    Always an ``LC006`` lint error, so the crash-safety oracle's lint gate
    excludes these corpora — the campaign instead records that the store
    was *rejected* before reconstruction, which is itself the correct
    behavior under metadata loss.
    """

    mode: str = "drop_key"
    kind = "metadata"

    def apply(self, directory, stream: random.Random) -> None:
        import pathlib

        path = pathlib.Path(directory) / "operations.json"
        if self.mode == "bad_json":
            path.write_text('{"sink": ')
            return
        data = json.loads(path.read_text())
        if self.mode == "drop_key":
            data.pop(stream.choice(("sink", "base_station", "gen_interval")), None)
        elif self.mode == "wrong_type":
            data["gen_interval"] = "soon"
        else:
            raise ValueError(f"unknown metadata corruption mode {self.mode!r}")
        path.write_text(json.dumps(data, indent=2) + "\n")


@dataclass(frozen=True)
class Degrade(FaultOp):
    """Re-run the classic :class:`LogLossSpec` pipeline over the stored logs.

    Lets paper-model losses (write failure, crash truncation, chunk loss)
    compose with the store-level operators inside a single fault plan.
    """

    write_fail_p: float = 0.0
    crash_p: float = 0.0
    chunk_loss_p: float = 0.0
    node_loss_p: float = 0.0
    immune: tuple[int, ...] = ()
    kind = "degrade"

    def spec(self) -> LogLossSpec:
        return LogLossSpec(
            write_fail_p=self.write_fail_p,
            crash_p=self.crash_p,
            chunk_loss_p=self.chunk_loss_p,
            node_loss_p=self.node_loss_p,
            immune=frozenset(self.immune),
        )

    def apply(self, directory, stream: random.Random) -> None:
        # decode shards directly (not load_store): degrading must compose
        # with a prior CorruptMetadata op, which load_store would choke on
        logs = {node: log for node, log, _bad in iter_store_logs(directory)}
        degraded = apply_losses(
            logs, self.spec(), RngStreams(stream.randrange(2**63))
        )
        for node, file in store_shards(directory):
            if node not in degraded:
                file.unlink()  # node_loss_p: the whole shard is gone
            else:
                _write_lines(file, _encode_tolerant(degraded[node]))


def _encode_tolerant(log) -> list[str]:
    """Re-encode a log, dropping events that no longer round-trip.

    A prior garble can leave a line the *tolerant decoder* accepts but the
    strict encoder refuses (e.g. a value containing ``=``); when a Degrade
    op follows, such an event simply counts as one more lost record.
    """
    out: list[str] = []
    for event in log:
        try:
            out.append(encode_event(event))
        except ValueError:
            continue
    return out


_OP_KINDS = {
    op.kind: op
    for op in (
        GarbleLines,
        DuplicateRecords,
        ReorderWindow,
        NodeBlackout,
        CorruptMetadata,
        Degrade,
    )
}


def op_from_json(data: Mapping[str, Any]) -> FaultOp:
    """Inverse of :meth:`FaultOp.to_json`."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = _OP_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown fault-op kind {kind!r}")
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown fields for {kind!r} op: {sorted(unknown)}")
    if "immune" in payload:
        payload["immune"] = tuple(payload["immune"])
    return cls(**payload)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered composition of fault operators."""

    ops: tuple[FaultOp, ...] = ()

    def apply(self, directory, rng: RngStreams) -> None:
        """Mutate the store at ``directory`` in place, deterministically.

        Each operator draws from its own named stream (index + kind), so
        inserting an op never perturbs the draws of the others.
        """
        for i, op in enumerate(self.ops):
            op.apply(directory, rng.stream(f"fault:{i}:{op.kind}"))

    def to_json(self) -> list[dict[str, Any]]:
        return [op.to_json() for op in self.ops]

    @classmethod
    def from_json(cls, data: Iterable[Mapping[str, Any]]) -> "FaultPlan":
        return cls(tuple(op_from_json(item) for item in data))

    def describe(self) -> str:
        return "+".join(op.kind for op in self.ops) or "none"


# --------------------------------------------------------------------- #
# plan sampling (campaign engine)

#: Named operator pools the campaign samples from.  ``clean`` runs the
#: oracles over unmodified corpora (the CI clean-campaign smoke); ``mild``
#: stays within what a healthy deployment could plausibly produce; ``harsh``
#: adds blackouts and metadata damage.
FAULT_PROFILES = ("clean", "mild", "harsh")


def sample_plan(
    stream: random.Random,
    *,
    profile: str = "mild",
    immune: tuple[int, ...] = (),
) -> FaultPlan:
    """Draw a fault plan for one campaign case.

    ``immune`` nodes are protected from blackout (the campaign passes the
    base station, mirroring the paper's reliable PC-side log).
    """
    if profile == "clean":
        return FaultPlan()
    ops: list[FaultOp] = []
    if stream.random() < 0.7:
        ops.append(GarbleLines(p=round(stream.uniform(0.01, 0.12), 3)))
    if stream.random() < 0.5:
        ops.append(DuplicateRecords(p=round(stream.uniform(0.01, 0.08), 3)))
    if stream.random() < 0.5:
        ops.append(
            ReorderWindow(
                window=stream.randint(3, 10), p=round(stream.uniform(0.05, 0.4), 3)
            )
        )
    if stream.random() < 0.4:
        ops.append(
            Degrade(
                write_fail_p=round(stream.uniform(0.0, 0.08), 3),
                chunk_loss_p=round(stream.uniform(0.0, 0.08), 3),
                immune=immune,
            )
        )
    if profile == "harsh":
        if stream.random() < 0.5:
            ops.append(NodeBlackout(count=stream.randint(1, 3), immune=immune))
        if stream.random() < 0.2:
            ops.append(
                CorruptMetadata(
                    mode=stream.choice(("drop_key", "bad_json", "wrong_type"))
                )
            )
    elif profile != "mild":
        raise ValueError(f"unknown fault profile {profile!r}")
    return FaultPlan(tuple(ops))
