"""Log-corpus lint over a store directory (rule codes ``LC*``).

The lint reads no files.  :meth:`CorpusLint.tap` is a pass-through over one
shard's ``(lineno, Event | DecodeIssue)`` scan from the store reader
(:mod:`repro.events.store`), so the lint and the loader always agree on what
a line is and which lines are corrupt — and ``refill analyze`` lints the very
scan it loads (``load_store(directory, tap=lint.tap)``).  The rules:

- **decodability** (``LC001``): the line parses and ends in a newline —
  this surfaces the counts that :func:`repro.events.store.load_store` only
  tallies in ``corrupt_lines`` as per-line findings;
- **schema conformance** (``LC002``): the recorded node id matches the file
  the line sits in (a node appends only to its own log);
- **vocabulary** (``LC003``): the event label is emitted by some role
  template — an unknown label can never drive an engine and will be
  silently ignored by inference;
- **packet referential integrity** (``LC004``): ``(origin, seq)`` keys are
  well-formed and ``gen`` events sit on their packet's origin;
- **append-order sanity** (``LC005``): local timestamps are monotone within
  a file (one node, one clock) and ``gen`` sequence numbers from the file's
  own node strictly increase;
- **metadata** (``LC006``): :func:`repro.events.store.load_store_metadata`
  reads ``operations.json``.

Findings per (rule, file) are capped — a 60 %-corrupt shard should not
drown the report — with an ``LC007`` summary for anything suppressed.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Iterator, Optional

from repro.check.crossfsm import DeploymentSpec
from repro.check.findings import Finding, cap_per_rule, error, warning
from repro.events.codec import DecodeIssue
from repro.events.event import GEN
from repro.events.store import ScanItem, iter_store_logs, load_store_metadata


class CorpusLint:
    """The ``LC*`` rules as a consumer of store scans.

    ``spec`` supplies the template vocabulary for ``LC003``; without one,
    vocabulary checks are skipped.  ``max_per_rule`` bounds findings per
    (rule, file) pair (0 disables the cap).  Pass :meth:`tap` to a store
    loader, then read :meth:`result`.
    """

    def __init__(
        self, spec: Optional[DeploymentSpec] = None, *, max_per_rule: int = 8
    ) -> None:
        self.vocabulary = spec.vocabulary() if spec is not None else None
        self.max_per_rule = max_per_rule
        self.findings: list[Finding] = []
        self.stats = {"files": 0, "lines": 0, "events": 0, "corrupt": 0}

    def check_metadata(self, directory) -> None:
        """Record ``LC006`` when the store's ``operations.json`` does not load."""
        try:
            load_store_metadata(directory)
        except ValueError as exc:
            self.findings.append(error("LC006", "operations.json", str(exc)))

    def result(self) -> tuple[list[Finding], dict[str, int]]:
        """``(findings, stats)`` over every shard tapped so far."""
        return cap_per_rule(self.findings, self.max_per_rule), dict(self.stats)

    def tap(
        self, node: int, file: pathlib.Path, scan: Iterable[ScanItem]
    ) -> Iterator[ScanItem]:
        """Yield ``scan`` unchanged, linting each line on the way.

        A finding's location (``<file>:<line>``) is built only when one is
        emitted, and the shard's line counts join :attr:`stats` once, when
        its scan ends."""
        add = self.findings.append
        vocabulary = self.vocabulary
        name = file.name
        self.stats["files"] += 1
        lines = events = corrupt = 0
        last_time: Optional[float] = None
        last_time_lineno = 0
        last_gen_seq: Optional[int] = None

        try:
            for lineno, decoded in scan:
                lines += 1
                if isinstance(decoded, DecodeIssue):
                    corrupt += 1
                    if decoded.event is None:
                        add(error(
                            "LC001", f"{name}:{lineno}",
                            f"line failed to decode: {decoded.error}",
                        ))
                    else:
                        events += 1
                        add(error("LC002", f"{name}:{lineno}", decoded.error))
                    yield lineno, decoded
                    continue
                events += 1
                event, packet = decoded, decoded.packet

                if vocabulary is not None and event.etype not in vocabulary:
                    add(warning(
                        "LC003", f"{name}:{lineno}",
                        f"event label {event.etype!r} matches no role template; "
                        "inference will ignore it",
                    ))

                # Packet referential integrity: well-formed keys, gen at origin.
                if packet is not None and (packet.origin < 0 or packet.seq < 0):
                    add(error(
                        "LC004", f"{name}:{lineno}",
                        f"packet key {packet} has a negative origin/seq",
                    ))
                gen = packet if event.etype == GEN else None
                if gen is not None and gen.origin != event.node:
                    add(error(
                        "LC004", f"{name}:{lineno}",
                        f"gen event for packet {gen} recorded on node "
                        f"{event.node}, not its origin {gen.origin}",
                    ))

                # Append-order sanity: one node, one (linear) clock — local
                # timestamps must be monotone along the surviving log.
                time = event.time
                if time is not None:
                    if last_time is not None and time < last_time:
                        add(warning(
                            "LC005", f"{name}:{lineno}",
                            f"timestamp {time} precedes {last_time} at "
                            f"line {last_time_lineno}; the log is reordered or "
                            "the clock stepped backwards",
                        ))
                    last_time = time
                    last_time_lineno = lineno

                # The origin's own gen records carry strictly increasing seqs.
                if gen is not None and gen.origin == node:
                    if last_gen_seq is not None and gen.seq <= last_gen_seq:
                        add(warning(
                            "LC005", f"{name}:{lineno}",
                            f"gen sequence {gen.seq} does not increase past "
                            f"{last_gen_seq}; duplicated or reordered generation "
                            "records",
                        ))
                    last_gen_seq = gen.seq
                yield lineno, event
        finally:
            stats = self.stats
            stats["lines"] += lines
            stats["events"] += events
            stats["corrupt"] += corrupt


def check_corpus(
    directory,
    spec: Optional[DeploymentSpec] = None,
    *,
    max_per_rule: int = 8,
) -> tuple[list[Finding], dict[str, int]]:
    """Lint the store at ``directory``; returns ``(findings, stats)``.

    One pass of the store reader with a :class:`CorpusLint` attached (see it
    for ``spec`` and ``max_per_rule``).  Unlike :func:`load_store`, a broken
    ``operations.json`` is a finding (``LC006``), and the shards are still
    linted.
    """
    lint = CorpusLint(spec, max_per_rule=max_per_rule)
    lint.check_metadata(directory)
    for _shard in iter_store_logs(directory, lint.tap):
        pass  # the tap lints each shard as the reader scans it
    return lint.result()

