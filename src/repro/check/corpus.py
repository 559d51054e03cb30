"""Log-corpus lint over a store directory (rule codes ``LC*``).

Streams every ``node_*.log`` file through the store loader's scanner
(:func:`repro.events.codec.scan_log_text`, bound to the file's node), so the
two always agree on what a line is and which lines are corrupt, and checks:

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
from typing import Optional

from repro.check.crossfsm import DeploymentSpec
from repro.check.findings import Finding, cap_per_rule, error, warning
from repro.events.codec import DecodeIssue, decode_text, scan_log_text
from repro.events.event import Event, EventType
from repro.events.store import load_store_metadata, store_shards


def check_corpus(
    directory,
    spec: Optional[DeploymentSpec] = None,
    *,
    max_per_rule: int = 8,
) -> tuple[list[Finding], dict[str, int]]:
    """Lint the store at ``directory``; returns ``(findings, stats)``.

    ``spec`` supplies the template vocabulary for ``LC003``; without one,
    vocabulary checks are skipped.  ``max_per_rule`` bounds findings per
    (rule, file) pair (0 disables the cap).
    """
    path = pathlib.Path(directory)
    findings: list[Finding] = []
    stats = {"files": 0, "lines": 0, "events": 0, "corrupt": 0}

    findings.extend(_check_metadata(path))
    vocabulary = spec.vocabulary() if spec is not None else None

    for node, file in store_shards(path):
        stats["files"] += 1
        file_findings, file_stats = _check_file(file, node, vocabulary)
        findings.extend(file_findings)
        for key, value in file_stats.items():
            stats[key] += value

    return cap_per_rule(findings, max_per_rule), stats


def _check_metadata(path: pathlib.Path) -> list[Finding]:
    try:
        load_store_metadata(path)
    except ValueError as exc:
        return [error("LC006", "operations.json", str(exc))]
    return []


def _check_file(
    file: pathlib.Path,
    node: int,
    vocabulary: Optional[frozenset[str]],
) -> tuple[list[Finding], dict[str, int]]:
    findings: list[Finding] = []
    stats = {"lines": 0, "events": 0, "corrupt": 0}
    last_time: Optional[float] = None
    last_time_lineno = 0
    last_gen_seq: Optional[int] = None

    for lineno, decoded in scan_log_text(decode_text(file.read_bytes()), node):
        stats["lines"] += 1
        loc = f"{file.name}:{lineno}"
        if isinstance(decoded, DecodeIssue):
            stats["corrupt"] += 1
            if decoded.event is None:
                findings.append(
                    error("LC001", loc, f"line failed to decode: {decoded.error}")
                )
            else:
                stats["events"] += 1
                findings.append(error("LC002", loc, decoded.error))
            continue
        stats["events"] += 1
        event = decoded

        if vocabulary is not None and event.etype not in vocabulary:
            findings.append(
                warning(
                    "LC003",
                    loc,
                    f"event label {event.etype!r} matches no role template; "
                    "inference will ignore it",
                )
            )

        findings.extend(_check_packet_integrity(event, loc))

        # Append-order sanity: one node, one (linear) clock — local
        # timestamps must be monotone along the surviving log.
        if event.time is not None:
            if last_time is not None and event.time < last_time:
                findings.append(
                    warning(
                        "LC005",
                        loc,
                        f"timestamp {event.time} precedes {last_time} at "
                        f"line {last_time_lineno}; the log is reordered or "
                        "the clock stepped backwards",
                    )
                )
            last_time = event.time
            last_time_lineno = lineno

        # The origin's own gen records carry strictly increasing seqs.
        if event.etype == EventType.GEN.value and event.packet is not None:
            if event.packet.origin == node:
                if last_gen_seq is not None and event.packet.seq <= last_gen_seq:
                    findings.append(
                        warning(
                            "LC005",
                            loc,
                            f"gen sequence {event.packet.seq} does not "
                            f"increase past {last_gen_seq}; duplicated or "
                            "reordered generation records",
                        )
                    )
                last_gen_seq = event.packet.seq

    return findings, stats


def _check_packet_integrity(event: Event, loc: str) -> list[Finding]:
    if event.packet is None:
        return []
    findings: list[Finding] = []
    if event.packet.origin < 0 or event.packet.seq < 0:
        findings.append(
            error(
                "LC004",
                loc,
                f"packet key {event.packet} has a negative origin/seq",
            )
        )
    if (
        event.etype == EventType.GEN.value
        and event.packet.origin != event.node
    ):
        findings.append(
            error(
                "LC004",
                loc,
                f"gen event for packet {event.packet} recorded on node "
                f"{event.node}, not its origin {event.packet.origin}",
            )
        )
    return findings
