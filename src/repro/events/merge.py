"""Merging logs from different nodes (paper §IV, step 1).

"Logs containing events from different nodes are first merged with ordering
of events from the same node preserved."  No global clock exists, so the
merge only guarantees per-node subsequence preservation; the transition
algorithm later recovers the true cross-node ordering.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Mapping

from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey

#: One packet's evidence: per-node ordered event lists.
PacketGroup = tuple[PacketKey, dict[int, list[Event]]]

#: What the merge layer accepts: per-node logs keyed by node id.
Logs = Mapping[int, NodeLog]


def iter_node_logs(logs: Logs) -> Iterator[tuple[int, NodeLog]]:
    """``logs`` as ``(node, log)`` pairs, node order ascending."""
    for node in sorted(logs):
        yield node, logs[node]


def group_by_packet(
    logs: Logs,
) -> dict[PacketKey, dict[int, list[Event]]]:
    """Group events by packet key, preserving per-node order inside groups.

    Events without a packet key (e.g. routing-beacon events) are ignored here;
    REFILL's per-packet flow reconstruction only consumes packet events.
    """
    grouped: dict[PacketKey, dict[int, list[Event]]] = defaultdict(dict)
    for node, log in iter_node_logs(logs):
        for event in log:
            if event.packet is None:
                continue
            grouped[event.packet].setdefault(node, []).append(event)
    return dict(grouped)


def split_collection_rounds(
    logs: Mapping[int, NodeLog], rounds: int
) -> Iterator[dict[int, list[Event]]]:
    """Split a collected log set into ``rounds`` per-node contiguous chunks.

    Models CTP collection delivering each node's surviving log in several
    round-trips: within one node the chunks preserve log order (round *i*
    holds records before round *i+1*'s), across nodes any interleaving is
    possible.  Feeding every round to a streaming session and refreshing at
    the end reproduces the one-shot reconstruction exactly — per-packet
    independence plus per-node order is all the reconstructor needs.
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    for i in range(rounds):
        batch: dict[int, list[Event]] = {}
        for node, log in sorted(logs.items()):
            n = len(log)
            lo = (n * i) // rounds
            hi = (n * (i + 1)) // rounds
            if hi > lo:
                batch[node] = list(log.events[lo:hi])
        if batch:
            yield batch
