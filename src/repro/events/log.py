"""Per-node local logs.

A :class:`NodeLog` is the ordered sequence of events one node managed to
record.  The *within-node* order is trustworthy (a node appends to its own
log), the *across-node* order is not — nodes are unsynchronized and REFILL
must recover the global ordering (paper §II, §III "Unsynchronized events").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.events.event import Event
from repro.events.packet import PacketKey


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One surviving log entry: an event plus its position in the node log.

    ``index`` is the append position *in the surviving log* (0-based and
    contiguous); gaps caused by log loss are invisible to the analyzer, which
    is exactly the paper's setting.
    """

    index: int
    event: Event


class NodeLog:
    """Append-only local log of a single node.

    The log preserves append order.  Collected logs may be arbitrarily
    incomplete: records can be missing anywhere (write failures), from the
    tail (crash), or the whole log can be absent (paper Table II, case 1).
    """

    def __init__(self, node: int, events: Iterable[Event] = ()) -> None:
        self.node = int(node)
        self._events: list[Event] = []
        for event in events:
            self.append(event)

    @classmethod
    def adopt(cls, node: int, events: list[Event]) -> "NodeLog":
        """A log that takes ``events`` as its list, unchecked: the caller
        has already held every event to ``node`` (as
        :func:`~repro.events.codec.scan_lines` does for a shard) and hands
        the list over."""
        log = cls(node)
        log._events = events
        return log

    def append(self, event: Event) -> None:
        """Append ``event``; it must belong to this node's location."""
        if event.node != self.node:
            raise ValueError(
                f"event located at node {event.node} cannot be appended to the log of node {self.node}"
            )
        self._events.append(event)

    def records(self) -> list[LogRecord]:
        """Surviving records with their (post-loss) positions."""
        return [LogRecord(i, e) for i, e in enumerate(self._events)]

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def packets(self) -> set[PacketKey]:
        """All packet keys mentioned in this log."""
        return {e.packet for e in self._events if e.packet is not None}

    def filtered(self, keep: Iterable[bool]) -> "NodeLog":
        """A copy keeping only events whose ``keep`` flag is true.

        Used by the lossy-log substrate to apply record-level loss while
        preserving order.
        """
        keep = list(keep)
        if len(keep) != len(self._events):
            raise ValueError("keep mask length must equal log length")
        return NodeLog(self.node, (e for e, k in zip(self._events, keep) if k))

    def truncated(self, length: int) -> "NodeLog":
        """A copy keeping only the first ``length`` records (crash tail loss)."""
        if length < 0:
            raise ValueError("length must be non-negative")
        return NodeLog(self.node, self._events[:length])

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeLog):
            return NotImplemented
        return self.node == other.node and self._events == other._events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeLog(node={self.node}, n={len(self)})"
