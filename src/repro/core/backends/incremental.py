"""Stateful execution over a live deployment's trickling evidence.

Logs arrive in rounds (each CTP collection round delivers more chunks);
operators want diagnosis *now*, not at end-of-month.  This backend keeps
per-packet event accumulations and re-derives flows only for packets whose
evidence changed — per-packet independence makes the dirty set exact.

Re-running a dirty packet's reconstruction from scratch (instead of
resuming engine state) is deliberate: new evidence can *precede* previously
processed events (logs are unsynchronized), so the transition algorithm's
ordering decisions must be revisited — a classic recompute-over-resume
trade, cheap because flows are tiny.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.backends.base import ExecutionBackend
from repro.core.event_flow import EventFlow
from repro.events.event import Event
from repro.events.merge import PacketGroup
from repro.events.packet import PacketKey


class IncrementalBackend(ExecutionBackend):
    """Accumulate partial packet groups; reconstruct the dirty set on flush.

    ``submit`` never yields — evidence for a packet may still be on its way,
    so flows are only derived when the session asks for a ``finish`` (the
    session's ``refresh``).  Within one node, segments must arrive in log
    order (collection preserves per-node order); across batches any
    interleaving is fine.
    """

    name = "incremental"
    accumulates = True

    def __init__(self) -> None:
        super().__init__()
        #: per packet, per node: ordered accumulated events
        self._events: dict[PacketKey, dict[int, list[Event]]] = {}
        self.dirty: set[PacketKey] = set()

    def submit(
        self, batch: Sequence[PacketGroup]
    ) -> Iterable[tuple[PacketKey, EventFlow]]:
        for packet, events_by_node in batch:
            per_node = self._events.setdefault(packet, {})
            for node, events in events_by_node.items():
                per_node.setdefault(node, []).extend(events)
            self.dirty.add(packet)
        return ()

    def finish(self) -> Iterator[tuple[PacketKey, EventFlow]]:
        # One serial pass over the whole dirty set: refresh cost scales with
        # the dirtied packets, and the per-batch reconstructor setup in
        # ``_reconstruct_serially`` is paid once instead of once per packet.
        events = self._events
        yield from self._reconstruct_serially(
            (packet, events[packet]) for packet in sorted(self.dirty)
        )
        self.dirty.clear()

    def close(self) -> None:
        super().close()
        self._events.clear()
        self.dirty.clear()

    def packets(self) -> list[PacketKey]:
        """Every packet seen so far, sorted by (origin, seq)."""
        return sorted(self._events)

    # ------------------------------------------------------------------ #
    # resumable state (the serve layer's checkpoint substrate)

    def export_state(self) -> dict[str, Any]:
        """JSON-compatible accumulation state: per-packet per-node events.

        Nothing derived is saved: recompute-over-resume means the
        accumulated events are the whole truth, so restoring them into a
        fresh backend and ingesting the *remaining* evidence yields
        byte-identical flows to one uninterrupted run."""
        from repro.core.serialize import event_to_dict

        return {
            "events": {
                str(packet): {
                    str(node): [event_to_dict(e) for e in events]
                    for node, events in sorted(per_node.items())
                }
                for packet, per_node in sorted(self._events.items())
            },
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Inverse of :meth:`export_state`; replaces any current state.

        Every restored packet is dirty, so the next :meth:`finish` derives
        its flow exactly as live ingest would have."""
        from repro.core.serialize import event_from_dict

        self._events = {
            PacketKey.parse(packet): {
                int(node): [event_from_dict(e) for e in events]
                for node, events in per_node.items()
            }
            for packet, per_node in state["events"].items()
        }
        self.dirty = set(self._events)
