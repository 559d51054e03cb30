"""The in-process backend: accumulate evidence, then refresh the dirty set.

Per-packet independence (paper §IV–V) means *how* packet groups get turned
into event flows is a deployment choice, not an algorithmic one.  The
session owns everything above the backend — grouping events by packet,
option normalization (including ``strip_times``), diagnosis, metrics — and
hands it fully normalized, per-node-ordered packet groups, so every door
reconstructs from byte-identical inputs.

Every door drives the same lifecycle::

    backend.start(plan)          # once; plan = template + options
    backend.submit(batch)        # any number of times; partial evidence
    backend.finish()             # yields (packet, flow) for the dirty set
    backend.close()              # release pools/state

A batch run submits each packet's whole evidence once and finishes once;
a live deployment (logs arrive in collection rounds, operators want a
diagnosis *now*) submits partial evidence many times and finishes on every
refresh.  Per-packet independence makes the dirty set exact.

Re-running a dirty packet's reconstruction from scratch (instead of
resuming engine state) is deliberate: new evidence can *precede* previously
processed events (logs are unsynchronized), so the transition algorithm's
ordering decisions must be revisited — a classic recompute-over-resume
trade, cheap because flows are tiny.

Each backend instance owns a :class:`~repro.core.memo.ShapeMemo` from
``start`` to ``close``: a batch run's memo ends with the run, a daemon's
lives across its refreshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from repro.core.event_flow import EventFlow
from repro.core.memo import ShapeMemo
from repro.core.transition_algorithm import (
    PacketReconstructor,
    ReconstructorOptions,
    TemplateFor,
)
from repro.events.event import Event
from repro.events.merge import PacketGroup
from repro.events.packet import PacketKey
from repro.fsm.templates import FsmTemplate
from repro.obs.spans import span

@dataclass(frozen=True)
class ExecutionPlan:
    """Everything a backend needs to reconstruct: model + switches.

    ``template`` is an :class:`FsmTemplate` or a per-node factory.
    """

    template: FsmTemplate | TemplateFor
    options: ReconstructorOptions


class IncrementalBackend:
    """Accumulate partial packet groups; reconstruct the dirty set on flush.

    ``submit`` only accumulates — evidence for a packet may still be on its
    way, so flows are only derived when the session asks for a ``finish``
    (its ``reconstruct`` or ``refresh``).  Within one node, segments must
    arrive in log order (collection preserves per-node order); across
    batches any interleaving is fine.
    """

    def __init__(self) -> None:
        self.plan: Optional[ExecutionPlan] = None
        #: ``None`` when the plan's template bypasses the memo.
        self.memo: Optional[ShapeMemo] = None
        #: per packet, per node: ordered accumulated events
        self._events: dict[PacketKey, dict[int, list[Event]]] = {}
        self.dirty: set[PacketKey] = set()

    def start(self, plan: ExecutionPlan) -> None:
        """Bind the plan (and a fresh shape memo); called once before any
        ``submit``."""
        self.plan = plan
        self.memo = ShapeMemo.for_template(plan.template)

    def submit(self, batch: Sequence[PacketGroup]) -> None:
        """Add one batch of normalized packet groups to the evidence.

        The backend takes ownership of the batch's per-packet dicts and
        lists: a packet's first group is kept as it is, later ones extend
        it."""
        events = self._events
        for packet, events_by_node in batch:
            per_node = events.get(packet)
            if per_node is None:
                events[packet] = events_by_node
            else:
                for node, node_events in events_by_node.items():
                    per_node.setdefault(node, []).extend(node_events)
            self.dirty.add(packet)

    def finish(self) -> Iterator[tuple[PacketKey, EventFlow]]:
        """Reconstruct the dirty set in packet order; the backend stays
        usable afterwards."""
        # One serial pass over the whole dirty set: refresh cost scales with
        # the dirtied packets, and the per-batch reconstructor setup in
        # ``_reconstruct_serially`` is paid once instead of once per packet.
        events = self._events
        yield from self._reconstruct_serially(
            (packet, events[packet]) for packet in sorted(self.dirty)
        )
        self.dirty.clear()

    def close(self) -> None:
        """Release resources (accumulated state, the memo)."""
        self.memo = None
        self._events.clear()
        self.dirty.clear()

    def packets(self) -> list[PacketKey]:
        """Every packet seen so far, sorted by (origin, seq)."""
        return sorted(self._events)

    # ------------------------------------------------------------------ #

    def _reconstruct_serially(
        self, groups: Iterable[PacketGroup]
    ) -> Iterator[tuple[PacketKey, EventFlow]]:
        """The one group→flow loop every in-process path shares.

        One :class:`PacketReconstructor` is reused across the whole batch —
        ``run`` resets every per-packet structure, so only the packet key
        needs rebinding, and the template/options plumbing is paid once per
        batch instead of once per packet.  Each packet goes through the
        shape memo when the template allows it; the ``reconstruct.packet``
        span times every packet, replayed or run.
        """
        plan = self._plan()
        reconstructor = PacketReconstructor(plan.template, None, plan.options)
        memo = self.memo
        for packet, events_by_node in groups:
            reconstructor.packet = packet
            with span("reconstruct.packet"):
                if memo is None:
                    flow = reconstructor.run(events_by_node)
                else:
                    flow = memo.flow(reconstructor, events_by_node)
            yield packet, flow

    def _plan(self) -> ExecutionPlan:
        if self.plan is None:
            raise RuntimeError(f"{type(self).__name__} used before start()")
        return self.plan

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
