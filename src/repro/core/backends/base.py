"""The execution-backend contract of a reconstruction session.

Per-packet independence (paper §IV–V) means *how* packet groups get turned
into event flows is a deployment choice, not an algorithmic one: in one
process, across a worker pool, or statefully as evidence trickles in from a
live collection.  :class:`ExecutionBackend` is that seam.  The session owns
everything above it — grouping events by packet, option normalization
(including ``strip_times``), diagnosis, metrics — and hands each backend
fully normalized, per-node-ordered packet groups, so every backend
reconstructs from byte-identical inputs and must produce byte-identical
flows.

Each backend instance owns a :class:`~repro.core.memo.ShapeMemo` from
``start`` to ``close``: a batch run's memo ends with the run, a daemon's
lives across its refreshes.

Lifecycle::

    backend.start(plan)          # once; plan = template + options
    backend.submit(batch)        # any number of times; may yield flows
    backend.finish()             # flush; yields remaining flows; reusable
    backend.close()              # release pools/state

``submit`` and ``finish`` yield ``(packet, flow)`` pairs; a backend is free
to defer work (pool dispatch, dirty-set accumulation) and emit flows later.
Backends with ``accumulates = True`` accept *partial* evidence per submit
(a packet may gain more events in a later batch) and re-derive the affected
flows on ``finish``; the others require every submitted group to be
complete.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.core.event_flow import EventFlow
from repro.core.memo import ShapeMemo
from repro.core.transition_algorithm import (
    PacketReconstructor,
    ReconstructorOptions,
    TemplateFor,
)
from repro.events.merge import PacketGroup
from repro.events.packet import PacketKey
from repro.fsm.templates import FsmTemplate
from repro.obs.spans import span

#: A zero-argument, *module-level* (hence picklable-by-reference) function
#: returning the FSM template — process workers call it once each.
TemplateFactory = Callable[[], FsmTemplate]


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything a backend needs to reconstruct: model + switches.

    ``template`` is always usable in-process (an :class:`FsmTemplate` or a
    per-node factory); ``template_factory`` is the picklable spelling that
    process pools require and is ``None`` when the session was built from a
    bare template.
    """

    template: FsmTemplate | TemplateFor
    options: ReconstructorOptions
    template_factory: Optional[TemplateFactory] = None


class ExecutionBackend(abc.ABC):
    """Strategy for executing per-packet reconstructions."""

    #: Stable identifier (CLI ``--backend`` value, metrics label).
    name: str = "abstract"
    #: True when ``submit`` accepts partial evidence for a packet and
    #: ``finish`` re-derives the dirtied flows (streaming ingest).
    accumulates: bool = False

    def __init__(self) -> None:
        self.plan: Optional[ExecutionPlan] = None
        #: ``None`` when the plan's template bypasses the memo.
        self.memo: Optional[ShapeMemo] = None

    def start(self, plan: ExecutionPlan) -> None:
        """Bind the plan (and a fresh shape memo); called once before any
        ``submit``."""
        self.plan = plan
        self.memo = ShapeMemo.for_template(plan.template)

    @abc.abstractmethod
    def submit(
        self, batch: Sequence[PacketGroup]
    ) -> Iterable[tuple[PacketKey, EventFlow]]:
        """Take one batch of normalized packet groups; may yield flows."""

    def finish(self) -> Iterable[tuple[PacketKey, EventFlow]]:
        """Flush deferred work; the backend stays usable afterwards."""
        return ()

    def close(self) -> None:
        """Release resources (worker pools, accumulated state, the memo)."""
        self.memo = None

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
