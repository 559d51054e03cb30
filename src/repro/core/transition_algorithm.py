"""The recursive transition algorithm (paper §IV-B "Processing Events").

Given the merged per-node event queues of one packet, the algorithm walks
the connected inference engines:

1. A normal state transition for the current event is taken directly.
2. Otherwise, an intra-node jump is taken; the prerequisite events on the
   skipped normal path are emitted as *inferred* lost events (each processed
   recursively, so their own inter-node prerequisites resolve too).
3. Before any transition fires, its inter-node prerequisite rules are
   resolved: each prerequisite engine must have *visited* the prerequisite
   state often enough.  Demands are counted per consumer: the N-th time one
   consumer (node, event label, peer) requires a state, the peer must have
   visited it at least N times — so a second ``ack`` demands a second
   receive (Table II case 4) while a single broadcast visit satisfies many
   *distinct* consumers (Fig. 3c).  A missing visit is produced by *driving*
   the peer: consuming its real pending events while they move toward the
   target, then inferring the remainder along the shortest admissible
   normal-transition path.
4. Events with no available transition are omitted — but only after a full
   pass over all nodes makes no progress, so an event that is merely
   *temporarily* unprocessable gets its chance (design decision #2 in
   DESIGN.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.events.event import Event
from repro.events.packet import PacketKey
from repro.core.context import PacketContext
from repro.core.engine import EngineInstance, Selection
from repro.core.event_flow import LOGGED, EventFlow, Note
from repro.fsm.templates import FsmTemplate
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.spans import span

#: Maps a node id to the FSM template its engine runs.
TemplateFor = Callable[[int], FsmTemplate]


#: Per-packet transition counts the flow itself does not show:
#: (normal, intra, inter, prerequisite drives, unmet prerequisites).
Tally = tuple[int, int, int, int, int]


class ReconCounters:
    """Counters one reconstructed packet adds to, bound once per registry.

    Names are catalogued in ``docs/OBSERVABILITY.md``.  The reconstructor
    tallies a packet in plain integers and :meth:`add` folds the totals in
    once per packet, so a replayed flow (:mod:`repro.core.memo`) counts
    exactly what running the engine on it would have.
    """

    __slots__ = (
        "packets",
        "events_logged",
        "events_inferred",
        "events_omitted",
        "trans_normal",
        "trans_intra",
        "trans_inter",
        "prereq_drives",
        "prereq_unmet",
        "anomalies",
        "engine_fires",
        "memo_hits",
        "memo_misses",
    )

    @classmethod
    def for_registry(cls, registry: MetricsRegistry) -> "ReconCounters":
        """Memoized per registry: binding happens once, not per packet."""
        bound = registry.bind_cache.get(cls)
        if bound is None:
            bound = registry.bind_cache[cls] = cls(registry)
        return bound  # type: ignore[return-value]

    def __init__(self, registry: MetricsRegistry) -> None:
        counter = registry.counter
        self.packets = counter("refill.packets")
        self.events_logged = counter("refill.events.logged")
        self.events_inferred = counter("refill.events.inferred")
        self.events_omitted = counter("refill.events.omitted")
        self.trans_normal = counter("refill.transitions.normal")
        self.trans_intra = counter("refill.transitions.intra")
        self.trans_inter = counter("refill.transitions.inter")
        self.prereq_drives = counter("refill.prereq.drives")
        self.prereq_unmet = counter("refill.prereq.unmet")
        self.anomalies = counter("refill.anomalies")
        self.engine_fires = counter("engine.fires")
        self.memo_hits = counter("refill.memo.hits")
        self.memo_misses = counter("refill.memo.misses")

    def add(self, flow: EventFlow, tally: Tally) -> None:
        """Count one packet: its flow's entries, omissions and anomalies
        plus the transition ``tally`` (every entry is one engine fire)."""
        normal, intra, inter, drives, unmet = tally
        entries = len(flow.entries)
        inferred = flow.inferred_count
        self.packets.inc()
        self.events_inferred.inc(inferred)
        self.events_logged.inc(entries - inferred)
        self.events_omitted.inc(len(flow.omitted))
        self.anomalies.inc(len(flow.anomalies))
        self.engine_fires.inc(entries)
        self.trans_normal.inc(normal)
        self.trans_intra.inc(intra)
        self.trans_inter.inc(inter)
        self.prereq_drives.inc(drives)
        self.prereq_unmet.inc(unmet)


@dataclass(frozen=True, slots=True)
class ReconstructorOptions:
    """Feature switches (used by the ablation benchmarks).

    Attributes
    ----------
    enable_intra:
        Use derived intra-node jump transitions (step 2).  Off, the engine
        behaves like a plain FSM replay that omits anything a lost event
        made unreachable.
    enable_inter:
        Resolve inter-node prerequisites (step 3).  Off, engines run in
        isolation — the NetCheck-style baseline.
    max_depth:
        Recursion guard for pathological prerequisite cascades.
    """

    enable_intra: bool = True
    enable_inter: bool = True
    max_depth: int = 400


class PacketReconstructor:
    """Reconstructs the event flow of a single packet.

    Besides the flow, a run leaves the structured reasons behind it:
    :attr:`notes` (one :class:`~repro.core.event_flow.Note` per flow entry),
    :attr:`omitted_notes` (one per omitted event), :attr:`anomaly_notes`
    and :meth:`tally`.  The flow's provenance and anomaly strings are their
    renderings.
    """

    def __init__(
        self,
        template_for: TemplateFor | FsmTemplate,
        packet: Optional[PacketKey] = None,
        options: ReconstructorOptions = ReconstructorOptions(),
    ) -> None:
        if isinstance(template_for, FsmTemplate):
            template = template_for
            self._template_for: TemplateFor = lambda node: template
        else:
            self._template_for = template_for
        self.packet = packet
        self.options = options
        # hot-loop copies of the (frozen) option switches
        self._intra = options.enable_intra
        self._inter = options.enable_inter
        self._max_depth = options.max_depth

    # ------------------------------------------------------------------ #

    def reconstruct(self, events_by_node: Mapping[int, Sequence[Event]]) -> EventFlow:
        """Run the transition algorithm over per-node ordered event lists."""
        with span("reconstruct.packet"):
            return self.run(events_by_node)

    def run(self, events_by_node: Mapping[int, Sequence[Event]]) -> EventFlow:
        """:meth:`reconstruct` without its ``reconstruct.packet`` span, for
        callers that time the packet themselves."""
        self.flow = EventFlow(self.packet)
        self.ctx = PacketContext()
        self.notes: list[Note] = []
        self.omitted_notes: list[Note] = []
        self.anomaly_notes: list[Note] = []
        self.n_normal = self.n_intra = self.n_inter = 0
        self.n_drives = self.n_unmet = 0
        self.engines: dict[int, EngineInstance] = {}
        self.queues: dict[int, deque[Event]] = {
            node: deque(events) for node, events in sorted(events_by_node.items())
        }
        #: queue lengths before any pop: a popped event's position is
        #: ``sizes[node] - len(queue)``
        self.sizes = {node: len(queue) for node, queue in self.queues.items()}
        for queue in self.queues.values():
            self.ctx.preseed(queue)
        #: Per-consumer prerequisite demand counts; key is
        #: (consumer node, event label, peer node, prerequisite state).
        self._demands: dict[tuple[int, str, int, tuple[str, ...]], int] = {}
        self._driving: set[tuple[int, str]] = set()
        self._depth = 0

        rotation = self._rotation()
        sizes = self.sizes
        while any(self.queues.values()):
            progressed = False
            for node in rotation:
                queue = self.queues[node]
                engine = self._engine(node) if queue else None
                while queue:
                    head = queue[0]
                    selection = self._select(engine, head.etype)
                    if selection is None:
                        break  # temporarily unprocessable; revisit next pass
                    note = Note(LOGGED, node, None, (sizes[node] - len(queue),))
                    queue.popleft()
                    self._process(head, False, None, note, selection)
                    progressed = True
            if not progressed:
                self._omit_one(rotation)

        for node, engine in sorted(self.engines.items()):
            self.flow.final_states[node] = engine.state
            # every state the engine entered: the initial state plus all
            # fired targets — exactly the visit-count keys
            self.flow.visited_states[node] = frozenset(engine.visit_count)

        ReconCounters.for_registry(get_registry()).add(self.flow, self.tally())
        return self.flow

    def tally(self) -> Tally:
        """The last run's transition counts (see :data:`Tally`)."""
        return (self.n_normal, self.n_intra, self.n_inter, self.n_drives, self.n_unmet)

    # ------------------------------------------------------------------ #
    # internals

    def _rotation(self) -> list[int]:
        nodes = sorted(self.queues)
        if self.packet is not None and self.packet.origin in self.queues:
            nodes.remove(self.packet.origin)
            nodes.insert(0, self.packet.origin)
        return nodes

    def _engine(self, node: int) -> EngineInstance:
        engine = self.engines.get(node)
        if engine is None:
            engine = EngineInstance(self._template_for(node), node, self.packet)
            self.engines[node] = engine
        return engine

    def _select(self, engine: EngineInstance, label: str):
        selection = engine.select(label)
        if selection is not None and not self._intra and selection.kind == "intra":
            return None
        return selection

    def _omit_one(self, rotation: list[int]) -> None:
        for node in rotation:
            queue = self.queues[node]
            if queue:
                note = Note(LOGGED, node, None, (self.sizes[node] - len(queue),))
                self._omit(queue.popleft(), note)
                return
        raise AssertionError("omit requested with all queues empty")  # pragma: no cover

    def _omit(self, event: Event, note: Note) -> None:
        self.flow.omitted.append(event)
        self.omitted_notes.append(note)

    def _anomaly(self, note: Note) -> None:
        self.flow.anomalies.append(note.render())
        self.anomaly_notes.append(note)

    def _process(
        self,
        event: Event,
        inferred: bool,
        forced_target: Optional[str],
        note: Note,
        selection: Optional[Selection] = None,
    ) -> None:
        """Steps 1-2 for one event, with recursive prerequisite resolution.

        ``note`` says where the event comes from: its queue position when
        logged, the reason it was inferred otherwise.  ``selection`` lets
        the caller hand over a selection it already made at the engine's
        current state (the main loop probes before it pops), saving the
        re-probe; it is ignored under ``forced_target``.
        """
        if self._depth >= self._max_depth:
            self._anomaly(Note("recursion", None, event))
            self._omit(event, note)
            return
        self._depth += 1
        try:
            engine = self.engines.get(event.node)
            if engine is None:
                engine = self._engine(event.node)
            template = engine.template
            label = event.etype

            if forced_target is not None:
                target = forced_target
                prefix = []
            else:
                if selection is None:
                    selection = self._select(engine, label)
                if selection is None:
                    self._omit(event, note)
                    return
                target = selection.target
                prefix = []
                if selection.kind == "intra":
                    self.n_intra += 1
                    prefix = engine.intra_inference_path(label, target, self.ctx) or []
                else:
                    self.n_normal += 1

            # Step 2: inferred prerequisite events on the skipped normal path.
            if prefix:
                skipped = Note("intra", None, event)
                for edge in prefix:
                    lost = template.realize_event(
                        edge.event, event.node, self.packet, self.ctx
                    )
                    self._process(lost, True, edge.dst, skipped)

            # Step 3: inter-node prerequisites of this event.
            prereq_entries: list[int] = []
            rules = template.prereqs.get(label) if self._inter else None
            if rules:
                for rule in rules:
                    peers = rule.resolve_nodes(event)
                    if not peers:
                        self._anomaly(Note("unresolvable", None, event))
                        continue
                    for peer in peers:
                        if peer == event.node:
                            self._anomaly(Note("self", None, event))
                            continue
                        entry = self._require_visit(event.node, label, peer, rule.states)
                        if entry is not None:
                            prereq_entries.append(entry)

            # Fire and emit.
            last = engine.last_entry
            after: Sequence[int]
            if prereq_entries:
                if last is not None:
                    prereq_entries.append(last)
                after = sorted(set(prereq_entries))
            elif last is not None:
                after = (last,)
            else:
                after = ()
            index = self.flow.append(
                event, inferred=inferred, after=after, provenance=note.render()
            )
            self.notes.append(note)
            engine.fire(target, index)
            self.ctx.note(event, not inferred)
        finally:
            self._depth -= 1

    # ------------------------------------------------------------------ #
    # prerequisite resolution

    def _require_visit(
        self, consumer: int, label: str, peer: int, states: tuple[str, ...]
    ) -> Optional[int]:
        """Ensure ``peer`` visited one of ``states`` often enough.

        Demands are per consumer (node, label, peer, state-set); the N-th
        demand needs N total visits across the acceptable states.  Returns
        the flow index of the visit that satisfies the demand (for a
        happens-before edge), or ``None`` when it is the peer's initial
        state or the demand could not be met.
        """
        demand_key = (consumer, label, peer, states)
        demand = self._demands.get(demand_key, 0) + 1
        self._demands[demand_key] = demand
        self.n_inter += 1
        engine = self.engines.get(peer)
        if engine is None:
            engine = self._engine(peer)
        if engine.visits_of(states) < demand:
            self._drive(
                peer, states, demand, reason=Note("prereq", consumer, None, (label,))
            )
        if engine.visits_of(states) >= demand:
            return engine.visit_entry_of(states, demand)
        self.n_unmet += 1
        self._anomaly(Note("unmet", peer, None, (states, demand)))
        return engine.last_entry

    def _drive(
        self, node: int, states: tuple[str, ...], demand: int, *, reason: Note
    ) -> None:
        """Drive ``node``'s engine until ``states`` have ``demand`` visits.

        Real pending events are consumed while they strictly decrease the
        distance to the nearest acceptable state; the remainder of the
        shortest admissible path is inferred step by step.
        """
        key = (node, states)
        if key in self._driving:
            self._anomaly(Note("cycle", node, None, (states,)))
            return
        self.n_drives += 1
        self._driving.add(key)
        try:
            engine = self._engine(node)
            while engine.visits_of(states) < demand:
                target, distance = engine.nearest_of(states, self.ctx)
                if target is None:
                    self._anomaly(Note("unreachable", node, None, (states,)))
                    return
                if self._consume_toward(engine, node, states, target, distance):
                    continue
                # Infer one step along the shortest admissible path.
                path = engine.inference_path(target, self.ctx)
                if not path:  # pragma: no cover - distance>0 guarantees a path
                    self._anomaly(Note("no-path", node, None, (target,)))
                    return
                edge = path[0]
                lost = engine.template.realize_event(edge.event, node, self.packet, self.ctx)
                before = len(engine.trajectory)
                self._process(lost, True, edge.dst, reason)
                if len(engine.trajectory) == before:
                    # the inferred step could not fire (e.g. depth limit):
                    # abort the drive instead of spinning
                    self._anomaly(Note("stalled", node, None, (target,)))
                    return
        finally:
            self._driving.discard(key)

    def _consume_toward(
        self,
        engine: EngineInstance,
        node: int,
        states: tuple[str, ...],
        target: str,
        distance: int,
    ) -> bool:
        """Consume the node's next real event if it moves toward a target."""
        queue = self.queues.get(node)
        if not queue:
            return False
        head = queue[0]
        selection = self._select(engine, head.etype)
        if selection is None:
            return False
        if selection.target not in states:
            after = self._distance_from(engine, selection.target, target)
            if after is None or after >= distance:
                return False
        note = Note(LOGGED, node, None, (self.sizes[node] - len(queue),))
        queue.popleft()
        self._process(head, False, None, note)
        return True

    def _distance_from(self, engine: EngineInstance, start: str, target: str) -> Optional[int]:
        return engine.distance_between(start, target, self.ctx)
