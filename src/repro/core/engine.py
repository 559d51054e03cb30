"""A single inference engine: one FSM instance per (node, packet).

The engine tracks its current state, how many times each state was visited
(and which flow entry produced each visit), and the index of the last flow
entry it emitted.  Visit counts are what make inter-node prerequisites work
for repeated episodes: a second ``ack`` on the sender demands a *second*
receive on the receiver (paper Table II case 4), while a single broadcast
visit can satisfy many distinct consumers (paper Fig. 3c).

Transition *selection* prefers normal transitions and falls back to the
derived intra-node jumps (paper §IV-B "Processing Events", steps 1-2); the
template precomputes that preference as a ``(state, label)`` table, so a
select is one dict probe.  Path queries go through the template's
:class:`~repro.fsm.reachability.CompiledReachability`: the engine evaluates
its admissibility predicate once per context change into an edge bitmask
(cached against :attr:`PacketContext.version`) and every shortest-path
question becomes a table lookup instead of a fresh graph walk.
"""

from __future__ import annotations

from typing import Optional

from repro.events.packet import PacketKey
from repro.fsm.graph import Transition
from repro.fsm.intra import Selection
from repro.fsm.reachability import EdgeFilter
from repro.fsm.templates import FsmTemplate, NeighborContext

__all__ = ["EngineInstance", "Selection"]


class EngineInstance:
    """FSM state of one node for one packet."""

    __slots__ = (
        "template",
        "select_table",
        "node",
        "packet",
        "state",
        "trajectory",
        "visit_count",
        "visit_entries",
        "visit_seq",
        "last_entry",
        "_mask_ctx",
        "_mask_version",
        "_mask",
    )

    def __init__(
        self,
        template: FsmTemplate,
        node: int,
        packet: Optional[PacketKey],
    ) -> None:
        self.template = template
        self.select_table = template.select_table
        self.node = node
        self.packet = packet
        self.state: str = template.initial_state(node, packet)
        self.trajectory: list[str] = [self.state]
        #: Times each state was entered; the initial state counts once.
        #: (A plain dict — read through ``visits_of`` / ``.get``.)
        self.visit_count: dict[str, int] = {self.state: 1}
        #: Flow entry index of each visit (None for the initial state).
        self.visit_entries: dict[str, list[Optional[int]]] = {self.state: [None]}
        #: All visits in order: (state, flow entry index) pairs.
        self.visit_seq: list[tuple[str, Optional[int]]] = [(self.state, None)]
        #: Flow index of the last entry this engine emitted (per-node order).
        self.last_entry: Optional[int] = None
        #: Admissible-edge bitmask cache, keyed on the context identity and
        #: its version (the mask only depends on template/node/packet/ctx).
        self._mask_ctx: Optional[NeighborContext] = None
        self._mask_version = -1
        self._mask = 0

    # ------------------------------------------------------------------ #

    def select(self, label: str) -> Optional[Selection]:
        """Pick the transition for ``label`` at the current state.

        Normal transitions take precedence over intra-node jumps.  Returns
        ``None`` when the event is unprocessable here (step 3 of the
        algorithm: such events are eventually omitted).
        """
        return self.select_table.get((self.state, label))

    def fire(self, target: str, entry: Optional[int]) -> None:
        """Move to ``target``; ``entry`` is the flow index of the cause."""
        self.state = target
        self.trajectory.append(target)
        counts = self.visit_count
        counts[target] = counts.get(target, 0) + 1
        entries = self.visit_entries.get(target)
        if entries is None:
            self.visit_entries[target] = [entry]
        else:
            entries.append(entry)
        self.visit_seq.append((target, entry))
        if entry is not None:
            self.last_entry = entry

    def visit_entry(self, state: str, nth: int) -> Optional[int]:
        """Flow index of the ``nth`` (1-based) visit of ``state``."""
        entries = self.visit_entries.get(state, [])
        if not 1 <= nth <= len(entries):
            raise IndexError(f"visit {nth} of {state!r} not recorded")
        return entries[nth - 1]

    def visits_of(self, states: tuple[str, ...]) -> int:
        """Total visits across a set of acceptable states."""
        counts = self.visit_count
        n = len(states)
        if n == 1:
            return counts.get(states[0], 0)
        if n == 2:
            return counts.get(states[0], 0) + counts.get(states[1], 0)
        return sum(counts.get(s, 0) for s in states)

    def visit_entry_of(self, states: tuple[str, ...], nth: int) -> Optional[int]:
        """Flow index of the ``nth`` (1-based) visit among ``states``."""
        if len(states) == 1:
            return self.visit_entry(states[0], nth)
        wanted = set(states)
        seen = 0
        for state, entry in self.visit_seq:
            if state in wanted:
                seen += 1
                if seen == nth:
                    return entry
        raise IndexError(f"visit {nth} of {states!r} not recorded")

    # ------------------------------------------------------------------ #
    # inference-path helpers

    def edge_filter(self, ctx: NeighborContext) -> EdgeFilter:
        """Admissibility predicate bound to this engine's node/packet."""
        template, node, packet = self.template, self.node, self.packet
        return lambda t: template.edge_admissible(t, node, packet, ctx)

    def admissible_mask(self, ctx: NeighborContext) -> int:
        """Admissible-edge bitmask for the current context.

        Recomputed only when the context object or its version changed —
        admissibility predicates are pure functions of (edge, node, packet,
        context), so an unchanged context means an unchanged mask.
        """
        template = self.template
        pred = template._admissible
        if pred is None:
            return template.compiled.full_mask
        version = getattr(ctx, "version", None)
        if version is None:
            # contexts without change tracking can't be cached against
            return template.compiled.compute_mask_of(pred, self.node, self.packet, ctx)
        if self._mask_ctx is not ctx or self._mask_version != version:
            self._mask = template.compiled.compute_mask_of(
                pred, self.node, self.packet, ctx
            )
            self._mask_ctx = ctx
            self._mask_version = version
        return self._mask

    def inference_path(
        self, target: str, ctx: NeighborContext
    ) -> Optional[list[Transition]]:
        """Shortest admissible normal path from the current state to ``target``.

        When the engine already *is* at ``target`` but a fresh visit is
        demanded, the shortest positive-length cycle back to ``target`` is
        returned instead.
        """
        compiled = self.template.compiled
        mask = self.admissible_mask(ctx)
        index = compiled.index
        src_i, target_i = index[self.state], index[target]
        if src_i != target_i:
            return compiled.path(src_i, target_i, mask)
        best: Optional[list[Transition]] = None
        for edge_bit, dst_i, first in compiled.outgoing[src_i]:
            if not (mask >> edge_bit) & 1:
                continue
            rest = compiled.path(dst_i, target_i, mask)
            if rest is None:
                continue
            if best is None or len(rest) + 1 < len(best):
                best = [first, *rest]
        return best

    def intra_inference_path(
        self, label: str, target: str, ctx: NeighborContext
    ) -> Optional[list[Transition]]:
        """Lost-event prefix for an intra-node jump ``state --label--> target``.

        The path leads to the source of a normal ``label`` transition into
        ``target``; the final ``label`` edge is the observed event itself and
        is excluded (paper §IV-B).
        """
        compiled = self.template.compiled
        index = compiled.index
        return compiled.path_via_event(
            index[self.state], index[target], label, self.admissible_mask(ctx)
        )

    def distance_to(self, target: str, ctx: NeighborContext) -> Optional[int]:
        """Length of the shortest admissible path to ``target``.

        Positive-length when a fresh visit is demanded at the current state;
        ``None`` when unreachable.
        """
        compiled = self.template.compiled
        mask = self.admissible_mask(ctx)
        index = compiled.index
        src_i, target_i = index[self.state], index[target]
        if src_i != target_i:
            return compiled.dist(src_i, target_i, mask)
        best: Optional[int] = None
        for edge_bit, dst_i, _first in compiled.outgoing[src_i]:
            if not (mask >> edge_bit) & 1:
                continue
            rest = compiled.dist(dst_i, target_i, mask)
            if rest is None:
                continue
            if best is None or rest + 1 < best:
                best = rest + 1
        return best

    def distance_between(
        self, start: str, target: str, ctx: NeighborContext
    ) -> Optional[int]:
        """Shortest admissible path length from an arbitrary ``start``.

        Unlike :meth:`distance_to` this has no fresh-visit semantics:
        ``start == target`` is distance 0 (the legacy
        ``len(reach.shortest_path(start, target))`` contract).
        """
        compiled = self.template.compiled
        index = compiled.index
        return compiled.dist(index[start], index[target], self.admissible_mask(ctx))

    def nearest_of(
        self, states: tuple[str, ...], ctx: NeighborContext
    ) -> tuple[Optional[str], Optional[int]]:
        """The member of ``states`` with the shortest fresh-visit path.

        Returns ``(state, distance)``; ``(None, None)`` when none reachable.
        """
        best_state, best_distance = None, None
        for state in states:
            distance = self.distance_to(state, ctx)
            if distance is not None and (best_distance is None or distance < best_distance):
                best_state, best_distance = state, distance
        return best_state, best_distance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EngineInstance(node={self.node}, state={self.state!r})"
