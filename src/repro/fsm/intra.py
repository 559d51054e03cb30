"""Intra-node transition derivation (paper §IV-B, "Intra-node transition").

Given an event label ``e``, consider all normal transitions
``s_i1 -> s_j1, ..., s_im -> s_jm`` carrying ``e``.  For a state ``s_x``, if
there is **one and only one** state ``s_jc`` among the (distinct) targets
``{s_j1, ..., s_jm}`` that is reachable from ``s_x``, an intra-node
transition ``s_x --e--> s_jc`` is added: observing ``e`` at ``s_x`` can only
mean the engine actually reached ``s_jc`` and the events on the skipped
normal path were lost.

The derivation is purely structural, so it is computed once per graph.  The
*inferred path* (which concrete lost events to emit) is context dependent —
templates may veto edges (e.g. ``gen`` on a non-origin node) — so it is
resolved lazily at processing time via
:class:`~repro.fsm.reachability.CompiledReachability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fsm.graph import TransitionGraph
from repro.fsm.reachability import CompiledReachability


@dataclass(frozen=True, slots=True)
class Selection:
    """Outcome of transition selection for an event label at a state.

    Selection depends only on the template (normal transitions shadow
    derived jumps), so templates precompute one frozen instance per
    ``(state, label)`` pair and every engine shares the table.
    """

    #: ``"normal"`` or ``"intra"``.
    kind: str
    #: Destination state.
    target: str


@dataclass(frozen=True, slots=True)
class IntraTransition:
    """A derived jump transition ``src --event--> dst``.

    ``dst`` is the unique reachable target among the normal transitions
    carrying ``event``.
    """

    src: str
    dst: str
    event: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.src} ~~{self.event}~~> {self.dst}"


def derive_intra_transitions(
    graph: TransitionGraph,
    compiled: Optional[CompiledReachability] = None,
) -> dict[tuple[str, str], IntraTransition]:
    """Derive all intra-node transitions of ``graph``.

    Returns a mapping ``(state, event) -> IntraTransition``.  A pair is
    present iff the uniqueness condition holds at that state for that event.
    States that already have a normal transition for the event are included
    too — at processing time normal transitions take precedence, but the
    derived jump documents the full relation and is exercised by tests.
    """
    compiled = compiled or CompiledReachability(graph)
    index = compiled.index
    derived: dict[tuple[str, str], IntraTransition] = {}
    for event in graph.events:
        targets = list(dict.fromkeys(t.dst for t in graph.transitions_with_event(event)))
        for state in graph.states:
            reachable_targets = [
                s for s in targets if compiled.reaches(index[state], index[s])
            ]
            if len(reachable_targets) == 1:
                derived[(state, event)] = IntraTransition(state, reachable_targets[0], event)
    return derived
