"""Logging advisor: which events does REFILL actually need? (paper §VII)

"In the future, we will ... work on more efficient and effective logging
methods for REFILL."  Logging costs flash writes, radio bandwidth and
energy; REFILL's own inference machinery tells us which log statements pull
their weight:

- an event label is **structurally inferable** when losing it never stalls
  an engine: at every state where it can occur, an intra-node jump exists
  for every label that can follow it, or an inter-node prerequisite from a
  peer regenerates it;
- labels also differ in **diagnostic value**: a label that anchors a loss
  cause (timeout/dup/overflow/recv) cannot be dropped without losing the
  classification, even if flows still reconstruct.

The advisor scores each label on both axes and proposes logging plans;
``bench_ablation_logging_plans.py`` measures the plans against ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.events.event import EventType
from repro.fsm.templates import FsmTemplate

#: Labels whose presence anchors a loss cause (§V-B classification).
DIAGNOSTIC_LABELS = frozenset(
    {
        EventType.RECV.value,
        EventType.ACK.value,
        EventType.TIMEOUT.value,
        EventType.DUP.value,
        EventType.OVERFLOW.value,
    }
)


@dataclass(frozen=True, slots=True)
class LabelAdvice:
    """Advisor verdict for one event label."""

    label: str
    #: Every occurrence skipped by losing this label can be re-derived via
    #: an intra-node jump of some later label.
    intra_recoverable: bool
    #: Some peer's event regenerates this label through a prerequisite
    #: drive (the label lies on a path to a prerequisite state).
    inter_recoverable: bool
    #: Dropping the label removes a loss-cause anchor.
    diagnostic: bool

    @property
    def droppable(self) -> bool:
        """Safe to stop logging: recoverable and not a diagnosis anchor."""
        return (self.intra_recoverable or self.inter_recoverable) and not self.diagnostic


def advise(template: FsmTemplate) -> dict[str, LabelAdvice]:
    """Score every event label of ``template``."""
    graph = template.graph
    advice: dict[str, LabelAdvice] = {}
    prereq_states = _prerequisite_states(template)
    for label in graph.events:
        advice[label] = LabelAdvice(
            label=label,
            intra_recoverable=_intra_recoverable(template, label),
            inter_recoverable=_inter_recoverable(template, label, prereq_states),
            diagnostic=label in DIAGNOSTIC_LABELS,
        )
    return advice


def _intra_recoverable(template: FsmTemplate, label: str) -> bool:
    """Losing one ``label`` record never stalls the engine.

    For every transition ``s --label--> t`` and every label ``m`` that can
    occur from ``t``, the engine must still be able to process ``m`` at
    ``s`` (a normal transition or a derived intra-node jump) — then a lost
    ``label`` is skipped over and re-emitted as an inferred event.
    """
    graph = template.graph
    for t in graph.transitions_with_event(label):
        for follow in graph.outgoing(t.dst):
            if graph.transitions_from(t.src, follow.event):
                continue
            if (t.src, follow.event) not in template.intra:
                return False
    return True


def _prerequisite_states(template: FsmTemplate) -> set[str]:
    states: set[str] = set()
    for rules in template.prereqs.values():
        for rule in rules:
            states.update(rule.states)
    return states


def _inter_recoverable(
    template: FsmTemplate, label: str, prereq_states: set[str]
) -> bool:
    """Some peer event's prerequisite drive would regenerate ``label``.

    True when a ``label`` transition lands on (or leads into) a state that
    peers demand: the drive to that state walks the normal path and emits
    the label as an inferred event.
    """
    compiled = template.compiled
    index = compiled.index
    # rules may name another role's states (multi-role wiring): never here
    targets = [index[state] for state in prereq_states if state in index]
    for t in template.graph.transitions_with_event(label):
        for target in targets:
            if compiled.dist(index[t.dst], target, compiled.full_mask) is not None:
                return True
    return False


# --------------------------------------------------------------------- #
# logging plans


@dataclass(frozen=True, slots=True)
class LoggingPlan:
    """A subset of labels to actually log."""

    name: str
    logged: frozenset[str]

    def keeps(self, label: str) -> bool:
        return label in self.logged


def full_plan(template: FsmTemplate) -> LoggingPlan:
    return LoggingPlan("full", frozenset(template.graph.events))


def advised_plan(template: FsmTemplate) -> LoggingPlan:
    """Log everything except labels the advisor marks droppable."""
    advice = advise(template)
    logged = frozenset(label for label, a in advice.items() if not a.droppable)
    return LoggingPlan("advised", logged)


def apply_plan(logs: Mapping[int, "NodeLog"], plan: LoggingPlan) -> dict[int, "NodeLog"]:
    """Filter node logs down to the plan's labels (simulating sparse logging)."""
    from repro.events.log import NodeLog

    return {
        node: NodeLog(node, (e for e in log if plan.keeps(e.etype)))
        for node, log in logs.items()
    }


def savings(logs: Mapping[int, "NodeLog"], plan: LoggingPlan) -> float:
    """Fraction of log records the plan avoids writing."""
    total = sum(len(log) for log in logs.values())
    if total == 0:
        return 0.0
    kept = sum(
        sum(1 for e in log if plan.keeps(e.etype)) for log in logs.values()
    )
    return 1.0 - kept / total
