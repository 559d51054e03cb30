"""Scoring REFILL against the simulator's ground truth.

The paper's deployment had no ground truth, so its accuracy claims are
qualitative.  The simulator records the authoritative fate and the full
true event sequence of every packet, which lets us measure:

- **cause accuracy** — does the diagnosed (cause, position) match what
  actually killed the packet?  True causes map to the *observable* causes a
  perfect observer would report (e.g. a silent serial drop at the sink can
  only ever look like a received or acked loss at the sink);
- **event recovery** — precision/recall of the inferred lost events against
  the events that were truly logged-then-lost (or never logged);
- **ordering accuracy** — fraction of event pairs whose reconstructed
  relative order matches true chronology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.diagnosis import LossCause, LossReport
from repro.core.event_flow import EventFlow
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.simnet.truth import GroundTruth, TrueCause, TrueFate


@dataclass
class AccuracyReport:
    """Aggregate reconstruction quality for one run."""

    #: Fraction of true packets that had at least one surviving log record
    #: (and therefore a flow at all).
    coverage: float = 0.0
    #: Fraction of covered packets with an acceptable (cause, position).
    cause_accuracy: float = 0.0
    #: Fraction of covered *lost* packets whose loss position is exact.
    position_accuracy: float = 0.0
    #: Micro-averaged precision/recall of inferred lost events.
    event_precision: float = 0.0
    event_recall: float = 0.0
    #: Fraction of real-event pairs ordered consistently with true time.
    ordering_accuracy: float = 0.0
    #: (true cause, diagnosed cause) confusion counts.
    confusion: Counter = field(default_factory=Counter)


# --------------------------------------------------------------------- #
# cause scoring


def acceptable_causes(
    fate: TrueFate, *, sink: int, outage_attributed: bool = True
) -> set[tuple[LossCause, Optional[int]]]:
    """(cause, position) pairs a perfect observer could report for ``fate``.

    ``position=None`` entries accept any position.
    """
    cause, node = fate.cause, fate.position
    if cause is TrueCause.DELIVERED:
        return {(LossCause.DELIVERED, None)}
    if cause is TrueCause.SERIAL:
        return {(LossCause.RECEIVED_LOSS, sink), (LossCause.ACKED_LOSS, sink)}
    if cause is TrueCause.OUTAGE:
        if outage_attributed:
            return {(LossCause.SERVER_OUTAGE, None)}
        return {(LossCause.RECEIVED_LOSS, sink), (LossCause.ACKED_LOSS, sink)}
    if cause is TrueCause.IN_NODE:
        return {(LossCause.RECEIVED_LOSS, node), (LossCause.ACKED_LOSS, node)}
    if cause is TrueCause.TIMEOUT:
        return {(LossCause.TIMEOUT_LOSS, node)}
    if cause is TrueCause.DUPLICATE:
        return {(LossCause.DUP_LOSS, node)}
    if cause is TrueCause.OVERFLOW:
        return {(LossCause.OVERFLOW_LOSS, node)}
    if cause is TrueCause.CRASH:
        # the dead node's receive (and often the sender's ack) was logged;
        # a mid-flight death can also leave only a dangling trans
        return {
            (LossCause.RECEIVED_LOSS, node),
            (LossCause.ACKED_LOSS, node),
            (LossCause.UNKNOWN, None),
        }
    # TTL / NO_ROUTE: undetectable from logs; UNKNOWN is the honest answer
    return {(LossCause.UNKNOWN, None)}


def cause_accuracy(
    reports: Mapping[PacketKey, LossReport],
    truth: GroundTruth,
    *,
    sink: int,
    outage_attributed: bool = True,
) -> tuple[float, float, Counter]:
    """(cause accuracy, loss-position accuracy, confusion counter)."""
    confusion: Counter = Counter()
    correct = scored = 0
    position_correct = position_scored = 0
    for packet, report in reports.items():
        fate = truth.fates.get(packet)
        if fate is None:
            continue
        scored += 1
        confusion[(fate.cause, report.cause)] += 1
        acceptable = acceptable_causes(fate, sink=sink, outage_attributed=outage_attributed)
        ok = any(
            report.cause is cause and (position is None or report.position == position)
            for cause, position in acceptable
        )
        correct += ok
        if not fate.delivered and fate.cause not in (TrueCause.TTL, TrueCause.NO_ROUTE):
            position_scored += 1
            expected_position = sink if fate.cause in (TrueCause.SERIAL, TrueCause.OUTAGE) else fate.position
            if fate.cause is TrueCause.OUTAGE and outage_attributed:
                position_correct += report.cause is LossCause.SERVER_OUTAGE
            else:
                position_correct += report.position == expected_position
    return (
        correct / scored if scored else 0.0,
        position_correct / position_scored if position_scored else 0.0,
        confusion,
    )


# --------------------------------------------------------------------- #
# event recovery


def _signature(event: Event) -> tuple:
    return (event.etype, event.node, event.src, event.dst)


def event_recovery(
    flows: Mapping[PacketKey, EventFlow],
    collected: Mapping[int, NodeLog],
    truth: GroundTruth,
) -> tuple[float, float]:
    """Micro-averaged precision/recall of inferred lost events.

    A true event is *lost* when its signature count in the collected logs
    falls short of its count in the true record; an inferred event is
    correct when it fills such a gap.
    """
    collected_counts: dict[PacketKey, Counter] = {}
    for log in collected.values():
        for event in log:
            if event.packet is not None:
                collected_counts.setdefault(event.packet, Counter())[_signature(event)] += 1

    inferred_total = inferred_correct = lost_total = 0
    for packet, flow in flows.items():
        true_events = truth.events.get(packet, [])
        true_counter = Counter(_signature(e) for e in true_events)
        have = collected_counts.get(packet, Counter())
        lost_counter = true_counter - have
        lost_total += sum(lost_counter.values())
        inferred_counter = Counter(_signature(e) for e in flow.inferred_events())
        inferred_total += sum(inferred_counter.values())
        inferred_correct += sum((inferred_counter & lost_counter).values())
    precision = inferred_correct / inferred_total if inferred_total else 1.0
    recall = inferred_correct / lost_total if lost_total else 1.0
    return precision, recall


# --------------------------------------------------------------------- #
# ordering accuracy


def ordering_accuracy(
    flows: Mapping[PacketKey, EventFlow], truth: GroundTruth
) -> float:
    """Pairwise order agreement between flows and true chronology.

    Only real events whose signature is unique within the packet's true
    record are matched (repeating signatures — retransmissions — cannot be
    aligned unambiguously under loss).
    """
    agree = total = 0
    for packet, flow in flows.items():
        true_events = truth.events.get(packet)
        if not true_events:
            continue
        sig_counts = Counter(_signature(e) for e in true_events)
        true_time = {
            _signature(e): e.time
            for e in true_events
            if sig_counts[_signature(e)] == 1 and e.time is not None
        }
        matched = [
            true_time[_signature(entry.event)]
            for entry in flow.entries
            if not entry.inferred and _signature(entry.event) in true_time
        ]
        for i in range(len(matched)):
            for j in range(i + 1, len(matched)):
                total += 1
                agree += matched[i] <= matched[j]
    return agree / total if total else 1.0


# --------------------------------------------------------------------- #


def score_run(
    flows: Mapping[PacketKey, EventFlow],
    reports: Mapping[PacketKey, LossReport],
    collected: Mapping[int, NodeLog],
    truth: GroundTruth,
    *,
    sink: int,
    outage_attributed: bool = True,
) -> AccuracyReport:
    """Full accuracy report for one pipeline run."""
    report = AccuracyReport()
    if truth.fates:
        report.coverage = sum(1 for p in truth.fates if p in flows) / len(truth.fates)
    cause_acc, position_acc, confusion = cause_accuracy(
        reports, truth, sink=sink, outage_attributed=outage_attributed
    )
    report.cause_accuracy = cause_acc
    report.position_accuracy = position_acc
    report.confusion = confusion
    report.event_precision, report.event_recall = event_recovery(flows, collected, truth)
    report.ordering_accuracy = ordering_accuracy(flows, truth)
    return report
