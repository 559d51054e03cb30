"""Loss-cause diagnosis from event flows (paper §V-B, §V-C).

"We say the cause is received loss if the last event of the packet's event
flow is a received event" — the classifier anchors on the flow's *frontier*
(its happens-before-maximal events; with a chronologically merged log this
is exactly the last event, but it is also robust to interleavings the merge
cannot determine) and maps the anchor to a cause and a loss *position* (the
node where the packet got lost).

Two refinements the paper describes in prose:

- Among several frontier events, *possession* events (gen/recv/trans/dup/
  overflow/timeout — events that say where the packet physically is) win
  over confirmation events (acks of earlier hops), e.g. Table II case 4
  ends at the dangling ``2-3 trans`` even though a ``3-1 ack recvd`` is
  concurrent with it.
- An ack-anchored loss is a *received loss* when the receiver's own receive
  record survived (the packet demonstrably entered the node) and an *acked
  loss* when it had to be inferred (the hardware acked but the node never
  recorded the packet) — this is what splits the sink's losses into the
  received/acked bands of Figs. 5/6/9.

Delivery is detected from the base station having received the packet;
server outages are attributed upstream by the analysis layer (an operations
log of outage windows), matching the paper's order of attribution (§V-C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.events.event import (
    ACK,
    DUP,
    GEN,
    OVERFLOW,
    RECEIVER_SIDE_EVENTS,
    RECV,
    TIMEOUT,
    TRANS,
    Event,
)
from repro.core.event_flow import EventFlow

#: Event types that place the packet at a node (vs. confirm an earlier hop).
POSSESSION_EVENTS = frozenset({GEN, RECV, TRANS, DUP, OVERFLOW, TIMEOUT})


class LossCause(str, enum.Enum):
    """Outcome categories used throughout the evaluation (Figs. 5, 6, 9)."""

    #: Packet reached the base station.
    DELIVERED = "delivered"
    #: The packet died *inside* a node that demonstrably received it
    #: (task-post failure, component conflict, serial drop at the sink...).
    RECEIVED_LOSS = "received"
    #: The receiver hardware-acked the packet but never recorded receiving
    #: it: lost between the radio and the upper layers.
    ACKED_LOSS = "acked"
    #: Retransmission budget exhausted on a link.
    TIMEOUT_LOSS = "timeout"
    #: Flow ends at a duplicate detection (routing loops).
    DUP_LOSS = "duplicated"
    #: Receiver queue overflow.
    OVERFLOW_LOSS = "overflow"
    #: Base-station server outage window (attributed from the ops log).
    SERVER_OUTAGE = "server_outage"
    #: No usable anchor (a dangling transmission, or no events at all).
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class LossReport:
    """Diagnosis of one packet.

    ``position`` is the node the loss is attributed to (``None`` when
    unknown); ``anchor`` is the frontier event the classification rests on.
    """

    cause: LossCause
    position: Optional[int]
    anchor: Optional[Event] = None

    @property
    def lost(self) -> bool:
        return self.cause is not LossCause.DELIVERED


def classify_flow(flow: EventFlow, *, delivery_node: Optional[int] = None) -> LossReport:
    """Classify one packet's flow (paper §V-B.1 and the Table II discussion).

    Parameters
    ----------
    flow:
        The reconstructed event flow.
    delivery_node:
        Node id of the base station; a packet whose flow contains a receive
        at this node is delivered.  ``None`` disables delivery detection
        (useful for the synthetic examples).
    """
    if not flow.entries:
        return LossReport(LossCause.UNKNOWN, None, None)

    if delivery_node is not None:
        for entry in flow.entries:
            e = entry.event
            if e.node == delivery_node and e.etype == RECV:
                return LossReport(LossCause.DELIVERED, delivery_node, e)

    anchor_index = _anchor_index(flow)
    anchor = flow.entries[anchor_index].event
    etype = anchor.etype

    if etype == RECV:
        return LossReport(LossCause.RECEIVED_LOSS, anchor.node, anchor)
    if etype == ACK:
        position = anchor.dst if anchor.dst is not None else anchor.node
        cause = _ack_anchor_cause(flow, anchor_index, position)
        return LossReport(cause, position, anchor)
    if etype == TIMEOUT:
        return LossReport(LossCause.TIMEOUT_LOSS, anchor.node, anchor)
    if etype == DUP:
        return LossReport(LossCause.DUP_LOSS, anchor.node, anchor)
    if etype == OVERFLOW:
        return LossReport(LossCause.OVERFLOW_LOSS, anchor.node, anchor)
    if etype == GEN:
        # Generated but never observed leaving the origin: an in-node loss
        # at the origin (the application handed the packet over and it
        # vanished).
        return LossReport(LossCause.RECEIVED_LOSS, anchor.node, anchor)
    # A dangling trans (ack/timeout record lost): in flight, undetermined.
    return LossReport(LossCause.UNKNOWN, anchor.node, anchor)


def _anchor_index(flow: EventFlow) -> int:
    """The frontier entry the diagnosis anchors on.

    Possession events beat confirmation events; a frontier *timeout* is
    additionally suppressed when the same hop demonstrably arrived (an
    arrival event with the same sender/receiver pair exists) — an ack loss
    made the sender give up while the packet travelled on (§V-D5).
    """
    frontier = flow.maximal_entries()
    if not frontier:  # pragma: no cover - non-empty flows have a frontier
        return len(flow.entries) - 1
    arrivals = {
        (e.event.src, e.event.dst)
        for e in flow.entries
        if e.event.etype in RECEIVER_SIDE_EVENTS
    }
    transmitters = {e.event.src for e in flow.entries if e.event.etype == TRANS}
    possession = [
        i
        for i in frontier
        if flow.entries[i].event.etype in POSSESSION_EVENTS
        and not (
            flow.entries[i].event.etype == TIMEOUT
            and (flow.entries[i].event.src, flow.entries[i].event.dst) in arrivals
        )
    ]
    if possession:
        return max(possession)
    # Only confirmations left.  An ack whose receiver demonstrably forwarded
    # the packet (it transmitted somewhere in the flow) is a stale
    # confirmation of a passed hop, not a loss anchor.
    live = [
        i
        for i in frontier
        if not (
            flow.entries[i].event.etype == ACK
            and flow.entries[i].event.dst in transmitters
        )
    ]
    return max(live) if live else max(frontier)


def _ack_anchor_cause(flow: EventFlow, anchor_index: int, receiver: int) -> LossCause:
    """Cause when the frontier is an ack: read the receiver's disposition.

    Scanning backwards from the ack for the receiver's latest arrival-type
    event: a *real* receive means the packet demonstrably entered the node
    (received loss); an overflow means the radio acked what the queue
    dropped (overflow loss); a duplicate detection means the acked copy was
    discarded as a dup; an *inferred* receive means only the hardware ack
    proves reception (acked loss).
    """
    for i in range(anchor_index - 1, -1, -1):
        entry = flow.entries[i]
        event = entry.event
        if event.node != receiver:
            continue
        if event.etype == RECV:
            return LossCause.RECEIVED_LOSS if not entry.inferred else LossCause.ACKED_LOSS
        if event.etype == OVERFLOW:
            return LossCause.OVERFLOW_LOSS
        if event.etype == DUP:
            return LossCause.DUP_LOSS
    return LossCause.ACKED_LOSS
