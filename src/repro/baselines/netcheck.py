"""NetCheck-style baseline: per-node FSM replay without inference [21].

"NetCheck does not show how to connect inference engines on different nodes
and does not consider the impact of lost events" (paper §VI).  We model it
as REFILL with inter-node prerequisites *and* intra-node jumps disabled:
each node's log replays through its own FSM; unprocessable events (made so
by lost predecessors) are dropped; the global order is taken from the
(skew-prone) timestamps when present, else from the merge interleaving.

Diagnosis then uses the naive protocol-semantics rule of paper §III: a
``trans`` without a matching ``ack``/``recv`` means "lost at the sender" —
exactly the rule Table II case 1 shows to be wrong.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.diagnosis import LossCause, LossReport
from repro.core.event_flow import EventFlow
from repro.core.session import ReconstructionSession, RefillOptions
from repro.events.event import EventType
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import FsmTemplate, forwarder_template


class NetCheckAnalyzer:
    """Isolated per-node replay + naive last-event diagnosis."""

    def __init__(self, template: Optional[FsmTemplate] = None) -> None:
        self.session = ReconstructionSession(
            template or forwarder_template(),
            RefillOptions(enable_intra=False, enable_inter=False),
        )

    def reconstruct(self, logs: Mapping[int, NodeLog]) -> dict[PacketKey, EventFlow]:
        """Per-node validated replays, merged by timestamp where available."""
        flows = self.session.reconstruct(logs)
        for flow in flows.values():
            self._timestamp_sort(flow)
        return flows

    @staticmethod
    def _timestamp_sort(flow: EventFlow) -> None:
        """Order entries globally by (skewed) local timestamps.

        NetCheck has no other cross-node ordering signal; entries without a
        timestamp keep their relative position at the end.
        """
        stamped = [e for e in flow.entries if e.event.time is not None]
        unstamped = [e for e in flow.entries if e.event.time is None]
        stamped.sort(key=lambda e: e.event.time)
        flow.entries[:] = stamped + unstamped

    def diagnose(
        self,
        flows: Mapping[PacketKey, EventFlow],
        *,
        delivery_node: Optional[int] = None,
    ) -> dict[PacketKey, LossReport]:
        """The naive trans-without-ack rule (paper §III)."""
        return {
            packet: self._classify(flow, delivery_node) for packet, flow in flows.items()
        }

    @staticmethod
    def _classify(flow: EventFlow, delivery_node: Optional[int]) -> LossReport:
        if delivery_node is not None:
            for entry in flow.entries:
                if entry.event.node == delivery_node and entry.event.etype == EventType.RECV.value:
                    return LossReport(LossCause.DELIVERED, delivery_node, entry.event)
        last = flow.last_event()
        if last is None:
            return LossReport(LossCause.UNKNOWN, None, None)
        # naive rule: the last trans without a later ack for the same pair
        # pins the loss on the sender's link
        acked_pairs = {
            (e.src, e.dst) for e in flow.events if e.etype == EventType.ACK.value
        }
        for event in reversed(flow.events):
            if event.etype == EventType.TRANS.value and (event.src, event.dst) not in acked_pairs:
                return LossReport(LossCause.TIMEOUT_LOSS, event.src, event)
        etype = last.etype
        if etype == EventType.RECV.value:
            return LossReport(LossCause.RECEIVED_LOSS, last.node, last)
        if etype == EventType.ACK.value:
            return LossReport(LossCause.ACKED_LOSS, last.dst, last)
        if etype == EventType.TIMEOUT.value:
            return LossReport(LossCause.TIMEOUT_LOSS, last.node, last)
        if etype == EventType.DUP.value:
            return LossReport(LossCause.DUP_LOSS, last.node, last)
        if etype == EventType.OVERFLOW.value:
            return LossReport(LossCause.OVERFLOW_LOSS, last.node, last)
        return LossReport(LossCause.UNKNOWN, last.node, last)
