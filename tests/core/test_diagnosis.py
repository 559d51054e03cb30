"""Unit tests for loss-cause classification (paper §V-B)."""

import pytest

from repro.core.diagnosis import LossCause, classify_flow
from repro.core.session import ReconstructionSession
from repro.events.event import Event, EventType
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template

PKT = PacketKey(1, 0)
BS = 100  # base-station pseudo-node


def ev(etype, node, src=None, dst=None):
    return Event.make(etype, node, src=src, dst=dst, packet=PKT)


def reconstruct(logs):
    session = ReconstructionSession(forwarder_template(with_gen=False))
    return session.reconstruct({n: NodeLog(n, evs) for n, evs in logs.items()})[PKT]


class TestCauses:
    def test_delivered_when_bs_received(self):
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)],
            2: [ev("recv", 2, 1, 2), ev("trans", 2, 2, BS)],
            BS: [ev("recv", BS, 2, BS)],
        })
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.DELIVERED
        assert report.position == BS
        assert not report.lost

    def test_received_loss_when_recv_is_last(self):
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2)],
            2: [ev("recv", 2, 1, 2)],
        })
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.RECEIVED_LOSS
        assert report.position == 2

    def test_received_loss_when_recv_real_and_acked(self):
        # receiver logged the recv and the sender got the ack: the packet
        # demonstrably entered node 2 and died there.
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)],
            2: [ev("recv", 2, 1, 2)],
        })
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.RECEIVED_LOSS
        assert report.position == 2

    def test_acked_loss_when_recv_only_inferred(self):
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)],
        })
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.ACKED_LOSS
        assert report.position == 2

    def test_timeout_loss(self):
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("timeout", 1, 1, 2)],
        })
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.TIMEOUT_LOSS
        assert report.position == 1

    def test_overflow_loss(self):
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2)],
            2: [ev("overflow", 2, 1, 2)],
        })
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.OVERFLOW_LOSS
        assert report.position == 2

    def test_dup_loss(self):
        # the packet loops 1 -> 2 -> 1 -> 2 and the second copy is discarded
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("recv", 1, 2, 1), ev("trans", 1, 1, 2)],
            2: [ev("recv", 2, 1, 2), ev("trans", 2, 2, 1), ev("dup", 2, 1, 2)],
        })
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.DUP_LOSS
        assert report.position == 2

    def test_unknown_for_dangling_trans(self):
        flow = reconstruct({1: [ev("trans", 1, 1, 2)]})
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.UNKNOWN
        assert report.position == 1

    def test_empty_flow_is_unknown(self):
        session = ReconstructionSession(forwarder_template(with_gen=False))
        flow = session.reconstruct_group(PKT, {})
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.UNKNOWN
        assert report.position is None

    def test_gen_last_maps_to_received_loss_at_origin(self):
        session = ReconstructionSession(forwarder_template(with_gen=True))
        pkt = PacketKey(5, 3)
        flow = session.reconstruct_group(
            pkt, {5: [Event.make("gen", 5, packet=pkt)]}
        )
        report = classify_flow(flow, delivery_node=BS)
        assert report.cause is LossCause.RECEIVED_LOSS
        assert report.position == 5


class TestAnchorSelection:
    def test_possession_beats_concurrent_ack(self):
        # Table II case 4 shape: a dangling trans and a concurrent ack are
        # both on the frontier; the trans wins.
        from tests.integration.test_table2_cases import TestCase4

        logs = {n: NodeLog(n, evs) for n, evs in TestCase4.LOGS.items()}
        session = ReconstructionSession(forwarder_template(with_gen=False))
        flow = session.reconstruct(logs)[PKT]
        report = classify_flow(flow, delivery_node=BS)
        assert report.anchor.etype == "trans"
        assert report.position == 2

    def test_report_lost_property(self):
        flow = reconstruct({1: [ev("trans", 1, 1, 2)]})
        assert classify_flow(flow).lost
