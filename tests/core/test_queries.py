"""Unit tests for flow-level queries (per-packet delay, retx, loops)."""

import pytest

from repro.core.queries import (
    estimate_delay,
    network_stats,
    packet_stats,
    retransmission_hotspots,
)
from repro.core.session import ReconstructionSession
from repro.events.event import Event, EventType
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template

PKT = PacketKey(1, 0)


def ev(etype, node, src=None, dst=None, t=None):
    return Event.make(etype, node, src=src, dst=dst, packet=PKT, time=t)


def reconstruct(logs):
    session = ReconstructionSession(forwarder_template(with_gen=False))
    return session.reconstruct({n: NodeLog(n, evs) for n, evs in logs.items()})


class TestEstimateDelay:
    def test_sums_per_node_residence(self):
        # node 1 holds the packet 0->2s (its clock), node 2 holds 100->103s
        # (another clock, huge offset): delay = 2 + 3, offsets cancel
        flows = reconstruct({
            1: [ev("trans", 1, 1, 2, t=0.0), ev("ack_recvd", 1, 1, 2, t=2.0)],
            2: [ev("recv", 2, 1, 2, t=100.0), ev("trans", 2, 2, 3, t=103.0)],
        })
        assert estimate_delay(flows[PKT]) == pytest.approx(5.0)

    def test_none_without_timestamps(self):
        flows = reconstruct({1: [ev("trans", 1, 1, 2)]})
        assert estimate_delay(flows[PKT]) is None

    def test_single_timestamp_counts_zero_residence(self):
        flows = reconstruct({1: [ev("trans", 1, 1, 2, t=7.0)]})
        assert estimate_delay(flows[PKT]) == 0.0


class TestPacketStats:
    def test_basic_stats(self):
        flows = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)],
            2: [ev("recv", 2, 1, 2), ev("trans", 2, 2, 3)],
            3: [ev("recv", 3, 2, 3)],
        })
        stats = packet_stats(flows[PKT])
        assert stats.hop_count == 2
        assert stats.retransmissions == 0
        assert not stats.has_loop
        assert stats.inferred_fraction == 0.0

    def test_inferred_fraction(self):
        flows = reconstruct({1: [ev("trans", 1, 1, 2)], 3: [ev("recv", 3, 2, 3)]})
        stats = packet_stats(flows[PKT])
        # flow: trans, [recv], [trans], recv -> 2/4 inferred
        assert stats.inferred_fraction == pytest.approx(0.5)

    def test_loop_and_duplicates(self):
        flows = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("recv", 1, 2, 1), ev("trans", 1, 1, 2)],
            2: [ev("recv", 2, 1, 2), ev("trans", 2, 2, 1), ev("dup", 2, 1, 2)],
        })
        stats = packet_stats(flows[PKT])
        assert stats.has_loop
        assert stats.duplicates == 1


class TestNetworkStats:
    def make_flows(self):
        p0, p1 = PacketKey(1, 0), PacketKey(1, 1)
        session = ReconstructionSession(forwarder_template(with_gen=False))
        logs = {
            1: NodeLog(1, [
                Event.make("trans", 1, src=1, dst=9, packet=p0),
                Event.make("trans", 1, src=1, dst=9, packet=p1),
            ]),
            9: NodeLog(9, [Event.make("recv", 9, src=1, dst=9, packet=p0)]),
        }
        return session.reconstruct(logs)

    def test_aggregates(self):
        flows = self.make_flows()
        stats = network_stats(flows, delivery_node=9)
        assert stats.packets == 2
        assert stats.delivered == 1
        assert stats.lost == 1
        assert stats.delivery_ratio() == pytest.approx(0.5)
        assert stats.hop_histogram[1] == 1  # delivered packet: 1 hop
        assert stats.node_load[1] == 2

    def test_empty(self):
        stats = network_stats({})
        assert stats.packets == 0
        assert stats.delivery_ratio() == 0.0
        assert stats.mean_delay is None


class TestRetransmissionHotspots:
    def test_counts_repeat_transmissions(self):
        session = ReconstructionSession(forwarder_template(with_gen=False))
        logs = {
            1: NodeLog(1, [
                ev("trans", 1, 1, 2),
                ev("trans", 1, 1, 2),
                ev("trans", 1, 1, 2),
                ev("timeout", 1, 1, 2),
            ]),
        }
        flows = session.reconstruct(logs)
        hotspots = retransmission_hotspots(flows)
        assert hotspots[0] == ((1, 2), 2)

    def test_no_retx_empty(self):
        flows = reconstruct({1: [ev("trans", 1, 1, 2)]})
        assert retransmission_hotspots(flows) == []
