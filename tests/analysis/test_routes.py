"""Unit tests for route-evolution analytics."""

import pytest

from repro.analysis.routes import (
    RouteChange,
    churn_hotspots,
    network_churn,
    route_timelines,
    switch_point_counts,
)
from repro.core.session import ReconstructionSession
from repro.events.event import Event, EventType
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template


def make_flows(paths_by_packet):
    """Build flows for given true paths via complete synthetic logs."""
    logs: dict[int, list[Event]] = {}
    for packet, path in paths_by_packet.items():
        for a, b in zip(path, path[1:]):
            logs.setdefault(a, []).append(
                Event.make(EventType.TRANS, a, src=a, dst=b, packet=packet)
            )
            logs.setdefault(b, []).append(
                Event.make(EventType.RECV, b, src=a, dst=b, packet=packet)
            )
            logs.setdefault(a, []).append(
                Event.make(EventType.ACK, a, src=a, dst=b, packet=packet)
            )
    session = ReconstructionSession(forwarder_template(with_gen=False))
    return session.reconstruct({n: NodeLog(n, evs) for n, evs in logs.items()})


class TestRouteTimelines:
    def test_stable_route_no_changes(self):
        flows = make_flows({
            PacketKey(1, 1): [1, 2, 9],
            PacketKey(1, 2): [1, 2, 9],
            PacketKey(1, 3): [1, 2, 9],
        })
        timelines = route_timelines(flows)
        assert timelines[1].churn == 0.0
        assert timelines[1].changes == []
        assert timelines[1].dominant_path() == (1, 2, 9)

    def test_route_change_detected(self):
        flows = make_flows({
            PacketKey(1, 1): [1, 2, 9],
            PacketKey(1, 2): [1, 3, 9],
            PacketKey(1, 3): [1, 3, 9],
        })
        timeline = route_timelines(flows)[1]
        assert len(timeline.changes) == 1
        change = timeline.changes[0]
        assert change.seq == 2
        assert change.old_path == (1, 2, 9)
        assert change.new_path == (1, 3, 9)
        assert change.divergence_hop == 1
        assert timeline.churn == pytest.approx(0.5)

    def test_sequence_order_not_dict_order(self):
        flows = make_flows({
            PacketKey(1, 3): [1, 2, 9],
            PacketKey(1, 1): [1, 2, 9],
            PacketKey(1, 2): [1, 3, 9],
        })
        timeline = route_timelines(flows)[1]
        assert [seq for seq, _ in timeline.observations] == [1, 2, 3]
        assert len(timeline.changes) == 2  # 1->2 changed, 2->3 changed back

    def test_exclude_pseudo_nodes(self):
        flows = make_flows({
            PacketKey(1, 1): [1, 2, 99],
            PacketKey(1, 2): [1, 2, 99],
        })
        timelines = route_timelines(flows, exclude=frozenset({99}))
        assert timelines[1].dominant_path() == (1, 2)

    def test_min_hops_filter(self):
        flows = make_flows({PacketKey(1, 1): [1, 2]})
        assert route_timelines(flows, min_hops=3) == {}


class TestAggregates:
    def make_timelines(self):
        return route_timelines(make_flows({
            PacketKey(1, 1): [1, 2, 9],
            PacketKey(1, 2): [1, 3, 9],
            PacketKey(5, 1): [5, 6, 9],
            PacketKey(5, 2): [5, 6, 9],
        }))

    def test_network_churn(self):
        timelines = self.make_timelines()
        assert network_churn(timelines) == pytest.approx(0.5)
        assert network_churn({}) == 0.0

    def test_churn_hotspots(self):
        hotspots = churn_hotspots(self.make_timelines(), top=1)
        assert hotspots[0][0] == 1

    def test_switch_point_counts(self):
        counts = switch_point_counts(self.make_timelines())
        # origin 1's route diverged right after node 1
        assert counts[1] == 1
