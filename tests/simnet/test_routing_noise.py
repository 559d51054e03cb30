"""Tests for packet-less routing events in the logs (parent changes)."""

from collections import defaultdict

import pytest

from repro.core.session import ReconstructionSession
from repro.core.tracing import trace_packet
from repro.events.log import NodeLog
from repro.simnet.scenarios import citysee, run_scenario


@pytest.fixture(scope="module")
def result():
    # a short CitySee slice with bursts: link churn guarantees switches
    return run_scenario(citysee(n_nodes=60, days=1, seed=37))


class TestParentChangeEvents:
    def test_parent_changes_are_logged(self, result):
        changes = [
            e
            for log in result.true_logs.values()
            for e in log
            if e.etype == "parent_change"
        ]
        assert changes, "link churn must produce parent switches"
        for event in changes:
            assert event.packet is None
            assert "new" in event.info_dict

    def test_refill_ignores_routing_noise(self, result):
        session = ReconstructionSession()
        with_noise = session.reconstruct(result.true_logs)
        stripped = {
            node: NodeLog(node, (e for e in log if e.etype != "parent_change"))
            for node, log in result.true_logs.items()
        }
        without_noise = session.reconstruct(stripped)
        assert set(with_noise) == set(without_noise)
        sample = sorted(with_noise)[:100]
        for packet in sample:
            assert with_noise[packet].labels() == without_noise[packet].labels()

    def test_switch_events_correlate_with_route_timelines(self, result):
        """The two independent views of routing churn agree in direction:
        logged parent switches, and consecutive packets of one origin whose
        reconstructed paths differ."""
        flows = ReconstructionSession().reconstruct(result.true_logs)
        paths: dict[int, list[tuple[int, ...]]] = defaultdict(list)
        for packet in sorted(flows):  # origin, then sequence order
            path = tuple(
                n for n in trace_packet(flows[packet]).path
                if n != result.base_station_node
            )
            if len(path) > 1:
                paths[packet.origin].append(path)
        path_switches = sum(
            a != b for timeline in paths.values() for a, b in zip(timeline, timeline[1:])
        )
        switch_count = sum(
            1
            for log in result.true_logs.values()
            for e in log
            if e.etype == "parent_change"
        )
        # both views see instability (non-zero), or neither does
        assert (path_switches > 0) == (switch_count > 0)
