"""Tests for packet-less routing events in the logs (parent changes)."""

import pytest

from repro.core.session import ReconstructionSession
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
        """The two independent views of routing churn agree in direction."""
        from repro.analysis.routes import route_timelines, network_churn

        session = ReconstructionSession()
        flows = session.reconstruct(result.true_logs)
        timelines = route_timelines(
            flows, exclude=frozenset({result.base_station_node})
        )
        observed_churn = network_churn(timelines)
        switch_count = sum(
            1
            for log in result.true_logs.values()
            for e in log
            if e.etype == "parent_change"
        )
        # both views see instability (non-zero), or neither does
        assert (observed_churn > 0) == (switch_count > 0)
