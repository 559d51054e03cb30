"""Unit tests for ground-truth paths and the dissemination simulator."""

import pytest

from repro.simnet.scenarios import run_scenario, small_network
from tests.simnet.dissemination import DisseminationParams, run_dissemination


@pytest.fixture(scope="module")
def sim_result():
    return run_scenario(small_network(n_nodes=20, minutes=20))


class TestTruePath:
    def test_paths_start_at_origin(self, sim_result):
        bs = sim_result.base_station_node
        for packet in list(sim_result.truth.fates)[:50]:
            path = sim_result.truth.true_path(packet, exclude=frozenset({bs}))
            assert path[0] == packet.origin

    def test_delivered_paths_end_at_sink(self, sim_result):
        bs = sim_result.base_station_node
        for packet in sim_result.truth.delivered_packets()[:50]:
            path = sim_result.truth.true_path(packet, exclude=frozenset({bs}))
            assert path[-1] == sim_result.sink


class TestDisseminationSimulator:
    def test_deterministic(self):
        params = DisseminationParams(n_nodes=12, seed=4)
        a = run_dissemination(params)
        b = run_dissemination(params)
        assert a.applied == b.applied
        assert a.completed == b.completed

    def test_completion_implies_full_coverage(self):
        result = run_dissemination(DisseminationParams(n_nodes=16, seed=2, updates=4))
        for update, done in result.completed.items():
            if done:
                assert result.applied[update] == frozenset(result.targets)

    def test_adv_carries_targets_info(self):
        result = run_dissemination(DisseminationParams(n_nodes=12, seed=1))
        advs = [e for e in result.true_logs[result.seeder] if e.etype == "adv"]
        assert advs
        targets = advs[0].info_dict["targets"]
        assert {int(t) for t in targets.split(",")} == set(result.targets)

    def test_receivers_log_their_own_events_only(self):
        result = run_dissemination(DisseminationParams(n_nodes=12, seed=1))
        for node, log in result.true_logs.items():
            for event in log:
                assert event.node == node
