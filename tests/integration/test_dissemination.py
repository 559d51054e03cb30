"""Integration tests: dissemination workload + REFILL reconstruction.

Exercises the 1-to-many (Peer.TARGETS) and many-to-1 prerequisite machinery
on a simulated protocol rather than the hand-built Fig. 3 graphs.
"""

import pytest

from repro.core.transition_algorithm import PacketReconstructor
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.merge import group_by_packet
from repro.events.packet import PacketKey
from repro.fsm.prerequisites import Peer, PrereqRule
from repro.fsm.templates import (
    ACKED_BACK,
    ADVERTISED,
    COMPLETE,
    UPDATED,
    dissemination_templates,
)
from repro.lognet.collector import collect_logs
from repro.lognet.loss import LogLossSpec
from tests.simnet.dissemination import DisseminationParams, run_dissemination


def reconstruct(template_for, logs):
    grouped = group_by_packet(logs)
    flows = {}
    for packet, by_node in grouped.items():
        flows[packet] = PacketReconstructor(template_for, packet).reconstruct(by_node)
    return flows


class TestPeerTargets:
    def test_targets_resolution(self):
        rule = PrereqRule(Peer.TARGETS, ACKED_BACK)
        event = Event.make("complete", 5, targets="1,3,9")
        assert rule.resolve_nodes(event) == (1, 3, 9)
        assert rule.resolve_node(event) is None  # multi-node

    def test_targets_missing_info(self):
        rule = PrereqRule(Peer.TARGETS, ACKED_BACK)
        assert rule.resolve_nodes(Event.make("complete", 5)) == ()

    def test_targets_tuple_form(self):
        rule = PrereqRule(Peer.TARGETS, ACKED_BACK)
        event = Event.make("complete", 5, targets=(2, 4))
        assert rule.resolve_nodes(event) == (2, 4)


class TestDisseminationReconstruction:
    def make_logs(self, seeder=10, targets=(1, 2)):
        update = PacketKey(seeder, 1)
        info = ",".join(str(t) for t in targets)
        logs = {
            seeder: NodeLog(seeder, [
                Event.make("adv", seeder, packet=update, targets=info),
                Event.make("complete", seeder, packet=update, targets=info),
            ]),
        }
        for t in targets:
            logs[t] = NodeLog(t, [
                Event.make("update_recv", t, src=seeder, dst=t, packet=update),
                Event.make("update_ack", t, src=t, dst=seeder, packet=update),
            ])
        return update, logs

    def test_complete_logs(self):
        update, logs = self.make_logs()
        flows = reconstruct(dissemination_templates(10), logs)
        flow = flows[update]
        assert flow.inferred_events() == []
        assert flow.omitted == []
        assert flow.final_states[10] == COMPLETE
        assert flow.final_states[1] == ACKED_BACK

    def test_complete_waits_for_all_targets(self):
        update, logs = self.make_logs()
        flows = reconstruct(dissemination_templates(10), logs)
        flow = flows[update]
        i_complete = flow.find("complete")[0]
        for t in (1, 2):
            i_ack = flow.find("update_ack", node=t)[0]
            assert flow.happens_before(i_ack, i_complete)

    def test_lost_receiver_log_fully_inferred(self):
        update, logs = self.make_logs()
        del logs[2]  # receiver 2's log never arrives
        flows = reconstruct(dissemination_templates(10), logs)
        flow = flows[update]
        inferred = {(e.etype, e.node) for e in flow.inferred_events()}
        assert ("update_recv", 2) in inferred
        assert ("update_ack", 2) in inferred
        assert flow.final_states[10] == COMPLETE

    def test_lost_adv_inferred_from_first_receive(self):
        update, logs = self.make_logs()
        logs[10] = NodeLog(10, [e for e in logs[10] if e.etype != "adv"])
        flows = reconstruct(dissemination_templates(10), logs)
        flow = flows[update]
        advs = [e for e in flow.inferred_events() if e.etype == "adv"]
        assert len(advs) == 1
        assert flow.final_states[10] == COMPLETE


class TestSimulatedCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_dissemination(DisseminationParams(n_nodes=16, seed=5, updates=3))

    def test_ground_truth_consistency(self, result):
        for update, ok in result.completed.items():
            if ok:
                assert result.applied[update] == frozenset(result.targets)

    def test_reconstruction_from_true_logs(self, result):
        flows = reconstruct(dissemination_templates(result.seeder), result.true_logs)
        for update, ok in result.completed.items():
            flow = flows[update]
            # everyone who truly applied shows as UPDATED-or-later
            for node in result.applied[update]:
                assert flow.visited(node, UPDATED)
            if ok:
                assert flow.final_states[result.seeder] == COMPLETE

    def test_reconstruction_from_lossy_logs(self, result):
        spec = LogLossSpec(write_fail_p=0.15, chunk_loss_p=0.1)
        lossy = collect_logs(result.true_logs, spec, seed=9)
        flows = reconstruct(dissemination_templates(result.seeder), lossy)
        for update, ok in result.completed.items():
            if not ok or update not in flows:
                continue
            flow = flows[update]
            if result.seeder not in flow.final_states:
                continue
            if flow.final_states[result.seeder] == COMPLETE:
                # a reconstructed completion implies every target confirmed:
                # they must all show as ACKED_BACK (real or inferred)
                for node in result.targets:
                    assert flow.visited(node, ACKED_BACK)

    def test_no_anomalies_on_true_logs(self, result):
        flows = reconstruct(dissemination_templates(result.seeder), result.true_logs)
        for flow in flows.values():
            assert flow.omitted == []
