"""Integration tests: query-flood + response-collection campaigns.

Composes the Fig. 3a cascade (query dissemination down the tree) with the
standard data-collection reconstruction (responses back up), asking the
operational question end to end: who heard the query, who answered, and
where did missing answers die?
"""

import pytest

from repro.core.diagnosis import classify_flow
from repro.core.session import ReconstructionSession
from repro.core.transition_algorithm import PacketReconstructor
from repro.events.merge import group_by_packet
from repro.fsm.templates import FORWARDED, HEARD, query_templates
from repro.lognet.collector import collect_logs
from repro.lognet.loss import LogLossSpec
from repro.simnet.query import QueryParams, run_query
from repro.simnet.scenarios import small_network


@pytest.fixture(scope="module")
def campaign():
    return run_query(QueryParams(scenario=small_network(n_nodes=20, seed=11, minutes=5)))


def query_flow(result, logs):
    grouped = group_by_packet(logs)
    events = grouped.get(result.query, {})
    reconstructor = PacketReconstructor(query_templates(result.sink), result.query)
    return reconstructor.reconstruct(events)


class TestGroundTruth:
    def test_flood_reaches_most_of_the_tree(self, campaign):
        assert len(campaign.heard) > 0.6 * len(campaign.network.topology.nodes)

    def test_answers_only_from_hearers(self, campaign):
        assert campaign.answered <= campaign.heard

    def test_responses_have_fates(self, campaign):
        truth = campaign.network.truth
        for packet in campaign.responses.values():
            assert packet in truth.fates

    def test_some_answers_delivered(self, campaign):
        assert len(campaign.delivered_answers()) > 0


class TestQueryReconstruction:
    def test_true_logs_recover_hearers_exactly(self, campaign):
        flow = query_flow(campaign, campaign.true_logs)
        reconstructed = {
            node for node in campaign.network.topology.nodes
            if flow.visited(node, HEARD) or flow.visited(node, FORWARDED)
        }
        assert reconstructed == set(campaign.heard)

    def test_lossy_logs_cascade_inference(self, campaign):
        # drop some logs entirely: deep surviving query_recv records must
        # re-derive the forwarding chain above them
        spec = LogLossSpec(node_loss_p=0.3, write_fail_p=0.1)
        lossy = collect_logs(campaign.true_logs, spec, seed=13)
        flow = query_flow(campaign, lossy)
        reconstructed = {
            node for node in campaign.network.topology.nodes
            if flow.visited(node, HEARD) or flow.visited(node, FORWARDED)
        }
        # never hallucinate hearers; the inferred chain stays within truth
        assert reconstructed <= set(campaign.heard)
        # cascade recovery: more hearers known than nodes whose own record
        # survived
        surviving_self_records = {
            node for node, log in lossy.items()
            if any(e.etype == "query_recv" and e.packet == campaign.query for e in log)
        }
        assert len(reconstructed) >= len(surviving_self_records)

    def test_all_fwds_inferred_when_only_recvs_survive(self, campaign):
        # drop every query_fwd record: each forwarder's action is re-derived
        # from its children's surviving query_recv prerequisites
        from repro.events.log import NodeLog

        logs = {
            node: NodeLog(node, [
                e for e in log
                if not (e.packet == campaign.query and e.etype == "query_fwd")
            ])
            for node, log in campaign.true_logs.items()
        }
        flow = query_flow(campaign, logs)
        inferred_fwd_nodes = {
            e.node for e in flow.inferred_events() if e.etype == "query_fwd"
        }
        # every node with a heard child forwarded; all of them come back
        parent = campaign.network.routing.parent
        true_forwarders = {
            parent[n] for n in campaign.heard if parent.get(n) is not None
        } & campaign.heard
        assert inferred_fwd_nodes == true_forwarders

    def test_single_deep_record_recovers_one_level_up(self, campaign):
        # with only one deep query_recv record, the direct parent's forward
        # is inferred; beyond that the upstream is honestly unknowable
        from repro.events.log import NodeLog

        parent = campaign.network.routing.parent
        deep = next(
            (n for n in sorted(campaign.heard) if parent.get(n) not in (None, campaign.sink)),
            None,
        )
        if deep is None:
            pytest.skip("tree too shallow in this seed")
        only = {
            deep: NodeLog(deep, [
                e for e in campaign.true_logs[deep]
                if e.packet == campaign.query and e.etype == "query_recv"
            ])
        }
        flow = query_flow(campaign, only)
        assert flow.visited(parent[deep], "FORWARDED")
        fwds = [e for e in flow.inferred_events() if e.etype == "query_fwd"]
        assert [e.node for e in fwds] == [parent[deep]]


class TestResponsesEndToEnd:
    def test_missing_answers_localized(self, campaign):
        session = ReconstructionSession()
        flows = session.reconstruct(campaign.true_logs)
        bs = campaign.base_station
        lost_answer_nodes = campaign.answered - campaign.delivered_answers()
        for node in lost_answer_nodes:
            packet = campaign.responses[node]
            assert packet in flows
            report = classify_flow(flows[packet], delivery_node=bs)
            assert report.lost
            assert report.position is not None

    def test_delivered_answers_diagnosed_delivered(self, campaign):
        session = ReconstructionSession()
        flows = session.reconstruct(campaign.true_logs)
        bs = campaign.base_station
        for node in campaign.delivered_answers():
            report = classify_flow(flows[campaign.responses[node]], delivery_node=bs)
            assert not report.lost
