"""Tests for link-quality measurement from reconstructed flows."""

import pytest

from repro.analysis.linkquality import LinkObservation, observe_links, worst_links
from repro.core.session import ReconstructionSession
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template


class TestLinkObservation:
    def test_delivery_ratio(self):
        obs = LinkObservation(1, 2, acked=8, timeouts=2)
        assert obs.delivery_ratio() == pytest.approx(0.8)
        assert LinkObservation(1, 2).delivery_ratio() is None

    def test_prr_estimate_inverts_retry_model(self):
        # timeout fraction 1/16 over 4 retries -> (1-p)^4 = 1/16 -> p = 0.5
        obs = LinkObservation(1, 2, acked=15, timeouts=1)
        assert obs.prr_estimate(max_retries=4) == pytest.approx(0.5, abs=0.01)

    def test_prr_estimate_censored_when_no_timeouts(self):
        few = LinkObservation(1, 2, acked=5)
        many = LinkObservation(1, 2, acked=5000)
        assert few.prr_estimate() < many.prr_estimate() < 1.0

    def test_all_timeouts_gives_zero(self):
        obs = LinkObservation(1, 2, timeouts=4)
        assert obs.prr_estimate() == 0.0
        assert obs.etx_estimate() is None

    def test_etx(self):
        obs = LinkObservation(1, 2, acked=15, timeouts=1)
        assert obs.etx_estimate(max_retries=4) == pytest.approx(2.0, abs=0.05)


class TestObserveLinks:
    def make_flows(self):
        pkt1, pkt2 = PacketKey(1, 1), PacketKey(1, 2)
        logs = {
            1: NodeLog(1, [
                Event.make("trans", 1, src=1, dst=2, packet=pkt1),
                Event.make("ack_recvd", 1, src=1, dst=2, packet=pkt1),
                Event.make("trans", 1, src=1, dst=2, packet=pkt2),
                Event.make("timeout", 1, src=1, dst=2, packet=pkt2),
            ]),
            2: NodeLog(2, [Event.make("recv", 2, src=1, dst=2, packet=pkt1)]),
        }
        return ReconstructionSession(forwarder_template(with_gen=False)).reconstruct(logs)

    def test_counts(self):
        observations = observe_links(self.make_flows())
        link = observations[(1, 2)]
        assert link.acked == 1
        assert link.timeouts == 1
        assert link.arrivals >= 1
        assert link.delivery_ratio() == pytest.approx(0.5)

    def test_inferred_acks_excluded(self):
        # only node 3's recv survives: the ack on (2,3) is inferred and must
        # not count as radio evidence
        pkt = PacketKey(1, 1)
        logs = {3: NodeLog(3, [Event.make("recv", 3, src=2, dst=3, packet=pkt)])}
        flows = ReconstructionSession(forwarder_template(with_gen=False)).reconstruct(logs)
        observations = observe_links(flows)
        assert observations[(2, 3)].acked == 0
        assert observations[(2, 3)].arrivals == 1

    def test_worst_links_ranking(self):
        observations = {
            (1, 2): LinkObservation(1, 2, acked=90, timeouts=10),
            (3, 4): LinkObservation(3, 4, acked=50, timeouts=50),
            (5, 6): LinkObservation(5, 6, acked=3),  # under min_sends
        }
        worst = worst_links(observations, min_sends=10, top=5)
        assert [(
            o.src, o.dst) for o in worst] == [(3, 4), (1, 2)]


class TestLinkQualityAgainstGroundTruth:
    def test_estimates_track_true_link_model(self):
        """End to end: flow-derived delivery ratios reflect true PRRs."""
        from repro.analysis.pipeline import evaluate
        from repro.simnet.scenarios import citysee

        result = evaluate(citysee(n_nodes=60, days=2, seed=43))
        observations = observe_links(result.flows)
        # rebuild the true link model via the sim's own deterministic parts
        from repro.simnet.network import Network

        net = Network(result.sim.params)
        checked = 0
        for (src, dst), obs in observations.items():
            if obs.sends < 30 or dst == result.base_station:
                continue
            if dst not in net.topology.positions or src not in net.topology.positions:
                continue
            true_prr = net.link.base_prr(src, dst)
            ratio = obs.delivery_ratio()
            # with 30 retries, decent links deliver ~always; the claim is
            # directional: good true links never *measure* terrible
            if true_prr > 0.5:
                assert ratio > 0.8, (src, dst, true_prr, ratio)
                checked += 1
        assert checked > 5

