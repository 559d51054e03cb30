"""Tests for the unified reconstruction session (the spine every door uses)."""

import pytest

from repro.core.backends import IncrementalBackend, make_backend
from repro.core.session import ReconstructionSession, RefillOptions, SessionResult
from repro.core.transition_algorithm import PacketReconstructor
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.merge import group_by_packet
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template
from repro.obs import MetricsRegistry, use_registry

PKT = PacketKey(1, 0)


def ev(etype, node, src=None, dst=None, pkt=PKT, time=None):
    return Event.make(etype, node, src=src, dst=dst, packet=pkt, time=time)


@pytest.fixture()
def logs():
    return {
        1: NodeLog(1, [ev("trans", 1, 1, 2, time=0.5), ev("ack_recvd", 1, 1, 2, time=0.9)]),
        2: NodeLog(2, [ev("recv", 2, 1, 2, time=0.7), ev("trans", 2, 2, 99, time=0.8)]),
        99: NodeLog(99, [ev("recv", 99, 2, 99, time=1.1)]),
    }


class TestOneShot:
    def test_matches_per_packet_reconstructor(self, logs):
        template = forwarder_template(with_gen=False)
        flows = ReconstructionSession(template).reconstruct(logs)
        direct = {
            packet: PacketReconstructor(template, packet).reconstruct(events)
            for packet, events in group_by_packet(logs).items()
        }
        assert {p: f.labels() for p, f in flows.items()} == {
            p: f.labels() for p, f in direct.items()
        }

    def test_run_bundles_flows_and_reports(self, logs):
        session = ReconstructionSession(
            forwarder_template(with_gen=False), delivery_node=99
        )
        result = session.run(logs)
        assert isinstance(result, SessionResult)
        assert set(result.flows) == set(result.reports) == {PKT}
        assert not result.reports[PKT].lost

    def test_backend_reusable_across_runs(self, logs):
        session = ReconstructionSession(forwarder_template(with_gen=False))
        first = session.reconstruct(logs)
        second = session.reconstruct(logs)
        assert {p: f.labels() for p, f in first.items()} == {
            p: f.labels() for p, f in second.items()
        }

    def test_string_backends_resolve(self):
        assert make_backend("incremental").name == "incremental"
        assert make_backend("process", workers=2).workers == 2
        for gone in ("serial", "gpu"):
            with pytest.raises(ValueError, match="unknown backend"):
                make_backend(gone)


class TestNormalization:
    def test_strip_times_applied_before_backend(self, logs):
        session = ReconstructionSession(
            forwarder_template(with_gen=False), RefillOptions(strip_times=True)
        )
        flows = session.reconstruct(logs)
        for flow in flows.values():
            assert all(e.time is None for e in flow.events)

    def test_strip_times_in_single_group_door(self):
        session = ReconstructionSession(
            forwarder_template(with_gen=False), RefillOptions(strip_times=True)
        )
        flow = session.reconstruct_group(
            PKT, {1: [ev("trans", 1, 1, 2, time=3.0)]}
        )
        assert all(e.time is None for e in flow.events)

    def test_times_kept_by_default(self, logs):
        session = ReconstructionSession(forwarder_template(with_gen=False))
        flows = session.reconstruct(logs)
        logged = [e for f in flows.values() for e in f.real_events()]
        assert any(e.time is not None for e in logged)


class TestDiagnoseInstrumented:
    def test_span_and_counter_recorded(self, logs):
        session = ReconstructionSession(
            forwarder_template(with_gen=False), delivery_node=99
        )
        with use_registry(MetricsRegistry()) as registry:
            flows = session.reconstruct(logs)
            reports = session.diagnose(flows)
        snapshot = registry.snapshot()
        assert snapshot.counters["diagnose.packets"] == len(reports) == len(flows)
        assert snapshot.histograms["span.diagnose"].count == 1

    def test_delivery_node_override(self, logs):
        session = ReconstructionSession(
            forwarder_template(with_gen=False), delivery_node=99
        )
        flows = session.reconstruct(logs)
        assert not session.diagnose(flows)[PKT].lost
        assert session.diagnose(flows, delivery_node=None)[PKT].lost


class TestStreamingIngest:
    def test_default_session_ingests_and_refreshes(self, logs):
        """Batch and streaming share one backend: a default session takes
        partial evidence, and its refresh matches a one-shot run."""
        template = forwarder_template(with_gen=False)
        session = ReconstructionSession(template, delivery_node=99)
        assert isinstance(session.backend, IncrementalBackend)
        for node, log in logs.items():
            assert session.ingest({node: log}) == {PKT}
        assert session.refresh() == {PKT}
        one_shot = ReconstructionSession(template).reconstruct(logs)
        assert session.flows()[PKT].labels() == one_shot[PKT].labels()
        assert not session.reports()[PKT].lost

    def test_one_shot_refused_while_ingesting(self, logs):
        session = ReconstructionSession(forwarder_template(with_gen=False))
        session.ingest({1: logs[1]})
        with pytest.raises(RuntimeError, match="ingesting session"):
            session.reconstruct(logs)
        assert session.packets() == [PKT]  # the evidence is still there

    def test_ingest_refresh_cycle(self):
        session = ReconstructionSession(
            forwarder_template(with_gen=False),
            backend=IncrementalBackend(),
            delivery_node=99,
        )
        dirtied = session.ingest({1: [ev("trans", 1, 1, 99)]})
        assert dirtied == {PKT}
        assert session.pending == 1
        assert session.batches_ingested == 1
        assert session.reports()[PKT].lost  # auto-refresh
        assert session.pending == 0
        session.ingest({99: [ev("recv", 99, 1, 99)]})
        assert not session.reports()[PKT].lost
        assert session.packets() == [PKT]


class TestPreflight:
    def test_preflight_passes_on_default_template(self):
        ReconstructionSession().preflight()

    def test_preflight_raises_on_broken_template(self):
        from repro.check.runner import PreflightError
        from repro.fsm.graph import TransitionGraph
        from repro.fsm.prerequisites import Peer, PrereqRule
        from repro.fsm.templates import FsmTemplate

        broken = FsmTemplate(
            "broken",
            TransitionGraph(["a", "b"], [("a", "b", "e")], "a"),
            prereqs={"e": [PrereqRule(Peer.SRC, "GHOST")]},
        )
        with pytest.raises(PreflightError):
            ReconstructionSession(broken).preflight()
