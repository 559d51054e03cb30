"""Tests for incremental (batch-by-batch) reconstruction."""

import pytest

from repro.core.backends import IncrementalBackend
from repro.core.session import ReconstructionSession
from repro.events.event import Event, EventType
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template

PKT = PacketKey(1, 0)


def ev(etype, node, src=None, dst=None, pkt=PKT):
    return Event.make(etype, node, src=src, dst=dst, packet=pkt)


@pytest.fixture()
def engine():
    return ReconstructionSession(
        forwarder_template(with_gen=False),
        backend=IncrementalBackend(),
        delivery_node=99,
    )


class TestIngestAndRefresh:
    def test_dirty_tracking(self, engine):
        dirtied = engine.ingest({1: [ev("trans", 1, 1, 2)]})
        assert dirtied == {PKT}
        assert engine.pending == 1
        engine.refresh()
        assert engine.pending == 0

    def test_flow_evolves_with_evidence(self, engine):
        engine.ingest({1: [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)]})
        first = engine.flow(PKT)
        assert first.labels() == ["1-2 trans", "[1-2 recv]", "1-2 ack recvd"]
        report = engine.reports()[PKT]
        assert report.cause.value == "acked"
        # the receiver's log arrives in the next collection round
        engine.ingest({2: [ev("recv", 2, 1, 2), ev("trans", 2, 2, 99)]})
        second = engine.flow(PKT)
        assert "[1-2 recv]" not in second.labels()
        assert "2-99 trans" in second.labels()

    def test_delivery_flips_diagnosis(self, engine):
        engine.ingest({1: [ev("trans", 1, 1, 99)]})
        assert engine.reports()[PKT].lost
        engine.ingest({99: [ev("recv", 99, 1, 99)]})
        assert not engine.reports()[PKT].lost

    def test_only_dirty_packets_recomputed(self, engine):
        other = PacketKey(5, 1)
        engine.ingest({1: [ev("trans", 1, 1, 2)]})
        engine.ingest({5: [ev("trans", 5, 5, 6, pkt=other)]})
        engine.refresh()
        flow_before = engine.flow(PKT)
        engine.ingest({5: [ev("ack_recvd", 5, 5, 6, pkt=other)]})
        refreshed = engine.refresh()
        assert refreshed == {other}
        assert engine.flow(PKT) is flow_before  # untouched object

    def test_packetless_events_ignored(self, engine):
        dirtied = engine.ingest({1: [Event.make("beacon", 1)]})
        assert dirtied == set()


class TestMatchesBatchReconstruction:
    def test_final_state_equals_one_shot(self, engine):
        batches = [
            {1: [ev("trans", 1, 1, 2)]},
            {2: [ev("recv", 2, 1, 2), ev("trans", 2, 2, 3)]},
            {1: [ev("ack_recvd", 1, 1, 2)]},
            {3: [ev("recv", 3, 2, 3)]},
        ]
        all_events: dict[int, list] = {}
        for batch in batches:
            engine.ingest(batch)
            for node, events in batch.items():
                all_events.setdefault(node, []).extend(events)
        incremental = engine.flows()[PKT]

        session = ReconstructionSession(forwarder_template(with_gen=False))
        logs = {n: NodeLog(n, evs) for n, evs in all_events.items()}
        oneshot = session.reconstruct(logs)[PKT]
        assert incremental.labels() == oneshot.labels()

    def test_node_log_batches_accepted(self, engine):
        log = NodeLog(1, [ev("trans", 1, 1, 2)])
        engine.ingest({1: log})
        assert engine.packets() == [PKT]
