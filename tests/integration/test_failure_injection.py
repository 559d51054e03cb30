"""Failure-injection tests: REFILL must degrade, never crash.

Collected logs in the field are not merely lossy — they can be duplicated
(retransmitted log chunks), reordered (collection races), truncated
mid-record, or reference nodes that never existed.  Every case must produce
a flow + diagnosis, possibly with anomalies recorded, never an exception.
"""

import pytest

from repro.core.diagnosis import classify_flow
from repro.core.session import ReconstructionSession
from repro.events.codec import decode_log
from repro.events.event import Event, EventType
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template

PKT = PacketKey(1, 0)


def ev(etype, node, src=None, dst=None):
    return Event.make(etype, node, src=src, dst=dst, packet=PKT)


@pytest.fixture()
def refill():
    return ReconstructionSession(forwarder_template(with_gen=False))


def run(refill, logs):
    flows = refill.reconstruct({n: NodeLog(n, evs) for n, evs in logs.items()})
    for flow in flows.values():
        classify_flow(flow, delivery_node=999)
    return flows


class TestDuplicatedRecords:
    def test_duplicated_log_chunk(self, refill):
        # a retransmitted collection chunk duplicates three records
        base = [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)]
        flows = run(refill, {1: base + base})
        flow = flows[PKT]
        # conservation still holds: every input event accounted for
        assert len(flow.real_events()) + len(flow.omitted) == 4

    def test_same_event_repeated_many_times(self, refill):
        flows = run(refill, {1: [ev("trans", 1, 1, 2)] * 10})
        assert len(flows[PKT].real_events()) + len(flows[PKT].omitted) == 10


class TestForeignAndMalformed:
    def test_event_referencing_unknown_nodes(self, refill):
        flows = run(refill, {
            3: [ev("recv", 3, 777, 3)],  # claimed sender 777 logged nothing
        })
        flow = flows[PKT]
        # the prerequisite drive creates an engine for 777 and infers
        assert 777 in flow.final_states

    def test_recv_with_self_as_sender(self, refill):
        flows = run(refill, {2: [ev("recv", 2, 2, 2)]})
        flow = flows[PKT]
        assert any("self-referential" in a for a in flow.anomalies)

    def test_pairless_pair_event(self, refill):
        # a recv whose src field was corrupted away
        flows = run(refill, {2: [Event.make("recv", 2, dst=2, packet=PKT)]})
        flow = flows[PKT]
        assert any("unresolvable" in a for a in flow.anomalies)

    def test_unknown_event_types_mixed_in(self, refill):
        flows = run(refill, {
            1: [ev("trans", 1, 1, 2), ev("corrupted_blob", 1), ev("ack_recvd", 1, 1, 2)],
        })
        flow = flows[PKT]
        assert [e.etype for e in flow.omitted] == ["corrupted_blob"]
        # the surrounding events still reconstruct
        assert "ack_recvd" in {e.etype for e in flow.real_events()}


class TestAdversarialOrderings:
    def test_fully_reversed_log(self, refill):
        events = [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2),
                  ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)]
        flows = run(refill, {1: list(reversed(events))})
        flow = flows[PKT]
        # still terminates with everything accounted for
        assert len(flow.real_events()) + len(flow.omitted) == 4

    def test_interleaved_unrelated_packets(self, refill):
        other = PacketKey(5, 9)
        logs = {
            1: [
                ev("trans", 1, 1, 2),
                Event.make("trans", 1, src=1, dst=2, packet=other),
                ev("ack_recvd", 1, 1, 2),
                Event.make("ack_recvd", 1, src=1, dst=2, packet=other),
            ],
        }
        flows = run(refill, logs)
        assert set(flows) == {PKT, other}
        for flow in flows.values():
            assert len(flow.real_events()) == 2

    def test_two_hundred_packet_stress(self, refill):
        logs = {1: [], 2: []}
        packets = [PacketKey(1, i) for i in range(200)]
        for p in packets:
            logs[1].append(Event.make("trans", 1, src=1, dst=2, packet=p))
            logs[2].append(Event.make("recv", 2, src=1, dst=2, packet=p))
        flows = run(refill, logs)
        assert len(flows) == 200


class TestCorruptedTextLogs:
    def test_decoder_rejects_garbage_line_cleanly(self):
        with pytest.raises(ValueError):
            decode_log(1, "node=1 type=recv\ngarbage without equals\n")

    def test_truncated_final_line_detected(self):
        with pytest.raises(ValueError):
            decode_log(1, "node=1 type=recv src=1 dst=2\nnode=1 typ")
