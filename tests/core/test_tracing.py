"""Unit tests for per-packet tracing (paper §II, §V)."""

from repro.core.session import ReconstructionSession
from repro.core.tracing import trace_packet
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template

PKT = PacketKey(1, 0)


def ev(etype, node, src=None, dst=None):
    return Event.make(etype, node, src=src, dst=dst, packet=PKT)


def reconstruct(logs):
    session = ReconstructionSession(forwarder_template(with_gen=False))
    return session.reconstruct({n: NodeLog(n, evs) for n, evs in logs.items()})[PKT]


class TestTracePacket:
    def test_linear_path(self):
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)],
            2: [ev("recv", 2, 1, 2), ev("trans", 2, 2, 3), ev("ack_recvd", 2, 2, 3)],
            3: [ev("recv", 3, 2, 3)],
        })
        trace = trace_packet(flow)
        assert trace.path == [1, 2, 3]
        assert not trace.has_loop
        assert trace.retransmissions == 0
        assert trace.final_position == 3
        assert trace.path_string() == "1 -> 2 -> 3"

    def test_path_includes_inferred_hops(self):
        # Table II case 1: node 2's log is lost entirely
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2)],
            3: [ev("recv", 3, 2, 3)],
        })
        trace = trace_packet(flow)
        assert trace.path == [1, 2, 3]
        assert any(h.inferred for h in trace.hops)

    def test_loop_detection(self):
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("recv", 1, 2, 1), ev("trans", 1, 1, 2)],
            2: [ev("recv", 2, 1, 2), ev("trans", 2, 2, 1), ev("dup", 2, 1, 2)],
        })
        trace = trace_packet(flow)
        assert trace.has_loop
        assert trace.duplicates == 1
        assert trace.path.count(1) == 2

    def test_retransmissions_counted(self):
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2), ev("trans", 1, 1, 2), ev("timeout", 1, 1, 2)],
        })
        trace = trace_packet(flow)
        assert trace.retransmissions == 1
        assert trace.final_position == 1

    def test_empty_flow(self):
        session = ReconstructionSession(forwarder_template(with_gen=False))
        flow = session.reconstruct_group(PKT, {})
        trace = trace_packet(flow)
        assert trace.path == []
        assert trace.final_position is None
        assert trace.path_string() == "(empty)"

    def test_gen_starts_path(self):
        session = ReconstructionSession(forwarder_template(with_gen=True))
        pkt = PacketKey(7, 0)
        flow = session.reconstruct_group(pkt, {
            7: [
                Event.make("gen", 7, packet=pkt),
                Event.make("trans", 7, src=7, dst=8, packet=pkt),
            ],
            8: [Event.make("recv", 8, src=7, dst=8, packet=pkt)],
        })
        trace = trace_packet(flow)
        assert trace.path == [7, 8]
