"""Edge-size and degenerate-configuration robustness."""

import pytest

from repro.analysis.pipeline import evaluate
from repro.core.session import ReconstructionSession
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.simnet.network import Network
from repro.simnet.scenarios import small_network
from repro.fsm.templates import forwarder_template


class TestTinyNetworks:
    def test_two_node_network(self):
        # one sensor + the sink: single-hop everything
        result = Network(small_network(n_nodes=2, minutes=10)).run()
        assert len(result.truth.fates) > 0
        assert result.delivery_ratio() > 0.3

    def test_two_node_full_pipeline(self):
        result = evaluate(small_network(n_nodes=2, minutes=10))
        assert len(result.reports) > 0

    def test_zero_duration(self):
        result = Network(small_network(n_nodes=5, minutes=0)).run()
        assert result.truth.fates == {}


class TestDegenerateLogs:
    def test_empty_log_collection(self):
        flows = ReconstructionSession().reconstruct({})
        assert flows == {}

    def test_logs_with_no_packet_events(self):
        logs = {1: NodeLog(1, [Event.make("parent_change", 1, old="2", new="3")])}
        assert ReconstructionSession().reconstruct(logs) == {}

    def test_single_event_per_thousand_packets(self):
        template = forwarder_template(with_gen=False)
        logs = {
            1: NodeLog(1, [
                Event.make("trans", 1, src=1, dst=2, packet=PacketKey(1, i))
                for i in range(1000)
            ])
        }
        flows = ReconstructionSession(template).reconstruct(logs)
        assert len(flows) == 1000
        assert all(len(f.entries) == 1 for f in flows.values())

    def test_very_long_single_packet_flow(self):
        # a 60-hop chain, complete logs: deep recursion territory
        template = forwarder_template(with_gen=False)
        pkt = PacketKey(1, 0)
        logs: dict[int, list] = {}
        for i in range(1, 61):
            a, b = i, i + 1
            logs.setdefault(a, []).append(Event.make("trans", a, src=a, dst=b, packet=pkt))
            logs.setdefault(b, []).append(Event.make("recv", b, src=a, dst=b, packet=pkt))
            logs.setdefault(a, []).append(Event.make("ack_recvd", a, src=a, dst=b, packet=pkt))
        flows = ReconstructionSession(template).reconstruct(
            {n: NodeLog(n, evs) for n, evs in logs.items()}
        )
        flow = flows[pkt]
        assert len(flow.entries) == 180
        assert flow.omitted == []

    def test_sparse_long_chain_inferred(self):
        # only the last hop's recv survives on a 40-hop chain: the full
        # cascade of 40 transs + 39 recvs is inferred
        template = forwarder_template(with_gen=False)
        pkt = PacketKey(1, 0)
        # context needs hop hints: provide each hop's trans so upstream is
        # resolvable, drop everything else
        logs = {
            i: NodeLog(i, [Event.make("trans", i, src=i, dst=i + 1, packet=pkt)])
            for i in range(1, 41)
        }
        logs[41] = NodeLog(41, [Event.make("recv", 41, src=40, dst=41, packet=pkt)])
        flows = ReconstructionSession(template).reconstruct(logs)
        flow = flows[pkt]
        inferred_recvs = [e for e in flow.inferred_events() if e.etype == "recv"]
        assert len(inferred_recvs) == 39
        assert flow.omitted == []
