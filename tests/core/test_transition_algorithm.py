"""Unit tests for the transition algorithm's mechanics and edge cases."""

import pytest

from repro.core.session import ReconstructionSession, RefillOptions
from repro.core.transition_algorithm import (
    PacketReconstructor,
    ReconstructorOptions,
)
from repro.events.event import Event, EventType
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.prerequisites import PrereqRule
from repro.fsm.templates import chain_template, forwarder_template

PKT = PacketKey(1, 0)


def ev(etype, node, src=None, dst=None, pkt=PKT):
    return Event.make(etype, node, src=src, dst=dst, packet=pkt)


class TestOmission:
    def test_unprocessable_event_is_omitted_not_crashed(self):
        # a dup at IDLE has ambiguous intra targets -> unprocessable
        reconstructor = PacketReconstructor(forwarder_template(with_gen=False), PKT)
        flow = reconstructor.reconstruct({3: [ev("dup", 3, 2, 3)]})
        assert flow.entries == [] or all(e.event.etype != "dup" for e in flow.entries)
        assert len(flow.omitted) == 1
        assert flow.omitted[0].etype == "dup"

    def test_temporarily_unprocessable_event_waits_for_other_nodes(self):
        # node 3's dup becomes processable once the loop brought the packet
        # there; put the enabling events on another node processed later.
        reconstructor = PacketReconstructor(forwarder_template(with_gen=False), PKT)
        flow = reconstructor.reconstruct({
            2: [ev("recv", 2, 1, 2), ev("dup", 2, 1, 2)],
        })
        types = [e.etype for e in flow.events]
        assert "dup" in types  # processable after recv moved 2 to RECEIVED
        assert flow.omitted == []

    def test_unknown_event_type_is_omitted(self):
        reconstructor = PacketReconstructor(forwarder_template(with_gen=False), PKT)
        flow = reconstructor.reconstruct({1: [ev("martian", 1)]})
        assert [e.etype for e in flow.omitted] == ["martian"]


class TestAblationSwitches:
    def test_intra_disabled_omits_jump_events(self):
        options = ReconstructorOptions(enable_intra=False)
        reconstructor = PacketReconstructor(
            forwarder_template(with_gen=False), PKT, options
        )
        # ack at initial RECEIVED state needs the intra jump
        flow = reconstructor.reconstruct({1: [ev("ack_recvd", 1, 1, 2)]})
        assert flow.entries == []
        assert [e.etype for e in flow.omitted] == ["ack_recvd"]

    def test_inter_disabled_skips_prerequisites(self):
        options = ReconstructorOptions(enable_inter=False)
        reconstructor = PacketReconstructor(
            forwarder_template(with_gen=False), PKT, options
        )
        flow = reconstructor.reconstruct({
            1: [ev("trans", 1, 1, 2)],
            3: [ev("recv", 3, 2, 3)],
        })
        # without inter-node inference the lost [1-2 recv]/[2-3 trans] are
        # not recovered
        assert flow.inferred_events() == []
        assert sorted(e.etype for e in flow.events) == ["recv", "trans"]


class TestDemandCounting:
    def test_one_visit_satisfies_many_consumers(self):
        # Fig. 3(c) shape, reduced: two consumers require node 2 @ s5
        templates = {
            1: chain_template("n1", ["e1"], {"e1": [PrereqRule(2, "s5")]}, first_state=1),
            2: chain_template("n2", ["e3"], first_state=4),
            3: chain_template("n3", ["e5"], {"e5": [PrereqRule(2, "s5")]}, first_state=7),
        }
        reconstructor = PacketReconstructor(lambda n: templates[n])
        flow = reconstructor.reconstruct({
            1: [Event.make("e1", 1)],
            2: [Event.make("e3", 2)],
            3: [Event.make("e5", 3)],
        })
        types = [e.etype for e in flow.events]
        assert types.count("e3") == 1
        assert flow.anomalies == []

    def test_repeated_demand_requires_fresh_visit(self):
        # Two acks from the same consumer demand two arrivals at the peer.
        # The first is a lost [recv]; the second copy arrives while node 2
        # already holds the packet, so the engine infers a duplicate
        # detection [dup] — CTP's actual behavior for a re-received packet.
        reconstructor = PacketReconstructor(forwarder_template(with_gen=False), PKT)
        flow = reconstructor.reconstruct({
            1: [
                ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2),
                ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2),
            ],
        })
        arrivals = [
            e for e in flow.inferred_events()
            if e.node == 2 and e.etype in ("recv", "dup")
        ]
        assert [e.etype for e in arrivals] == ["recv", "dup"]
        assert flow.anomalies == []


class TestDeterminism:
    def test_reconstruction_is_deterministic(self):
        logs = {
            1: [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)],
            2: [ev("recv", 2, 1, 2), ev("trans", 2, 2, 3)],
            3: [ev("recv", 3, 2, 3)],
        }
        flows = [
            PacketReconstructor(forwarder_template(with_gen=False), PKT).reconstruct(logs)
            for _ in range(3)
        ]
        labels = [f.labels() for f in flows]
        assert labels[0] == labels[1] == labels[2]

    def test_final_states_exposed(self):
        reconstructor = PacketReconstructor(forwarder_template(with_gen=False), PKT)
        flow = reconstructor.reconstruct({
            1: [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)],
        })
        assert flow.final_states[1] == "ACKED"
        assert flow.final_states[2] == "RECEIVED"
        assert "SENT" in flow.visited_states[1]


class TestRecursionGuard:
    def test_deep_cascade_within_limit(self):
        # a 50-node cascade of chained prerequisites resolves fine
        n = 50
        templates = {}
        for i in range(1, n + 1):
            prereqs = {}
            if i < n:
                prereqs = {f"x{i}": [PrereqRule(i + 1, "s1")]}
            templates[i] = chain_template(f"n{i}", [f"x{i}"], prereqs)
        reconstructor = PacketReconstructor(lambda node: templates[node])
        flow = reconstructor.reconstruct({1: [Event.make("x1", 1)]})
        assert len(flow.events) == n
        # deepest prerequisite first
        assert flow.events[0].etype == f"x{n}"
        assert flow.events[-1].etype == "x1"

    def test_depth_limit_reports_anomaly(self):
        n = 30
        templates = {}
        for i in range(1, n + 1):
            prereqs = {}
            if i < n:
                prereqs = {f"x{i}": [PrereqRule(i + 1, "s1")]}
            templates[i] = chain_template(f"n{i}", [f"x{i}"], prereqs)
        options = ReconstructorOptions(max_depth=5)
        reconstructor = PacketReconstructor(lambda node: templates[node], options=options)
        flow = reconstructor.reconstruct({1: [Event.make("x1", 1)]})
        assert any("recursion limit" in a for a in flow.anomalies)


class TestRefillFacade:
    def test_reconstruct_groups_by_packet(self):
        p0, p1 = PacketKey(1, 0), PacketKey(1, 1)
        logs = {
            1: NodeLog(1, [
                ev("trans", 1, 1, 2, p0),
                ev("trans", 1, 1, 2, p1),
            ]),
            2: NodeLog(2, [ev("recv", 2, 1, 2, p0)]),
        }
        session = ReconstructionSession(forwarder_template(with_gen=False))
        flows = session.reconstruct(logs)
        assert set(flows) == {p0, p1}
        assert len(flows[p0].events) == 2
        assert len(flows[p1].events) == 1

    def test_strip_times_option(self):
        logs = {
            1: NodeLog(1, [ev("trans", 1, 1, 2).with_time(5.0)]),
        }
        session = ReconstructionSession(
            forwarder_template(with_gen=False), RefillOptions(strip_times=True)
        )
        flow = session.reconstruct(logs)[PKT]
        assert flow.events[0].time is None

    def test_diagnose_maps_all_packets(self):
        logs = {
            1: NodeLog(1, [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)]),
        }
        session = ReconstructionSession(forwarder_template(with_gen=False))
        reports = session.diagnose(session.reconstruct(logs))
        assert set(reports) == {PKT}
        assert reports[PKT].cause.value == "acked"
