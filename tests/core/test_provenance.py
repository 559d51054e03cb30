"""Tests for inference provenance and flow explanation."""

import pytest

from repro.core.session import ReconstructionSession
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


class TestProvenance:
    def test_real_events_marked_logged(self):
        flow = reconstruct({1: [ev("trans", 1, 1, 2)]})
        assert flow.entries[0].provenance == "logged"

    def test_prereq_drive_provenance_names_the_consumer(self):
        # Table II case 1: node 2's events recovered by node 3's recv
        flow = reconstruct({1: [ev("trans", 1, 1, 2)], 3: [ev("recv", 3, 2, 3)]})
        recv = next(e for e in flow.entries if e.inferred and e.event.etype == "recv")
        assert recv.provenance.startswith("prereq:")
        assert "recv at node 3" in recv.provenance

    def test_intra_jump_provenance_names_the_trigger(self):
        # case 3: the [1-2 trans] is skipped over by the observed ack
        flow = reconstruct({1: [ev("ack_recvd", 1, 1, 2), ev("trans", 1, 1, 2)]})
        trans = next(e for e in flow.entries if e.inferred and e.event.etype == "trans")
        assert trans.provenance.startswith("intra:")
        assert "ack recvd" in trans.provenance

    def test_explain_renders_everything(self):
        flow = reconstruct({
            1: [ev("trans", 1, 1, 2)],
            3: [ev("recv", 3, 2, 3), ev("dup", 3, 9, 3)],
        })
        text = flow.explain()
        assert "1-2 trans" in text
        assert "<- prereq:" in text
        lines = text.splitlines()
        assert len(lines) >= len(flow.entries)

    def test_explain_shows_omissions(self):
        flow = reconstruct({3: [ev("dup", 3, 2, 3)]})
        # a lone dup at IDLE is ambiguous -> omitted
        assert "omitted" in flow.explain()
