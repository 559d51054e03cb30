"""Tests for JSON serialization of flows and reports."""

import json

import pytest

from repro.core.diagnosis import LossCause, LossReport, classify_flow
from repro.core.session import ReconstructionSession
from repro.core.serialize import (
    event_from_dict,
    event_to_dict,
    flow_from_dict,
    flow_to_dict,
    report_from_dict,
    report_to_dict,
)
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template

PKT = PacketKey(1, 0)


def ev(etype, node, src=None, dst=None):
    return Event.make(etype, node, src=src, dst=dst, packet=PKT)


def sample_flow():
    logs = {
        1: NodeLog(1, [ev("trans", 1, 1, 2), ev("ack_recvd", 1, 1, 2)]),
        3: NodeLog(3, [ev("dup", 3, 9, 3)]),  # will be omitted
    }
    return ReconstructionSession(forwarder_template(with_gen=False)).reconstruct(logs)[PKT]


class TestEventRoundTrip:
    def test_full_event(self):
        event = Event.make("recv", 2, src=1, dst=2, packet=PKT, time=4.5, k="v")
        assert event_from_dict(event_to_dict(event)) == event

    def test_minimal_event(self):
        event = Event.make("gen", 7)
        data = event_to_dict(event)
        assert "src" not in data and "time" not in data
        assert event_from_dict(data) == event

    def test_json_encodable(self):
        event = Event.make("recv", 2, src=1, dst=2, packet=PKT, time=4.5)
        json.dumps(event_to_dict(event))  # must not raise

    def test_info_keys_named_like_event_fields(self):
        """Info keys are data: one named ``time`` or ``cls`` must not
        collide with a keyword of the reader."""
        info = (("cls", "z"), ("etype", "y"), ("packet", "x"), ("time", "5"))
        event = Event("recv", 2, 1, 2, PKT, 4.5, info)
        data = json.loads(json.dumps(event_to_dict(event)))
        assert event_from_dict(data) == event


class TestFlowRoundTrip:
    def test_everything_survives(self):
        flow = sample_flow()
        data = flow_to_dict(flow)
        json.dumps(data)  # JSON-compatible
        back = flow_from_dict(data)
        assert back.packet == flow.packet
        assert back.labels() == flow.labels()
        assert back.hb_edges == flow.hb_edges
        assert back.omitted == flow.omitted
        assert back.anomalies == flow.anomalies
        assert back.final_states == flow.final_states
        assert back.visited_states == flow.visited_states
        assert [e.provenance for e in back.entries] == [
            e.provenance for e in flow.entries
        ]

    def test_diagnosis_identical_after_round_trip(self):
        flow = sample_flow()
        back = flow_from_dict(flow_to_dict(flow))
        assert classify_flow(back) == classify_flow(flow)

    def test_packetless_flow(self):
        from repro.core.event_flow import EventFlow

        flow = EventFlow()
        flow.append(Event.make("e1", 1), inferred=False)
        back = flow_from_dict(flow_to_dict(flow))
        assert back.packet is None
        assert back.labels() == flow.labels()


class TestReportRoundTrip:
    def test_round_trip(self):
        report = LossReport(LossCause.ACKED_LOSS, 7, ev("ack_recvd", 1, 1, 7))
        assert report_from_dict(report_to_dict(report)) == report

    def test_none_fields(self):
        report = LossReport(LossCause.UNKNOWN, None, None)
        data = report_to_dict(report)
        json.dumps(data)
        assert report_from_dict(data) == report
