"""Unit tests for node logs, the text codec and log merging."""

import pytest

from repro.events.codec import decode_event, decode_log, encode_event, encode_log
from repro.events.event import Event, EventType
from repro.events.log import NodeLog
from repro.events.merge import group_by_packet
from repro.events.packet import PacketKey


def ev(etype, node, src=None, dst=None, pkt=None, t=None, **info):
    return Event.make(etype, node, src=src, dst=dst, packet=pkt, time=t, **info)


class TestNodeLog:
    def test_append_preserves_order(self):
        log = NodeLog(1)
        e1 = ev(EventType.TRANS, 1, 1, 2)
        e2 = ev(EventType.ACK, 1, 1, 2)
        log.append(e1)
        log.append(e2)
        assert list(log) == [e1, e2]
        assert [r.index for r in log.records()] == [0, 1]

    def test_append_rejects_foreign_events(self):
        log = NodeLog(1)
        with pytest.raises(ValueError):
            log.append(ev(EventType.RECV, 2, 1, 2))

    def test_filtered_keeps_order_and_validates_mask(self):
        events = [ev(EventType.TRANS, 1, 1, 2, PacketKey(1, i)) for i in range(4)]
        log = NodeLog(1, events)
        kept = log.filtered([True, False, True, False])
        assert list(kept) == [events[0], events[2]]
        with pytest.raises(ValueError):
            log.filtered([True])

    def test_truncated(self):
        events = [ev(EventType.TRANS, 1, 1, 2, PacketKey(1, i)) for i in range(3)]
        log = NodeLog(1, events)
        assert list(log.truncated(2)) == events[:2]
        assert len(log.truncated(0)) == 0
        with pytest.raises(ValueError):
            log.truncated(-1)

    def test_packets(self):
        log = NodeLog(1, [
            ev(EventType.TRANS, 1, 1, 2, PacketKey(1, 0)),
            ev(EventType.TRANS, 1, 1, 2, PacketKey(1, 1)),
            ev(EventType.GEN, 1),
        ])
        assert log.packets() == {PacketKey(1, 0), PacketKey(1, 1)}


class TestCodec:
    def test_event_round_trip_full(self):
        e = ev(EventType.RECV, 2, 1, 2, PacketKey(1, 7), t=3.25, reason="queue")
        assert decode_event(encode_event(e)) == e

    def test_event_round_trip_minimal(self):
        e = ev(EventType.GEN, 9)
        assert decode_event(encode_event(e)) == e

    def test_log_round_trip(self):
        log = NodeLog(3, [
            ev(EventType.RECV, 3, 2, 3, PacketKey(1, 0)),
            ev(EventType.TRANS, 3, 3, 4, PacketKey(1, 0)),
        ])
        assert decode_log(3, encode_log(log)) == log

    def test_decode_rejects_malformed(self):
        with pytest.raises(ValueError):
            decode_event("node=1 oops")
        with pytest.raises(ValueError):
            decode_event("type=recv")  # missing node
        with pytest.raises(ValueError):
            decode_event("node=1 type=recv node=2")  # duplicate key

    def test_encode_rejects_reserved_info_keys(self):
        with pytest.raises(ValueError):
            encode_event(Event.make("recv", 1, pkt="p1.2"))
        with pytest.raises(ValueError):
            encode_event(Event.make("recv", 1, t=1.0))

    def test_encode_rejects_unsafe_values(self):
        with pytest.raises(ValueError):
            encode_event(Event.make("recv", 1, k="a b"))

    def test_decode_skips_blank_lines(self):
        text = "\n".join(["node=1 type=gen", "", "   ", "node=1 type=trans src=1 dst=2"])
        assert len(decode_log(1, text)) == 2


class TestMerge:
    def test_group_by_packet(self):
        p0, p1 = PacketKey(1, 0), PacketKey(1, 1)
        logs = {
            1: NodeLog(1, [
                ev(EventType.TRANS, 1, 1, 2, p0),
                ev(EventType.TRANS, 1, 1, 2, p1),
                ev(EventType.ACK, 1, 1, 2, p0),
            ]),
            2: NodeLog(2, [ev(EventType.RECV, 2, 1, 2, p0), ev("beacon", 2)]),
        }
        grouped = group_by_packet(logs)
        assert set(grouped) == {p0, p1}
        assert [e.etype for e in grouped[p0][1]] == ["trans", "ack_recvd"]
        assert [e.etype for e in grouped[p0][2]] == ["recv"]
        # packet-less events are excluded
        assert all(e.packet is not None for evs in grouped[p0].values() for e in evs)
