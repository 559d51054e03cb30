"""Property-based tests for the event model, codec and merging.

The strategies live in :mod:`tests.strategies`, shared with the stress
harness's tests — same event vocabulary, same garbling model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.codec import (
    DecodeIssue,
    decode_event,
    decode_log,
    decode_text,
    encode_event,
    encode_log,
    scan_log_text,
)
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.merge import group_by_packet
from repro.events.packet import PacketKey
from tests.events.oracle import scan_log_text_legacy
from tests.strategies import (
    SAFE_TEXT,
    events,
    garbled_lines,
    log_line_bytes,
    packet_keys,
    shuffled_lines,
)


class TestCodecProperties:
    @given(events)
    def test_event_round_trip(self, event):
        decoded = decode_event(encode_event(event))
        assert decoded == event

    @given(st.integers(min_value=0, max_value=99), st.lists(events, max_size=20))
    def test_log_round_trip(self, node, evs):
        log = NodeLog(node, [Event.make(e.etype, node, src=e.src, dst=e.dst,
                                        packet=e.packet, time=e.time) for e in evs])
        assert decode_log(node, encode_log(log)) == log


class TestScannerProperties:
    @given(st.lists(garbled_lines() | events.map(encode_event), max_size=12))
    @settings(max_examples=100)
    def test_scan_never_raises_on_mutated_lines(self, lines):
        """The tolerant scanner classifies every non-blank line — it never
        raises, and every yield is an Event or a DecodeIssue with the
        offending text attached."""
        text = "\n".join(lines)
        seen = 0
        for lineno, decoded in scan_log_text(text):
            seen += 1
            assert 1 <= lineno <= len(lines)
            assert isinstance(decoded, (Event, DecodeIssue))
            if isinstance(decoded, DecodeIssue):
                assert decoded.error
        assert seen == sum(1 for line in lines if line.strip())

    @given(st.lists(garbled_lines(), max_size=8))
    @settings(max_examples=60)
    def test_garbled_store_loads_tolerantly(self, lines):
        """A store whose shard is arbitrarily garbled still loads; damage
        only ever shows up as ``corrupt_lines`` accounting."""
        import tempfile

        from repro.events.store import StoreMetadata, load_store, save_store, shard_path

        with tempfile.TemporaryDirectory() as tmp:
            save_store(tmp, {1: NodeLog(1, [])}, StoreMetadata(1, 2, 60.0))
            shard_path(tmp, 1).write_text("\n".join(lines) + "\n")
            store = load_store(tmp)
            decoded = len(store.logs.get(1, NodeLog(1)))
            corrupt = store.corrupt_lines.get(1, 0)
            assert decoded + corrupt == sum(1 for line in lines if line.strip())


#: Raw wire buffers: damaged or field-shuffled lines joined by \n,
#: sometimes with a tail that has no trailing newline.
_wire_buffers = st.lists(
    log_line_bytes() | shuffled_lines().map(str.encode), max_size=8
).map(b"\n".join)


class TestBytesScannerProperties:
    """Raw bytes through ``decode_text`` and the tolerant scanner are
    observationally identical to the legacy str scanner on *arbitrary* byte
    input — valid, field-shuffled, garbled, truncated mid-UTF-8, or framed
    with exotic separators."""

    @given(_wire_buffers)
    @settings(max_examples=200)
    def test_bytes_scanner_matches_legacy_scanner(self, data):
        """``scan_log_text(decode_text(data))`` yields exactly what the
        legacy scanner yields on the replacement-decoded text (repr-compared:
        events can carry nan).  Undecodable bytes never raise: they decode to
        U+FFFD, and decoding line by line (the daemon's framing) gives the
        same text as decoding the whole buffer (the store loader's)."""
        text = decode_text(data)
        assert text == data.decode("utf-8", errors="replace")
        assert "\n".join(decode_text(part) for part in data.split(b"\n")) == text
        reference = [
            (lineno, repr(decoded)) for lineno, decoded in scan_log_text_legacy(text)
        ]
        assert [
            (lineno, repr(decoded)) for lineno, decoded in scan_log_text(text)
        ] == reference

    @given(_wire_buffers)
    @settings(max_examples=200)
    def test_bytes_scanner_never_raises_on_decodable_input(self, data):
        """Full consumption classifies every non-blank line as an Event or
        a DecodeIssue — no other exception ever escapes."""
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return
        for lineno, decoded in scan_log_text(decode_text(data)):
            assert lineno >= 1
            assert isinstance(decoded, (Event, DecodeIssue))
            if isinstance(decoded, DecodeIssue):
                assert decoded.error


class TestPacketKeyProperties:
    @given(packet_keys)
    def test_round_trip(self, key):
        assert PacketKey.parse(str(key)) == key


class TestMergeProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),  # node
                packet_keys,
                SAFE_TEXT,
            ),
            max_size=30,
        )
    )
    def test_group_by_packet_partitions_and_preserves_order(self, records):
        logs: dict[int, list[Event]] = {}
        for node, packet, etype in records:
            logs.setdefault(node, []).append(Event.make(etype, node, packet=packet))
        node_logs = {n: NodeLog(n, evs) for n, evs in logs.items()}
        grouped = group_by_packet(node_logs)
        total = sum(len(evs) for groups in grouped.values() for evs in groups.values())
        assert total == sum(len(v) for v in logs.values())
        for packet, by_node in grouped.items():
            for node, evs in by_node.items():
                original = [e for e in logs[node] if e.packet == packet]
                assert evs == original
