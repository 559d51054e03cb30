"""Fuzz tests: the codec must reject garbage cleanly, never crash or hang."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.events.codec import decode_event
from repro.events.store import load_store, save_store, StoreMetadata
from repro.events.log import NodeLog


class TestDecodeFuzz:
    @given(st.text(max_size=200))
    @settings(max_examples=200)
    # info keys named like Event.make parameters, off the canonical order
    @example("type=recv node=2 time=5")
    @example("pkt=p1.1 node=1 type=gen packet=x")
    @example("type=gen node=1 etype=y")
    @example("type=gen node=1 cls=z")
    def test_decode_never_crashes_unexpectedly(self, line):
        """Any input either parses or raises ValueError — nothing else."""
        if not line.strip():
            return
        try:
            event = decode_event(line)
        except ValueError:
            return
        # if it parsed, it must at least carry node and type
        assert isinstance(event.node, int)
        assert event.etype

    @given(st.binary(max_size=120))
    @settings(max_examples=100)
    def test_binary_garbage_in_store_is_tolerated(self, blob):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            save_store(tmp, {1: NodeLog(1, [])}, StoreMetadata(1, 2, 60.0))
            text = blob.decode("utf-8", errors="replace")
            from pathlib import Path

            (Path(tmp) / "node_0001.log").write_text(text + "\n")
            store = load_store(tmp)  # tolerant mode: must not raise
            assert store.corrupt_lines.get(1, 0) >= 0

    @given(
        st.lists(
            st.sampled_from([
                "node=1 type=recv src=2 dst=1 pkt=p2.9",
                "node=1 type=gen",
                "node=1 type=gen extra",       # malformed token
                "node=2 type=gen",              # wrong node for the file
                "= = =",                        # nonsense
                "",
            ]),
            max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_mixed_good_and_bad_lines(self, lines):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            save_store(tmp, {1: NodeLog(1, [])}, StoreMetadata(1, 2, 60.0))
            (Path(tmp) / "node_0001.log").write_text("\n".join(lines) + "\n")
            store = load_store(tmp)
            good = sum(
                1 for l in lines
                if l in ("node=1 type=recv src=2 dst=1 pkt=p2.9", "node=1 type=gen")
            )
            assert len(store.logs[1]) == good
