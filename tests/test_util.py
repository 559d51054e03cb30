"""Unit tests for the shared utility helpers."""

import pytest

from repro.util.rng import RngStreams
from repro.util.tables import render_table


class TestRngStreams:
    def test_streams_deterministic(self):
        a = RngStreams(7).stream("mac")
        b = RngStreams(7).stream("mac")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_independent(self):
        rng = RngStreams(7)
        mac = rng.stream("mac")
        _ = [mac.random() for _ in range(100)]  # burn draws
        links_after = rng.stream("links").random()
        links_fresh = RngStreams(7).stream("links").random()
        assert links_after == links_fresh

    def test_different_names_different_sequences(self):
        rng = RngStreams(7)
        assert rng.stream("a").random() != rng.stream("b").random()

    def test_stream_cached(self):
        rng = RngStreams(7)
        assert rng.stream("x") is rng.stream("x")

    def test_spawn_independent(self):
        parent = RngStreams(7)
        child1 = parent.spawn("scenario")
        child2 = RngStreams(7).spawn("scenario")
        assert child1.stream("gen").random() == child2.stream("gen").random()
        assert child1.stream("gen") is not parent.stream("gen")


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["col", "n"], [("x", 1), ("longer", 22)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[1]
        # all rows same width
        assert len({len(l) for l in lines[2:]}) <= 2

    def test_float_formatting(self):
        text = render_table(["v"], [(1.23456,), (12345.6,)])
        assert "1.235" in text
        assert "12345.6" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [(1,)])

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text
