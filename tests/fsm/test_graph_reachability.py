"""Unit tests for the transition graph and reachability (paper §IV-A)."""

import pytest

from repro.fsm.graph import Transition, TransitionGraph
from tests.fsm.oracle import Reachability


def linear_graph():
    """s0 --a--> s1 --b--> s2 --c--> s3"""
    return TransitionGraph(
        ["s0", "s1", "s2", "s3"],
        [("s0", "s1", "a"), ("s1", "s2", "b"), ("s2", "s3", "c")],
        "s0",
    )


def cyclic_graph():
    """s0 --a--> s1 --b--> s2 --r--> s0 plus s1 --x--> s3 (dead end)."""
    return TransitionGraph(
        ["s0", "s1", "s2", "s3"],
        [("s0", "s1", "a"), ("s1", "s2", "b"), ("s2", "s0", "r"), ("s1", "s3", "x")],
        "s0",
    )


class TestTransitionGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransitionGraph([], [], "s0")
        with pytest.raises(ValueError):
            TransitionGraph(["s0"], [], "nope")
        with pytest.raises(ValueError):
            TransitionGraph(["s0"], [("s0", "s1", "a")], "s0")
        with pytest.raises(ValueError):
            TransitionGraph(["s0"], [("s0", "s0", "a"), ("s0", "s0", "a")], "s0")

    def test_accessors(self):
        g = linear_graph()
        assert g.states == ("s0", "s1", "s2", "s3")
        assert len(g.transitions) == 3
        assert set(g.events) == {"a", "b", "c"}
        assert g.successors("s0") == ["s1"]
        assert [t.dst for t in g.transitions_from("s0", "a")] == ["s1"]
        assert g.transitions_from("s0", "b") == []
        assert [t.src for t in g.transitions_with_event("b")] == ["s1"]

    def test_same_event_on_multiple_edges(self):
        g = TransitionGraph(
            ["s0", "s1", "s2"],
            [("s0", "s1", "e"), ("s1", "s2", "e")],
            "s0",
        )
        assert len(g.transitions_with_event("e")) == 2

    def test_unknown_state_raises(self):
        with pytest.raises(KeyError):
            linear_graph().outgoing("sX")

    def test_to_dot(self):
        dot = linear_graph().to_dot("lin")
        assert dot.startswith("digraph lin {")
        assert '"s0" [shape=doublecircle];' in dot  # the initial state
        assert '"s0" -> "s1" [label="a"];' in dot
        assert dot.rstrip().endswith("}")


class TestReachability:
    def test_linear_reachability(self):
        r = Reachability(linear_graph())
        assert r.reachable("s0", "s3")
        assert r.reachable("s1", "s2")
        assert not r.reachable("s3", "s0")
        # irreflexive without a cycle (paper: sequences are non-empty)
        assert not r.reachable("s0", "s0")

    def test_cycle_makes_state_self_reachable(self):
        r = Reachability(cyclic_graph())
        assert r.reachable("s0", "s0")
        assert r.reachable("s2", "s1")
        assert not r.reachable("s3", "s0")  # dead end

    def test_shortest_path_basic(self):
        r = Reachability(linear_graph())
        path = r.shortest_path("s0", "s2")
        assert [t.event for t in path] == ["a", "b"]
        assert r.shortest_path("s2", "s2") == []
        assert r.shortest_path("s3", "s0") is None

    def test_shortest_path_respects_edge_filter(self):
        g = TransitionGraph(
            ["s0", "s1", "s2"],
            [("s0", "s2", "shortcut"), ("s0", "s1", "a"), ("s1", "s2", "b")],
            "s0",
        )
        r = Reachability(g)
        unrestricted = r.shortest_path("s0", "s2")
        assert [t.event for t in unrestricted] == ["shortcut"]
        filtered = r.shortest_path("s0", "s2", lambda t: t.event != "shortcut")
        assert [t.event for t in filtered] == ["a", "b"]
        nothing = r.shortest_path("s0", "s2", lambda t: t.event == "b")
        assert nothing is None

    def test_shortest_path_via_event_excludes_final_edge(self):
        g = linear_graph()
        r = Reachability(g)
        # reach s3 where the final edge is the observed 'c' event
        prefix = r.shortest_path_via_event("s0", "s3", "c")
        assert [t.event for t in prefix] == ["a", "b"]
        # already at the source of the final edge: empty prefix
        assert r.shortest_path_via_event("s2", "s3", "c") == []

    def test_shortest_path_via_event_picks_nearest_source(self):
        # two 'e' edges into target; from s1 the nearer source wins
        g = TransitionGraph(
            ["s0", "s1", "s2", "T"],
            [("s0", "s1", "a"), ("s1", "s2", "b"), ("s0", "T", "e"), ("s2", "T", "e")],
            "s0",
        )
        r = Reachability(g)
        prefix = r.shortest_path_via_event("s1", "T", "e")
        assert [t.event for t in prefix] == ["b"]

    def test_shortest_path_via_event_none_when_unreachable(self):
        r = Reachability(linear_graph())
        assert r.shortest_path_via_event("s3", "s1", "a") is None
