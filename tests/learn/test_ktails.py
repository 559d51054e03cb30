"""Unit tests for the determinizing k-tails miner and its replay helper."""

import pytest

from repro.learn.ktails import accepts, mine_fsm, replay_states


class TestDeterminism:
    def test_states_are_canonically_named(self):
        graph = mine_fsm([["a", "b"], ["a", "c"]], k=2)
        assert graph.initial == "q0"
        assert all(s.startswith("q") for s in graph.states)
        # BFS order: q0 first, then its successors in label order
        assert graph.states[0] == "q0"

    def test_shuffled_corpus_gives_identical_graph(self):
        traces = [
            ["recv", "trans", "ack_recvd"],
            ["recv", "trans", "trans", "ack_recvd"],
            ["recv", "trans", "timeout"],
            ["gen", "trans", "ack_recvd"],
        ]
        a = mine_fsm(traces, k=2)
        b = mine_fsm(list(reversed(traces)) + [traces[0]], k=2)
        assert a.states == b.states
        assert a.transitions == b.transitions
        assert a.initial == b.initial

    def test_graph_is_deterministic(self):
        # Merging can fan out same-label edges; the determinization pass
        # must fold them (the template validator treats a fan as an error).
        traces = [
            ["a", "b", "c"],
            ["a", "b", "d"],
            ["x", "a", "b", "c"],
            ["x", "a", "b", "d", "a", "b"],
        ]
        for k in (1, 2, 3):
            graph = mine_fsm(traces, k=k)
            for state in graph.states:
                for label in graph.events:
                    assert len(graph.transitions_from(state, label)) <= 1
            for trace in traces:
                assert accepts(graph, trace)

    def test_every_state_reachable(self):
        graph = mine_fsm([["a", "b"], ["b", "a", "a"]], k=1)
        seen = {graph.initial}
        frontier = [graph.initial]
        while frontier:
            state = frontier.pop()
            for t in graph.outgoing(state):
                if t.dst not in seen:
                    seen.add(t.dst)
                    frontier.append(t.dst)
        assert seen == set(graph.states)

    def test_custom_initial_name(self):
        graph = mine_fsm([["a"]], k=1, initial_name="START")
        assert graph.initial == "START"

    def test_k_zero_collapses_everything(self):
        graph = mine_fsm([["a", "b", "a"]], k=0)
        assert len(graph.states) == 1
        assert accepts(graph, ["b", "b", "a"])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            mine_fsm([["a"]], k=-1)


class TestReplayStates:
    def test_replays_state_sequence(self):
        graph = mine_fsm([["a", "b", "c"]], k=3)
        states = replay_states(graph, ["a", "b"])
        assert states is not None
        assert len(states) == 3
        assert states[0] == graph.initial

    def test_unexplainable_trace_returns_none(self):
        graph = mine_fsm([["a", "b"]], k=2)
        assert replay_states(graph, ["b"]) is None
        assert replay_states(graph, ["a", "a"]) is None

    def test_replay_from_custom_start(self):
        graph = mine_fsm([["a", "b", "c"]], k=3)
        mid = replay_states(graph, ["a"])[-1]
        states = replay_states(graph, ["b", "c"], start=mid)
        assert states is not None and states[0] == mid

    def test_empty_trace_is_trivially_replayable(self):
        graph = mine_fsm([["a"]], k=1)
        assert replay_states(graph, []) == [graph.initial]

