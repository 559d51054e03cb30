"""Property-based tests for transition graphs, reachability and intra-node
derivation on randomly generated FSMs, built-in templates and a learned spec.

The reference walks in :mod:`tests.fsm.oracle` are the oracle: the compiled
index, the derived jump tables and the XF003 shortest-path counts must
answer exactly like them."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.crossfsm import shortest_path_counts
from repro.check.specs import load_spec
from repro.fsm.graph import Transition, TransitionGraph
from repro.fsm.intra import Selection, derive_intra_transitions
from repro.fsm.reachability import CompiledReachability
from repro.fsm.templates import FsmTemplate, chain_template
from tests.fsm import oracle
from tests.fsm.oracle import Reachability


@st.composite
def random_graphs(draw):
    n_states = draw(st.integers(min_value=1, max_value=7))
    states = [f"s{i}" for i in range(n_states)]
    n_labels = draw(st.integers(min_value=1, max_value=4))
    labels = [f"e{i}" for i in range(n_labels)]
    possible = [(a, b, l) for a in states for b in states for l in labels]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=min(len(possible), 14), unique=True)
    )
    return TransitionGraph(states, edges, states[0])


class TestReachabilityProperties:
    @given(random_graphs())
    def test_transitive(self, graph):
        reach = Reachability(graph)
        for a in graph.states:
            for b in reach.reachable_set(a):
                assert reach.reachable_set(b) <= reach.reachable_set(a) | {b} | reach.reachable_set(a)
                for c in reach.reachable_set(b):
                    assert reach.reachable(a, c)

    @given(random_graphs())
    def test_matches_bfs(self, graph):
        reach = Reachability(graph)
        for start in graph.states:
            seen = set()
            queue = deque(graph.successors(start))
            seen.update(queue)
            while queue:
                cur = queue.popleft()
                for nxt in graph.successors(cur):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            assert reach.reachable_set(start) == seen

    @given(random_graphs())
    def test_shortest_path_is_valid_and_minimal(self, graph):
        reach = Reachability(graph)
        for a in graph.states:
            for b in graph.states:
                path = reach.shortest_path(a, b)
                if a == b:
                    assert path == []
                    continue
                if path is None:
                    assert not reach.reachable(a, b)
                    continue
                # valid chain
                assert path[0].src == a and path[-1].dst == b
                for t1, t2 in zip(path, path[1:]):
                    assert t1.dst == t2.src
                # minimal: BFS distance equals path length
                dist = {a: 0}
                queue = deque([a])
                while queue:
                    cur = queue.popleft()
                    for nxt in graph.successors(cur):
                        if nxt not in dist:
                            dist[nxt] = dist[cur] + 1
                            queue.append(nxt)
                assert len(path) == dist[b]


@st.composite
def graphs_with_masks(draw):
    """A random graph plus a random admissible-edge subset (as both a
    bitmask and the equivalent legacy edge filter)."""
    graph = draw(random_graphs())
    admissible = set(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=max(len(graph.transitions) - 1, 0)),
                unique=True,
            )
        )
    ) if graph.transitions else set()
    edge_index = {t: i for i, t in enumerate(graph.transitions)}
    mask = 0
    for i in admissible:
        mask |= 1 << i
    return graph, mask, (lambda t: edge_index[t] in admissible)


class TestCompiledReachabilityProperties:
    """The compiled jump tables answer every query exactly like a fresh
    legacy graph walk — same paths (declaration-order tie-breaks included),
    same distances, same unreachability."""

    @given(graphs_with_masks())
    @settings(max_examples=120)
    def test_path_and_dist_match_fresh_walks(self, case):
        graph, mask, edge_filter = case
        reach = Reachability(graph)
        compiled = CompiledReachability(graph)
        index = compiled.index
        for a in graph.states:
            for b in graph.states:
                legacy = reach.shortest_path(a, b, edge_filter)
                fast = compiled.path(index[a], index[b], mask)
                assert fast == legacy
                dist = compiled.dist(index[a], index[b], mask)
                assert dist == (None if legacy is None else len(legacy))

    @given(graphs_with_masks())
    @settings(max_examples=120)
    def test_path_via_event_matches_fresh_walks(self, case):
        graph, mask, edge_filter = case
        reach = Reachability(graph)
        compiled = CompiledReachability(graph)
        index = compiled.index
        for a in graph.states:
            for b in graph.states:
                for event in graph.events:
                    legacy = reach.shortest_path_via_event(a, b, event, edge_filter)
                    fast = compiled.path_via_event(index[a], index[b], event, mask)
                    assert fast == legacy

    @given(random_graphs())
    @settings(max_examples=60)
    def test_full_mask_equals_unfiltered_walks(self, graph):
        reach = Reachability(graph)
        compiled = CompiledReachability(graph)
        index = compiled.index
        for a in graph.states:
            for b in graph.states:
                assert compiled.path(index[a], index[b], compiled.full_mask) == (
                    reach.shortest_path(a, b)
                )


class TestIntraDerivationProperties:
    @given(random_graphs())
    def test_uniqueness_condition_holds_exactly(self, graph):
        reach = Reachability(graph)
        derived = derive_intra_transitions(graph)
        for event in graph.events:
            targets = list(dict.fromkeys(t.dst for t in graph.transitions_with_event(event)))
            for state in graph.states:
                reachable_targets = [t for t in targets if reach.reachable(state, t)]
                if len(reachable_targets) == 1:
                    jump = derived[(state, event)]
                    assert jump.dst == reachable_targets[0]
                    assert jump.src == state and jump.event == event
                else:
                    assert (state, event) not in derived

    @given(random_graphs())
    def test_jump_target_carries_the_event(self, graph):
        derived = derive_intra_transitions(graph)
        for jump in derived.values():
            # some normal transition with this label lands on the target
            assert any(
                t.dst == jump.dst for t in graph.transitions_with_event(jump.event)
            )


def _builtin_templates() -> list[FsmTemplate]:
    templates = [
        template
        for name in ("ctp", "ctp-nogen", "dissemination", "query-flood")
        for _role, template in sorted(load_spec(name).roles.items())
    ]
    templates.append(chain_template("chain", ["a", "b", "c"]))
    return templates


def _assert_jump_tables_match_oracle(template: FsmTemplate) -> None:
    """``intra``, ``select_table`` and the XF003 counts equal the oracle's."""
    graph = template.graph
    intra = oracle.derive_intra_transitions(graph)
    assert template.intra == intra
    select: dict[tuple[str, str], Selection] = {}
    for t in graph.transitions:
        select.setdefault((t.src, t.event), Selection("normal", t.dst))
    for key, jump in intra.items():
        select.setdefault(key, Selection("intra", jump.dst))
    assert template.select_table == select
    reach = Reachability(graph)
    for state in graph.states:
        assert shortest_path_counts(template.compiled, state) == (
            reach.shortest_path_stats(state)
        )


class TestJumpTablesMatchOracle:
    @pytest.mark.parametrize(
        "template", _builtin_templates(), ids=lambda t: t.name
    )
    def test_builtin_templates(self, template):
        _assert_jump_tables_match_oracle(template)

    def test_learned_spec(self):
        from repro.analysis.pipeline import run_simulation
        from repro.learn import learn_from_logs
        from repro.lognet.collector import collect_logs
        from repro.lognet.loss import LogLossSpec
        from repro.simnet.scenarios import small_network

        sim = run_simulation(small_network(n_nodes=25, minutes=30.0))
        logs = collect_logs(sim.true_logs, LogLossSpec.lossless(), 11)
        spec = learn_from_logs(
            logs, sink=sim.sink, base_station=sim.base_station_node
        )
        for template in spec.deployment_spec().roles.values():
            _assert_jump_tables_match_oracle(template)

    @given(random_graphs())
    @settings(max_examples=120)
    def test_random_graphs(self, graph):
        _assert_jump_tables_match_oracle(FsmTemplate("random", graph))
