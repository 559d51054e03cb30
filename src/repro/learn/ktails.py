"""k-tails passive automaton learning (paper §IV-A's "automatic tools").

The single mining implementation behind the ``refill learn`` pipeline (also
re-exported from :mod:`repro.fsm`).  Given
complete per-node event-label traces it infers a transition graph by:

1. **canonicalization** — traces are deduplicated and sorted, so the result
   is byte-identical no matter what order the corpus handed them over;
2. **prefix-tree construction** — one state per distinct trace prefix;
3. **k-tails merging** — states whose sets of length-≤k outgoing label
   sequences are equal are merged (classic k-tails: merging only ever grows
   the accepted language, so every training trace stays accepted);
4. **determinization** — merged states can carry several same-label edges,
   which the template validator flags as a model error (``TP001``) and the
   inference engine cannot drive; same-``(state, label)`` successors are
   therefore merged to a fixpoint;
5. **canonical renaming** — states are renamed ``q0, q1, ...`` in BFS order
   with label-sorted edge traversal, making state names (and therefore
   serialized :class:`~repro.learn.spec.LearnedSpec` files) stable.

The mined graph is deterministic, fully reachable from its initial state,
and ready to wrap in an :class:`~repro.fsm.templates.FsmTemplate`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.fsm.graph import Transition, TransitionGraph


def mine_fsm(
    traces: Iterable[Sequence[str]],
    *,
    k: int = 2,
    initial_name: str = "q0",
) -> TransitionGraph:
    """Infer a deterministic transition graph from complete label sequences.

    Parameters
    ----------
    traces:
        Event-label sequences, each a complete episode starting from the
        (common) initial state.  Order and multiplicity do not matter: the
        input is deduplicated and sorted before mining, so any shuffling of
        the same corpus yields a byte-identical graph.
    k:
        Future horizon for state merging: two states merge when the sets of
        length-≤k label sequences leaving them are equal (k-tails).  Larger
        ``k`` merges less and yields bigger machines.
    initial_name:
        Name given to the initial state; the remaining states are named
        ``q1, q2, ...`` in canonical BFS order.
    """
    material = [tuple(t) for t in traces]
    if not material:
        raise ValueError("need at least one trace")
    if any(len(t) == 0 for t in material):
        raise ValueError("traces must be non-empty")
    if k < 0:
        raise ValueError("k must be non-negative")
    ordered = sorted(set(material))

    # 1. prefix tree: state = int id, edges labelled
    children: dict[int, dict[str, int]] = defaultdict(dict)
    next_id = 1
    for trace in ordered:
        state = 0
        for label in trace:
            nxt = children[state].get(label)
            if nxt is None:
                nxt = next_id
                next_id += 1
                children[state][label] = nxt
            state = nxt

    # 2. k-futures signature per tree state (memoized; k is small)
    memo: dict[tuple[int, int], frozenset[tuple[str, ...]]] = {}

    def futures(state: int, depth: int) -> frozenset[tuple[str, ...]]:
        key = (state, depth)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if depth == 0:
            out = frozenset({()})
        else:
            acc = {()}
            for label, nxt in children[state].items():
                for tail in futures(nxt, depth - 1):
                    acc.add((label, *tail))
            out = frozenset(acc)
        memo[key] = out
        return out

    # 3. merge states by signature (first state in tree order represents)
    parent = list(range(next_id))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    by_signature: dict[frozenset, int] = {}
    for state in range(next_id):
        sig = futures(state, k)
        rep = by_signature.setdefault(sig, state)
        union(rep, state)

    # 4. determinize: merge same-(state, label) successor sets to fixpoint.
    # Merging only unions outgoing behavior, so the language keeps growing —
    # training traces remain accepted — and the engine-facing graph satisfies
    # the validator's TP001 determinism requirement.
    def current_edges() -> set[tuple[int, str, int]]:
        return {
            (find(src), label, find(dst))
            for src, out in children.items()
            for label, dst in out.items()
        }

    while True:
        outgoing: dict[tuple[int, str], set[int]] = defaultdict(set)
        for src, label, dst in current_edges():
            outgoing[(src, label)].add(dst)
        conflicts = sorted(
            (key, sorted(dsts)) for key, dsts in outgoing.items() if len(dsts) > 1
        )
        if not conflicts:
            break
        for _key, dsts in conflicts:
            for other in dsts[1:]:
                union(dsts[0], other)

    edges = current_edges()
    adjacency: dict[int, dict[str, int]] = defaultdict(dict)
    for src, label, dst in edges:
        adjacency[src][label] = dst

    # 5. canonical rename: BFS from the initial, labels in sorted order
    root = find(0)
    order: list[int] = [root]
    seen = {root}
    cursor = 0
    while cursor < len(order):
        state = order[cursor]
        cursor += 1
        for label in sorted(adjacency.get(state, ())):
            dst = adjacency[state][label]
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
    index = {state: i for i, state in enumerate(order)}
    names = {
        state: (initial_name if i == 0 else f"q{i}") for state, i in index.items()
    }
    transitions = [
        Transition(names[src], names[dst], label)
        for src, label, dst in sorted(
            edges, key=lambda e: (index[e[0]], e[1], index[e[2]])
        )
    ]
    return TransitionGraph([names[s] for s in order], transitions, names[root])


def traces_from_flows(
    label_sequences: Iterable[Sequence[str]],
) -> list[tuple[str, ...]]:
    """Normalize/validate trace input (deduplicated, order kept)."""
    seen: dict[tuple[str, ...], None] = {}
    for seq in label_sequences:
        seen[tuple(seq)] = None
    return list(seen)


def accepts(graph: TransitionGraph, trace: Sequence[str]) -> bool:
    """Whether the graph can replay ``trace`` from its initial state.

    Works for any transition graph: mined graphs are deterministic, but the
    replay is a nondeterministic subset simulation so hand-written graphs
    with same-label edge fans are handled too.
    """
    states = {graph.initial}
    for label in trace:
        states = {t.dst for s in states for t in graph.transitions_from(s, label)}
        if not states:
            return False
    return True


def replay_states(
    graph: TransitionGraph, trace: Sequence[str], *, start: str | None = None
) -> list[str] | None:
    """The state sequence a *deterministic* graph visits replaying ``trace``.

    Returns ``[start, s1, ..., sN]`` (one state per consumed label) or
    ``None`` when some label has no outgoing transition — the caller treats
    that trace as unexplainable rather than guessing.  Used by the
    prerequisite miner to ask "what state had the peer reached right after
    its n-th event".
    """
    state = graph.initial if start is None else start
    visited = [state]
    for label in trace:
        candidates = graph.transitions_from(state, label)
        if not candidates:
            return None
        state = candidates[0].dst
        visited.append(state)
    return visited
