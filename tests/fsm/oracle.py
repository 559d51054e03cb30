"""Reference graph walks: the test oracle for the compiled reachability index.

:class:`Reachability` answers every query with a fresh breadth-first walk
over :class:`~repro.fsm.graph.TransitionGraph` — no interning, no caching.
It is the semantic reference that
:class:`~repro.fsm.reachability.CompiledReachability`, the intra-node jump
derivation and the XF003 shortest-path counts are compared against on
built-in templates, learned specs and random graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.fsm.graph import Transition, TransitionGraph
from repro.fsm.intra import IntraTransition
from repro.fsm.reachability import EdgeFilter


class Reachability:
    """Precomputed reachability over a transition graph.

    The relation is irreflexive unless the state lies on a cycle, matching
    the paper's definition (a transition sequence has at least one
    transition).
    """

    def __init__(self, graph: TransitionGraph) -> None:
        self.graph = graph
        self._reach: dict[str, frozenset[str]] = {}
        for state in graph.states:
            self._reach[state] = frozenset(self._bfs_states(state))

    def _bfs_states(self, start: str) -> set[str]:
        seen: set[str] = set()
        queue: deque[str] = deque(self.graph.successors(start))
        seen.update(queue)
        while queue:
            state = queue.popleft()
            for nxt in self.graph.successors(state):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def reachable(self, src: str, dst: str) -> bool:
        """Whether ``src ≻ dst`` (via at least one normal transition)."""
        return dst in self._reach[src]

    def reachable_set(self, src: str) -> frozenset[str]:
        """All states reachable from ``src`` by non-empty paths."""
        return self._reach[src]

    def shortest_path(
        self,
        src: str,
        dst: str,
        edge_filter: Optional[EdgeFilter] = None,
    ) -> Optional[list[Transition]]:
        """Shortest sequence of normal transitions from ``src`` to ``dst``.

        Returns ``None`` when no admissible path exists, ``[]`` when
        ``src == dst`` (already there).  Ties are broken deterministically by
        edge declaration order.
        """
        if src == dst:
            return []
        parent: dict[str, Transition] = {}
        queue: deque[str] = deque([src])
        visited = {src}
        while queue:
            state = queue.popleft()
            for t in self.graph.outgoing(state):
                if edge_filter is not None and not edge_filter(t):
                    continue
                if t.dst in visited:
                    continue
                parent[t.dst] = t
                if t.dst == dst:
                    return self._unwind(parent, src, dst)
                visited.add(t.dst)
                queue.append(t.dst)
        return None

    def shortest_path_stats(
        self,
        src: str,
        edge_filter: Optional[EdgeFilter] = None,
    ) -> tuple[dict[str, int], dict[str, int]]:
        """BFS distances and *shortest-path counts* from ``src``.

        Returns ``(dist, count)`` where ``dist[s]`` is the length of the
        shortest normal-transition sequence ``src ⇝ s`` and ``count[s]`` how
        many distinct shortest sequences achieve it (``dist[src] == 0``,
        ``count[src] == 1``).  Unreachable states are absent from both maps.
        Used by the static analyzer to flag ambiguous jump derivations:
        ``count > 1`` means :meth:`shortest_path` picked among several
        equally short inferred-event sequences by declaration order alone.
        """
        dist: dict[str, int] = {src: 0}
        count: dict[str, int] = {src: 1}
        queue: deque[str] = deque([src])
        while queue:
            state = queue.popleft()
            for t in self.graph.outgoing(state):
                if edge_filter is not None and not edge_filter(t):
                    continue
                nxt = t.dst
                if nxt not in dist:
                    dist[nxt] = dist[state] + 1
                    count[nxt] = count[state]
                    queue.append(nxt)
                elif dist[nxt] == dist[state] + 1:
                    count[nxt] += count[state]
        return dist, count

    @staticmethod
    def _unwind(parent: dict[str, Transition], src: str, dst: str) -> list[Transition]:
        path: list[Transition] = []
        cur = dst
        while cur != src:
            t = parent[cur]
            path.append(t)
            cur = t.src
        path.reverse()
        return path

    def shortest_path_via_event(
        self,
        src: str,
        target: str,
        event: str,
        edge_filter: Optional[EdgeFilter] = None,
    ) -> Optional[list[Transition]]:
        """Shortest path ``src ⇝ s_ic --event--> target``.

        Among all transitions with label ``event`` whose destination is
        ``target``, pick the one whose source minimizes the normal-transition
        path from ``src``; the returned path *excludes* that final ``event``
        edge (its label corresponds to the real, observed event — only the
        prefix is made of inferred lost events, paper §IV-B).
        """
        best: Optional[list[Transition]] = None
        for t in self.graph.transitions_with_event(event):
            if t.dst != target:
                continue
            if edge_filter is not None and not edge_filter(t):
                continue
            prefix = self.shortest_path(src, t.src, edge_filter)
            if prefix is None:
                continue
            if best is None or len(prefix) < len(best):
                best = prefix
        return best


def derive_intra_transitions(graph: TransitionGraph) -> dict[tuple[str, str], IntraTransition]:
    """The intra-node jump derivation over fresh walks (paper §IV-B)."""
    reach = Reachability(graph)
    derived: dict[tuple[str, str], IntraTransition] = {}
    for event in graph.events:
        targets = list(dict.fromkeys(t.dst for t in graph.transitions_with_event(event)))
        for state in graph.states:
            reachable_targets = [s for s in targets if reach.reachable(state, s)]
            if len(reachable_targets) == 1:
                derived[(state, event)] = IntraTransition(state, reachable_targets[0], event)
    return derived
