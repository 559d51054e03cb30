"""Reachability and shortest normal-transition paths (paper §IV-A).

``s_i ≻ s_j`` holds iff there is a non-empty transition sequence from
``s_i`` to ``s_j`` following *normal* transitions.  Shortest paths are used
to enumerate the prerequisite (inferred lost) events skipped by an intra-node
jump and to drive an engine to an inter-node prerequisite state.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.fsm.graph import Transition, TransitionGraph

#: Predicate deciding whether an edge may appear on an *inference* path.
#: Templates use it to rule out semantically impossible inferred events
#: (e.g. a ``gen`` event on a node that is not the packet's origin).
EdgeFilter = Callable[[Transition], bool]


class CompiledReachability:
    """Dense-index shortest-path tables, built once per template graph.

    The hot reconstruction loop asks the same handful of path questions
    thousands of times per corpus.  This compiles the graph once — states
    interned to dense integer ids, adjacency in exactly
    :meth:`TransitionGraph.outgoing` order — and keys whole BFS trees
    (distance + parent-edge arrays) by ``(source state, admissible-edge
    bitmask)``.  Admissibility is evaluated once per mask as a bitmask over
    the declaration-ordered edge list, so repeat queries under the same
    context become two list lookups and an unwind.

    Ties break exactly like an early-exit BFS over the graph: a full BFS
    assigns each state the parent edge it is *first* discovered through, and
    with the same FIFO order, adjacency order and edge admissibility that
    parent is the one an early-exit walk records.  The reference walks live
    in ``tests/fsm/oracle.py``; the jump-table property tests pin every
    query against them.
    """

    def __init__(self, graph: TransitionGraph) -> None:
        self.graph = graph
        states = graph.states
        self.index: dict[str, int] = {s: i for i, s in enumerate(states)}
        self.states = states
        self.edges: tuple[Transition, ...] = graph.transitions
        edge_index = {t: i for i, t in enumerate(self.edges)}
        #: Per state (dense id): ``(edge bit, dst id, transition)`` in the
        #: exact order ``graph.outgoing`` scans them.
        self.outgoing: list[list[tuple[int, int, Transition]]] = [
            [(edge_index[t], self.index[t.dst], t) for t in graph.outgoing(s)]
            for s in states
        ]
        #: Per label: ``(edge bit, src id, dst id, transition)`` in edge
        #: declaration order (``transitions_with_event`` order).
        self.by_event: dict[str, list[tuple[int, int, int, Transition]]] = {}
        for i, t in enumerate(self.edges):
            self.by_event.setdefault(t.event, []).append(
                (i, self.index[t.src], self.index[t.dst], t)
            )
        #: Mask with every edge admissible (templates without a predicate).
        self.full_mask: int = (1 << len(self.edges)) - 1
        self._trees: dict[
            tuple[int, int],
            tuple[list[Optional[int]], list[Optional[Transition]]],
        ] = {}

    def compute_mask(self, admissible: EdgeFilter) -> int:
        """Admissible-edge bitmask for a bound predicate (bit i = edge i)."""
        mask = 0
        bit = 1
        for t in self.edges:
            if admissible(t):
                mask |= bit
            bit <<= 1
        return mask

    def compute_mask_of(self, admissible, node, packet, ctx) -> int:
        """:meth:`compute_mask` for a template-style 4-argument predicate.

        Same bit layout; skips the per-edge closure a bound
        :data:`EdgeFilter` would cost in the engines' hot path.
        """
        mask = 0
        bit = 1
        for t in self.edges:
            if admissible(t, node, packet, ctx):
                mask |= bit
            bit <<= 1
        return mask

    def _tree(
        self, src: int, mask: int
    ) -> tuple[list[Optional[int]], list[Optional[Transition]]]:
        """Cached full-BFS distances and first-discovery parent edges."""
        key = (src, mask)
        tree = self._trees.get(key)
        if tree is None:
            dist: list[Optional[int]] = [None] * len(self.states)
            parent: list[Optional[Transition]] = [None] * len(self.states)
            dist[src] = 0
            queue = [src]
            outgoing = self.outgoing
            for state in queue:  # FIFO: appends only, scanned left to right
                d = dist[state] + 1  # type: ignore[operator]
                for edge_bit, dst, t in outgoing[state]:
                    if not (mask >> edge_bit) & 1 or dist[dst] is not None:
                        continue
                    dist[dst] = d
                    parent[dst] = t
                    queue.append(dst)
            # the source keeps dist 0 / no parent: it starts "visited", so
            # paths back into it are never recorded
            self._trees[key] = tree = (dist, parent)
        return tree

    def reaches(self, src: int, dst: int) -> bool:
        """Whether ``src ≻ dst``: a *non-empty* normal-transition path exists.

        Differs from ``dist(src, dst, full_mask) is not None`` only at
        ``src == dst``, which holds iff ``src`` lies on a cycle — some edge
        into it leaves a state reachable from it.
        """
        dist = self._tree(src, self.full_mask)[0]
        if src != dst:
            return dist[dst] is not None
        return any(
            dist[self.index[t.src]] is not None
            for t in self.edges
            if self.index[t.dst] == dst
        )

    def dist(self, src: int, dst: int, mask: int) -> Optional[int]:
        """Shortest admissible path length, ``None`` when unreachable.

        ``0`` when ``src == dst`` (already there; :meth:`path` returns
        ``[]``).
        """
        if src == dst:
            return 0
        return self._tree(src, mask)[0][dst]

    def path(self, src: int, dst: int, mask: int) -> Optional[list[Transition]]:
        """Shortest admissible path as transitions; ``[]`` when ``src == dst``."""
        if src == dst:
            return []
        dist, parent = self._tree(src, mask)
        if dist[dst] is None:
            return None
        out: list[Transition] = []
        index = self.index
        cur = dst
        while cur != src:
            t = parent[cur]
            assert t is not None
            out.append(t)
            cur = index[t.src]
        out.reverse()
        return out

    def path_via_event(
        self, src: int, target: int, event: str, mask: int
    ) -> Optional[list[Transition]]:
        """Shortest path ``src ⇝ s_ic --event--> target``, final edge excluded.

        Among the ``event`` transitions landing on ``target``, picks the one
        whose source is nearest to ``src``; the returned prefix is made of
        inferred lost events only (the final label is the real, observed
        event, paper §IV-B).  Ties break to the first candidate in edge
        declaration order (strict ``<``), as a scan over
        ``transitions_with_event`` does.
        """
        candidates = self.by_event.get(event)
        if not candidates:
            return None
        dist, _parent = self._tree(src, mask)
        best_src: Optional[int] = None
        best_len: Optional[int] = None
        for edge_bit, src_i, dst_i, _t in candidates:
            if dst_i != target or not (mask >> edge_bit) & 1:
                continue
            d = 0 if src_i == src else dist[src_i]
            if d is None:
                continue
            if best_len is None or d < best_len:
                best_src, best_len = src_i, d
        if best_src is None:
            return None
        return self.path(src, best_src, mask)
