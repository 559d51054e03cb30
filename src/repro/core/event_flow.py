"""Event flows (paper §II Eq. 1, §IV-C).

An event flow is the reconstructed ordering of all events related to one
packet, with events REFILL inferred as lost shown "in square brackets".
Besides the linearization the flow keeps the *happens-before* edges that are
actually determined by per-node log order and prerequisite constraints, so
callers can distinguish determined from incidental orderings (paper Fig. 3b:
"The ordering between e1 and e5 cannot be determined").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, NamedTuple, Optional

from repro.events.event import Event
from repro.events.packet import PacketKey


#: :attr:`Note.kind` of a logged entry; also its rendered provenance.
LOGGED = "logged"

#: How each :attr:`Note.kind` renders: ``{node}`` and ``{event}`` are the
#: note's refs (an event renders as its pair label), ``{0}``, ``{1}`` its
#: :attr:`Note.detail` values.
NOTE_FORMATS = {
    LOGGED: LOGGED,
    "intra": "intra: skipped by {event}",
    "prereq": "prereq: required by {0} at node {node}",
    "recursion": "recursion limit while processing {event}",
    "unresolvable": "unresolvable prerequisite peer for {event}",
    "self": "self-referential prerequisite for {event}",
    "unmet": "prerequisite {0!r} (visit {1}) unmet on node {node}",
    "cycle": "prerequisite cycle at node {node} -> {0}",
    "unreachable": "prerequisite states {0!r} unreachable on node {node}",
    "no-path": "no inference path to {0!r} on node {node}",
    "stalled": "drive to {0!r} on node {node} made no progress",
}


class Note(NamedTuple):
    """Structured provenance or anomaly: a kind plus its node and event refs.

    The transition algorithm states *why* an entry exists (or what went
    wrong) as a note, and the flow keeps its rendering: the provenance and
    anomaly strings.  A logged entry's note points at its evidence, the
    queue ``node`` and the ``(position,)`` in that node's ordered events.
    Keeping node ids as refs, not text, is what lets a flow be relabelled
    (see :mod:`repro.core.memo`).
    """

    kind: str
    node: Optional[int] = None
    event: Optional[Event] = None
    #: Values that are not node ids: a label, prerequisite states, a
    #: demand count, a target state, a queue position.
    detail: tuple[Any, ...] = ()

    def render(self) -> str:
        """The text the flow stores (``FlowEntry.provenance``, an anomaly)."""
        if self.kind == LOGGED:
            return LOGGED
        return NOTE_FORMATS[self.kind].format(
            *self.detail, node=self.node, event=self.event
        )


@dataclass(frozen=True, slots=True)
class FlowEntry:
    """One position in an event flow."""

    event: Event
    #: True when REFILL inferred the event as lost (bracketed in the paper).
    inferred: bool = False
    #: Where the entry came from: ``"logged"`` for real records,
    #: ``"intra: ..."`` for events recovered by an intra-node jump,
    #: ``"prereq: ..."`` for events recovered by a prerequisite drive.
    provenance: str = LOGGED

    def label(self) -> str:
        text = self.event.pair_label()
        return f"[{text}]" if self.inferred else text


class EventFlow:
    """Reconstructed per-packet event flow.

    Attributes
    ----------
    packet:
        The packet the flow describes (``None`` for packet-less workloads
        such as the Fig. 3 synthetic examples).
    entries:
        The linearized flow, inferred events marked.
    omitted:
        Events the transition algorithm could not process (paper §IV-B step
        3: "we omit those events").
    anomalies:
        Human-readable notes about degenerate situations (unresolvable
        prerequisite peers, prerequisite cycles, ...).
    final_states / visited_states:
        Per-node engine state at the end of processing and the set of states
        each engine visited.
    """

    def __init__(self, packet: Optional[PacketKey] = None) -> None:
        self.packet = packet
        self.entries: list[FlowEntry] = []
        self.omitted: list[Event] = []
        self.anomalies: list[str] = []
        self.final_states: dict[int, str] = {}
        self.visited_states: dict[int, frozenset[str]] = {}
        # happens-before edges between entry indices (i before j).
        self._hb: set[tuple[int, int]] = set()
        #: Count of inferred entries, maintained by :meth:`append`.
        self.inferred_count = 0
        #: ``(template, ids)`` while the flow is as the shape memo built it:
        #: its shape's :class:`~repro.core.serialize.FlowTemplate` and its
        #: node ids in rank order.  :meth:`append`, :meth:`add_order` and
        #: :meth:`add_orders` drop it; the encoder fills the template only
        #: while it is here.
        self.encoding: Optional[tuple[Any, Any]] = None

    # ------------------------------------------------------------------ #
    # construction (used by the transition algorithm)

    def append(
        self,
        event: Event,
        *,
        inferred: bool,
        after: Iterable[int] = (),
        provenance: str = "logged",
    ) -> int:
        """Append an entry; ``after`` are indices that happen before it."""
        self.encoding = None
        entries = self.entries
        index = len(entries)
        entries.append(FlowEntry(event, inferred, provenance))
        if inferred:
            self.inferred_count += 1
        if after:
            hb = self._hb
            for i in after:
                if not 0 <= i < index:
                    raise ValueError(f"happens-before index {i} out of range")
                hb.add((i, index))
        return index

    def add_orders(self, edges: Iterable[tuple[int, int]]) -> None:
        """Record happens-before pairs already known to be valid (a replayed
        flow's edges, see :mod:`repro.core.memo`)."""
        self.encoding = None
        self._hb.update(edges)

    def add_order(self, before: int, after: int) -> None:
        """Record that entry ``before`` happens before entry ``after``."""
        if before == after or not (0 <= before < len(self.entries)) or not (
            0 <= after < len(self.entries)
        ):
            raise ValueError(f"invalid happens-before pair ({before}, {after})")
        self.encoding = None
        self._hb.add((before, after))

    # ------------------------------------------------------------------ #
    # queries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> FlowEntry:
        return self.entries[index]

    @property
    def events(self) -> list[Event]:
        return [entry.event for entry in self.entries]

    def real_events(self) -> list[Event]:
        """Events that were actually present in the collected logs."""
        return [e.event for e in self.entries if not e.inferred]

    def inferred_events(self) -> list[Event]:
        """Events REFILL inferred as lost."""
        return [e.event for e in self.entries if e.inferred]

    def last_event(self) -> Optional[Event]:
        """The flow's final event (the paper's loss-cause anchor, §V-B)."""
        return self.entries[-1].event if self.entries else None

    def labels(self) -> list[str]:
        """Paper-style labels, inferred events bracketed."""
        return [entry.label() for entry in self.entries]

    def format(self, sep: str = ", ") -> str:
        """The flow rendered in the paper's notation."""
        return sep.join(self.labels())

    def explain(self) -> str:
        """Annotated rendering: every entry with its provenance.

        The drill-down an operator reads when they do not trust a bracketed
        event — which observation forced REFILL to infer it.
        """
        lines = []
        for i, entry in enumerate(self.entries):
            note = "" if entry.provenance == "logged" else f"    <- {entry.provenance}"
            lines.append(f"{i:3d}  {entry.label():<28}{note}")
        for event in self.omitted:
            lines.append(f"  -  {event.pair_label():<28}    <- omitted (no transition)")
        for anomaly in self.anomalies:
            lines.append(f"  !  {anomaly}")
        return "\n".join(lines)

    def nodes(self) -> set[int]:
        """All nodes whose engines saw at least one (real) event."""
        return {entry.event.node for entry in self.entries}

    def visited(self, node: int, state: str) -> bool:
        """Whether ``node``'s engine visited ``state``."""
        return state in self.visited_states.get(node, frozenset())

    # ------------------------------------------------------------------ #
    # happens-before

    @property
    def hb_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._hb)

    def happens_before(self, before: int, after: int) -> bool:
        """Whether entry ``before`` is *determined* to precede ``after``.

        Computed as reachability over the recorded happens-before edges
        (per-node log order + prerequisite constraints); linear positions in
        ``entries`` that are not connected are incidental.
        """
        if before == after:
            return False
        adjacency: dict[int, list[int]] = {}
        for i, j in self._hb:
            adjacency.setdefault(i, []).append(j)
        stack = [before]
        seen = {before}
        while stack:
            cur = stack.pop()
            for nxt in adjacency.get(cur, ()):
                if nxt == after:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def order_determined(self, a: int, b: int) -> bool:
        """Whether the relative order of entries ``a`` and ``b`` is forced."""
        return self.happens_before(a, b) or self.happens_before(b, a)

    def maximal_entries(self) -> list[int]:
        """Indices of entries with no happens-before successor.

        These are the flow's "frontier": nothing is determined to follow
        them.  Diagnosis anchors on the frontier rather than the last linear
        position, which can be an artifact of the merge interleaving.
        """
        has_successor = {i for i, _ in self._hb}
        return [i for i in range(len(self.entries)) if i not in has_successor]

    def index_of(self, event: Event) -> int:
        """Index of the first entry whose event equals ``event``."""
        for i, entry in enumerate(self.entries):
            if entry.event == event:
                return i
        raise ValueError(f"event {event} not in flow")

    def find(self, etype: str, node: Optional[int] = None) -> list[int]:
        """Indices of entries with the given type (and optionally node)."""
        return [
            i
            for i, entry in enumerate(self.entries)
            if entry.event.etype == etype and (node is None or entry.event.node == node)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pkt = f" {self.packet}" if self.packet else ""
        return f"EventFlow({pkt} {self.format()})"
