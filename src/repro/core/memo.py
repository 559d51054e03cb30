"""Run the engine once per packet shape: a relabelling memo of flow records.

The transition algorithm (paper §IV) is deterministic, and it reads a node
id in three ways only: through the order of ids (the rotation, the
pre-seeding walk of :class:`~repro.core.context.PacketContext` and the
engine map all go in id order), through equality with the packet's origin
or another node of the packet, and through the neighbour relations the
packet's own events teach the context.  Replace every node id of a
packet's evidence by its rank among the packet's ids and the engine cannot
tell the difference: two packets with equal rank forms get the same flow
up to that relabelling.  And packets repeat — most of a deployment's
packets walk a route shape some earlier packet walked, losing the same
kinds of events.

:class:`ShapeMemo` keys each packet by that rank form, its *shape*:

- the origin's rank, the ranks of the template's pinned nodes
  (:attr:`~repro.fsm.templates.FsmTemplate.pinned_nodes`, ``None`` when
  absent from the packet), and
- per queue node in id order, the node's rank and its events as
  ``(etype, node, src, dst, info)`` with every id a rank.

Times are left out: inference never reads them.  A miss runs the engine on
the packet itself and keeps its flow as a :class:`ShapeRecord` in rank
terms; a hit replays the record over the new packet.  Logged entries are
the packet's own :class:`~repro.events.event.Event` objects (picked by
queue position, so their times are the packet's), inferred events are
rebuilt from ranks, and the structured notes render into provenance and
anomaly strings with the packet's ids.  A replay adds exactly the counters
the engine run would have.  A stored record also carries its shape's
:class:`ShapeEncoding`: the flow's canonical JSON in rank terms, built once
from the key and the record when a flow of the shape is first encoded.
Every flow of the shape, the recording run's included, is written by
filling it with its own ids, packet key, times and ``info`` values.

Only templates whose callables read ids that way may use a memo
(:meth:`ShapeMemo.for_template`): per-node ``template_for`` factories,
explicit-node prerequisite peers and :attr:`Peer.TARGETS` (which reads
ids out of ``info``) bypass it, as does a packet whose ``info`` is not
hashable.
"""

from __future__ import annotations

import re
from typing import Any, Hashable, Mapping, NamedTuple, Optional, Sequence

from repro.core.event_flow import LOGGED, EventFlow, FlowEntry, Note
from repro.core.serialize import FlowTemplate, shape_template
from repro.core.transition_algorithm import PacketReconstructor, ReconCounters, Tally
from repro.events.event import Event
from repro.events.packet import PacketKey
from repro.fsm.prerequisites import Peer
from repro.fsm.templates import FsmTemplate
from repro.obs.registry import get_registry

#: Shapes one memo holds; past it the oldest shape is dropped first.  The
#: bench stores need a few hundred to a few thousand (a 120-node, 6-day
#: store has 2,253 shapes over 8,602 packets).
MEMO_CAP = 4096

#: Distinct parts a memo shares among its shapes before it starts a fresh
#: table (so parts of evicted shapes cannot pile up).
ATOMS_CAP = 8 * MEMO_CAP

#: An event in rank terms: ``(queue node, position)`` of a logged event,
#: ``(etype, node, src, dst)`` of an inferred one (rank ``-1``: ``None``).
EventRef = tuple[Any, ...]


class ShapeRecord(NamedTuple):
    """One engine run, in rank terms."""

    #: Per flow entry: ``(node, position)`` when logged, else
    #: ``(etype, node, src, dst, provenance)``.  Note texts (provenance,
    #: anomalies) are format strings whose field ``{k}`` is the id of
    #: rank ``k``.
    entries: tuple[tuple[Any, ...], ...]
    inferred: int
    #: happens-before pairs, flattened: ``(i0, j0, i1, j1, ...)``
    happens_before: tuple[int, ...]
    omitted: tuple[EventRef, ...]
    anomalies: tuple[str, ...]
    #: per engine: ``(node, final state, visited states)``
    states: tuple[tuple[int, str, tuple[str, ...]], ...]
    tally: Tally
    #: the shape's byte template; a record gets it when a memo stores it
    encoding: Optional["ShapeEncoding"] = None


class _Unrecordable(Exception):
    """The run left something a rank record cannot carry."""


class ShapeMemo:
    """A bounded map from packet shape to the record of its engine run."""

    def __init__(self, pinned: tuple[Optional[int], ...] = ()) -> None:
        self.pinned = pinned
        self.records: dict[Hashable, ShapeRecord] = {}
        #: One copy of each tuple and string the stored keys and records are
        #: made of: shapes share most of their parts (a bench-store push's
        #: 2,828 shapes take 1.6 MB shared, 11.8 MB unshared).
        self.atoms: dict[Any, Any] = {}

    @classmethod
    def for_template(cls, template: object) -> Optional["ShapeMemo"]:
        """A memo for ``template``, or ``None`` when a relabelling could
        change what its callables or prerequisite peers compute."""
        if not isinstance(template, FsmTemplate) or template.pinned_nodes is None:
            return None
        for rules in template.prereqs.values():
            for rule in rules:
                if not isinstance(rule.peer, Peer) or rule.peer is Peer.TARGETS:
                    return None
        return cls(template.pinned_nodes)

    # ------------------------------------------------------------------ #

    def shape(
        self, packet: Optional[PacketKey], events_by_node: Mapping[int, Sequence[Event]]
    ) -> tuple[Optional[tuple[Any, ...]], list[int]]:
        """``(key, ids)``: the packet's shape and its node ids in rank order;
        the key is ``None`` when an ``info`` value is not hashable."""
        ids = set(events_by_node)
        for events in events_by_node.values():
            for event in events:
                ids.add(event.node)
                ids.add(event.src)
                ids.add(event.dst)
        origin = None if packet is None else packet.origin
        ids.add(origin)
        ids.discard(None)
        order = sorted(ids)
        rank: dict[Optional[int], Optional[int]] = {n: i for i, n in enumerate(order)}
        rank[None] = None
        key = (
            rank[origin],
            tuple([rank.get(node) for node in self.pinned]),
            tuple([
                (
                    rank[node],
                    tuple([
                        (e.etype, rank[e.node], rank[e.src], rank[e.dst], e.info)
                        for e in events
                    ]),
                )
                for node, events in sorted(events_by_node.items())
            ]),
        )
        try:
            hash(key)
        except TypeError:
            return None, order
        return key, order

    def put(self, key: Hashable, record: ShapeRecord) -> ShapeRecord:
        """Store ``record`` under ``key``; returns what is stored (the
        record with its parts shared and its :class:`ShapeEncoding`)."""
        records = self.records
        if len(records) >= MEMO_CAP:
            del records[next(iter(records))]
        if len(self.atoms) >= ATOMS_CAP:
            self.atoms = {}
        key = _shared(key, self.atoms)
        shared = ShapeRecord._make([
            _shared(field, self.atoms) if type(field) is tuple else field
            for field in record
        ])
        stored = records[key] = shared._replace(encoding=ShapeEncoding(key, shared))
        return stored

    # ------------------------------------------------------------------ #

    def flow(
        self,
        reconstructor: PacketReconstructor,
        events_by_node: Mapping[int, Sequence[Event]],
    ) -> EventFlow:
        """The flow of ``reconstructor.packet``: replayed on a hit, from
        the engine (and then recorded) on a miss."""
        packet = reconstructor.packet
        key, ids = self.shape(packet, events_by_node)
        record = None if key is None else self.records.get(key)
        counters = ReconCounters.for_registry(get_registry())
        if record is not None:
            counters.memo_hits.inc()
            return replay(record, packet, events_by_node, ids, counters)
        counters.memo_misses.inc()
        flow = reconstructor.run(events_by_node)
        if key is not None:
            record = record_of(reconstructor, ids)
            if record is not None:
                stored = self.put(key, record)
                flow.encoding = (stored.encoding, ids)
        return flow


def _shared(value: Any, atoms: dict[Any, Any]) -> Any:
    """The copy in ``atoms`` of ``value``, a tuple or a string; a new tuple
    joins with its tuple and string parts shared the same way.  Records
    hold only ints, strings and tuples of them, so equal parts are
    interchangeable."""
    found = atoms.get(value)
    if found is None:
        if type(value) is tuple:
            value = tuple([
                _shared(part, atoms) if type(part) is tuple or type(part) is str else part
                for part in value
            ])
        found = atoms[value] = value
    return found


# ---------------------------------------------------------------------- #
# records: from a run, back to a flow

#: How a node id appears in a note rendered for a record (see :class:`_Slot`).
_MARK = re.compile("\x00(\\d+)\x00")


class _Slot:
    """Stands for the node of rank ``rank`` while a note renders into a
    record: it formats as a marker that becomes the ``{rank}`` field."""

    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def __format__(self, spec: str) -> str:
        return f"\x00{self.rank}\x00"


def record_of(reconstructor: PacketReconstructor, ids: Sequence[int]) -> Optional[ShapeRecord]:
    """The reconstructor's last run in rank terms (``ids`` in rank order),
    or ``None`` when it produced something a relabelling cannot map."""
    rank: dict[Optional[int], int] = {n: i for i, n in enumerate(ids)}
    rank[None] = -1
    slots: dict[Optional[int], Optional[_Slot]] = {n: _Slot(i) for i, n in enumerate(ids)}
    slots[None] = None
    texts: dict[int, str] = {}  # note id -> template, for notes shared by entries
    flow = reconstructor.flow
    packet = flow.packet

    def template(note: Note, text: str) -> str:
        found = texts.get(id(note))
        if found is None:
            found = texts[id(note)] = _template(note, slots, text, ids)
        return found

    try:
        entries = tuple([
            (rank[note.node], note.detail[0])
            if note.kind == LOGGED
            else (
                *_inferred_ref(entry.event, rank, packet),
                template(note, entry.provenance),
            )
            for entry, note in zip(flow.entries, reconstructor.notes)
        ])
        omitted = tuple([
            (rank[note.node], note.detail[0])
            if note.kind == LOGGED
            else _inferred_ref(event, rank, packet)
            for event, note in zip(flow.omitted, reconstructor.omitted_notes)
        ])
        anomalies = tuple([
            template(note, text)
            for note, text in zip(reconstructor.anomaly_notes, flow.anomalies)
        ])
        visited = flow.visited_states
        states = tuple([
            (rank[n], s, tuple(visited[n])) for n, s in flow.final_states.items()
        ])
    except (KeyError, _Unrecordable):
        return None
    return ShapeRecord(
        entries, flow.inferred_count, tuple([i for pair in flow.hb_edges for i in pair]),
        omitted, anomalies, states, reconstructor.tally(),
    )


def _inferred_ref(
    event: Event, rank: Mapping[Optional[int], int], packet: Optional[PacketKey]
) -> EventRef:
    if event.info or event.time is not None or event.packet != packet:
        raise _Unrecordable
    return (event.etype, rank[event.node], rank[event.src], rank[event.dst])


def _template(
    note: Note, slots: Mapping[Optional[int], Optional[_Slot]], text: str, ids: Sequence[int]
) -> str:
    """``note`` as a format string over the rank-ordered ids; checked to
    give back ``text``, the run's own rendering."""
    event = note.event
    if event is not None:
        event = Event(
            event.etype, slots[event.node], slots[event.src], slots[event.dst]  # type: ignore[arg-type]
        )
    marked = Note(note.kind, slots[note.node], event, note.detail).render()  # type: ignore[arg-type]
    found = _MARK.sub(r"{\1}", marked.replace("{", "{{").replace("}", "}}"))
    if found.format(*ids) != text:  # a marker-like character in a label
        raise _Unrecordable
    return found


def replay(
    record: ShapeRecord,
    packet: Optional[PacketKey],
    events_by_node: Mapping[int, Sequence[Event]],
    ids: Sequence[int],
    counters: ReconCounters,
) -> EventFlow:
    """The flow ``record`` describes, over this packet's events and ids;
    adds the run's counters."""
    names: list[Optional[int]] = [*ids, None]  # rank -1 stands for None
    flow = EventFlow(packet)
    entries = flow.entries
    for ref in record.entries:
        if len(ref) == 2:
            node, position = ref
            entries.append(FlowEntry(events_by_node[names[node]][position]))  # type: ignore[index]
        else:
            etype, node, src, dst, text = ref
            event = Event(etype, names[node], names[src], names[dst], packet)  # type: ignore[arg-type]
            entries.append(FlowEntry(event, True, text.format(*ids)))
    flow.inferred_count = record.inferred
    pairs = iter(record.happens_before)
    flow.add_orders(zip(pairs, pairs))
    omitted = flow.omitted
    for ref in record.omitted:
        if len(ref) == 2:
            node, position = ref
            omitted.append(events_by_node[names[node]][position])  # type: ignore[index]
        else:
            etype, node, src, dst = ref
            omitted.append(Event(etype, names[node], names[src], names[dst], packet))  # type: ignore[arg-type]
    flow.anomalies.extend([text.format(*ids) for text in record.anomalies])
    final_states, visited_states = flow.final_states, flow.visited_states
    for node, state, visited in record.states:
        name = names[node]
        final_states[name] = state  # type: ignore[index]
        visited_states[name] = frozenset(visited)  # type: ignore[index]
    if record.encoding is not None:
        flow.encoding = (record.encoding, ids)
    counters.add(flow, record.tally)
    return flow


# ---------------------------------------------------------------------- #
# the byte template


class ShapeEncoding:
    """One shape's :class:`~repro.core.serialize.FlowTemplate`, built from
    the shape's key and record the first time a flow of the shape is
    encoded: a daemon records far more shapes (partial evidence between
    refreshes) than its final flows have, and those cost no template."""

    __slots__ = ("_parts", "_template")

    def __init__(self, key: Hashable, record: ShapeRecord) -> None:
        # the record's parts, not the record: the record holds this object
        self._parts: Optional[tuple[Any, ...]] = (
            key, record.entries, record.happens_before, record.omitted, record.states,
        )
        self._template: Optional[FlowTemplate] = None

    @property
    def template(self) -> FlowTemplate:
        if self._template is None:
            parts = self._parts
            assert parts is not None
            self._template = _flow_template(*parts)
            self._parts = None
        return self._template


def _flow_template(
    key: tuple[Any, ...],
    entries: tuple[tuple[Any, ...], ...],
    happens_before: tuple[int, ...],
    omitted: tuple[EventRef, ...],
    states: tuple[tuple[int, str, tuple[str, ...]], ...],
) -> FlowTemplate:
    """The template of the flows :func:`replay` builds from this record: a
    logged event's label and peers are the key's, at its queue position."""
    queues = dict(key[2])

    def described(ref: tuple[Any, ...]) -> tuple[Any, ...]:
        """``(etype, node, src, dst, logged)``, ``None`` for no id."""
        if len(ref) == 2:
            etype, at, src, dst, _info = queues[ref[0]][ref[1]]
            return etype, at, src, dst, True
        etype, at, src, dst = ref[:4]
        return etype, _no_id(at), _no_id(src), _no_id(dst), False

    pairs = iter(happens_before)
    return shape_template(
        [described(ref) for ref in entries],
        [described(ref) for ref in omitted],
        zip(pairs, pairs),
        states,
    )


def _no_id(rank: int) -> Optional[int]:
    return None if rank == -1 else rank
