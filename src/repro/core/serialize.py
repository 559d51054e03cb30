"""JSON serialization of event flows and diagnoses.

Reconstruction results feed dashboards and downstream tooling; this module
round-trips :class:`~repro.core.event_flow.EventFlow` (entries, provenance,
happens-before edges, omissions, anomalies, engine states) and
:class:`~repro.core.diagnosis.LossReport` through plain JSON-compatible
dicts.

A flow has one encoding: :func:`flow_json` writes its canonical JSON
straight from the flow's fields, and :func:`encode_flows` joins those
pieces into the flows document every door serves (``refill analyze
--flows-out``, ``/flows``, ``/flow/<p>``).  A flow depends only on its own
packet's evidence (paper §IV), so each flow's bytes are built once and
joined once, with no dict copy of the document.  A flow the shape memo
built (:mod:`repro.core.memo`) is written by filling its shape's
:class:`FlowTemplate`, the document with what differs between packets of
one shape left open.  :func:`flow_to_dict` and
:func:`flows_to_json` build the same document as plain dicts, field by
field: a second, independent route to the same bytes through
:func:`dumps_canonical`.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from repro.core.diagnosis import LossCause, LossReport
from repro.core.event_flow import EventFlow, FlowEntry
from repro.events.event import Event
from repro.events.packet import PacketKey


def event_to_dict(event: Event) -> dict[str, Any]:
    out: dict[str, Any] = {"etype": event.etype, "node": event.node}
    if event.src is not None:
        out["src"] = event.src
    if event.dst is not None:
        out["dst"] = event.dst
    if event.packet is not None:
        out["packet"] = str(event.packet)
    if event.time is not None:
        out["time"] = event.time
    if event.info:
        out["info"] = {k: v for k, v in event.info}
    return out


def event_from_dict(data: Mapping[str, Any]) -> Event:
    info = data.get("info")
    return Event(
        data["etype"],
        data["node"],
        data.get("src"),
        data.get("dst"),
        PacketKey.parse(data["packet"]) if "packet" in data else None,
        data.get("time"),
        tuple(sorted(info.items())) if info else (),
    )


def flow_to_dict(flow: EventFlow) -> dict[str, Any]:
    """JSON-compatible representation of a flow."""
    return {
        "packet": str(flow.packet) if flow.packet else None,
        "entries": [
            {
                "event": event_to_dict(e.event),
                "inferred": e.inferred,
                "provenance": e.provenance,
            }
            for e in flow.entries
        ],
        "happens_before": sorted(list(edge) for edge in flow.hb_edges),
        "omitted": [event_to_dict(e) for e in flow.omitted],
        "anomalies": list(flow.anomalies),
        "final_states": {str(n): s for n, s in flow.final_states.items()},
        "visited_states": {
            str(n): sorted(states) for n, states in flow.visited_states.items()
        },
    }


def flow_from_dict(data: Mapping[str, Any]) -> EventFlow:
    """Rebuild a flow from its JSON form."""
    flow = EventFlow(PacketKey.parse(data["packet"]) if data.get("packet") else None)
    for entry in data["entries"]:
        flow.append(
            event_from_dict(entry["event"]),
            inferred=entry["inferred"],
            provenance=entry.get("provenance", "logged"),
        )
    for before, after in data.get("happens_before", []):
        flow.add_order(before, after)
    flow.omitted.extend(event_from_dict(e) for e in data.get("omitted", []))
    flow.anomalies.extend(data.get("anomalies", []))
    flow.final_states.update(
        {int(n): s for n, s in data.get("final_states", {}).items()}
    )
    flow.visited_states.update(
        {
            int(n): frozenset(states)
            for n, states in data.get("visited_states", {}).items()
        }
    )
    return flow


def report_to_dict(report: LossReport) -> dict[str, Any]:
    return {
        "cause": report.cause.value,
        "position": report.position,
        "anchor": event_to_dict(report.anchor) if report.anchor else None,
    }


def report_from_dict(data: Mapping[str, Any]) -> LossReport:
    return LossReport(
        cause=LossCause(data["cause"]),
        position=data.get("position"),
        anchor=event_from_dict(data["anchor"]) if data.get("anchor") else None,
    )


def flows_to_json(flows: Mapping[PacketKey, EventFlow]) -> dict[str, Any]:
    """``{"p<o>.<s>": flow_to_dict(...)}`` sorted by packet key."""
    return {str(packet): flow_to_dict(flows[packet]) for packet in sorted(flows)}


def reports_to_json(reports: Mapping[PacketKey, LossReport]) -> dict[str, Any]:
    """``{"p<o>.<s>": report_to_dict(...)}`` sorted by packet key."""
    return {str(packet): report_to_dict(reports[packet]) for packet in sorted(reports)}


def dumps_canonical(data: Any) -> str:
    """Byte-stable JSON: sorted keys, no whitespace.

    The equivalence contract between the batch CLI (``refill analyze
    --flows-out``) and the serve layer's query API is *byte identity* of
    this form.  Flows reach it through their one encoder,
    :func:`flow_json` / :func:`encode_flows`, which writes exactly what
    this function writes for :func:`flow_to_dict`'s shape; every other
    document (reports, summaries, errors) is serialized here directly.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------- #
# the one flow encoder

#: :func:`dumps_canonical`'s settings, bound once for the encoder's small
#: nested pieces (per-node maps, happens-before pairs).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _value(value: Any) -> str:
    """One JSON scalar as :func:`dumps_canonical` writes it."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and value - value == 0.0:  # finite
        return float.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    return dumps_canonical(value)


def _info_json(info: tuple[tuple[str, Any], ...]) -> str:
    parts = []
    previous = None
    for key, value in info:
        if type(key) is not str or (previous is not None and key <= previous):
            # unsorted, duplicate or non-string keys: the dict rule decides
            return dumps_canonical(dict(info))
        parts.append(_json_str(key) + ":" + _value(value))
        previous = key
    return "{" + ",".join(parts) + "}"


def _event_json(event: Event, flow_packet: Any, flow_packet_json: str) -> str:
    """``event_to_dict(event)`` in canonical form (keys in sorted order).

    ``flow_packet_json`` is the encoded packet of the enclosing flow,
    reused when the event carries that very key object.
    """
    out = '{"dst":' + _value(event.dst) + "," if event.dst is not None else "{"
    out += '"etype":' + _value(event.etype)
    if event.info:
        out += ',"info":' + _info_json(event.info)
    out += ',"node":' + _value(event.node)
    packet = event.packet
    if packet is not None:
        out += ',"packet":' + (
            flow_packet_json if packet is flow_packet else _json_str(str(packet))
        )
    if event.src is not None:
        out += ',"src":' + _value(event.src)
    if event.time is not None:
        out += ',"time":' + _value(event.time)
    return out + "}"


def _by_node(states: Mapping[int, Any]) -> str:
    """A per-node map: keys ``str(node)`` in sorted order (a few nodes per
    flow, handed to the C encoder as one small dict)."""
    return _CANONICAL.encode({str(node): value for node, value in states.items()})


def flow_json(flow: EventFlow) -> str:
    """A flow's canonical JSON: its shape's template filled when the memo
    left one on the flow (see :class:`FlowTemplate`), else written field by
    field (:func:`_fields_json`)."""
    encoding = flow.encoding
    if encoding is not None:
        filled = _filled_json(flow, *encoding)
        if filled is not None:
            return filled
    return _fields_json(flow)


def _fields_json(flow: EventFlow) -> str:
    """A flow's canonical JSON, written straight from its fields.

    The bytes :func:`dumps_canonical` writes for the flow's dict form
    (:func:`event_to_dict` per event, ``str(node)`` keys, happens-before
    pairs and visited states sorted): object keys in sorted order, strings
    ASCII-escaped the way :mod:`json` escapes them, finite numbers as
    :mod:`json` writes them, anything else through :func:`dumps_canonical`.
    """
    packet = flow.packet
    packet_json = _json_str(str(packet))
    entries = ",".join([
        '{"event":' + _event_json(entry.event, packet, packet_json)
        + ',"inferred":' + _value(entry.inferred)
        + ',"provenance":' + _value(entry.provenance)
        + "}"
        for entry in flow.entries
    ])
    return (
        '{"anomalies":[' + ",".join([_value(a) for a in flow.anomalies])
        + '],"entries":[' + entries
        + '],"final_states":' + _by_node(flow.final_states)
        + ',"happens_before":' + _CANONICAL.encode(sorted(flow.hb_edges))
        + ',"omitted":['
        + ",".join([_event_json(e, packet, packet_json) for e in flow.omitted])
        + '],"packet":' + (packet_json if packet else "null")
        + ',"visited_states":' + _by_node(
            {node: sorted(states) for node, states in flow.visited_states.items()}
        )
        + "}"
    )


# --------------------------------------------------------------------- #
# shape templates


class FlowTemplate(NamedTuple):
    """The canonical JSON of every flow of one shape (:func:`shape_template`;
    the shape memo keeps one per shape, :class:`repro.core.memo.ShapeEncoding`).

    A shape fixes a flow's structure: its entries, their event labels,
    inferred flags and peers in rank terms, the happens-before pairs, the
    omitted events and each engine's states.  That is the literal text, cut
    into :attr:`chunks`.  Between two chunks sits a slot for a value the
    shape key does not hold.  A slot ``k >= 0`` takes value ``k`` of the
    packet key, the anomalies, the final and the visited state map (their
    keys sort as strings, and the ids' string order is not their rank
    order), then the node ids in rank order.  A slot ``-1`` takes the
    flow's next value in document order: an inferred entry's provenance,
    or a logged event's ``info`` fragment and then its time.  Times and
    ``info`` values are not in the key (``1``, ``1.0`` and ``True`` are
    one key and three encodings), so they are never literals.  A logged
    event's ``"time"`` key is: a flow with an untimed logged event (or a
    time :mod:`json` writes its own way: non-finite, not a plain ``int`` or
    ``float``) is written field by field.
    """

    chunks: tuple[str, ...]
    slots: tuple[int, ...]
    #: ``(len(entries), len(omitted))`` of the flows it fits
    sizes: tuple[int, int]
    #: per entry, whether it is logged; the indices of the logged omitted events
    logged: tuple[bool, ...]
    logged_omitted: tuple[int, ...]
    #: per engine: ``(rank, final state JSON, visited states JSON)``
    states: tuple[tuple[int, str, str], ...]


#: A slot while a template's text is written (JSON never holds a raw
#: control character: :mod:`json` escapes them); no number: ``-1``.
_SLOT = re.compile("\x00(\\d*)\x00")


@functools.lru_cache(maxsize=4096)
def _event_piece(
    etype: Any, node: Optional[int], src: Optional[int], dst: Optional[int],
    logged: bool, entry: bool,
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """One event of a template, or the entry holding it, as ``(chunks,
    slots)``: ids are slots of their ranks, a logged event's ``info`` and
    time and an inferred entry's provenance take the flow's next values.
    Shapes share most of their events, so each is cut once."""
    out = '{"dst":\x00%d\x00,' % (4 + dst) if dst is not None else "{"
    out += '"etype":' + _value(etype) + ("\x00\x00" if logged else "")
    out += ',"node":' + ("null" if node is None else "\x00%d\x00" % (4 + node))
    out += ',"packet":\x000\x00'
    if src is not None:
        out += ',"src":\x00%d\x00' % (4 + src)
    out += ',"time":\x00\x00}' if logged else "}"
    if entry:
        out = '{"event":' + out + (
            ',"inferred":false,"provenance":"logged"}' if logged
            else ',"inferred":true,"provenance":\x00\x00}'
        )
    parts = _SLOT.split(out)
    return (
        tuple(map(sys.intern, parts[0::2])),
        tuple([int(slot) if slot else -1 for slot in parts[1::2]]),
    )


@functools.lru_cache(maxsize=4096)
def _state_json(state: Any, visited: tuple[Any, ...]) -> tuple[str, str]:
    """An engine's final state and its sorted visited states, as JSON."""
    return _value(state), "[" + ",".join(map(_value, sorted(visited))) + "]"


def shape_template(
    entries: Sequence[tuple[Any, ...]],
    omitted: Sequence[tuple[Any, ...]],
    happens_before: Iterable[tuple[int, int]],
    states: Iterable[tuple[int, Any, tuple[Any, ...]]],
) -> FlowTemplate:
    """The template of one shape's flows, from the shape in rank terms.

    ``entries`` and ``omitted`` describe each event as ``(etype, node, src,
    dst, logged)``, ids as ranks (``None``: no id); logged entries are the
    store's (``"logged"`` provenance), the others inferred.  ``states`` is
    ``(rank, final state, visited states)`` per engine.
    """
    chunks: list[str] = [""]
    slots: list[int] = []

    def text(literal: str) -> None:
        chunks[-1] += literal

    def slot(value: int) -> None:
        slots.append(value)
        chunks.append("")

    def events(described: Sequence[tuple[Any, ...]], entry: bool) -> None:
        separator = ""
        for event in described:
            piece, piece_slots = _event_piece(*event, entry)
            chunks[-1] += separator + piece[0]
            chunks.extend(piece[1:])
            slots.extend(piece_slots)
            separator = ","

    text('{"anomalies":[')
    slot(1)
    text('],"entries":[')
    events(entries, True)
    text('],"final_states":')
    slot(2)
    pairs = ",".join(["[%d,%d]" % pair for pair in sorted(happens_before)])
    text(',"happens_before":[' + pairs + '],"omitted":[')
    events(omitted, False)
    text('],"packet":')
    slot(0)
    text(',"visited_states":')
    slot(3)
    text("}")
    return FlowTemplate(
        tuple(map(sys.intern, chunks)),  # shapes share their chunks: one copy each
        tuple(slots),
        (len(entries), len(omitted)),
        tuple([event[4] for event in entries]),
        tuple([j for j, event in enumerate(omitted) if event[4]]),
        tuple(sorted([(rank,) + _state_json(state, visited) for rank, state, visited in states])),
    )


def _filled_json(flow: EventFlow, shape: Any, ids: Sequence[int]) -> Optional[str]:
    """``flow``'s template (``shape.template``, ``ids`` its node ids in rank
    order) filled with its own ids, packet, anomalies, provenance and
    logged events; ``None`` when the flow no longer fits it or a logged
    time is one the template does not write."""
    template = shape.template
    entries, omitted, packet = flow.entries, flow.omitted, flow.packet
    if packet is None or (len(entries), len(omitted)) != template.sizes:
        return None
    for node in ids:
        if type(node) is not int:
            return None
    # the values of the ``-1`` slots, in document order
    values: list[str] = []
    add = values.append
    items: list[Any] = [
        entry.event if logged else entry for entry, logged in zip(entries, template.logged)
    ]
    items += [omitted[j] for j in template.logged_omitted]
    for item in items:
        if type(item) is FlowEntry:  # inferred
            add(_value(item.provenance))
            continue
        if item.packet is not packet and item.packet != packet:
            return None
        time = item.time
        if type(time) is float:
            if time - time != 0.0:  # not finite
                return None
        elif type(time) is not int:
            return None
        add(',"info":' + _info_json(item.info) if item.info else "")
        add(repr(time))  # as json writes it
    names = [*map(str, ids)]
    by_key = sorted([(names[rank], final, visited) for rank, final, visited in template.states])
    fixed = [
        _json_str(str(packet)),
        ",".join([_value(a) for a in flow.anomalies]),
        "{" + ",".join(['"' + key + '":' + final for key, final, _ in by_key]) + "}",
        "{" + ",".join(['"' + key + '":' + visited for key, _, visited in by_key]) + "}",
        *names,
    ]
    take = iter(values).__next__
    slots = template.slots
    text = [""] * (2 * len(slots) + 1)
    text[0::2] = template.chunks
    text[1::2] = [fixed[slot] if slot >= 0 else take() for slot in slots]
    return "".join(text)


def _document_order(
    flows: Mapping[PacketKey, EventFlow]
) -> list[tuple[str, EventFlow]]:
    """``(str(packet), flow)`` in string order (``"p1.10"`` before
    ``"p1.2"``), as sorted keys order them."""
    return sorted(
        ((str(packet), flow) for packet, flow in flows.items()), key=lambda kv: kv[0]
    )


def encode_flows(flows: Mapping[PacketKey, EventFlow]) -> str:
    """The flows document: ``{"p<o>.<s>": flow_json(...)}``, canonical.

    Each flow is encoded once and the pieces are joined once.
    """
    return "".join(flows_document_parts(flows))


def flows_document_parts(flows: Mapping[PacketKey, EventFlow]) -> Iterator[str]:
    """:func:`encode_flows`'s document in pieces, one per flow, for a
    writer that need not hold the whole document (``refill analyze
    --flows-out``)."""
    separator = "{"
    for key, flow in _document_order(flows):
        yield separator + _json_str(key) + ":" + flow_json(flow)
        separator = ","
    yield "}" if flows else "{}"
