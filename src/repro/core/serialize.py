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
joined once, with no dict copy of the document.  :func:`flow_to_dict` and
:func:`flows_to_json` build the same document as plain dicts, field by
field: a second, independent route to the same bytes through
:func:`dumps_canonical`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Mapping

from repro.core.diagnosis import LossCause, LossReport
from repro.core.event_flow import EventFlow
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
    return "{" + ",".join(
        [_json_str(key) + ":" + flow_json(flow) for key, flow in _document_order(flows)]
    ) + "}"

