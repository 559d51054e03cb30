"""JSON serialization of event flows and diagnoses.

Reconstruction results feed dashboards and downstream tooling; this module
round-trips :class:`~repro.core.event_flow.EventFlow` (entries, provenance,
happens-before edges, omissions, anomalies, engine states) and
:class:`~repro.core.diagnosis.LossReport` through plain JSON-compatible
dicts.
"""

from __future__ import annotations

import json
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
    this form — both sides must serialize through here.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
