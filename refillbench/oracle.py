"""Correctness oracle: the in-process reference and accuracy scoring.

Every door's flows must equal, byte for byte, what an in-process batch
:class:`~repro.core.session.ReconstructionSession` produces over the same
collected logs; accuracy is scored from the door's own bytes against the
simulation's ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from repro.analysis.accuracy import AccuracyReport, score_run
from repro.analysis.causes import attribute_server_outages
from repro.baselines.sink_view import SinkView
from repro.core.diagnosis import LossReport
from repro.core.serialize import dumps_canonical, flow_from_dict, flows_to_json, reports_to_json
from repro.core.session import ReconstructionSession
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.events.store import StoreMetadata

from refillbench.corpus import Corpus


def canonical_bytes(doc) -> bytes:
    """A JSON document as the doors write it (canonical form plus newline)."""
    return (dumps_canonical(doc) + "\n").encode("utf-8")


@dataclass
class Reference:
    flows: bytes
    reports: bytes
    packets: list[str]


def reference(corpus: Corpus) -> Reference:
    """Flows and raw reports of an in-process batch session over the corpus."""
    session = ReconstructionSession(delivery_node=corpus.metadata.base_station)
    flows = session.reconstruct(corpus.logs)
    return Reference(
        flows=canonical_bytes(flows_to_json(flows)),
        reports=canonical_bytes(reports_to_json(session.diagnose(flows))),
        packets=[str(p) for p in flows],
    )


def mismatches(got: bytes, want: bytes) -> int:
    """Packets whose canonical flow bytes differ (missing or extra count too)."""
    if got == want:
        return 0
    try:
        ours = json.loads(got)
    except ValueError:
        return len(json.loads(want)) or 1
    theirs = json.loads(want)
    keys = set(ours) | set(theirs)
    return sum(
        1 for k in keys
        if k not in ours or k not in theirs
        or dumps_canonical(ours[k]) != dumps_canonical(theirs[k])
    ) or 1  # same packets, different bytes (e.g. whitespace) still mismatch


def attribute(
    reports: Mapping[PacketKey, LossReport],
    logs: Mapping[int, NodeLog],
    metadata: StoreMetadata,
) -> dict[PacketKey, LossReport]:
    """Server-outage attribution exactly as ``refill analyze`` applies it."""
    bs = metadata.base_station
    arrivals = [
        (e.packet, e.time)
        for e in logs.get(bs, NodeLog(bs))
        if e.etype == "recv" and e.packet is not None
    ]
    sink_view = SinkView(arrivals, metadata.gen_interval)
    estimates = {p: sink_view.estimate_loss_time(p) for p in reports}
    return attribute_server_outages(
        reports, estimates, outages=metadata.outages,
        sink=metadata.sink, base_station=bs,
    )


def score(flows_bytes: bytes, corpus: Corpus) -> AccuracyReport:
    """Accuracy of a door's flows: diagnose + attribute, then score."""
    flows = {
        PacketKey.parse(key): flow_from_dict(data)
        for key, data in json.loads(flows_bytes).items()
    }
    session = ReconstructionSession(delivery_node=corpus.metadata.base_station)
    reports = attribute(session.diagnose(flows), corpus.logs, corpus.metadata)
    return score_run(
        flows, reports, corpus.logs, corpus.truth, sink=corpus.metadata.sink
    )
