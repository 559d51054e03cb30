"""Ground-truth and metamorphic oracles for fault-injection campaigns.

Every oracle has a stable ID (``ST*``), registered with the shared findings
engine so campaign reports render through the same
:class:`~repro.check.findings.CheckReport` machinery as ``refill check`` —
CI greps a campaign report for oracle IDs exactly the way it greps a check
report for rule codes.  ``docs/TESTING.md`` documents each ID with its
failure meaning and replay recipe (enforced by a doc-coverage test).

The oracles (paper Table II turned into an automated harness):

- **ST001 crash-safety** — reconstruction must not raise on any corpus the
  ``refill check`` corpus lint passes at warning level (no error findings);
  corpora the lint rejects are recorded as *rejected*, not violations.
- **ST002 determinism** — two identical runs over the same corpus must
  produce byte-identical flows and diagnoses.
- **ST003 route equivalence** — independent reconstruction routes (a
  memo-free per-packet run, a node-by-node ingest and refresh) must agree
  byte-for-byte with the default session on corrupted corpora, not only
  clean ones.
- **ST004 locality** — REFILL is per-packet independent: packets whose
  evidence a corruption did not touch must keep byte-identical flows.
- **ST005 monotonicity** — diagnosis accuracy must not *improve* as log
  loss worsens (checked over a severity ladder by the campaign engine).
- **ST006 differential accuracy** — scored against simulator ground truth,
  cause accuracy and inferred-event precision/recall must clear the
  campaign's floors.
- **ST007 coverage** — the reconstructed packet set must equal the set of
  packets with any surviving evidence (nothing dropped, nothing invented).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.analysis.accuracy import cause_accuracy, event_recovery
from repro.check.findings import Finding, error, register_rules
from repro.core.diagnosis import LossReport
from repro.core.serialize import flow_json
from repro.core.session import ReconstructionSession
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.merge import group_by_packet
from repro.events.packet import PacketKey
from repro.events.store import load_store
from repro.obs import get_registry, span
from repro.simnet.truth import GroundTruth

#: Stable oracle catalogue; every ID is documented in ``docs/TESTING.md``
#: (doc-coverage-enforced) and usable as a :class:`Finding` code.
ORACLES: dict[str, str] = {
    "ST001": "reconstruction crashed on a corpus the lint passes at warning level",
    "ST002": "nondeterminism: identical runs produced different flows or diagnoses",
    "ST003": "route divergence: an independent route disagrees with the default session",
    "ST004": "locality violation: a packet untouched by corruption changed flows",
    "ST005": "monotonicity violation: accuracy improved as log loss worsened",
    "ST006": "differential accuracy below the campaign floor",
    "ST007": "coverage mismatch: surviving evidence and flows name different packets",
}

register_rules(ORACLES)


def _per_packet_route(logs, delivery_node):
    """Memo-free: one :meth:`ReconstructionSession.reconstruct_group` per
    packet, so no shape is ever replayed."""
    session = ReconstructionSession(delivery_node=delivery_node)
    flows = {
        packet: session.reconstruct_group(packet, events_by_node)
        for packet, events_by_node in sorted(group_by_packet(logs).items())
    }
    return flows, session.diagnose(flows)


def _ingest_route(logs, delivery_node):
    """The serve framing: each node's log ingested and refreshed on its own,
    so packets are re-derived as their evidence grows."""
    session = ReconstructionSession(delivery_node=delivery_node)
    for node in sorted(logs):
        session.ingest({node: logs[node]})
        session.refresh()
    return session.flows(), session.reports()


#: ST003's routes, each ``(logs, delivery_node) -> (flows, reports)``.
ROUTES = {"per-packet": _per_packet_route, "incremental": _ingest_route}


@dataclass(frozen=True)
class OracleConfig:
    """Thresholds and comparison set of one campaign's oracle bundle."""

    #: :data:`ROUTES` compared byte-for-byte against the default session
    #: (the field keeps the name reproducer files already carry).
    backends: tuple[str, ...] = tuple(ROUTES)
    #: Differential floors (only scored when ground truth is available).
    min_cause_accuracy: float = 0.3
    min_event_precision: float = 0.3
    min_event_recall: float = 0.05
    #: Slack for the severity-ladder accuracy comparison (ST005).
    monotonicity_tolerance: float = 0.05
    #: Loss-scale ladder driven through :meth:`LogLossSpec.scaled`.
    monotonicity_factors: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0)

    def __post_init__(self) -> None:
        unknown = sorted(set(self.backends) - set(ROUTES))
        if unknown:
            raise ValueError(f"unknown ST003 routes {unknown}; choose from {sorted(ROUTES)}")

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "OracleConfig":
        known = {f: data[f] for f in data}
        for key in ("backends", "monotonicity_factors"):
            if key in known:
                known[key] = tuple(known[key])
        return replace(cls(), **known)


@dataclass
class CaseOutcome:
    """What one case's oracle bundle concluded."""

    findings: list[Finding] = field(default_factory=list)
    #: Deterministic scalar observations (accuracy scores, packet counts).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: The store was unusable (lint errors + load/reconstruct failure) —
    #: expected behavior, not a violation.
    rejected: bool = False
    reason: str = ""

    @property
    def violated(self) -> list[str]:
        return sorted({f.code for f in self.findings})


# --------------------------------------------------------------------- #
# fingerprints (byte-exact comparison currency of the metamorphic oracles)


def flow_fingerprints(flows) -> dict[str, str]:
    """Canonical JSON per packet — byte-identical iff the flows are."""
    return {str(p): flow_json(f) for p, f in flows.items()}


def report_fingerprints(reports: Mapping[PacketKey, LossReport]) -> dict[str, str]:
    return {
        str(p): f"{r.cause}@{r.position}" for p, r in reports.items()
    }


def _event_fingerprint(e: Event) -> str:
    """Canonical event string, total over *decoded* events.

    Not the codec encoder: a tolerantly-decoded garbled line can carry
    values the strict encoder refuses (e.g. a ``=`` inside a value), and
    the locality oracle must fingerprint whatever the loader accepted.
    Timestamps are kept — a corruption that only altered an event's time
    still "touched" the packet (its flow may carry times).
    """
    return repr((e.etype, e.node, e.src, e.dst, str(e.packet), e.time, e.info))


def evidence_fingerprints(logs: Mapping[int, NodeLog]) -> dict[PacketKey, str]:
    """Per-packet canonical view of the evidence a corpus holds for it."""
    grouped = group_by_packet(logs)
    return {
        packet: json.dumps(
            {
                str(node): [_event_fingerprint(e) for e in events]
                for node, events in sorted(by_node.items())
            },
            sort_keys=True,
        )
        for packet, by_node in grouped.items()
    }


def _first_diff(a: Mapping[str, str], b: Mapping[str, str]) -> str:
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return key
    return "<none>"


# --------------------------------------------------------------------- #
# the per-case oracle bundle


@dataclass
class StoreCase:
    """One corpus under test plus everything the oracles may compare against."""

    label: str
    corpus_dir: Any  # path-like
    #: Pre-fault twin of the corpus (enables the locality oracle).
    base_dir: Optional[Any] = None
    #: Simulator ground truth (enables the differential oracle).
    truth: Optional[GroundTruth] = None
    #: Whether the corpus lint found zero error-severity findings.
    lint_clean: bool = True
    config: OracleConfig = field(default_factory=OracleConfig)


def _reconstruct(directory):
    """One fresh-session reconstruction + diagnosis over a store directory."""
    loaded = load_store(directory)
    session = ReconstructionSession(delivery_node=loaded.metadata.base_station)
    result = session.run(loaded.logs)
    return loaded, result.flows, result.reports


def run_store_oracles(
    case: StoreCase, *, only: Optional[set[str]] = None
) -> CaseOutcome:
    """Run every store-applicable oracle over one corpus.

    Campaign- and replay-shared: ST001/ST002/ST003/ST007 always, ST004 when
    a pre-fault twin is present, ST006 when ground truth is present.  ST005
    needs the collection pipeline and lives in the campaign engine.

    ``only`` restricts the bundle to a subset of oracle IDs — the shrinker
    uses it to re-check just the violated oracles per reduction trial
    (ST001, being a property of the shared reconstruction, always runs).
    """
    active = set(ORACLES) if only is None else set(only)
    outcome = CaseOutcome()
    registry = get_registry()
    with span("stress.oracles"):
        try:
            loaded, flows, reports = _reconstruct(case.corpus_dir)
        except Exception as exc:  # noqa: BLE001 — the crash oracle's whole point
            if case.lint_clean:
                outcome.findings.append(
                    error(
                        "ST001",
                        case.label,
                        f"reconstruction raised {type(exc).__name__}: {exc}",
                    )
                )
            else:
                outcome.rejected = True
                outcome.reason = f"{type(exc).__name__}: {exc}"
            registry.counter("stress.cases.rejected").inc(int(outcome.rejected))
            return outcome

        reference = flow_fingerprints(flows)
        ref_reports = report_fingerprints(reports)
        outcome.metrics["packets"] = len(flows)
        outcome.metrics["corrupt_lines"] = sum(loaded.corrupt_lines.values())

        if "ST002" in active:
            _check_determinism(case, reference, ref_reports, outcome)
        if "ST003" in active:
            _check_routes(case, loaded, reference, ref_reports, outcome)
        if "ST007" in active:
            _check_coverage(case, loaded.logs, flows, outcome)
        if case.base_dir is not None and "ST004" in active:
            _check_locality(case, loaded.logs, reference, outcome)
        if case.truth is not None and "ST006" in active:
            _check_differential(case, loaded, flows, reports, outcome)

    registry.counter("stress.oracles.checked").inc()
    if outcome.findings:
        registry.counter("stress.violations").inc(len(outcome.findings))
    return outcome


def _check_determinism(case, reference, ref_reports, outcome) -> None:
    _, flows2, reports2 = _reconstruct(case.corpus_dir)
    if flow_fingerprints(flows2) != reference:
        outcome.findings.append(
            error(
                "ST002",
                case.label,
                "re-running reconstruction changed flow "
                f"{_first_diff(reference, flow_fingerprints(flows2))}",
            )
        )
    elif report_fingerprints(reports2) != ref_reports:
        outcome.findings.append(
            error(
                "ST002",
                case.label,
                "re-running diagnosis changed packet "
                f"{_first_diff(ref_reports, report_fingerprints(reports2))}",
            )
        )


def _check_routes(case, loaded, reference, ref_reports, outcome) -> None:
    for name in case.config.backends:
        flows_r, reports_r = ROUTES[name](loaded.logs, loaded.metadata.base_station)
        got = flow_fingerprints(flows_r)
        if got != reference:
            outcome.findings.append(
                error(
                    "ST003",
                    case.label,
                    f"route {name!r} diverges from the default session on flow "
                    f"{_first_diff(reference, got)}",
                )
            )
        elif report_fingerprints(reports_r) != ref_reports:
            outcome.findings.append(
                error(
                    "ST003",
                    case.label,
                    f"route {name!r} diverges from the default session on diagnosis "
                    f"{_first_diff(ref_reports, report_fingerprints(reports_r))}",
                )
            )


def _check_coverage(case, logs, flows, outcome) -> None:
    evidence = {
        e.packet for log in logs.values() for e in log if e.packet is not None
    }
    missing = sorted(evidence - set(flows))
    invented = sorted(set(flows) - evidence)
    if missing:
        outcome.findings.append(
            error(
                "ST007",
                case.label,
                f"{len(missing)} packet(s) with surviving evidence have no "
                f"flow (first: {missing[0]})",
            )
        )
    if invented:
        outcome.findings.append(
            error(
                "ST007",
                case.label,
                f"{len(invented)} flow(s) cite packets with no surviving "
                f"evidence (first: {invented[0]})",
            )
        )


def _check_locality(case, corrupt_logs, reference, outcome) -> None:
    base_loaded, base_flows, _ = _reconstruct(case.base_dir)
    base_evidence = evidence_fingerprints(base_loaded.logs)
    corrupt_evidence = evidence_fingerprints(corrupt_logs)
    untouched = [
        p
        for p, fp in sorted(base_evidence.items())
        if corrupt_evidence.get(p) == fp
    ]
    base_fp = flow_fingerprints(base_flows)
    changed = [
        p for p in untouched if reference.get(str(p)) != base_fp.get(str(p))
    ]
    outcome.metrics["untouched_packets"] = len(untouched)
    if changed:
        outcome.findings.append(
            error(
                "ST004",
                case.label,
                f"{len(changed)} untouched packet(s) changed flows "
                f"(first: {changed[0]})",
            )
        )


def _check_differential(case, loaded, flows, reports, outcome) -> None:
    acc, position_acc, _confusion = cause_accuracy(
        reports,
        case.truth,
        sink=loaded.metadata.sink,
        outage_attributed=False,
    )
    precision, recall = event_recovery(flows, loaded.logs, case.truth)
    outcome.metrics.update(
        cause_accuracy=round(acc, 4),
        position_accuracy=round(position_acc, 4),
        event_precision=round(precision, 4),
        event_recall=round(recall, 4),
    )
    cfg = case.config
    for name, value, floor in (
        ("cause accuracy", acc, cfg.min_cause_accuracy),
        ("event precision", precision, cfg.min_event_precision),
        ("event recall", recall, cfg.min_event_recall),
    ):
        if value < floor:
            outcome.findings.append(
                error(
                    "ST006",
                    case.label,
                    f"{name} {value:.3f} below the campaign floor {floor:.3f}",
                )
            )
