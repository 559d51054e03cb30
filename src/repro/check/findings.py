"""The shared findings engine for ``refill check``.

Every analyzer — cross-FSM, log-corpus, and the re-emitted per-template
lint of :mod:`repro.fsm.validate` — reports through one model: a
:class:`Finding` with a severity, a stable rule code, a location and a
message.  Stable codes (``XF*`` cross-FSM, ``TP*`` per-template, ``LC*``
log-corpus) let CI pipelines grep for specific defects and let
``docs/STATIC_ANALYSIS.md`` catalogue remediation per rule.

Reports render deterministically: findings sort by severity (errors
first), then code, location and message, so two runs over the same
deployment produce byte-identical output.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping


class Severity(enum.IntEnum):
    """How bad a finding is; orders reports and drives exit codes."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


#: Stable rule-code catalogue.  Every :class:`Finding` must carry one of
#: these codes; ``docs/STATIC_ANALYSIS.md`` documents each with a
#: triggering example and remediation (enforced by a test).
RULES: dict[str, str] = {
    # cross-FSM analysis (whole-deployment template checks)
    "XF001": "prerequisite state unresolvable in any role template",
    "XF002": "inter-node prerequisite cycle among explicit-node rules",
    "XF003": "ambiguous shortest transition sequence for a (state, label) jump",
    "XF004": "event label shared by templates of different roles",
    "XF005": "explicit-node prerequisite state absent from the peer node's template",
    "XF006": "prerequisite rule attached to a label no role template emits",
    "XF007": "recursive prerequisite chain through peer selectors",
    # per-template structural lint (re-emitted fsm/validate findings)
    "TP001": "nondeterministic normal transitions for a (state, label) pair",
    "TP002": "state unreachable from the initial state",
    "TP003": "terminal state (no outgoing transitions)",
    "TP004": "prerequisite rule references a label/state unknown to its own template",
    "TP005": "dead (state, label) pair: an observed event would be omitted",
    # log-corpus lint
    "LC001": "log line failed to decode",
    "LC002": "event node id disagrees with the file it sits in",
    "LC003": "event label unknown to every role template",
    "LC004": "packet referential-integrity violation",
    "LC005": "append-order anomaly within a node log",
    "LC006": "store metadata missing or unreadable",
    "LC007": "additional findings suppressed (per-rule cap reached)",
    # concurrency & determinism code analysis (refill check --code)
    "CC000": "source file failed to parse",
    "CC001": "blocking call inside an async function",
    "CC002": "asyncio task created but its handle is dropped",
    "CC003": "asyncio.CancelledError caught without re-raise",
    "CC004": "asyncio.wait_for/asyncio.timeout used outside the serve compat shim",
    "CC005": "stream writer closed without awaiting wait_closed",
    "CC006": "ContextVar.set token discarded",
    "CC007": "coroutine called but never awaited",
    "CC008": "wall-clock read in a seed-deterministic module",
    "CC009": "unseeded global RNG draw in a seed-deterministic module",
    "CC010": "wall-clock read inside a hot-path loop",
    "CC011": "asyncio.get_event_loop is deprecated and loop-state dependent",
    "CC012": "bare/BaseException handler in async code without re-raise",
    "CC013": "suppression comment malformed or matched no finding",
    "CC014": "additional code findings suppressed (per-rule cap reached)",
}

#: Rule catalogues registered by other subsystems (e.g. the stress
#: harness's ``ST*`` oracle IDs).  Kept separate from :data:`RULES` so the
#: static-analysis catalogue — and the doc-coverage test pinning it to
#: ``docs/STATIC_ANALYSIS.md`` — stays closed; extensions document their
#: codes in their own catalogue (``docs/TESTING.md`` for oracles).
EXTRA_RULES: dict[str, str] = {}


def register_rules(rules: Mapping[str, str]) -> None:
    """Register additional rule codes usable by :class:`Finding`.

    Idempotent for identical re-registration; raises on a code that would
    collide with a built-in rule or redefine an extension differently.
    """
    for code, summary in rules.items():
        if code in RULES:
            raise ValueError(f"rule code {code!r} collides with a built-in rule")
        existing = EXTRA_RULES.get(code)
        if existing is not None and existing != summary:
            raise ValueError(f"rule code {code!r} already registered differently")
        EXTRA_RULES[code] = summary


@dataclass(frozen=True, slots=True)
class Finding:
    """One static-analysis finding.

    Attributes
    ----------
    severity:
        :class:`Severity` level; errors make ``refill check`` exit non-zero.
    code:
        Stable rule code from :data:`RULES`.
    location:
        Where the defect sits — a template/role name for model findings,
        ``<file>:<line>`` for corpus findings.
    message:
        Human-readable description, deterministic for a given deployment.
    """

    severity: Severity
    code: str
    location: str
    message: str

    def __post_init__(self) -> None:
        if self.code not in RULES and self.code not in EXTRA_RULES:
            raise ValueError(f"unknown rule code {self.code!r}")

    @property
    def sort_key(self) -> tuple[int, str, str, str]:
        """Deterministic report order: errors first, then code/location."""
        return (-int(self.severity), self.code, self.location, self.message)

    def to_json(self) -> dict[str, str]:
        return {
            "severity": str(self.severity),
            "code": self.code,
            "location": self.location,
            "message": self.message,
        }

    def format(self) -> str:
        return f"{str(self.severity):<7} {self.code} {self.location}: {self.message}"


def error(code: str, location: str, message: str) -> Finding:
    return Finding(Severity.ERROR, code, location, message)


def warning(code: str, location: str, message: str) -> Finding:
    return Finding(Severity.WARNING, code, location, message)


def info(code: str, location: str, message: str) -> Finding:
    return Finding(Severity.INFO, code, location, message)


@dataclass
class CheckReport:
    """All findings of one ``refill check`` run plus scan statistics."""

    findings: list[Finding] = field(default_factory=list)
    #: Scan statistics (files/lines/events examined), for the report footer.
    stats: dict[str, int] = field(default_factory=dict)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """Whether the deployment passed (no error-severity findings)."""
        return not self.errors

    def exit_code(self, *, strict: bool = False) -> int:
        """CI exit status: 1 on errors (or warnings under ``strict``)."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def sorted_findings(self) -> list[Finding]:
        return sorted(self.findings, key=lambda f: f.sort_key)

    def counts_by_code(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        return dict(sorted(counts.items()))

    def render_text(self) -> str:
        """Deterministic plain-text report."""
        lines = [f.format() for f in self.sorted_findings()]
        summary = (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info"
        )
        if self.stats:
            scanned = ", ".join(f"{k}={v}" for k, v in sorted(self.stats.items()))
            summary += f" [{scanned}]"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.infos),
            },
            "by_code": self.counts_by_code(),
            "stats": dict(sorted(self.stats.items())),
            "findings": [f.to_json() for f in self.sorted_findings()],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def cap_per_rule(
    findings: Iterable[Finding], max_per_rule: int, *, summary_code: str = "LC007"
) -> list[Finding]:
    """Bound findings per (code, file) group, appending cap summaries.

    A 60 %-corrupt log shard would otherwise drown the report in thousands
    of identical ``LC001`` lines.  Grouping is by code plus the file part of
    the location (text before ``:``), so distinct files keep their own
    budget.  Suppressed groups gain one :data:`Severity.INFO` summary under
    ``summary_code`` (``LC007`` for corpus lint, ``CC014`` for code lint).
    """
    if max_per_rule <= 0:
        return list(findings)
    kept: list[Finding] = []
    counts: dict[tuple[str, str], int] = {}
    worst: dict[tuple[str, str], Severity] = {}
    for f in findings:
        group = (f.code, f.location.split(":", 1)[0])
        counts[group] = counts.get(group, 0) + 1
        worst[group] = max(worst.get(group, f.severity), f.severity)
        if counts[group] <= max_per_rule:
            kept.append(f)
    for (code, file_part), n in sorted(counts.items()):
        if n > max_per_rule:
            kept.append(
                info(
                    summary_code,
                    file_part,
                    f"{n - max_per_rule} additional {code} "
                    f"({str(worst[(code, file_part)])}) finding(s) suppressed",
                )
            )
    return kept
