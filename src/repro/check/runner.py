"""Orchestration for ``refill check`` plus the pipeline pre-flight gate.

:func:`run_check` runs every analyzer family over a deployment and returns
one :class:`~repro.check.findings.CheckReport`; it instruments itself
through :mod:`repro.obs` (``check.*`` spans, ``check.findings`` counters)
so pre-flight cost and outcomes show up in the run's metrics snapshot.

:func:`preflight_check` is the thin gate the analysis pipeline calls before
reconstruction: model errors raise :class:`PreflightError` because a broken
template silently corrupts every reconstructed flow, while corpus findings
never block — field data is expected to be dirty and the store loader is
tolerant by design.
"""

from __future__ import annotations

from typing import Optional

from repro.check.corpus import check_corpus
from repro.check.crossfsm import DeploymentSpec, check_templates
from repro.check.findings import CheckReport, Finding, Severity
from repro.fsm.templates import FsmTemplate
from repro.obs import get_registry, span


class PreflightError(RuntimeError):
    """A deployment failed its pre-flight static analysis."""

    def __init__(self, findings: list[Finding]) -> None:
        self.findings = findings
        detail = "; ".join(f.format() for f in findings[:5])
        more = f" (+{len(findings) - 5} more)" if len(findings) > 5 else ""
        super().__init__(f"pre-flight check failed: {detail}{more}")


def run_check(
    spec: DeploymentSpec,
    logs_dir=None,
    *,
    max_per_rule: int = 8,
) -> CheckReport:
    """Static-analyze a whole deployment.

    Always checks the role templates; additionally lints the log corpus at
    ``logs_dir`` when one is given.
    """
    report = CheckReport()
    with span("check"):
        with span("check.templates"):
            report.extend(check_templates(spec))
        report.stats["roles"] = len(spec.roles)
        _count_findings(report.findings)
        if logs_dir is not None:
            with span("check.corpus"):
                corpus_findings, stats = check_corpus(
                    logs_dir, spec, max_per_rule=max_per_rule
                )
            report.extend(corpus_findings)
            report.stats.update(stats)
            record_corpus(corpus_findings, stats)
    return report


def record_corpus(findings: list[Finding], stats: dict[str, int]) -> None:
    """Count one corpus lint's results: ``check.corpus.*`` plus its findings."""
    registry = get_registry()
    registry.counter("check.corpus.lines").inc(stats.get("lines", 0))
    registry.counter("check.corpus.corrupt").inc(stats.get("corrupt", 0))
    _count_findings(findings)


def _count_findings(findings: list[Finding]) -> None:
    registry = get_registry()
    for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO):
        count = sum(1 for f in findings if f.severity is severity)
        if count:
            registry.counter("check.findings", severity=str(severity)).inc(count)


def model_errors(report: CheckReport) -> list[Finding]:
    """Error findings about the *model* (templates), not the corpus.

    These are the findings that justify refusing to reconstruct: corrupt
    log data is survivable (tolerant decoding), a broken FSM is not.
    """
    return [f for f in report.errors if not f.code.startswith("LC")]


def preflight_check(
    template: "FsmTemplate | object",
    *,
    raise_on_error: bool = True,
) -> Optional[CheckReport]:
    """Gate a pipeline run on its template's static analysis.

    ``template`` is whatever a
    :class:`~repro.core.session.ReconstructionSession` carries — a single
    :class:`FsmTemplate` or a per-node factory.  Factories cannot be
    enumerated statically, so they pass without analysis (``None`` return).
    Raises :class:`PreflightError` on model errors unless told otherwise.
    """
    if not isinstance(template, FsmTemplate):
        return None
    spec = DeploymentSpec(roles={template.name: template})
    with span("check.preflight"):
        report = run_check(spec)
    errors = model_errors(report)
    if errors and raise_on_error:
        raise PreflightError(errors)
    return report
