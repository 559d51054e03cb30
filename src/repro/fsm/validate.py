"""Template linting (paper §IV-A: FSMs are hand-written or mined — check them).

Hand-written FSMs drift from the protocol and mined FSMs inherit trace
noise; either way a broken template silently degrades inference.  The
validator checks the structural properties the engine relies on:

- **determinism** — at most one normal transition per (state, label);
- **connectivity** — every state reachable from the initial state;
- **liveness** — every non-terminal state has an outgoing transition
  (reported as info, not an error: drop states are legitimately terminal);
- **prerequisite sanity** — every rule references states that exist in the
  graph (explicit-node rules against the *peer* node's template are
  resolved by :func:`validate_role_family` / the cross-FSM analyzer in
  :mod:`repro.check.crossfsm`);
- **intra coverage** — which labels are dead at which states (neither a
  normal transition nor a derived jump), i.e. where logs will be omitted.

Findings are reported twice, deliberately: the legacy ``errors`` /
``warnings`` string lists (kept for existing callers) and the shared
:class:`~repro.check.findings.Finding` model with stable ``TP*`` rule
codes, so old and new checks report uniformly through ``refill check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.check.findings import Finding, Severity
from repro.fsm.templates import FsmTemplate


@dataclass
class ValidationReport:
    """Findings for one template (or a role family)."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: (state, label) pairs where an observed event would be omitted.
    dead_pairs: list[tuple[str, str]] = field(default_factory=list)
    #: The same findings through the shared model (stable ``TP*`` codes).
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def _add(
        self, severity: Severity, code: str, location: str, message: str
    ) -> None:
        self.findings.append(Finding(severity, code, location, message))
        if severity is Severity.ERROR:
            self.errors.append(message)
        elif severity is Severity.WARNING:
            self.warnings.append(message)


def validate_template(template: FsmTemplate) -> ValidationReport:
    """Lint ``template``; see module docstring for the checks."""
    report = ValidationReport()
    graph = template.graph
    loc = f"template {template.name!r}"

    # determinism per (state, label)
    for state in graph.states:
        for label in graph.events:
            edges = graph.transitions_from(state, label)
            if len(edges) > 1:
                report._add(
                    Severity.ERROR,
                    "TP001",
                    loc,
                    f"nondeterministic: {len(edges)} transitions for "
                    f"({state!r}, {label!r})",
                )

    # connectivity from the initial state
    compiled = template.compiled
    initial = compiled.index[graph.initial]
    for state in graph.states:
        if compiled.dist(initial, compiled.index[state], compiled.full_mask) is None:
            report._add(
                Severity.ERROR,
                "TP002",
                loc,
                f"state {state!r} unreachable from {graph.initial!r}",
            )

    # liveness info
    for state in graph.states:
        if not graph.outgoing(state):
            report._add(Severity.WARNING, "TP003", loc, f"state {state!r} is terminal")

    # prerequisite sanity: referenced states exist *somewhere sensible*.
    # Rules usually point at the same template (uniform-role protocols);
    # unknown states are warnings because multi-role wiring is legal —
    # family-level resolution happens in validate_role_family / refill check.
    for label, rules in template.prereqs.items():
        if label not in graph.events:
            report._add(
                Severity.WARNING,
                "TP004",
                loc,
                f"prerequisite rule for unknown label {label!r}",
            )
        for rule in rules:
            for state in rule.states:
                if not graph.has_state(state):
                    report._add(
                        Severity.WARNING,
                        "TP004",
                        loc,
                        f"prerequisite state {state!r} (label {label!r}) is not "
                        "a state of this template (multi-role wiring?)",
                    )

    # dead (state, label) pairs
    for state in graph.states:
        for label in graph.events:
            if graph.transitions_from(state, label):
                continue
            if (state, label) in template.intra:
                continue
            report.dead_pairs.append((state, label))
            report.findings.append(
                Finding(
                    Severity.INFO,
                    "TP005",
                    loc,
                    f"dead pair: {label!r} at {state!r} would be omitted",
                )
            )

    return report


def validate_role_family(
    templates: Sequence[FsmTemplate],
    *,
    node_templates: Optional[Mapping[int, FsmTemplate]] = None,
) -> ValidationReport:
    """Validate a set of role templates together.

    Cross-role prerequisite states are resolved against *any* template in
    the family, clearing the per-template warnings when they match.
    Explicit-node rules are held to a stricter standard: a referenced state
    absent from the peer node's template (``node_templates`` when given,
    otherwise every template in the family) is an **error** — such a rule
    can never be satisfied and would silently suppress inference.
    """
    combined = ValidationReport()
    all_states = {s for t in templates for s in t.graph.states}
    for template in templates:
        single = validate_template(template)
        combined.errors.extend(f"{template.name}: {e}" for e in single.errors)
        combined.dead_pairs.extend(single.dead_pairs)
        for finding in single.findings:
            if finding.code == "TP004" and "multi-role wiring" in finding.message:
                continue  # superseded by the family-level resolution below
            if finding.severity is Severity.WARNING:
                combined.warnings.append(f"{template.name}: {finding.message}")
            combined.findings.append(finding)
        family = _resolve_family_prereqs(template, all_states, node_templates)
        combined.findings.extend(family)
        combined.errors.extend(
            f.message for f in family if f.severity is Severity.ERROR
        )
        combined.warnings.extend(
            f.message for f in family if f.severity is Severity.WARNING
        )
    return combined


def _resolve_family_prereqs(
    template: FsmTemplate,
    all_states: set[str],
    node_templates: Optional[Mapping[int, FsmTemplate]],
) -> list[Finding]:
    """Family-wide prerequisite-state resolution for one template.

    Selector rules (``Peer.SRC`` etc.) may point at any role, so a state
    found in *some* template resolves; absent everywhere is an error
    (``XF001``).  Explicit-node rules resolve against the mapped peer
    template when ``node_templates`` names one (``XF005`` on miss),
    otherwise against the whole family.
    """
    findings: list[Finding] = []
    loc = f"template {template.name!r}"
    for label, rules in sorted(template.prereqs.items()):
        for rule in rules:
            peer = rule.peer
            peer_template = (
                node_templates.get(peer)
                if node_templates is not None and isinstance(peer, int)
                else None
            )
            for state in rule.states:
                if peer_template is not None:
                    if not peer_template.graph.has_state(state):
                        findings.append(
                            Finding(
                                Severity.ERROR,
                                "XF005",
                                loc,
                                f"{template.name}: prerequisite state {state!r} "
                                f"(label {label!r}) is not a state of node "
                                f"{peer}'s template {peer_template.name!r}",
                            )
                        )
                elif state not in all_states:
                    code = "XF005" if isinstance(peer, int) else "XF001"
                    findings.append(
                        Finding(
                            Severity.ERROR,
                            code,
                            loc,
                            f"{template.name}: prerequisite state {state!r} "
                            f"(label {label!r}, peer {peer!r}) does not exist in "
                            "any template of the family",
                        )
                    )
    return findings
