"""Whole-deployment static analysis (``refill check``).

REFILL's inference is only as sound as its inputs: a nondeterministic
template, a cyclic inter-node prerequisite, or a malformed log line silently
corrupts every reconstructed event flow.  This package verifies a deployment
*before* any reconstruction runs:

- :mod:`repro.check.findings` — the shared findings engine: severities,
  stable rule codes, deterministic text/JSON reports and CI exit codes;
- :mod:`repro.check.crossfsm` — cross-FSM analysis over a
  :class:`DeploymentSpec` (prerequisite resolution across per-role
  templates, inter-node prerequisite cycles, ambiguous jump derivations,
  event-label collisions);
- :mod:`repro.check.corpus` — log-corpus lint over a store directory
  (schema conformance, append-order sanity, packet referential integrity,
  unknown labels, corrupt lines);
- :mod:`repro.check.code` — AST-based concurrency & determinism lint over
  the Python sources themselves (``refill check --code``, ``CC*`` codes;
  import :func:`~repro.check.code.check_code` from there);
- :mod:`repro.check.runner` — orchestration plus the pre-flight gate used
  by :mod:`repro.analysis.pipeline`;
- :mod:`repro.check.specs` — named deployment specs for the CLI.

``docs/STATIC_ANALYSIS.md`` catalogues every rule code with a triggering
example and remediation.
"""

from repro.check.corpus import check_corpus
from repro.check.crossfsm import DeploymentSpec, check_templates
from repro.check.findings import (
    CheckReport,
    Finding,
    RULES,
    Severity,
)
from repro.check.runner import PreflightError, preflight_check, run_check
from repro.check.specs import BUILTIN_SPECS, load_spec

__all__ = [
    "BUILTIN_SPECS",
    "CheckReport",
    "DeploymentSpec",
    "Finding",
    "PreflightError",
    "RULES",
    "Severity",
    "check_corpus",
    "check_templates",
    "load_spec",
    "preflight_check",
    "run_check",
]
