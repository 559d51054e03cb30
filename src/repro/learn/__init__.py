"""Model inference: learn FSM templates and prerequisites from log corpora.

The ``refill learn`` subsystem (see ``docs/LEARNING.md``) turns a clean or
lightly lossy log corpus into a runnable, serializable deployment spec:

- :mod:`repro.learn.traces` — per-(packet, node) label-trace extraction
  with role tagging, label-side classification, and a lossy-trace filter;
- :mod:`repro.learn.ktails` — deterministic, determinizing k-tails mining
  (also re-exported from :mod:`repro.fsm`);
- :mod:`repro.learn.prereqs` — PRINS-style stitching of inter-node
  prerequisite rules from cross-node ordering support;
- :mod:`repro.learn.spec` — the JSON-round-trippable
  :class:`~repro.learn.spec.LearnedSpec` that realizes into
  :class:`~repro.fsm.templates.FsmTemplate` /
  :class:`~repro.check.crossfsm.DeploymentSpec`;
- :mod:`repro.learn.evaluate` — graph similarity vs the ground-truth
  template and reconstruction accuracy on a held-out lossy corpus.

:func:`learn_from_store` is the one-call pipeline the CLI verb wraps.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.events.log import NodeLog
from repro.learn.ktails import accepts, mine_fsm, replay_states, traces_from_flows
from repro.learn.prereqs import mine_prereqs
from repro.learn.spec import LearnedSpec, build_spec, load_learned_spec
from repro.learn.traces import ExtractionOptions, TraceCorpus, extract_traces

__all__ = [
    "ExtractionOptions",
    "LearnedSpec",
    "TraceCorpus",
    "accepts",
    "build_spec",
    "extract_traces",
    "learn_from_logs",
    "learn_from_store",
    "load_learned_spec",
    "mine_fsm",
    "mine_prereqs",
    "replay_states",
    "traces_from_flows",
]


def learn_from_logs(
    logs: Mapping[int, NodeLog],
    *,
    k: int = 2,
    min_support: float = 0.9,
    name: str = "learned",
    sink: Optional[int] = None,
    base_station: Optional[int] = None,
    corrupt_lines: Optional[Mapping[int, int]] = None,
    options: ExtractionOptions = ExtractionOptions(),
) -> LearnedSpec:
    """The full learning pipeline over an in-memory log collection.

    extract → mine (with multi-initial refinement) → stitch prerequisites →
    package as a :class:`LearnedSpec`.  Deterministic: the same logs and
    flags produce a byte-identical serialized spec.
    """
    corpus = extract_traces(
        logs,
        sink=sink,
        base_station=base_station,
        corrupt_lines=corrupt_lines,
        options=options,
    )
    graph, initials = corpus.mine(k=k)
    rules = mine_prereqs(corpus, graph, initials, min_support=min_support)
    return build_spec(
        corpus,
        graph,
        rules,
        initials=initials,
        name=name,
        k=k,
        min_support=min_support,
    )


def learn_from_store(
    store,
    *,
    k: int = 2,
    min_support: float = 0.9,
    name: str = "learned",
    options: ExtractionOptions = ExtractionOptions(),
) -> LearnedSpec:
    """:func:`learn_from_logs` over a :class:`~repro.events.store.LoadedStore`.

    Pulls the sink/base-station ids from the store metadata and feeds the
    per-node corrupt-line counts to the lossy-trace filter.
    """
    return learn_from_logs(
        store.logs,
        k=k,
        min_support=min_support,
        name=name,
        sink=store.metadata.sink,
        base_station=store.metadata.base_station,
        corrupt_lines=store.corrupt_lines,
        options=options,
    )
