"""In-process per-layer ledgers for the traced runs.

The benchmark times its own calls into each layer's public functions; it
adds no tracing to the program.  Layers nested inside one public call (the
merge inside ``ReconstructionSession.reconstruct``) are read from the spans
the program already records into a :class:`~repro.obs.MetricsRegistry`.

- :func:`analyze_ledger` repeats ``refill analyze --flows-out`` step by step.
- :func:`serve_ledger` models only the serve layers the daemon's
  ``/metrics`` does not expose (state export, flows serialization).  The
  daemon's decode, ingest, refresh and diagnosis figures come from its own
  ``/metrics``, never from here, so a change to its batching or refresh
  policy shows in them.
"""

from __future__ import annotations

import gc
import pathlib
import time
from typing import Iterable, Mapping, Sequence

from repro.check import load_spec, run_check
from repro.check.runner import model_errors
from repro.core.backends import IncrementalBackend
from repro.core.serialize import dumps_canonical, flows_to_json
from repro.core.session import ReconstructionSession
from repro.events.event import Event
from repro.events.store import load_store
from repro.obs import MetricsRegistry, use_registry

from refillbench.oracle import attribute


def _span_total(registry: MetricsRegistry, name: str) -> float:
    summary = registry.snapshot().histograms.get(f"span.{name}")
    return summary.total if summary is not None else 0.0


def _event_counts(flows) -> tuple[int, int]:
    logged = inferred = 0
    for flow in flows.values():
        for entry in flow.entries:
            if entry.inferred:
                inferred += 1
            else:
                logged += 1
    return logged, inferred


class _Clock:
    """Accumulates wall seconds per named layer."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def time(self, layer: str, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[layer] = self.seconds.get(layer, 0.0) + (
                time.perf_counter() - started
            )


def analyze_ledger(store: pathlib.Path, flows_out: pathlib.Path) -> tuple[dict, bytes]:
    """``refill analyze --flows-out`` in process, one timer per layer.

    Returns ``(metrics, flows bytes)``; ``analyze.unattributed_s`` is the
    wall time no named layer accounts for (argument handling, printing and
    the file write).
    """
    registry = MetricsRegistry()
    clock = _Clock()
    # the benchmark's own heap (corpus, truth, reference) would otherwise be
    # rescanned by every collection, which a fresh ``analyze`` never pays
    gc.collect()
    gc.freeze()
    with use_registry(registry):
        started = time.perf_counter()
        report = clock.time("check.preflight_s", run_check, load_spec("ctp"), store)
        if model_errors(report):
            raise RuntimeError("pre-flight check found model errors")
        loaded = clock.time("events.store.load_s", load_store, store)
        meta = loaded.metadata
        session = ReconstructionSession(delivery_node=meta.base_station)
        flows = clock.time("core.session.reconstruct_s", session.reconstruct, loaded.logs)
        raw = clock.time("core.diagnosis.diagnose_s", session.diagnose, flows)
        clock.time("analysis.attribute_s", attribute, raw, loaded.logs, meta)
        text = clock.time(
            "core.serialize.flows_s", lambda: dumps_canonical(flows_to_json(flows))
        )
        body = (text + "\n").encode("utf-8")
        flows_out.write_bytes(body)
        wall = time.perf_counter() - started
    gc.unfreeze()
    logged, inferred = _event_counts(flows)
    corrupt = sum(loaded.corrupt_lines.values())
    metrics = {
        **clock.seconds,
        "events.store.lines": loaded.total_events + corrupt,
        "events.store.corrupt_lines": corrupt,
        "events.merge.group_s": _span_total(registry, "reconstruct.merge"),
        "events.merge.packets": len(flows),
        "core.session.logged_events": logged,
        "core.session.inferred_events": inferred,
        "core.serialize.flows_bytes": len(body),
        "analyze.wall_s": wall,
        "analyze.unattributed_s": wall - sum(clock.seconds.values()),
    }
    return metrics, body


def serve_ledger(
    rounds: Iterable[Mapping[int, Sequence[Event]]], delivery_node: int
) -> tuple[dict, bytes]:
    """Modelled serve layers: state export per round, final serialization.

    ``rounds`` holds the per-node events each collection round adds.  A
    streaming session ingests and refreshes each round, then exports its
    state the way a checkpoint does; the final flows are serialized the way
    ``/flows`` answers.  Only those two steps are timed.
    """
    clock = _Clock()
    session = ReconstructionSession(
        backend=IncrementalBackend(), delivery_node=delivery_node
    )
    for batch in rounds:
        session.ingest(batch)
        session.refresh()
        clock.time("core.session.export_state_s", session.export_state)
    flows = session.flows()
    text = clock.time(
        "core.serialize.flows_s", lambda: dumps_canonical(flows_to_json(flows))
    )
    body = (text + "\n").encode("utf-8")
    logged, inferred = _event_counts(flows)
    metrics = {
        **clock.seconds,
        "core.session.logged_events": logged,
        "core.session.inferred_events": inferred,
        "core.serialize.flows_bytes": len(body),
    }
    return metrics, body
