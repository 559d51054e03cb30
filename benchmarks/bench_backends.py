"""S2 — multi-core analyze: throughput per ``--workers`` count.

``refill analyze`` splits the store into document-order slices, one per
process (:mod:`repro.core.split`); results are split-independent, so this
benchmark records the split-dependent *costs*: packets/second of the
reconstruct, diagnose and encode stages at ``--workers 1`` (the row keyed
``serial``, which the history gate reads) and at every usable CPU, and the
calling process's Python peak memory over the same work, document written.
"""

import json
import pathlib
import resource
import time
import tracemalloc

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core.split import can_fork, reconstruct_slices, usable_cpus
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee
from repro.util.tables import render_table

from benchmarks.conftest import BENCH_SCHEMA, bench_seed, run_metadata

BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_backends.json"

#: Timed calls per variant; each row reports its fastest (the work is
#: identical, slower calls measure other tenants of the host).
ROUNDS = 3


def prepare(n_nodes=120, days=1, seed=None):
    if seed is None:
        seed = bench_seed("backends", 51)
    params = citysee(n_nodes=n_nodes, days=days, seed=seed)
    sim = run_simulation(params)
    logs = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=5,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    return logs, sim.base_station_node


def fastest(fn):
    """(result, fastest wall seconds) over :data:`ROUNDS` calls."""
    best = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def python_peak_mb(fn):
    """The calling process's Python peak (MB) over one ``fn()``, in a call
    of its own: tracemalloc slows what it traces, so no timed call runs
    under it.  Forked workers' memory is their own and not counted."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_backend_throughput(emit):
    logs, bs = prepare()
    cpus = usable_cpus()
    runs = {"serial": 1, f"workers({cpus})": cpus}
    rows = []
    document = None
    measured: dict[str, dict] = {}
    for name, workers in runs.items():
        def call():
            run = reconstruct_slices(logs, delivery_node=bs, workers=workers, encode=True)
            # taken piece by piece, as ``refill analyze`` writes it: a
            # one-process run encodes its flows only here
            for _ in run.document_parts():
                pass
            return run

        run, elapsed = fastest(call)
        peak_mb = python_peak_mb(call)
        if document is None:
            document = "".join(run.document_parts())
        else:  # cost table only makes sense over identical work
            assert "".join(run.document_parts()) == document, name
        packets = len(run.reports)
        measured[name] = {
            "packets": packets,
            "processes": run.processes,
            "seconds": round(elapsed, 4),
            "packets_per_s": round(packets / elapsed, 1),
            "py_peak_mb": round(peak_mb, 2),
        }
        rows.append((
            name, run.processes, packets, f"{elapsed:.3f}", f"{packets / elapsed:.0f}",
            f"{peak_mb:.1f}",
        ))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    table = render_table(
        ["variant", "processes", "packets", "wall_s", "pkt_per_s", "py_peak_MB"], rows
    )
    note = "" if can_fork() else " (no fork here: every variant ran in-process)"
    emit("bench_backends", table + f"\nprocess ru_maxrss {rss_mb:.0f} MB{note}")

    corpus = {"n_nodes": 120, "days": 1, "packets": measured["serial"]["packets"]}
    BASELINE_PATH.write_text(
        json.dumps(
            {
                "schema": BENCH_SCHEMA,
                "run": run_metadata(
                    "backends", seed=bench_seed("backends", 51), corpus=corpus, cpus=cpus
                ),
                "corpus": corpus,
                "backends": measured,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
