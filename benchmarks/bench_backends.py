"""S2 — execution backends: throughput and peak memory per strategy.

The session layer promises backend-independent *results*; this benchmark
records the backend-dependent *costs*: packets/second and Python peak
memory per backend over the same corpus.
"""

import json
import pathlib
import resource
import time
import tracemalloc

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core.backends import ProcessPoolBackend
from repro.core.session import ReconstructionSession
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee
from repro.util.tables import render_table

from benchmarks.conftest import BENCH_SCHEMA, bench_seed, run_metadata

BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_backends.json"


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
    return logs


def timed(fn):
    """(result, wall seconds, python peak bytes) for one call."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def test_backend_throughput(emit):
    logs = prepare()
    runs = {
        # the in-process default session; the row keeps the key history reads
        "serial": lambda: ReconstructionSession().reconstruct(logs),
        "process(2)": lambda: ReconstructionSession(
            backend=ProcessPoolBackend(workers=2, min_packets=1)
        ).reconstruct(logs),
    }
    rows = []
    baseline = None
    measured: dict[str, dict] = {}
    for name, fn in runs.items():
        flows, elapsed, peak = timed(fn)
        if baseline is None:
            baseline = {p: f.labels() for p, f in flows.items()}
        else:  # cost table only makes sense over identical work
            assert {p: f.labels() for p, f in flows.items()} == baseline, name
        measured[name] = {
            "packets": len(flows),
            "seconds": round(elapsed, 4),
            "packets_per_s": round(len(flows) / elapsed, 1),
            "py_peak_mb": round(peak / 1e6, 2),
        }
        rows.append(
            (
                name,
                len(flows),
                f"{elapsed:.3f}",
                f"{len(flows) / elapsed:.0f}",
                f"{peak / 1e6:.1f}",
            )
        )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    table = render_table(
        ["backend", "packets", "wall_s", "pkt_per_s", "py_peak_MB"], rows
    )
    emit("bench_backends", table + f"\nprocess ru_maxrss {rss_mb:.0f} MB")

    corpus = {"n_nodes": 120, "days": 1, "packets": len(baseline)}
    BASELINE_PATH.write_text(
        json.dumps(
            {
                "schema": BENCH_SCHEMA,
                "run": run_metadata(
                    "backends", seed=bench_seed("backends", 51), corpus=corpus
                ),
                "corpus": corpus,
                "backends": measured,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

