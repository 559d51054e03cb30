"""S2 — live-service throughput and query latency (the serve layer).

The daemon's operational envelope on a 50-node corpus: how fast lines go
from a TCP socket into reconstructed flows (ingest throughput), and how
long queries take once the session is warm (p50/p95 straight from the
``serve.request.seconds`` obs histogram the daemon itself records).

Besides the printed table, the run writes ``BENCH_serve.json`` at the repo
root — the serve layer's perf baseline.  Future perf PRs diff against it;
the assertions here are generous floors so CI noise never fails the build,
while the JSON captures the real numbers for trend tracking.

``pytest benchmarks/bench_serve.py --serve-shards N`` runs the ingest /
query benchmark against the N-shard router/worker cluster instead of the
single daemon; the shard count lands in the snapshot's ``run`` block so a
``bench_history record`` entry can attribute topology changes.
"""

import json
import pathlib
import time

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.lognet.collector import collect_logs
from repro.obs import MetricsRegistry, NullRegistry
from repro.obs.recorder import FlightRecorder, use_recorder
from repro.obs.registry import use_registry
from repro.serve import ServeConfig, ServerThread, ShardWorker
from repro.serve.client import push_lines
from repro.serve.ingest import IngestItem
from repro.simnet.scenarios import citysee
from repro.util.tables import render_table

from benchmarks.conftest import BENCH_SCHEMA, bench_seed, run_metadata

BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_serve.json"

N_NODES = 50
QUERY_ROUNDS = 40


def prepare_lines():
    """Collected 50-node corpus rendered to wire lines, node order."""
    from repro.events.codec import encode_event

    params = citysee(n_nodes=N_NODES, days=2, seed=bench_seed("serve", 17))
    sim = run_simulation(params)
    logs = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=9,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    lines = [
        encode_event(event)
        for node in sorted(logs)
        for event in logs[node]
    ]
    return lines, sim.base_station_node


def test_serve_ingest_and_query_latency(emit, serve_shards):
    lines, sink = prepare_lines()
    registry = MetricsRegistry()
    config = ServeConfig(
        flush_interval=0.05,
        delivery_node=sink,
        checkpoint_interval=0.0,
        shards=serve_shards,
    )
    with ServerThread(config, registry=registry) as thread:
        from tests.serve.util import http_json, http_req, wait_ready

        ingest_start = time.perf_counter()
        push_lines(lines, port=thread.tcp_port, source="bench")
        wait_ready(thread.http_port)
        ingest_elapsed = time.perf_counter() - ingest_start

        _, packets = http_json(thread.http_port, "/packets")
        some = packets["packets"][:: max(1, len(packets["packets"]) // 25)]
        for _ in range(QUERY_ROUNDS):
            http_req(thread.http_port, "/flows")
            http_req(thread.http_port, "/summary")
            for key in some[:5]:
                http_req(thread.http_port, f"/flow/{key}")

        _, snap = http_json(thread.http_port, "/metrics")

    lines_per_s = len(lines) / ingest_elapsed
    latency = {
        name.partition("{")[2].rstrip("}").partition("=")[2]: summary
        for name, summary in snap["histograms"].items()
        # the /metrics request that produced this snapshot is still inside
        # its own timer, so its histogram exists with zero samples — skip;
        # with --serve-shards N the merged snapshot also carries every
        # worker's histograms relabeled shard=K — the public latency is the
        # router's own unlabeled timer, so those are skipped too
        if name.startswith("serve.request.seconds")
        and "shard=" not in name
        and summary["count"] > 0
    }

    # Per-stage span breakdown: the single "ingest" row conflates wire
    # decode with session/inference time — the daemon's own span histograms
    # (serve.decode vs serve.ingest.batch vs serve.refresh) attribute the
    # wall clock to pipeline stages.  Shard-labeled copies (with
    # --serve-shards) partition the same work and are summed in.
    stages: dict[str, dict[str, float]] = {}
    for name, s in snap["histograms"].items():
        if not name.startswith("span.serve."):
            continue
        stage = name[len("span.") :].partition("{")[0]
        agg = stages.setdefault(stage, {"count": 0, "seconds": 0.0})
        agg["count"] += s["count"]
        agg["seconds"] += s["total"]

    rows = [
        ("ingest", len(lines), round(ingest_elapsed, 3), int(lines_per_s), "-"),
    ]
    for stage in sorted(stages):
        agg = stages[stage]
        rows.append(
            (
                f"  {stage}",
                int(agg["count"]),
                round(agg["seconds"], 3),
                "-",
                "-",
            )
        )
    for route in sorted(latency):
        s = latency[route]
        rows.append(
            (
                f"GET /{route}",
                s["count"],
                "-",
                round(s["p50"] * 1e6),
                round(s["p95"] * 1e6),
            )
        )
    emit(
        "bench_serve",
        render_table(
            ["operation", "n", "seconds", "rate_or_p50us", "p95us"],
            rows,
            title=(
                f"S2 — refill serve, {N_NODES}-node corpus, "
                f"shards={serve_shards}"
            ),
        ),
    )

    corpus = {"n_nodes": N_NODES, "days": 2, "lines": len(lines)}
    baseline = {
        "schema": BENCH_SCHEMA,
        "run": run_metadata(
            "serve",
            seed=bench_seed("serve", 17),
            corpus=corpus,
            shards=serve_shards,
        ),
        "corpus": corpus,
        "ingest": {
            "seconds": round(ingest_elapsed, 4),
            "lines_per_s": round(lines_per_s, 1),
        },
        "stages": {
            stage: {
                "count": int(agg["count"]),
                "seconds": round(agg["seconds"], 4),
            }
            for stage, agg in sorted(stages.items())
        },
        "query_seconds": {
            route: {
                "count": s["count"],
                "p50": s["p50"],
                "p95": s["p95"],
            }
            for route, s in sorted(latency.items())
        },
        "packets": len(packets["packets"]),
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")

    # generous floors: a laptop does 10-100x better; only a real regression
    # (or a broken daemon) trips these
    assert lines_per_s > 500
    flows_p95 = latency["flows"]["p95"]
    assert flows_p95 < 5.0
    assert latency["flow"]["p95"] < flows_p95  # single packet beats bulk


#: Instrumentation may cost at most this fraction of the uninstrumented
#: ingest path (same contract as ``bench_measurement.py``); the absolute
#: floor keeps sub-50ms timing jitter from failing the ratio.
OVERHEAD_RATIO = 1.05
OVERHEAD_FLOOR_S = 0.05


def _ingest_direct(lines, sink, registry, recorder):
    """Seconds to push the corpus through the consumer's ingest path.

    Bypasses the sockets: the batches are fed straight to
    ``ShardWorker.ingest_item`` (decode -> session), then one refresh —
    exactly the spans the tracing instruments, so the measured delta is
    instrumentation cost, not network noise.
    """
    config = ServeConfig(
        flush_interval=0.05, delivery_node=sink, checkpoint_interval=0.0
    )
    worker = ShardWorker(config)
    batch = config.ingest_batch_lines
    items = [
        IngestItem(
            "bench",
            None,
            lines[start : start + batch],
            trace_id="bench-overhead",
            enqueued_at=time.perf_counter(),
        )
        for start in range(0, len(lines), batch)
    ]
    with use_registry(registry), use_recorder(recorder):
        start = time.perf_counter()
        for item in items:
            worker.ingest_item(item)
        worker.session.refresh()
        elapsed = time.perf_counter() - start
    return elapsed, len(worker.session.packets())


def test_serve_ingest_overhead(emit):
    """Tracing on (registry + flight recorder) vs off, same ingest work.

    Interleaved best-of-N, like ``bench_measurement.py``'s overhead guard:
    best-case wall time is the right estimator for "what does the
    instrumentation itself cost" because scheduler noise only ever adds.
    """
    lines, sink = prepare_lines()
    base_times, traced_times = [], []
    packets_base = packets_traced = 0
    for _ in range(5):
        elapsed, packets_base = _ingest_direct(lines, sink, NullRegistry(), None)
        base_times.append(elapsed)
        elapsed, packets_traced = _ingest_direct(
            lines, sink, MetricsRegistry(), FlightRecorder()
        )
        traced_times.append(elapsed)
    base, traced = min(base_times), min(traced_times)
    assert packets_base == packets_traced  # tracing never changes the work
    emit(
        "bench_serve_overhead",
        render_table(
            ["path", "best_s", "lines_per_s"],
            [
                ("NullRegistry", f"{base:.4f}", int(len(lines) / base)),
                ("traced", f"{traced:.4f}", int(len(lines) / traced)),
            ],
            title="serve ingest instrumentation overhead (best of 5)",
        ),
    )
    assert traced <= max(base * OVERHEAD_RATIO, base + OVERHEAD_FLOOR_S), (
        f"serve ingest instrumentation overhead too high: "
        f"{base:.4f}s uninstrumented vs {traced:.4f}s traced"
    )
