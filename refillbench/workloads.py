"""The three workloads, each against a public door of the program.

- ``analyze-batch``: ``refill analyze --flows-out`` as a subprocess over a
  120-node store; no socket, queue or refresh.
- ``serve-ingest``: the same shape of store pushed into a fresh
  ``refill serve`` with ``push_store`` (one node-bound source per
  connection, one connection at a time, as ``refill push`` does), clocked
  from the first pushed line until ``/flows`` returns every packet.
- ``serve-mixed``: a 50-node store split into collection rounds pushed
  open-loop on a fixed schedule, each round closed by ``POST /checkpoint``,
  while a second thread queries ``/flows``, ``/flow/<p>`` and ``/summary``
  on a fixed cadence.

A workload fills ``run.e2e`` (untraced runs) or ``run.layer`` (traced
runs) and records every operation it attempts through ``run.op``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import threading
import time

from repro.events.merge import split_collection_rounds
from repro.events.store import read_complete_lines, shard_path
from repro.serve.client import push_lines, push_store

from refillbench.corpus import Corpus, generate
from refillbench.ledger import analyze_ledger, serve_ledger
from refillbench.oracle import reference, score
from refillbench.procs import run_cli

#: (nodes, days) of the corpus behind analyze-batch and serve-ingest.
BATCH_SHAPE = (120, 2)
#: Least ``refill analyze`` calls per analyze-batch run; more follow while
#: another one fits in ``--seconds``.
ANALYZE_MIN_CALLS = 3
#: The in-process analyze ledger and the CLI child's own spans must agree
#: within this factor.  They read 0.77-1.05 on a 2-vCPU VM (the ledger runs
#: warm); the rest covers host speed drift between the two calls.
LEDGER_CHILD_FACTOR = 1.5
#: (nodes, days) of the serve-mixed corpus.
MIXED_SHAPE = (50, 2)
#: Corpus generations per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Collection rounds of serve-mixed, spread evenly over ``--seconds``.
MIXED_ROUNDS = 4
#: ``/flow/<p>`` queries per read cycle of serve-mixed.
FLOW_QUERIES_PER_CYCLE = 60
#: ``/summary`` queries per read cycle of serve-mixed.
SUMMARIES_PER_CYCLE = 5
#: A serve-mixed read cycle starts every this many seconds (or at once when
#: the last one overran).  A fixed cadence spreads ``/flows`` samples evenly
#: over the growing state; reading back to back instead keeps the
#: single-threaded daemon busy, and every push waits behind ``/flows`` until
#: the write schedule falls tens of seconds behind.
READ_PERIOD_S = 0.3
#: Read cycles that go on after the last round is ready, so the top
#: ``/flows`` samples include the full state without writes, not only
#: the few that met a checkpoint.
MIXED_TAIL_CYCLES = 10
#: serve-ingest repeats fresh-daemon iterations while another one fits in
#: ``--seconds`` (at least this many).
INGEST_MIN_ITERATIONS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def door_time(run, walls) -> float:
    """A listed door's answer time from repeats on one input: the fastest.

    Every repeat does the same work.  On a shared host a slower one
    measures other tenants, not the program (the rule ``timeit`` follows).
    A change that slows every repeat still moves the fastest.
    """
    run.meta["walls_s"] = [round(w, 4) for w in walls]
    return min(walls)


def percentile(samples, pct: int) -> float:
    """Nearest-rank ``pct``-th percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = -(-pct * len(ordered) // 100)  # ceil, in integers
    return ordered[max(rank, 1) - 1]


class Window:
    """The measuring window of one run: ``--seconds`` from creation."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def fits(self, step_s: float) -> bool:
        """Whether one more step as long as ``step_s`` ends inside the window."""
        return time.perf_counter() + step_s <= self.end


def setup_corpus(run, nodes: int, days: int) -> tuple[Corpus, float, float]:
    """Generate the run's corpus ``SETUP_REPEATS`` times.

    Returns the corpus with the median set-up and simulate seconds.
    """
    setups, simulates = [], []
    for _ in range(SETUP_REPEATS):
        corpus = generate(run.work / "store", nodes=nodes, days=days, seed=run.seed)
        setups.append(corpus.setup_s)
        simulates.append(corpus.simulate_s)
    run.meta["corpus"] = corpus.shape()
    return corpus, statistics.median(setups), statistics.median(simulates)


def _score(run, body: bytes, corpus: Corpus) -> None:
    report = score(body, corpus)
    run.e2e["cause_accuracy"] = report.cause_accuracy
    run.e2e["event_recall"] = report.event_recall


# ---------------------------------------------------------------------- #
# analyze-batch


def analyze_batch(run) -> None:
    corpus, setup_s, simulate_s = setup_corpus(run, *BATCH_SHAPE)
    store = str(corpus.store)
    ref = reference(corpus)
    flows_out = run.work / "analyze-flows.json"

    def analyze(tag: str, out: pathlib.Path, extra=()) -> float | None:
        argv = ["analyze", "-q", "--logs", store, "--flows-out", str(out), *extra]
        res = run_cli(run.root, run.work, tag, argv)
        if not run.op(res.code == 0, f"{tag} exited {res.code}"):
            return None
        run.compare(f"{tag} --flows-out", out.read_bytes(), ref.flows)
        run.rss_mb = max(run.rss_mb, res.rss_mb)
        return res.wall_s

    if not run.trace:
        walls = []
        window = Window(run.seconds)
        attempts = 0
        while (len(walls) < ANALYZE_MIN_CALLS and attempts < 2 * ANALYZE_MIN_CALLS) or (
            walls and window.fits(walls[-1])
        ):
            attempts += 1
            wall = analyze("analyze", flows_out)
            if wall is not None:
                walls.append(wall)
        if not walls:
            raise RuntimeError("no successful analyze call")
        _score(run, flows_out.read_bytes(), corpus)
        # the batch door has one request: a call answers all flows (the
        # file), the summary (stdout) and therefore any single flow, and
        # all input is on disk before it starts, so its drain is the call
        best = door_time(run, walls)
        run.e2e.update(
            setup_s=setup_s,
            lines_per_s=corpus.lines / best,
            rss_peak_mb=run.rss_mb,
            flows_p50_ms=best * 1e3,
            flows_p95_ms=best * 1e3,
            flow_p50_ms=best * 1e3,
            flow_p99_ms=best * 1e3,
            summary_p95_ms=best * 1e3,
            drain_s=best,
        )
        run.samples["analyze"] = len(walls)
        return

    child_metrics = run.work / "analyze-metrics.json"
    untraced = analyze("analyze", flows_out, ("--metrics-out", str(child_metrics)))
    layers, body = analyze_ledger(corpus.store, run.work / "ledger-flows.json")
    run.compare("in-process ledger flows", body, ref.flows)
    process = analyze(
        "analyze-process", run.work / "process-flows.json",
        ("--backend", "process", "--workers", str(nproc())),
    )
    if untraced is None or process is None:
        raise RuntimeError("analyze failed in the traced run")
    run.layer.update(layers)
    run.layer.update({
        "simnet.simulate_s": simulate_s,
        "bench.query.requests": 2,
        "bench.trace_overhead": layers["analyze.wall_s"] / untraced,
        "core.backends.process_speedup": untraced / process,
    })
    run.ledger("analyze", layers["analyze.wall_s"], layers["analyze.unattributed_s"])
    _check_against_child(run, layers, json.loads(child_metrics.read_text()))


def _check_against_child(run, layers: dict, child: dict) -> None:
    """Hold the in-process ledger against the ``analyze`` child's own spans.

    Both time the same load, reconstruct and diagnose (with outage
    attribution) work; a ledger that times other work, or misses some,
    falls outside ``LEDGER_CHILD_FACTOR``.
    """
    spans = child.get("histograms", {})
    theirs = sum(
        spans.get(f"span.analyze.{stage}", {}).get("total", 0.0)
        for stage in ("load", "reconstruct", "diagnose")
    )
    ours = sum(layers[name] for name in (
        "events.store.load_s", "core.session.reconstruct_s",
        "core.diagnosis.diagnose_s", "analysis.attribute_s",
    ))
    ratio = ours / theirs if theirs else float("inf")
    run.notes.append(
        f"ledger analyze vs child spans (load + reconstruct + diagnose): "
        f"{ours:.4f} s / {theirs:.4f} s = {ratio:.3f}"
    )
    run.op(
        1 / LEDGER_CHILD_FACTOR <= ratio <= LEDGER_CHILD_FACTOR,
        f"analyze ledger times {ratio:.2f}x the child's own spans",
    )


# ---------------------------------------------------------------------- #
# serve-ingest


def _hist_total(snapshot: dict, prefix: str, field: str = "total") -> float:
    """Sum of ``field`` over a ``/metrics`` histogram family (all labels)."""
    return sum(
        h[field] for name, h in snapshot.get("histograms", {}).items()
        if name == prefix or name.startswith(prefix + "{")
    )


def _serve_spans(run, snapshot: dict, packets: int) -> float:
    """Copy the daemon's span totals and counters into the ledger; returns
    the seconds its consumer spans and HTTP handlers account for.

    The daemon's decode, ingest, refresh and diagnosis figures also fill
    the ``events.codec`` / ``core.*`` names on serve workloads, so they
    follow the daemon's own batching and refresh policy.  ``packets`` is
    the reference's distinct packet count.
    """

    def total(prefix: str, field: str = "total") -> float:
        return _hist_total(snapshot, prefix, field)

    consumer = {
        "serve.span.decode_s": total("span.serve.decode"),
        "serve.span.ingest_batch_s": total("span.serve.ingest.batch"),
        "serve.span.refresh_s": total("span.serve.refresh"),
    }
    wait = snapshot.get("histograms", {}).get("serve.queue.wait.seconds")
    # every reconstruction the daemon ran, refreshes and query-time ones alike
    reconstructions = snapshot.get("counters", {}).get("refill.packets", 0)
    refreshes = total("span.serve.refresh", "count")
    run.layer.update(consumer)
    run.layer.update({
        # the checkpoint span runs inside its POST /checkpoint request, so
        # the request timers already cover it
        "serve.span.checkpoint_s": total("span.serve.checkpoint"),
        "serve.span.refresh_count": refreshes,
        "serve.queue.wait_p95_s": (wait or {}).get("p95") or 0.0,
        "serve.refill_packets": reconstructions,
        "events.codec.scan_s": consumer["serve.span.decode_s"],
        "core.session.ingest_s": consumer["serve.span.ingest_batch_s"],
        "core.session.refresh_s": consumer["serve.span.refresh_s"],
        "core.session.refresh_calls": refreshes,
        "core.session.refresh_packets": reconstructions,
        "core.session.refresh_amplification": reconstructions / max(1, packets),
        "core.diagnosis.diagnose_s": total("span.diagnose"),
    })
    return sum(consumer.values()) + total("serve.request.seconds")


def serve_ingest(run) -> None:
    corpus, setup_s, simulate_s = setup_corpus(run, *BATCH_SHAPE)
    ref = reference(corpus)

    def iteration(tag: str, traced: bool) -> dict:
        """Push the store into a fresh daemon until ``/flows`` is complete."""
        daemon = run.daemon(corpus.store, tag)
        spawn_s = daemon.start()
        started = time.perf_counter()
        results = push_store(corpus.store, port=daemon.ingest_port)
        pushed = time.perf_counter()
        for source, res in results.items():
            run.op(res.accepted == res.sent, f"push {source}")
        run.op(daemon.wait_ready(), f"{tag} never became ready")
        ready = time.perf_counter()
        status, body, flows_s = daemon.timed("GET", "/flows")
        done = time.perf_counter()
        run.op(status == 200, f"GET /flows -> {status}")
        run.compare(f"{tag} GET /flows", body, ref.flows)
        return {
            "daemon": daemon, "spawn_s": spawn_s, "ingest_s": done - started,
            "ready_s": ready - pushed, "flows_s": flows_s,
            "push_s": pushed - started, "connections": len(results),
            "body": body, "metrics": daemon.metrics() if traced else None,
        }

    def finish(it: dict, check_reports: bool) -> None:
        daemon = it["daemon"]
        if check_reports:
            status, reports, _s = daemon.timed("GET", "/reports")
            run.op(status == 200 and reports == ref.reports, f"{daemon.tag} GET /reports matches")
        run.op(daemon.stop() == 0, f"{daemon.tag} exit code")
        run.rss_mb = max(run.rss_mb, daemon.rss_mb)

    window = Window(run.seconds)
    runs: list[dict] = []
    last = 0.0
    while len(runs) < INGEST_MIN_ITERATIONS or (not run.trace and window.fits(last)):
        began = time.perf_counter()
        it = iteration(f"serve-{len(runs)}", traced=False)
        finish(it, check_reports=not runs)
        runs.append(it)
        last = time.perf_counter() - began
    spawn = statistics.median(r["spawn_s"] for r in runs)
    walls = [r["ingest_s"] for r in runs]
    ingest = statistics.median(walls)
    if not run.trace:
        _score(run, runs[0]["body"], corpus)
        # like the batch door, the push door answers every flow, and the
        # summary, once the whole store is in: its answer time is the clock
        best = door_time(run, walls)
        run.e2e.update(
            setup_s=setup_s + spawn,
            lines_per_s=corpus.lines / best,
            rss_peak_mb=run.rss_mb,
            flows_p50_ms=best * 1e3,
            flows_p95_ms=best * 1e3,
            flow_p50_ms=best * 1e3,
            flow_p99_ms=best * 1e3,
            summary_p95_ms=best * 1e3,
            # input arrives throughout the clock, so the wait until it is all
            # answered is the clock too; the part after the last line is
            # the ledger's serve.ready_wait_s + serve.http.flows_final_s
            drain_s=best,
        )
        run.samples["ingest"] = len(runs)
        return

    traced = iteration("serve-traced", traced=True)
    # after the clock: one operator checkpoint of the full state
    daemon = traced["daemon"]
    status, answer, checkpoint_s = daemon.timed("POST", "/checkpoint")
    if run.op(status == 200, f"POST /checkpoint -> {status}"):
        run.layer["serve.http.checkpoint_ms"] = checkpoint_s * 1e3
        run.layer["serve.checkpoint.bytes"] = pathlib.Path(json.loads(answer)["path"]).stat().st_size
    checkpointed = daemon.metrics()
    finish(traced, check_reports=True)
    layers, body = serve_ledger(
        split_collection_rounds(corpus.logs, 1), corpus.metadata.base_station
    )
    run.compare("in-process serve ledger flows", body, ref.flows)
    run.layer.update(layers)
    attributed = _serve_spans(run, traced["metrics"], len(ref.packets))
    run.layer["serve.span.checkpoint_s"] = _hist_total(checkpointed, "span.serve.checkpoint")
    wall = traced["ingest_s"]
    run.layer.update({
        "simnet.simulate_s": simulate_s,
        "serve.daemon.start_s": spawn,
        "events.store.lines": corpus.lines,
        "serve.client.push_s": traced["push_s"],
        "serve.client.connections": traced["connections"],
        "serve.ready_wait_s": traced["ready_s"],
        "serve.http.flows_final_s": traced["flows_s"],
        "serve.wall_s": wall,
        "serve.unattributed_s": wall - attributed,
        "bench.query.requests": 1,
        "bench.trace_overhead": wall / ingest,
    })
    run.ledger("serve", wall, wall - attributed)


# ---------------------------------------------------------------------- #
# serve-mixed


def _plan_rounds(corpus: Corpus) -> list[tuple[list[tuple[int, str, list[str], int]], list[str]]]:
    """Per round: ``(node, source, lines so far, new line count)`` per
    connection, and the packets the round carries evidence for."""
    files = {
        node: read_complete_lines(shard_path(corpus.store, node)) for node in corpus.logs
    }
    cursor = {node: 0 for node in corpus.logs}
    plan = []
    for batch in split_collection_rounds(corpus.logs, MIXED_ROUNDS):
        connections = []
        packets: set[str] = set()
        for node, events in sorted(batch.items()):
            end = cursor[node] + len(events)
            connections.append(
                (node, shard_path(corpus.store, node).name, files[node][:end], len(events))
            )
            cursor[node] = end
            packets.update(str(e.packet) for e in events if e.packet is not None)
        plan.append((connections, sorted(packets)))
    return plan


def serve_mixed(run) -> None:
    corpus, setup_s, simulate_s = setup_corpus(run, *MIXED_SHAPE)
    ref = reference(corpus)
    plan = _plan_rounds(corpus)
    period = run.seconds / len(plan)
    run.meta["rounds"] = {
        "count": len(plan),
        "period_s": period,
        "offered_lines_per_s": corpus.lines / run.seconds,
    }

    def iteration(tag: str, traced: bool) -> dict:
        daemon = run.daemon(corpus.store, tag)
        spawn_s = daemon.start()
        samples: dict[str, list[float]] = {"flows": [], "flow": [], "summary": []}
        pool: list[str] = []
        lock = threading.Lock()
        stop = threading.Event()

        def query(path: str, route: str) -> None:
            status, _body, seconds = daemon.timed("GET", path)
            if run.op(status == 200, f"GET {path} -> {status}"):
                samples[route].append(seconds)

        def reader() -> None:
            rng = random.Random(run.seed + 1)
            begun = time.perf_counter()
            cycle = 0
            while not stop.is_set():
                query("/flows", "flows")
                with lock:
                    keys = list(pool)
                for _ in range(FLOW_QUERIES_PER_CYCLE if keys else 0):
                    query(f"/flow/{rng.choice(keys)}", "flow")
                for _ in range(SUMMARIES_PER_CYCLE):
                    query("/summary", "summary")
                cycle += 1
                stop.wait(max(0.0, begun + cycle * READ_PERIOD_S - time.perf_counter()))

        thread = threading.Thread(target=reader, name="serve-mixed-reader")
        drains, ready_waits, checkpoint_s, late = [], [], [], 0.0
        push_s = 0.0
        checkpoint_bytes = 0
        thread.start()
        try:
            started = time.perf_counter()
            for index, (connections, packets) in enumerate(plan):
                due = started + index * period
                time.sleep(max(0.0, due - time.perf_counter()))
                late = max(late, time.perf_counter() - due)
                for node, source, lines, new in connections:
                    t = time.perf_counter()
                    res = push_lines(lines, port=daemon.ingest_port, source=source, node=node)
                    push_s += time.perf_counter() - t
                    run.op(res.sent == new and res.accepted == new, f"push {source}")
                status, body, seconds = daemon.timed("POST", "/checkpoint")
                if run.op(status == 200, f"POST /checkpoint -> {status}"):
                    checkpoint_s.append(seconds)
                    checkpoint_bytes = pathlib.Path(json.loads(body)["path"]).stat().st_size
                waited = time.perf_counter()
                run.op(daemon.wait_ready(), f"{tag} round {index} never became ready")
                ready = time.perf_counter()
                ready_waits.append(ready - waited)
                drains.append(ready - due)
                with lock:
                    pool.extend(packets)
            finished = time.perf_counter()
            stop.wait(MIXED_TAIL_CYCLES * READ_PERIOD_S)
        finally:
            stop.set()
            thread.join()
        status, body, flows_s = daemon.timed("GET", "/flows")
        run.op(status == 200, f"GET /flows -> {status}")
        run.compare(f"{tag} final GET /flows", body, ref.flows)
        status, reports, _s = daemon.timed("GET", "/reports")
        run.op(status == 200 and reports == ref.reports, f"{tag} GET /reports matches")
        snapshot = daemon.metrics() if traced else None
        run.op(daemon.stop() == 0, f"{tag} exit code")
        run.rss_mb = max(run.rss_mb, daemon.rss_mb)
        return {
            "spawn_s": spawn_s, "wall_s": finished - started, "samples": samples,
            "drains": drains, "ready_waits": ready_waits,
            "checkpoint_s": checkpoint_s, "late": late,
            "checkpoint_bytes": checkpoint_bytes, "push_s": push_s,
            "flows_s": flows_s, "body": body, "metrics": snapshot,
        }

    first = iteration("mixed", traced=False)
    if not run.trace:
        samples = first["samples"]
        _score(run, first["body"], corpus)
        run.e2e.update(
            setup_s=setup_s + first["spawn_s"],
            lines_per_s=corpus.lines / first["wall_s"],
            rss_peak_mb=run.rss_mb,
            flows_p50_ms=percentile(samples["flows"], 50) * 1e3,
            flows_p95_ms=percentile(samples["flows"], 95) * 1e3,
            flow_p50_ms=percentile(samples["flow"], 50) * 1e3,
            flow_p99_ms=percentile(samples["flow"], 99) * 1e3,
            summary_p95_ms=percentile(samples["summary"], 95) * 1e3,
            drain_s=statistics.fmean(first["drains"]),
        )
        run.samples.update({k: len(v) for k, v in samples.items()})
        run.samples["rounds"] = len(first["drains"])
        run.meta["generator_late_max_s"] = first["late"]
        return

    traced = iteration("mixed-traced", traced=True)
    layers, body = serve_ledger(
        split_collection_rounds(corpus.logs, MIXED_ROUNDS), corpus.metadata.base_station
    )
    run.compare("in-process serve ledger flows", body, ref.flows)
    run.layer.update(layers)
    attributed = _serve_spans(run, traced["metrics"], len(ref.packets))
    wall = traced["wall_s"]
    samples = traced["samples"]
    run.layer.update({
        "simnet.simulate_s": simulate_s,
        "serve.daemon.start_s": traced["spawn_s"],
        "events.store.lines": corpus.lines,
        "serve.client.push_s": traced["push_s"],
        "serve.client.connections": sum(len(c) for c, _p in plan),
        "serve.ready_wait_s": sum(traced["ready_waits"]),
        "serve.http.flows_final_s": traced["flows_s"],
        "serve.http.checkpoint_ms": statistics.median(traced["checkpoint_s"]) * 1e3,
        "serve.checkpoint.bytes": traced["checkpoint_bytes"],
        "serve.wall_s": wall,
        "serve.unattributed_s": wall - attributed,
        "bench.generator.late_max_s": traced["late"],
        "bench.query.requests": sum(len(v) for v in samples.values()),
        "bench.trace_overhead": wall / first["wall_s"],
    })
    run.ledger("serve", wall, wall - attributed)


WORKLOADS = {
    "analyze-batch": analyze_batch,
    "serve-ingest": serve_ingest,
    "serve-mixed": serve_mixed,
}
