"""M1 — network measurement from logs (paper §I-C's second application).

REFILL's flows double as a measurement instrument: per-link delivery
ratios and ETX estimates derived purely from reconstructed (lossy!) logs
are compared against the simulator's true link model.
"""

import math
import time

from repro.analysis.linkquality import observe_links, worst_links
from repro.analysis.pipeline import default_loss_spec, evaluate, run_simulation
from repro.core.session import ReconstructionSession
from repro.lognet.collector import collect_logs
from repro.obs import MetricsRegistry, NullRegistry, use_registry
from repro.simnet.network import Network
from repro.simnet.scenarios import citysee
from repro.util.tables import render_table

from benchmarks.conftest import bench_seed

PARAMS = citysee(n_nodes=80, days=3, seed=bench_seed("measurement", 53))


def run_measurement():
    sim = run_simulation(PARAMS)
    result = evaluate(PARAMS, sim=sim)
    observations = observe_links(result.flows)
    net = Network(PARAMS)  # deterministic rebuild for true base PRRs
    rows = []
    for (src, dst), obs in sorted(observations.items()):
        if obs.sends < 50 or dst == sim.base_station_node:
            continue
        if src not in net.topology.positions or dst not in net.topology.positions:
            continue
        true_prr = net.link.base_prr(src, dst)
        rows.append((src, dst, obs.sends, obs.delivery_ratio(), true_prr))
    return rows, observations


def test_link_measurement(benchmark, emit):
    rows, observations = benchmark.pedantic(run_measurement, rounds=1, iterations=1)
    assert len(rows) > 20

    # directional correctness: measured delivery orders like true quality.
    # (with 30 retries, absolute delivery saturates near 1 for all usable
    # links; rank correlation over the spread is the meaningful check)
    measured = [m for _, _, _, m, _ in rows]
    truth = [t for _, _, _, _, t in rows]
    n = len(rows)
    # good links never measure terrible
    for src, dst, sends, m, t in rows:
        if t > 0.6:
            assert m > 0.85, (src, dst, sends, m, t)

    # the 30-retry budget saturates delivery on every routable link (the
    # paper's §V-D3 point: "packet losses due to low link quality become
    # very low") — so healthy delivery should measure near 1 ...
    assert sum(measured) / n > 0.95
    # ... and the links that *do* measure badly are exactly the ones the
    # disturbance bursts hit: every bottom-ranked link shows timeouts
    for obs in worst_links(observations, min_sends=50, top=3):
        if obs.delivery_ratio() < 0.99:
            assert obs.timeouts > 0

    sample = sorted(rows, key=lambda r: r[4])[:12]
    emit(
        "measurement_links",
        render_table(
            ["src", "dst", "sends", "measured_delivery", "true_base_prr"],
            [
                (src, dst, sends, round(m, 3), round(t, 3))
                for src, dst, sends, m, t in sample
            ],
            title="M1 — per-link delivery measured from lossy logs vs truth "
            "(12 weakest true links with >=50 sends)",
        ),
    )


# --------------------------------------------------------------------- #
# zero-overhead guard for the observability substrate

OVERHEAD_PARAMS = citysee(n_nodes=40, days=1, seed=bench_seed("measurement-overhead", 29))

#: Instrumentation budget: the fully-counting registry path must stay
#: within 5% of the no-op registry path (plus a small absolute floor so
#: sub-second timings don't flake on scheduler noise).
OVERHEAD_RATIO = 1.05
OVERHEAD_FLOOR_S = 0.02


def test_instrumentation_overhead(emit):
    """The instrumented serial engine vs the registry-disabled run.

    Interleaved best-of-5 on the same collected store; min-of-N is the
    standard low-noise estimator for CPU-bound loops.
    """
    sim = run_simulation(OVERHEAD_PARAMS)
    collected = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=5,
        perfect_clocks=frozenset({sim.base_station_node}),
    )

    def run_once() -> float:
        start = time.perf_counter()
        ReconstructionSession().reconstruct(collected)
        return time.perf_counter() - start

    with use_registry(NullRegistry()):
        run_once()  # warmup: caches, template construction

    timings = {"null": [], "real": []}
    for _ in range(5):
        with use_registry(NullRegistry()):
            timings["null"].append(run_once())
        with use_registry(MetricsRegistry()):
            timings["real"].append(run_once())

    best_null = min(timings["null"])
    best_real = min(timings["real"])
    budget = best_null * OVERHEAD_RATIO + OVERHEAD_FLOOR_S
    assert best_real <= budget, (
        f"instrumentation overhead too high: real={best_real:.4f}s "
        f"null={best_null:.4f}s budget={budget:.4f}s"
    )
    emit(
        "measurement_overhead",
        render_table(
            ["path", "best_s", "runs"],
            [
                ("null registry", round(best_null, 4), len(timings["null"])),
                ("metrics registry", round(best_real, 4), len(timings["real"])),
                ("overhead", round(best_real - best_null, 4), "-"),
            ],
            title="observability overhead — serial reconstruct, best of 5 "
            f"(budget: {OVERHEAD_RATIO:.0%} + {OVERHEAD_FLOOR_S}s)",
        ),
    )
