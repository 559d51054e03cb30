"""Ablation A3 — switching off intra-node / inter-node transitions.

DESIGN.md calls out the two transition kinds as the design's load-bearing
pieces; this ablation quantifies each: without inter-node prerequisites no
lost events are recovered at all, and without intra-node jumps engines
stall on the first gap.
"""

from repro.analysis.accuracy import score_run
from repro.analysis.pipeline import evaluate, run_simulation
from repro.core.session import RefillOptions
from repro.simnet.scenarios import citysee
from repro.util.tables import render_table

from benchmarks.conftest import bench_seed

PARAMS = citysee(n_nodes=80, days=3, seed=bench_seed("ablation-transitions", 41))

VARIANTS = {
    "full REFILL": RefillOptions(),
    "no intra-node": RefillOptions(enable_intra=False),
    "no inter-node": RefillOptions(enable_inter=False),
    "neither": RefillOptions(enable_intra=False, enable_inter=False),
}


def sweep():
    sim = run_simulation(PARAMS)
    rows = {}
    for name, options in VARIANTS.items():
        result = evaluate(PARAMS, sim=sim, refill_options=options)
        acc = score_run(
            result.flows, result.reports, result.collected_logs, sim.truth, sink=sim.sink
        )
        omitted = sum(len(f.omitted) for f in result.flows.values())
        inferred = sum(len(f.inferred_events()) for f in result.flows.values())
        rows[name] = (acc, inferred, omitted)
    return rows


def test_transition_ablation(benchmark, emit):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    full, full_inferred, _ = rows["full REFILL"]
    no_inter, ni_inferred, _ = rows["no inter-node"]
    no_intra, _, intra_omitted = rows["no intra-node"]
    neither, n_inferred, _ = rows["neither"]

    # inter-node transitions carry the lost-event recovery
    assert full.event_recall > no_inter.event_recall + 0.3
    assert n_inferred == 0
    # intra-node jumps keep engines moving past gaps: without them events
    # get omitted and accuracy drops
    assert intra_omitted > 0
    assert full.cause_accuracy >= no_intra.cause_accuracy
    assert full.cause_accuracy > neither.cause_accuracy

    emit(
        "ablation_transitions",
        render_table(
            ["variant", "cause_acc", "event_recall", "inferred_events", "omitted_events"],
            [
                (
                    name,
                    round(acc.cause_accuracy, 3),
                    round(acc.event_recall, 3),
                    inferred,
                    omitted,
                )
                for name, (acc, inferred, omitted) in rows.items()
            ],
            title="A3 — intra-/inter-node transition ablation",
        ),
    )
