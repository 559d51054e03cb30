#!/usr/bin/env python3
"""Live monitoring: diagnosis that sharpens as log batches arrive.

Operators don't wait a month for logs — each collection round delivers
another slice.  This example replays a simulated deployment's logs in
arrival batches through a :class:`repro.ReconstructionSession` with an
:class:`~repro.core.backends.IncrementalBackend` and shows a packet's
diagnosis *changing* as evidence lands (the sink-view "lost somewhere"
becomes "acked loss at the sink").  Run:

    python examples/live_monitoring.py
"""

from collections import Counter

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core.backends import IncrementalBackend
from repro.core.session import ReconstructionSession
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee


def main() -> None:
    print("simulating ...")
    params = citysee(n_nodes=60, days=1, seed=29)
    sim = run_simulation(params)
    collected = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=5,
        perfect_clocks=frozenset({sim.base_station_node}),
    )

    engine = ReconstructionSession(
        backend=IncrementalBackend(), delivery_node=sim.base_station_node
    )

    # batch the logs as three collection rounds: each node's log arrives in
    # thirds (per-node order preserved, as CTP collection does)
    rounds = 3
    for round_no in range(rounds):
        batch = {}
        for node, log in collected.items():
            chunk = list(log)[
                len(log) * round_no // rounds : len(log) * (round_no + 1) // rounds
            ]
            if chunk:
                batch[node] = chunk
        dirtied = engine.ingest(batch)
        engine.refresh()
        causes = Counter(str(r.cause) for r in engine.reports().values() if r.lost)
        print(
            f"round {round_no + 1}: +{sum(len(v) for v in batch.values())} events, "
            f"{len(dirtied)} packets updated, "
            f"{len(engine.packets())} known, loss causes so far: {dict(causes)}"
        )

    # show one packet whose story sharpened across rounds
    print("\nper-packet drill-down (provenance-annotated):")
    reports = engine.reports()
    interesting = next(
        (p for p, r in sorted(reports.items()) if r.lost and engine.flow(p).inferred_events()),
        None,
    )
    if interesting is None:
        print("(no lost packet with inferred events this run)")
        return
    flow = engine.flow(interesting)
    print(f"packet {interesting}: {reports[interesting].cause} at node "
          f"{reports[interesting].position}")
    print(flow.explain())


if __name__ == "__main__":
    main()
