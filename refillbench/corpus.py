"""Seeded CitySee corpora: simulate, collect lossy logs, write a store.

The program under test only ever sees the written store (or lines read
from it); the simulation's ground truth stays in the benchmark process for
accuracy scoring.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass

from repro.analysis.pipeline import default_loss_spec
from repro.events.log import NodeLog
from repro.events.store import StoreMetadata, save_store
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee, run_scenario
from repro.simnet.truth import GroundTruth


@dataclass
class Corpus:
    """One generated store plus what scoring needs from its simulation."""

    store: pathlib.Path
    nodes: int
    days: int
    #: The collected (lossy) per-node logs exactly as written to ``store``.
    logs: dict[int, NodeLog]
    truth: GroundTruth
    metadata: StoreMetadata
    #: Wall seconds of ``run_scenario`` alone (the ``simnet`` layer).
    simulate_s: float
    #: Wall seconds of simulate + collect + ``save_store``.
    setup_s: float

    @property
    def lines(self) -> int:
        """Log lines in the store (one per surviving event)."""
        return sum(len(log) for log in self.logs.values())

    def shape(self) -> dict:
        return {
            "nodes": self.nodes,
            "days": self.days,
            "lines": self.lines,
            "packets": len({e.packet for log in self.logs.values()
                            for e in log if e.packet is not None}),
        }


def generate(store, *, nodes: int, days: int, seed: int) -> Corpus:
    """Simulate a ``nodes`` x ``days`` CitySee deployment and write its store.

    The same arguments always write the same bytes: the simulation takes
    ``seed`` and log collection ``seed + 1`` (the ``refill simulate`` rule).
    """
    started = time.perf_counter()
    params = citysee(n_nodes=nodes, days=days, seed=seed)
    sim = run_scenario(params)
    simulate_s = time.perf_counter() - started
    logs = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed + 1,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    metadata = StoreMetadata(
        sink=sim.sink,
        base_station=sim.base_station_node,
        gen_interval=params.gen_interval,
        outages=params.base_station.outages,
        extra={"n_nodes": nodes, "days": days, "seed": seed},
    )
    path = save_store(store, logs, metadata)
    return Corpus(
        store=path,
        nodes=nodes,
        days=days,
        logs=logs,
        truth=sim.truth,
        metadata=metadata,
        simulate_s=simulate_s,
        setup_s=time.perf_counter() - started,
    )
