"""The batch pipeline builds no reference cycles.

``refill analyze`` runs load, reconstruct, diagnose and encode with the
cyclic garbage collector paused, which is safe only while that work leaves
nothing for the collector: what it drops must be freed by reference
counting alone.  With the collector off, ``gc.collect()`` after the run
counts the cyclic garbage it left, and that count must not grow with the
store.
"""

import gc
import pathlib

from repro.analysis.pipeline import default_loss_spec
from repro.cli import _diagnose_store
from repro.events.store import StoreMetadata, load_store, save_store
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee, run_scenario


def _store(path: pathlib.Path, days: int) -> pathlib.Path:
    """A 30-node CitySee store over ``days`` days."""
    params = citysee(n_nodes=30, days=days, seed=2)
    sim = run_scenario(params)
    logs = collect_logs(
        sim.true_logs, default_loss_spec(sim), 3,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    metadata = StoreMetadata(
        sink=sim.sink, base_station=sim.base_station_node,
        gen_interval=params.gen_interval, outages=params.base_station.outages,
    )
    return save_store(path, logs, metadata)


def _cyclic_garbage(store: pathlib.Path) -> int:
    """Objects only the cyclic collector frees, left by one analyze pass."""
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        loaded = load_store(store)
        # one slice, in this process: every stage runs where gc can see it
        run, reports, _est = _diagnose_store(loaded, workers=1, encode=True)
        assert run.parts and reports
        "".join(run.document_parts())
        del loaded, run, reports, _est
        return gc.collect()
    finally:
        if collecting:
            gc.enable()


def test_analyze_leaves_no_cycles_that_grow_with_the_store(tmp_path):
    small, large = _store(tmp_path / "small", 1), _store(tmp_path / "large", 3)
    assert load_store(large).total_events > 2 * load_store(small).total_events
    _cyclic_garbage(small)  # first-use caches and lazy imports
    assert _cyclic_garbage(large) == _cyclic_garbage(small)
