"""End-to-end through the disk format: simulate → save → load → analyze.

The CLI's workflow as a library round-trip: the diagnosis computed from
reloaded text logs must equal the diagnosis computed in memory.
"""

import pytest

from repro.analysis.causes import attribute_server_outages, cause_shares
from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.baselines.sink_view import SinkView
from repro.core.diagnosis import classify_flow
from repro.core.session import ReconstructionSession
from repro.events.store import StoreMetadata, load_store, save_store
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    params = citysee(n_nodes=40, days=1, seed=59)
    sim = run_simulation(params)
    collected = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=3,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    metadata = StoreMetadata(
        sink=sim.sink,
        base_station=sim.base_station_node,
        gen_interval=params.gen_interval,
        outages=params.base_station.outages,
    )
    directory = tmp_path_factory.mktemp("pipeline") / "store"
    save_store(directory, collected, metadata)
    return sim, collected, load_store(directory)


def diagnose(logs, metadata):
    flows = ReconstructionSession().reconstruct(logs)
    reports = {
        p: classify_flow(f, delivery_node=metadata.base_station)
        for p, f in flows.items()
    }
    bs_arrivals = [
        (e.packet, e.time)
        for e in logs.get(metadata.base_station, [])
        if e.etype == "recv" and e.packet is not None
    ]
    view = SinkView(bs_arrivals, metadata.gen_interval)
    est = {p: view.estimate_loss_time(p) for p in reports}
    return attribute_server_outages(
        reports, est,
        outages=metadata.outages,
        sink=metadata.sink,
        base_station=metadata.base_station,
    )


class TestStoreRoundTripPipeline:
    def test_logs_survive_the_disk(self, roundtrip):
        sim, collected, store = roundtrip
        assert store.corrupt_lines == {}
        assert set(store.logs) == set(collected)
        for node in collected:
            assert list(store.logs[node]) == list(collected[node])

    def test_diagnosis_identical_from_disk(self, roundtrip):
        sim, collected, store = roundtrip
        in_memory = diagnose(collected, store.metadata)
        from_disk = diagnose(store.logs, store.metadata)
        assert set(in_memory) == set(from_disk)
        for packet in in_memory:
            assert in_memory[packet].cause == from_disk[packet].cause
            assert in_memory[packet].position == from_disk[packet].position

    def test_shares_match(self, roundtrip):
        sim, collected, store = roundtrip
        a = cause_shares(diagnose(collected, store.metadata))
        b = cause_shares(diagnose(store.logs, store.metadata))
        assert a == b
