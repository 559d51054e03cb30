"""Tests for parallel reconstruction (results must match the in-process
default session exactly)."""

import pytest

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core.backends import ProcessPoolBackend
from repro.core.session import ReconstructionSession, RefillOptions
from repro.lognet.collector import collect_logs
from repro.obs import MetricsRegistry, use_registry
from repro.simnet.scenarios import citysee, small_network


@pytest.fixture(scope="module")
def collected_logs():
    params = citysee(n_nodes=60, days=1, seed=23)
    sim = run_simulation(params)
    return collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=5,
        perfect_clocks=frozenset({sim.base_station_node}),
    )


class TestParallelMatchesSerial:
    def test_identical_flows(self, collected_logs):
        serial = ReconstructionSession().reconstruct(collected_logs)
        parallel = ReconstructionSession(
            backend=ProcessPoolBackend(workers=2, min_packets=1)
        ).reconstruct(collected_logs)
        assert set(serial) == set(parallel)
        for packet in serial:
            assert serial[packet].labels() == parallel[packet].labels(), packet
            assert serial[packet].omitted == parallel[packet].omitted

    def test_small_inputs_run_serially(self, collected_logs):
        # below min_packets no pool is spun up (and results still correct)
        session = ReconstructionSession(
            backend=ProcessPoolBackend(workers=4, min_packets=10**9)
        )
        flows = session.reconstruct(collected_logs)
        serial = ReconstructionSession().reconstruct(collected_logs)
        assert {p: f.labels() for p, f in flows.items()} == {
            p: f.labels() for p, f in serial.items()
        }

    def test_options_forwarded(self, collected_logs):
        options = RefillOptions(enable_inter=False)
        serial = ReconstructionSession(options=options).reconstruct(collected_logs)
        parallel = ReconstructionSession(
            options=options, backend=ProcessPoolBackend(workers=2, min_packets=1)
        ).reconstruct(collected_logs)
        sample = sorted(serial)[:50]
        for packet in sample:
            # options took effect in the workers: flows match the serial
            # inter-disabled run (intra-jump inference may remain)
            assert serial[packet].labels() == parallel[packet].labels()
            assert (
                parallel[packet].inferred_events()
                == serial[packet].inferred_events()
            )

    def test_strip_times_respected_in_workers(self, collected_logs):
        """Regression: the pooled path used to forward only the
        reconstructor options, silently dropping ``strip_times`` — workers
        reconstructed from timestamped events while a serial run did not."""
        options = RefillOptions(strip_times=True)
        parallel = ReconstructionSession(
            options=options,
            backend=ProcessPoolBackend(workers=2, min_packets=1),
        ).reconstruct(collected_logs)
        for packet, flow in parallel.items():
            assert all(e.time is None for e in flow.events), packet
        serial = ReconstructionSession(options=options).reconstruct(collected_logs)
        assert {p: f.labels() for p, f in parallel.items()} == {
            p: f.labels() for p, f in serial.items()
        }

    def test_single_worker_degrades_to_serial(self, collected_logs):
        flows = ReconstructionSession(
            backend=ProcessPoolBackend(workers=1, min_packets=1)
        ).reconstruct(collected_logs)
        serial = ReconstructionSession().reconstruct(collected_logs)
        assert {p: f.labels() for p, f in flows.items()} == {
            p: f.labels() for p, f in serial.items()
        }


class TestWorkerMetricsMerge:
    def test_parallel_counters_equal_serial(self, collected_logs):
        """Worker registries merged back == one serial registry, counter for
        counter — the pool must not lose or double-count work."""
        with use_registry(MetricsRegistry()) as serial_reg:
            ReconstructionSession().reconstruct(collected_logs)
        with use_registry(MetricsRegistry()) as parallel_reg:
            ReconstructionSession(
                backend=ProcessPoolBackend(workers=2, min_packets=1)
            ).reconstruct(collected_logs)
        serial = serial_reg.snapshot().counters
        parallel = parallel_reg.snapshot().counters
        assert serial == parallel
        # and the run actually counted something
        assert serial["refill.packets"] == len(ReconstructionSession().reconstruct(collected_logs))
        assert serial["refill.events.logged"] > 0

    def test_span_observations_cover_every_packet(self, collected_logs):
        with use_registry(MetricsRegistry()) as reg:
            flows = ReconstructionSession(
                backend=ProcessPoolBackend(workers=2, min_packets=1)
            ).reconstruct(collected_logs)
        per_packet = reg.snapshot().histograms["span.reconstruct.packet"]
        assert per_packet.count == len(flows)
