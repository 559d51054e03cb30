"""S1 — analysis throughput vs network size.

REFILL is an offline analyzer; what matters operationally is that
reconstruction scales linearly in the number of logged events (per-packet
engines are independent).  The benchmark measures reconstruction throughput
across network sizes and checks per-event cost stays roughly flat.
"""

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core.session import ReconstructionSession
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee
from repro.util.tables import render_table

from benchmarks.conftest import bench_seed

SIZES = (40, 80, 160)


def prepare(n_nodes):
    params = citysee(n_nodes=n_nodes, days=1, seed=bench_seed("scalability", 51))
    sim = run_simulation(params)
    logs = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=5,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    events = sum(len(log) for log in logs.values())
    return logs, events


def test_reconstruction_scalability(benchmark, emit):
    import time

    rows = []
    for n_nodes in SIZES:
        logs, events = prepare(n_nodes)
        session = ReconstructionSession()
        start = time.perf_counter()
        flows = session.reconstruct(logs)
        elapsed = time.perf_counter() - start
        rows.append((n_nodes, events, len(flows), elapsed, events / elapsed))

    # benchmark the largest size for the timing table
    logs, events = prepare(SIZES[-1])
    benchmark.pedantic(
        lambda: ReconstructionSession().reconstruct(logs), rounds=3, iterations=1
    )

    # throughput stays in the same ballpark across sizes (no superlinear blowup)
    rates = [rate for *_, rate in rows]
    assert max(rates) < 5 * min(rates)
    assert min(rates) > 5_000  # events/second, generous floor

    emit(
        "scalability",
        render_table(
            ["n_nodes", "log_events", "packets", "seconds", "events_per_s"],
            [
                (n, e, p, round(t, 2), int(r))
                for n, e, p, t, r in rows
            ],
            title="S1 — REFILL reconstruction throughput vs network size",
        ),
    )


def test_parallel_reconstruction(benchmark, emit):
    """S1b — per-packet independence makes analyze parallel.

    ``--workers 1`` against every usable CPU (:mod:`repro.core.split`):
    reconstruct, diagnose and encode.  Byte identity is asserted; speedup
    depends on host cores and is reported, not asserted (CI machines vary).
    """
    import time

    from repro.core.split import reconstruct_slices, usable_cpus

    def analyze(workers):
        run = reconstruct_slices(logs, workers=workers, encode=True)
        # taken piece by piece, as ``refill analyze`` writes it: a
        # one-process run encodes its flows only here
        for _ in run.document_parts():
            pass
        return run

    logs, events = prepare(SIZES[-1])
    serial_start = time.perf_counter()
    serial = analyze(1)
    serial_elapsed = time.perf_counter() - serial_start

    workers = usable_cpus()
    parallel = benchmark.pedantic(
        lambda: analyze(workers),
        rounds=3,
        iterations=1,
    )
    assert "".join(parallel.document_parts()) == "".join(serial.document_parts())

    parallel_start = time.perf_counter()
    analyze(workers)
    parallel_elapsed = time.perf_counter() - parallel_start
    emit(
        "scalability_parallel",
        render_table(
            ["variant", "seconds", "events_per_s"],
            [
                ("--workers 1", round(serial_elapsed, 2), int(events / serial_elapsed)),
                (
                    f"--workers {workers} ({parallel.processes} processes)",
                    round(parallel_elapsed, 2),
                    int(events / parallel_elapsed),
                ),
            ],
            title="S1b — analyze at --workers 1 against every usable CPU "
            f"({events} log events)",
        ),
    )
