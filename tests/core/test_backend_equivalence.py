"""Backend equivalence: results are execution-strategy-independent.

REFILL's per-packet independence is the paper's licence to parallelize; the
session layer's contract is that a one-shot run, a process-pool run and
streaming ingest in any number of batches produce *byte-identical* flows
and identical diagnoses — all equal to a memo-free engine run per packet —
and that the pool's merged counter totals equal an in-process run's, for
every options configuration, including ``strip_times`` and the ablation
switches.
"""

import random

import pytest

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core.backends import ProcessPoolBackend
from repro.core.serialize import flow_json
from repro.core.session import ReconstructionSession, RefillOptions
from repro.events.log import NodeLog
from repro.events.merge import group_by_packet
from repro.lognet.collector import collect_logs
from repro.obs import MetricsRegistry, use_registry
from repro.simnet.scenarios import citysee

CONFIGS = {
    "default": RefillOptions(),
    "strip_times": RefillOptions(strip_times=True),
    "no_inter": RefillOptions(enable_inter=False),
    "no_intra": RefillOptions(enable_intra=False),
}


@pytest.fixture(scope="module")
def corpus():
    params = citysee(n_nodes=60, days=1, seed=23)
    sim = run_simulation(params)
    logs = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=5,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    return logs, sim.base_station_node


def canonical(flows):
    """Byte-exact fingerprint of a reconstruction result."""
    return {str(p): flow_json(f) for p, f in flows.items()}


def run_direct(logs, delivery_node, options):
    """The memo-free reference: one engine run per packet."""
    session = ReconstructionSession(options=options, delivery_node=delivery_node)
    flows = {
        packet: session.reconstruct_group(packet, events_by_node)
        for packet, events_by_node in sorted(group_by_packet(logs).items())
    }
    return flows, session.diagnose(flows)


def run_backend(logs, delivery_node, options, backend=None, *, ingest_batches=None):
    """One full session run under its own registry.

    ``ingest_batches`` switches to the streaming-ingest door: evidence
    arrives in that many per-node ordered segments.
    """
    session = ReconstructionSession(
        options=options, backend=backend, delivery_node=delivery_node
    )
    with use_registry(MetricsRegistry()) as registry:
        if ingest_batches is None:
            flows = session.reconstruct(logs)
            reports = session.diagnose(flows)
        else:
            for batch in ingest_batches:
                session.ingest(batch)
            flows = session.flows()
            reports = session.reports()
    return flows, reports, registry.snapshot()


def shuffled_segments(logs, n_batches, seed):
    """Split each node's log into in-order segments scattered across
    ``n_batches`` batches — arbitrary cross-node interleaving, per-node
    order preserved (the collection-round invariant)."""
    rng = random.Random(seed)
    batches = [dict() for _ in range(n_batches)]
    for node, log in logs.items():
        events = list(log)
        n_cuts = rng.randint(1, min(n_batches, max(1, len(events))))
        cuts = sorted(rng.sample(range(1, len(events)), n_cuts - 1)) if len(events) > 1 else []
        slots = sorted(rng.sample(range(n_batches), n_cuts))
        start = 0
        for slot, end in zip(slots, cuts + [len(events)]):
            batches[slot][node] = events[start:end]
            start = end
    return [b for b in batches if b]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_backends_byte_identical(corpus, config):
    logs, bs = corpus
    options = CONFIGS[config]

    direct_flows, direct_reports = run_direct(logs, bs, options)
    one_shot_flows, one_shot_reports, one_shot_snap = run_backend(logs, bs, options)
    pool_flows, pool_reports, pool_snap = run_backend(
        logs, bs, options, ProcessPoolBackend(workers=2, min_packets=1)
    )
    inc_runs = {
        "one batch": [logs],
        "three batches": shuffled_segments(logs, 3, seed=7),
        "many batches": shuffled_segments(logs, 11, seed=42),
    }

    reference = canonical(direct_flows)
    assert canonical(one_shot_flows) == reference
    assert one_shot_reports == direct_reports
    assert canonical(pool_flows) == reference
    assert pool_reports == direct_reports

    for label, batches in inc_runs.items():
        inc_flows, inc_reports, _ = run_backend(
            logs, bs, options, ingest_batches=batches
        )
        assert canonical(inc_flows) == reference, label
        assert inc_reports == direct_reports, label

    # counter totals survive sharding: the pool merges worker registries
    # back without losing or double-counting a packet
    assert pool_snap.counters == one_shot_snap.counters


@pytest.fixture(scope="module")
def corrupted_corpus(corpus, tmp_path_factory):
    """The module corpus saved to disk, corrupted on-store, reloaded
    tolerantly — what an analyst actually reconstructs from after
    collection damage."""
    from repro.events.store import StoreMetadata, load_store, save_store
    from repro.stress.faults import (
        DuplicateRecords,
        FaultPlan,
        GarbleLines,
        ReorderWindow,
    )
    from repro.util.rng import RngStreams

    logs, bs = corpus
    directory = tmp_path_factory.mktemp("corrupted-store")
    save_store(directory, logs, StoreMetadata(sink=0, base_station=bs, gen_interval=60.0))
    plan = FaultPlan(
        (GarbleLines(p=0.06), DuplicateRecords(p=0.04), ReorderWindow(window=5, p=0.3))
    )
    plan.apply(directory, RngStreams(99))
    loaded = load_store(directory)
    assert sum(loaded.corrupt_lines.values()) > 0  # the garbling bit
    return loaded.logs, bs


@pytest.mark.parametrize("config", ["default", "strip_times"])
def test_backends_byte_identical_on_corrupted_corpus(corrupted_corpus, config):
    """Equivalence must survive hostile corpora: garbled lines (tolerantly
    dropped), duplicated records and reordered windows reach every backend
    identically, so their results must stay byte-identical too."""
    logs, bs = corrupted_corpus
    options = CONFIGS[config]

    direct_flows, direct_reports = run_direct(logs, bs, options)
    one_shot_flows, one_shot_reports, _ = run_backend(logs, bs, options)
    pool_flows, pool_reports, _ = run_backend(
        logs, bs, options, ProcessPoolBackend(workers=2, min_packets=1)
    )
    reference = canonical(direct_flows)
    assert canonical(one_shot_flows) == reference
    assert one_shot_reports == direct_reports
    assert canonical(pool_flows) == reference
    assert pool_reports == direct_reports

    for label, batches in {
        "one batch": [logs],
        "five batches": shuffled_segments(logs, 5, seed=13),
    }.items():
        inc_flows, inc_reports, _ = run_backend(
            logs, bs, options, ingest_batches=batches
        )
        assert canonical(inc_flows) == reference, label
        assert inc_reports == direct_reports, label


def test_incremental_batched_refresh_with_late_truncation_on_corrupted_corpus(
    corrupted_corpus,
):
    """Regression pin for the batched dirty-set recomputation: ``refresh``
    reconstructs the whole dirty set in one serial pass with a reused
    reconstructor.  Refreshing after every shuffled batch — with one node's
    tail lost after the early rounds and another vanishing entirely — must
    stay byte-identical to a memo-free run over the evidence that was
    actually delivered."""
    logs, bs = corrupted_corpus
    options = CONFIGS["default"]
    nodes = sorted(n for n in logs if n != bs and len(logs[n]) >= 3)
    truncated, vanished = nodes[0], nodes[1]

    batches = shuffled_segments(logs, 5, seed=61)
    # the first two batches arrive whole; from then on the truncated and
    # vanished nodes' remaining segments are lost
    delivered = []
    for i, batch in enumerate(batches):
        if i >= 2:
            batch = {
                n: evs for n, evs in batch.items() if n not in (truncated, vanished)
            }
        if batch:
            delivered.append(batch)

    session = ReconstructionSession(options=options, delivery_node=bs)
    for batch in delivered:
        session.ingest(batch)
        session.refresh()  # one dirty-set recomputation per batch
    inc_flows = session.flows()
    inc_reports = session.reports()

    union: dict[int, list] = {}
    for batch in delivered:
        for node, events in batch.items():
            union.setdefault(node, []).extend(events)
    union_logs = {node: NodeLog(node, events) for node, events in union.items()}
    direct_flows, direct_reports = run_direct(union_logs, bs, options)
    assert canonical(inc_flows) == canonical(direct_flows)
    assert inc_reports == direct_reports


def test_incremental_counters_cover_every_packet(corpus):
    logs, bs = corpus
    _, reports, snap = run_backend(logs, bs, RefillOptions(), ingest_batches=[logs])
    assert snap.counters["refill.packets"] == len(reports)
    assert snap.counters["diagnose.packets"] == len(reports)
    assert snap.histograms["span.reconstruct.packet"].count == len(reports)
