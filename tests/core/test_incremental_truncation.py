"""Late truncation: a node's log shrinks or disappears between batches.

Collection is not append-only in the field — a node can crash and lose its
log tail, or vanish entirely, *after* earlier rounds already delivered a
prefix.  The incremental backend's contract under that shape:

- flows equal a from-scratch one-shot run over the union of evidence that
  was actually delivered (the withheld tail simply never existed);
- the dirty set stays exact — packets whose evidence saw no new events are
  neither re-reconstructed nor re-reported by ``refresh``.
"""

import pytest

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.core.session import ReconstructionSession
from repro.events.log import NodeLog
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee

from tests.core.test_backend_equivalence import canonical


@pytest.fixture(scope="module")
def corpus():
    params = citysee(n_nodes=16, days=1, seed=31)
    sim = run_simulation(params)
    logs = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=8,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    return logs, sim.base_station_node


def _split(logs, truncated, vanished):
    """Two collection rounds: round 1 delivers a prefix of every log;
    round 2 delivers the rest — except the ``truncated`` node's tail is
    lost and the ``vanished`` node is gone entirely."""
    first, second = {}, {}
    for node, log in logs.items():
        events = list(log)
        cut = (2 * len(events)) // 3
        first[node] = events[:cut]
        if node == truncated or node == vanished:
            continue  # the tail never arrives
        second[node] = events[cut:]
    return first, second


def _delivered_union(first, second):
    union = {}
    for batch in (first, second):
        for node, events in batch.items():
            union.setdefault(node, []).extend(events)
    return {node: NodeLog(node, events) for node, events in union.items()}


def test_truncated_and_vanished_nodes_match_from_scratch_serial(corpus):
    logs, bs = corpus
    nodes = sorted(n for n in logs if n != bs and len(logs[n]) >= 3)
    truncated, vanished = nodes[0], nodes[1]
    first, second = _split(logs, truncated, vanished)

    inc = ReconstructionSession(delivery_node=bs)
    inc.ingest(first)
    inc.refresh()
    inc.ingest(second)
    inc_flows = inc.flows()
    inc_reports = inc.reports()

    one_shot = ReconstructionSession(delivery_node=bs)
    flows = one_shot.reconstruct(_delivered_union(first, second))
    assert canonical(inc_flows) == canonical(flows)
    assert inc_reports == one_shot.diagnose(flows)


def test_dirty_set_is_exactly_the_second_round_evidence(corpus):
    logs, bs = corpus
    nodes = sorted(n for n in logs if n != bs and len(logs[n]) >= 3)
    truncated, vanished = nodes[0], nodes[1]
    first, second = _split(logs, truncated, vanished)

    session = ReconstructionSession(delivery_node=bs)
    session.ingest(first)
    refreshed_first = session.refresh()

    touched = session.ingest(second)
    expected = {
        e.packet
        for events in second.values()
        for e in events
        if e.packet is not None
    }
    assert touched == expected
    assert session.backend.dirty == expected

    # the withheld tails dirty nothing: packets whose only remaining
    # evidence sat in the lost suffix of the truncated/vanished logs are
    # not re-reconstructed...
    refreshed_second = session.refresh()
    assert refreshed_second == expected
    # ...and a refresh with no new evidence is a no-op
    assert session.refresh() == set()

    # every packet ever evidenced (round 1 or 2) still has a flow
    evidenced = {
        e.packet
        for batch in (first, second)
        for events in batch.values()
        for e in events
        if e.packet is not None
    }
    assert set(session.flows()) == evidenced
    assert refreshed_first == {
        e.packet
        for events in first.values()
        for e in events
        if e.packet is not None
    }
