"""The shape memo against its oracle, the memo-free :class:`PacketReconstructor`.

- A Hypothesis property: under the forwarder template an order-preserving
  relabelling of a packet's evidence relabels its flow, field by field, and
  replaying the first packet's record over the relabelled evidence gives
  the relabelled packet's own flow byte for byte.
- Differential runs: the memo's flows and counters equal the direct
  engine's on a 120-node store, the defective-deployment fixture and the
  corpora of a ``refill stress`` campaign.
- The byte template: packets of one shape that differ in everything the
  shape key leaves out (ids, packet key, times, equal but differently
  encoded ``info`` values) fill their shape's template with the bytes the
  field encoder and the dict route write; a flow mutated after the memo
  built it encodes its mutation.
- Bypasses: per-node template factories, explicit-node and ``TARGETS``
  prerequisite peers never touch the memo.
"""

import math
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.backends import IncrementalBackend
from repro.core.event_flow import Note
from repro.core.memo import ATOMS_CAP, MEMO_CAP, Pending, ShapeMemo, record_of, replay
from repro.core import serialize
from repro.core.serialize import dumps_canonical, flow_json, flow_to_dict
from repro.core.session import ReconstructionSession
from repro.core.transition_algorithm import PacketReconstructor, ReconCounters
from repro.events.event import Event
from repro.events.merge import group_by_packet
from repro.events.packet import PacketKey
from repro.events.store import load_store
from repro.fsm.prerequisites import Peer, PrereqRule
from repro.fsm.templates import (
    FsmTemplate,
    chain_template,
    dissemination_templates,
    forwarder_template,
)
from repro.obs import MetricsRegistry, use_registry

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

SENDER_SIDE = ("trans", "ack_recvd", "timeout")
RECEIVER_SIDE = ("recv", "dup", "overflow")


# ---------------------------------------------------------------------- #
# the relabelling property


@st.composite
def packet_groups(draw):
    """One packet's evidence under the forwarder vocabulary: a few nodes,
    each with a short queue of sender-side, receiver-side and ``gen``
    events (peers sometimes missing, sometimes naming a node with no
    queue; a record's node sometimes not its queue's)."""
    ids = sorted(draw(st.sets(st.integers(0, 60), min_size=2, max_size=6)))
    origin = draw(st.sampled_from(ids))
    packet = PacketKey(origin, draw(st.integers(0, 99)))
    queues = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids), unique=True))
    peer = st.none() | st.sampled_from(ids)
    group = {}
    for node in sorted(queues):
        events = []
        for _ in range(draw(st.integers(1, 5))):
            etype = draw(st.sampled_from(("gen", *SENDER_SIDE, *RECEIVER_SIDE)))
            at = node if draw(st.integers(0, 9)) else draw(st.sampled_from(ids))
            if etype == "gen":
                src = dst = None
            elif etype in SENDER_SIDE:
                src, dst = at, draw(peer)
            else:
                src, dst = draw(peer), at
            time = draw(st.none() | st.floats(0, 1e6, allow_nan=False))
            events.append(Event(etype, at, src, dst, packet, time))
        group[node] = events
    return packet, group


def _relabelling(draw, ids):
    """An order-preserving map from ``ids`` onto fresh ids."""
    fresh = sorted(draw(st.sets(st.integers(0, 10_000), min_size=len(ids), max_size=len(ids))))
    mapping = dict(zip(sorted(ids), fresh))
    mapping[None] = None
    return mapping


def _ids_of(packet, group):
    ids = {packet.origin, *group}
    for events in group.values():
        for e in events:
            ids.update((e.node, e.src, e.dst))
    ids.discard(None)
    return ids


def _event(f, packet, e):
    return Event(e.etype, f[e.node], f[e.src], f[e.dst], packet, e.time, e.info)


def _note(f, packet, note):
    event = None if note.event is None else _event(f, packet, note.event)
    node = None if note.node is None else f[note.node]
    return Note(note.kind, node, event, note.detail).render()


def _direct(template, packet, group):
    reconstructor = PacketReconstructor(template, packet)
    return reconstructor, reconstructor.run(group)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), drawn=packet_groups())
def test_relabelling_the_evidence_relabels_the_flow(data, drawn):
    packet, group = drawn
    f = _relabelling(data.draw, _ids_of(packet, group))
    moved = PacketKey(f[packet.origin], packet.seq + 1)
    moved_group = {f[node]: [_event(f, moved, e) for e in events] for node, events in group.items()}

    template = forwarder_template()
    first, a = _direct(template, packet, group)
    second, b = _direct(template, moved, moved_group)

    assert [_event(f, moved, e.event) for e in a.entries] == b.events
    assert [e.inferred for e in a.entries] == [e.inferred for e in b.entries]
    assert [_note(f, moved, n) for n in first.notes] == [e.provenance for e in b.entries]
    assert a.hb_edges == b.hb_edges
    assert [_event(f, moved, e) for e in a.omitted] == b.omitted
    assert [_note(f, moved, n) for n in first.anomaly_notes] == b.anomalies
    assert {f[n]: s for n, s in a.final_states.items()} == b.final_states
    assert {f[n]: s for n, s in a.visited_states.items()} == b.visited_states
    assert first.tally() == second.tally()

    # the memo's view: same shape, and the first run's record replayed over
    # the relabelled evidence is the relabelled packet's own flow
    memo = ShapeMemo.for_template(template)
    key_a, ids_a = memo.shape(packet, group)
    key_b, ids_b = memo.shape(moved, moved_group)
    assert key_a == key_b
    record = record_of(first, ids_a)
    assert record is not None
    counters = ReconCounters(MetricsRegistry())
    assert flow_json(replay(record, moved, moved_group, ids_b, counters)) == flow_json(b)


# ---------------------------------------------------------------------- #
# the byte template

#: Times the key leaves out, among them values :mod:`json` writes its own way.
TIMES = (None, -0.0, 0.0, 1e16, 1.5, math.nan, math.inf, -math.inf, 3, -7)
#: ``info`` values by equality class: one key, several encodings.
INFO_CLASSES = ((1, 1.0, True), ("1",), (0, -0.0, False), (2.5,), (None,))


@st.composite
def same_shape_packets(draw):
    """Two packets of one shape: the second relabels the first's ids in
    order, has another packet key, and draws every time and every ``info``
    value (within its equality class) afresh."""
    packet, group = draw(packet_groups())
    f = _relabelling(draw, _ids_of(packet, group))
    moved = PacketKey(f[packet.origin], packet.seq + 1 + draw(st.integers(0, 5)))
    time = st.sampled_from(TIMES)

    def info(classes):
        return tuple([
            (name, draw(st.sampled_from(INFO_CLASSES[c]))) for name, c in classes
        ])

    first, second = {}, {}
    for node, events in group.items():
        first[node], second[f[node]] = [], []
        for e in events:
            classes = draw(st.lists(
                st.tuples(st.sampled_from(("a", "n", "z")), st.integers(0, len(INFO_CLASSES) - 1)),
                max_size=2, unique_by=lambda kv: kv[0],
            ))
            classes.sort()
            first[node].append(
                Event(e.etype, e.node, e.src, e.dst, packet, draw(time), info(classes))
            )
            second[f[node]].append(Event(
                e.etype, f[e.node], f[e.src], f[e.dst], moved, draw(time), info(classes)
            ))
    return (packet, first), (moved, second)


def _memo_flows(template, *groups):
    """Each group's flow through one memo, and the memo's counters."""
    memo = ShapeMemo.for_template(template)
    reconstructor = PacketReconstructor(template, None)
    flows = []
    with use_registry(MetricsRegistry()) as registry:
        for packet, group in groups:
            reconstructor.packet = packet
            flows.append(memo.flow(reconstructor, group))
    return flows, registry.snapshot().counters


def _timed(group) -> bool:
    """Whether every event has a time the template writes (finite, a plain
    ``int`` or ``float``); other flows are written field by field."""
    return all(
        type(e.time) in (int, float) and e.time - e.time == 0
        for events in group.values() for e in events
    )


@settings(max_examples=200, deadline=None)
@given(same_shape_packets())
@example((
    (PacketKey(9, 1), {9: [Event("gen", 9, None, None, PacketKey(9, 1), 3, (("n", 1),))],
                       10: [Event("recv", 10, 9, 10, PacketKey(9, 1), math.nan)]}),
    (PacketKey(99, 7), {99: [Event("gen", 99, None, None, PacketKey(99, 7), -0.0, (("n", True),))],
                        100: [Event("recv", 100, 99, 100, PacketKey(99, 7), 1e16)]}),
))
def test_template_fills_are_the_field_encoders_bytes(pair):
    (packet, group), (moved, moved_group) = pair
    template = forwarder_template()
    (miss, hit), counters = _memo_flows(template, (packet, group), (moved, moved_group))
    assert counters["refill.memo.hits"] == 1
    direct = PacketReconstructor(template, moved).run(moved_group)
    for flow, evidence in ((miss, group), (hit, moved_group)):
        expected = dumps_canonical(flow_to_dict(flow))
        assert serialize._fields_json(flow) == expected
        assert flow_json(flow) == expected
        filled = serialize._filled_json(flow, *flow.encoding)
        assert filled is not None or not _timed(evidence)
        assert filled in (None, expected)
    assert flow_json(hit) == serialize._fields_json(direct)


def _chain_packet(packet):
    """Evidence of a two-hop forward whose flow infers entries and orders
    them."""
    o = packet.origin
    return {
        o: [Event("gen", o, None, None, packet, 1.0),
            Event("trans", o, o, o + 1, packet, 2.0)],
        o + 1: [Event("trans", o + 1, o + 1, o + 2, packet, 3.0)],
        o + 2: [Event("recv", o + 2, o + 1, o + 2, packet, 4.0)],
    }


@pytest.mark.parametrize("mutate", [
    lambda flow: flow.append(Event("dup", 1, 2, 1), inferred=True, provenance="late"),
    lambda flow: flow.add_order(0, len(flow) - 1),
    lambda flow: flow.add_orders([(len(flow) - 1, 0)]),
    lambda flow: flow.anomalies.append("checked by hand"),
    lambda flow: flow.omitted.append(flow.entries[0].event),
], ids=["append", "add_order", "add_orders", "anomalies", "omitted"])
def test_a_mutated_replay_encodes_its_mutation(mutate):
    packets = [PacketKey(10, 1), PacketKey(20, 2)]
    (_, hit), counters = _memo_flows(
        forwarder_template(), *[(p, _chain_packet(p)) for p in packets]
    )
    assert counters["refill.memo.hits"] == 1 and hit.encoding is not None
    before = flow_json(hit)
    assert len(hit) >= 2 and before == dumps_canonical(flow_to_dict(hit))
    mutate(hit)
    after = flow_json(hit)
    assert after != before
    assert after == dumps_canonical(flow_to_dict(hit))


# ---------------------------------------------------------------------- #
# differential runs: memo flows == direct flows


def _memo_and_direct(groups, template=None):
    """Flows and counters of a memo run and of the direct engine."""
    template = template or forwarder_template()
    session = ReconstructionSession(template)
    with use_registry(MetricsRegistry()) as registry:
        session._start_backend()
        flows = dict(session.backend._reconstruct_serially(groups))
        session.backend.close()
    memo_counters = registry.snapshot().counters
    direct = {}
    with use_registry(MetricsRegistry()) as registry:
        for packet, group in groups:
            direct[packet] = PacketReconstructor(template, packet).reconstruct(group)
    return flows, memo_counters, direct, registry.snapshot().counters


def _assert_same(groups, template=None):
    flows, memo_counters, direct, direct_counters = _memo_and_direct(groups, template)
    assert flows.keys() == direct.keys()
    for packet in direct:
        assert flow_json(flows[packet]) == flow_json(direct[packet]), packet
    hits = memo_counters.pop("refill.memo.hits")
    misses = memo_counters.pop("refill.memo.misses")
    assert hits + misses == direct_counters["refill.packets"]
    assert memo_counters == {
        k: v for k, v in direct_counters.items() if not k.startswith("refill.memo.")
    }
    return hits


def _groups(logs):
    return sorted(group_by_packet(logs).items())


@pytest.fixture(scope="module")
def bench_logs():
    """The 120-node, 2-day, seed-1 CitySee corpus (the benchmark's store)."""
    from repro.analysis.pipeline import default_loss_spec
    from repro.lognet.collector import collect_logs
    from repro.simnet.scenarios import citysee, run_scenario

    sim = run_scenario(citysee(n_nodes=120, days=2, seed=1))
    return collect_logs(
        sim.true_logs, default_loss_spec(sim), 2,
        perfect_clocks=frozenset({sim.base_station_node}),
    )


def test_memo_matches_direct_engine_on_the_bench_corpus(bench_logs):
    groups = _groups(bench_logs)
    hits = _assert_same(groups)
    # most packets repeat an earlier packet's shape
    assert hits / len(groups) >= 0.6


def test_memo_matches_direct_engine_on_the_defective_fixture():
    store = load_store(FIXTURES / "defective-deployment")
    _assert_same(_groups(store.logs))


def test_memo_matches_direct_engine_on_stress_corpora(tmp_path):
    from repro.stress.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(seed=11, cases=3, nodes=20, profile="harsh", shrink=False)
    run_campaign(config, tmp_path)
    corpora = sorted(tmp_path.glob("*/corpus"))
    assert corpora
    for corpus in corpora:
        try:
            store = load_store(corpus)
        except ValueError:
            continue  # metadata damage: every door refuses this store
        _assert_same(_groups(store.logs))


def test_incremental_refreshes_share_one_memo(bench_logs):
    """A daemon-style session keeps its memo across refreshes: re-deriving
    growing packets node by node hits shapes seen in earlier refreshes."""
    session = ReconstructionSession(backend=IncrementalBackend())
    nodes = sorted(bench_logs)[:40]
    with use_registry(MetricsRegistry()) as registry:
        for node in nodes:
            session.ingest({node: bench_logs[node]})
            session.refresh()
        flows = session.flows()
    counters = registry.snapshot().counters
    hits, misses = counters["refill.memo.hits"], counters["refill.memo.misses"]
    assert hits + misses == counters["refill.packets"]
    assert hits > misses
    direct = ReconstructionSession().reconstruct({n: bench_logs[n] for n in nodes})
    assert {p: flow_json(f) for p, f in flows.items()} == {
        p: flow_json(f) for p, f in direct.items()
    }


def test_memo_is_bounded():
    memo = ShapeMemo()
    for n in range(ATOMS_CAP + 10):
        memo.put(((n, "shape"),), Pending(None))
        # a fresh table starts once the cap is reached (one shape's parts over)
        assert len(memo.atoms) <= ATOMS_CAP + 2
    assert len(memo.records) == MEMO_CAP
    assert (((0, "shape"),)) not in memo.records
    assert (((ATOMS_CAP + 9, "shape"),)) in memo.records


def test_stored_shapes_share_their_parts(bench_logs):
    session = ReconstructionSession()
    session._start_backend()
    groups = _groups({n: bench_logs[n] for n in sorted(bench_logs)[:30]})
    list(session.backend._reconstruct_serially(groups))
    parts = {}
    for key, record in session.backend.memo.records.items():
        for part in (*key[2], *record.entries, *record.states):
            assert parts.setdefault(part, part) is part  # one copy of each


# ---------------------------------------------------------------------- #
# bypasses


def _repeated(packets, build):
    """``build(packet)`` evidence for each packet, grouped by node."""
    return [(packet, build(packet)) for packet in packets]


def _hits(template, groups):
    session = ReconstructionSession(template)
    with use_registry(MetricsRegistry()) as registry:
        session._start_backend()
        list(session.backend._reconstruct_serially(groups))
    counters = registry.snapshot().counters
    return counters["refill.memo.hits"], counters["refill.memo.misses"]


def test_dissemination_template_for_bypasses_the_memo():
    def build(packet):
        return {
            1: [Event.make("adv", 1, packet=packet, targets="2,3"),
                Event.make("complete", 1, packet=packet)],
            2: [Event.make("update_ack", 2, src=2, dst=1, packet=packet)],
            3: [Event.make("update_recv", 3, src=1, dst=3, packet=packet)],
        }

    groups = _repeated([PacketKey(1, seq) for seq in range(5)], build)
    assert _hits(dissemination_templates(seeder=1), groups) == (0, 0)
    assert _hits(forwarder_template(), _repeated(
        [PacketKey(1, seq) for seq in range(5)],
        lambda p: {1: [Event.make("gen", 1, packet=p)]},
    )) == (4, 1)


def test_explicit_node_peers_bypass_the_memo():
    template = chain_template("n", ["e1", "e2"], {"e2": [PrereqRule(2, "s1")]})
    assert template.pinned_nodes is None
    groups = _repeated(
        [PacketKey(1, seq) for seq in range(5)],
        lambda p: {1: [Event.make("e2", 1, packet=p)], 2: [Event.make("e1", 2, packet=p)]},
    )
    assert _hits(template, groups) == (0, 0)
    # even a template that declares itself relabel-safe is refused once a
    # prerequisite names a node, or reads peers out of ``info``
    for peer in (2, Peer.TARGETS):
        relabel_safe = FsmTemplate(
            "pinned", template.graph, {"e2": [PrereqRule(peer, "s1")]}, pinned_nodes=()
        )
        assert ShapeMemo.for_template(relabel_safe) is None
        assert _hits(relabel_safe, groups) == (0, 0)


def test_unhashable_info_runs_the_engine():
    packet = PacketKey(1, 0)
    group = {1: [Event("gen", 1, None, None, packet, None, (("hops", [1, 2]),))]}
    assert _hits(forwarder_template(), [(packet, group), (packet, group)]) == (0, 2)
