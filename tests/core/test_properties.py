"""Property-based tests for the transition algorithm's invariants.

Strategy: generate a *true* multi-hop packet history on a chain (with
optional retransmission and loop episodes), drop an arbitrary subset of its
events, reconstruct, and check the invariants that must hold for any
subset:

- conservation: every surviving input event is either in the flow (as a
  real entry) or omitted — never duplicated, never invented;
- per-node order: the real entries of each node appear in log order;
- soundness: inferred events only ever have signatures the complete history
  contained (REFILL does not hallucinate event kinds);
- happens-before is a strict partial order consistent with the linearization;
- determinism.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transition_algorithm import PacketReconstructor
from repro.events.event import Event, EventType
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template

PKT = PacketKey(1, 0)
TEMPLATE = forwarder_template(with_gen=False)


def chain_history(n_hops: int, ack_loss_hop: int | None) -> list[Event]:
    """True event sequence of a packet traversing nodes 1..n_hops+1."""
    events: list[Event] = []
    for i in range(1, n_hops + 1):
        a, b = i, i + 1
        events.append(Event.make(EventType.TRANS, a, src=a, dst=b, packet=PKT))
        events.append(Event.make(EventType.RECV, b, src=a, dst=b, packet=PKT))
        if ack_loss_hop == i:
            events.append(Event.make(EventType.TIMEOUT, a, src=a, dst=b, packet=PKT))
        else:
            events.append(Event.make(EventType.ACK, a, src=a, dst=b, packet=PKT))
    return events


@st.composite
def lossy_scenarios(draw):
    n_hops = draw(st.integers(min_value=1, max_value=5))
    ack_loss = draw(st.none() | st.integers(min_value=1, max_value=n_hops))
    history = chain_history(n_hops, ack_loss)
    keep = draw(st.lists(st.booleans(), min_size=len(history), max_size=len(history)))
    surviving = [e for e, k in zip(history, keep) if k]
    return history, surviving


def to_queues(events):
    queues: dict[int, list[Event]] = {}
    for event in events:
        queues.setdefault(event.node, []).append(event)
    return queues


def reconstruct(surviving):
    return PacketReconstructor(TEMPLATE, PKT).reconstruct(to_queues(surviving))


class TestReconstructionInvariants:
    @given(lossy_scenarios())
    @settings(max_examples=120)
    def test_conservation(self, scenario):
        _, surviving = scenario
        flow = reconstruct(surviving)
        assert len(flow.real_events()) + len(flow.omitted) == len(surviving)
        # real entries are exactly the non-omitted survivors
        assert Counter(flow.real_events()) + Counter(flow.omitted) == Counter(surviving)

    @given(lossy_scenarios())
    @settings(max_examples=120)
    def test_per_node_log_order_preserved(self, scenario):
        _, surviving = scenario
        flow = reconstruct(surviving)
        omitted = Counter(flow.omitted)
        for node, queue in to_queues(surviving).items():
            expected = [e for e in queue if not omitted.get(e)]
            got = [e for e in flow.real_events() if e.node == node]
            # multiset-level: per-node order of non-omitted events preserved
            kept = []
            pending = Counter(got)
            for e in queue:
                if pending.get(e, 0) > 0:
                    kept.append(e)
                    pending[e] -= 1
            assert got == kept

    @given(lossy_scenarios())
    @settings(max_examples=120)
    def test_inferred_signatures_are_sound(self, scenario):
        history, surviving = scenario
        flow = reconstruct(surviving)
        true_signatures = {(e.etype, e.node) for e in history}
        # engines may additionally infer a dup arrival for a re-received
        # copy; everything else must exist in the complete history
        for event in flow.inferred_events():
            assert (event.etype, event.node) in true_signatures or event.etype == "dup"

    @given(lossy_scenarios())
    @settings(max_examples=120)
    def test_happens_before_strict_partial_order(self, scenario):
        _, surviving = scenario
        flow = reconstruct(surviving)
        n = len(flow.entries)
        for i in range(n):
            assert not flow.happens_before(i, i)
            for j in range(i + 1, n):
                # consistent with the linearization: no backward edges
                assert not flow.happens_before(j, i)

    @given(lossy_scenarios())
    @settings(max_examples=60)
    def test_deterministic(self, scenario):
        _, surviving = scenario
        a = reconstruct(surviving)
        b = reconstruct(surviving)
        assert a.labels() == b.labels()
        assert a.hb_edges == b.hb_edges
        assert a.omitted == b.omitted

    @given(lossy_scenarios())
    @settings(max_examples=120)
    def test_classification_total(self, scenario):
        from repro.core.diagnosis import classify_flow

        _, surviving = scenario
        flow = reconstruct(surviving)
        report = classify_flow(flow, delivery_node=7)
        assert report.cause is not None
        if report.position is not None and flow.entries:
            known_nodes = {e.node for e in flow.events}
            known_nodes |= {e.src for e in flow.events if e.src is not None}
            known_nodes |= {e.dst for e in flow.events if e.dst is not None}
            assert report.position in known_nodes

    @given(lossy_scenarios())
    @settings(max_examples=60)
    def test_full_history_reconstructs_without_inference(self, scenario):
        history, _ = scenario
        flow = reconstruct(history)
        assert flow.inferred_events() == []
        assert flow.omitted == []
        assert len(flow.entries) == len(history)
