"""The one flow encoder against the dict route.

:func:`repro.core.serialize.flow_json` writes canonical JSON straight from
a flow's fields; ``dumps_canonical(flow_to_dict(flow))`` builds the same
document as a plain dict, field by field, and is what every door wrote
before.  The two must agree byte for byte on every flow, including the
values that leave the common case: escapes and non-ASCII text, signed
zero, exponents and non-finite times, non-string info values, packet-less
flows, and keys whose string order differs from their numeric order.
"""

import json
import math

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.event_flow import EventFlow
from repro.core.serialize import (
    dumps_canonical,
    encode_flows,
    flow_json,
    flow_to_dict,
    flows_to_json,
)
from repro.events.event import Event
from repro.events.packet import PacketKey
from tests.strategies import SAFE_TEXT, event_flows, packet_keys

#: Text the JSON encoder must escape, or write as ``\\uXXXX``.
AWKWARD = 'say "hi"\\ now\nthen\u2028café ☃ \U0001f600'


def _flow(packet=PacketKey(1, 2), *, times=(), info=(), provenance="logged",
          anomalies=(), nodes=(3,)):
    flow = EventFlow(packet)
    for i, time in enumerate(times or (None,)):
        flow.append(
            Event("trans", nodes[0], nodes[0], 7, packet, time, tuple(info)),
            inferred=bool(i % 2),
            after=[i - 1] if i else (),
            provenance=provenance,
        )
    flow.omitted.append(Event("dup", 7, 9, 7, packet, None, tuple(info)))
    flow.anomalies.extend(anomalies)
    for node in nodes:
        flow.final_states[node] = "sent"
        flow.visited_states[node] = frozenset({"sent", "init"})
    return flow


TEXT_FLOW = _flow(
    info=(("note", AWKWARD), ("why", "\x00\x1f\x7f")),
    provenance=AWKWARD,
    anomalies=(AWKWARD, "plain"),
)
TIMES_FLOW = _flow(times=(-0.0, 1.0, 1e16, math.nan, math.inf, -math.inf, 3))
INFO_FLOW = _flow(info=(("a", 1), ("b", True), ("c", None), ("d", 2.5), ("e", False)))
PACKETLESS_FLOW = _flow(packet=None)
NODES_FLOW = _flow(nodes=(10, 9, 100))
UNSORTED_INFO_FLOW = _flow(info=(("z", 1), ("a", 2), ("a", 3)))


def _dict_route(flow) -> str:
    return dumps_canonical(flow_to_dict(flow))


@given(event_flows())
@example(TEXT_FLOW)
@example(TIMES_FLOW)
@example(INFO_FLOW)
@example(PACKETLESS_FLOW)
@example(NODES_FLOW)
@example(UNSORTED_INFO_FLOW)
@example(EventFlow())
def test_flow_json_matches_the_dict_route(flow):
    assert flow_json(flow) == _dict_route(flow)


_SCALARS = (
    st.text(max_size=8)
    | st.integers()
    | st.floats()
    | st.booleans()
    | st.none()
)


@st.composite
def wild_flows(draw):
    """Flows whose fields leave the common case: any text, any float
    (signed zero, non-finite), info values of every JSON scalar type."""
    packet = draw(st.none() | packet_keys)
    flow = EventFlow(packet)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        info = draw(st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3))
        flow.append(
            Event(
                draw(st.text(max_size=6)),
                draw(st.integers(min_value=-5, max_value=20)),
                draw(st.none() | st.integers(min_value=0, max_value=20)),
                draw(st.none() | st.integers(min_value=0, max_value=20)),
                draw(st.none() | st.just(packet) | packet_keys),
                draw(st.none() | st.floats() | st.integers()),
                tuple(sorted(info.items())),
            ),
            inferred=draw(st.booleans()),
            provenance=draw(st.text(max_size=10)),
        )
    flow.anomalies.extend(draw(st.lists(st.text(max_size=10), max_size=2)))
    for node in draw(st.lists(st.integers(0, 30), unique=True, max_size=4)):
        states = draw(st.lists(SAFE_TEXT, min_size=1, max_size=3, unique=True))
        flow.visited_states[node] = frozenset(states)
        flow.final_states[node] = draw(st.text(max_size=6))
    return flow


@given(wild_flows())
def test_flow_json_matches_the_dict_route_on_any_value(flow):
    assert flow_json(flow) == _dict_route(flow)


@given(st.lists(event_flows(), max_size=6))
@example([_flow(PacketKey(1, 2)), _flow(PacketKey(1, 10)), _flow(PacketKey(1, 18))])
def test_encode_flows_matches_the_dict_route(flow_list):
    # p1.2, p1.10, p1.18, ...: string order differs from packet-key order
    flows = {PacketKey(1, 2 + 8 * i): flow for i, flow in enumerate(flow_list)}
    assert encode_flows(flows) == dumps_canonical(flows_to_json(flows))


def test_document_keys_are_in_string_order():
    flows = {PacketKey(1, 2): _flow(PacketKey(1, 2)), PacketKey(1, 10): _flow(PacketKey(1, 10))}
    assert list(json.loads(encode_flows(flows))) == ["p1.10", "p1.2"]
    assert encode_flows({}) == "{}"


def test_final_states_keys_are_in_string_order():
    assert list(json.loads(flow_json(NODES_FLOW))["final_states"]) == ["10", "100", "9"]

