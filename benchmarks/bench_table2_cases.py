"""Table II — the paper's four lossy-log cases, reproduced verbatim.

Benchmarks the per-packet reconstruction on the exact inputs of Table II
and asserts the outputs quoted in §IV-C, bracketed inferred events
included.
"""

from repro.core.session import ReconstructionSession
from repro.events.event import Event, EventType
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template
from repro.util.tables import render_table

PKT = PacketKey(1, 0)


def ev(etype, node, src, dst):
    return Event.make(etype, node, src=src, dst=dst, packet=PKT)


def trans(a, b):
    return ev(EventType.TRANS, a, a, b)


def ack(a, b):
    return ev(EventType.ACK, a, a, b)


def recv(a, b):
    return ev(EventType.RECV, b, a, b)


CASES = {
    "complete": {
        1: [trans(1, 2), ack(1, 2)],
        2: [recv(1, 2), trans(2, 3), ack(2, 3)],
        3: [recv(2, 3)],
    },
    "case1": {1: [trans(1, 2)], 3: [recv(2, 3)]},
    "case2": {1: [trans(1, 2), ack(1, 2)]},
    "case3": {1: [ack(1, 2), trans(1, 2)]},
    "case4": {
        1: [trans(1, 2), ack(1, 2), recv(3, 1), trans(1, 2), ack(1, 2)],
        2: [recv(1, 2), trans(2, 3), ack(2, 3), trans(2, 3)],
        3: [recv(2, 3), trans(3, 1), ack(3, 1)],
    },
}

# §IV-C quoted outputs (case 4 checked as a multiset + ordering facts in
# tests/; here the stable deterministic linearization is snapshotted).
EXPECTED = {
    "case1": ["1-2 trans", "[1-2 recv]", "[2-3 trans]", "2-3 recv"],
    "case2": ["1-2 trans", "[1-2 recv]", "1-2 ack recvd"],
    "case3": ["[1-2 trans]", "[1-2 recv]", "1-2 ack recvd", "1-2 trans"],
}


def reconstruct_all():
    session = ReconstructionSession(forwarder_template(with_gen=False))
    return {
        name: session.reconstruct({n: NodeLog(n, evs) for n, evs in logs.items()})[PKT]
        for name, logs in CASES.items()
    }


def test_table2_reconstruction(benchmark, emit):
    flows = benchmark.pedantic(reconstruct_all, rounds=20, iterations=1)

    for name, expected in EXPECTED.items():
        assert flows[name].labels() == expected, name
    assert flows["complete"].inferred_events() == []
    case4 = flows["case4"]
    assert sorted(case4.labels()) == sorted(
        [
            "1-2 trans", "1-2 recv", "1-2 ack recvd",
            "2-3 trans", "2-3 recv", "2-3 ack recvd",
            "3-1 trans", "3-1 recv", "3-1 ack recvd",
            "1-2 trans", "[1-2 recv]", "1-2 ack recvd",
            "2-3 trans",
        ]
    )

    emit(
        "table2",
        render_table(
            ["case", "reconstructed event flow (inferred in brackets)"],
            [(name, flows[name].format()) for name in CASES],
            title="Table II — reconstructed flows",
        ),
    )
