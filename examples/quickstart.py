#!/usr/bin/env python3
"""Quickstart: reconstruct event flows from individual lossy logs.

Walks through the paper's Table II: three nodes forward one packet, parts
of the logs are lost, REFILL infers the lost events (shown in brackets) and
recovers the ordering.  Run:

    python examples/quickstart.py
"""

from repro import ReconstructionSession, classify_flow
from repro.events.event import Event, EventType
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.fsm.templates import forwarder_template

PACKET = PacketKey(origin=1, seq=0)


def ev(etype, node, src, dst):
    return Event.make(etype, node, src=src, dst=dst, packet=PACKET)


def trans(a, b):
    return ev(EventType.TRANS, a, a, b)


def ack(a, b):
    return ev(EventType.ACK, a, a, b)


def recv(a, b):
    return ev(EventType.RECV, b, a, b)


CASES = {
    "complete log": {
        1: [trans(1, 2), ack(1, 2)],
        2: [recv(1, 2), trans(2, 3), ack(2, 3)],
        3: [recv(2, 3)],
    },
    "case 1 (node 2's log lost entirely)": {
        1: [trans(1, 2)],
        3: [recv(2, 3)],
    },
    "case 2 (receiver events lost)": {
        1: [trans(1, 2), ack(1, 2)],
    },
    "case 3 (ack precedes trans: hidden retransmission)": {
        1: [ack(1, 2), trans(1, 2)],
    },
    "case 4 (routing loop hides a loss)": {
        1: [trans(1, 2), ack(1, 2), recv(3, 1), trans(1, 2), ack(1, 2)],
        2: [recv(1, 2), trans(2, 3), ack(2, 3), trans(2, 3)],
        3: [recv(2, 3), trans(3, 1), ack(3, 1)],
    },
}


def main() -> None:
    # Table II has no explicit generation events, so the origin's engine
    # starts holding the packet (with_gen=False).  The simulator workload
    # uses the default forwarder_template() instead.
    session = ReconstructionSession(forwarder_template(with_gen=False))

    for name, logs in CASES.items():
        node_logs = {node: NodeLog(node, events) for node, events in logs.items()}
        flow = session.reconstruct(node_logs)[PACKET]
        report = classify_flow(flow)
        print(f"== {name}")
        print(f"   flow:      {flow.format()}")
        print(f"   inferred:  {len(flow.inferred_events())} lost event(s) recovered")
        print(f"   diagnosis: {report.cause} at node {report.position}")
        print()


if __name__ == "__main__":
    main()
