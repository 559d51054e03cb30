"""Ground truth: what *actually* happened to every packet.

The physical CitySee deployment could only assert causes qualitatively; the
simulator records the authoritative per-packet fate and the full true event
sequence, enabling the accuracy ablations (benchmarks A1-A3 in DESIGN.md)
that score REFILL's reconstruction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.events.event import Event
from repro.events.packet import PacketKey


class TrueCause(str, enum.Enum):
    """Authoritative loss causes (simulator-side vocabulary).

    Note the deliberate asymmetry with the observer-side
    :class:`~repro.core.diagnosis.LossCause`: "acked loss" does not exist
    here — it is an *observation* artifact (whether the receiver's receive
    record survived), not a physical mechanism.
    """

    DELIVERED = "delivered"
    #: All MAC retries failed and the sender dropped the packet.
    TIMEOUT = "timeout"
    #: Dropped by a duplicate-cache hit (routing loop) with no live copy left.
    DUPLICATE = "duplicated"
    #: Receiver forwarding queue full.
    OVERFLOW = "overflow"
    #: Died inside a node after reception (task-post failure etc.).
    IN_NODE = "in_node"
    #: Silent RS232 drop between sink and base station.
    SERIAL = "serial"
    #: Base-station server outage.
    OUTAGE = "server_outage"
    #: Hop/TTL budget exceeded (persistent loop).
    TTL = "ttl"
    #: No route toward the sink when the packet had to be forwarded.
    NO_ROUTE = "no_route"
    #: The holding node crashed with the packet in its RAM queue.
    CRASH = "crash"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class TrueFate:
    """Final outcome of one packet."""

    cause: TrueCause
    #: Node where the packet was lost (or the base station when delivered).
    position: Optional[int]
    #: True time of the terminal event.
    time: float

    @property
    def delivered(self) -> bool:
        return self.cause is TrueCause.DELIVERED


class GroundTruth:
    """Per-packet true record: every event (logged or not) plus the fate."""

    def __init__(self) -> None:
        self.events: dict[PacketKey, list[Event]] = {}
        self.fates: dict[PacketKey, TrueFate] = {}
        self.gen_times: dict[PacketKey, float] = {}

    def record_event(self, packet: PacketKey, event: Event) -> None:
        """Append a true event to the packet's record."""
        self.events.setdefault(packet, []).append(event)

    def record_gen(self, packet: PacketKey, time: float) -> None:
        """Record the packet's generation time."""
        self.gen_times[packet] = time

    def record_fate(self, packet: PacketKey, fate: TrueFate) -> None:
        if packet in self.fates:
            raise ValueError(f"fate of {packet} already recorded")
        self.fates[packet] = fate

    # ------------------------------------------------------------------ #

    def packets(self) -> list[PacketKey]:
        """All packets with a recorded fate, sorted."""
        return sorted(self.fates)

    def lost_packets(self) -> list[PacketKey]:
        """Packets that did not reach the base station."""
        return [p for p in self.packets() if not self.fates[p].delivered]

    def delivered_packets(self) -> list[PacketKey]:
        """Packets that reached the base station."""
        return [p for p in self.packets() if self.fates[p].delivered]

    def delivery_ratio(self) -> float:
        """Delivered fraction over all fated packets."""
        if not self.fates:
            return 0.0
        return len(self.delivered_packets()) / len(self.fates)

    def loss_counts(self) -> dict[TrueCause, int]:
        """Loss counts per true cause."""
        counts: dict[TrueCause, int] = {}
        for fate in self.fates.values():
            if not fate.delivered:
                counts[fate.cause] = counts.get(fate.cause, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # persistence (stress-harness reproducer artifacts)

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible dump: events in the log-line codec, fates flat.

        The inverse of :meth:`from_json`; used by the stress harness to
        ship ground truth alongside a reproducer corpus so a differential
        oracle can be replayed without re-running the simulation.
        """
        from repro.events.codec import encode_event  # events ↔ codec cycle guard

        return {
            "events": {
                str(p): [encode_event(e) for e in evs]
                for p, evs in sorted(self.events.items())
            },
            "fates": {
                str(p): {
                    "cause": str(f.cause),
                    "position": f.position,
                    "time": f.time,
                }
                for p, f in sorted(self.fates.items())
            },
            "gen_times": {str(p): t for p, t in sorted(self.gen_times.items())},
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "GroundTruth":
        from repro.events.codec import decode_event

        truth = cls()
        for key, lines in data.get("events", {}).items():
            packet = PacketKey.parse(key)
            truth.events[packet] = [decode_event(line) for line in lines]
        for key, fate in data.get("fates", {}).items():
            truth.fates[PacketKey.parse(key)] = TrueFate(
                cause=TrueCause(fate["cause"]),
                position=fate["position"],
                time=float(fate["time"]),
            )
        for key, t in data.get("gen_times", {}).items():
            truth.gen_times[PacketKey.parse(key)] = float(t)
        return truth

    def true_path(self, packet: PacketKey, *, exclude: frozenset[int] = frozenset()) -> list[int]:
        """Nodes the packet actually visited, in order.

        Derived from the true generation/receive events; ``exclude`` drops
        pseudo-nodes (e.g. the base station) for radio-path comparisons.
        """
        path: list[int] = []
        for event in self.events.get(packet, []):
            if event.etype in ("gen", "recv") and event.node not in exclude:
                if not path or path[-1] != event.node:
                    path.append(event.node)
        return path


# --------------------------------------------------------------------- #
# ground-truth exports for the learning pipeline


def ground_truth_template():
    """The authoritative template behind the simulator's event stream.

    The CitySee simulator drives every node with the CTP forwarder FSM;
    :mod:`repro.learn.evaluate` compares a learned graph against this one.
    Imported lazily — :mod:`repro.fsm` must not become a simnet dependency.
    """
    from repro.fsm.templates import forwarder_template

    return forwarder_template()
