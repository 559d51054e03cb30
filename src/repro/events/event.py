"""The event model ``E = (V, L, I)`` (paper §II, Table I).

``V`` is the event type, ``L`` the location (the node whose log recorded the
event) and ``I`` the related information — for the sender-receiver events of
Table I this is the (sender, receiver) pair plus the packet key.  Occurrence
time is optional: REFILL never requires it, but the simulator attaches true
times so analyses and ground-truth scoring can use them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional

from repro.events.packet import PacketKey


class EventType(str, enum.Enum):
    """Event vocabulary used by the CTP forwarding FSM (paper Table I).

    The FSM layer is generic over event labels; these are the concrete labels
    used by the data-collection workload the paper evaluates.
    """

    #: Packet generated at its origin node (application layer). Recorded on
    #: the origin.  Plays the role of "the node has the packet".
    GEN = "gen"
    #: ``n1-n2 recv`` — the packet from ``n1`` is received at ``n2``.
    #: Recorded on ``n2``.
    RECV = "recv"
    #: ``n1-n2 trans`` — the packet is transmitted by ``n1`` to ``n2``.
    #: Recorded on ``n1``.
    TRANS = "trans"
    #: ``n1-n2 ack recvd`` — an acknowledgement for the ``n1``→``n2``
    #: transmission is received.  Recorded on ``n1``.
    ACK = "ack_recvd"
    #: ``n1-n2 dup`` — a duplicated packet is received by ``n2`` from ``n1``
    #: (duplicate-cache hit; often due to routing loops).  Recorded on ``n2``.
    DUP = "dup"
    #: ``n1-n2 overflow`` — no queue space on ``n2`` for the packet from
    #: ``n1``; the packet is discarded.  Recorded on ``n2``.
    OVERFLOW = "overflow"
    #: Retransmission timeout on the sender after the retry budget is
    #: exhausted.  Recorded on the sender.
    TIMEOUT = "timeout"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The :class:`EventType` labels as plain strings.  ``EventType.X.value`` is
#: an enum descriptor access, measurably hot where realizers, admissibility
#: and diagnosis run per event; those paths compare against these instead.
GEN = EventType.GEN.value
RECV = EventType.RECV.value
TRANS = EventType.TRANS.value
ACK = EventType.ACK.value
DUP = EventType.DUP.value
OVERFLOW = EventType.OVERFLOW.value
TIMEOUT = EventType.TIMEOUT.value

#: Event types recorded on (and attributed to) the *sender* of the pair.
SENDER_SIDE_EVENTS = frozenset({TRANS, ACK, TIMEOUT})

#: Event types recorded on (and attributed to) the *receiver* of the pair.
RECEIVER_SIDE_EVENTS = frozenset({RECV, DUP, OVERFLOW})


def _freeze_info(info: Optional[Mapping[str, Any]]) -> tuple[tuple[str, Any], ...]:
    if not info:
        return ()
    return tuple(sorted(info.items()))


@dataclass(frozen=True, slots=True)
class Event:
    """A single logged (or inferred) event.

    Attributes
    ----------
    etype:
        Event type ``V`` (a string label; :class:`EventType` values for the
        data-collection workload, arbitrary labels for custom FSMs).
    node:
        Location ``L``: id of the node whose log the event belongs to.
    src, dst:
        Sender/receiver pair for sender-receiver events (``None`` when the
        event is node-local and has no peer).
    packet:
        Packet the event refers to, when applicable.
    time:
        Optional occurrence time.  True simulator time for ground-truth
        events, *local skewed clock* readings in collected logs, ``None`` for
        inferred events.  Inference never reads this field.
    info:
        Extra related information ``I`` as an immutable sorted tuple of
        ``(key, value)`` pairs.
    """

    etype: str
    node: int
    src: Optional[int] = None
    dst: Optional[int] = None
    packet: Optional[PacketKey] = None
    time: Optional[float] = None
    info: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        etype: str | EventType,
        node: int,
        *,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        packet: Optional[PacketKey] = None,
        time: Optional[float] = None,
        **info: Any,
    ) -> "Event":
        """Build an event, freezing ``info`` keyword arguments."""
        if isinstance(etype, EventType):
            etype = etype.value
        return cls(
            etype=etype,
            node=node,
            src=src,
            dst=dst,
            packet=packet,
            time=time,
            info=_freeze_info(info),
        )

    @property
    def info_dict(self) -> dict[str, Any]:
        """Related information as a plain dict."""
        return dict(self.info)

    @property
    def peer(self) -> Optional[int]:
        """The counterpart node of a sender-receiver event.

        For an event recorded on the sender the peer is the receiver and vice
        versa; ``None`` for node-local events.
        """
        if self.src is None or self.dst is None:
            return None
        return self.dst if self.node == self.src else self.src

    def with_time(self, time: Optional[float]) -> "Event":
        """Copy of this event with a different timestamp."""
        return replace(self, time=time)

    def without_time(self) -> "Event":
        """Copy of this event with the timestamp stripped."""
        return replace(self, time=None)

    def pair_label(self) -> str:
        """Human-readable ``n1-n2 etype`` label matching the paper's notation."""
        name = "ack recvd" if self.etype == EventType.ACK.value else self.etype
        if self.src is not None and self.dst is not None:
            return f"{self.src}-{self.dst} {name}"
        return f"@{self.node} {name}"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.pair_label()
