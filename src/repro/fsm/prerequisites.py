"""Inter-node prerequisite transitions (paper Def. 4.1, §IV-B).

A transition ``t2`` on engine ``F2`` is a *prerequisite* of transition ``t1``
on engine ``F1`` when ``t1`` can only occur after ``t2`` has occurred.  The
connected-engine layer uses these rules to (a) order events across nodes and
(b) infer lost events: before ``t1`` fires, every prerequisite engine is
driven to its prerequisite state, emitting inferred events for any normal
transitions it had to take.

Rules are attached to event labels and resolve their target engine through a
:class:`Peer` selector, so one rule covers every node running the same FSM
template ("a receive on any node requires the sender to have reached SENT").
A transition may have several prerequisite rules (1-to-many / many-to-1
patterns of paper Fig. 3b–d).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.events.event import Event


class Peer(enum.Enum):
    """How a prerequisite rule locates the engine(s) it constrains."""

    #: The sender of the event's sender-receiver pair (``event.src``).
    SRC = "src"
    #: The receiver of the event's sender-receiver pair (``event.dst``).
    DST = "dst"
    #: The counterpart of the recording node (src if recorded on dst, etc.).
    COUNTERPART = "counterpart"
    #: Every node listed in the event's ``targets`` related information —
    #: the 1-to-many case: a broadcast completion waits on all recipients
    #: (paper Fig. 3b/d).
    TARGETS = "targets"


@dataclass(frozen=True, slots=True)
class PrereqRule:
    """One prerequisite: engine ``peer`` must have visited ``state``.

    Attributes
    ----------
    peer:
        A :class:`Peer` selector or an explicit node id (used by the custom
        per-node FSMs of paper Fig. 3).
    state:
        The prerequisite state on the peer engine (the *destination* of the
        prerequisite transition, called the "prerequisite state" in §IV-B).
    alt_states:
        Additional states that equally satisfy the prerequisite.  The
        canonical case: a hardware ack proves *PHY reception*, which both a
        routing-layer ``RECEIVED`` and a queue-overflow drop satisfy.
    """

    peer: Union[Peer, int]
    state: str
    alt_states: tuple[str, ...] = ()

    @property
    def states(self) -> tuple[str, ...]:
        """All acceptable prerequisite states (primary first)."""
        return (self.state, *self.alt_states)

    def resolve_node(self, event: Event) -> Optional[int]:
        """Single constrained node (``None`` when unresolvable).

        Returns ``None`` when the event lacks the information needed to
        resolve the peer (e.g. a node-local event with no sender/receiver) —
        such rules are skipped with an anomaly note rather than crashing,
        since collected logs can be arbitrarily degraded.  For
        :attr:`Peer.TARGETS` use :meth:`resolve_nodes`.
        """
        nodes = self.resolve_nodes(event)
        return nodes[0] if len(nodes) == 1 else None

    def resolve_nodes(self, event: Event) -> tuple[int, ...]:
        """All nodes this rule constrains for ``event`` (possibly empty)."""
        if isinstance(self.peer, int):
            return (self.peer,)
        if self.peer is Peer.SRC:
            return (event.src,) if event.src is not None else ()
        if self.peer is Peer.DST:
            return (event.dst,) if event.dst is not None else ()
        if self.peer is Peer.COUNTERPART:
            return (event.peer,) if event.peer is not None else ()
        if self.peer is Peer.TARGETS:
            raw = event.info_dict.get("targets")
            if raw is None:
                return ()
            if isinstance(raw, str):
                return tuple(int(part) for part in raw.split(",") if part)
            return tuple(int(n) for n in raw)
        raise AssertionError(f"unhandled peer selector {self.peer!r}")
