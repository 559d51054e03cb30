"""Concrete FSM templates (paper §IV-A, Fig. 2; §V-A workload).

A :class:`FsmTemplate` bundles everything an inference engine needs:

- the normal-transition graph,
- the derived intra-node jump table,
- the inter-node prerequisite rules,
- an *admissibility* predicate restricting which edges may appear on
  inference paths (e.g. a ``gen`` event can only be inferred on the packet's
  origin node),
- a *realizer* turning an inferred edge label into a concrete
  :class:`~repro.events.event.Event` using what is already known about the
  packet's neighbours.

Two families are provided: :func:`forwarder_template` — the CTP
data-collection FSM used throughout the paper's evaluation — and
:func:`chain_template` — minimal per-node FSMs for the synthetic topologies
of paper Fig. 3 (cascading, 1-to-many, many-to-1 and mixed inter-node
transitions).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Protocol, Sequence

from repro.events.event import (
    ACK,
    DUP,
    GEN,
    OVERFLOW,
    RECV,
    TIMEOUT,
    TRANS,
    Event,
)
from repro.events.packet import PacketKey
from repro.fsm.graph import Transition, TransitionGraph
from repro.fsm.intra import IntraTransition, Selection, derive_intra_transitions
from repro.fsm.prerequisites import Peer, PrereqRule
from repro.fsm.reachability import CompiledReachability


class NeighborContext(Protocol):
    """What a realizer may know about a packet's per-node neighbours."""

    def upstream(self, node: int) -> Optional[int]:
        """Known sender that forwarded the packet to ``node`` (or ``None``)."""

    def downstream(self, node: int) -> Optional[int]:
        """Known next hop ``node`` forwards the packet to (or ``None``)."""


#: ``admissible(transition, node, packet, ctx) -> bool``
AdmissibleFn = Callable[[Transition, int, Optional[PacketKey], NeighborContext], bool]
#: ``realize(label, node, packet, ctx) -> Event``
RealizeFn = Callable[[str, int, Optional[PacketKey], NeighborContext], Event]


class FsmTemplate:
    """An FSM plus its derived inference machinery, shared by many engines."""

    def __init__(
        self,
        name: str,
        graph: TransitionGraph,
        prereqs: Mapping[str, Sequence[PrereqRule]] | None = None,
        *,
        admissible: Optional[AdmissibleFn] = None,
        realize: Optional[RealizeFn] = None,
        initial_for: Optional[Callable[[int, Optional[PacketKey]], str]] = None,
        pinned_nodes: Optional[tuple[Optional[int], ...]] = None,
    ) -> None:
        self.name = name
        self.graph = graph
        #: Compiled shortest-path tables shared by every engine instance.
        self.compiled = CompiledReachability(graph)
        self.intra: dict[tuple[str, str], IntraTransition] = derive_intra_transitions(
            graph, self.compiled
        )
        self.prereqs: dict[str, tuple[PrereqRule, ...]] = {
            label: tuple(rules) for label, rules in (prereqs or {}).items()
        }
        self._admissible = admissible
        self._realize = realize
        self._initial_for = initial_for
        #: The node ids ``admissible``, ``realize`` and ``initial_for``
        #: compare against besides the packet's own, when those callables
        #: read ids only through order, equality and the neighbour context
        #: (the shape memo, :mod:`repro.core.memo`, may then replay runs
        #: across relabelled packets).  ``None``: they may read ids in any
        #: other way, and every packet runs the engine.
        self.pinned_nodes = pinned_nodes
        #: Precomputed transition selection: normal transitions shadow
        #: derived jumps, and among normal transitions the first declared
        #: per (state, label) wins — the same precedence engines used to
        #: re-derive on every select call.
        self.select_table: dict[tuple[str, str], Selection] = {}
        for t in graph.transitions:
            self.select_table.setdefault((t.src, t.event), Selection("normal", t.dst))
        for key, jump in self.intra.items():
            self.select_table.setdefault(key, Selection("intra", jump.dst))

    # ------------------------------------------------------------------ #

    @property
    def has_admissibility(self) -> bool:
        """Whether the template restricts which edges may be inferred.

        Static analyses use this to soften ambiguity findings: a tie among
        shortest inferred paths may be resolved at inference time by the
        admissibility predicate (e.g. ``gen`` only at the packet's origin).
        """
        return self._admissible is not None

    def initial_state(self, node: int, packet: Optional[PacketKey]) -> str:
        """Start state of ``node``'s engine for ``packet``."""
        if self._initial_for is not None:
            return self._initial_for(node, packet)
        return self.graph.initial

    def edge_admissible(
        self,
        transition: Transition,
        node: int,
        packet: Optional[PacketKey],
        ctx: NeighborContext,
    ) -> bool:
        """Whether ``transition`` may appear on an inference path for ``node``."""
        if self._admissible is None:
            return True
        return self._admissible(transition, node, packet, ctx)

    def realize_event(
        self,
        label: str,
        node: int,
        packet: Optional[PacketKey],
        ctx: NeighborContext,
    ) -> Event:
        """Concrete inferred event for edge ``label`` on ``node``."""
        if self._realize is None:
            return Event.make(label, node, packet=packet)
        return self._realize(label, node, packet, ctx)

    def prereq_rules(self, label: str) -> tuple[PrereqRule, ...]:
        return self.prereqs.get(label, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FsmTemplate({self.name!r}, {self.graph!r})"


# ---------------------------------------------------------------------- #
# CTP forwarder template (paper Table I / Fig. 2 / §V-A)

#: States of the per-(node, packet) forwarding FSM.
IDLE = "IDLE"
RECEIVED = "RECEIVED"
SENT = "SENT"
ACKED = "ACKED"
DROPPED_TIMEOUT = "DROPPED_TIMEOUT"
DROPPED_OVERFLOW = "DROPPED_OVERFLOW"

FORWARDER_STATES = (IDLE, RECEIVED, SENT, ACKED, DROPPED_TIMEOUT, DROPPED_OVERFLOW)


def _forwarder_graph(with_gen: bool) -> TransitionGraph:
    edges: list[tuple[str, str, str]] = []
    if with_gen:
        # Declared before the recv acquisition edge so that, at the origin,
        # shortest-path ties break toward `gen`.
        edges.append((IDLE, RECEIVED, GEN))
    edges += [
        (IDLE, RECEIVED, RECV),
        (IDLE, DROPPED_OVERFLOW, OVERFLOW),
        (DROPPED_OVERFLOW, RECEIVED, RECV),
        (RECEIVED, SENT, TRANS),
        (RECEIVED, RECEIVED, DUP),
        (SENT, SENT, TRANS),
        (SENT, SENT, DUP),
        (SENT, ACKED, ACK),
        (SENT, DROPPED_TIMEOUT, TIMEOUT),
        (ACKED, SENT, TRANS),
        (ACKED, RECEIVED, RECV),
        (ACKED, ACKED, DUP),
    ]
    return TransitionGraph(FORWARDER_STATES, edges, IDLE)


def _forwarder_prereqs() -> dict[str, tuple[PrereqRule, ...]]:
    return {
        # A receive implies the sender transmitted (paper Fig. 2).
        RECV: (PrereqRule(Peer.SRC, SENT),),
        DUP: (PrereqRule(Peer.SRC, SENT),),
        OVERFLOW: (PrereqRule(Peer.SRC, SENT),),
        # An ack implies the receiver got the packet at the PHY (paper Table
        # II case 2: `1-2 trans, [1-2 recv], 1-2 ack recvd`).  A queue
        # overflow also satisfies it: the radio acked, the routing layer
        # dropped (paper §V-D5: hardware acks precede upper-layer delivery).
        ACK: (PrereqRule(Peer.DST, RECEIVED, alt_states=(DROPPED_OVERFLOW,)),),
    }


def _forwarder_admissible(
    t: Transition, node: int, packet: Optional[PacketKey], ctx: NeighborContext
) -> bool:
    if t.event == GEN:
        return packet is not None and node == packet.origin
    if t.event == RECV and packet is not None and node == packet.origin:
        # The origin can only "receive" its own packet through a routing
        # loop, which requires a known upstream sender.
        return ctx.upstream(node) is not None
    return True


def _forwarder_realize(
    label: str, node: int, packet: Optional[PacketKey], ctx: NeighborContext
) -> Event:
    if label == GEN:
        return Event.make(label, node, packet=packet)
    if label in (RECV, DUP, OVERFLOW):
        return Event.make(label, node, src=ctx.upstream(node), dst=node, packet=packet)
    if label in (TRANS, ACK, TIMEOUT):
        return Event.make(label, node, src=node, dst=ctx.downstream(node), packet=packet)
    return Event.make(label, node, packet=packet)


def forwarder_template(with_gen: bool = True) -> FsmTemplate:
    """The CTP data-collection forwarding FSM.

    Parameters
    ----------
    with_gen:
        When true (the simulator workload), packets start life with an
        explicit ``gen`` event at the origin and every engine starts at
        ``IDLE``.  When false (the paper's Table II examples, where no
        generation event exists), the origin's engine starts directly at
        ``RECEIVED`` ("has the packet").
    """

    def initial_for(node: int, packet: Optional[PacketKey]) -> str:
        if not with_gen and packet is not None and node == packet.origin:
            return RECEIVED
        return IDLE

    return FsmTemplate(
        name="ctp-forwarder" + ("" if with_gen else "-nogen"),
        graph=_forwarder_graph(with_gen),
        prereqs=_forwarder_prereqs(),
        admissible=_forwarder_admissible,
        realize=_forwarder_realize,
        initial_for=initial_for,
        pinned_nodes=(),
    )


# ---------------------------------------------------------------------- #
# Dissemination template (paper Fig. 3b/d: "node 2 waiting to check whether
# node 1 and node 3 have received data")

#: Seeder states.
SEED_IDLE = "SEED_IDLE"
ADVERTISED = "ADVERTISED"
COMPLETE = "COMPLETE"
#: Receiver states.
RX_IDLE = "RX_IDLE"
UPDATED = "UPDATED"
ACKED_BACK = "ACKED_BACK"


def dissemination_templates(seeder: int) -> Callable[[int], "FsmTemplate"]:
    """Per-role FSMs for a one-round dissemination protocol.

    The seeder broadcasts an update (``adv``, carrying its target list in
    the related information), every receiver applies it (``update_recv``)
    and confirms (``update_ack``); the seeder records ``complete`` once all
    targets confirmed.  Inter-node wiring:

    - ``update_recv`` requires the seeder to have ``ADVERTISED``
      (many-to-1: one broadcast serves every receiver);
    - ``complete`` requires *each* listed target to have ``ACKED_BACK``
      (1-to-many via :attr:`Peer.TARGETS`).

    Returns a ``template_for(node)`` factory for the connected engines.
    """

    def realize_rx(label: str, node: int, packet, ctx) -> Event:
        if label == "update_recv":
            return Event.make(label, node, src=seeder, dst=node, packet=packet)
        if label == "update_ack":
            return Event.make(label, node, src=node, dst=seeder, packet=packet)
        return Event.make(label, node, packet=packet)

    seeder_template = FsmTemplate(
        "dissemination-seeder",
        TransitionGraph(
            [SEED_IDLE, ADVERTISED, COMPLETE],
            [
                (SEED_IDLE, ADVERTISED, "adv"),
                (ADVERTISED, ADVERTISED, "adv"),  # re-broadcast rounds
                (ADVERTISED, COMPLETE, "complete"),
            ],
            SEED_IDLE,
        ),
        prereqs={"complete": (PrereqRule(Peer.TARGETS, ACKED_BACK),)},
    )
    receiver_template = FsmTemplate(
        "dissemination-receiver",
        TransitionGraph(
            [RX_IDLE, UPDATED, ACKED_BACK],
            [
                (RX_IDLE, UPDATED, "update_recv"),
                (UPDATED, ACKED_BACK, "update_ack"),
                (ACKED_BACK, ACKED_BACK, "update_recv"),  # duplicate rounds
                (ACKED_BACK, ACKED_BACK, "update_ack"),   # re-confirmations
            ],
            RX_IDLE,
        ),
        prereqs={"update_recv": (PrereqRule(Peer.SRC, ADVERTISED),)},
        realize=realize_rx,
    )

    def template_for(node: int) -> FsmTemplate:
        return seeder_template if node == seeder else receiver_template

    return template_for


# ---------------------------------------------------------------------- #
# Query-flood template (the Fig. 3d negotiation shape over a routing tree)

Q_IDLE = "Q_IDLE"
HEARD = "HEARD"
FORWARDED = "FORWARDED"


def query_templates(origin: int) -> Callable[[int], "FsmTemplate"]:
    """Per-node FSMs for a tree-flooded query.

    A node hears the query from its parent (``query_recv``, prerequisite:
    the parent has ``FORWARDED``) and may rebroadcast it to its children
    (``query_fwd``).  The origin starts at ``HEARD`` (it owns the query).
    A surviving ``query_recv`` deep in the tree therefore re-derives the
    whole lost forwarding chain above it, cascade-style (paper Fig. 3a).
    """

    def realize(label: str, node: int, packet, ctx) -> Event:
        if label == "query_recv":
            return Event.make(label, node, src=ctx.upstream(node), dst=node, packet=packet)
        return Event.make(label, node, packet=packet)

    template = FsmTemplate(
        "query-flood",
        TransitionGraph(
            [Q_IDLE, HEARD, FORWARDED],
            [
                (Q_IDLE, HEARD, "query_recv"),
                (HEARD, FORWARDED, "query_fwd"),
                (HEARD, HEARD, "query_recv"),       # duplicate hears
                (FORWARDED, FORWARDED, "query_recv"),
            ],
            Q_IDLE,
        ),
        prereqs={"query_recv": (PrereqRule(Peer.SRC, FORWARDED),)},
        realize=realize,
        initial_for=lambda node, packet: HEARD if node == origin else Q_IDLE,
    )
    return lambda node: template


# ---------------------------------------------------------------------- #
# Chain templates for the Fig. 3 synthetic topologies


def chain_template(
    name: str,
    labels: Sequence[str],
    prereqs: Mapping[str, Sequence[PrereqRule]] | None = None,
    *,
    first_state: int = 0,
) -> FsmTemplate:
    """A linear FSM ``s<k> --labels[0]--> s<k+1> --...--> s<k+N>``.

    Used to build the per-node engines of paper Fig. 3 (which numbers states
    globally: node 1 has s1..s3, node 2 has s4..s6, ...); ``first_state``
    sets ``k``.  Events are node-local (no sender/receiver pair); inter-node
    transitions are expressed with explicit node-id :class:`PrereqRule`\\ s.
    """
    states = [f"s{first_state + i}" for i in range(len(labels) + 1)]
    edges = [(states[i], states[i + 1], label) for i, label in enumerate(labels)]
    graph = TransitionGraph(states, edges, states[0])
    return FsmTemplate(name, graph, prereqs)
