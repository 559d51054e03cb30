"""The serialized product of ``refill learn``: a declarative deployment spec.

A :class:`LearnedSpec` is everything the learner inferred — the mined
transition graph, role-specific initial states, label-side classification,
prerequisite rules with their supporting evidence, and corpus statistics —
packaged as a plain-JSON document (``docs/LEARNING.md`` describes every
field).  Serialization is canonical (:func:`repro.core.serialize.dumps_canonical`),
so the same corpus and flags always produce byte-identical files and a
load/save round trip is the identity.

A spec *realizes* into the live model types the rest of the toolchain
consumes: :meth:`LearnedSpec.realize_template` builds an
:class:`~repro.fsm.templates.FsmTemplate` (with a generic side-based
realizer and an origin-only admissibility predicate) and
:meth:`LearnedSpec.deployment_spec` wraps it for the static analyzer, which
is how ``refill check --spec learned.json`` and
``refill analyze --spec learned.json`` close the learn → check → analyze
loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.core.serialize import dumps_canonical
from repro.events.event import Event
from repro.events.packet import PacketKey
from repro.fsm.graph import Transition, TransitionGraph
from repro.fsm.prerequisites import Peer, PrereqRule
from repro.fsm.templates import FsmTemplate, NeighborContext
from repro.learn.prereqs import MinedRule
from repro.learn.traces import TraceCorpus

#: Format tag carried by every serialized spec.
SPEC_FORMAT = "refill/learned-spec-v1"

#: Top-level JSON fields of a serialized spec, in canonical (sorted) order.
#: ``docs/LEARNING.md`` documents each one; the doc-coverage test enforces it.
SPEC_FIELDS = (
    "deployment",
    "format",
    "fsm",
    "k",
    "labels",
    "min_support",
    "name",
    "prereqs",
    "stats",
)


@dataclass(frozen=True)
class LearnedSpec:
    """A learned deployment model, JSON-round-trippable byte-for-byte."""

    name: str
    k: int
    min_support: float
    initial: str
    states: tuple[str, ...]
    #: ``(src, label, dst)`` triples in canonical graph order.
    transitions: tuple[tuple[str, str, str], ...]
    #: Role → non-default start state (empty for single-initial models).
    initials: Mapping[str, str] = field(default_factory=dict)
    sender_side: tuple[str, ...] = ()
    receiver_side: tuple[str, ...] = ()
    local_labels: tuple[str, ...] = ()
    origin_only: tuple[str, ...] = ()
    aux_labels: tuple[str, ...] = ()
    prereqs: tuple[MinedRule, ...] = ()
    sink: Optional[int] = None
    base_station: Optional[int] = None
    #: Corpus statistics (integers only, for byte-stable serialization).
    stats: Mapping[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # serialization

    def to_json(self) -> dict:
        return {
            "format": SPEC_FORMAT,
            "name": self.name,
            "k": self.k,
            "min_support": self.min_support,
            "fsm": {
                "initial": self.initial,
                "states": list(self.states),
                "transitions": [list(t) for t in self.transitions],
                "initials": dict(self.initials),
            },
            "labels": {
                "sender_side": list(self.sender_side),
                "receiver_side": list(self.receiver_side),
                "local": list(self.local_labels),
                "origin_only": list(self.origin_only),
                "aux": list(self.aux_labels),
            },
            "prereqs": [
                {
                    "label": r.label,
                    "peer": r.peer,
                    "state": r.state,
                    "alt_states": list(r.alt_states),
                    "supported": r.supported,
                    "observations": r.observations,
                }
                for r in self.prereqs
            ],
            "deployment": {"sink": self.sink, "base_station": self.base_station},
            "stats": dict(self.stats),
        }

    def to_json_str(self) -> str:
        """Canonical serialization: sorted keys, minimal separators."""
        return dumps_canonical(self.to_json()) + "\n"

    @classmethod
    def from_json(cls, data: Mapping) -> "LearnedSpec":
        if data.get("format") != SPEC_FORMAT:
            raise ValueError(
                f"not a learned spec (format={data.get('format')!r}, "
                f"expected {SPEC_FORMAT!r})"
            )
        fsm = data["fsm"]
        labels = data["labels"]
        deployment = data.get("deployment", {})
        return cls(
            name=data["name"],
            k=data["k"],
            min_support=data["min_support"],
            initial=fsm["initial"],
            states=tuple(fsm["states"]),
            transitions=tuple((t[0], t[1], t[2]) for t in fsm["transitions"]),
            initials=dict(fsm.get("initials", {})),
            sender_side=tuple(labels["sender_side"]),
            receiver_side=tuple(labels["receiver_side"]),
            local_labels=tuple(labels["local"]),
            origin_only=tuple(labels["origin_only"]),
            aux_labels=tuple(labels["aux"]),
            prereqs=tuple(
                MinedRule(
                    label=r["label"],
                    peer=r["peer"],
                    state=r["state"],
                    alt_states=tuple(r["alt_states"]),
                    supported=r["supported"],
                    observations=r["observations"],
                )
                for r in data.get("prereqs", ())
            ),
            sink=deployment.get("sink"),
            base_station=deployment.get("base_station"),
            stats=dict(data.get("stats", {})),
        )

    # ------------------------------------------------------------------ #
    # realization

    def graph(self) -> TransitionGraph:
        return TransitionGraph(
            list(self.states),
            [Transition(src, dst, label) for src, label, dst in self.transitions],
            self.initial,
        )

    def realize_template(self) -> FsmTemplate:
        """A runnable :class:`FsmTemplate` for the learned model.

        The realizer is generic over the label-side classification:
        receiver-side labels are recorded at the pair's receiver (sender is
        the packet's known upstream), sender-side at the sender (receiver is
        the known downstream), local labels carry no pair.  Admissibility
        restricts origin-only labels (``gen``-like) to the packet's origin;
        ``initial_for`` applies the learned role-specific start states.
        """
        graph = self.graph()
        receiver = frozenset(self.receiver_side)
        sender = frozenset(self.sender_side)
        origin_only = frozenset(self.origin_only)
        prereqs = {
            rule.label: (
                PrereqRule(Peer(rule.peer), rule.state, alt_states=rule.alt_states),
            )
            for rule in self.prereqs
        }

        def admissible(
            t: Transition, node: int, packet: Optional[PacketKey], ctx: NeighborContext
        ) -> bool:
            if t.event in origin_only:
                return packet is not None and node == packet.origin
            return True

        def realize(
            label: str, node: int, packet: Optional[PacketKey], ctx: NeighborContext
        ) -> Event:
            if label in receiver:
                return Event.make(
                    label, node, src=ctx.upstream(node), dst=node, packet=packet
                )
            if label in sender:
                return Event.make(
                    label, node, src=node, dst=ctx.downstream(node), packet=packet
                )
            return Event.make(label, node, packet=packet)

        initial_for = None
        if self.initials:
            initials = dict(self.initials)
            sink, base_station = self.sink, self.base_station

            def initial_for(node: int, packet: Optional[PacketKey]) -> str:
                if packet is not None and node == packet.origin:
                    role = "origin"
                elif base_station is not None and node == base_station:
                    role = "delivery"
                elif sink is not None and node == sink:
                    role = "sink"
                else:
                    role = "forwarder"
                return initials.get(role, graph.initial)

        return FsmTemplate(
            name=self.name,
            graph=graph,
            prereqs=prereqs,
            admissible=admissible if origin_only else None,
            realize=realize,
            initial_for=initial_for,
            pinned_nodes=(self.sink, self.base_station),
        )

    def deployment_spec(self):
        """Wrap the realized template for the static analyzer / check CLI."""
        from repro.check.crossfsm import DeploymentSpec

        return DeploymentSpec(
            roles={self.name: self.realize_template()},
            aux_labels=frozenset(self.aux_labels),
        )


def build_spec(
    corpus: TraceCorpus,
    graph: TransitionGraph,
    rules: Sequence[MinedRule],
    *,
    initials: Mapping[str, str],
    name: str,
    k: int,
    min_support: float,
) -> LearnedSpec:
    """Package the outputs of the three learning stages into a spec."""
    return LearnedSpec(
        name=name,
        k=k,
        min_support=min_support,
        initial=graph.initial,
        states=tuple(graph.states),
        transitions=tuple((t.src, t.event, t.dst) for t in graph.transitions),
        initials=dict(initials),
        sender_side=tuple(sorted(corpus.sender_side)),
        receiver_side=tuple(sorted(corpus.receiver_side)),
        local_labels=tuple(sorted(corpus.local_labels)),
        origin_only=tuple(sorted(corpus.origin_only)),
        aux_labels=tuple(sorted(corpus.aux_labels)),
        prereqs=tuple(rules),
        sink=corpus.sink,
        base_station=corpus.base_station,
        stats={
            "packets": corpus.packets,
            "traces": len(corpus.traces),
            "unique_sequences": len(corpus.support),
            "dropped_traces": corpus.dropped_traces,
            "nodes": len(corpus.nodes),
            "roles": corpus.role_counts(),
        },
    )


def load_learned_spec(path: str | Path) -> LearnedSpec:
    """Load a serialized spec from ``path``."""
    return LearnedSpec.from_json(json.loads(Path(path).read_text()))


def save_learned_spec(spec: LearnedSpec, path: str | Path) -> None:
    """Write ``spec`` to ``path`` in canonical byte-stable form."""
    Path(path).write_text(spec.to_json_str())
