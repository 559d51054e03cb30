"""Dissemination workload simulator (paper Fig. 3b/d at workload scale).

A test fixture generator: the only source of 1-to-many ``targets`` evidence
for the dissemination template, so it lives beside the tests that use it.

A seeder pushes a versioned update to its radio neighbourhood: each round it
re-broadcasts to the targets that have not confirmed, receivers apply the
update and send a confirmation back over their (lossy) link, and the seeder
records completion once everyone confirmed (or gives up after the round
budget).  Every node logs locally; :mod:`repro.lognet` degrades the logs;
the :func:`repro.fsm.templates.dissemination_templates` engines reconstruct
who actually received what.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.simnet.link import LinkModel, LinkParams
from repro.simnet.topology import Topology, make_grid_topology
from repro.util.rng import RngStreams


@dataclass(frozen=True, slots=True)
class DisseminationParams:
    """One dissemination campaign."""

    n_nodes: int = 16
    seed: int = 3
    #: Re-broadcast rounds before the seeder gives up on silent targets.
    max_rounds: int = 4
    #: Seconds between rounds.
    round_interval: float = 5.0
    #: Number of updates (versions) pushed sequentially.
    updates: int = 1


@dataclass
class DisseminationResult:
    """True outcome + true logs of a campaign."""

    topology: Topology
    seeder: int
    targets: tuple[int, ...]
    true_logs: dict[int, NodeLog]
    #: Per update: targets that actually applied it.
    applied: dict[PacketKey, frozenset[int]]
    #: Per update: did the seeder record completion?
    completed: dict[PacketKey, bool]


def run_dissemination(params: DisseminationParams) -> DisseminationResult:
    """Simulate the campaign and return ground truth + true logs."""
    rng = RngStreams(params.seed)
    topology = make_grid_topology(params.n_nodes, rng)
    link = LinkModel(topology, rng, LinkParams())
    seeder = topology.sink  # reuse the central node as the seeder
    targets = tuple(sorted(topology.neighbors(seeder)))
    logs = {n: NodeLog(n) for n in topology.nodes}
    chance = rng.stream("dissemination")

    applied: dict[PacketKey, frozenset[int]] = {}
    completed: dict[PacketKey, bool] = {}
    t = 0.0
    for version in range(1, params.updates + 1):
        update = PacketKey(seeder, version)
        have: set[int] = set()
        confirmed: set[int] = set()
        targets_info = ",".join(str(n) for n in targets)
        for _ in range(params.max_rounds):
            pending = [n for n in targets if n not in confirmed]
            if not pending:
                break
            logs[seeder].append(
                Event.make("adv", seeder, packet=update, time=t, targets=targets_info)
            )
            for node in pending:
                if chance.random() >= link.prr(seeder, node, t):
                    continue  # broadcast frame missed
                if node not in have:
                    have.add(node)
                    logs[node].append(
                        Event.make(
                            "update_recv", node, src=seeder, dst=node, packet=update, time=t
                        )
                    )
                # confirm (each received round re-confirms until heard)
                logs[node].append(
                    Event.make(
                        "update_ack", node, src=node, dst=seeder, packet=update,
                        time=t + 0.5,
                    )
                )
                if chance.random() < link.prr(node, seeder, t):
                    confirmed.add(node)
            t += params.round_interval
        done = set(targets) <= confirmed
        if done:
            logs[seeder].append(
                Event.make("complete", seeder, packet=update, time=t, targets=targets_info)
            )
        applied[update] = frozenset(have)
        completed[update] = done
        t += params.round_interval
    return DisseminationResult(
        topology=topology,
        seeder=seeder,
        targets=targets,
        true_logs=logs,
        applied=applied,
        completed=completed,
    )
