"""Log collection: true per-node logs -> what the analyst actually gets.

Combines the loss pipeline with local-clock stamping.  The returned logs
are what REFILL (and the baselines) see: per-node ordered, incomplete, with
unsynchronized timestamps.  :func:`collect_into` is the live-deployment
door: it feeds the collected logs round by round into a streaming
:class:`~repro.core.session.ReconstructionSession`, the way CTP collection
actually delivers them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.events.log import NodeLog
from repro.events.merge import split_collection_rounds
from repro.lognet.clock import LocalClock, make_clocks
from repro.lognet.loss import LogLossSpec, apply_losses
from repro.obs.registry import get_registry
from repro.obs.spans import span
from repro.obs.structlog import get_logger
from repro.util.rng import RngStreams

if TYPE_CHECKING:  # lognet stays importable without the core layer
    from repro.core.session import ReconstructionSession

_log = get_logger("repro.collector")


def collect_logs(
    true_logs: Mapping[int, NodeLog],
    spec: LogLossSpec,
    seed: int,
    *,
    clocks: Optional[Mapping[int, LocalClock]] = None,
    perfect_clocks: frozenset[int] = frozenset(),
) -> dict[int, NodeLog]:
    """Apply log losses and clock skew; deterministic given ``seed``.

    Parameters
    ----------
    true_logs:
        Per-node logs with *true* timestamps (from the simulator).
    spec:
        The degradation pipeline configuration.
    clocks:
        Pre-built per-node clocks; generated from the seed when omitted.
    perfect_clocks:
        Nodes with exact clocks (the PC base station), used only when
        ``clocks`` is generated here.
    """
    with span("collect.logs"):
        rng = RngStreams(seed)
        if clocks is None:
            clocks = make_clocks(true_logs.keys(), rng, perfect=perfect_clocks)
        lossy = apply_losses(true_logs, spec, rng)
        collected: dict[int, NodeLog] = {}
        for node, log in lossy.items():
            clock = clocks.get(node, LocalClock(0.0, 0.0))
            collected[node] = NodeLog(
                node,
                (
                    e.with_time(clock.local(e.time)) if e.time is not None else e
                    for e in log
                ),
            )
        registry = get_registry()
        true_total = sum(len(log) for log in true_logs.values())
        kept_total = sum(len(log) for log in collected.values())
        registry.counter("collect.nodes").inc(len(collected))
        registry.counter("collect.events").inc(kept_total)
        registry.counter("collect.events.lost").inc(true_total - kept_total)
        _log.debug(
            "logs.collected", nodes=len(collected), events=kept_total,
            lost=true_total - kept_total,
        )
        return collected


def collect_into(
    session: "ReconstructionSession",
    true_logs: Mapping[int, NodeLog],
    spec: LogLossSpec,
    seed: int,
    *,
    rounds: int = 1,
    clocks: Optional[Mapping[int, LocalClock]] = None,
    perfect_clocks: frozenset[int] = frozenset(),
) -> dict[int, NodeLog]:
    """Collect and stream the result into a session, ``rounds`` batches at
    a time — the live-monitoring door.

    Losses and clock skew are applied once over the whole collection (crash
    truncation and chunk loss act on full logs), then each node's surviving
    log is delivered in ``rounds`` in-order segments, the way repeated CTP
    collection rounds would hand them to an operator.  Call
    :meth:`ReconstructionSession.refresh` (or any auto-refreshing query)
    for up-to-date flows.  Returns the complete
    collected logs for reference (e.g. one-shot comparison runs).
    """
    collected = collect_logs(
        true_logs, spec, seed, clocks=clocks, perfect_clocks=perfect_clocks
    )
    with span("collect.ingest"):
        for batch in split_collection_rounds(collected, rounds):
            session.ingest(batch)
    return collected
