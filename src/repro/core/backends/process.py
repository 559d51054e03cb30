"""Worker-pool execution across processes.

Per-packet flows are independent — reconstruction is embarrassingly
parallel.  Each worker builds its FSM template once (via a picklable
factory passed to the pool initializer) and processes whole batches, so
per-task overhead is one pickle of the batch's events and one of the
resulting flows.

Guides' advice applied: measure before optimizing — the serial engine does
~60k events/s, so parallelism only pays past ~10^5 logged events.  The pool
is therefore *lazy*: submitted batches buffer until ``min_packets`` groups
have arrived, and a run that never reaches the threshold (or has
``workers <= 1``) reconstructs serially in-process on ``finish``, skipping
pool startup entirely.

Worker metrics land in private per-batch registries that ride back with the
flows (they pickle cleanly — plain dicts, no locks) and are folded into the
parent's active registry, so counter totals match a serial run exactly.
"""

from __future__ import annotations

import os
from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.core.backends.base import ExecutionBackend, ExecutionPlan, TemplateFactory
from repro.core.event_flow import EventFlow
from repro.core.transition_algorithm import PacketReconstructor, ReconstructorOptions
from repro.events.merge import PacketGroup
from repro.events.packet import PacketKey
from repro.fsm.templates import FsmTemplate
from repro.obs.registry import MetricsRegistry, get_registry, use_registry

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

# per-worker state, initialized once per process
_worker_template: Optional[FsmTemplate] = None
_worker_options: ReconstructorOptions = ReconstructorOptions()


def _init_worker(factory: TemplateFactory, options: ReconstructorOptions) -> None:
    global _worker_template, _worker_options
    _worker_template = factory()
    _worker_options = options


def _reconstruct_batch(
    batch: Sequence[PacketGroup],
) -> tuple[list[tuple[PacketKey, EventFlow]], MetricsRegistry]:
    """One batch in one worker; metrics land in a private registry."""
    assert _worker_template is not None, "worker not initialized"
    out = []
    with use_registry(MetricsRegistry()) as registry:
        for packet, events_by_node in batch:
            reconstructor = PacketReconstructor(_worker_template, packet, _worker_options)
            out.append((packet, reconstructor.reconstruct(events_by_node)))
    return out, registry


class ProcessPoolBackend(ExecutionBackend):
    """Shard batches over a ``multiprocessing`` pool.

    Parameters
    ----------
    workers:
        Process count (default: ``os.cpu_count()``).
    min_packets:
        Below this many packets the pool is not worth its startup cost and
        reconstruction runs serially on ``finish``.
    max_inflight:
        Cap on unfinished pool tasks (default ``2 * workers``); ``submit``
        drains completed ones past the cap, so a run keeps a bounded
        number of batches pickled at any moment.
    """

    name = "process"

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        min_packets: int = 500,
        max_inflight: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.workers = workers or os.cpu_count() or 1
        self.min_packets = min_packets
        self.max_inflight = max_inflight or 2 * self.workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: deque[Future] = deque()
        self._buffer: list[list[PacketGroup]] = []
        self._buffered = 0

    def start(self, plan: ExecutionPlan) -> None:
        if plan.template_factory is None:
            raise ValueError(
                "ProcessPoolBackend needs a module-level template factory "
                "(lambdas and bound templates cannot cross process spawn); "
                "construct the session with template_factory=..."
            )
        super().start(plan)
        self._buffer, self._buffered = [], 0

    def submit(
        self, batch: Sequence[PacketGroup]
    ) -> Iterable[tuple[PacketKey, EventFlow]]:
        if not batch:
            return ()
        if self._pool is None:
            self._buffer.append(list(batch))
            self._buffered += len(batch)
            if self._buffered < self.min_packets or self.workers <= 1:
                return ()
            pool = self._open_pool()
            pending, self._buffer, self._buffered = self._buffer, [], 0
            for buffered in pending:
                self._futures.append(pool.submit(_reconstruct_batch, buffered))
            return self._drain(keep=self.max_inflight)
        self._futures.append(self._pool.submit(_reconstruct_batch, list(batch)))
        return self._drain(keep=self.max_inflight)

    def finish(self) -> Iterable[tuple[PacketKey, EventFlow]]:
        if self._pool is None:
            # Never reached min_packets: the pool would cost more than it
            # saves — reconstruct the buffered groups in-process instead.
            pending, self._buffer, self._buffered = self._buffer, [], 0
            for buffered in pending:
                yield from self._reconstruct_serially(buffered)
            return
        yield from self._drain(keep=0)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._futures.clear()
        self._buffer, self._buffered = [], 0

    # ------------------------------------------------------------------ #

    def _open_pool(self) -> ProcessPoolExecutor:
        # imported here so serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        plan = self._plan()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(plan.template_factory, plan.options),
        )
        return self._pool

    def _drain(self, *, keep: int) -> Iterator[tuple[PacketKey, EventFlow]]:
        """Yield results of completed tasks until ≤ ``keep`` remain in flight.

        FIFO order: batches were submitted in sorted-packet order and the
        session re-sorts its flow map anyway, so blocking on the oldest
        future keeps memory bounded without hurting determinism.
        """
        parent_registry = get_registry()
        while len(self._futures) > keep:
            flows, worker_registry = self._futures.popleft().result()
            parent_registry.merge(worker_registry)
            yield from flows
