"""Worker-pool execution across processes.

Per-packet flows are independent — reconstruction is embarrassingly
parallel.  :class:`ProcessPoolBackend` accumulates evidence exactly as the
in-process backend does and differs only in how ``finish`` runs the sorted
dirty set: in pool tasks.  Each worker builds its FSM template once (via a
picklable factory passed to the pool initializer) and processes whole
tasks, so per-task overhead is one pickle of the task's events and one of
the resulting flows.

Guides' advice applied: measure before optimizing — the serial engine does
~60k events/s, so parallelism only pays past ~10^5 logged events.  The pool
is therefore *lazy*: a dirty set below ``min_packets`` groups (or any dirty
set at ``workers <= 1``) is reconstructed in-process, skipping pool startup
entirely.

Worker metrics land in private per-task registries that ride back with the
flows (they pickle cleanly — plain dicts, no locks) and are folded into the
parent's active registry, so counter totals match a serial run exactly.

The shape memo (:mod:`repro.core.memo`) stays in the parent, and it sees
the packets in the order a serial run does: a packet of a new shape goes
to a worker, which sends back its flow and the shape's record; a packet
of a known shape is replayed in the parent — at once when the record is
here, else when the task recording it has drained.  So hit and miss
counts match a serial run too.
"""

from __future__ import annotations

import os
from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro.core.backends.incremental import (
    ExecutionPlan,
    IncrementalBackend,
    TemplateFactory,
)
from repro.core.event_flow import EventFlow
from repro.core.memo import Pending, ShapeRecord, record_of, replay
from repro.core.transition_algorithm import (
    PacketReconstructor,
    ReconCounters,
    ReconstructorOptions,
)
from repro.events.merge import PacketGroup
from repro.events.packet import PacketKey
from repro.fsm.templates import FsmTemplate
from repro.obs.registry import MetricsRegistry, get_registry, use_registry
from repro.obs.spans import span

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

# per-worker state, initialized once per process
_worker_template: Optional[FsmTemplate] = None
_worker_options: ReconstructorOptions = ReconstructorOptions()


def _init_worker(factory: TemplateFactory, options: ReconstructorOptions) -> None:
    global _worker_template, _worker_options
    _worker_template = factory()
    _worker_options = options


#: Per packet of a task: the ids to record its shape in (rank order), or
#: ``None`` when no record is wanted.
RecordIds = Optional[list[int]]


def _reconstruct_task(
    task: Sequence[PacketGroup], record_ids: Sequence[RecordIds]
) -> tuple[list[tuple[PacketKey, EventFlow, Optional[ShapeRecord]]], MetricsRegistry]:
    """One task in one worker; metrics land in a private registry."""
    assert _worker_template is not None, "worker not initialized"
    out = []
    reconstructor = PacketReconstructor(_worker_template, None, _worker_options)
    with use_registry(MetricsRegistry()) as registry:
        for (packet, events_by_node), ids in zip(task, record_ids):
            reconstructor.packet = packet
            flow = reconstructor.reconstruct(events_by_node)
            record = None if ids is None else record_of(reconstructor, ids)
            out.append((packet, flow, record))
    return out, registry


class _Task:
    """One pool task, and the packets replayed once it has drained."""

    __slots__ = ("future", "pending", "hits")

    def __init__(
        self,
        future: "Future",
        pending: list[Optional[Pending]],
        hits: list[tuple[Pending, PacketGroup, list[int]]],
    ) -> None:
        self.future = future
        #: per task packet, the memo slot its record fills (or ``None``)
        self.pending = pending
        #: packets whose shape a task up to this one is recording
        self.hits = hits


#: Pool tasks per worker in one ``finish``: enough to balance uneven
#: packets across workers, few enough that pickling stays per-task cheap.
TASKS_PER_WORKER = 4


class ProcessPoolBackend(IncrementalBackend):
    """Reconstruct the dirty set in a ``multiprocessing`` pool.

    Parameters
    ----------
    workers:
        Process count (default: ``os.cpu_count()``).
    min_packets:
        Below this many dirty packets the pool is not worth its startup
        cost and ``finish`` reconstructs in-process.
    max_inflight:
        Cap on unfinished pool tasks (default ``2 * workers``); ``finish``
        drains completed ones past the cap, so a run keeps a bounded
        number of tasks pickled at any moment.
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
        self._tasks: deque[_Task] = deque()

    def start(self, plan: ExecutionPlan) -> None:
        if plan.template_factory is None:
            raise ValueError(
                "ProcessPoolBackend needs a module-level template factory "
                "(lambdas and bound templates cannot cross process spawn); "
                "construct the session with template_factory=..."
            )
        super().start(plan)

    def finish(self) -> Iterator[tuple[PacketKey, EventFlow]]:
        if len(self.dirty) < self.min_packets or self.workers <= 1:
            # the pool would cost more than it saves
            yield from super().finish()
            return
        dirty = sorted(self.dirty)
        if self._pool is None:
            self._open_pool()
        events = self._events
        size = -(-len(dirty) // (TASKS_PER_WORKER * self.workers))
        for lo in range(0, len(dirty), size):
            yield from self._dispatch([(p, events[p]) for p in dirty[lo : lo + size]])
            yield from self._drain(keep=self.max_inflight)
        yield from self._drain(keep=0)
        self.dirty.clear()

    def close(self) -> None:
        super().close()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._tasks.clear()

    # ------------------------------------------------------------------ #

    def _open_pool(self) -> None:
        # imported here so in-process runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        plan = self._plan()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(plan.template_factory, plan.options),
        )

    def _dispatch(self, groups: Sequence[PacketGroup]) -> list[tuple[PacketKey, EventFlow]]:
        """Send ``groups``' packets of new shapes to the pool as one task;
        returns the packets replayed here from a record already at hand."""
        assert self._pool is not None
        memo = self.memo
        counters = ReconCounters.for_registry(get_registry())
        send: list[PacketGroup] = []
        record_ids: list[RecordIds] = []
        pending: list[Optional[Pending]] = []
        hits: list[tuple[Pending, PacketGroup, list[int]]] = []
        replayed: list[tuple[PacketKey, EventFlow]] = []
        for group in groups:
            slot: Optional[Pending] = None
            wanted: RecordIds = None
            if memo is not None:
                packet, events_by_node = group
                key, ids = memo.shape(packet, events_by_node)
                entry = None if key is None else memo.records.get(key)
                if isinstance(entry, Pending):
                    counters.memo_hits.inc()
                    hits.append((entry, group, ids))
                    continue
                if entry is not None:
                    counters.memo_hits.inc()
                    replayed.append((packet, self._replay(entry, group, ids)))
                    continue
                counters.memo_misses.inc()
                if key is not None:
                    slot = Pending(key)
                    memo.put(key, slot)
                    wanted = ids
            send.append(group)
            record_ids.append(wanted)
            pending.append(slot)
        if send or hits:
            future = self._pool.submit(_reconstruct_task, send, record_ids)
            self._tasks.append(_Task(future, pending, hits))
        return replayed

    def _replay(
        self, entry: Union[ShapeRecord, Pending], group: PacketGroup, ids: list[int]
    ) -> EventFlow:
        packet, events_by_node = group
        record = entry.record if isinstance(entry, Pending) else entry
        with span("reconstruct.packet"):
            if record is None:  # the recording run could not be recorded
                plan = self._plan()
                reconstructor = PacketReconstructor(plan.template, packet, plan.options)
                return reconstructor.run(events_by_node)
            counters = ReconCounters.for_registry(get_registry())
            return replay(record, packet, events_by_node, ids, counters)

    def _drain(self, *, keep: int) -> Iterator[tuple[PacketKey, EventFlow]]:
        """Yield results of completed tasks until ≤ ``keep`` remain in flight.

        FIFO order: tasks were submitted in sorted-packet order and the
        session re-sorts its flow map anyway, so blocking on the oldest
        task keeps memory bounded without hurting determinism — and every
        shape a task's parked packets wait for was recorded by it or by an
        older task.
        """
        parent_registry = get_registry()
        while len(self._tasks) > keep:
            task = self._tasks.popleft()
            flows, worker_registry = task.future.result()
            parent_registry.merge(worker_registry)
            for (packet, flow, record), slot in zip(flows, task.pending):
                if slot is not None:
                    self.memo.settle(slot, record)  # type: ignore[union-attr]
                yield packet, flow
            for slot, group, ids in task.hits:
                yield group[0], self._replay(slot, group, ids)
