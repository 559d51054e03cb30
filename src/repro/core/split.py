"""Reconstruct a store on every usable core: one document-order slice each.

Per-packet independence (paper §IV–V) makes reconstruction embarrassingly
parallel, and it carries through the two stages after it: a packet's loss
report and its bytes in the flows document depend on that packet's
evidence alone.  So :func:`reconstruct_slices` groups the store by packet
once, cuts the packets in document order (string-sorted keys, the order
:func:`~repro.core.serialize.encode_flows` writes) into contiguous slices
of about equal evidence, and each process reconstructs, diagnoses and
encodes one slice with its own session, backend and shape memo.  The
slices' bytes join in order into the document; cross-packet work (outage
attribution) is left to the caller, on the union of the reports.  A run
in one process keeps its flows and encodes each as the document is
written, so the document is never held whole.

The workers are ``os.fork`` children of the process that loaded the store:
the evidence reaches them by copy-on-write, never pickled.  A worker sends
back through a pipe only its slice's encoded flows, its reports and its
metrics registry, which the parent folds into its own, so counters and the
``analyze.*`` span totals are work summed over the processes (not the
wall time of the parallel stretch: a sum stays comparable with one
process doing the same work).  The parent runs the first slice itself.

Fork safety:

- the fork is taken only when ``os.fork`` exists and the process runs one
  thread (a fork copies no other thread, nor the locks they hold);
  otherwise every slice runs in-process, one after another;
- stdout and stderr are flushed first, so no buffered text is written
  twice; a worker leaves only through ``os._exit``, so it never flushes
  the parent's buffers nor runs the parent's ``finally`` blocks or
  ``atexit`` hooks;
- a worker that raises, exits non-zero or is killed, or one that cannot
  be started (no pipe or no fork), raises :class:`WorkerFailed` in the
  parent; whatever way the parent leaves
  (a failed worker, its own exception, an interrupt), it kills and reaps
  every worker it has not reaped yet, so no process outlives the call.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from repro.core.diagnosis import LossReport
from repro.core.event_flow import EventFlow
from repro.core.serialize import document_members, document_parts
from repro.core.session import ReconstructionSession, RefillOptions
from repro.core.transition_algorithm import TemplateFor
from repro.events.event import Event
from repro.events.merge import Logs, group_by_packet
from repro.events.packet import PacketKey
from repro.fsm.templates import FsmTemplate
from repro.obs.registry import MetricsRegistry, NullRegistry, get_registry, use_registry
from repro.obs.spans import span

#: A slice's flows for the document: encoded members (a forked run's
#: slices) or the flows themselves (a one-process run, encoded as written).
SliceFlows = list[str] | dict[PacketKey, EventFlow]

#: What one slice hands back: its flows (``None`` when not encoding) and
#: its loss reports.
SliceResult = tuple[Optional[SliceFlows], dict[PacketKey, LossReport]]


class WorkerFailed(RuntimeError):
    """A worker process raised, exited non-zero, was killed or could not
    be started."""


@dataclass
class SliceRun:
    """What :func:`reconstruct_slices` hands back."""

    #: every packet's loss report, in packet-key order
    reports: dict[PacketKey, LossReport]
    #: every slice's flows, in document order (empty unless encoding was
    #: asked for)
    parts: list[SliceFlows] = field(default_factory=list)
    #: processes that ran a slice (1: everything ran in-process)
    processes: int = 1

    def document_parts(self) -> Iterator[str]:
        """The :func:`~repro.core.serialize.encode_flows` document of every
        flow, in pieces a writer can take one at a time."""
        runs: Iterable[Iterable[str]] = (
            document_members(part) if isinstance(part, dict) else part
            for part in self.parts
        )
        return document_parts(runs)


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether :func:`reconstruct_slices` may fork workers here."""
    return hasattr(os, "fork") and threading.active_count() == 1


def reconstruct_slices(
    logs: Logs,
    *,
    template: FsmTemplate | TemplateFor | None = None,
    options: RefillOptions = RefillOptions(),
    delivery_node: Optional[int] = None,
    workers: int = 1,
    encode: bool = False,
) -> SliceRun:
    """Reconstruct, diagnose and (with ``encode``) encode every packet of
    ``logs`` in up to ``workers`` processes.

    Each slice runs in a :class:`ReconstructionSession` built from
    ``template``, ``options`` and ``delivery_node``.  Reports, document
    bytes and counters equal one in-process session's whatever
    ``workers`` is; only the shape memo's hit/miss split moves, because
    each process has its own memo.  Raises :class:`WorkerFailed` when a
    worker fails.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    with span("analyze.reconstruct"), span("reconstruct.merge"):
        groups = group_by_packet(logs)
        keys = sorted(groups, key=str)

    def run_slice(chunk: Sequence[PacketKey], keep_flows: bool = False) -> SliceResult:
        session = ReconstructionSession(template, options, delivery_node=delivery_node)
        with span("analyze.reconstruct"):
            # the session's backend owns the slice's evidence from here and
            # frees it when the slice is reconstructed
            flows = session.reconstruct_groups([(key, groups.pop(key)) for key in chunk])
        with span("analyze.diagnose"):
            reports = session.diagnose(flows)
        if not encode:
            return None, reports
        if keep_flows:
            return flows, reports
        with span("analyze.encode"):
            return list(document_members(flows)), reports

    if workers > 1 and len(keys) > 1 and can_fork():
        results = _run_forked(run_slice, _cut(keys, groups, workers))
    else:
        results = [run_slice(keys, keep_flows=True)]
    reports: dict[PacketKey, LossReport] = {}
    parts: list[SliceFlows] = []
    for part, slice_reports in results:
        reports.update(slice_reports)
        if part is not None:
            parts.append(part)
    return SliceRun(
        reports={key: reports[key] for key in sorted(reports)},
        parts=parts,
        processes=len(results),
    )


def _cut(
    keys: Sequence[PacketKey],
    groups: dict[PacketKey, dict[int, list[Event]]],
    processes: int,
) -> list[list[PacketKey]]:
    """Cut ``keys`` into up to ``processes`` contiguous non-empty slices of
    about equal evidence."""
    weights = [sum(map(len, groups[key].values())) for key in keys]
    share = sum(weights) / processes
    slices: list[list[PacketKey]] = []
    start, done, bound = 0, 0, 0.0
    for _ in range(processes - 1):
        bound += share
        end = start
        while end < len(keys) and done + weights[end] / 2 <= bound:
            done += weights[end]
            end += 1
        if end > start:
            slices.append(list(keys[start:end]))
        start = end
    if start < len(keys):
        slices.append(list(keys[start:]))
    return slices


def _run_forked(
    run_slice: Callable[[Sequence[PacketKey]], SliceResult],
    slices: list[list[PacketKey]],
) -> list[SliceResult]:
    """The first slice here, every other one in a forked worker."""
    parent = get_registry()
    sys.stdout.flush()
    sys.stderr.flush()
    #: per worker not reaped yet, the read end of its pipe
    pipes: dict[int, BinaryIO] = {}
    try:
        for chunk in slices[1:]:
            try:
                pid, pipe = _fork(pipes, parent, run_slice, chunk)
            except OSError as exc:
                raise WorkerFailed(f"cannot start a worker: {exc}") from exc
            pipes[pid] = pipe
        results = [run_slice(slices[0])]
        for pid in list(pipes):
            result, registry = _collect(pid, pipes)
            parent.merge(registry)
            results.append(result)
        return results
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _fork(
    pipes: dict[int, BinaryIO],
    parent: MetricsRegistry,
    run_slice: Callable[[Sequence[PacketKey]], SliceResult],
    chunk: Sequence[PacketKey],
) -> tuple[int, BinaryIO]:
    """Fork a worker for ``chunk``: its pid and the read end of its pipe.
    A failed ``pipe`` or ``fork`` leaves no descriptor open."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        for pipe in pipes.values():
            pipe.close()
        _worker(write_fd, parent, run_slice, chunk)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _worker(
    write_fd: int,
    parent: MetricsRegistry,
    run_slice: Callable[[Sequence[PacketKey]], SliceResult],
    chunk: Sequence[PacketKey],
) -> NoReturn:
    """A forked worker's whole life: run its slice, pickle the result (or
    the error) into the pipe, and leave through ``os._exit``.

    The slice records into a fresh registry, which rides back with the
    result: the registry the worker inherited holds the parent's records.
    """
    status = 1
    try:
        registry = MetricsRegistry() if parent.enabled else NullRegistry()
        try:
            with use_registry(registry):
                result = run_slice(chunk)
            registry.bind_cache.clear()
            payload = pickle.dumps((result, registry), pickle.HIGHEST_PROTOCOL)
            status = 0
        except BaseException as exc:
            payload = pickle.dumps(f"{type(exc).__name__}: {exc}")
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(status)


def _collect(
    pid: int, pipes: dict[int, BinaryIO]
) -> tuple[SliceResult, MetricsRegistry]:
    """Read a worker's result to the end of its pipe, then reap it."""
    pipe = pipes[pid]
    payload = pipe.read()
    pipe.close()
    _, status = os.waitpid(pid, 0)
    del pipes[pid]
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return pickle.loads(payload)
    if code < 0:
        reason = f"killed by signal {-code}"
    else:
        try:
            reason = str(pickle.loads(payload))
        except Exception:
            reason = f"exit status {code}"
    raise WorkerFailed(f"worker {pid}: {reason}")
