"""The unified reconstruction session (paper Fig. 1, one spine for every door).

REFILL's per-packet independence means one pipeline serves every workload —
batch, parallel, and live.  :class:`ReconstructionSession` owns that
pipeline: group events by packet in the merge layer, apply
:class:`RefillOptions` (including ``strip_times``) in exactly one place,
accumulate the evidence in an
:class:`~repro.core.backends.IncrementalBackend`, refresh it, diagnose, and
record metrics.  Every caller — the library API, ``analysis/pipeline.py``,
the CLI and the serve daemon — constructs a session directly, so
preflight, metrics/spans, and options semantics are identical no matter
which door you enter through.

Every door accumulates evidence, then refreshes it; only the ingest
framing differs:

- **one-shot** — :meth:`reconstruct` groups a log collection into
  *complete* packet groups, submits them once, refreshes once and releases
  the backend;
- **streaming ingest** — :meth:`ingest` feeds *partial* evidence batches
  (live collection rounds); :meth:`refresh` re-derives exactly the dirtied
  flows and re-diagnoses them.

A streaming session's resumable state (:meth:`export_state`) is its
evidence and nothing derived from it; this module owns that layout, its
reader, and the per-packet split and merge sharded checkpoints use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.core.backends import ExecutionPlan, IncrementalBackend, TemplateFactory
from repro.core.diagnosis import LossReport, classify_flow
from repro.core.event_flow import EventFlow
from repro.core.transition_algorithm import (
    PacketReconstructor,
    ReconstructorOptions,
    TemplateFor,
)
from repro.events.codec import intern_vocabulary
from repro.events.event import Event
from repro.events.log import NodeLog
from repro.events.merge import Logs, PacketGroup, group_by_packet
from repro.events.packet import PacketKey
from repro.fsm.templates import FsmTemplate, forwarder_template
from repro.obs.registry import get_registry
from repro.obs.spans import span

#: Sentinel distinguishing "no override" from an explicit ``None``.
_UNSET: object = object()

#: One evidence batch for streaming ingest: per-node logs or event lists.
IngestBatch = Union[Mapping[int, NodeLog], Mapping[int, Iterable[Event]]]

#: Version tag of :meth:`ReconstructionSession.export_state` payloads.
#: Version 1 also stored the derived flow and report caches; it still
#: restores (see :func:`session_evidence`).
SESSION_STATE_VERSION = 2


@dataclass(frozen=True)
class RefillOptions:
    """Top-level configuration, normalized by the session in one place.

    Attributes
    ----------
    enable_intra / enable_inter:
        Forwarded to the reconstructor; ablation switches.
    strip_times:
        Drop timestamps from log events before inference, asserting that the
        reconstruction never depends on clocks (the paper's setting).  The
        returned flows then carry time only on events the caller re-attaches.
    """

    enable_intra: bool = True
    enable_inter: bool = True
    strip_times: bool = False

    def reconstructor_options(self) -> ReconstructorOptions:
        return ReconstructorOptions(
            enable_intra=self.enable_intra, enable_inter=self.enable_inter
        )


class ReconstructionSession:
    """One reconstruction run: merge → normalize → execute → diagnose.

    Parameters
    ----------
    template:
        An :class:`FsmTemplate` or per-node factory ``node -> FsmTemplate``.
        Defaults to the CTP forwarder.
    options:
        The :class:`RefillOptions`; ``strip_times`` is applied to every
        event *before* it reaches the backend, so pooled and in-process
        runs see the same events.
    backend:
        Where refreshes run (default: an in-process
        :class:`~repro.core.backends.IncrementalBackend`;
        :class:`~repro.core.backends.ProcessPoolBackend` runs large ones in
        a worker pool).
    template_factory:
        Zero-argument *module-level* template builder — required by
        :class:`~repro.core.backends.ProcessPoolBackend` (it must pickle by
        reference into workers).  When only the factory is given, the local
        template is built from it.
    delivery_node:
        Base-station node id for :meth:`diagnose` (``None`` disables
        delivery detection).
    """

    def __init__(
        self,
        template: FsmTemplate | TemplateFor | None = None,
        options: RefillOptions = RefillOptions(),
        *,
        backend: Optional[IncrementalBackend] = None,
        template_factory: Optional[TemplateFactory] = None,
        delivery_node: Optional[int] = None,
    ) -> None:
        if template is None:
            if template_factory is None:
                template_factory = forwarder_template
            template = template_factory()
        self.template: FsmTemplate | TemplateFor = template
        self.template_factory = template_factory
        self.options = options
        self.backend = backend if backend is not None else IncrementalBackend()
        self.delivery_node = delivery_node
        self.batches_ingested = 0
        self._started = False
        #: streaming-ingest caches (refresh keeps them current)
        self._flows: dict[PacketKey, EventFlow] = {}
        self._reports: dict[PacketKey, LossReport] = {}

    # ------------------------------------------------------------------ #
    # one-shot

    def reconstruct(self, logs: Logs) -> dict[PacketKey, EventFlow]:
        """Event flow of every packet mentioned anywhere in ``logs``.

        ``logs`` is a ``{node: NodeLog}`` mapping.  Submits every packet's
        evidence once, refreshes once and releases the backend; the
        returned map is sorted by packet key regardless of the backend's
        completion order.  A session that is ingesting refuses: releasing
        the backend would drop the evidence its cached flows came from.
        """
        if self._started:
            raise RuntimeError("reconstruct() on an ingesting session; use refresh()")
        with span("reconstruct"):
            self._start_backend()
            try:
                with span("reconstruct.merge"):
                    groups = list(group_by_packet(logs).items())
                self.backend.submit(self._normalize(groups))
                flows = dict(self.backend.finish())
            finally:
                # release the backend even when merge/reconstruction raises
                # (the stress harness feeds sessions deliberately hostile
                # corpora and must be able to reuse the process afterwards)
                self.backend.close()
                self._started = False
            return {packet: flows[packet] for packet in sorted(flows)}

    def run(self, logs: Logs) -> "SessionResult":
        """:meth:`reconstruct` + :meth:`diagnose` in one call."""
        flows = self.reconstruct(logs)
        return SessionResult(flows=flows, reports=self.diagnose(flows))

    def reconstruct_group(
        self,
        packet: Optional[PacketKey],
        events_by_node: Mapping[int, Sequence[Event]],
    ) -> EventFlow:
        """One packet's flow from its per-node ordered events.

        The single-packet door; applies the same normalization as the
        batch paths and runs in-process.
        """
        ((_, normalized),) = self._normalize(
            [(packet, {n: list(evs) for n, evs in events_by_node.items()})]
        )
        reconstructor = PacketReconstructor(
            self.template, packet, self.options.reconstructor_options()
        )
        return reconstructor.reconstruct(normalized)

    # ------------------------------------------------------------------ #
    # diagnosis (paper §V-B)

    def diagnose(
        self,
        flows: Mapping[PacketKey, EventFlow],
        *,
        delivery_node: object = _UNSET,
    ) -> dict[PacketKey, LossReport]:
        """Loss cause + position per packet, instrumented like every other
        stage: a ``diagnose`` span and a ``diagnose.packets`` counter."""
        node: Optional[int]
        if delivery_node is _UNSET:
            node = self.delivery_node
        else:
            node = delivery_node  # type: ignore[assignment]
        with span("diagnose"):
            counter = get_registry().counter("diagnose.packets")
            reports: dict[PacketKey, LossReport] = {}
            for packet, flow in flows.items():
                reports[packet] = classify_flow(flow, delivery_node=node)
                counter.inc()
            return reports

    # ------------------------------------------------------------------ #
    # streaming ingest

    def ingest(self, batch: IngestBatch) -> set[PacketKey]:
        """Add a batch of per-node log segments; returns the dirtied packets.

        Within one node, segments must arrive in log order (collection
        preserves per-node order); across batches any interleaving is fine.
        """
        self._start_backend()
        partial: dict[PacketKey, dict[int, list[Event]]] = {}
        for node, events in batch.items():
            for event in events:
                if event.packet is None:
                    continue
                partial.setdefault(event.packet, {}).setdefault(node, []).append(event)
        self.backend.submit(self._normalize(list(partial.items())))
        self.batches_ingested += 1
        return set(partial)

    def refresh(self) -> set[PacketKey]:
        """Re-reconstruct all dirty packets (and re-diagnose them); returns
        what was refreshed."""
        self._start_backend()
        refreshed: dict[PacketKey, EventFlow] = {}
        for packet, flow in self.backend.finish():
            refreshed[packet] = flow
        if refreshed:
            self._flows.update(refreshed)
            self._reports.update(self.diagnose(refreshed))
        return set(refreshed)

    # queries (auto-refresh for convenience)

    def flow(self, packet: PacketKey) -> Optional[EventFlow]:
        if packet in self.backend.dirty:
            self.refresh()
        return self._flows.get(packet)

    def flows(self) -> dict[PacketKey, EventFlow]:
        if self.backend.dirty:
            self.refresh()
        return {p: self._flows[p] for p in sorted(self._flows)}

    def reports(self) -> dict[PacketKey, LossReport]:
        if self.backend.dirty:
            self.refresh()
        return {p: self._reports[p] for p in sorted(self._reports)}

    @property
    def pending(self) -> int:
        """Dirty packets awaiting a refresh."""
        return len(self.backend.dirty)

    def packets(self) -> list[PacketKey]:
        """Every packet the session has seen evidence for."""
        return self.backend.packets()

    # ------------------------------------------------------------------ #
    # resumable state

    def export_state(self) -> dict[str, Any]:
        """JSON-compatible snapshot of a streaming-ingest session.

        Captures the evidence and nothing derived from it: the backend's
        per-packet accumulated events and ``batches_ingested``.  Flows and
        reports follow from the events alone, so :meth:`restore_state`
        re-derives them through the same :meth:`refresh` live ingest uses.
        The serve layer's checkpoint wraps this with its per-source ingest
        offsets, so a restarted daemon is re-sent no line.
        """
        return _payload(self.backend.export_state(), self.batches_ingested)

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Inverse of :meth:`export_state`; replaces any current state.

        Every restored packet is pending until the next :meth:`refresh`.
        Version-1 payloads restore too (see :func:`session_evidence`).
        """
        events, batches = session_evidence(state)
        self._start_backend()
        self.backend.restore_state({"events": events})
        self.batches_ingested = batches
        self._flows = {}
        self._reports = {}

    # ------------------------------------------------------------------ #
    # plumbing

    def preflight(self):
        """Static-analyze the session's template before reconstructing.

        Raises :class:`repro.check.runner.PreflightError` on model errors —
        a broken FSM silently corrupts every reconstructed flow.  Per-node
        factories pass without analysis (returns ``None``), matching
        :func:`repro.check.runner.preflight_check`.
        """
        from repro.check.runner import preflight_check  # avoid import cycle

        return preflight_check(self.template)

    def plan(self) -> ExecutionPlan:
        """The execution plan handed to the backend."""
        return ExecutionPlan(
            template=self.template,
            options=self.options.reconstructor_options(),
            template_factory=self.template_factory,
        )

    def _start_backend(self) -> None:
        if not self._started:
            if isinstance(self.template, FsmTemplate):
                # Pre-register the template's event vocabulary so the
                # decoder interns every expected label up front (one shared
                # str per label).
                intern_vocabulary(self.template.graph.events)
            self.backend.start(self.plan())
            self._started = True

    def _normalize(
        self, groups: Sequence[tuple[Optional[PacketKey], dict[int, list[Event]]]]
    ) -> list[PacketGroup]:
        """Apply :class:`RefillOptions` event normalization — the ONE place
        ``strip_times`` happens, before any sharding or accumulation."""
        if not self.options.strip_times:
            return list(groups)  # type: ignore[arg-type]
        return [
            (
                packet,  # type: ignore[misc]
                {
                    node: [event.without_time() for event in events]
                    for node, events in events_by_node.items()
                },
            )
            for packet, events_by_node in groups
        ]


@dataclass(frozen=True)
class SessionResult:
    """What :meth:`ReconstructionSession.run` hands back."""

    flows: dict[PacketKey, EventFlow]
    reports: dict[PacketKey, LossReport]


# ---------------------------------------------------------------------- #
# state layout: read and partition (sharded-cluster checkpoints)


def session_evidence(state: Any) -> tuple[Mapping[str, Any], int]:
    """``(events, batches_ingested)`` of an :meth:`export_state` payload.

    The one reader of the layout.  Versions 1 and 2 share it: version 1
    also stored derived flows, reports and a dirty set, which are ignored.
    Raises ``ValueError`` for any other version or a missing field.
    """
    version = state.get("version") if isinstance(state, Mapping) else None
    if version not in (1, SESSION_STATE_VERSION):
        raise ValueError(f"unsupported session state version {version!r}")
    backend = state.get("backend")
    events = backend.get("events") if isinstance(backend, Mapping) else None
    batches = state.get("batches_ingested")
    if not isinstance(events, Mapping) or not isinstance(batches, int):
        raise ValueError("session state needs backend events and batches_ingested")
    return events, batches


def split_session_state(
    state: Mapping[str, Any],
    parts: int,
    assign: Callable[[PacketKey], int],
) -> list[dict[str, Any]]:
    """Partition an :meth:`ReconstructionSession.export_state` payload.

    Per-packet independence (the paper's core property) makes the evidence
    trivially partitionable: each packet's events land whole on
    ``assign(packet)``.  The one cross-packet scalar, ``batches_ingested``,
    is not per-packet at all — it goes to part 0, and cluster-level
    consumers only ever read the *sum* across shards.
    """
    events, batches = session_evidence(state)
    out = [_payload({"events": {}}, 0 if part else batches) for part in range(parts)]
    for packet, per_node in events.items():
        out[assign(PacketKey.parse(packet))]["backend"]["events"][packet] = per_node
    return out


def merge_session_states(states: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold disjoint per-shard session states back into one payload.

    Inverse of :func:`split_session_state` (packets must be disjoint);
    ``batches_ingested`` is summed.  The merged payload is byte-identical
    to the export of an unsharded session holding the same evidence —
    packets are re-sorted the way :meth:`ReconstructionSession.export_state`
    sorts them — and is written at the current version whatever the
    inputs' version.
    """
    events: dict[str, Any] = {}
    batches = 0
    for state in states:
        part, count = session_evidence(state)
        events.update(part)
        batches += count
    ordered = sorted(PacketKey.parse(p) for p in events)
    return _payload({"events": {str(p): events[str(p)] for p in ordered}}, batches)


def _payload(backend: dict[str, Any], batches_ingested: int) -> dict[str, Any]:
    """The one writer of the layout :func:`session_evidence` reads."""
    return {
        "version": SESSION_STATE_VERSION,
        "batches_ingested": batches_ingested,
        "backend": backend,
    }
