"""The canonical evaluation pipeline (paper Fig. 1, applied to §V).

simulate → collect lossy logs → REFILL reconstruction → diagnosis →
server-outage attribution.  Examples and benchmarks all run through
:func:`evaluate`; a small in-process cache keeps multiple benchmarks over
the same scenario from re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.baselines.sink_view import SinkView
from repro.core.diagnosis import LossReport
from repro.core.event_flow import EventFlow
from repro.core.session import ReconstructionSession, RefillOptions
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.lognet.collector import collect_logs
from repro.lognet.loss import LogLossSpec
from repro.simnet.network import Network, ScenarioParams, SimulationResult
from repro.analysis.causes import attribute_server_outages
from repro.obs.spans import span
from repro.obs.structlog import get_logger

_log = get_logger("repro.pipeline")

#: The sink drops most of its own log writes under forwarding load — the
#: source of the paper's acked-vs-received split at the sink (Figs. 6/9).
SINK_WRITE_FAIL_P = 0.6


def default_loss_spec(sim: SimulationResult) -> LogLossSpec:
    """The CitySee-plausible log degradation used throughout §V."""
    return LogLossSpec(
        write_fail_p=0.02,
        crash_p=0.015,
        chunk_loss_p=0.025,
        node_loss_p=0.006,
        immune=frozenset({sim.base_station_node}),
        write_fail_overrides=((sim.sink, SINK_WRITE_FAIL_P),),
    )


@dataclass
class EvalResult:
    """Everything the figure analytics consume."""

    sim: SimulationResult
    collected_logs: dict[int, NodeLog]
    flows: dict[PacketKey, EventFlow]
    #: REFILL diagnosis before outage attribution.
    raw_reports: dict[PacketKey, LossReport]
    #: After server-outage attribution from the operations log (§V-C).
    reports: dict[PacketKey, LossReport]
    sink_view: SinkView
    #: Estimated loss times (sink-view recipe; None when inestimable).
    est_loss_times: dict[PacketKey, Optional[float]]

    @property
    def sink(self) -> int:
        return self.sim.sink

    @property
    def base_station(self) -> int:
        return self.sim.base_station_node


def evaluate(
    params: ScenarioParams,
    *,
    collection_seed: int = 99,
    loss_spec: Optional[LogLossSpec] = None,
    refill_options: RefillOptions = RefillOptions(),
    sim: Optional[SimulationResult] = None,
    preflight: bool = True,
    template=None,
) -> EvalResult:
    """Run the whole pipeline for one scenario.

    Pass ``sim`` to reuse an existing simulation (the benchmarks share one
    trace across figures, like the paper's single deployment dataset).

    ``preflight`` (on by default, mirroring the CLI's ``--no-check``) runs
    the static analyzer over the inference template before reconstruction
    and raises :class:`~repro.check.runner.PreflightError` on model errors
    — a broken FSM silently corrupts every reconstructed flow, so the
    pipeline refuses to start from one.

    ``template`` overrides the inference model (default: the hand-written
    CTP forwarder) — this is how learned specs are scored against held-out
    corpora (:mod:`repro.learn.evaluate`).
    """
    session = ReconstructionSession(template, options=refill_options)
    if preflight:  # fail fast on a broken model, before paying for simulation
        session.preflight()
    if sim is None:
        with span("pipeline.simulate"):
            sim = run_simulation(params)
    session.delivery_node = sim.base_station_node
    spec = loss_spec if loss_spec is not None else default_loss_spec(sim)
    with span("pipeline.collect"):
        collected = collect_logs(
            sim.true_logs,
            spec,
            collection_seed,
            perfect_clocks=frozenset({sim.base_station_node}),
        )
    with span("pipeline.reconstruct"):
        flows = session.reconstruct(collected)
    with span("pipeline.diagnose"):
        raw_reports = session.diagnose(flows)
    sink_view = SinkView(sim.bs_arrivals, params.gen_interval)
    with span("pipeline.attribute"):
        est_times = _estimate_times(sink_view, raw_reports, collected)
        reports = attribute_server_outages(
            raw_reports,
            est_times,
            outages=sim.params.base_station.outages,
            sink=sim.sink,
            base_station=sim.base_station_node,
        )
    _log.debug(
        "pipeline.evaluated",
        nodes=len(collected),
        packets=len(flows),
        lost=sum(1 for r in reports.values() if r.lost),
    )
    return EvalResult(
        sim=sim,
        collected_logs=collected,
        flows=flows,
        raw_reports=raw_reports,
        reports=reports,
        sink_view=sink_view,
        est_loss_times=est_times,
    )


def _estimate_times(
    sink_view: SinkView,
    reports: Mapping[PacketKey, LossReport],
    collected: Mapping[int, NodeLog],
) -> dict[PacketKey, Optional[float]]:
    """Loss-time estimates for every analyzed packet.

    Primary: the sink-view sequence-gap recipe.  Fallback: the packet's own
    logged generation record (a local, skewed clock — still useful for
    bucketing into days).
    """
    gen_times: dict[PacketKey, float] = {}
    for log in collected.values():
        for event in log:
            if event.etype == "gen" and event.packet is not None and event.time is not None:
                gen_times[event.packet] = event.time
    out: dict[PacketKey, Optional[float]] = {}
    for packet in reports:
        estimate = sink_view.estimate_loss_time(packet)
        if estimate is None:
            estimate = gen_times.get(packet)
        out[packet] = estimate
    return out


# --------------------------------------------------------------------- #
# simulation cache (benchmarks share traces; keyed by scenario params)

_SIM_CACHE: dict[tuple, SimulationResult] = {}


def run_simulation(params: ScenarioParams, *, cache: bool = True) -> SimulationResult:
    """Run (or reuse) the simulation for ``params``."""
    key = _cache_key(params)
    if cache and key in _SIM_CACHE:
        return _SIM_CACHE[key]
    result = Network(params).run()
    if cache:
        _SIM_CACHE[key] = result
    return result


def _cache_key(params: ScenarioParams) -> tuple:
    return (
        params.n_nodes,
        params.duration,
        params.gen_interval,
        params.gen_sync_window,
        params.seed,
        params.link,
        params.disturbances,
        params.mac,
        params.ctp,
        params.node,
        params.serial,
        params.base_station,
    )
