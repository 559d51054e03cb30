"""Command-line interface: ``refill`` (or ``python -m repro``).

The subcommands mirror the deployment workflow:

- ``refill simulate`` — run a scaled CitySee scenario, write the collected
  (lossy, clock-skewed) per-node logs as text files plus an operations log;
- ``refill check`` — static-analyze a deployment (FSM templates and/or a
  log corpus) *before* any reconstruction runs; exit 1 on error findings
  (see ``docs/STATIC_ANALYSIS.md`` for the rule catalogue);
- ``refill learn`` — infer per-node FSM templates and inter-node
  prerequisite rules from a log store, written as a byte-deterministic
  declarative spec that ``check --spec`` and ``analyze --spec`` load
  (see ``docs/LEARNING.md``);
- ``refill analyze`` — reconstruct event flows from a log directory and
  print the loss diagnosis (a pre-flight check gates the run; skip it with
  ``--no-check``); ``--spec learned.json`` swaps in a learned model;
- ``refill trace`` — print one packet's reconstructed event flow;
- ``refill stress`` — run a seeded fault-injection campaign (corrupted
  stores, ground-truth oracles ``ST001``–``ST007``, ddmin case shrinking)
  or ``--replay`` a written reproducer; see ``docs/TESTING.md``;
- ``refill serve`` — run the long-lived reconstruction daemon: line-framed
  TCP/unix-socket ingest, periodic checkpoints, HTTP/JSON queries (see
  ``docs/SERVING.md``);
- ``refill push`` — replay an on-disk store's shards at a running daemon
  (resumable: pushing twice, or across a server restart, sends only what
  the server has not yet accepted).

Progress narration goes to stderr through the structured logger
(:mod:`repro.obs.structlog`): ``-v`` raises it to debug, ``-q`` silences
everything below errors, ``--log-json`` switches to JSON lines.  Analysis
results on stdout are unaffected by the verbosity flags.

``refill analyze`` additionally exposes the observability substrate:
``--metrics-out metrics.json`` dumps the run's
:class:`~repro.obs.registry.MetricsSnapshot` and ``--profile`` prints a
per-stage wall-time table (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import sys
from typing import Optional

from repro.analysis.causes import attribute_server_outages, cause_shares, sink_split
from repro.analysis.report import render_cause_shares
from repro.baselines.sink_view import SinkView
from repro.core.backends import BACKENDS, IncrementalBackend, make_backend
from repro.core.session import ReconstructionSession
from repro.events.log import NodeLog
from repro.events.packet import PacketKey
from repro.events.store import ShardTap, StoreMetadata, load_store, save_store
from repro.obs import (
    DEBUG,
    ERROR,
    INFO,
    MetricsRegistry,
    MetricsSnapshot,
    configure_logging,
    get_logger,
    span,
    use_registry,
)

log = get_logger("refill.cli")


def _cmd_simulate(args: argparse.Namespace) -> int:
    # the simulator's modules (and numpy) load only for the command that runs them
    from repro.analysis.pipeline import default_loss_spec
    from repro.lognet.collector import collect_logs
    from repro.simnet.scenarios import citysee, run_scenario

    params = citysee(n_nodes=args.nodes, days=args.days, seed=args.seed)
    log.info("simulate.start", nodes=args.nodes, days=args.days, seed=args.seed)
    with span("simulate.run"):
        sim = run_scenario(params)
    with span("simulate.collect"):
        collected = collect_logs(
            sim.true_logs,
            default_loss_spec(sim),
            args.seed + 1,
            perfect_clocks=frozenset({sim.base_station_node}),
        )
    metadata = StoreMetadata(
        sink=sim.sink,
        base_station=sim.base_station_node,
        gen_interval=params.gen_interval,
        outages=params.base_station.outages,
        extra={"n_nodes": args.nodes, "days": args.days, "seed": args.seed},
    )
    with span("simulate.write"):
        out = save_store(args.out, collected, metadata)
    total = sum(len(log_) for log_ in collected.values())
    log.info("simulate.wrote", node_logs=len(collected), events=total, out=str(out))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.code is not None:
        return _cmd_check_code(args)
    from repro.check import load_spec, run_check

    try:
        spec = load_spec(args.spec)
    except (ValueError, ImportError) as exc:
        log.error("check.bad-spec", spec=args.spec, error=str(exc))
        return 2
    registry = MetricsRegistry()
    with use_registry(registry):
        report = run_check(spec, args.logs, max_per_rule=args.max_per_rule)
    if args.json:
        print(report.to_json_str())
    else:
        print(report.render_text())
    code = report.exit_code(strict=args.strict)
    log.info(
        "check.done",
        errors=len(report.errors),
        warnings=len(report.warnings),
        infos=len(report.infos),
        exit_code=code,
    )
    return code


def _cmd_check_code(args: argparse.Namespace) -> int:
    """``refill check --code [paths]``: the CC0xx source analyzer."""
    from repro.check.code import check_code

    paths = args.code or ["src/repro"]
    registry = MetricsRegistry()
    try:
        with use_registry(registry):
            report = check_code(paths, max_per_rule=args.max_per_rule)
    except ValueError as exc:
        log.error("check.code.bad-path", error=str(exc))
        return 2
    if args.json:
        print(report.to_json_str())
    else:
        print(report.render_text())
    code = report.exit_code(strict=args.strict)
    log.info(
        "check.done",
        errors=len(report.errors),
        warnings=len(report.warnings),
        infos=len(report.infos),
        exit_code=code,
    )
    return code


def _cmd_learn(args: argparse.Namespace) -> int:
    """``refill learn``: infer a deployment spec from a log store."""
    from repro.learn import ExtractionOptions, learn_from_store
    from repro.learn.spec import save_learned_spec

    with span("learn.load"):
        loaded = _open_store("learn", args.logs)
    if loaded is None:
        return 2
    log.info(
        "learn.store-loaded",
        logs=args.logs,
        node_logs=len(loaded.logs),
        corrupt_lines=sum(loaded.corrupt_lines.values()),
    )
    options = ExtractionOptions(
        filter_corrupt_nodes=not args.keep_corrupt,
        min_trace_support=args.min_trace_support,
    )
    try:
        with span("learn.mine"):
            spec = learn_from_store(
                loaded,
                k=args.k,
                min_support=args.min_support,
                name=args.name,
                options=options,
            )
    except ValueError as exc:
        log.error("learn.failed", error=str(exc))
        return 2
    save_learned_spec(spec, args.out)
    stats = dict(spec.stats)
    print(
        f"learned {len(spec.states)} states, {len(spec.transitions)} "
        f"transitions, {len(spec.prereqs)} prerequisite rules"
    )
    for rule in spec.prereqs:
        alts = f" (alt {', '.join(rule.alt_states)})" if rule.alt_states else ""
        print(
            f"  {rule.label:<12} requires peer[{rule.peer}] at {rule.state}"
            f"{alts}  [{rule.supported}/{rule.observations}]"
        )
    print(
        f"corpus: {stats.get('packets', 0)} packets, "
        f"{stats.get('traces', 0)} traces "
        f"({stats.get('dropped_traces', 0)} dropped), "
        f"{stats.get('unique_sequences', 0)} unique sequences"
    )
    print(f"wrote {args.out}")
    log.info(
        "learn.done",
        states=len(spec.states),
        transitions=len(spec.transitions),
        prereqs=len(spec.prereqs),
        out=args.out,
    )
    return 0


def _preflight_analyze(spec) -> bool:
    """Pre-flight gate for ``refill analyze``: abort on *model* errors.

    A broken template would silently corrupt every reconstructed flow, so
    it fails fast, before any shard is read.  The corpus half of the check
    rides the store load instead (:func:`_report_corpus`).
    """
    from repro.check import run_check
    from repro.check.runner import model_errors

    with span("analyze.preflight"):
        report = run_check(spec)
    errors = model_errors(report)
    for finding in errors:
        log.error("analyze.preflight.model-error", finding=finding.format())
    return not errors


def _report_corpus(findings, stats) -> None:
    """Count the corpus lint; its errors only warn (field data is dirty)."""
    from repro.check import Severity
    from repro.check.runner import record_corpus

    record_corpus(findings, stats)
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    if errors:
        log.warning("analyze.preflight.corpus-findings", errors=errors)


def _analyze_template(args: argparse.Namespace):
    """Resolve ``analyze --spec`` to ``(deployment_spec, template)``.

    The inference session drives a single template, so the spec must be
    uniform-role (the built-in ``ctp`` default and every learned spec are).
    The default spec resolves to ``template=None`` so the session keeps its
    module-level factory — required by ``--backend process``, which pickles
    the factory by reference into workers.
    """
    from repro.check import load_spec

    spec = load_spec(args.spec)
    if args.spec == "ctp":
        return spec, None
    if len(spec.roles) != 1:
        raise ValueError(
            f"spec {args.spec!r} has {len(spec.roles)} roles; "
            "refill analyze needs a uniform-role spec"
        )
    (template,) = spec.roles.values()
    return spec, template


def _cmd_analyze(args: argparse.Namespace) -> int:
    """``refill analyze`` with automatic cyclic garbage collection paused.

    Load, reconstruct, diagnose and encode build no reference cycles, so
    reference counting frees all they drop; the cyclic collector would only
    rescan a heap that grows with the store (0.15-0.30 s a run on the
    120-node bench store).  The caller's collector state comes back on the
    way out.  ``refill serve`` keeps its collector (see ARCHITECTURE.md).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _analyze(args)
    finally:
        if collecting:
            gc.enable()


def _analyze(args: argparse.Namespace) -> int:
    from repro.check.corpus import CorpusLint

    registry = MetricsRegistry()
    try:
        spec, template = _analyze_template(args)
    except (ValueError, ImportError, OSError) as exc:
        log.error("analyze.bad-spec", spec=args.spec, error=str(exc))
        return 2
    with use_registry(registry):
        if not args.no_check and not _preflight_analyze(spec):
            log.error("analyze.preflight-failed", hint="rerun with --no-check to force")
            return 1
        with span("analyze"):
            lint = None if args.no_check else CorpusLint(spec)
            with span("analyze.load"):
                loaded = _open_store(
                    "analyze", args.logs, tap=lint.tap if lint is not None else None
                )
            if loaded is None:
                return 2
            if lint is not None:
                _report_corpus(*lint.result())
            log.debug(
                "analyze.store-loaded",
                logs=args.logs,
                node_logs=len(loaded.logs),
                corrupt_lines=sum(loaded.corrupt_lines.values()),
            )
            registry.counter("analyze.events.parsed").inc(loaded.total_events)
            log.info(
                "analyze.reconstructing",
                node_logs=len(loaded.logs),
                events=loaded.total_events,
                backend=args.backend,
            )
            flows, reports, _est = _diagnose_store(
                loaded,
                template=template,
                backend_name=args.backend,
                workers=args.workers,
            )
            _report_corrupt_lines(registry, loaded.corrupt_lines)
        lost = sum(1 for r in reports.values() if r.lost)
        print(f"{len(flows)} packets reconstructed, {lost} diagnosed as lost\n")
        print(render_cause_shares(cause_shares(reports)))
        split = sink_split(reports, loaded.metadata.sink)
        print()
        for key, value in split.items():
            print(f"  {key:<16} {value:5.1f}%")
        if args.flows_out:
            from repro.core.serialize import flows_document_parts

            # the encode_flows document written a flow at a time, never held whole
            with span("analyze.encode"), pathlib.Path(args.flows_out).open("w") as out:
                out.writelines(flows_document_parts(flows))
                out.write("\n")
            log.info("analyze.flows-written", path=args.flows_out)
    if args.metrics_out:
        snapshot = registry.snapshot()
        pathlib.Path(args.metrics_out).write_text(snapshot.to_json_str() + "\n")
        log.info("analyze.metrics-written", path=args.metrics_out)
    if args.profile:
        print(_render_profile(registry.snapshot()), file=sys.stderr)
    return 0


def _open_store(command: str, logs, tap: Optional[ShardTap] = None):
    """``load_store(logs, tap=tap)``, or ``None`` after one
    ``<command>.bad-store`` error."""
    try:
        return load_store(logs, tap=tap)
    except ValueError as exc:
        log.error(f"{command}.bad-store", logs=str(logs), error=str(exc))
        return None


def _report_corrupt_lines(registry: MetricsRegistry, corrupt_lines) -> None:
    for node, bad in sorted(corrupt_lines.items()):
        registry.counter("codec.corrupt_lines", node=node).inc(bad)
    if corrupt_lines:
        log.warning(
            "analyze.corrupt-lines",
            skipped=sum(corrupt_lines.values()),
            nodes=len(corrupt_lines),
        )


def _diagnose_store(
    store,
    *,
    template=None,
    backend_name: str = IncrementalBackend.name,
    workers: Optional[int] = None,
):
    """Shared reconstruct + diagnose over a loaded store.

    Every door goes through one :class:`ReconstructionSession`; where its
    refresh runs is the only variable.  ``store`` is a
    :class:`~repro.events.store.LoadedStore`.  ``template`` overrides the
    inference model (``analyze --spec``); ``None`` keeps the hand-written
    CTP forwarder default.
    """
    meta = store.metadata
    bs = meta.base_station
    bs_log = store.logs.get(bs, NodeLog(bs))
    session = ReconstructionSession(
        template,
        backend=make_backend(backend_name, workers=workers),
        delivery_node=bs,
    )
    with span("analyze.reconstruct"):
        flows = session.reconstruct(store.logs)
    with span("analyze.diagnose"):
        reports = session.diagnose(flows)
        bs_arrivals = [
            (e.packet, e.time)
            for e in bs_log
            if e.etype == "recv" and e.packet is not None
        ]
        sink_view = SinkView(bs_arrivals, meta.gen_interval)
        est = {p: sink_view.estimate_loss_time(p) for p in reports}
        reports = attribute_server_outages(
            reports, est, outages=meta.outages, sink=meta.sink, base_station=bs
        )
    return flows, reports, est


def _render_profile(snapshot: MetricsSnapshot) -> str:
    """Per-stage wall-time table from the run's span histograms."""
    rows = [
        f"{'stage':<28} {'calls':>8} {'total_s':>9} {'p50_ms':>9} "
        f"{'p95_ms':>9} {'max_ms':>9}"
    ]
    def ms(v):
        return f"{v * 1000.0:9.2f}" if v is not None else f"{'-':>9}"

    for name in sorted(snapshot.histograms):
        if not name.startswith("span."):
            continue
        h = snapshot.histograms[name]
        rows.append(
            f"{name[len('span.'):]:<28} {h.count:>8} {h.total:9.3f} "
            f"{ms(h.p50)} {ms(h.p95)} {ms(h.max)}"
        )
    return "\n".join(rows)


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.temporal import loss_scatter
    from repro.vis.figures import render_scatter_svg

    store = _open_store("figures", args.logs)
    if store is None:
        return 2
    log.info("figures.reconstructing", node_logs=len(store.logs))
    _flows, reports, est = _diagnose_store(store)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sources = loss_scatter(reports, est, axis="source")
    positions = loss_scatter(reports, est, axis="position")
    (out / "fig4_sink_view.svg").write_text(
        render_scatter_svg(
            sources,
            title="Fig. 4 — sink view of lost packets",
            y_label="source node id",
        )
    )
    (out / "fig5_loss_positions.svg").write_text(
        render_scatter_svg(
            positions,
            title="Fig. 5 — causes for lost packets (REFILL)",
            y_label="loss position (node id)",
        )
    )
    log.info("figures.wrote", what="fig4/fig5 SVGs", out=str(out))
    return 0


def _cmd_stress(args: argparse.Namespace) -> int:
    from repro.stress import CampaignConfig, OracleConfig, replay, run_campaign

    registry = MetricsRegistry()
    if args.replay:
        with use_registry(registry):
            result = replay(args.replay)
        if args.json:
            print(json.dumps(
                {
                    "expect": sorted(result.reproducer.expect),
                    "violated": result.violated,
                    "matches_expectation": result.matches_expectation,
                    "report": result.report.to_json(),
                },
                indent=2,
            ))
        else:
            print(result.report.render_text())
            print(
                f"expected {','.join(sorted(result.reproducer.expect)) or '-'}; "
                f"violated {','.join(result.violated) or '-'}"
                + ("" if result.matches_expectation else "  [VERDICT CHANGED]")
            )
        code = result.exit_code()
        log.info(
            "stress.replay.done",
            reproducer=args.replay,
            violated=",".join(result.violated) or "-",
            matches=result.matches_expectation,
            exit_code=code,
        )
        return code

    config = CampaignConfig(
        seed=args.seed,
        cases=args.cases,
        nodes=args.nodes,
        days=args.days,
        packets_per_node_per_day=args.packets_per_day,
        profile=args.faults,
        shrink=not args.no_shrink,
        oracle=OracleConfig(),
    )
    with use_registry(registry):
        result = run_campaign(config, args.out)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.render_text())
    code = result.exit_code()
    log.info(
        "stress.campaign.done",
        cases=len(result.cases),
        violations=len(result.report.findings),
        out=args.out,
        exit_code=code,
    )
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import RefillServer, ServeConfig

    try:
        config = ServeConfig(
            store=args.logs,
            host=args.host,
            port=args.port,
            unix_socket=args.unix_socket,
            http_host=args.http_host,
            http_port=args.http_port,
            checkpoint_path=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval,
            flush_interval=args.flush_interval,
            ingest_queue_batches=args.queue_batches,
            ingest_batch_lines=args.batch_lines,
            tail=tuple(args.tail or ()),
            tail_interval=args.tail_interval,
            delivery_node=args.delivery_node,
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
            trace_capacity=args.trace_capacity,
            shards=args.shards,
        )
        server = RefillServer(config)
        server.restore()
    except ValueError as exc:
        # bad flags, or a checkpoint this daemon must not resume from
        log.error("serve.bad-input", error=str(exc))
        return 2

    def _ready(running) -> None:
        if args.print_ports:
            # machine-readable startup handshake for scripts and CI: one
            # flushed JSON object per listener (parse with
            # repro.serve.runner.read_printed_ports)
            for entry in running.listeners():
                print(json.dumps(entry, sort_keys=True), flush=True)

    return server.run(ready=_ready)


def _cmd_push(args: argparse.Namespace) -> int:
    from repro.serve.client import push_store

    results = push_store(
        args.logs,
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        source_prefix=args.source_prefix,
        workers=args.workers,
    )
    sent = sum(r.sent for r in results.values())
    skipped = sum(r.skipped for r in results.values())
    print(f"{len(results)} sources, {sent} lines sent, {skipped} skipped")
    log.info("push.done", sources=len(results), sent=sent, skipped=skipped)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.tracing import trace_packet

    store = _open_store("trace", args.logs)
    if store is None:
        return 2
    packet = PacketKey.parse(args.packet)
    # the diagnosis refill analyze counts, server-outage attribution included
    flows, reports, _est = _diagnose_store(store)
    flow = flows.get(packet)
    if flow is None:
        log.error("trace.packet-not-found", packet=str(packet))
        return 1
    report = reports[packet]
    trace = trace_packet(flow)
    print(f"packet {packet}")
    print(f"  flow:      {flow.format()}")
    print(f"  path:      {trace.path_string()}")
    print(f"  diagnosis: {report.cause} at node {report.position}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="store_true",
        help="debug-level progress narration on stderr",
    )
    common.add_argument(
        "-q", "--quiet", action="store_true",
        help="errors only on stderr (stdout results unaffected)",
    )
    common.add_argument(
        "--log-json", action="store_true",
        help="emit stderr narration as JSON lines instead of key=value",
    )

    parser = argparse.ArgumentParser(prog="refill", description=__doc__)
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", parents=[common],
        help="simulate a CitySee-like network, write logs",
    )
    p_sim.add_argument("--nodes", type=int, default=100)
    p_sim.add_argument("--days", type=int, default=5)
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--out", default="citysee-logs")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_chk = sub.add_parser(
        "check", parents=[common],
        help="static-analyze a deployment's templates, log corpus, or code",
    )
    p_chk.add_argument(
        "--logs", default=None, metavar="DIR",
        help="log store to lint (omit to check templates only)",
    )
    p_chk.add_argument(
        "--code", nargs="*", default=None, metavar="PATH",
        help="run the CC0xx concurrency & determinism analyzer over Python "
             "sources instead of a deployment (default path: src/repro)",
    )
    p_chk.add_argument(
        "--spec", default="ctp",
        help="deployment spec: a built-in name (ctp, ctp-nogen, "
             "dissemination, query-flood), a learned-spec *.json path, "
             "or module:attribute",
    )
    p_chk.add_argument(
        "--json", action="store_true",
        help="emit the findings report as JSON on stdout",
    )
    p_chk.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )
    p_chk.add_argument(
        "--max-per-rule", type=int, default=8, metavar="N",
        help="cap findings per (rule, file) pair; 0 disables the cap",
    )
    p_chk.set_defaults(fn=_cmd_check)

    p_lrn = sub.add_parser(
        "learn", parents=[common],
        help="infer FSM templates and prerequisite rules from a log store",
    )
    p_lrn.add_argument(
        "logs", metavar="DIR",
        help="log store to learn from (as written by refill simulate)",
    )
    p_lrn.add_argument(
        "--out", default="learned.json", metavar="FILE",
        help="serialized spec output (canonical JSON, byte-deterministic)",
    )
    p_lrn.add_argument(
        "--k", type=int, default=2, metavar="K",
        help="k-tails future horizon (larger = less merging, bigger FSM)",
    )
    p_lrn.add_argument(
        "--min-support", type=float, default=0.9, metavar="S",
        help="minimum supported fraction for a mined prerequisite rule",
    )
    p_lrn.add_argument(
        "--min-trace-support", type=int, default=1, metavar="N",
        help="unique label sequences seen fewer than N times are excluded "
             "from FSM training (lossy-corpus noise floor)",
    )
    p_lrn.add_argument(
        "--keep-corrupt", action="store_true",
        help="train on traces from nodes with undecodable log lines too",
    )
    p_lrn.add_argument(
        "--name", default="learned",
        help="role/template name recorded in the spec",
    )
    p_lrn.set_defaults(fn=_cmd_learn)

    p_an = sub.add_parser(
        "analyze", parents=[common],
        help="reconstruct + diagnose a log directory",
    )
    p_an.add_argument("--logs", default="citysee-logs")
    p_an.add_argument(
        "--spec", default="ctp",
        help="inference model: a built-in spec name or a learned-spec "
             "*.json path (refill learn output); must be uniform-role",
    )
    p_an.add_argument(
        "--no-check", action="store_true",
        help="skip the pre-flight static analysis gate",
    )
    p_an.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the run's metrics snapshot as JSON",
    )
    p_an.add_argument(
        "--flows-out", default=None, metavar="FILE",
        help="write every reconstructed flow as canonical JSON (the same "
             "bytes a `refill serve` daemon returns from GET /flows)",
    )
    p_an.add_argument(
        "--profile", action="store_true",
        help="print a per-stage wall-time table to stderr",
    )
    p_an.add_argument(
        "--backend", choices=sorted(BACKENDS), default=IncrementalBackend.name,
        help="where reconstruction runs: in-process (incremental, the "
             "default) or in a worker pool (process)",
    )
    p_an.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --backend process (default: cpu count)",
    )
    p_an.set_defaults(fn=_cmd_analyze)

    p_st = sub.add_parser(
        "stress", parents=[common],
        help="run a seeded fault-injection campaign with ground-truth "
             "oracles (or replay a reproducer)",
    )
    p_st.add_argument("--seed", type=int, default=7)
    p_st.add_argument(
        "--cases", type=int, default=5, metavar="N",
        help="fault-injection cases to run (default: 5)",
    )
    p_st.add_argument("--nodes", type=int, default=25)
    p_st.add_argument("--days", type=int, default=1)
    p_st.add_argument(
        "--packets-per-day", type=float, default=12.0, metavar="P",
        help="packets per node per day in the simulated deployment",
    )
    p_st.add_argument(
        "--faults", choices=["clean", "mild", "harsh"], default="mild",
        help="fault-operator pool to sample case plans from",
    )
    p_st.add_argument(
        "--out", default="stress-out", metavar="DIR",
        help="campaign workspace (case stores, reproducers)",
    )
    p_st.add_argument(
        "--json", action="store_true",
        help="emit the campaign report as JSON on stdout",
    )
    p_st.add_argument(
        "--no-shrink", action="store_true",
        help="skip ddmin minimization of failing cases",
    )
    p_st.add_argument(
        "--replay", default=None, metavar="DIR",
        help="replay a reproducer directory instead of running a campaign; "
             "exits non-zero iff oracle violations remain",
    )
    p_st.set_defaults(fn=_cmd_stress)

    p_srv = sub.add_parser(
        "serve", parents=[common],
        help="run the long-lived reconstruction daemon (ingest + queries)",
    )
    p_srv.add_argument(
        "--logs", default=None, metavar="DIR",
        help="store directory: supplies deployment metadata (shards are NOT "
             "preloaded, and nothing is written there)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=7442,
        help="TCP ingest port (0: OS-assigned; see --print-ports)",
    )
    p_srv.add_argument(
        "--unix-socket", default=None, metavar="PATH",
        help="additionally listen for ingest on a unix socket",
    )
    p_srv.add_argument("--http-host", default="127.0.0.1")
    p_srv.add_argument(
        "--http-port", type=int, default=7443,
        help="HTTP/JSON query port (0: OS-assigned)",
    )
    p_srv.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="checkpoint manifest; shard files sit next to it "
             "(default: no checkpoints)",
    )
    p_srv.add_argument(
        "--checkpoint-interval", type=float, default=30.0, metavar="SECS",
        help="periodic checkpoint cadence; 0 = only on demand/shutdown",
    )
    p_srv.add_argument(
        "--flush-interval", type=float, default=0.5, metavar="SECS",
        help="idle gap after which dirty flows are refreshed",
    )
    p_srv.add_argument(
        "--queue-batches", type=int, default=64, metavar="N",
        help="bounded ingest queue depth; a full queue throttles producers",
    )
    p_srv.add_argument(
        "--batch-lines", type=int, default=512, metavar="N",
        help="max lines per queued ingest batch",
    )
    p_srv.add_argument(
        "--tail", action="append", default=None, metavar="FILE",
        help="also tail FILE for newly completed lines (repeatable)",
    )
    p_srv.add_argument(
        "--tail-interval", type=float, default=0.25, metavar="SECS",
    )
    p_srv.add_argument(
        "--delivery-node", type=int, default=None, metavar="NODE",
        help="override the store metadata's base-station id",
    )
    p_srv.add_argument(
        "--print-ports", action="store_true",
        help="print each bound listener as its own flushed JSON line on "
             "stdout at startup (one object per listener, incl. per-shard "
             "listeners with --shards > 1)",
    )
    p_srv.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shards: 1 = state in the daemon's process (default); N > 1 = "
             "N subprocess workers partitioned by packet key; byte-identical "
             "output and the same checkpoint format either way",
    )
    p_srv.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the final metrics snapshot on graceful shutdown "
             "(same JSON contract as `refill analyze --metrics-out`)",
    )
    p_srv.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="dump the flight recorder as JSON Lines on graceful shutdown",
    )
    p_srv.add_argument(
        "--trace-capacity", type=int, default=1024, metavar="N",
        help="flight-recorder ring size (recent spans/events retained)",
    )
    p_srv.set_defaults(fn=_cmd_serve)

    p_push = sub.add_parser(
        "push", parents=[common],
        help="push a store's shards to a running refill serve daemon",
    )
    p_push.add_argument("--logs", default="citysee-logs")
    p_push.add_argument("--host", default="127.0.0.1")
    p_push.add_argument("--port", type=int, default=7442)
    p_push.add_argument(
        "--unix-socket", default=None, metavar="PATH",
        help="connect over a unix socket instead of TCP",
    )
    p_push.add_argument(
        "--source-prefix", default="", metavar="PREFIX",
        help="prepended to each shard's source name (disambiguates stores)",
    )
    p_push.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="push up to N sources concurrently (per-source ordering is "
             "preserved per connection, so results are identical)",
    )
    p_push.set_defaults(fn=_cmd_push)

    p_tr = sub.add_parser(
        "trace", parents=[common],
        help="print one packet's reconstructed flow",
    )
    p_tr.add_argument("--logs", default="citysee-logs")
    p_tr.add_argument("packet", help="packet key, e.g. p17.3")
    p_tr.set_defaults(fn=_cmd_trace)

    p_fig = sub.add_parser(
        "figures", parents=[common],
        help="render loss-scatter figures as SVG",
    )
    p_fig.add_argument("--logs", default="citysee-logs")
    p_fig.add_argument("--out", default="figures")
    p_fig.set_defaults(fn=_cmd_figures)
    return parser


class _VersionAction(argparse.Action):
    """``--version``: print ``refill <version>`` and exit.  The version is
    looked up only here, because :mod:`importlib.metadata` costs every
    other command tens of milliseconds of imports and a ``sys.path`` scan."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS, **kwargs) -> None:
        super().__init__(
            option_strings, dest, nargs=0, default=argparse.SUPPRESS,
            help="show program's version number and exit", **kwargs,
        )

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        print(f"{parser.prog} {_version_string()}")
        parser.exit()


def _version_string() -> str:
    """Installed distribution version, falling back to the source tree's.

    The fallback matters because the test suite (and ``PYTHONPATH=src``
    users) run the package without installing it.
    """
    from importlib import metadata

    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        from repro import __version__

        return __version__


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    level = INFO
    if getattr(args, "verbose", False):
        level = DEBUG
    if getattr(args, "quiet", False):
        level = ERROR
    configure_logging(level, json_lines=getattr(args, "log_json", False))
    try:
        return args.fn(args)
    except BrokenPipeError:
        # `refill analyze | head`: the reader closed stdout mid-print.  Die
        # quietly like a well-behaved filter — point the stdout fd at
        # /dev/null so the interpreter's exit-time flush cannot raise (and
        # print a noisy "Exception ignored" traceback), and exit 141
        # (128 + SIGPIPE), the conventional pipe-death status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # stdout already closed or not a real fd
        finally:
            os.close(devnull)
        return 141


if __name__ == "__main__":  # pragma: no cover - exercised via tests/cli
    raise SystemExit(main())
