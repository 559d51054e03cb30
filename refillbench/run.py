"""REFILL benchmark runner: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 refillbench/run.py --workload analyze-batch --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``refillbench/METRICS.md``).  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a human-readable report with the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: End-to-end metrics and their units (every workload prints all of them).
E2E_UNITS = {
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "rss_peak_mb": "MB",
    "flows_p50_ms": "ms",
    "flows_p95_ms": "ms",
    "flow_p50_ms": "ms",
    "flow_p99_ms": "ms",
    "summary_p95_ms": "ms",
    "drain_s": "s",
    "cause_accuracy": "ratio",
    "event_recall": "ratio",
}

#: Per-layer metrics and their units; 0 where a workload skips the layer.
LAYER_UNITS = {
    "simnet.simulate_s": "s",
    "serve.daemon.start_s": "s",
    "events.store.load_s": "s",
    "events.codec.scan_s": "s",
    "events.store.lines": "count",
    "events.store.corrupt_lines": "count",
    "events.merge.group_s": "s",
    "events.merge.packets": "count",
    "check.preflight_s": "s",
    "core.session.reconstruct_s": "s",
    "core.session.ingest_s": "s",
    "core.session.refresh_s": "s",
    "core.session.refresh_calls": "count",
    "core.session.refresh_packets": "count",
    "core.session.refresh_amplification": "ratio",
    "core.session.logged_events": "count",
    "core.session.inferred_events": "count",
    "core.diagnosis.diagnose_s": "s",
    "analysis.attribute_s": "s",
    "core.serialize.flows_s": "s",
    "core.serialize.flows_bytes": "bytes",
    "core.session.export_state_s": "s",
    "core.backends.process_speedup": "ratio",
    "serve.client.push_s": "s",
    "serve.client.connections": "count",
    "serve.ready_wait_s": "s",
    "serve.http.flows_final_s": "s",
    "serve.http.checkpoint_ms": "ms",
    "serve.checkpoint.bytes": "bytes",
    "serve.span.decode_s": "s",
    "serve.span.ingest_batch_s": "s",
    "serve.span.refresh_s": "s",
    "serve.span.refresh_count": "count",
    "serve.span.checkpoint_s": "s",
    "serve.queue.wait_p95_s": "s",
    "serve.refill_packets": "count",
    "analyze.wall_s": "s",
    "analyze.unattributed_s": "s",
    "serve.wall_s": "s",
    "serve.unattributed_s": "s",
    "bench.generator.late_max_s": "s",
    "bench.query.requests": "count",
    "bench.trace_overhead": "ratio",
    "bench.output_mismatches": "count",
    "bench.error_rate": "ratio",
}

#: The in-process analyze ledger must close to within this share of its wall.
LEDGER_CLOSURE = 0.05


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.root = ROOT
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {name: 0 for name in LAYER_UNITS}
        self.samples: dict[str, int] = {}
        self.meta: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_mismatches = 0
        self.rss_mb = 0.0
        self.notes: list[str] = []
        self._daemons: list = []

    def op(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a failed one is remembered."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def compare(self, what: str, got: bytes, want: bytes) -> None:
        """Byte-compare a door's flows with the in-process reference."""
        from refillbench.oracle import mismatches

        bad = mismatches(got, want)
        self.output_mismatches = max(self.output_mismatches, bad)
        self.op(bad == 0, f"{what}: {bad} packets differ from the in-process reference")

    def daemon(self, store, tag: str):
        from refillbench.procs import Daemon

        daemon = Daemon(self.root, self.work, store, tag)
        self._daemons.append(daemon)
        return daemon

    def ledger(self, door: str, wall: float, unattributed: float) -> None:
        share = unattributed / wall if wall else 0.0
        line = (
            f"ledger {door}: wall {wall:.4f} s = named layers "
            f"{wall - unattributed:.4f} s + unattributed {unattributed:.4f} s "
            f"({share:.1%})"
        )
        if door == "analyze":
            closes = abs(share) <= LEDGER_CLOSURE
            line += "  closes within 5%: " + ("yes" if closes else "NO")
            self.op(closes, f"analyze ledger leaves {share:.1%} of its wall unattributed")
        self.notes.append(line)

    def stop_daemons(self) -> None:
        for daemon in self._daemons:
            try:
                daemon.stop()
            except OSError:
                pass


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _report(run: Run, metrics: dict) -> None:
    from refillbench.workloads import nproc

    meta = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        **run.meta,
        "samples": run.samples,
    }
    print(f"run {json.dumps(meta, sort_keys=True)}")
    for name, entry in metrics.items():
        print(f"  {name:<36} {entry['value']:>18.6g} {entry['unit']}")
    for note in run.notes:
        print(note)
    print(f"output_mismatches {run.output_mismatches}")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"error_rate {rate:.6f} ({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print("correctness: " + ("PASS" if run.failed == 0 else "FAIL"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from refillbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    # serve-mixed's reader and writer threads share this interpreter; the
    # default 5 ms switch interval would add up to 5 ms of lock hand-off to
    # latencies the reader measures in milliseconds
    sys.setswitchinterval(0.0005)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload](run)
    except Exception:  # noqa: BLE001 - report, keep the work dir, print no result
        traceback.print_exc()
        print(f"work directory kept: {run.work}", file=sys.stderr)
        return 1
    finally:
        run.stop_daemons()

    run.layer["bench.output_mismatches"] = run.output_mismatches
    run.layer["bench.error_rate"] = run.failed / run.attempted if run.attempted else 1.0
    units = LAYER_UNITS if run.trace else E2E_UNITS
    values = run.layer if run.trace else run.e2e
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"workload left metrics unset: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    _report(run, metrics)
    if run.failed == 0:
        shutil.rmtree(run.work, ignore_errors=True)
    else:
        print(f"work directory kept: {run.work}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
