"""Perf-regression gate over committed ``BENCH_*.json`` baselines.

The repo commits performance baselines (``BENCH_serve.json``,
``BENCH_backends.json``) and, under ``benchmarks/baselines/``, the previous
PR's copies.  This module diffs two such snapshots metric by metric against
per-metric thresholds and keeps the **trajectory** — one JSON-Lines file per
bench under ``benchmarks/history/`` recording every accepted change with a
human note attributing it.

Two subcommands::

    python benchmarks/bench_history.py compare BASELINE CURRENT [--bench b]
    python benchmarks/bench_history.py record  BASELINE CURRENT --note "..."

``compare`` exits 1 when any gated metric regressed past its threshold —
the CI gate: an *unattributed* regression (current snapshot worse than the
committed baseline, no recorded note) fails the build.  ``record`` appends
a trajectory entry (deltas + note) and is how a regression is attributed:
land the note and refresh the baseline in the same commit, and ``compare``
is green again.

Thresholds are deliberately loose (30-60% relative) because the committed
numbers come from whatever machine cut the PR; the gate exists to catch
"ingest got 2x slower and nobody said why", not 5% jitter.  Tight bounds
live in the benchmarks' own assertions, which always run on one machine.

Snapshots are schema-stamped (``conftest.BENCH_SCHEMA``); unstamped files
are read as schema 1 — the pre-stamp format with the same metric paths —
so the gate can diff this PR's output against older baselines.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional

#: Newest snapshot schema this module understands.
SUPPORTED_SCHEMA = 2

HISTORY_DIR = pathlib.Path(__file__).parent / "history"


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: where it lives and how much drift is tolerated."""

    #: Dotted path into the snapshot, e.g. ``ingest.lines_per_s``.
    path: str
    #: ``higher`` — bigger is better (throughput); ``lower`` — smaller is
    #: better (latency).
    direction: str
    #: Relative drift in the *bad* direction that counts as a regression.
    tolerance: float

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


#: The gated metrics per bench.  Counts/corpus fields are provenance, not
#: performance — only rates and latencies are gated.
METRIC_SPECS: dict[str, tuple[MetricSpec, ...]] = {
    "serve": (
        MetricSpec("ingest.lines_per_s", "higher", 0.40),
        MetricSpec("query_seconds.flows.p95", "lower", 0.60),
        MetricSpec("query_seconds.flow.p95", "lower", 0.60),
        MetricSpec("query_seconds.summary.p95", "lower", 0.60),
    ),
    "backends": (
        MetricSpec("backends.serial.packets_per_s", "higher", 0.40),
        MetricSpec("backends.serial+stream.packets_per_s", "higher", 0.40),
    ),
    "decode": (
        MetricSpec("tokenize.lines_per_s", "higher", 0.40),
        MetricSpec("reachability.lookups_per_s", "higher", 0.40),
        MetricSpec("encode.flows_per_s", "higher", 0.40),
    ),
    "learn": (
        MetricSpec("mine.traces_per_s", "higher", 0.40),
        MetricSpec("accuracy.k2.cause_accuracy", "higher", 0.10),
    ),
}


@dataclass(frozen=True)
class Delta:
    """One metric's movement between two snapshots."""

    metric: str
    baseline: Optional[float]
    current: Optional[float]
    #: current/baseline (``None`` when either side is missing or zero).
    ratio: Optional[float]
    regressed: bool
    improved: bool

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
            "regressed": self.regressed,
            "improved": self.improved,
        }


def load_snapshot(path) -> dict:
    """Read a ``BENCH_*.json`` file, normalizing schema-less files to v1."""
    data = json.loads(pathlib.Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: snapshot must be a JSON object")
    schema = data.get("schema", 1)
    if not isinstance(schema, int) or schema < 1 or schema > SUPPORTED_SCHEMA:
        raise ValueError(f"{path}: unsupported snapshot schema {schema!r}")
    data.setdefault("schema", schema)
    return data


def metric_value(snapshot: dict, path: str) -> Optional[float]:
    """Resolve a dotted metric path; ``None`` when any hop is missing."""
    node: Any = snapshot
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def diff_metric(spec: MetricSpec, baseline: dict, current: dict) -> Delta:
    base = metric_value(baseline, spec.path)
    cur = metric_value(current, spec.path)
    if base is None or cur is None or base == 0:
        # a metric appearing or vanishing is attribution territory, not a
        # hard failure — the gate cares about measured drift
        return Delta(spec.path, base, cur, None, regressed=False, improved=False)
    ratio = cur / base
    if spec.direction == "higher":
        regressed = ratio < 1.0 - spec.tolerance
        improved = ratio > 1.0 + spec.tolerance
    else:
        regressed = ratio > 1.0 + spec.tolerance
        improved = ratio < 1.0 - spec.tolerance
    return Delta(spec.path, base, cur, ratio, regressed=regressed, improved=improved)


def diff_snapshots(
    baseline: dict, current: dict, bench: str
) -> list[Delta]:
    specs = METRIC_SPECS.get(bench)
    if specs is None:
        raise ValueError(
            f"unknown bench {bench!r} (known: {', '.join(sorted(METRIC_SPECS))})"
        )
    return [diff_metric(spec, baseline, current) for spec in specs]


def infer_bench(path, explicit: Optional[str]) -> str:
    """Bench name from ``--bench``, the snapshot stem, or its run stamp."""
    if explicit is not None:
        return explicit
    stem = pathlib.Path(path).stem
    if stem.startswith("BENCH_"):
        return stem[len("BENCH_"):]
    raise ValueError(f"cannot infer bench name from {path!r}; pass --bench")


def render_deltas(deltas: list[Delta]) -> str:
    lines = []
    for delta in deltas:
        if delta.ratio is None:
            state = "no-data"
            detail = f"baseline={delta.baseline} current={delta.current}"
        else:
            state = (
                "REGRESSED" if delta.regressed
                else "improved" if delta.improved
                else "ok"
            )
            detail = (
                f"baseline={delta.baseline:g} current={delta.current:g} "
                f"ratio={delta.ratio:.3f}"
            )
        lines.append(f"{state:>9}  {delta.metric}  {detail}")
    return "\n".join(lines)


def history_path(bench: str) -> pathlib.Path:
    return HISTORY_DIR / f"{bench}.jsonl"


def append_history(
    bench: str, deltas: list[Delta], note: str, *, path=None
) -> pathlib.Path:
    """Append one trajectory entry (the attribution record)."""
    target = pathlib.Path(path) if path is not None else history_path(bench)
    target.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "bench": bench,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "note": note,
        "deltas": [delta.to_json() for delta in deltas],
        "regressions": sum(1 for delta in deltas if delta.regressed),
        "improvements": sum(1 for delta in deltas if delta.improved),
    }
    with target.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return target


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_history", description=__doc__.split("\n", 1)[0]
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_cmp = sub.add_parser("compare", help="diff two snapshots; exit 1 on regression")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("current")
    p_cmp.add_argument("--bench", default=None)
    p_cmp.add_argument("--json", action="store_true", help="machine-readable output")

    p_rec = sub.add_parser("record", help="append an attributed trajectory entry")
    p_rec.add_argument("baseline")
    p_rec.add_argument("current")
    p_rec.add_argument("--bench", default=None)
    p_rec.add_argument("--note", required=True, help="what explains the deltas")
    p_rec.add_argument("--history", default=None, metavar="FILE")

    args = parser.parse_args(argv)
    bench = infer_bench(args.current, args.bench)
    deltas = diff_snapshots(
        load_snapshot(args.baseline), load_snapshot(args.current), bench
    )

    if args.cmd == "compare":
        if args.json:
            print(json.dumps([d.to_json() for d in deltas], sort_keys=True))
        else:
            print(render_deltas(deltas))
        regressions = [d for d in deltas if d.regressed]
        if regressions:
            print(
                f"\n{len(regressions)} unattributed regression(s) vs {args.baseline};"
                " attribute with `bench_history.py record --note ...` and refresh"
                " the baseline",
                file=sys.stderr,
            )
            return 1
        return 0

    target = append_history(bench, deltas, args.note, path=args.history)
    print(render_deltas(deltas))
    print(f"\nrecorded -> {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
