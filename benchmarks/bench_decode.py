"""S3 — the decode→inference hot path in isolation.

Two microbenchmarks under the end-to-end serve numbers:

- **Tokenizer throughput** — lines/s of the tolerant scanner over raw
  bytes (``scan_log_text(decode_text(...))``, the store loader's route) on
  a rendered 50-node corpus, against the token-loop reference scanner
  (no intern tables, no packet cache) on identical input.  This is the
  pure parse cost every door pays per line, with the network and the
  session out of the picture.
- **Reachability lookups** — inference-path queries/s through the
  compiled jump tables (:class:`CompiledReachability`) against fresh
  BFS walks, over the forwarder template's graph with the full admissible
  mask.  This is the query mix the transition algorithm issues while
  reconstructing.

Both legacy comparators are the test oracles in ``tests/events/oracle.py``
and ``tests/fsm/oracle.py``.

The run writes ``BENCH_decode.json`` at the repo root (schema-stamped like
``BENCH_serve.json``); ``bench_history.py`` gates its rates so a tokenizer
or jump-table regression needs an attributed trajectory entry to land.
"""

import json
import os
import pathlib
import time

from repro.analysis.pipeline import default_loss_spec, run_simulation
from repro.events.codec import decode_text, encode_event, scan_log_text
from repro.fsm.templates import forwarder_template
from repro.lognet.collector import collect_logs
from repro.simnet.scenarios import citysee
from repro.util.tables import render_table

from benchmarks.conftest import BENCH_SCHEMA, bench_seed, run_metadata
from tests.events.oracle import scan_log_text_legacy
from tests.fsm.oracle import Reachability

BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_decode.json"

N_NODES = 50
ROUNDS = 5


def _corpus_bytes() -> tuple[bytes, int]:
    """The serve corpus rendered to one wire buffer (node order)."""
    params = citysee(n_nodes=N_NODES, days=2, seed=bench_seed("decode", 17))
    sim = run_simulation(params)
    logs = collect_logs(
        sim.true_logs,
        default_loss_spec(sim),
        seed=9,
        perfect_clocks=frozenset({sim.base_station_node}),
    )
    lines = [
        encode_event(event) for node in sorted(logs) for event in logs[node]
    ]
    return ("\n".join(lines) + "\n").encode("utf-8"), len(lines)


def _best_of(fn, rounds=ROUNDS):
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def test_decode_and_reachability_throughput(emit):
    data, n_lines = _corpus_bytes()

    fast_s, fast_events = _best_of(
        lambda: sum(1 for _ in scan_log_text(decode_text(data)))
    )
    legacy_s, legacy_events = _best_of(
        lambda: sum(1 for _ in scan_log_text_legacy(decode_text(data)))
    )
    assert fast_events == legacy_events  # same corpus, same accept set

    template = forwarder_template()
    compiled = template.compiled
    graph = compiled.graph
    reach = Reachability(graph)
    mask = compiled.full_mask
    states = graph.states
    index = compiled.index
    #: The transition algorithm's query mix: every (src, dst) path and
    #: every (src, dst, label) via-event path.
    pairs = [(a, b) for a in states for b in states]
    labels = tuple(graph.events)

    def compiled_lookups():
        n = 0
        for a, b in pairs:
            compiled.path(index[a], index[b], mask)
            n += 1
            for label in labels:
                compiled.path_via_event(index[a], index[b], label, mask)
                n += 1
        return n

    def legacy_walks():
        n = 0
        for a, b in pairs:
            reach.shortest_path(a, b)
            n += 1
            for label in labels:
                reach.shortest_path_via_event(a, b, label)
                n += 1
        return n

    # warm the jump-table tree cache once, as a session would
    compiled_lookups()
    queries = compiled_lookups()
    compiled_s, _ = _best_of(compiled_lookups)
    legacy_walk_s, _ = _best_of(legacy_walks)

    fast_rate = n_lines / fast_s
    legacy_rate = n_lines / legacy_s
    compiled_rate = queries / compiled_s
    legacy_walk_rate = queries / legacy_walk_s

    emit(
        "bench_decode",
        render_table(
            ["operation", "n", "best_s", "per_s"],
            [
                ("tokenize (codec)", n_lines, f"{fast_s:.4f}", int(fast_rate)),
                ("tokenize (oracle)", n_lines, f"{legacy_s:.4f}", int(legacy_rate)),
                ("reach lookup (compiled)", queries, f"{compiled_s:.4f}", int(compiled_rate)),
                ("reach lookup (legacy)", queries, f"{legacy_walk_s:.4f}", int(legacy_walk_rate)),
            ],
            title=f"S3 — decode→inference microbenchmarks, {N_NODES}-node corpus (best of {ROUNDS})",
        ),
    )

    corpus = {"n_nodes": N_NODES, "days": 2, "lines": n_lines}
    baseline = {
        "schema": BENCH_SCHEMA,
        "run": run_metadata(
            "decode",
            seed=bench_seed("decode", 17),
            corpus=corpus,
            cores=os.cpu_count(),
        ),
        "corpus": corpus,
        "tokenize": {
            "lines_per_s": round(fast_rate, 1),
            "legacy_lines_per_s": round(legacy_rate, 1),
            "speedup": round(fast_rate / legacy_rate, 2),
        },
        "reachability": {
            "lookups_per_s": round(compiled_rate, 1),
            "legacy_walks_per_s": round(legacy_walk_rate, 1),
            "speedup": round(compiled_rate / legacy_walk_rate, 2),
        },
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")

    # generous floors — the gate for real drift is bench_history's
    assert fast_rate > 20_000
    assert compiled_rate > 20_000
    # the interning decoder and the jump tables must beat their references
    assert fast_rate > legacy_rate
    assert compiled_rate > legacy_walk_rate
