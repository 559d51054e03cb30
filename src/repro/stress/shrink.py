"""Delta-debugging case minimization for failing stress cases.

Given a corpus that violates an oracle, :func:`shrink_case` reduces it to a
(locally) minimal reproduction in two granularities — drop whole shard
files first, then individual log lines — re-running the violated oracles
after every trial.  The classic ddmin algorithm (Zeller & Hildebrandt,
"Simplifying and Isolating Failure-Inducing Input") does the reduction;
an evaluation budget bounds the oracle re-runs, so shrinking degrades to
"best reduction found so far" instead of running unbounded.

Everything is deterministic: trials are pure functions of the candidate
item list, and ddmin's exploration order is fixed.
"""

from __future__ import annotations

import pathlib
import shutil
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.events.store import read_complete_lines, shard_path, store_shards
from repro.obs import get_registry, span
from repro.stress.oracles import StoreCase, run_store_oracles


class _BudgetExhausted(Exception):
    pass


@dataclass
class ShrinkStats:
    """How one shrink went (deterministic; lands in the campaign report)."""

    trials: int = 0
    files_before: int = 0
    files_after: int = 0
    lines_before: int = 0
    lines_after: int = 0

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "files": [self.files_before, self.files_after],
            "lines": [self.lines_before, self.lines_after],
        }


def ddmin(
    items: Sequence,
    failing: Callable[[list], bool],
    *,
    budget: int = 64,
) -> list:
    """Minimal sublist of ``items`` on which ``failing`` still holds.

    ``failing(items)`` is assumed true (the caller verified the violation);
    the result is 1-minimal up to the evaluation ``budget``.
    """
    current = list(items)
    evals = 0

    def test(candidate: list) -> bool:
        nonlocal evals
        if evals >= budget:
            raise _BudgetExhausted
        evals += 1
        return failing(candidate)

    granularity = 2
    try:
        while len(current) >= 2:
            size = max(1, len(current) // granularity)
            chunks = [current[i : i + size] for i in range(0, len(current), size)]
            reduced = False
            for skip in range(len(chunks)):
                complement = [
                    item
                    for j, chunk in enumerate(chunks)
                    if j != skip
                    for item in chunk
                ]
                if complement and test(complement):
                    current = complement
                    granularity = max(2, granularity - 1)
                    reduced = True
                    break
            if not reduced:
                if granularity >= len(current):
                    break
                granularity = min(len(current), granularity * 2)
    except _BudgetExhausted:
        pass
    return current


# --------------------------------------------------------------------- #
# corpus-level shrinking


@dataclass
class ShrunkCase:
    """The minimized corpus plus what it still violates."""

    corpus_dir: pathlib.Path
    violated: list[str]
    stats: ShrinkStats = field(default_factory=ShrinkStats)


def _corpus_lines(directory) -> list[tuple[int, str]]:
    """``(node, line)`` items of every shard, in deterministic order."""
    out: list[tuple[int, str]] = []
    for node, file in store_shards(directory):
        for line in read_complete_lines(file):
            out.append((node, line))
    return out


def _write_candidate(
    directory, items: Sequence[tuple[int, str]], metadata_src
) -> None:
    """Materialize one candidate store: selected lines, verbatim metadata.

    A node whose every line was dropped loses its shard file entirely
    (absent shards are legal stores — that is what blackout means).
    """
    directory = pathlib.Path(directory)
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    by_node: dict[int, list[str]] = {}
    for node, line in items:
        by_node.setdefault(node, []).append(line)
    for node, lines in sorted(by_node.items()):
        shard_path(directory, node).write_text(
            "\n".join(lines) + ("\n" if lines else "")
        )
    shutil.copy(
        pathlib.Path(metadata_src) / "operations.json",
        directory / "operations.json",
    )


def shrink_case(
    case: StoreCase,
    violated: Sequence[str],
    scratch_dir,
    *,
    budget: int = 64,
) -> ShrunkCase:
    """Minimize ``case``'s corpus while it still violates ``violated``.

    Two ddmin passes share one evaluation budget: whole shard files first
    (cheap, large steps), then individual lines of the survivors.  The
    minimized corpus is left at ``scratch_dir/minimized``; the final
    violated set is re-derived from a full oracle run over it (a shrink
    can legitimately lose secondary violations — the reproducer records
    what the *minimized* corpus violates).
    """
    scratch = pathlib.Path(scratch_dir)
    trial_dir = scratch / "trial"
    target = set(violated)
    stats = ShrinkStats()

    def failing(items: list[tuple[int, str]]) -> bool:
        stats.trials += 1
        _write_candidate(trial_dir, items, case.corpus_dir)
        trial = StoreCase(
            label=case.label,
            corpus_dir=trial_dir,
            base_dir=case.base_dir,
            truth=case.truth,
            lint_clean=case.lint_clean,
            config=case.config,
        )
        outcome = run_store_oracles(trial, only=target)
        return target <= set(outcome.violated)

    items = _corpus_lines(case.corpus_dir)
    nodes = sorted({node for node, _ in items})
    stats.files_before = len(nodes)
    stats.lines_before = len(items)

    with span("stress.shrink"):
        # pass 1: whole files
        kept_nodes = set(
            ddmin(
                nodes,
                lambda ns: failing([it for it in items if it[0] in set(ns)]),
                budget=budget,
            )
        )
        items = [it for it in items if it[0] in kept_nodes]
        # pass 2: individual lines (whatever budget remains)
        remaining = max(0, budget - stats.trials)
        if remaining:
            items = ddmin(items, failing, budget=remaining)

    minimized = scratch / "minimized"
    _write_candidate(minimized, items, case.corpus_dir)
    final = run_store_oracles(
        StoreCase(
            label=case.label,
            corpus_dir=minimized,
            base_dir=case.base_dir,
            truth=case.truth,
            lint_clean=case.lint_clean,
            config=case.config,
        )
    )
    stats.files_after = len({node for node, _ in items})
    stats.lines_after = len(items)
    if trial_dir.exists():
        shutil.rmtree(trial_dir)
    get_registry().counter("stress.shrink.trials").inc(stats.trials)
    return ShrunkCase(
        corpus_dir=minimized, violated=final.violated, stats=stats
    )
