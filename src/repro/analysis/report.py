"""ASCII rendering of figure/table data (benchmark output).

Benchmarks print the same rows/series the paper's figures report; these
helpers keep the formatting consistent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.diagnosis import LossCause
from repro.util.tables import render_table

if TYPE_CHECKING:
    from repro.analysis.spatial import SpatialPoint

#: Figure legend order used throughout.
CAUSE_ORDER = [
    LossCause.SERVER_OUTAGE,
    LossCause.RECEIVED_LOSS,
    LossCause.ACKED_LOSS,
    LossCause.TIMEOUT_LOSS,
    LossCause.DUP_LOSS,
    LossCause.OVERFLOW_LOSS,
    LossCause.UNKNOWN,
]


def render_cause_shares(
    shares: Mapping[LossCause, float], *, title: str = "Loss cause shares (%)"
) -> str:
    rows = [
        (str(cause), round(shares.get(cause, 0.0), 1))
        for cause in CAUSE_ORDER
        if shares.get(cause, 0.0) > 0 or cause in shares
    ]
    return render_table(["cause", "share_%"], rows, title=title)


def render_daily_composition(
    days: Sequence[Mapping[LossCause, int]],
    *,
    title: str = "Per-day loss composition",
) -> str:
    causes = [c for c in CAUSE_ORDER if any(day.get(c, 0) for day in days)]
    headers = ["day", *[str(c) for c in causes], "total"]
    rows = []
    for index, day in enumerate(days):
        rows.append([index, *[day.get(c, 0) for c in causes], sum(day.values())])
    return render_table(headers, rows, title=title)


def render_spatial(points: Sequence[SpatialPoint], *, top: int = 15) -> str:
    rows = [
        (p.node, round(p.x, 1), round(p.y, 1), p.count, "sink" if p.is_sink else "")
        for p in points[:top]
    ]
    return render_table(
        ["node", "x", "y", "received_losses", ""],
        rows,
        title=f"Fig.8 spatial received-loss map (top {top})",
    )


def render_scatter_summary(
    points: Sequence[tuple[float, int, LossCause]],
    *,
    window: float,
    title: str,
) -> str:
    """Bucketize a loss scatter into time windows per cause."""
    if not points:
        return f"{title}\n(no losses)"
    start = min(t for t, _, _ in points)
    end = max(t for t, _, _ in points)
    n = int((end - start) // window) + 1
    causes = sorted({c for _, _, c in points}, key=lambda c: CAUSE_ORDER.index(c))
    table: dict[int, dict[LossCause, int]] = {}
    for t, _, cause in points:
        bucket = int((t - start) // window)
        table.setdefault(bucket, {}).setdefault(cause, 0)
        table[bucket][cause] += 1
    headers = ["window", *[str(c) for c in causes]]
    rows = []
    for bucket in range(n):
        day = table.get(bucket, {})
        rows.append([bucket, *[day.get(c, 0) for c in causes]])
    return render_table(headers, rows, title=title)
