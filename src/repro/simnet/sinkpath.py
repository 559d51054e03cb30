"""The sink-to-base-station path (paper Fig. 7, §V-B/C).

CitySee's sink forwarded packets to a mesh backbone node over a long RS232
cable whose signal was unstable outdoors — the paper's headline diagnosis:
most "received/acked losses on the sink" were silent serial drops, fixed by
replacing the sink after day 23.  The base-station *server* also suffered
outages responsible for 22.6% of all losses (§V-C), recorded in an
operations log the analysis layer consults.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SerialLink:
    """RS232 delivery probability over time.

    ``unstable_quality`` applies before ``fix_time`` (the long-cable era),
    ``fixed_quality`` after (the replaced sink).  ``weather_windows`` are
    ``(start, end, factor)`` periods where the outdoor cable degrades
    further — the paper's snow days hit the sink path visibly (Fig. 6).
    """

    unstable_quality: float = 0.72
    fixed_quality: float = 0.999
    fix_time: float = float("inf")
    weather_windows: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("unstable_quality", "fixed_quality"):
            q = getattr(self, name)
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"{name} must be a probability, got {q}")
        for start, end, factor in self.weather_windows:
            if end <= start:
                raise ValueError(f"weather window ({start}, {end}) has no duration")
            if not 0.0 <= factor <= 1.0:
                raise ValueError(f"weather factor must be in [0, 1], got {factor}")

    def quality(self, t: float) -> float:
        base = self.fixed_quality if t >= self.fix_time else self.unstable_quality
        for start, end, factor in self.weather_windows:
            if start <= t < end:
                base *= factor
        return base


@dataclass(frozen=True, slots=True)
class BaseStationModel:
    """Server availability: packets arriving inside an outage window vanish.

    ``outages`` is the operations log of ``(start, end)`` windows; it is
    *known* to the analysis layer (the paper attributes outage losses from
    it before running REFILL on the rest, §V-C).
    """

    outages: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for start, end in self.outages:
            if end <= start:
                raise ValueError(f"outage window ({start}, {end}) has no duration")

    def is_down(self, t: float) -> bool:
        return any(start <= t < end for start, end in self.outages)
