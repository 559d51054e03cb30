"""Comparison analyzers (paper §VI and §V-D).

- :mod:`repro.baselines.sink_view` — what the operator sees from collected
  data packets alone (paper Fig. 4): whose packets were lost and roughly
  when, but not where or why.
- :mod:`repro.baselines.time_correlation` — time-domain correlation
  diagnosis ([15], §V-D2): correlate losses with co-temporal logged events;
  degrades when causes co-occur and clocks are skewed.
- :mod:`repro.baselines.netcheck` — NetCheck-style per-node FSM replay
  [21]: no inter-node connection, no lost-event inference.
- :mod:`repro.baselines.wit` — Wit-style merging [10]: combines logs only
  through commonly recorded events; with individual (non-sniffer) logs
  there are none, so nothing merges.

Each is imported from its own module; ``refill analyze`` loads only the
sink view.
"""

from repro.baselines.sink_view import SinkView

__all__ = ["SinkView"]
