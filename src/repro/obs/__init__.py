"""Observability substrate: metrics registry, spans, structured logging.

The pipeline instruments itself against whatever registry is *active* in
the current context (an enabled process-wide default; swap in a
:class:`NullRegistry` to disable collection, or a fresh
:class:`MetricsRegistry` under :func:`use_registry` to isolate one run).

Quickstart::

    from repro.obs import MetricsRegistry, use_registry, span, get_logger

    log = get_logger("my.tool")
    with use_registry(MetricsRegistry()) as reg:
        with span("my.stage"):
            log.info("working", items=42)
            reg.counter("my.items").inc(42)
        print(reg.snapshot().to_json_str())

See ``docs/OBSERVABILITY.md`` for the metric-name catalogue and the span
hierarchy the built-in pipeline emits.  The daemon's parts, trace context
(:mod:`repro.obs.tracing`), flight recorder (:mod:`repro.obs.recorder`)
and Prometheus text (:mod:`repro.obs.promtext`), are imported from their
own modules, so a batch run loads none of them.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    get_registry,
    set_registry,
    timer,
    use_registry,
)
from repro.obs.spans import Span, current_span, span
from repro.obs.structlog import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    StructLogger,
    configure_logging,
    get_logger,
    reset_logging,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "timer",
    "use_registry",
    "Span",
    "span",
    "current_span",
    "StructLogger",
    "get_logger",
    "configure_logging",
    "reset_logging",
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
]
