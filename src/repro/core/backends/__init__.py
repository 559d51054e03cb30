"""Execution backends for :class:`~repro.core.session.ReconstructionSession`.

One reconstruction pipeline, one lifecycle — accumulate evidence, then
refresh the dirty set — and two ways to run a refresh:

- :class:`IncrementalBackend` — in-process; every door's default;
- :class:`ProcessPoolBackend` — the same backend, refreshing large dirty
  sets in a worker pool (lazy startup).

``make_backend(name)`` resolves the CLI spelling.
"""

from repro.core.backends.incremental import (
    ExecutionPlan,
    IncrementalBackend,
    TemplateFactory,
)
from repro.core.backends.process import ProcessPoolBackend

#: CLI / config spelling → constructor.
BACKENDS = {
    IncrementalBackend.name: IncrementalBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def make_backend(name: str, *, workers: "int | None" = None) -> IncrementalBackend:
    """Build a backend from its registry name (``incremental`` |
    ``process``); ``workers`` applies to ``process``."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {sorted(BACKENDS)}")
    if name == ProcessPoolBackend.name:
        return ProcessPoolBackend(workers=workers)
    return IncrementalBackend()


__all__ = [
    "BACKENDS",
    "ExecutionPlan",
    "IncrementalBackend",
    "ProcessPoolBackend",
    "TemplateFactory",
    "make_backend",
]
