"""The execution backend of :class:`~repro.core.session.ReconstructionSession`.

One reconstruction pipeline, one lifecycle — accumulate evidence, then
refresh the dirty set — in one in-process backend,
:class:`IncrementalBackend`, every door's default.  Multi-core runs split
the store above the session instead (:mod:`repro.core.split`): each
process owns its own session, backend and shape memo.
"""

from repro.core.backends.incremental import ExecutionPlan, IncrementalBackend

__all__ = [
    "ExecutionPlan",
    "IncrementalBackend",
]
