"""REFILL — reconstructing network behavior from individual and lossy logs.

Reproduction of *Connecting the Dots: Reconstructing Network Behavior with
Individual and Lossy Logs* (ICPP 2015). The package contains:

- :mod:`repro.events` — the event / log model (paper §II),
- :mod:`repro.fsm` — transition graphs, intra-node and inter-node transition
  derivation (paper §IV-A/B),
- :mod:`repro.core` — the connected inference engines, the recursive
  transition algorithm, event flows and loss diagnosis (paper §IV, §V-B),
- :mod:`repro.lognet` — the lossy, unsynchronized logging substrate,
- :mod:`repro.simnet` — a CitySee-like WSN discrete-event simulator with
  ground truth (substitute for the paper's physical deployment),
- :mod:`repro.baselines` — sink-view, time-correlation, Wit-style and
  NetCheck-style comparison analyzers,
- :mod:`repro.analysis` — figure/table analytics and accuracy scoring,
- :mod:`repro.obs` — observability: metrics registry, spans, structured
  logging (see ``docs/OBSERVABILITY.md``).

Quickstart::

    from repro import ReconstructionSession
    session = ReconstructionSession()
    flows = session.reconstruct(logs)  # logs: per-node NodeLog objects
    reports = session.diagnose(flows)

Batch and live runs share one accumulate-then-refresh backend
(``IncrementalBackend``); ``ProcessPoolBackend`` runs large refreshes in a
worker pool.  See ``docs/API.md`` and ``docs/ARCHITECTURE.md`` for the
backend model.
"""

from repro.events.event import Event, EventType
from repro.events.packet import PacketKey
from repro.events.log import LogRecord, NodeLog
from repro.core.event_flow import EventFlow, FlowEntry
from repro.core.session import ReconstructionSession, RefillOptions, SessionResult
from repro.core.backends import make_backend
from repro.core.diagnosis import LossCause, LossReport, classify_flow
from repro.fsm.templates import forwarder_template

__version__ = "1.0.0"

__all__ = [
    "Event",
    "EventType",
    "PacketKey",
    "LogRecord",
    "NodeLog",
    "EventFlow",
    "FlowEntry",
    "RefillOptions",
    "ReconstructionSession",
    "SessionResult",
    "make_backend",
    "LossCause",
    "LossReport",
    "classify_flow",
    "forwarder_template",
    "__version__",
]
