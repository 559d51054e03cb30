"""REFILL core: connected inference engines and the transition algorithm.

This is the paper's primary contribution (§IV): per-node FSM inference
engines connected by intra-node and inter-node transitions, a recursive
event-processing algorithm that reconstructs the network-wide event flow and
infers lost events, plus the downstream consumers of the flow — loss
diagnosis (§V-B), per-packet tracing (:mod:`repro.core.tracing`) and the
logging advisor (:mod:`repro.core.logging_advisor`), the last two imported
from their own modules.
"""

from repro.core.event_flow import EventFlow, FlowEntry
from repro.core.engine import EngineInstance
from repro.core.context import PacketContext
from repro.core.transition_algorithm import PacketReconstructor, ReconstructorOptions
from repro.core.session import ReconstructionSession, RefillOptions, SessionResult
from repro.core.backends import ExecutionPlan, IncrementalBackend
from repro.core.diagnosis import LossCause, LossReport, classify_flow

__all__ = [
    "EventFlow",
    "FlowEntry",
    "EngineInstance",
    "PacketContext",
    "PacketReconstructor",
    "ReconstructorOptions",
    "ReconstructionSession",
    "SessionResult",
    "ExecutionPlan",
    "IncrementalBackend",
    "RefillOptions",
    "LossCause",
    "LossReport",
    "classify_flow",
]
