"""Finite-state-machine substrate for the inference engines (paper §IV-A/B).

The transition graph ``G = (S, T, E)`` is a directed multigraph whose edges
carry event labels; several edges may carry the same label.  On top of the
raw graph this package derives:

- compiled reachability and shortest normal-transition paths
  (:mod:`repro.fsm.reachability`),
- *intra-node* jump transitions, which let an engine skip over lost events
  when the target state is unambiguous (:mod:`repro.fsm.intra`),
- *inter-node* prerequisite transitions connecting FSMs of different nodes
  (:mod:`repro.fsm.prerequisites`),
- concrete templates: the CTP forwarding FSM of the evaluation workload and
  small dissemination FSMs exercising 1-to-many / many-to-1 inter-node
  transitions (:mod:`repro.fsm.templates`).

Template lint (:mod:`repro.fsm.validate`) and k-tails mining
(:mod:`repro.learn.ktails`) are imported from their own modules: the
engines load neither.
"""

from repro.fsm.graph import Transition, TransitionGraph
from repro.fsm.reachability import CompiledReachability
from repro.fsm.intra import IntraTransition, derive_intra_transitions
from repro.fsm.prerequisites import PrereqRule, Peer
from repro.fsm.templates import (
    FsmTemplate,
    chain_template,
    dissemination_templates,
    forwarder_template,
    query_templates,
)

__all__ = [
    "Transition",
    "TransitionGraph",
    "CompiledReachability",
    "IntraTransition",
    "derive_intra_transitions",
    "PrereqRule",
    "Peer",
    "FsmTemplate",
    "forwarder_template",
    "chain_template",
    "dissemination_templates",
    "query_templates",
]
