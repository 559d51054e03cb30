"""Cross-FSM static analysis over a whole deployment (rule codes ``XF*``).

The per-template lint of :mod:`repro.fsm.validate` deliberately punts on
anything that needs *other* roles' templates.  This module closes that gap
over a :class:`DeploymentSpec` — the set of role templates plus the
(optional) node→role assignment:

- **prerequisite resolution** (``XF001``/``XF005``/``XF006``): every state a
  rule references must exist in a peer template, every rule label must be
  emitted by some role;
- **prerequisite cycles** (``XF002``): explicit-node rules whose drive
  dependencies form a cycle would deadlock (hit the recursion guard of) the
  recursive transition algorithm;
- **ambiguous jump derivation** (``XF003``): a (state, label) intra jump
  whose inferred lost-event prefix is not unique — shortest-path ties are
  broken by edge declaration order, which is deterministic but semantically
  arbitrary;
- **label collisions** (``XF004``): an event label emitted by templates of
  two different roles makes corpus lines attributable to either FSM;
- **selector recursion** (``XF007``, info): prerequisite chains through
  ``Peer`` selectors that can re-demand their own label; termination then
  relies on network topology and admissibility, not on the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import repro.fsm.validate  # full-path import: breaks the validate→check cycle
from repro.check.findings import Finding, Severity, error, info, warning
from repro.fsm.reachability import CompiledReachability
from repro.fsm.templates import FsmTemplate


@dataclass
class DeploymentSpec:
    """Everything the static analyzer knows about a deployment.

    Attributes
    ----------
    roles:
        Role name → template.  Uniform-role protocols (the CTP workload)
        have a single entry.
    node_roles:
        Node id → role name, for deployments whose prerequisite rules name
        explicit nodes (the paper's Fig. 3 synthetic topologies).  Optional:
        selector-based rules need no node map.
    aux_labels:
        Telemetry labels that legitimately appear in logs without driving
        any FSM (e.g. CTP's ``parent_change`` route-churn records).  The
        corpus lint treats them as known instead of raising ``LC003``.
    """

    roles: Mapping[str, FsmTemplate]
    node_roles: Mapping[int, str] = field(default_factory=dict)
    aux_labels: frozenset[str] = frozenset()

    def node_templates(self) -> dict[int, FsmTemplate]:
        return {n: self.roles[r] for n, r in self.node_roles.items()}

    def vocabulary(self) -> frozenset[str]:
        """Union of event labels over every role template plus aux labels."""
        return frozenset(
            label for t in self.roles.values() for label in t.graph.events
        ) | self.aux_labels


def check_templates(spec: DeploymentSpec) -> list[Finding]:
    """All model-level findings for ``spec`` (``TP*`` re-emitted + ``XF*``)."""
    findings: list[Finding] = []
    for role in sorted(spec.roles):
        report = repro.fsm.validate.validate_template(spec.roles[role])
        # Family-level resolution below supersedes the per-template
        # "multi-role wiring?" warnings, mirroring validate_role_family.
        findings.extend(
            f
            for f in report.findings
            if not (f.code == "TP004" and "multi-role wiring" in f.message)
        )
    findings.extend(_check_prereq_resolution(spec))
    findings.extend(_check_prereq_cycles(spec))
    findings.extend(_check_ambiguous_jumps(spec))
    findings.extend(_check_label_collisions(spec))
    return findings


# --------------------------------------------------------------------- #
# prerequisite resolution (XF001 / XF005 / XF006)


def _check_prereq_resolution(spec: DeploymentSpec) -> list[Finding]:
    findings: list[Finding] = []
    all_states = {s for t in spec.roles.values() for s in t.graph.states}
    vocabulary = spec.vocabulary()
    node_templates = spec.node_templates()
    for role in sorted(spec.roles):
        template = spec.roles[role]
        loc = f"role {role!r}"
        for label, rules in sorted(template.prereqs.items()):
            if label not in vocabulary:
                findings.append(
                    warning(
                        "XF006",
                        loc,
                        f"prerequisite rule for label {label!r}, which no "
                        "role template emits",
                    )
                )
            for rule in rules:
                peer = rule.peer
                peer_template = (
                    node_templates.get(peer) if isinstance(peer, int) else None
                )
                for state in rule.states:
                    if peer_template is not None:
                        if not peer_template.graph.has_state(state):
                            findings.append(
                                error(
                                    "XF005",
                                    loc,
                                    f"prerequisite state {state!r} (label "
                                    f"{label!r}) is not a state of node "
                                    f"{peer}'s template "
                                    f"{peer_template.name!r}",
                                )
                            )
                    elif state not in all_states:
                        code = "XF005" if isinstance(peer, int) else "XF001"
                        findings.append(
                            error(
                                code,
                                loc,
                                f"prerequisite state {state!r} (label "
                                f"{label!r}, peer {_peer_name(peer)}) does "
                                "not exist in any role template",
                            )
                        )
    return findings


def _peer_name(peer) -> str:
    return f"node {peer}" if isinstance(peer, int) else str(peer)


# --------------------------------------------------------------------- #
# prerequisite cycles (XF002 explicit-node, XF007 selector recursion)


def _labels_toward(template: FsmTemplate, states: Iterable[str]) -> frozenset[str]:
    """Labels of edges that may lie on a drive path into any of ``states``.

    Driving an engine to a prerequisite state replays normal transitions;
    an edge ``u --l--> v`` may be needed iff some target state is ``v``
    itself or reachable from ``v``.  This over-approximates (the engine's
    current state is unknown statically), which is the safe direction for
    cycle detection.
    """
    compiled = template.compiled
    index = compiled.index
    targets = [index[s] for s in states if s in index]
    labels = set()
    for t in template.graph.transitions:
        if any(
            compiled.dist(index[t.dst], s, compiled.full_mask) is not None
            for s in targets
        ):
            labels.add(t.event)
    return frozenset(labels)


def _check_prereq_cycles(spec: DeploymentSpec) -> list[Finding]:
    findings: list[Finding] = []
    node_templates = spec.node_templates()

    # Explicit-node dependency graph over (node, label) vertices.
    vertices: list[tuple[int, str]] = []
    edges: dict[tuple[int, str], set[tuple[int, str]]] = {}
    for node in sorted(node_templates):
        template = node_templates[node]
        for label, rules in sorted(template.prereqs.items()):
            for rule in rules:
                if not isinstance(rule.peer, int):
                    continue
                peer_template = node_templates.get(rule.peer)
                if peer_template is None:
                    continue
                src = (node, label)
                if src not in edges:
                    vertices.append(src)
                    edges[src] = set()
                for needed in _labels_toward(peer_template, rule.states):
                    dst = (rule.peer, needed)
                    edges[src].add(dst)
                    if dst not in edges:
                        vertices.append(dst)
                        edges[dst] = set()
    for cycle in _cycles(vertices, edges):
        path = " -> ".join(f"node {n}:{label}" for n, label in cycle)
        findings.append(
            error(
                "XF002",
                f"node {cycle[0][0]}",
                f"inter-node prerequisite cycle: {path} -> (repeats); the "
                "recursive transition algorithm would hit its recursion "
                "guard driving these engines",
            )
        )

    # Selector-based recursion over (role, label) vertices (info only:
    # termination may still come from topology/admissibility, as with the
    # CTP recv -> SENT chain up the routing path).
    role_vertices: list[tuple[str, str]] = []
    role_edges: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for role in sorted(spec.roles):
        template = spec.roles[role]
        for label, rules in sorted(template.prereqs.items()):
            for rule in rules:
                if isinstance(rule.peer, int):
                    continue
                src = (role, label)
                if src not in role_edges:
                    role_vertices.append(src)
                    role_edges[src] = set()
                for peer_role in sorted(spec.roles):
                    peer_template = spec.roles[peer_role]
                    if not any(
                        peer_template.graph.has_state(s) for s in rule.states
                    ):
                        continue
                    for needed in _labels_toward(peer_template, rule.states):
                        dst = (peer_role, needed)
                        role_edges[src].add(dst)
                        if dst not in role_edges:
                            role_vertices.append(dst)
                            role_edges[dst] = set()
    for cycle in _cycles(role_vertices, role_edges):
        path = " -> ".join(f"{role}:{label}" for role, label in cycle)
        findings.append(
            info(
                "XF007",
                f"role {cycle[0][0]!r}",
                f"prerequisite chain can re-demand its own label: {path} -> "
                "(repeats); termination relies on topology/admissibility, "
                "not the model",
            )
        )
    return findings


def _cycles(vertices, edges) -> list[list]:
    """Cyclic strongly connected components, deterministically ordered.

    Tarjan's algorithm (iterative).  Returns each SCC that contains a cycle
    — size > 1, or a single vertex with a self-edge — as a sorted vertex
    list; the result is sorted by first vertex so reports are stable.
    """
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1 or v in edges.get(v, ()):
                    sccs.append(sorted(component))
    return sorted(sccs)


# --------------------------------------------------------------------- #
# ambiguous jump derivation (XF003)


def shortest_path_counts(
    compiled: CompiledReachability, src: str
) -> tuple[dict[str, int], dict[str, int]]:
    """BFS distances and *shortest-path counts* from ``src``.

    Returns ``(dist, count)`` where ``dist[s]`` is the length of the
    shortest normal-transition sequence ``src ⇝ s`` and ``count[s]`` how
    many distinct shortest sequences achieve it (``dist[src] == 0``,
    ``count[src] == 1``); unreachable states are absent from both maps.
    ``count > 1`` means the engine picks among several equally short
    inferred-event sequences by edge declaration order alone.
    """
    start = compiled.index[src]
    dist = {start: 0}
    count = {start: 1}
    queue = [start]
    for state in queue:  # FIFO: appends only, scanned left to right
        for _bit, nxt, _t in compiled.outgoing[state]:
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                count[nxt] = count[state]
                queue.append(nxt)
            elif dist[nxt] == dist[state] + 1:
                count[nxt] += count[state]
    names = compiled.states
    return (
        {names[s]: d for s, d in dist.items()},
        {names[s]: c for s, c in count.items()},
    )


def _check_ambiguous_jumps(spec: DeploymentSpec) -> list[Finding]:
    findings: list[Finding] = []
    for role in sorted(spec.roles):
        template = spec.roles[role]
        graph = template.graph
        loc = f"role {role!r}"
        for (state, label) in sorted(template.intra):
            if graph.transitions_from(state, label):
                continue  # a normal transition wins; the jump is never used
            jump = template.intra[(state, label)]
            dist, count = shortest_path_counts(template.compiled, state)
            candidates = []
            for t in graph.transitions_with_event(label):
                if t.dst != jump.dst:
                    continue
                prefix = 0 if t.src == state else dist.get(t.src)
                if prefix is None:
                    continue
                candidates.append((prefix, t))
            if not candidates:
                continue
            best = min(prefix for prefix, _ in candidates)
            tied = [t for prefix, t in candidates if prefix == best]
            paths = 1 if best == 0 else count.get(tied[0].src, 1)
            if len(tied) <= 1 and paths <= 1:
                continue
            if len(tied) > 1:
                detail = (
                    f"{len(tied)} final edges tie at prefix length {best}: "
                    + ", ".join(f"{t.src}->{t.dst}" for t in sorted(
                        tied, key=lambda t: (t.src, t.dst)))
                )
            else:
                detail = (
                    f"{paths} distinct shortest inferred-event prefixes "
                    f"reach {tied[0].src!r}"
                )
            severity = (
                Severity.INFO if template.has_admissibility else Severity.WARNING
            )
            suffix = (
                "; the admissibility predicate may disambiguate at inference time"
                if template.has_admissibility
                else "; ties break by edge declaration order"
            )
            findings.append(
                Finding(
                    severity,
                    "XF003",
                    loc,
                    f"ambiguous jump derivation for ({state!r}, {label!r}) "
                    f"-> {jump.dst!r}: {detail}{suffix}",
                )
            )
    return findings


# --------------------------------------------------------------------- #
# label collisions (XF004)


def _check_label_collisions(spec: DeploymentSpec) -> list[Finding]:
    findings: list[Finding] = []
    by_label: dict[str, list[str]] = {}
    seen_templates: dict[int, str] = {}
    for role in sorted(spec.roles):
        template = spec.roles[role]
        # Roles sharing one template object (uniform protocols) never collide.
        if id(template) in seen_templates:
            continue
        seen_templates[id(template)] = role
        for label in template.graph.events:
            by_label.setdefault(label, []).append(role)
    for label in sorted(by_label):
        roles = by_label[label]
        if len(roles) > 1:
            findings.append(
                warning(
                    "XF004",
                    f"label {label!r}",
                    f"event label emitted by {len(roles)} role templates "
                    f"({', '.join(sorted(roles))}); corpus events with this "
                    "label are attributable to either FSM",
                )
            )
    return findings
