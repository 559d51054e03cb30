#!/usr/bin/env python3
"""Query campaign: flood a question down, reconstruct who answered.

The operator floods a query over the routing tree and collects answers —
then asks REFILL the campaign post-mortem from the (lossy) logs: which
nodes actually heard the query, who answered, and where the missing
answers died.  Run:

    python examples/query_campaign.py
"""

from repro.core.diagnosis import classify_flow
from repro.core.session import ReconstructionSession
from repro.core.transition_algorithm import PacketReconstructor
from repro.events.merge import group_by_packet
from repro.fsm.templates import FORWARDED, HEARD, query_templates
from repro.lognet.collector import collect_logs
from repro.lognet.loss import LogLossSpec
from repro.simnet.query import QueryParams, run_query
from repro.simnet.scenarios import small_network


def main() -> None:
    print("running the campaign ...")
    campaign = run_query(
        QueryParams(scenario=small_network(n_nodes=25, seed=8, minutes=5))
    )
    nodes = campaign.network.topology.nodes
    print(
        f"truth: {len(campaign.heard)}/{len(nodes)} nodes heard the query, "
        f"{len(campaign.answered)} answered, "
        f"{len(campaign.delivered_answers())} answers delivered\n"
    )

    # degrade the logs the usual way, then reconstruct both directions
    spec = LogLossSpec(write_fail_p=0.05, chunk_loss_p=0.05, node_loss_p=0.04)
    lossy = collect_logs(campaign.true_logs, spec, seed=9)

    # 1. the query flood, through the query-flood engines
    grouped = group_by_packet(lossy)
    flow = PacketReconstructor(
        query_templates(campaign.sink), campaign.query
    ).reconstruct(grouped.get(campaign.query, {}))
    reconstructed_hearers = {
        n for n in nodes if flow.visited(n, HEARD) or flow.visited(n, FORWARDED)
    }
    hallucinated = reconstructed_hearers - campaign.heard
    print(
        f"REFILL (lossy logs): {len(reconstructed_hearers)} hearers "
        f"reconstructed ({len(flow.inferred_events())} flood events inferred, "
        f"{len(hallucinated)} hallucinated)"
    )

    # 2. the answers, through the standard collection engines
    flows = ReconstructionSession().reconstruct(lossy)
    bs = campaign.base_station
    print("\nmissing answers, localized:")
    shown = 0
    for node in sorted(campaign.answered - campaign.delivered_answers()):
        packet = campaign.responses[node]
        if packet not in flows:
            print(f"  node {node}: no surviving evidence at all")
            continue
        report = classify_flow(flows[packet], delivery_node=bs)
        print(f"  node {node}: {report.cause} at node {report.position}")
        shown += 1
        if shown >= 8:
            break
    if not (campaign.answered - campaign.delivered_answers()):
        print("  (every answer made it this run)")


if __name__ == "__main__":
    main()
