"""Rate allocation on the bundled 10-node topology.

Generates a 2-org workload, enumerates candidate paths, and solves the
weighted-rate LP of a hop-count baseline selection through harness.search,
the pipeline of `qvpn allocate`, on the same PathFinder. Shows where the
capacity actually goes and which pairs starve under pure W-EGR maximization.
"""

from qvpn.fixtures import bundled_topology, TOPOLOGY_10
from qvpn.workload import WorkloadParams, generate_workload
from qvpn.pathfinding import PathFinder, build_candidate_sets
from qvpn.quantum_math import default_strategy_catalog
from qvpn.harness import search

SEED = 7


def main():
    graph = bundled_topology(TOPOLOGY_10)
    print(f"topology: {len(graph.nodes)} nodes, {len(graph.links)} links")

    params = WorkloadParams(num_orgs=2, pairs_per_org=5, r_min=0.0)
    workload = generate_workload(graph, params, SEED)
    for org in workload.organizations:
        pairs = [p for p in workload.user_pairs if p.org_id == org.id]
        print(f"  {org.id} (weight {org.weight:.2f}): "
              + ", ".join(f"{a}-{b}" for a, b in (p.endpoints for p in pairs)))

    finder = PathFinder(graph)  # the search reuses these Yen runs
    candidates = build_candidate_sets(graph, workload, k=5, finder=finder)
    total = sum(len(v) for v in candidates.values())
    print(f"candidate paths: {total} across {len(candidates)} pairs")

    result = search(graph, workload, "baseline-hop", SEED, k=5, p_max=3,
                    catalog=default_strategy_catalog(), finder=finder)
    selection, solution = result.selection, result.solution
    print(f"LP status: {solution.status}, W-EGR = {solution.wegr:.2f}")

    print()
    print(f"{'pair':>12} {'paths':>6} {'rate_eprps':>12}")
    starved = 0
    for pair in workload.user_pairs:
        rate = sum(solution.rates.get((pair.key, path.nodes), 0.0)
                   for path, _ in selection.get(pair.key, []))
        if rate < 1e-9:
            starved += 1
        a, b = pair.endpoints
        print(f"{a + '-' + b:>12} {len(selection.get(pair.key, [])):>6} {rate:>12.2f}")
    print()
    print(f"{starved} of {len(workload.user_pairs)} pairs get nothing: the LP "
          "maximizes the weighted sum, it does not share. R_min floors or the "
          "GA/RL searches are the levers against that.")


if __name__ == "__main__":
    main()
