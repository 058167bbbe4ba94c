"""Joint path + strategy search: baselines vs GA vs policy gradient.

One seeded instance on the bundled 10-node topology, searched by every
optimizer of harness.search on one shared PathFinder. The baselines fix a
single strategy and take the shortest paths; the GA searches the joint
space of path subsets and per-path distillation strategies; the policy
gradient learns a path distribution for one shared strategy.

Expected runtime: a few seconds, most of it the GA's LP calls.
"""

from qvpn.fixtures import bundled_topology, TOPOLOGY_10
from qvpn.workload import WorkloadParams, generate_workload
from qvpn.pathfinding import PathFinder
from qvpn.quantum_math import default_strategy_catalog
from qvpn import ga_optimizer as ga
from qvpn import rl_optimizer as rl
from qvpn.harness import OPTIMIZERS, search

SEED = 0
P_MAX = 3


def main():
    graph = bundled_topology(TOPOLOGY_10)
    workload = generate_workload(
        graph, WorkloadParams(num_orgs=3, pairs_per_org=10, r_min=0.0), SEED)
    finder = PathFinder(graph)  # every search shares its Yen runs

    results = {}
    for optimizer in OPTIMIZERS:
        result = search(graph, workload, optimizer, SEED, k=5, p_max=P_MAX,
                        catalog=default_strategy_catalog(), finder=finder,
                        ga_config=ga.GaConfig(population_size=30, generations=60),
                        # default learning rate is scaled for raw W-EGR rewards in the thousands
                        rl_config=rl.TrainConfig(epochs=150, batch_size=6), hidden=(32,))
        results[optimizer] = result.solution.wegr
        if optimizer == "ga":
            best = result.trace.best_fitness
            print(f"GA: {result.lp_solves} LP solves in {result.seconds:.1f}s, "
                  f"best found at generation {max(range(len(best)), key=best.__getitem__)}")
        elif optimizer == "rl":
            print(f"RL: {result.lp_solves} distinct selections scored in "
                  f"{result.seconds:.1f}s")

    print()
    print(f"{'method':>22} {'W-EGR':>10} {'vs best baseline':>17}")
    best_base = max(v for k, v in results.items() if k.startswith("baseline"))
    for name, wegr in sorted(results.items(), key=lambda kv: kv[1]):
        rel = (wegr - best_base) / best_base * 100.0
        print(f"{name:>22} {wegr:>10.2f} {rel:>+16.1f}%")
    print()
    print("the GA edge is path choice: every net10 link has fidelity 0.8, so each path "
          "keeps one non-dominated strategy; the policy gradient picks paths for one fixed "
          "strategy and ends a few percent above the baselines.")


if __name__ == "__main__":
    main()
