"""Joint path + strategy search: baselines vs GA vs policy gradient.

One seeded instance on the bundled 10-node topology. The baselines fix a
single strategy and take the shortest paths; the GA searches the joint
space of path subsets and per-path distillation strategies; the policy
gradient learns a path distribution for one shared strategy.

Expected runtime: a few seconds, most of it the GA's LP calls.
"""

import time

from qvpn.fixtures import bundled_topology, TOPOLOGY_10
from qvpn.workload import WorkloadParams, generate_workload
from qvpn.pathfinding import (WeightScheme, baseline_selection, build_candidate_sets,
                              nearest_strategy_index)
from qvpn.quantum_math import default_strategy_catalog
from qvpn.allocation_lp import LpCompiler, wegr_of_selection
from qvpn import ga_optimizer as ga
from qvpn import rl_optimizer as rl

SEED = 0
P_MAX = 3


def main():
    graph = bundled_topology(TOPOLOGY_10)
    workload = generate_workload(
        graph, WorkloadParams(num_orgs=3, pairs_per_org=10, r_min=0.0), SEED)
    candidates = build_candidate_sets(graph, workload, k=5)
    catalog = default_strategy_catalog()
    idx = nearest_strategy_index(catalog, 0.992)

    results = {}
    baseline_selections = []
    compiler = LpCompiler(graph, workload, p_max=P_MAX)
    for scheme in (WeightScheme.HOP, WeightScheme.INV_EGR, WeightScheme.INV_EGR_SQ):
        sel = baseline_selection(graph, workload, candidates, scheme,
                                 p_max=P_MAX, strategy_index=idx, catalog=catalog)
        baseline_selections.append(sel)
        results[f"baseline-{scheme.value}"] = wegr_of_selection(compiler, sel)

    t0 = time.perf_counter()
    problem = ga.GaProblem(graph, workload, candidates, catalog, p_max=P_MAX)
    config = ga.GaConfig(population_size=30, generations=60, seed=SEED)
    population = ga.initialize_population(problem, config,
                                          seed_heuristics=baseline_selections)
    trace = ga.evolve(population, config, problem)
    results["ga"] = trace.best_wegr
    ga_seconds = time.perf_counter() - t0
    print(f"GA: {problem.lp_solves} LP solves in {ga_seconds:.1f}s, "
          f"best found at generation "
          f"{max(range(len(trace.best_fitness)), key=lambda i: trace.best_fitness[i])}")

    t0 = time.perf_counter()
    rl_problem = rl.RlProblem(workload, candidates, catalog[idx], p_max=P_MAX)
    policy = rl.PolicyNetwork.init(rl_problem, hidden=(32,), seed=SEED)
    environment = rl.cached_reward(compiler)
    # default learning rate is scaled for raw W-EGR rewards in the thousands
    rl_config = rl.TrainConfig(epochs=150, batch_size=6, seed=SEED)
    rl.train(policy, rl_problem, rl_config, environment)
    greedy = rl.greedy_selection(policy, rl_problem)
    results["rl"] = wegr_of_selection(compiler, greedy)
    print(f"RL: {len(environment.cache)} distinct selections scored in "
          f"{time.perf_counter() - t0:.1f}s")

    print()
    print(f"{'method':>22} {'W-EGR':>10} {'vs best baseline':>17}")
    best_base = max(v for k, v in results.items() if k.startswith("baseline"))
    for name, wegr in sorted(results.items(), key=lambda kv: kv[1]):
        rel = (wegr - best_base) / best_base * 100.0
        print(f"{name:>22} {wegr:>10.2f} {rel:>+16.1f}%")
    print()
    print("the GA edge is mostly strategy tuning: the policy gradient picks "
          "paths for one fixed strategy and lands on the baseline plateau.")


if __name__ == "__main__":
    main()
