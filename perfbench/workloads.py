"""The three benchmark workloads, driven through qvpn's public API in the
order `qvpn ga`, `qvpn rl` and `qvpn report` use it.

Every qvpn function is reached through its module attribute
(`pathfinding.build_candidate_sets`, not an imported name), so the traced
run's wrappers see the call. Each runner returns a Run: the timing marks,
the iteration samples, the final allocation and what the verifier and the
determinism digest need. Importing this module imports qvpn.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

from qvpn import (allocation_lp, fixtures, ga_optimizer, harness, pathfinding, quantum_math,
                  rl_optimizer, topology, workload)
from qvpn.harness import DegenerateVarianceError
from qvpn.workload import WorkloadParams

K = 5
P_MAX = 3
BASELINE_THRESHOLD = 0.992
SCHEMES = (pathfinding.WeightScheme.HOP, pathfinding.WeightScheme.INV_EGR,
           pathfinding.WeightScheme.INV_EGR_SQ)

GA_PARAMS = dict(num_orgs=3, pairs_per_org=10, r_min=0.0)
GA_POPULATION = 50
GA_GENERATIONS = 10

RL_PARAMS = dict(num_orgs=3, pairs_per_org=50, r_min=0.0)
RL_HIDDEN = (128,)
RL_EPOCHS = 12

SWEEP_PARAMS = dict(num_orgs=3, pairs_per_org=10, r_min=0.0)
SWEEP_OPTIMIZER = "baseline-inv-egr"
SWEEP_VALUES = (10, 15, 20, 25, 30, 35, 40, 45, 50)
SWEEP_REPETITIONS = 2
SWEEP_WORKERS = 2


@dataclass
class Allocation:
    """One final allocation to verify: what was selected and what was reported."""
    graph: object
    workload: object
    selection: dict
    solution: object
    candidates: dict | None  # for the relaxation bound; None: rebuild when needed
    strategies: tuple


@dataclass
class Run:
    setup_end: float
    end: float
    iterations: list  # seconds per iteration
    wegr: float
    trace_text: str  # canonical text of the search trace, for the digest
    selection_text: str
    allocations: list
    lp_attempts: int
    failures: int
    facts: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.trace_text.encode())
        h.update(b"\n--selection--\n")
        h.update(self.selection_text.encode())
        return h.hexdigest()


def _graph():
    return topology.load_topology(fixtures.fixture_text(fixtures.TOPOLOGY_50))


def _catalog():
    return tuple(quantum_math.default_strategy_catalog())


def _solve(graph, wl, selection):
    return allocation_lp.solve(allocation_lp.build_problem(graph, wl, selection, p_max=P_MAX))


def run_ga(seed: int, generations: int = GA_GENERATIONS) -> Run:
    """`qvpn ga`: greedy-seeded dynamic GA, then a final solve of the best."""
    graph = _graph()
    wl = workload.generate_workload(graph, WorkloadParams(**GA_PARAMS), seed)
    catalog = _catalog()
    config = replace(ga_optimizer.GaConfig(population_size=GA_POPULATION,
                                           generations=generations), seed=seed)
    candidates = pathfinding.build_candidate_sets(graph, wl, k=K)
    problem = ga_optimizer.GaProblem(graph, wl, candidates, catalog, p_max=P_MAX)
    idx = pathfinding.nearest_strategy_index(catalog, BASELINE_THRESHOLD)
    heuristics = [
        pathfinding.baseline_selection(graph, wl, candidates, scheme, p_max=P_MAX,
                                       strategy_index=idx, catalog=catalog)
        for scheme in SCHEMES
    ]
    population = ga_optimizer.initialize_population(problem, config, seed_heuristics=heuristics)
    setup_end = time.perf_counter()
    trace = ga_optimizer.evolve(population, config, problem)
    selection = problem.decode(trace.best_genome)
    solution = _solve(graph, wl, selection)
    end = time.perf_counter()
    trace_text = "".join(f"{g} {b!r} {m!r}\n" for g, (b, m) in
                         enumerate(zip(trace.best_fitness, trace.mean_fitness)))
    return Run(
        setup_end=setup_end, end=end, iterations=list(trace.seconds[1:]),
        wegr=trace.best_wegr, trace_text=trace_text,
        selection_text=harness.save_selection(selection),
        allocations=[Allocation(graph, wl, selection, solution, candidates, catalog)],
        lp_attempts=trace.lp_solves + 1, failures=0)


def run_rl(seed: int, epochs: int = RL_EPOCHS, wrap_env=lambda env: env) -> Run:
    """`qvpn rl`: REINFORCE against a reward cache keyed as the CLI keys it,
    then a final solve of the greedy selection. wrap_env lets the traced
    run put a span around the reward callback."""
    graph = _graph()
    wl = workload.generate_workload(graph, WorkloadParams(**RL_PARAMS), seed)
    catalog = _catalog()
    config = replace(rl_optimizer.TrainConfig(epochs=epochs), seed=seed)
    candidates = pathfinding.build_candidate_sets(graph, wl, k=K)
    problem = rl_optimizer.RlProblem(wl, candidates, catalog[0], p_max=P_MAX)
    reward_cache = {}
    epoch_starts = []
    calls = [0]

    def environment(selection):
        if calls[0] % config.batch_size == 0:
            epoch_starts.append(time.perf_counter())
        calls[0] += 1
        key = tuple(sorted((pk, tuple(p.nodes for p, _ in chosen))
                           for pk, chosen in selection.items()))
        if key not in reward_cache:
            reward_cache[key] = _solve(graph, wl, selection).wegr
        return reward_cache[key]

    policy = rl_optimizer.PolicyNetwork.init(problem, hidden=RL_HIDDEN, seed=seed)
    setup_end = time.perf_counter()
    _, trace, _ = rl_optimizer.train(policy, problem, config, wrap_env(environment))
    selection = rl_optimizer.greedy_selection(policy, problem)
    solution = _solve(graph, wl, selection)
    end = time.perf_counter()
    state = problem.encode_state()
    return Run(
        setup_end=setup_end, end=end,
        iterations=[b - a for a, b in zip(epoch_starts, epoch_starts[1:])],
        wegr=solution.wegr, trace_text="".join(f"{e} {r!r}\n" for e, r in enumerate(trace)),
        selection_text=harness.save_selection(selection),
        allocations=[Allocation(graph, wl, selection, solution, candidates, (catalog[0],))],
        lp_attempts=len(reward_cache) + 1, failures=0,
        facts={"rl_instances": 1, "epochs": epochs, "env_calls": calls[0],
               "env_misses": len(reward_cache), "params": policy.num_parameters(),
               "active_inputs": int((state != 0).sum()), "input_dim": problem.input_dim})


def sweep_scenario(graph, seed: int, values=SWEEP_VALUES):
    return harness.Scenario(
        name="sweep-net50", graph=graph, workload_params=WorkloadParams(**SWEEP_PARAMS),
        optimizer=SWEEP_OPTIMIZER, sweep_axis="pairs_per_org", sweep_values=tuple(values),
        repetitions=SWEEP_REPETITIONS,
        seeds=tuple(range(seed, seed + SWEEP_REPETITIONS)),
        k=K, p_max=P_MAX, catalog=_catalog(), baseline_threshold=BASELINE_THRESHOLD)


def run_sweep(seed: int, values=SWEEP_VALUES) -> Run:
    """`qvpn report`: a pairs_per_org sweep of the inv-egr baseline on two
    worker threads, then the fairness report of the final point."""
    graph = _graph()
    scenario = sweep_scenario(graph, seed, values)
    setup_end = time.perf_counter()
    result = harness.run_scenario(scenario, max_workers=SWEEP_WORKERS)
    sweep_end = time.perf_counter()
    final = result.points[-1]
    if final.status == "optimal":
        final_wl = harness.point_workload(scenario, final.axis_value, final.seed)
        try:
            harness.fairness_report(final.solution, final_wl, final.selection)
        except DegenerateVarianceError:
            pass  # the CLI records this as fairness_skipped; not a failure
    end = time.perf_counter()

    idx = pathfinding.nearest_strategy_index(scenario.catalog, BASELINE_THRESHOLD)
    allocations = []
    for p in result.points:
        if p.status == "error":
            continue
        wl = harness.point_workload(scenario, p.axis_value, p.seed)
        allocations.append(Allocation(graph, wl, p.selection, p.solution, None,
                                      (scenario.catalog[idx],)))
    errors = sum(p.status == "error" for p in result.points)
    trace_text = "".join(f"{p.axis_value} {p.repetition} {p.seed} {p.status} {p.wegr!r}\n"
                         for p in result.points)
    return Run(
        setup_end=setup_end, end=end, iterations=[p.seconds for p in result.points],
        wegr=sum(p.wegr for p in result.points if p.status != "error"),
        trace_text=trace_text,
        selection_text=harness.save_selection(final.selection or {}),
        allocations=allocations, lp_attempts=len(result.points), failures=errors,
        facts={"points": len(result.points), "error_points": errors,
               "point_s_sum": sum(p.seconds for p in result.points),
               "worker_s": (sweep_end - setup_end) * SWEEP_WORKERS})


RUNNERS = {"ga-net50": run_ga, "rl-net50": run_rl, "sweep-net50": run_sweep}
