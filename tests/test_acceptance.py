"""Toolkit acceptance: ten guarantees, one test and one verdict line each.

Run with `pytest -v tests/test_acceptance.py` to get a ten-line scorecard.
Every tolerance asserted here is part of the shipped contract; the slow
tests (GA dominance, monotonicity) also enforce their runtime budgets.
"""

import json
import time

import numpy as np

from qvpn.allocation_lp import (LinearProgram, LpCompiler, build_problem, solve, solve_lp,
                                wegr_of_selection)
from qvpn.cli import main
from qvpn.fixtures import TOPOLOGY_10, TOPOLOGY_50, bundled_topology
from qvpn.harness import fairness_report, pearson
from qvpn.oracles import brute_force_lp, simulate_purification
from qvpn.pathfinding import (WeightScheme, baseline_selection, build_candidate_sets,
                              nearest_strategy_index)
from qvpn.quantum_math import (FIDELITY_ATOL, BellDiagonalState, DistillationStrategy,
                               NoiseParams, default_strategy_catalog, purification_overhead,
                               purify_step, swap_chain_fidelity, werner)
from qvpn.topology import NetworkGraph, NodeSpec, link_capacity, make_link, save_topology
from qvpn.workload import (Organization, UserPair, Workload, WorkloadParams,
                           generate_workload, save_workload)
from qvpn import ga_optimizer as ga
from qvpn import rl_optimizer as rl

BASELINE_SCHEMES = (WeightScheme.HOP, WeightScheme.INV_EGR, WeightScheme.INV_EGR_SQ)


def _verdict(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _random_bell_diagonal(rng):
    # fidelity-dominant Bell-diagonal state, F biased above 0.25
    coeffs = np.sort(rng.dirichlet((2.0, 1.0, 1.0, 1.0)))[::-1]
    return BellDiagonalState(tuple(float(c) for c in coeffs))


def test_01_purification_matches_density_matrix_oracle():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        state = _random_bell_diagonal(rng)
        got, p_got = purify_step(state, state)
        want, p_want = simulate_purification(state, state)
        worst = max(worst, abs(got.fidelity - want.fidelity), abs(p_got - p_want))
        assert abs(got.fidelity - want.fidelity) <= 1e-10
        assert abs(p_got - p_want) <= 1e-10
    elapsed = time.perf_counter() - start
    _verdict("purify_step vs 16-dim oracle, 50 random states",
             worst <= 1e-10 and elapsed < 5.0,
             f"worst diff {worst:.2e}, {elapsed:.2f}s")


def test_02_overhead_equals_product_of_inverse_success():
    worst = 0.0
    for fid in np.linspace(0.55, 0.9, 10):
        for target in np.linspace(0.6, 0.97, 10):
            state = werner(float(fid))
            product = 1.0
            rounds = 0
            # same stopping rule as the implementation, stepped by the oracle
            while state.fidelity < target - FIDELITY_ATOL:
                state, p = simulate_purification(state, state)
                product *= 2.0 / p
                rounds += 1
                assert rounds <= 20
            result = purification_overhead(float(fid), float(target))
            assert result.feasible
            worst = max(worst, abs(result.overhead - product))
            assert abs(result.overhead - product) <= 1e-8
    for fid in (0.55, 0.7, 0.87, 0.97):
        same = purification_overhead(fid, fid)
        assert same.overhead == 1.0 and same.rounds == 0
    _verdict("distillation overhead = prod 2/p_k on 10x10 grid, g(F,F)=1",
             worst <= 1e-8, f"worst diff {worst:.2e}")


def test_03_swap_chain_hand_values():
    noisy = swap_chain_fidelity(0.8, 2, NoiseParams(measurement_fidelity=0.99))
    ideal = NoiseParams(two_qubit_gate_fidelity=1.0, measurement_fidelity=1.0)
    identity_ok = all(swap_chain_fidelity(f, 1, ideal) == f
                      for f in (0.6, 0.8, 0.97, 1.0))
    _verdict("swap fidelity pins (0.8 over 2 links -> 0.64263, N=1 identity)",
             abs(noisy - 0.64263) <= 1e-5 and identity_ok,
             f"got {noisy:.7f}")


def test_04_capacity_parameterization_and_multiplex():
    cap = link_capacity(10.0, alpha=0.2, beta_db_per_km=0.2, repetition_time_s=1e-6)
    tripled = link_capacity(10.0, alpha=0.2, beta_db_per_km=0.2,
                            repetition_time_s=1e-6, multiplex=3)
    linear = tripled == 3.0 * cap
    _verdict("10 km link capacity ~252382 EPR/s, multiplex exactly linear",
             abs(cap - 252382.0) <= 1.0 and linear,
             f"got {cap:.3f}, 3x exact: {linear}")


def _random_bounded_lp(rng):
    """<=6 vars, <=8 rows; every variable capped so the LP is never unbounded."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 9))
    rows = np.zeros((m, n))
    bounds = np.zeros(m)
    cap_rows = [0]
    rows[0] = rng.uniform(0.1, 2.0, n)
    bounds[0] = float(rng.uniform(0.5, 5.0))
    for j in range(1, m):
        if rng.random() < 0.25:
            # lower-bound row, may contradict the caps
            rows[j, rng.integers(n)] = -1.0
            bounds[j] = float(rng.uniform(-3.0, 0.5))
        else:
            rows[j] = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 2.0, n))
            bounds[j] = float(rng.uniform(0.5, 5.0))
            cap_rows.append(j)
    for i in range(n):
        if not any(rows[j][i] > 0 for j in cap_rows):
            rows[cap_rows[int(rng.integers(len(cap_rows)))], i] = float(rng.uniform(0.1, 2.0))
    return LinearProgram.from_dense(objective=rng.uniform(0.1, 1.0, n),
                                    row_coeffs=rows, row_bounds=bounds)


def test_05_lp_solver_matches_vertex_enumeration():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    infeasible = 0
    worst = 0.0
    for i in range(100):
        lp = _random_bounded_lp(rng)
        best, _ = brute_force_lp(lp.objective, lp.row_coeffs, lp.row_bounds)
        status, x = solve_lp(lp)
        if status == "infeasible":
            assert best is None, f"instance {i}: solver infeasible, oracle found {best}"
            infeasible += 1
        else:
            assert best is not None, f"instance {i}: solver optimal, oracle infeasible"
            rel = abs(float(lp.objective @ x) - best) / max(abs(best), 1.0)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"instance {i}: rel err {rel:.2e}"
    elapsed = time.perf_counter() - start
    _verdict("LP optimum vs brute force on 100 random instances",
             worst <= 1e-4 and elapsed < 60.0,
             f"{infeasible} infeasible, worst rel {worst:.2e}, {elapsed:.1f}s")


def _seeded_baselines(graph, workload, candidates, catalog, p_max):
    idx = nearest_strategy_index(catalog, 0.992)
    out = []
    for scheme in BASELINE_SCHEMES:
        out.append(baseline_selection(graph, workload, candidates, scheme,
                                      p_max=p_max, strategy_index=idx, catalog=catalog))
    return out


def test_06_ga_dominates_every_baseline():
    net10 = bundled_topology(TOPOLOGY_10)
    catalog = default_strategy_catalog()
    params = WorkloadParams(num_orgs=3, pairs_per_org=10, r_min=0.0)
    start = time.perf_counter()
    improvements = []
    for seed in range(4):
        workload = generate_workload(net10, params, seed)
        candidates = build_candidate_sets(net10, workload, k=5)
        baselines = _seeded_baselines(net10, workload, candidates, catalog, p_max=3)
        compiler = LpCompiler(net10, workload, p_max=3)
        base_wegrs = [wegr_of_selection(compiler, compiler.column_ids(sel)) for sel in baselines]
        problem = ga.GaProblem(net10, workload, candidates, catalog, p_max=3)
        config = ga.GaConfig(population_size=50, generations=200, seed=seed)
        population = ga.initialize_population(problem, config, seed_heuristics=baselines)
        trace = ga.evolve(population, config, problem)
        for w in base_wegrs:
            # baselines sit in the initial population; elitism keeps them beaten
            assert trace.best_wegr >= w * (1.0 - 1e-12), (seed, trace.best_wegr, w)
        improvements.append((trace.best_wegr - max(base_wegrs)) / max(base_wegrs))
    elapsed = time.perf_counter() - start
    mean_improvement = sum(improvements) / len(improvements)
    _verdict("GA >= every baseline on 4 instances, mean improvement > 0",
             mean_improvement > 0.0 and elapsed < 600.0,
             f"improvements {[f'{100*v:.0f}%' for v in improvements]}, {elapsed:.0f}s")


def _ga_best(graph, workload, candidates, catalog, p_max, extra_seed):
    seeds = _seeded_baselines(graph, workload, candidates, catalog, p_max)
    if extra_seed is not None:
        seeds.append(extra_seed)
    problem = ga.GaProblem(graph, workload, candidates, catalog, p_max=p_max)
    config = ga.GaConfig(population_size=24, generations=40, seed=7)
    population = ga.initialize_population(problem, config, seed_heuristics=seeds)
    trace = ga.evolve(population, config, problem)
    return trace.best_wegr, problem.decode(trace.best_genome)


def test_07_wegr_monotone_in_p_max_and_strategies():
    net10 = bundled_topology(TOPOLOGY_10)
    catalog = default_strategy_catalog()
    workload = generate_workload(net10, WorkloadParams(num_orgs=3, pairs_per_org=10,
                                                       r_min=0.0), 0)
    candidates = build_candidate_sets(net10, workload, k=5)

    # each level seeds the next, so the optimum can only grow
    prev = None
    by_p_max = []
    for p_max in (1, 2, 3):
        w, prev = _ga_best(net10, workload, candidates, catalog, p_max, prev)
        by_p_max.append(w)
    prev = None
    by_count = []
    for count in (1, 4, 16):
        w, prev = _ga_best(net10, workload, candidates, catalog[:count], 3, prev)
        by_count.append(w)
    mono_p = all(b >= a * (1.0 - 1e-9) for a, b in zip(by_p_max, by_p_max[1:]))
    mono_s = all(b >= a * (1.0 - 1e-9) for a, b in zip(by_count, by_count[1:]))

    # a pair whose floor exceeds what any single path can deliver
    thin = NetworkGraph(nodes=(NodeSpec("A"), NodeSpec("B")),
                        links=(make_link("A", "B", 200.0),))
    demand = Workload(
        organizations=(Organization("solo", 1.0),),
        user_pairs=(UserPair("solo", ("A", "B"), weight=0.5,
                             fidelity_threshold=0.95, r_min=10.0, r_max=1e9),),
        seed=0)
    thin_cands = build_candidate_sets(thin, demand, k=5)
    infeasible_ok = True
    for idx in range(len(catalog)):
        sel = baseline_selection(thin, demand, thin_cands, WeightScheme.HOP,
                                 p_max=1, strategy_index=idx, catalog=catalog)
        solution = solve(build_problem(thin, demand, sel, p_max=1))
        infeasible_ok &= solution.status == "infeasible" and solution.wegr == 0.0
    _verdict("W-EGR nondecreasing in P_max and strategy count; floor unreachable "
             "by one path -> W-EGR 0",
             mono_p and mono_s and infeasible_ok,
             f"p_max {[f'{w:.0f}' for w in by_p_max]}, "
             f"strategies {[f'{w:.0f}' for w in by_count]}")


def _toy_two_path_problem():
    nodes = (NodeSpec("A"), NodeSpec("B"), NodeSpec("C", is_repeater=True))
    links = (make_link("A", "B", 10.0), make_link("A", "C", 10.0),
             make_link("C", "B", 10.0))
    graph = NetworkGraph(nodes=nodes, links=links)
    workload = Workload(
        organizations=(Organization("org0", 1.0),),
        user_pairs=(UserPair("org0", ("A", "B"), weight=0.5,
                             fidelity_threshold=0.7, r_min=0.0, r_max=1e9),),
        seed=0)
    candidates = build_candidate_sets(graph, workload, k=5)
    return rl.RlProblem(workload, candidates, DistillationStrategy(0.8), p_max=1)


def test_08_policy_gradient_correctness():
    # analytic gradients vs central differences on 20 random policies
    worst = 0.0
    toy = _toy_two_path_problem()
    rng = np.random.default_rng(11)
    for trial in range(20):
        hidden = ((), (4,), (6,))[trial % 3]
        policy = rl.PolicyNetwork.init(toy, hidden=hidden, seed=trial)
        actions, _, _ = rl.sample_action(policy, toy, np.random.default_rng(trial))
        advantage = float(rng.normal(0.0, 2.0))
        beta = 0.1 if trial % 2 else 0.0
        err = rl.gradient_check(policy, toy, actions, advantage, beta)
        worst = max(worst, err)
        assert err < 1e-4, f"trial {trial}: gradient error {err:.2e}"

    # the 10x-reward direct path must dominate the learned distribution
    pair = toy.pair_order[0]
    direct = next(i for i, p in enumerate(toy.candidates[pair]) if p.hop_count == 1)

    def env(selection):
        path, _ = selection[pair][0]
        return 10.0 if path.hop_count == 1 else 1.0

    learned = []
    for seed in (1, 2, 3):
        policy = rl.PolicyNetwork.init(toy, hidden=(8,), seed=seed)
        config = rl.TrainConfig(learning_rate=0.01, epochs=2000, batch_size=4,
                                entropy_beta=0.01, seed=seed)
        rl.train(policy, toy, config, env)
        logits, _ = policy.forward(toy.encode_state())
        start, _ = toy.block_slices[0]
        learned.append(float(policy.block_probs(logits)[start + direct]))
    converged = all(p > 0.9 for p in learned)

    # train's baseline is the exact mean of every reward it has seen: their
    # sum in call order over their count
    draws = np.random.default_rng(5)
    seen = []

    def noisy(selection):
        seen.append(float(draws.uniform(-3.0, 9.0)))
        return seen[-1]

    policy = rl.PolicyNetwork.init(toy, hidden=(4,), seed=0)
    _, _, baseline = rl.train(policy, toy, rl.TrainConfig(epochs=50, batch_size=4), noisy)
    total = 0.0
    for reward in seen:
        total += reward
    exact = len(seen) == 200 and baseline == total / len(seen)

    _verdict("gradient check < 1e-4 (20 policies), toy P(dominant) > 0.9 (3/3 "
             "seeds), baseline = running mean",
             worst < 1e-4 and converged and exact,
             f"worst grad {worst:.1e}, P(direct) {[f'{p:.3f}' for p in learned]}")


def test_09_fairness_correlation_signs():
    r = pearson((1.0, 2.0, 3.0, 4.0, 5.0), (2.0, 4.0, 5.0, 4.0, 5.0))
    pin = abs(r - 0.7745966692414834) <= 1e-12

    net50 = bundled_topology(TOPOLOGY_50)
    workload = generate_workload(net50, WorkloadParams(num_orgs=3, pairs_per_org=50,
                                                       r_min=0.0), 0)
    candidates = build_candidate_sets(net50, workload, k=5)
    catalog = default_strategy_catalog()
    selection = baseline_selection(net50, workload, candidates, WeightScheme.HOP,
                                   p_max=3,
                                   strategy_index=nearest_strategy_index(catalog, 0.992),
                                   catalog=catalog)
    solution = solve(build_problem(net50, workload, selection, p_max=3))
    assert solution.status == "optimal"
    report = fairness_report(solution, workload, selection)
    signs = (report.corr_fidelity < 0.0 and report.corr_hops < 0.0
             and report.corr_composite > 0.0)
    _verdict("pearson pin to 1e-12; EGR anti-correlates with threshold and "
             "hops, correlates with composite demand",
             pin and signs,
             f"fidelity {report.corr_fidelity:+.3f}, hops {report.corr_hops:+.3f}, "
             f"composite {report.corr_composite:+.3f}")


def test_10_cli_runs_are_byte_identical(tmp_path):
    nodes = (NodeSpec("A"), NodeSpec("B"), NodeSpec("C", is_repeater=True))
    links = (make_link("A", "B", 10.0), make_link("A", "C", 10.0),
             make_link("C", "B", 10.0))
    topo = tmp_path / "net.topo"
    topo.write_text(save_topology(NetworkGraph(nodes=nodes, links=links)))
    workload = Workload(
        organizations=(Organization("org1", 0.8), Organization("org2", 1.0)),
        user_pairs=(
            UserPair("org1", ("A", "B"), weight=0.5, fidelity_threshold=0.7,
                     r_min=0.0, r_max=1e9),
            UserPair("org2", ("A", "C"), weight=0.9, fidelity_threshold=0.75,
                     r_min=0.0, r_max=1000.0),
        ),
        seed=0)
    wlf = tmp_path / "demo.workload"
    wlf.write_text(save_workload(workload))

    base = {"version": 1, "seed": 3, "topology": str(topo), "workload": str(wlf)}
    configs = {
        "allocate": dict(base, source={"baseline": "inv-egr"}),
        "ga": dict(base, p_max=2, strategy_count=4,
                   ga={"population_size": 8, "generations": 3}),
        "rl": dict(base, p_max=1, hidden=[4], rl={"epochs": 4, "batch_size": 2}),
        "report": dict(base, optimizer="baseline-hop", repetitions=2,
                       sweep={"axis": "p_max", "values": [1, 2]}),
    }
    compared = 0
    for command, config in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        first = tmp_path / f"{command}_1"
        second = tmp_path / f"{command}_2"
        assert main([command, "--config", str(cfg), "--out", str(first)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(second)]) == 0
        outputs = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
        assert any(name.endswith(".csv") for name in outputs)
        for name in outputs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), \
                f"{command}/{name} differs between identical runs"
            compared += 1
    _verdict("repeated CLI runs byte-identical (allocate, ga, rl, report)",
             compared > 0, f"{compared} files compared")
