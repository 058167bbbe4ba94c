import math

import numpy as np
import pytest

from qvpn import allocation_lp
from qvpn.allocation_lp import (
    LinearProgram,
    LpCompiler,
    SolverError,
    build_problem,
    lp_backend,
    solve,
    solve_lp,
    wegr_of_selection,
)
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn.ga_optimizer import GaConfig, GaProblem, evolve, initialize_population
from qvpn.oracles import brute_force_lp
from qvpn.pathfinding import build_candidate_set, build_candidate_sets, path_from_nodes
from qvpn.quantum_math import (
    DistillationStrategy,
    NoiseParams,
    default_strategy_catalog,
    path_overhead_per_link,
)
from qvpn.topology import NetworkGraph, NodeSpec, make_link
from qvpn.workload import Organization, UserPair, Workload, WorkloadParams, generate_workload

from qvpn_helpers import make_pair
from test_acceptance import _random_bounded_lp

EASY = DistillationStrategy(0.8)  # base fidelity already 0.8, so g_link = 1


def one_org(*pairs, weight=1.0):
    return Workload(organizations=(Organization("org0", weight),),
                    user_pairs=tuple(pairs), seed=0)


def direct_selection(graph, workload, strategy=EASY):
    sel = {}
    for pair in workload.user_pairs:
        p = build_candidate_set(graph, pair, k=1)[0]
        sel[pair.key] = [(p, strategy)]
    return sel


def test_problem_structure(triangle, one_pair_workload):
    pair = one_pair_workload.user_pairs[0]
    cands = build_candidate_set(triangle, pair, k=5)
    sel = {pair.key: [(cands[0], EASY), (cands[1], EASY)]}
    prob = build_problem(triangle, one_pair_workload, sel)
    assert prob.num_variables == 2
    # objective = org weight * pair weight * q^(hops-1); q defaults to 1
    assert prob.lp.objective == pytest.approx([0.5, 0.5])
    kinds = [k for k, _ in prob.lp.row_labels]
    # three capacity rows (links touched), one rmax row; r_min=0 adds nothing
    assert kinds.count("cap") == 3
    assert kinds.count("rmax") == 1
    assert kinds.count("rmin") == 0
    cap_rows = [i for i, (k, _) in enumerate(prob.lp.row_labels) if k == "cap"]
    for i in cap_rows:
        lk = prob.lp.row_labels[i][1]
        assert prob.lp.row_bounds[i] == triangle.link_by_key[lk].capacity_eprps


def test_problem_objective_discounts_hops(triangle, one_pair_workload):
    noise = NoiseParams(swap_success_prob=0.7)
    pair = one_pair_workload.user_pairs[0]
    cands = build_candidate_set(triangle, pair, k=5)
    sel = {pair.key: [(cands[0], EASY), (cands[1], EASY)]}
    prob = build_problem(triangle, one_pair_workload, sel, noise=noise)
    # direct path q^0 = 1, two-hop detour q^1 = 0.7
    assert prob.lp.objective == pytest.approx([0.5, 0.5 * 0.7])


def test_problem_capacity_coefficients_are_overheads(triangle):
    pair = make_pair("org0", "A", "B", threshold=0.93)
    wl = one_org(pair)
    strat = DistillationStrategy(0.95)
    cands = build_candidate_set(triangle, pair, k=1)
    prob = build_problem(triangle, wl, {pair.key: [(cands[0], strat)]})
    g = path_overhead_per_link(0.8, 1, strat, 0.93).overhead
    cap_row = prob.lp.row_coeffs[0]
    assert cap_row == pytest.approx([g])
    assert g > 1.0


def test_problem_rejects_unknown_pair(triangle, one_pair_workload):
    pair = one_pair_workload.user_pairs[0]
    cands = build_candidate_set(triangle, pair, k=1)
    with pytest.raises(ValueError, match="unknown pair"):
        build_problem(triangle, one_pair_workload,
                      {("org9", "A", "B"): [(cands[0], EASY)]})


def test_problem_rejects_too_many_paths(triangle, one_pair_workload):
    pair = one_pair_workload.user_pairs[0]
    cands = build_candidate_set(triangle, pair, k=5)
    sel = {pair.key: [(cands[0], EASY), (cands[1], EASY)]}
    with pytest.raises(ValueError, match="cap is 1"):
        build_problem(triangle, one_pair_workload, sel, p_max=1)


def test_problem_rejects_endpoint_mismatch(triangle, one_pair_workload):
    stray = path_from_nodes(triangle, ("org0", "A", "C"), ("A", "C"))
    pair = one_pair_workload.user_pairs[0]
    with pytest.raises(ValueError, match="endpoints"):
        build_problem(triangle, one_pair_workload, {pair.key: [(stray, EASY)]})


def test_problem_collapses_duplicate_paths(triangle, one_pair_workload):
    pair = one_pair_workload.user_pairs[0]
    p = build_candidate_set(triangle, pair, k=1)[0]
    sel = {pair.key: [(p, EASY), (p, DistillationStrategy(0.9))]}
    prob = build_problem(triangle, one_pair_workload, sel)
    # same path twice: only the first (path, strategy) survives
    assert prob.num_variables == 1
    assert prob.variables[0][2] is EASY


def test_problem_drops_infeasible_strategy(triangle):
    # threshold unreachable within 1 round from 0.8 -> variable excluded
    pair = make_pair("org0", "A", "B", threshold=0.7)
    wl = one_org(pair)
    hard = DistillationStrategy(0.998, max_rounds=1)
    cands = build_candidate_set(triangle, pair, k=1)
    prob = build_problem(triangle, wl, {pair.key: [(cands[0], hard)]})
    assert prob.num_variables == 0
    sol = solve(prob)
    assert sol.status == "optimal" and sol.wegr == 0.0


def test_single_link_analytic_optimum(triangle, one_pair_workload):
    sel = direct_selection(triangle, one_pair_workload)
    prob = build_problem(triangle, one_pair_workload, sel)
    sol = solve(prob)
    assert sol.status == "optimal"
    cap = triangle.link_by_key[("A", "B")].capacity_eprps
    # g = 1 on the direct link, so the rate saturates the capacity
    key = (one_pair_workload.user_pairs[0].key, ("A", "B"))
    assert sol.rates[key] == pytest.approx(cap, rel=1e-9)
    assert sol.wegr == pytest.approx(0.5 * cap, rel=1e-9)
    assert sol.true_egr_per_pair[key[0]] == pytest.approx(cap, rel=1e-9)


def test_infeasible_rmin_reports_zero(triangle):
    pair = make_pair("org0", "A", "B", r_min=1e9)  # far above any capacity
    wl = one_org(pair)
    sol = solve(build_problem(triangle, wl, direct_selection(triangle, wl)))
    assert sol.status == "infeasible"
    assert sol.wegr == 0.0
    assert sol.rates == {}
    assert sol.true_egr_per_pair == {pair.key: 0.0}


def test_rmax_binds(triangle):
    pair = make_pair("org0", "A", "B", r_max=1000.0)
    wl = one_org(pair)
    sol = solve(build_problem(triangle, wl, direct_selection(triangle, wl)))
    assert sol.status == "optimal"
    assert sum(sol.rates.values()) == pytest.approx(1000.0, rel=1e-9)


def test_rmin_forces_unprofitable_pair(triangle):
    # pair2 has tiny weight but a hard floor; the solver must fund it anyway
    p1 = make_pair("org0", "A", "B", weight=1.0)
    p2 = make_pair("org0", "A", "C", weight=1e-6, r_min=500.0)
    wl = one_org(p1, p2)
    sol = solve(build_problem(triangle, wl, direct_selection(triangle, wl)))
    assert sol.status == "optimal"
    assert sol.true_egr_per_pair[p2.key] >= 500.0 - 1e-6


def test_shared_link_prefers_heavier_weight(triangle):
    # both pairs route over A-C; the 0.1-weight pair should get starved
    pa = make_pair("org0", "A", "C", weight=0.9)
    pb = make_pair("org0", "B", "C", weight=0.1)
    wl = one_org(pa, pb)
    direct = build_candidate_set(triangle, pa, k=1)[0]
    detour = path_from_nodes(triangle, pb.key, ("B", "A", "C"))
    sel = {pa.key: [(direct, EASY)], pb.key: [(detour, EASY)]}
    sol = solve(build_problem(triangle, wl, sel))
    assert sol.status == "optimal"
    cap = triangle.link_by_key[("A", "C")].capacity_eprps
    assert sol.rates[(pa.key, ("A", "C"))] == pytest.approx(cap, rel=1e-6)
    assert sol.true_egr_per_pair[pb.key] <= 1e-6 * cap


def test_wegr_is_weighted_sum_of_true_egr(triangle):
    pa = make_pair("orgA", "A", "B", weight=0.7, threshold=0.75)
    pb = make_pair("orgB", "A", "C", weight=0.4, threshold=0.8)
    wl = Workload(organizations=(Organization("orgA", 0.6), Organization("orgB", 1.0)),
                  user_pairs=(pa, pb), seed=0)
    sel = direct_selection(triangle, wl)
    sol = solve(build_problem(triangle, wl, sel))
    assert sol.status == "optimal"
    want = 0.6 * 0.7 * sol.true_egr_per_pair[pa.key] + 1.0 * 0.4 * sol.true_egr_per_pair[pb.key]
    assert sol.wegr == pytest.approx(want, rel=1e-9)


def test_true_egr_scales_with_swap_success(triangle, one_pair_workload):
    noise = NoiseParams(swap_success_prob=0.6)
    pair = one_pair_workload.user_pairs[0]
    detour = build_candidate_set(triangle, pair, k=5)[1]
    assert detour.hop_count == 2
    sel = {pair.key: [(detour, EASY)]}
    sol = solve(build_problem(triangle, one_pair_workload, sel, noise=noise))
    raw = sum(sol.rates.values())
    # one swap on the two-hop path: true EGR = q * raw rate
    assert sol.true_egr_per_pair[pair.key] == pytest.approx(0.6 * raw, rel=1e-9)


def test_solve_lp_no_rows(triangle):
    # an LP with variables but no rows is unbounded in theory; build_problem
    # always emits capacity rows, so exercise solve_lp's row plumbing instead
    prob = build_problem(triangle, one_org(make_pair("org0", "A", "B")),
                         direct_selection(triangle, one_org(make_pair("org0", "A", "B"))))
    status, x = solve_lp(prob.lp)
    assert status == "optimal"
    assert len(x) == prob.num_variables


def test_empty_selection_no_floor_is_trivially_optimal(triangle, one_pair_workload):
    prob = build_problem(triangle, one_pair_workload, {})
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.wegr == 0.0


def test_empty_selection_with_floor_is_infeasible(triangle):
    pair = make_pair("org0", "A", "B", r_min=5.0)
    prob = build_problem(triangle, one_org(pair), {})
    assert solve(prob).status == "infeasible"


def test_wegr_of_selection_matches_solve(triangle, one_pair_workload):
    sel = direct_selection(triangle, one_pair_workload)
    direct = wegr_of_selection(triangle, one_pair_workload, sel)
    via_solve = solve(build_problem(triangle, one_pair_workload, sel)).wegr
    assert direct == via_solve


def _random_small_problem(rng):
    """Random graph + selection with <= 6 LP variables for the vertex oracle."""
    ids = ["h0", "h1", "h2", "h3", "h4"]
    nodes = tuple(NodeSpec(i) for i in ids)
    links = {}
    order = rng.permutation(5)
    for a, b in zip(order, order[1:]):
        key = tuple(sorted((ids[a], ids[b])))
        links[key] = make_link(key[0], key[1], float(rng.uniform(2.0, 30.0)))
    while len(links) < 7:
        a, b = rng.choice(5, size=2, replace=False)
        key = tuple(sorted((ids[a], ids[b])))
        if key not in links:
            links[key] = make_link(key[0], key[1], float(rng.uniform(2.0, 30.0)))
    graph = NetworkGraph(nodes=nodes, links=tuple(links.values()))

    num_pairs = int(rng.integers(1, 4))
    pairs = []
    used = set()
    while len(pairs) < num_pairs:
        a, b = rng.choice(5, size=2, replace=False)
        if (ids[a], ids[b]) in used or (ids[b], ids[a]) in used:
            continue
        used.add((ids[a], ids[b]))
        r_min = float(rng.uniform(0.0, 5e4)) if rng.random() < 0.3 else 0.0
        r_max = float(rng.uniform(1e5, 5e5)) if rng.random() < 0.5 else math.inf
        pairs.append(UserPair("org0", (ids[a], ids[b]),
                              weight=float(rng.uniform(0.3, 0.7)),
                              fidelity_threshold=float(rng.uniform(0.72, 0.85)),
                              r_min=r_min, r_max=r_max))
    wl = one_org(*pairs, weight=float(rng.uniform(0.5, 1.0)))

    per_pair = max(1, 6 // num_pairs)
    strategies = (EASY, DistillationStrategy(0.85), DistillationStrategy(0.9))
    sel = {}
    for pair in pairs:
        cands = build_candidate_set(graph, pair, k=3)
        picks = []
        for p in cands[:per_pair]:
            picks.append((p, strategies[int(rng.integers(0, 3))]))
        sel[pair.key] = picks
    return graph, wl, sel


def test_random_problems_match_vertex_oracle():
    # cross-check the scipy path against brute-force vertex enumeration
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(60):
        graph, wl, sel = _random_small_problem(rng)
        prob = build_problem(graph, wl, sel, p_max=6)
        if not (0 < prob.num_variables <= 6) or len(prob.lp.row_bounds) > 10:
            continue
        want_val, _ = brute_force_lp(prob.lp.objective, prob.lp.row_coeffs,
                                     prob.lp.row_bounds)
        sol = solve(prob)
        if want_val is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.wegr == pytest.approx(want_val, rel=1e-6, abs=1e-9)
        checked += 1
    assert checked >= 30


def test_solution_rates_respect_capacities():
    rng = np.random.default_rng(7)
    for trial in range(15):
        graph, wl, sel = _random_small_problem(rng)
        prob = build_problem(graph, wl, sel, p_max=6)
        sol = solve(prob)
        if sol.status != "optimal":
            continue
        loads = {}
        for j, (pair_key, path, strategy) in enumerate(prob.variables):
            r = sol.rates[(pair_key, path.nodes)]
            coeffs = dict(zip(path.link_keys, prob.lp.row_coeffs[:, j][
                [i for i, (k, _) in enumerate(prob.lp.row_labels) if k == "cap"]]))
            for lk in path.link_keys:
                loads[lk] = loads.get(lk, 0.0) + coeffs[lk] * r
        for lk, load in loads.items():
            assert load <= graph.link_by_key[lk].capacity_eprps * (1 + 1e-6) + 1e-6


# ------------------------------------------------------- compiler and solver routes

def test_compiled_lp_does_not_depend_on_memo_state():
    rng = np.random.default_rng(11)
    for trial in range(10):
        graph, wl, sel = _random_small_problem(rng)
        compiler = LpCompiler(graph, wl, p_max=6)
        # fill the memo with other choices first, in reverse pair order
        compiler.compile({k: v[::-1] for k, v in reversed(sel.items())})
        warm = compiler.compile(sel).lp
        cold = build_problem(graph, wl, sel, p_max=6).lp
        for name in ("objective", "indptr", "indices", "data", "row_bounds"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name)), (trial, name)
        assert warm.row_labels == cold.row_labels


def test_csc_layout_and_dense_view():
    rng = np.random.default_rng(5)
    for _ in range(10):
        graph, wl, sel = _random_small_problem(rng)
        lp = build_problem(graph, wl, sel, p_max=6).lp
        for j in range(len(lp.objective)):
            rows = lp.indices[lp.indptr[j]:lp.indptr[j + 1]]
            assert np.all(np.diff(rows) > 0)
        again = LinearProgram.from_dense(lp.objective, lp.row_coeffs, lp.row_bounds)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(again, name), getattr(lp, name))


@pytest.fixture(params=["highs", "linprog"])
def lp_route(request, monkeypatch):
    """Run a test on the direct HiGHS route and on the linprog fallback."""
    if request.param == "linprog":
        monkeypatch.setattr(allocation_lp, "_highs", None)
    elif allocation_lp._highs is None:
        pytest.skip("this scipy has no bundled HiGHS binding")
    assert lp_backend() == request.param
    return request.param


def _both_routes(monkeypatch, run):
    direct = run()
    with monkeypatch.context() as m:
        m.setattr(allocation_lp, "_highs", None)
        fallback = run()
    return direct, fallback


def test_routes_agree_bitwise_and_with_vertex_oracle(monkeypatch):
    if allocation_lp._highs is None:
        pytest.skip("this scipy has no bundled HiGHS binding")
    rng = np.random.default_rng(2024)
    for i in range(100):
        lp = _random_bounded_lp(rng)
        (status, x), (fb_status, fb_x) = _both_routes(monkeypatch, lambda: solve_lp(lp))
        assert status == fb_status, i
        best, _ = brute_force_lp(lp.objective, lp.row_coeffs, lp.row_bounds)
        if status == "infeasible":
            assert x is None and fb_x is None and best is None, i
        else:
            assert x.tobytes() == fb_x.tobytes(), i
            assert abs(float(lp.objective @ x) - best) <= 1e-4 * max(abs(best), 1.0), i


def test_routes_give_the_same_ga_trace(monkeypatch):
    if allocation_lp._highs is None:
        pytest.skip("this scipy has no bundled HiGHS binding")
    net10 = bundled_topology(TOPOLOGY_10)
    catalog = default_strategy_catalog()
    wl = generate_workload(net10, WorkloadParams(num_orgs=3, pairs_per_org=10, r_min=0.0), 1)
    candidates = build_candidate_sets(net10, wl, k=5)
    config = GaConfig(population_size=16, generations=10, seed=1)

    def run():
        problem = GaProblem(net10, wl, candidates, catalog, p_max=3)
        return evolve(initialize_population(problem, config), config, problem)

    direct, fallback = _both_routes(monkeypatch, run)
    assert direct.best_fitness == fallback.best_fitness
    assert direct.mean_fitness == fallback.mean_fitness
    assert direct.best_genome == fallback.best_genome


def test_unbounded_lp_raises_solver_error(lp_route):
    lp = LinearProgram.from_dense([1.0, 2.0], np.zeros((0, 2)), [])
    with pytest.raises(SolverError):
        solve_lp(lp)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coefficient_is_rejected(lp_route, bad):
    for lp in (LinearProgram.from_dense([1.0, 1.0], [[1.0, bad]], [5.0]),
               LinearProgram.from_dense([bad, 1.0], [[1.0, 1.0]], [5.0]),
               LinearProgram.from_dense([1.0, 1.0], [[1.0, 1.0]], [bad])):
        with pytest.raises(ValueError):
            solve_lp(lp)


def test_infeasible_rmin_row_on_both_routes(lp_route, triangle):
    # the direct A-B link carries about 2.5e5 EPR/s, far below the floor
    pair = make_pair("org0", "A", "B", r_min=1e8, r_max=1e9)
    prob = build_problem(triangle, one_org(pair), direct_selection(triangle, one_org(pair)))
    assert solve_lp(prob.lp) == ("infeasible", None)
    assert solve(prob).status == "infeasible"
