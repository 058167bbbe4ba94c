import math
from dataclasses import replace

import numpy as np
import pytest

import verifier
from qvpn.allocation_lp import build_problem, solve
from qvpn.fixtures import bundled_topology
from qvpn.pathfinding import WeightScheme, baseline_selection, build_candidate_sets
from qvpn.quantum_math import default_strategy_catalog
from qvpn.workload import WorkloadParams, generate_workload


@pytest.fixture(scope="module")
def allocation():
    # no R_max rows, so the optimum is held by capacity rows
    graph = bundled_topology()
    wl = generate_workload(graph, WorkloadParams(num_orgs=2, pairs_per_org=6, r_min=0.0,
                                                 r_max=math.inf), seed=3)
    catalog = tuple(default_strategy_catalog())
    candidates = build_candidate_sets(graph, wl, k=3)
    selection = baseline_selection(graph, wl, candidates, WeightScheme.INV_EGR, p_max=3,
                                   strategy_index=8, catalog=catalog)
    solution = solve(build_problem(graph, wl, selection, p_max=3))
    assert solution.status == "optimal" and solution.wegr > 0
    return graph, wl, selection, solution, candidates, catalog


def test_correct_allocation_passes(allocation):
    graph, wl, selection, solution, _, _ = allocation
    verdict = verifier.verify_allocation(graph, wl, selection, solution)
    assert verdict.ok, verdict.problems
    assert verdict.objective == pytest.approx(solution.wegr, rel=1e-6)


def _rate_on_bound_link(graph, wl, selection, solution):
    cols = verifier._columns(graph, wl, selection, verifier.DEFAULT_NOISE, dedupe_paths=True)
    A, b, kinds = verifier._rows(graph, wl, cols)
    x = np.array([solution.rates.get((c.pair_key, c.nodes), 0.0) for c in cols])
    lhs = A @ x
    for row, (kind, _) in enumerate(kinds):
        if kind == "cap" and lhs[row] >= b[row] * (1 - 1e-7):
            for j in A.getrow(row).indices:
                if x[j] > 1e-6:
                    return cols[j].pair_key, cols[j].nodes
    raise AssertionError("no positive rate on a binding capacity row")


def test_rate_over_capacity_is_rejected(allocation):
    graph, wl, selection, solution, _, _ = allocation
    key = _rate_on_bound_link(graph, wl, selection, solution)
    rates = dict(solution.rates)
    rates[key] *= 1.01
    verdict = verifier.verify_allocation(graph, wl, selection, replace(solution, rates=rates))
    assert not verdict.ok
    assert any(p.startswith("cap row") for p in verdict.problems)


def test_wrong_objective_is_rejected(allocation):
    graph, wl, selection, solution, _, _ = allocation
    wrong = replace(solution, wegr=solution.wegr * (1 + 1e-4))
    verdict = verifier.verify_allocation(graph, wl, selection, wrong)
    assert not verdict.ok
    assert any(p.startswith("objective") for p in verdict.problems)


def test_negative_rate_and_wrong_status_are_rejected(allocation):
    graph, wl, selection, solution, _, _ = allocation
    key = next(iter(solution.rates))
    rates = dict(solution.rates)
    rates[key] = -1e-3
    assert not verifier.verify_allocation(graph, wl, selection,
                                          replace(solution, rates=rates)).ok
    assert not verifier.verify_allocation(graph, wl, selection,
                                          replace(solution, status="infeasible")).ok


def test_relaxation_bound_is_above_the_selection(allocation):
    graph, wl, selection, solution, candidates, catalog = allocation
    bound = verifier.relaxation_bound(graph, wl, candidates, catalog)
    assert bound >= solution.wegr * (1 - 1e-9)
