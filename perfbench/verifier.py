"""Independent check of a final allocation.

The LP is rebuilt here from its inputs (per-link overheads from
quantum_math.path_overhead_per_link, capacities from the topology, weights
and rate bounds from the workload) without qvpn.allocation_lp, then solved
with scipy.optimize.linprog. A reported allocation passes when the status
matches, the objective agrees within OBJ_RTOL, and the reported rates are
feasible: capacity rows within FEAS_RTOL, x >= -NEG_TOL, R_min/R_max held.

The same column builder gives a relaxation bound: the LP over every
candidate path with every strategy the optimizer may pick, without the
p_max cap. Any selection's LP uses a subset of those columns, so its W-EGR
cannot exceed the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from qvpn.quantum_math import DEFAULT_NOISE, path_overhead_per_link

OBJ_RTOL = 1e-6
FEAS_RTOL = 1e-6
NEG_TOL = 1e-9
RATE_EPS = 1e-9


@dataclass(frozen=True)
class Column:
    pair_key: tuple
    nodes: tuple
    link_keys: tuple
    overheads: tuple
    objective: float


@dataclass(frozen=True)
class Verdict:
    ok: bool
    status: str
    objective: float
    problems: tuple


def _columns(graph, workload, choices, noise, dedupe_paths):
    """choices: {pair_key: [(path, strategy), ...]} -> feasible Columns.

    With dedupe_paths a pair's repeated path keeps its first strategy, as a
    selection does; without it every (path, strategy) is its own column.
    """
    pairs = {p.key: p for p in workload.user_pairs}
    orgs = {o.id: o for o in workload.organizations}
    q = noise.swap_success_prob
    cols = []
    for pair_key in sorted(choices):
        pair = pairs[pair_key]
        seen = set()
        for path, strategy in choices[pair_key]:
            ident = path.link_keys if dedupe_paths else (path.link_keys, strategy)
            if ident in seen:
                continue
            seen.add(ident)
            overheads = []
            for lk in path.link_keys:
                res = path_overhead_per_link(graph.link_by_key[lk].base_fidelity,
                                             len(path.link_keys), strategy,
                                             pair.fidelity_threshold, noise)
                if not res.feasible:
                    break
                overheads.append(res.overhead)
            else:
                weight = orgs[pair.org_id].weight * pair.weight
                cols.append(Column(pair_key, tuple(path.nodes), tuple(path.link_keys),
                                   tuple(overheads),
                                   weight * q ** (len(path.link_keys) - 1)))
    return cols


def _rows(graph, workload, cols):
    """(A, b, kinds) for A x <= b: capacity rows, then R_min and R_max rows."""
    links = sorted({lk for c in cols for lk in c.link_keys})
    link_row = {lk: i for i, lk in enumerate(links)}
    data, ri, ci = [], [], []
    bounds = [graph.link_by_key[lk].capacity_eprps for lk in links]
    kinds = [("cap", lk) for lk in links]
    for j, c in enumerate(cols):
        for lk, g in zip(c.link_keys, c.overheads):
            data.append(g)
            ri.append(link_row[lk])
            ci.append(j)
    by_pair = {}
    for j, c in enumerate(cols):
        by_pair.setdefault(c.pair_key, []).append(j)
    for pair in workload.user_pairs:
        members = by_pair.get(pair.key, [])
        if pair.r_min > 0:
            row = len(bounds)
            data.extend([-1.0] * len(members))
            ri.extend([row] * len(members))
            ci.extend(members)
            bounds.append(-pair.r_min)
            kinds.append(("rmin", pair.key))
        if math.isfinite(pair.r_max):
            row = len(bounds)
            data.extend([1.0] * len(members))
            ri.extend([row] * len(members))
            ci.extend(members)
            bounds.append(pair.r_max)
            kinds.append(("rmax", pair.key))
    A = csr_matrix((data, (ri, ci)), shape=(len(bounds), len(cols)))
    return A, np.array(bounds, dtype=float), kinds


def _solve(A, b, c):
    """-> ("optimal", objective) or ("infeasible", 0.0); raises on failure."""
    if A.shape[1] == 0:
        return ("optimal", 0.0) if np.all(b >= 0) else ("infeasible", 0.0)
    res = linprog(-c, A_ub=A if A.shape[0] else None, b_ub=b if A.shape[0] else None,
                  bounds=(0, None), method="highs")
    if res.status == 2:
        return "infeasible", 0.0
    if res.status != 0:
        raise RuntimeError(f"verifier LP failed (status {res.status}): {res.message}")
    return "optimal", float(-res.fun)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def verify_allocation(graph, workload, selection, solution, noise=DEFAULT_NOISE) -> Verdict:
    """Check a reported AllocationSolution for `selection` against our own LP."""
    cols = _columns(graph, workload, selection, noise, dedupe_paths=True)
    A, b, kinds = _rows(graph, workload, cols)
    c = np.array([col.objective for col in cols], dtype=float)
    status, objective = _solve(A, b, c)
    problems = []
    if solution.status != status:
        problems.append(f"status {solution.status!r}, verifier finds {status!r}")
    if not _close(solution.wegr, objective, OBJ_RTOL):
        problems.append(f"objective {solution.wegr!r}, verifier finds {objective!r}")

    index = {(col.pair_key, col.nodes): j for j, col in enumerate(cols)}
    x = np.zeros(len(cols))
    for key, rate in solution.rates.items():
        j = index.get(key)
        if j is None:
            if abs(rate) > RATE_EPS:
                problems.append(f"rate {rate!r} on {key} which is not a feasible column")
            continue
        x[j] = rate
    if len(x) and x.min() < -NEG_TOL:
        problems.append(f"negative rate {x.min()!r}")
    lhs = A @ x
    for value, bound, kind in zip(lhs, b, kinds):
        if value > bound + FEAS_RTOL * max(abs(bound), 1.0):
            problems.append(f"{kind[0]} row {kind[1]}: {value!r} exceeds {bound!r}")
    if status == "optimal" and solution.status == "optimal":
        implied = float(c @ x)
        if not _close(implied, solution.wegr, OBJ_RTOL):
            problems.append(f"rates give objective {implied!r}, reported {solution.wegr!r}")
    return Verdict(not problems, status, objective, tuple(problems))


def relaxation_bound(graph, workload, candidates, strategies, noise=DEFAULT_NOISE) -> float:
    """W-EGR of the LP over every candidate path x every given strategy."""
    choices = {k: [(p, s) for p in paths for s in strategies]
               for k, paths in candidates.items() if paths}
    cols = _columns(graph, workload, choices, noise, dedupe_paths=False)
    A, b, _ = _rows(graph, workload, cols)
    status, objective = _solve(A, b, np.array([col.objective for col in cols], dtype=float))
    return objective if status == "optimal" else 0.0
