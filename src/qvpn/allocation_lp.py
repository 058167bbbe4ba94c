"""Weighted-EGR rate allocation: compile and solve the LP for a fixed selection.

For a selection assigning each user pair up to P_max (path, strategy)
choices, the LP maximizes sum over variables of w_k * lambda^k_u *
q^(|p|-1) * x subject to per-link capacity rows (coefficients are the
distillation overhead g per link), per-pair min/max rate rows on the raw
sums, and x >= 0. Infeasible (path, strategy) pairs are dropped at build
time; an unsatisfiable R_min row then makes the whole problem infeasible,
which reports as W-EGR 0.

An LpCompiler is built once per (graph, workload, noise, p_max) and turns
selections into LPs in compressed sparse column (CSC) form; its solve
answers a selection and wegr_of_selection scores one. solve_lp hands
those arrays to the HiGHS binding bundled with scipy, with the options
linprog(method="highs") sets; where that private binding is missing it
falls back to linprog itself.

The binding is loaded from its file, so importing this module runs neither
scipy's package __init__ nor scipy.optimize's (longer than the rest of
importing qvpn); scipy and linprog load only when the fallback solves.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .checks import InputError, check_int
from .pathfinding import DEFAULT_P_MAX
from .quantum_math import DEFAULT_NOISE, FIDELITY_ATOL, NoiseParams, path_overhead_ladder
# the scalar reference, re-exported for the bench's per-layer wrapper
from .quantum_math import path_overhead_per_link  # noqa: F401


def _load_extension(name, folder):
    """Load the compiled module name from its file in folder (the last
    part of name plus an extension suffix) and register it in sys.modules
    under name; None when folder holds no such file or it fails to load."""
    stem = name.rpartition(".")[2]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, stem + suffix)
        if os.path.isfile(path):
            break
    else:
        return None
    spec = importlib.util.spec_from_file_location(name, path)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        sys.modules.pop(name, None)
        return None
    return module


# scipy's private HiGHS binding, in the folder find_spec names without
# importing scipy. A copy scipy.optimize already imported is reused; any
# other layout of scipy's files leaves None, and solve_lp uses linprog.
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_highs = sys.modules.get(_HIGHS_MODULE) or _load_extension(_HIGHS_MODULE, os.path.join(
    importlib.util.find_spec("scipy").submodule_search_locations[0], "optimize", "_highspy"))

SOLVER_TOL = 1e-7
# linprog's post-solve check: sqrt(tol) * 10 at its default tol of 1e-9
_CHECK_TOL = math.sqrt(1e-9) * 10


class SolverError(RuntimeError):
    """LP solver failed numerically; never swallowed."""


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to  A @ x <= row_bounds, x >= 0.

    A is held in CSC form: column j has the coefficients
    data[indptr[j]:indptr[j+1]] in the rows indices[indptr[j]:indptr[j+1]],
    ascending. row_coeffs is the dense view of A.
    """

    objective: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_bounds: np.ndarray
    row_labels: tuple = ()

    @classmethod
    def from_dense(cls, objective, row_coeffs, row_bounds, row_labels=()):
        objective = np.asarray(objective, dtype=float)
        row_bounds = np.asarray(row_bounds, dtype=float)
        n = len(objective)
        by_column = np.asarray(row_coeffs, dtype=float).reshape(len(row_bounds), n).T
        cols, rows = np.nonzero(by_column)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        return cls(objective, indptr, rows.astype(np.int32), by_column[cols, rows],
                   row_bounds, tuple(row_labels))

    @property
    def row_coeffs(self) -> np.ndarray:
        n = len(self.objective)
        dense = np.zeros((len(self.row_bounds), n))
        dense[self.indices, np.repeat(np.arange(n), np.diff(self.indptr))] = self.data
        return dense


@dataclass(frozen=True)
class AllocationSolution:
    status: str  # "optimal" | "infeasible"
    rates: dict  # (pair_key, path nodes) -> rate
    wegr: float  # 0 when infeasible
    true_egr_per_pair: dict  # pair_key -> unweighted sum of q^(|p|-1) * x


class LpCompiler:
    """Compiles selections on one (graph, workload, noise, p_max) into LPs.

    Rows: the capacity rows of the links a selection touches, in sorted
    link-key order, then per workload pair its R_min row (when r_min > 0)
    and, when a column of the pair is kept, its R_max row (when finite).
    An untouched capacity or R_max row holds for every x >= 0, so it is
    left out; an R_min row stays even when untouched, so an unserved floor
    makes the LP infeasible. Columns follow selection order; a pair's
    repeated path keeps its first occurrence, and a (path, strategy)
    choice with an infeasible distillation stage is dropped.

    Columns live in a pool, one id space for every search. column_id gives
    each (pair, path links, strategy) choice the next integer id and does no
    column math; the first gather that asks for an id computes its column
    into flat arrays that grow by doubling; fill computes a whole id array's
    missing columns ahead of use. gather turns an id array into an LP with
    one numpy gather. Every LP takes that one route: solve gathers ids into
    the AllocationSolution a search reports; wegr_of_selection gathers and
    solves for the W-EGR a search compares. A search holds one compiler and
    makes both calls through it, so no column is computed twice.
    non_dominated compares a path's strategies by the overheads _fill writes.
    """

    def __init__(self, graph, workload, noise: NoiseParams = DEFAULT_NOISE,
                 p_max: int = DEFAULT_P_MAX):
        self.noise = noise
        self.p_max = check_int("p_max", p_max)
        org_weight = {o.id: o.weight for o in workload.organizations}
        keys = [p.key for p in workload.user_pairs]  # a property: read each once
        self._pairs = dict(zip(keys, workload.user_pairs))
        self._pair_keys = tuple(keys)
        self._link_keys = sorted(graph.link_by_key)
        # link key -> (capacity row, base fidelity)
        self._links = {lk: (i, graph.link_by_key[lk].base_fidelity)
                       for i, lk in enumerate(self._link_keys)}
        # one code per row: the links' capacity rows, then the pair rows
        bounds = [graph.link_by_key[lk].capacity_eprps for lk in self._link_keys]
        labels = [("cap", lk) for lk in self._link_keys]
        # pair key -> (fidelity threshold, weight, [row code, ...], [coefficient, ...])
        self._pair_rows = {}
        for key, pair in zip(keys, workload.user_pairs):
            _, _, codes, coeffs = self._pair_rows.setdefault(
                key, (pair.fidelity_threshold, org_weight[pair.org_id] * pair.weight, [], []))
            if pair.r_min > 0:
                codes.append(len(bounds))
                coeffs.append(-1.0)
                bounds.append(-pair.r_min)
                labels.append(("rmin", key))
            if math.isfinite(pair.r_max):
                codes.append(len(bounds))
                coeffs.append(1.0)
                bounds.append(pair.r_max)
                labels.append(("rmax", key))
        self._row_bounds = np.array(bounds, dtype=float)
        self._row_labels = tuple(labels)
        # the rows every LP keeps, touched or not: the R_min rows
        self._kept_rows = np.array([label[0] == "rmin" for label in labels], dtype=bool)
        # the column pool: (pair key, path links, strategy) -> id, the choice
        # behind each id, and per id its entries first[id] .. first[id] +
        # count[id] in codes / coeffs. count is -1 for a column not computed
        # yet and 0 for an infeasible one (a feasible one has a link row).
        self._ids = {}
        self._choices = []  # (pair key, path, strategy) per id
        self._first = np.zeros(0, dtype=np.intp)
        self._count = np.zeros(0, dtype=np.intp)
        self._weight = np.zeros(0)
        self._codes = np.zeros(0, dtype=np.intp)
        self._coeffs = np.zeros(0)
        self._entries = 0  # filled length of codes / coeffs
        # (base fidelity, hops, link threshold, max_rounds) -> the class's
        # path_overhead_ladder: numbers only, so no read hashes a dataclass
        self._ladders = {}

    def column_id(self, pair_key, path, strategy) -> int:
        """Pool id of one (path, strategy) choice for a pair, assigning the
        next id on first use. Raises ValueError if the path's endpoints
        mismatch the pair; the pool is then left as it was."""
        return self._id_of(self._pairs[pair_key], pair_key, path, strategy)

    def _id_of(self, pair, pair_key, path, strategy) -> int:
        """column_id for the workload's pair of key pair_key: one hash of
        the choice, whether its id is new or not."""
        key = (pair_key, path.link_keys, strategy)
        column = self._ids.setdefault(key, len(self._choices))
        if column == len(self._choices):
            ends = (path.nodes[0], path.nodes[-1])
            if ends != pair.endpoints and ends[::-1] != pair.endpoints:
                del self._ids[key]
                raise ValueError(f"path endpoints {ends} do not match pair {pair_key}")
            self._choices.append((pair_key, path, strategy))
        return column

    def choice(self, column: int):
        """(pair key, path, strategy) of a pool id: the choice that got it."""
        return self._choices[column]

    def column_ids(self, selection) -> np.ndarray:
        """Pool ids of a {pair_key: [(CandidatePath, DistillationStrategy), ...]}
        selection's choices, in order, each pair keeping the first
        occurrence of a repeated path. Raises InputError on an unknown pair
        or more than p_max paths in a pair, and ValueError on mismatched
        endpoints."""
        ids = []
        for pair_key, choices in selection.items():
            pair = self._pairs.get(pair_key)
            if pair is None:
                raise InputError(f"selection references unknown pair {pair_key}")
            if len(choices) > self.p_max:
                raise InputError(
                    f"pair {pair_key} selects {len(choices)} paths, cap is {self.p_max}")
            seen = []  # at most p_max link tuples
            for path, strategy in choices:
                if path.link_keys not in seen:
                    seen.append(path.link_keys)
                    ids.append(self._id_of(pair, pair_key, path, strategy))
        return np.array(ids, dtype=np.intp)

    def _overheads(self, threshold, path, strategy):
        """{base fidelity: overhead g} over the distinct link fidelities of
        path under strategy, for a pair of fidelity threshold threshold; None
        when a distillation stage is infeasible. The links of a path differ
        only in base fidelity, so each fidelity's path class table
        (quantum_math.path_overhead_ladder) is read once, with one bisect.
        _fill writes these values into the LP, and non_dominated compares
        them."""
        hops, links, ladders = path.hop_count, self._links, self._ladders
        at = threshold - FIDELITY_ATOL
        overheads = {}
        for lk in path.link_keys:
            fidelity = links[lk][1]
            if fidelity not in overheads:
                key = (fidelity, hops, strategy.link_threshold, strategy.max_rounds)
                ladder = ladders.get(key)
                if ladder is None:
                    ladder = ladders[key] = path_overhead_ladder(fidelity, hops, strategy,
                                                                 self.noise)
                g = ladder[1][bisect_left(ladder[0], at)]
                if g == math.inf:
                    return None
                overheads[fidelity] = g
        return overheads

    def non_dominated(self, pair_key, path, strategies) -> list:
        """For each of strategies on pair_key's path, the index of its
        stand-in: the first non-dominated strategy whose overhead is no
        larger on every link, None when the path has no feasible strategy.
        A feasible strategy dominates every infeasible one, and one whose
        overheads are no smaller on every link and larger on one or at a
        higher index. Only the overheads of a column depend on its
        strategy, so swapping a column for its stand-in never lowers a
        selection's W-EGR nor makes it infeasible."""
        threshold = self._pair_rows[pair_key][0]
        table = [self._overheads(threshold, path, s) for s in strategies]
        width = len({self._links[lk][1] for lk in path.link_keys})
        # one row per strategy, one overhead per fidelity; inf where infeasible
        g = np.array([[math.inf] * width if t is None else list(t.values())
                      for t in table]).reshape(len(table), width)
        feasible = np.array([t is not None for t in table])
        # no_larger[a, b]: a's overheads are <= b's on every link
        no_larger = (g[:, None, :] <= g[None, :, :]).all(axis=-1)
        order = np.arange(len(table))
        beats = feasible[:, None] & no_larger & (~no_larger.T | (order[:, None] < order))
        kept = feasible & ~beats.any(axis=0)
        stands_in = no_larger & kept[:, None]
        return [int(a) if stands_in[a, b] else None
                for b, a in enumerate(stands_in.argmax(axis=0).tolist())]

    def _fill(self, ids):
        """Compute the columns of ids (distinct, none computed yet) into the
        pool. A column has the capacity rows of its links, ascending, with
        the overheads _overheads gives, then its pair's rows; a choice with
        an infeasible distillation stage has no entries."""
        links, pair_rows = self._links, self._pair_rows
        q = self.noise.swap_success_prob
        codes, coeffs, count, weights = [], [], [], []
        for column in ids.tolist():
            pair_key, path, strategy = self._choices[column]
            threshold, weight, pair_codes, pair_coeffs = pair_rows[pair_key]
            overheads = self._overheads(threshold, path, strategy)
            if overheads is None:
                count.append(0)
                weights.append(0.0)
                continue
            rows = sorted(links[lk] for lk in path.link_keys)
            codes += [row for row, _ in rows]
            codes += pair_codes
            coeffs += [overheads[fidelity] for _, fidelity in rows]
            coeffs += pair_coeffs
            count.append(len(rows) + len(pair_codes))
            weights.append(weight * q ** (path.hop_count - 1))
        count = np.array(count, dtype=np.intp)
        start, end = self._entries, self._entries + len(codes)
        self._codes = _grown(self._codes, end)
        self._coeffs = _grown(self._coeffs, end)
        self._codes[start:end] = codes
        self._coeffs[start:end] = coeffs
        self._first[ids] = start + np.cumsum(count) - count
        self._count[ids] = count
        self._weight[ids] = weights
        self._entries = end

    def fill(self, ids) -> None:
        """Compute every column among pool ids (an integer array) that is
        not computed yet. gather fills the ids it is given, so a column is
        computed on first use unless an earlier fill covered it."""
        ids = np.asarray(ids, dtype=np.intp)
        size = len(self._choices)
        if size > len(self._count):
            self._first = _grown(self._first, size)
            self._count = _grown(self._count, size)
            self._weight = _grown(self._weight, size)
        new = ids[self._count[ids] < 0]
        if new.size:  # distinct and ascending, as np.unique gives them
            self._fill(np.array(sorted(set(new.tolist())), dtype=np.intp))

    def gather(self, ids) -> LinearProgram:
        """The LP of pool columns ids (an integer array), in that order, with
        infeasible columns dropped."""
        return self._lp(self._kept(ids))

    def _kept(self, ids) -> np.ndarray:
        """Filled ids (an integer array) less infeasible ones: the LP's columns."""
        ids = np.asarray(ids, dtype=np.intp)
        self.fill(ids)
        return ids[self._count[ids] > 0]

    def _lp(self, ids) -> LinearProgram:
        """The LP whose columns are pool ids, all computed and feasible."""
        count = self._count[ids]
        indptr = np.zeros(len(ids) + 1, dtype=np.int32)
        np.cumsum(count, out=indptr[1:])
        # entry positions: each column's run first[id] .. first[id] + count[id]
        at = np.arange(indptr[-1]) + np.repeat(self._first[ids] - indptr[:-1], count)
        codes = self._codes[at]
        # the rows a column touches and the R_min rows, in code order
        rows = np.flatnonzero(
            np.bincount(codes, minlength=len(self._row_bounds)).astype(bool) | self._kept_rows)
        row_of = np.empty(len(self._row_bounds), dtype=np.int32)
        row_of[rows] = np.arange(len(rows))
        labels = self._row_labels
        return LinearProgram(
            objective=self._weight[ids],
            indptr=indptr,
            indices=row_of[codes],
            data=self._coeffs[at],
            row_bounds=self._row_bounds[rows],
            row_labels=tuple([labels[i] for i in rows.tolist()]),
        )

    def solve(self, ids) -> AllocationSolution:
        """The allocation of pool columns ids (an integer array): solve_lp of
        their gather. Propagates solver failures."""
        kept = self._kept(ids)
        return self._solved(kept, self._lp(kept))

    def _solved(self, kept, lp) -> AllocationSolution:
        """The allocation of lp, whose columns are pool ids kept: a rate per
        (pair key, path nodes) in column order, W-EGR objective @ x and each
        workload pair's true EGR; W-EGR 0 and no rates when infeasible."""
        status, x = solve_lp(lp)
        true_egr = {k: 0.0 for k in self._pair_keys}
        if status == "infeasible":
            return AllocationSolution("infeasible", {}, 0.0, true_egr)
        q = self.noise.swap_success_prob
        rates = {}
        for rate, column in zip(x.tolist(), kept.tolist()):
            pair_key, path, _ = self._choices[column]
            rates[(pair_key, path.nodes)] = rate
            true_egr[pair_key] += rate * q ** (path.hop_count - 1)
        return AllocationSolution("optimal", rates, float(lp.objective @ x), true_egr)


@dataclass(frozen=True)
class AllocationProblem:
    compiler: LpCompiler
    ids: np.ndarray  # pool ids of the LP's columns, in column order
    lp: LinearProgram  # compiler.gather(ids)


def _grown(array, size):
    """array when it holds size entries, else a copy at least twice as long
    padded with -1, so growing to C entries copies O(C) in all."""
    if size <= len(array):
        return array
    out = np.full(max(size, 2 * len(array)), -1, dtype=array.dtype)
    out[:len(array)] = array
    return out


def build_problem(graph, workload, selection, noise: NoiseParams = DEFAULT_NOISE,
                  p_max: int = DEFAULT_P_MAX) -> AllocationProblem:
    """Gather the LP of one selection's column_ids on a one-shot LpCompiler.

    selection: {pair_key: [(CandidatePath, DistillationStrategy), ...]}.
    Raises ValueError if a selected path's endpoints mismatch its pair or a
    pair exceeds p_max paths.
    """
    compiler = LpCompiler(graph, workload, noise, p_max)
    kept = compiler._kept(compiler.column_ids(selection))
    return AllocationProblem(compiler, kept, compiler._lp(kept))


def lp_backend() -> str:
    """Which route solve_lp takes: "highs" (direct binding) or "linprog"."""
    return "linprog" if _highs is None else "highs"


_solver = None


def _highs_solver():
    """The process's HiGHS instance, created on first use and cleared of
    any previous solution and basis, so no solve is warm-started. Its
    options are the ones linprog(method="highs") sets, at our tolerances."""
    global _solver
    if _solver is None:
        options = _highs.HighsOptions()
        options.presolve = "on"
        options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.primal_feasibility_tolerance = SOLVER_TOL
        options.dual_feasibility_tolerance = SOLVER_TOL
        options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
        options.output_flag = False
        options.log_to_console = False
        highs = _highs._Highs()
        if highs.passOptions(options) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the solver options")
        _solver = highs
    _solver.clearSolver()
    return _solver


def _solve_highs(lp: LinearProgram):
    n, m = len(lp.objective), len(lp.row_bounds)
    inf = _highs.kHighsInf
    highs = _highs_solver()
    model_status = _highs.HighsModelStatus
    # the column-wise LP as arrays: costs, column bounds, row bounds, CSC
    # matrix, and integrality 0 (continuous) for every column
    passed = highs.passModel(
        n, m, len(lp.data), int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, -lp.objective, np.zeros(n), np.full(n, inf),
        np.full(m, -inf), lp.row_bounds, lp.indptr, lp.indices, lp.data,
        np.zeros(n, dtype=np.int32))
    if passed == _highs.HighsStatus.kError:
        status = model_status.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    if status in (model_status.kInfeasible, model_status.kModelError):
        return "infeasible", None
    if status != model_status.kOptimal:
        raise SolverError(f"LP solve failed: HiGHS model status "
                          f"{highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = lp.row_bounds - np.array(solution.row_value)
    # a NaN fails both comparisons, so these also reject NaN entries
    if (math.isnan(highs.getObjectiveValue()) or not (x >= -_CHECK_TOL).all()
            or not (slack >= -_CHECK_TOL).all()):
        raise SolverError(f"LP solve failed: HiGHS reported optimal, but the solution "
                          f"violates the constraints by more than {_CHECK_TOL:.2e}")
    return "optimal", np.clip(x, 0.0, None)


def _solve_linprog(lp: LinearProgram):
    from scipy.optimize import linprog

    n = len(lp.objective)
    res = linprog(
        c=-lp.objective,
        A_ub=lp.row_coeffs if len(lp.row_bounds) else None,
        b_ub=lp.row_bounds if len(lp.row_bounds) else None,
        bounds=[(0, None)] * n,
        method="highs",
        options={"primal_feasibility_tolerance": SOLVER_TOL,
                 "dual_feasibility_tolerance": SOLVER_TOL},
    )
    if res.status == 2:
        return "infeasible", None
    if res.status != 0:
        raise SolverError(f"LP solve failed (status {res.status}): {res.message}")
    return "optimal", np.clip(res.x, 0.0, None)


def solve_lp(lp: LinearProgram):
    """Solve the raw interface problem. Returns ("optimal", x) or ("infeasible", None).

    An LP without columns is feasible exactly when every row bound is >= 0;
    its solution is empty. Raises ValueError on a non-finite coefficient or
    bound, and SolverError on any other outcome (unbounded, numerical
    failure, or a reported optimum that fails the post-solve feasibility
    check).
    """
    for name in ("objective", "data", "row_bounds"):
        if not np.isfinite(getattr(lp, name)).all():
            raise ValueError(f"LP {name} must be finite")
    if len(lp.objective) == 0:
        if (lp.row_bounds < 0).any():
            return "infeasible", None
        return "optimal", np.zeros(0)
    if _highs is None:
        return _solve_linprog(lp)
    return _solve_highs(lp)


def solve(problem: AllocationProblem) -> AllocationSolution:
    """LpCompiler.solve of a built problem, on the LP it already holds."""
    return problem.compiler._solved(problem.ids, problem.lp)


def wegr_of_selection(compiler: LpCompiler, ids) -> float:
    """W-EGR of pool columns ids (an integer array, as column_ids gives) on
    the compiler's instance: gather + solve_lp; 0 on infeasible. Propagates
    solver failures. A search passes the LpCompiler it holds, so its column
    pool carries over between calls.
    """
    lp = compiler.gather(ids)
    status, x = solve_lp(lp)
    return 0.0 if status == "infeasible" else float(lp.objective @ x)
