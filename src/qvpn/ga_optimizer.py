"""Genetic search over path and distillation strategy assignments.

A strategy changes only a column's per-link overheads, so on each
candidate path only the strategies that no other dominates are worth a
search (LpCompiler.non_dominated). A genome is a (pairs, p_max) integer
array of genes, p_max slots per user pair in a fixed pair order; a gene
indexes its pair's non-dominated columns, in candidate order and then
catalog order, so it lies below its slot's GaProblem.gene_limits entry.
Fitness is the W-EGR of the selection through the allocation LP;
infeasible selections score 0 so the search can walk out of infeasible
regions. Fitness never decodes: each gene is an id in the compiler's
column pool, and the LP is gathered from it. evolve holds a generation as
one (population, pairs, p_max) integer array and breeds all of its
children at once from one numpy Generator per generation,
default_rng([seed, generation]), so results do not depend on evaluation
order. Where the process may use two CPUs and fork (forking.can_fork),
evolve solves every other LP miss of a generation on one helper process
forked through forking.Forks, which inherits the column pool GaProblem
fills; each LP is a pure function of its pool ids, so the trace does not
change.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .allocation_lp import LpCompiler, SolverError, wegr_of_selection
from .checks import InputError, check_int, check_real
from .pathfinding import DEFAULT_P_MAX
from .quantum_math import DEFAULT_NOISE


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 100
    generations: int = 1000
    mode: str = "dynamic"  # "dynamic" | "static"
    elitism_count: int = 1
    seed: int = 0
    # schedule endpoints; static mode holds the start values constant
    mutation_start: float = 0.3
    mutation_end: float = 0.02
    crossover_start: float = 0.9
    crossover_end: float = 0.6
    pool_start: float = 1.0
    pool_end: float = 0.2

    def __post_init__(self):
        for name, low in (("population_size", 2), ("generations", 0),
                          ("elitism_count", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if self.mode not in ("dynamic", "static"):
            raise InputError(f"unknown mode {self.mode!r}")
        for name in ("mutation_start", "mutation_end", "crossover_start",
                     "crossover_end", "pool_start", "pool_end"):
            check_real(name, getattr(self, name), 0, 1, open_high=False)
        if not self.elitism_count < self.population_size:
            raise InputError("need 1 <= elitism_count < population_size")

    @classmethod
    def static_mode(cls, **overrides):
        """Truncation selection of the top 20% with fixed probabilities."""
        defaults = dict(mode="static", mutation_start=0.05, mutation_end=0.05,
                        crossover_start=0.8, crossover_end=0.8,
                        pool_start=0.2, pool_end=0.2)
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class GaTrace:
    best_fitness: list = field(default_factory=list)  # per generation, incl. initial
    mean_fitness: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    # the part of seconds spent building the generation's children (none in
    # generation 0) and keying the generation
    breed_seconds: list = field(default_factory=list)
    best_genome: np.ndarray | None = None  # the best (pairs, p_max) gene row
    best_wegr: float = 0.0
    lp_solves: int = 0
    fitness_calls: int = 0  # genomes scored, cache hits included
    fitness_helper: bool = False  # a forked helper solved every other miss
    # GaProblem finding and computing its columns, in no generation's seconds
    pool_fill_seconds: float = 0.0


def dynamic_schedule(generation: int, total: int, config: GaConfig = GaConfig()):
    """Linear decay of (selection pool fraction, mutation, crossover).

    Generation 0 returns the start values, generation total-1 the end values,
    the midpoint their arithmetic mean.
    """
    if not 0 <= generation < total:
        raise ValueError(f"generation {generation} outside [0,{total})")
    t = generation / (total - 1) if total > 1 else 1.0
    lerp = lambda a, b: a + t * (b - a)
    return (
        lerp(config.pool_start, config.pool_end),
        lerp(config.mutation_start, config.mutation_end),
        lerp(config.crossover_start, config.crossover_end),
    )


class GaProblem:
    """Evaluation context: decode genomes, cache LP fitness by canonical selection.

    At init the compiler's column pool numbers each pair's non-dominated
    columns (LpCompiler.non_dominated over the catalog), in pair order,
    then candidate order, then catalog order, and computes them; so gene g
    of a pair is pool id pair base + g. A pair whose candidate paths have no
    feasible strategy is left out of pair_order, as a pair without
    candidates is; its R_min row still lives in the LP. fitness keeps the
    ids of each pair's first occurrence of each path, in slot order.
    """

    def __init__(self, graph, workload, candidates, catalog, noise=DEFAULT_NOISE,
                 p_max=DEFAULT_P_MAX):
        self.catalog = list(catalog)
        if not self.catalog:
            raise ValueError("the strategy catalog is empty")
        if len(set(self.catalog)) < len(self.catalog):
            raise ValueError("catalog strategies repeat")
        self.p_max = p_max
        self.compiler = LpCompiler(graph, workload, noise, p_max)
        self._cache = {}
        self.lp_solves = 0
        start = time.perf_counter()
        self.pair_order, self.candidates = [], {}
        # pair key -> per candidate path, per catalog strategy: the gene of
        # the strategy's stand-in, or None when the path has no feasible one
        self._stand_ins = {}
        column_path = []  # per pool id: its path's index among the pair's candidates
        num_columns = []
        for key in (p.key for p in workload.user_pairs):
            paths = list(candidates.get(key) or ())
            base = len(column_path)
            stand_ins = []
            for path_idx, path in enumerate(paths):
                stand_in = self.compiler.non_dominated(key, path, self.catalog)
                gene = {}  # kept strategy index -> gene
                for s, t in enumerate(stand_in):
                    if s == t:
                        column = self.compiler.column_id(key, path, self.catalog[s])
                        if column != len(column_path):
                            raise ValueError(f"pair {key}: candidate paths repeat")
                        gene[s] = column - base
                        column_path.append(path_idx)
                stand_ins.append([None if t is None else gene[t] for t in stand_in])
            if len(column_path) > base:
                self.pair_order.append(key)
                self.candidates[key] = paths
                self._stand_ins[key] = stand_ins
                num_columns.append(len(column_path) - base)
        self._layout_size = len(column_path)
        self.compiler.fill(np.arange(self._layout_size))
        # finding the non-dominated columns and computing them
        self.fill_seconds = time.perf_counter() - start
        self._column_path = np.array(column_path, dtype=np.intp)
        num_columns = np.array(num_columns, dtype=np.intp)
        # per (pair, slot): the pair's base id and its column count
        self._slot_base = np.repeat(np.cumsum(num_columns) - num_columns, p_max).reshape(-1, p_max)
        self.gene_limits = np.repeat(num_columns, p_max).reshape(-1, p_max)

    def decode(self, genes):
        """(pairs, p_max) gene row -> {pair_key: [(path, strategy), ...]};
        a path repeated within a pair keeps its first occurrence."""
        selection = {k: [] for k in self.pair_order}
        for column in self._keyed(self._checked([genes])).ids(0).tolist():
            pair_key, path, strategy = self.compiler.choice(column)
            selection[pair_key].append((path, strategy))
        return selection

    def _checked(self, genes) -> np.ndarray:
        """genes, (n, pairs, p_max), as an intp array; ValueError unless
        they have that shape and an integer dtype and each gene lies in
        [0, gene_limits) of its slot."""
        genes = np.asarray(genes)
        if genes.shape[1:] != self.gene_limits.shape:
            raise ValueError(f"genomes of shape {genes.shape[1:]}, but the problem "
                             f"encodes {self.gene_limits.shape}")
        if genes.dtype.kind not in "iu":
            raise ValueError(f"genes of dtype {genes.dtype}, not integers")
        bad = np.flatnonzero(((genes < 0) | (genes >= self.gene_limits)).any(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"gene outside the gene space in {genes[bad[0]].tolist()}")
        return genes.astype(np.intp, copy=False)

    def _keyed(self, genes: np.ndarray) -> "_Keyed":
        """Pool ids and cache keys of a (n, pairs, p_max) gene array.

        A genome's LP takes the ids of each pair's first occurrence of each
        path, in pair order and then slot order. Its cache key is the bytes
        of its ids sorted within each pair, a repeated path's slot reading
        -1: permuted slots share a key, and so do repeated paths."""
        columns = self._slot_base + genes
        paths = self._column_path[columns]
        first = np.ones(paths.shape, dtype=bool)
        for j in range(1, self.p_max):
            first[..., j] = (paths[..., :j] != paths[..., j:j + 1]).all(axis=-1)
        rows = np.sort(np.where(first, columns, -1), axis=-1).reshape(len(genes), -1)
        return _Keyed(genes, columns, first, [row.tobytes() for row in rows])

    def fitness(self, genes) -> float:
        """Cached W-EGR of one (pairs, p_max) gene row."""
        keyed = self._keyed(self._checked([genes]))
        return self.fitnesses(keyed, partial(_solve_each, self))[0]

    def fitnesses(self, keyed: "_Keyed", solve_batch) -> list:
        """fitness of every keyed genome, with the distinct misses among
        them, in first-appearance order, scored by one call of
        solve_batch(a list of pool-id arrays), which returns a W-EGR or the
        exception raised for each. The cache and lp_solves take the results
        in miss order, and the first exception is raised."""
        misses = {}
        for i, key in enumerate(keyed.keys):
            if key not in self._cache and key not in misses:
                misses[key] = i
        results = solve_batch([keyed.ids(i) for i in misses.values()])
        for (key, i), result in zip(misses.items(), results):
            if isinstance(result, SolverError):
                raise SolverError(f"{result} (while scoring genes "
                                  f"{keyed.genes[i].tolist()})") from result
            if isinstance(result, BaseException):
                raise result
            self.lp_solves += 1
            self._cache[key] = result
        return [self._cache[key] for key in keyed.keys]

    def encode_selection(self, selection) -> np.ndarray:
        """Inverse of decode for seeding, up to dominance: each pick becomes
        the gene of its stand-in (LpCompiler.non_dominated), so the seeded
        genome scores no less than the selection. A pick on a path without
        a feasible strategy adds no column to any LP and is left out. Unused
        slots repeat the pair's first gene (duplicates collapse back out at
        decode time), gene 0 when none is left. Raises ValueError naming the
        pair when a pick is not one of its candidate paths with a catalog
        strategy."""
        strategy_index = {s: i for i, s in enumerate(self.catalog)}
        genes = []
        for pair_key in self.pair_order:
            path_index = {p.link_keys: i for i, p in enumerate(self.candidates[pair_key])}
            slots = []
            for path, strategy in selection.get(pair_key, [])[: self.p_max]:
                p, s = path_index.get(path.link_keys), strategy_index.get(strategy)
                if p is None or s is None:
                    raise ValueError(f"pair {pair_key}: path {path.nodes} with link "
                                     f"threshold {strategy.link_threshold} is not among "
                                     "its candidate paths and catalog strategies")
                gene = self._stand_ins[pair_key][p][s]
                if gene is not None:
                    slots.append(gene)
            slots = slots or [0]
            genes += slots + slots[:1] * (self.p_max - len(slots))
        return np.array(genes, dtype=np.intp).reshape(self.gene_limits.shape)


class _Keyed(NamedTuple):
    """GaProblem._keyed of a gene array."""
    genes: np.ndarray  # (n, pairs, p_max)
    columns: np.ndarray  # (n, pairs, p_max) pool id of each slot
    first: np.ndarray  # (n, pairs, p_max) the slot holds its path's first occurrence
    keys: list  # the cache key of each genome

    def ids(self, i) -> np.ndarray:
        """The LP pool ids of genome i, in pair order and then slot order."""
        return self.columns[i][self.first[i]]


def initialize_population(problem: GaProblem, config: GaConfig, seed_heuristics=()):
    """(N, pairs, p_max) gene array of the population: injected heuristic
    genomes, then uniform random genes from default_rng([seed, 0])."""
    heur = [problem.encode_selection(sel) for sel in seed_heuristics]
    if config.population_size < len(heur):
        raise ValueError(
            f"population size {config.population_size} below the "
            f"{len(heur)} injected heuristics"
        )
    limit = problem.gene_limits
    rng = np.random.default_rng([config.seed, 0])
    drawn = rng.integers(limit, size=(config.population_size - len(heur), *limit.shape))
    heur = np.array(heur, dtype=np.intp).reshape(len(heur), *limit.shape)
    return np.concatenate((heur, drawn))


def _schedule_for(config: GaConfig, generation: int):
    if config.mode == "static":
        return config.pool_start, config.mutation_start, config.crossover_start
    return dynamic_schedule(generation, max(config.generations, 1), config)


def _pool_weights(pool, fitnesses, proportional):
    """Fitness-proportional pick weights over the pool, None when the pick
    is uniform (static mode, or no positive total)."""
    if proportional:
        weights = np.array([fitnesses[i] for i in pool], dtype=float)
        total = weights.sum()
        if total > 0:
            return weights / total
    return None


def _breed(rng, count, genes, pool, weights, cross_prob, mut_prob, limit) -> np.ndarray:
    """count children bred from a (population, pairs, p_max) gene array with
    rng, on gene slots that each hold below limit (pairs, p_max). Each child
    takes two parents from the pool (by weights, or uniformly when None),
    the first one's genes before a cut and the second's from it; the cut is
    uniform in [1, slots) with probability cross_prob and there are two
    slots or more, else past the last slot. Each slot is then redrawn
    uniformly with probability mut_prob. Every draw is made for all
    children at once, whatever the coins show."""
    length = limit.size
    pool = np.asarray(pool, dtype=np.intp)
    if weights is not None:
        parents = pool[rng.choice(len(pool), size=(2, count), p=weights)]
    else:
        parents = pool[rng.integers(len(pool), size=(2, count))]
    cut = np.full(count, length)
    if length > 1:
        crossing = rng.random(count) < cross_prob
        cut = np.where(crossing, rng.integers(1, length, size=count), length)
    flat = genes.reshape(len(genes), length)
    children = np.where(np.arange(length) < cut[:, None], flat[parents[0]], flat[parents[1]])
    mutated = rng.random((count, length)) < mut_prob
    children = np.where(mutated, rng.integers(limit.ravel(), size=(count, length)), children)
    return children.reshape(count, *limit.shape)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve_each(problem: GaProblem, id_lists) -> list:
    """The uncached W-EGR of each pool-id array's selection, or the
    exception it raised."""
    results = []
    for ids in id_lists:
        try:
            results.append(wegr_of_selection(problem.compiler, ids))
        except Exception as exc:  # reported in miss order by GaProblem.fitnesses
            results.append(exc)
    return results


def _serve_misses(problem: GaProblem, conn) -> None:
    """The fitness helper's body: solves each list of pool-id arrays it
    receives on its fork-inherited problem, until it receives None."""
    for id_lists in iter(conn.recv, None):
        conn.send(_solve_each(problem, id_lists))


def _solve_split(problem: GaProblem, helper, id_lists) -> list:
    """_solve_each of id_lists, with every other array sent to the helper."""
    helper.send(id_lists[1::2])
    results = [None] * len(id_lists)
    results[0::2] = _solve_each(problem, id_lists[0::2])
    results[1::2] = helper.recv()
    return results


def evolve(population, config: GaConfig, problem: GaProblem) -> GaTrace:
    """Run the generational loop on a (config.population_size, pairs, p_max)
    gene array; returns the trace (one row per generation, including the
    initial population as generation 0). Each generation is keyed at once
    and its distinct cache misses, in first-appearance order, are solved
    and cached in that order.

    With at least two usable CPUs and os.fork, in a process that is
    neither a forked qvpn child nor a multiprocessing child, evolve forks
    one helper process for its run and reaps it before returning. Each
    generation the helper solves every other miss and this process the
    rest; elsewhere this process solves them all. The trace is the same on
    either route. A helper that ends before it replies raises
    RuntimeError naming its exit code (minus the signal's number if a
    signal killed it). GaProblem has computed the column of every gene, so
    neither process computes one during the generations."""
    if len(population) != config.population_size:
        raise ValueError(f"population of {len(population)} genomes, but "
                         f"population_size is {config.population_size}")
    genes = problem._checked(population)
    trace = None
    if _usable_cpus() >= 2:
        from . import forking  # here, so that a run that never forks does not load it
        if forking.can_fork():
            with forking.Forks() as forks:
                helper = forks.start("GA fitness helper", _serve_misses, problem)
                trace = _generations(genes, config, problem,
                                     partial(_solve_split, problem, helper))
                helper.send(None)
            trace.fitness_helper = True
    if trace is None:
        trace = _generations(genes, config, problem, partial(_solve_each, problem))
    trace.pool_fill_seconds = problem.fill_seconds
    return trace


def _generations(genes, config: GaConfig, problem: GaProblem, solve_batch) -> GaTrace:
    """evolve's loop from the initial gene array. Each generation is keyed
    as one batch and scored by problem.fitnesses, its distinct misses
    solved by solve_batch."""
    trace = GaTrace()
    children = config.population_size - config.elitism_count

    def evaluate(genes, t0):
        keyed = problem._keyed(genes)
        trace.breed_seconds.append(time.perf_counter() - t0)
        fitnesses = problem.fitnesses(keyed, solve_batch)
        trace.best_fitness.append(max(fitnesses))
        trace.mean_fitness.append(float(np.mean(fitnesses)))
        trace.seconds.append(time.perf_counter() - t0)
        trace.fitness_calls += len(fitnesses)
        return fitnesses

    fitnesses = evaluate(genes, time.perf_counter())
    for gen in range(1, config.generations + 1):
        t0 = time.perf_counter()
        pool_frac, mut_prob, cross_prob = _schedule_for(config, gen - 1)
        order = sorted(range(len(genes)), key=lambda i: (-fitnesses[i], i))
        pool = order[:max(1, int(np.ceil(pool_frac * len(genes))))]
        weights = _pool_weights(pool, fitnesses, config.mode == "dynamic")
        rng = np.random.default_rng([config.seed, gen])
        bred = _breed(rng, children, genes, pool, weights, cross_prob, mut_prob,
                      problem.gene_limits)
        genes = np.concatenate((genes[order[:config.elitism_count]], bred))
        fitnesses = evaluate(genes, t0)

    best_idx = max(range(len(genes)), key=lambda i: (fitnesses[i], -i))
    # elitism guarantees the final population contains the best-ever genome
    trace.best_genome = genes[best_idx]
    trace.best_wegr = fitnesses[best_idx]
    trace.lp_solves = problem.lp_solves
    return trace
