"""Genetic search over joint (path, distillation strategy) assignments.

A genome is a flat list of (path index, strategy index) genes, p_max slots
per user pair in a fixed pair order. Fitness is the W-EGR of the decoded
selection through the allocation LP; infeasible selections score 0 so the
search can walk out of infeasible regions. Fitness never decodes: each gene
is an id in the compiler's column pool, and the LP is gathered from it.
Random streams are derived per (seed, generation, slot), so results do not
depend on evaluation order. evolve holds a generation as one (population,
pairs, p_max, 2) integer array and breeds all of its children at once,
reading each child's stream as numpy's Generator would read it (see
_Streams). Where the process may use two CPUs and fork, evolve solves
every other LP miss of a generation on one forked helper process, which
inherits the column pool evolve fills before generation 0; each LP is a
pure function of its pool ids, so the trace does not change.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from .allocation_lp import LpCompiler, SolverError, wegr_of_selection
from .checks import InputError, check_int, check_real
from .quantum_math import DEFAULT_NOISE


@dataclass(frozen=True)
class Genome:
    genes: tuple  # ((path_idx, strategy_idx), ...) of length num_pairs * p_max


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
    best_genome: Genome | None = None
    best_wegr: float = 0.0
    lp_solves: int = 0
    fitness_calls: int = 0  # genomes scored, cache hits included
    fitness_helper: bool = False  # a forked helper solved every other miss
    # computing the layout's columns before generation 0, in no generation's seconds
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

    The compiler's column pool numbers the whole layout at init, in pair
    order, then candidate order, then catalog order, so the pool id of a
    (pair, path, strategy) gene is the pair's base id plus path index times
    the catalog size plus strategy index. fitness keeps the ids of each
    pair's first occurrence of each path, in slot order.
    """

    def __init__(self, graph, workload, candidates, catalog, noise=DEFAULT_NOISE, p_max=3):
        self.graph = graph
        self.workload = workload
        self.catalog = list(catalog)
        if not self.catalog:
            raise ValueError("the strategy catalog is empty")
        self.noise = noise
        self.p_max = p_max
        # pairs with empty candidate sets are excluded up front; their R_min
        # rows still live in the LP and decide feasibility
        self.pair_order = [p.key for p in workload.user_pairs if candidates.get(p.key)]
        self.candidates = {k: list(candidates[k]) for k in self.pair_order}
        self.compiler = LpCompiler(graph, workload, noise, p_max)
        self._cache = {}
        self.lp_solves = 0
        layout = [(k, path, strategy) for k in self.pair_order
                  for path in self.candidates[k] for strategy in self.catalog]
        if [self.compiler.column_id(*c) for c in layout] != list(range(len(layout))):
            raise ValueError("candidate paths or catalog strategies repeat")
        self._layout_size = len(layout)
        num_paths = np.array([len(self.candidates[k]) for k in self.pair_order], dtype=np.intp)
        # per (pair, slot): the pair's base id and its path count
        pair_base = (np.cumsum(num_paths) - num_paths) * len(self.catalog)
        self._slot_base = np.repeat(pair_base, p_max).reshape(-1, p_max)
        self._slot_limit = np.repeat(num_paths, p_max).reshape(-1, p_max)
        self._slot_paths = self._slot_limit.ravel().tolist()

    def genome_length(self):
        return len(self.pair_order) * self.p_max

    def gene_space(self, slot):
        """(num paths, num strategies) valid at a given gene slot."""
        return self._slot_paths[slot], len(self.catalog)

    def decode(self, genome: Genome):
        """Genome -> {pair_key: [(path, strategy), ...]}; duplicate path
        indices within a pair keep their first occurrence."""
        selection = {k: [] for k in self.pair_order}
        for column in self._keyed(self._gene_array([genome])).ids(0).tolist():
            pair_key, path, strategy = self.compiler.choice(column)
            selection[pair_key].append((path, strategy))
        return selection

    def _gene_array(self, genomes) -> np.ndarray:
        """The (len(genomes), pairs, p_max, 2) gene array of Genomes, each
        checked against the problem encoding and the gene space."""
        length = self.genome_length()
        for genome in genomes:
            if len(genome.genes) != length:
                raise ValueError("genome length does not match the problem encoding")
        flat = chain.from_iterable(chain.from_iterable(g.genes for g in genomes))
        genes = np.fromiter(flat, dtype=np.intp, count=2 * length * len(genomes))
        genes = genes.reshape(len(genomes), *self._slot_limit.shape, 2)
        paths, strats = genes[..., 0], genes[..., 1]
        valid = ((0 <= paths) & (paths < self._slot_limit)
                 & (0 <= strats) & (strats < len(self.catalog)))
        bad = np.flatnonzero(~valid.reshape(len(genomes), -1).all(axis=1))
        if bad.size:
            raise ValueError(f"gene outside the gene space in {genomes[bad[0]].genes}")
        return genes

    def _keyed(self, genes: np.ndarray) -> "_Keyed":
        """Pool ids and cache keys of a (n, pairs, p_max, 2) gene array.

        A genome's LP takes the ids of each pair's first occurrence of each
        path, in pair order and then slot order. Its cache key is the bytes
        of its ids sorted within each pair, a repeated path's slot reading
        -1: permuted slots share a key, and so do repeated paths."""
        paths, strats = genes[..., 0], genes[..., 1]
        first = np.ones(paths.shape, dtype=bool)
        for j in range(1, self.p_max):
            first[..., j] = (paths[..., :j] != paths[..., j:j + 1]).all(axis=-1)
        columns = self._slot_base + paths * len(self.catalog) + strats
        rows = np.sort(np.where(first, columns, -1), axis=-1).reshape(len(genes), -1)
        return _Keyed(genes, columns, first, [row.tobytes() for row in rows])

    def score(self, ids) -> float:
        """W-EGR of the selection with these pool ids, solved uncached."""
        return wegr_of_selection(self.compiler, ids)

    def fitness(self, genome) -> float:
        """Cached W-EGR of one genome: a Genome, or its (pairs, p_max, 2)
        gene array."""
        genes = self._gene_array([genome]) if isinstance(genome, Genome) else genome[None]
        return self.fitnesses(self._keyed(genes), partial(_solve_each, self))[0]

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
                raise _scoring_error(result, _genome_of(keyed.genes[i])) from result
            if isinstance(result, BaseException):
                raise result
            self.lp_solves += 1
            self._cache[key] = result
        return [self._cache[key] for key in keyed.keys]

    def encode_selection(self, selection) -> Genome:
        """Inverse of decode for seeding: pad unused slots by repeating the
        first pick (duplicates collapse back out at decode time). Raises
        ValueError naming the pair when a pick is not one of its candidate
        paths with a catalog strategy."""
        genes = []
        for i, pair_key in enumerate(self.pair_order):
            slots = []
            for path, strategy in selection.get(pair_key, [])[: self.p_max]:
                # the pool is keyed by pair, so a layout id is one of this pair's
                column = self.compiler.find_id(pair_key, path, strategy)
                if column is None or column >= self._layout_size:
                    raise ValueError(f"pair {pair_key}: path {path.nodes} with link "
                                     f"threshold {strategy.link_threshold} is not among "
                                     "its candidate paths and catalog strategies")
                slots.append(divmod(column - int(self._slot_base[i, 0]), len(self.catalog)))
            if not slots:
                slots = [(0, 0)]
            while len(slots) < self.p_max:
                slots.append(slots[0])
            genes.extend(slots)
        return Genome(tuple(genes))


class _Keyed(NamedTuple):
    """GaProblem._keyed of a gene array."""
    genes: np.ndarray  # (n, pairs, p_max, 2)
    columns: np.ndarray  # (n, pairs, p_max) pool id of each slot
    first: np.ndarray  # (n, pairs, p_max) the slot holds its path's first occurrence
    keys: list  # the cache key of each genome

    def ids(self, i) -> np.ndarray:
        """Genome i's LP pool ids, in pair order and then slot order."""
        return self.columns[i][self.first[i]]


def _genome_of(genes: np.ndarray) -> Genome:
    """The Genome of one genome's gene array, in Python ints."""
    return Genome(tuple(map(tuple, genes.reshape(-1, 2).tolist())))


def _scoring_error(exc: SolverError, genome: Genome) -> SolverError:
    return SolverError(f"{exc} (while scoring genome {genome.genes})")


def random_genome(problem: GaProblem, rng) -> Genome:
    """A uniform random genome: per slot, integers(paths) then
    integers(strategies) of rng. initialize_population draws the same genes
    through _Streams."""
    genes = []
    for slot in range(problem.genome_length()):
        n_paths, n_strats = problem.gene_space(slot)
        genes.append((int(rng.integers(n_paths)), int(rng.integers(n_strats))))
    return Genome(tuple(genes))


def initialize_population(problem: GaProblem, config: GaConfig, seed_heuristics=()):
    """Population of size N: injected heuristic genomes, then uniform random."""
    heur = [problem.encode_selection(sel) for sel in seed_heuristics]
    if config.population_size < len(heur):
        raise ValueError(
            f"population size {config.population_size} below the "
            f"{len(heur)} injected heuristics"
        )
    seeds = [[config.seed, 0, i] for i in range(config.population_size - len(heur))]
    genes = _random_genes(seeds, problem._slot_paths, len(problem.catalog))
    return heur + [_genome_of(g) for g in genes]


def _random_genes(seeds, slot_paths, num_strats) -> np.ndarray:
    """The (len(seeds), slots, 2) genes random_genome draws from
    default_rng(seed) for each seed, on slots with slot_paths[i] paths and
    num_strats strategies each: slot by slot, the path then the strategy."""
    # two halves per slot, one word, but for Lemire rejections
    streams = _Streams(seeds, len(slot_paths))
    rows = np.arange(len(seeds))
    genes = np.empty((len(seeds), len(slot_paths), 2), dtype=np.intp)
    for slot, n_paths in enumerate(slot_paths):
        genes[:, slot, 0] = streams.integers(rows, n_paths)
        genes[:, slot, 1] = streams.integers(rows, num_strats)
    return genes


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


class _Streams:
    """One random stream per row, read in step over all rows as numpy's
    Generator reads its bit generator, for the draws breeding makes.

    Row r is the PCG64 of seeds[r], so default_rng(seeds[r]) would draw the
    same values: random() is (w >> 11) * 2**-53 of the next 64-bit word w.
    integers(n), for 2 <= n < 2**32, takes 32-bit halves by Lemire's
    method, rejections included: the low half of a fresh word, then that
    word's high half at the next such draw, whatever doubles come between.
    integers(1) draws nothing.

    Each row starts with width + 1 words: width must cover the caller's
    draws but for Lemire rejections, and the spare word lets a row that
    holds a half index its next word. A rejection reads one half more, so
    each one draws every row one more word. A read past the words raises
    IndexError."""

    def __init__(self, seeds, width: int):
        self._bitgens = [np.random.PCG64(seed) for seed in seeds]
        self._words = np.empty((len(seeds), width + 1), dtype=np.uint64)
        for row, bitgen in zip(self._words, self._bitgens):
            row[:] = bitgen.random_raw(width + 1)
        self._doubles = (self._words >> 11) * 2.0 ** -53
        self._below = None  # (p, flat positions of the doubles below p)
        self.pos = np.zeros(len(seeds), dtype=np.intp)  # each row's next unread word
        self._held = np.zeros(len(seeds), dtype=bool)  # a high half is waiting
        self._high = np.zeros(len(seeds), dtype=np.uint64)

    def _widen(self) -> None:
        """Draw every row one more word."""
        more = np.stack([bg.random_raw(1) for bg in self._bitgens])
        self._words = np.hstack((self._words, more))
        self._doubles = (self._words >> 11) * 2.0 ** -53
        self._below = None

    def doubles(self, rows) -> np.ndarray:
        """random() of each row."""
        pos = self.pos[rows]
        self.pos[rows] = pos + 1
        return self._doubles[rows, pos]

    def _halves(self, rows) -> np.ndarray:
        """The next 32-bit half of each row, as uint64."""
        held, pos = self._held[rows], self.pos[rows]
        word = self._words[rows, pos]
        out = np.where(held, self._high[rows], word & 0xFFFFFFFF)
        self._high[rows] = word >> 32
        self._held[rows] = ~held
        self.pos[rows] = pos + ~held
        return out

    def integers(self, rows, n) -> np.ndarray:
        """integers(n) of each row, for bounds n (one, or one per row) in
        [1, 2**32)."""
        n = np.asarray(n, dtype=np.uint64)
        if n.ndim == 0:
            n = np.full(len(rows), n)
        out = np.zeros(len(rows), dtype=np.intp)
        todo = np.flatnonzero(n > 1)
        while todo.size:
            bound = n[todo]
            m = self._halves(rows[todo]) * bound
            out[todo] = m >> 32
            # Lemire: reject while the low half is below 2**32 mod n
            todo = todo[(m & 0xFFFFFFFF) < (2 ** 32 - bound) % bound]
            for _ in range(todo.size):
                self._widen()
        return out

    def count_until_below(self, rows, p: float, limit) -> np.ndarray:
        """Read each row's doubles until one is below p, at most limit[i]
        for row i; the number read before that one, or limit[i] when none
        is."""
        width = self._words.shape[1]
        if self._below is None or self._below[0] != p:
            # a final sentinel past every row, so each search finds a position
            below = np.append(np.flatnonzero(self._doubles < p), self._doubles.size)
            self._below = p, below
        below = self._below[1]
        pos = self.pos[rows]
        if (pos + limit > width).any():
            raise IndexError("a stream read past its words")
        # the next position below p in row-major order; one in a later row
        # lies at least limit ahead
        at = rows * width + pos
        count = np.minimum(below[np.searchsorted(below, at)] - at, limit)
        self.pos[rows] = pos + count + (count < limit)
        return count


def _breed(seeds, genes, pool, weights, cross_prob, mut_prob,
           slot_paths, num_strats) -> np.ndarray:
    """The children bred from a (population, pairs, p_max, 2) gene array, one
    per seed, on the flat list of slots. Each draws from the stream of its
    seed, in this order: two parents from the pool (a double each,
    searched in the normalised cumulative weights as Generator.choice
    searches; or integers(len(pool)) each when weights is None), the
    crossover coin, the cut integers(1, slots) when the coin falls below
    cross_prob and there are two slots or more, and then for each slot in
    turn a mutation coin and, when it falls below mut_prob, a coin for the
    path side (below 0.5) or strategy side and integers(n) of that side's
    n choices."""
    length = len(slot_paths)
    # the most words a child can read: 3 + 2 * length doubles and
    # 3 + length halves
    streams = _Streams(seeds, 3 + 2 * length + (length + 4) // 2)
    rows = np.arange(len(seeds))
    pool = np.asarray(pool, dtype=np.intp)
    if weights is not None:
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        picks = [cdf.searchsorted(streams.doubles(rows), side="right") for _ in range(2)]
    else:
        picks = [streams.integers(rows, len(pool)) for _ in range(2)]
    coin = streams.doubles(rows)
    cut = np.full(len(rows), length)
    if length > 1:
        crossing = rows[coin < cross_prob]
        cut[crossing] = 1 + streams.integers(crossing, length - 1)
    # each child slot's parent: the first pick before the cut, the second after
    before = np.arange(length) < cut[:, None]
    parent = pool[np.where(before, picks[0][:, None], picks[1][:, None])]
    children = genes.reshape(len(genes), length, 2)[parent, np.arange(length)]
    slot = np.zeros(len(rows), dtype=np.intp)
    live = rows
    while live.size:
        at = slot[live] + streams.count_until_below(live, mut_prob, length - slot[live])
        hit = at < length
        live, at = live[hit], at[hit]
        on_path = streams.doubles(live) < 0.5
        bound = np.where(on_path, slot_paths[at], num_strats)
        children[live, at, np.where(on_path, 0, 1)] = streams.integers(live, bound)
        slot[live] = at + 1
        live = live[at + 1 < length]
    return children.reshape(len(rows), *genes.shape[1:])


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve_each(problem: GaProblem, id_lists) -> list:
    """problem.score of each pool-id array, or the exception it raised."""
    results = []
    for ids in id_lists:
        try:
            results.append(problem.score(ids))
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
    """Run the generational loop on a population of config.population_size
    Genomes; returns the trace (one row per generation, including the
    initial population as generation 0). Each generation is keyed at once
    and its distinct cache misses, in first-appearance order, are solved
    and cached in that order.

    With at least two usable CPUs and the fork start method, in a process
    that is not itself a multiprocessing child, evolve forks one helper
    process for its run. Each generation the helper solves every other
    miss and this process the rest; elsewhere this process solves them
    all. The trace is the same on either route.

    Before generation 0, and before any fork, evolve computes the column of
    every gene in the problem's layout, so neither process computes one
    during the generations."""
    if len(population) != config.population_size:
        raise ValueError(f"population of {len(population)} genomes, but "
                         f"population_size is {config.population_size}")
    genes = problem._gene_array(population)
    start = time.perf_counter()
    problem.compiler.fill(np.arange(problem._layout_size))
    fill_seconds = time.perf_counter() - start
    trace = None
    if _usable_cpus() >= 2:
        from . import forking  # here, so that serial runs do not import multiprocessing
        if forking.can_fork():
            with forking.Forks() as forks:
                helper = forks.start("GA fitness helper", _serve_misses, problem)
                trace = _generations(genes, config, problem,
                                     partial(_solve_split, problem, helper))
                helper.send(None)
            trace.fitness_helper = True
    if trace is None:
        trace = _generations(genes, config, problem, partial(_solve_each, problem))
    trace.pool_fill_seconds = fill_seconds
    return trace


def _generations(genes, config: GaConfig, problem: GaProblem, solve_batch) -> GaTrace:
    """evolve's loop from the initial gene array. Each generation is keyed
    as one batch and scored by problem.fitnesses, its distinct misses
    solved by solve_batch."""
    trace = GaTrace()
    slot_paths = problem._slot_limit.ravel()
    num_strats = len(problem.catalog)
    children = config.population_size - config.elitism_count

    def score(genes, t0):
        keyed = problem._keyed(genes)
        trace.breed_seconds.append(time.perf_counter() - t0)
        fitnesses = problem.fitnesses(keyed, solve_batch)
        trace.best_fitness.append(max(fitnesses))
        trace.mean_fitness.append(float(np.mean(fitnesses)))
        trace.seconds.append(time.perf_counter() - t0)
        trace.fitness_calls += len(fitnesses)
        return fitnesses

    fitnesses = score(genes, time.perf_counter())
    for gen in range(1, config.generations + 1):
        t0 = time.perf_counter()
        pool_frac, mut_prob, cross_prob = _schedule_for(config, gen - 1)
        order = sorted(range(len(genes)), key=lambda i: (-fitnesses[i], i))
        pool = order[:max(1, int(np.ceil(pool_frac * len(genes))))]
        weights = _pool_weights(pool, fitnesses, config.mode == "dynamic")
        seeds = [[config.seed, gen, slot] for slot in range(children)]
        bred = _breed(seeds, genes, pool, weights, cross_prob, mut_prob, slot_paths, num_strats)
        genes = np.concatenate((genes[order[:config.elitism_count]], bred))
        fitnesses = score(genes, t0)

    best_idx = max(range(len(genes)), key=lambda i: (fitnesses[i], -i))
    # elitism guarantees the final population contains the best-ever genome
    trace.best_genome = _genome_of(genes[best_idx])
    trace.best_wegr = fitnesses[best_idx]
    trace.lp_solves = problem.lp_solves
    return trace
