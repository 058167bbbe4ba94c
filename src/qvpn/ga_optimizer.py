"""Genetic search over joint (path, distillation strategy) assignments.

A genome is a flat list of (path index, strategy index) genes, p_max slots
per user pair in a fixed pair order. Fitness is the W-EGR of the decoded
selection through the allocation LP; infeasible selections score 0 so the
search can walk out of infeasible regions. Fitness never decodes: each gene
is an id in the compiler's column pool, and the LP is gathered from it.
Random streams are derived per (seed, generation, slot), so results do not
depend on evaluation order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral

import numpy as np

from .allocation_lp import LpCompiler, SolverError, wegr_of_selection
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
        # JSON true/false load as bools, which are ints; they are rejected
        for name, low in (("population_size", 2), ("generations", 0),
                          ("elitism_count", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        if self.mode not in ("dynamic", "static"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("mutation_start", "mutation_end", "crossover_start",
                     "crossover_end", "pool_start", "pool_end"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {v}")
        if not self.elitism_count < self.population_size:
            raise ValueError("need 1 <= elitism_count < population_size")

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
    best_genome: Genome | None = None
    best_wegr: float = 0.0
    lp_solves: int = 0


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
        for column in self._column_ids(genome).tolist():
            pair_key, path, strategy = self.compiler.choice(column)
            selection[pair_key].append((path, strategy))
        return selection

    def _column_ids(self, genome: Genome) -> np.ndarray:
        """Pool ids of the genome's first occurrence of each path per pair,
        in pair order and then slot order."""
        genes = np.fromiter(chain.from_iterable(genome.genes), dtype=np.intp,
                            count=2 * len(genome.genes)).reshape(-1, self.p_max, 2)
        paths, strats = genes[..., 0], genes[..., 1]
        if paths.shape != self._slot_limit.shape:
            raise ValueError("genome length does not match the problem encoding")
        if not ((0 <= paths) & (paths < self._slot_limit)
                & (0 <= strats) & (strats < len(self.catalog))).all():
            raise ValueError(f"gene outside the gene space in {genome.genes}")
        first = np.ones(paths.shape, dtype=bool)
        for j in range(1, self.p_max):
            first[:, j] = (paths[:, :j] != paths[:, j:j + 1]).all(axis=1)
        return (self._slot_base + paths * len(self.catalog) + strats)[first]

    def fitness(self, genome: Genome) -> float:
        ids = self._column_ids(genome)
        # each pair's ids lie in their own range, so one sort orders every
        # pair's set: permuted slots share a key, and so do repeated paths
        key = np.sort(ids).tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        try:
            value = wegr_of_selection(self.graph, self.workload, ids, self.noise, self.p_max,
                                      compiler=self.compiler)
        except SolverError as exc:
            raise SolverError(f"{exc} (while scoring genome {genome.genes})") from exc
        self.lp_solves += 1
        self._cache[key] = value
        return value

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


def random_genome(problem: GaProblem, rng) -> Genome:
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
    population = list(heur)
    for i in range(config.population_size - len(heur)):
        rng = np.random.default_rng([config.seed, 0, i])
        population.append(random_genome(problem, rng))
    return population


def _schedule_for(config: GaConfig, generation: int):
    if config.mode == "static":
        return config.pool_start, config.mutation_start, config.crossover_start
    return dynamic_schedule(generation, max(config.generations, 1), config)


def _pick_parent(rng, pool, weights):
    """One parent from the pool: proportional to weights (normalized, or
    None for a uniform pick)."""
    if weights is not None:
        return pool[rng.choice(len(pool), p=weights)]
    return pool[rng.integers(len(pool))]


def _pool_weights(pool, fitnesses, proportional):
    """Fitness-proportional pick weights over the pool, None when the pick
    is uniform (static mode, or no positive total)."""
    if proportional:
        weights = np.array([fitnesses[i] for i in pool], dtype=float)
        total = weights.sum()
        if total > 0:
            return weights / total
    return None


def _mutate(genes, slot_paths, num_strats, rng, prob):
    random, integers = rng.random, rng.integers
    out = list(genes)
    for slot, n_paths in enumerate(slot_paths):
        if random() < prob:
            path_idx, strat_idx = out[slot]
            if random() < 0.5:
                path_idx = int(integers(n_paths))
            else:
                strat_idx = int(integers(num_strats))
            out[slot] = (path_idx, strat_idx)
    return tuple(out)


def evolve(population, config: GaConfig, problem: GaProblem) -> GaTrace:
    """Run the generational loop; returns the trace (one row per generation,
    including the initial population as generation 0)."""
    trace = GaTrace()
    pop = list(population)
    length = problem.genome_length()
    slot_paths = [problem.gene_space(slot)[0] for slot in range(length)]
    num_strats = len(problem.catalog)
    for genome in pop:
        if len(genome.genes) != length:
            raise ValueError("genome length does not match the problem encoding")

    def record(fitnesses, elapsed):
        trace.best_fitness.append(max(fitnesses))
        trace.mean_fitness.append(float(np.mean(fitnesses)))
        trace.seconds.append(elapsed)

    t0 = time.perf_counter()
    fitnesses = [problem.fitness(g) for g in pop]
    record(fitnesses, time.perf_counter() - t0)

    for gen in range(1, config.generations + 1):
        t0 = time.perf_counter()
        pool_frac, mut_prob, cross_prob = _schedule_for(config, gen - 1)
        order = sorted(range(len(pop)), key=lambda i: (-fitnesses[i], i))
        pool = order[:max(1, int(np.ceil(pool_frac * len(pop))))]
        weights = _pool_weights(pool, fitnesses, config.mode == "dynamic")

        next_pop = [pop[i] for i in order[: config.elitism_count]]
        for slot in range(config.population_size - config.elitism_count):
            rng = np.random.default_rng([config.seed, gen, slot])
            p1 = pop[_pick_parent(rng, pool, weights)]
            p2 = pop[_pick_parent(rng, pool, weights)]
            if rng.random() < cross_prob and length > 1:
                cut = int(rng.integers(1, length))
                child = p1.genes[:cut] + p2.genes[cut:]
            else:
                child = p1.genes
            next_pop.append(Genome(_mutate(child, slot_paths, num_strats, rng, mut_prob)))
        pop = next_pop
        fitnesses = [problem.fitness(g) for g in pop]
        record(fitnesses, time.perf_counter() - t0)

    best_idx = max(range(len(pop)), key=lambda i: (fitnesses[i], -i))
    # elitism guarantees the final population contains the best-ever genome
    trace.best_genome = pop[best_idx]
    trace.best_wegr = fitnesses[best_idx]
    trace.lp_solves = problem.lp_solves
    return trace
