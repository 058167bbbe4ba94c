"""Experiment orchestration: the search pipeline, scenario sweeps, fairness
statistics, Pearson r.

search (path searches, a baseline / GA / RL selection, one final LP) is
the pipeline of the CLI commands and of every sweep point: the GA and RL
search the candidate union of all three weight schemes, and a greedy
baseline only the top p_max paths of its own scheme. A Scenario
bundles a topology, a workload (explicit or generation parameters), an
optimizer choice, and one optional sweep axis. run_scenario evaluates every
(sweep value, repetition) cell, serially or on forked worker processes, and
returns an ordered result bundle stamped with a hash of the full
configuration. Failures are recorded per point; the remaining points still
run.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace, field

from .checks import InputError, check_int, check_real, made, number, records
from .topology import NetworkGraph, save_topology
from .quantum_math import (
    DEFAULT_NOISE,
    DistillationStrategy,
    NoiseParams,
    catalog_prefix,
    default_strategy_catalog,
)
from .pathfinding import (
    BASELINE_SCHEMES,
    PathFinder,
    build_candidate_sets,
    baseline_selection,
    nearest_strategy_index,
    path_from_nodes,
)
from .workload import Workload, WorkloadParams, generate_workload, save_workload
# perfbench/layers.py wraps harness.build_problem and harness.solve until
# the bench calls search (ROADMAP item 3); search solves through its compiler
from .allocation_lp import LpCompiler, build_problem, solve  # noqa: F401
from . import ga_optimizer as ga
from . import rl_optimizer as rl


class DegenerateVarianceError(ValueError):
    """Pearson r is undefined: fewer than two points, or a zero-variance input."""


def pearson(xs, ys) -> float:
    """Pearson product-moment correlation coefficient."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise DegenerateVarianceError(f"need at least 2 points, got {n}")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    # variance indistinguishable from accumulated rounding noise counts as zero
    if sxx <= 1e-15 * n * (mx * mx + 1.0):
        raise DegenerateVarianceError("x values have (numerically) zero variance")
    if syy <= 1e-15 * n * (my * my + 1.0):
        raise DegenerateVarianceError("y values have (numerically) zero variance")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


_BASELINE_SCHEMES = {f"baseline-{name}": scheme for name, scheme in BASELINE_SCHEMES.items()}

OPTIMIZERS = (*_BASELINE_SCHEMES, "ga", "rl")
SWEEP_AXES = ("p_max", "strategy_count", "pairs_per_org", "k", "r_max")

# the search defaults of Scenario, search and the CLI
DEFAULT_K = 5  # candidate paths per pair per weight scheme
DEFAULT_P_MAX = 3  # active paths per pair
DEFAULT_BASELINE_THRESHOLD = 0.992  # greedy baselines distill links to (nearest of) this
DEFAULT_HIDDEN = (128,)  # RL policy layer widths


def _check_search(optimizer, k, p_max, catalog, baseline_threshold, ga_config) -> None:
    """Raise InputError unless search can take these arguments. The GA
    population must hold the greedy baselines that search seeds it with."""
    if optimizer not in OPTIMIZERS:
        raise InputError(f"unknown optimizer {optimizer!r}, expected one of {OPTIMIZERS}")
    check_int("k", k)
    check_int("p_max", p_max)
    if not catalog:
        raise InputError("the strategy catalog is empty")
    check_real("baseline_threshold", baseline_threshold, open_low=True)
    if optimizer == "ga" and ga_config is not None \
            and ga_config.population_size < len(_BASELINE_SCHEMES):
        raise InputError(f"population_size {ga_config.population_size} cannot hold the "
                         f"{len(_BASELINE_SCHEMES)} seeded greedy baselines")


@dataclass(frozen=True)
class Scenario:
    name: str
    graph: NetworkGraph
    workload: Workload | None = None
    workload_params: WorkloadParams | None = None
    optimizer: str = "baseline-hop"
    ga_config: ga.GaConfig | None = None
    rl_config: rl.TrainConfig | None = None
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    repetitions: int = 1
    seeds: tuple = (0,)
    k: int = DEFAULT_K
    p_max: int = DEFAULT_P_MAX
    catalog: tuple = field(default_factory=default_strategy_catalog)
    noise: NoiseParams = DEFAULT_NOISE
    baseline_threshold: float = DEFAULT_BASELINE_THRESHOLD

    def __post_init__(self):
        _check_search(self.optimizer, self.k, self.p_max, self.catalog,
                      self.baseline_threshold, self.ga_config)
        if (self.workload is None) == (self.workload_params is None):
            raise InputError("exactly one of workload / workload_params must be set")
        check_int("repetitions", self.repetitions)
        for seed in self.seeds:
            check_int("seeds", seed, low=0)
        if len(self.seeds) != self.repetitions:
            raise InputError(f"need {self.repetitions} seeds, got {len(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise InputError("repetition seeds must be distinct")
        if self.sweep_axis is None:
            if self.sweep_values:
                raise InputError("sweep_values given without a sweep_axis")
        else:
            if self.sweep_axis not in SWEEP_AXES:
                raise InputError(f"unknown sweep axis {self.sweep_axis!r}, expected one of {SWEEP_AXES}")
            if not self.sweep_values:
                raise InputError("sweep_axis set but sweep_values empty")
            name = f"{self.sweep_axis} sweep value"
            for value in self.sweep_values:
                if self.sweep_axis == "r_max":  # R_max may be inf, as a UserPair's may
                    check_real(name, value, open_low=True, open_high=False)
                else:
                    check_int(name, value)
            for a, b in zip(self.sweep_values, self.sweep_values[1:]):
                if not a < b:
                    raise InputError(f"sweep values must be strictly increasing, got {a} before {b}")
            if self.sweep_axis == "pairs_per_org" and self.workload_params is None:
                raise InputError("pairs_per_org sweep needs workload_params, not a fixed workload")


@dataclass(frozen=True)
class PointResult:
    axis_value: object
    repetition: int
    seed: int
    status: str  # "optimal" | "infeasible" | "error"
    wegr: float
    seconds: float
    selection: dict | None = None
    solution: object | None = None
    trace: object | None = None
    error: str | None = None


@dataclass(frozen=True)
class ScenarioResult:
    config_hash: str
    points: tuple


def scenario_config_text(scenario: Scenario) -> str:
    """Canonical text dump of everything that influences a scenario's results."""
    parts = [
        f"name={scenario.name}",
        "topology:\n" + save_topology(scenario.graph),
        f"workload={'<explicit>' if scenario.workload is not None else None}",
    ]
    if scenario.workload is not None:
        parts.append(save_workload(scenario.workload))
    if scenario.workload_params is not None:
        parts.append(repr(scenario.workload_params))
    parts.extend([
        f"optimizer={scenario.optimizer}",
        f"ga={scenario.ga_config!r}",
        f"rl={scenario.rl_config!r}",
        f"sweep={scenario.sweep_axis}:{scenario.sweep_values!r}",
        f"repetitions={scenario.repetitions} seeds={scenario.seeds!r}",
        f"k={scenario.k} p_max={scenario.p_max}",
        f"catalog={[s.link_threshold for s in scenario.catalog]!r}",
        f"max_rounds={[s.max_rounds for s in scenario.catalog]!r}",
        f"noise={scenario.noise!r}",
        f"baseline_threshold={scenario.baseline_threshold!r}",
    ])
    return "\n".join(parts)


def scenario_hash(scenario: Scenario) -> str:
    return hashlib.sha256(scenario_config_text(scenario).encode()).hexdigest()


def point_workload(scenario: Scenario, axis_value, seed):
    """The workload a sweep point actually optimizes (regenerated or rebuilt)."""
    if scenario.sweep_axis == "pairs_per_org":
        params = replace(scenario.workload_params, pairs_per_org=axis_value)
        return generate_workload(scenario.graph, params, seed)
    if scenario.workload is not None:
        wl = scenario.workload
    else:
        wl = generate_workload(scenario.graph, scenario.workload_params, seed)
    if scenario.sweep_axis == "r_max":
        pairs = tuple(replace(p, r_max=float(axis_value)) for p in wl.user_pairs)
        wl = Workload(organizations=wl.organizations, user_pairs=pairs, seed=wl.seed)
    return wl


@dataclass(frozen=True)
class SearchResult:
    selection: dict
    solution: object  # AllocationSolution of the final solve
    trace: object  # GaTrace (ga), mean reward per epoch (rl), None (baselines)
    lp_solves: int  # distinct LPs the search solved, the final solve not counted
    seconds: float  # the selection search alone
    policy: object | None = None  # the trained PolicyNetwork (rl)


def search(graph: NetworkGraph, workload: Workload, optimizer: str, seed: int, *,
           k: int, p_max: int, catalog, noise: NoiseParams = DEFAULT_NOISE,
           baseline_threshold: float = DEFAULT_BASELINE_THRESHOLD,
           ga_config: ga.GaConfig | None = None, rl_config: rl.TrainConfig | None = None,
           hidden=DEFAULT_HIDDEN,
           finder: PathFinder | None = None) -> SearchResult:
    """Path searches, one selection search, one final LP solve.

    optimizer is one of OPTIMIZERS. The GA and RL choose among each pair's
    candidates, the union of Yen's k shortest paths under all three weight
    schemes; the GA starts from the three baselines. A baseline with
    k >= p_max searches only the top p_max paths of its own scheme, which
    are the paths it picks, so k does not change its result. With
    k < p_max it checks its picks against the k-path union and fails on
    the first pick missing from it. seed replaces the seed of ga_config /
    rl_config (defaults when None) and seeds the RL policy of layer widths
    `hidden`. Every path query goes to finder (a fresh PathFinder when
    None). The search builds one LpCompiler (the GA's, the RL reward's or
    the baseline's) and ends with its solve of the chosen pool ids. Raises
    InputError before any search when an argument breaks its rule (k and
    p_max integers >= 1, a non-empty catalog, a finite baseline_threshold
    > 0, a GA population that holds the baselines); the final solve
    raises on solver failure.
    """
    catalog = tuple(catalog)
    _check_search(optimizer, k, p_max, catalog, baseline_threshold, ga_config)
    if finder is None:
        finder = PathFinder(graph)
    scheme = _BASELINE_SCHEMES.get(optimizer)
    # below p_max, the k-path union decides which baseline picks go missing
    if scheme is not None and k >= p_max:
        candidates = build_candidate_sets(graph, workload, k=p_max, schemes=(scheme,),
                                          finder=finder)
    else:
        candidates = build_candidate_sets(graph, workload, k=k, finder=finder)

    start = time.perf_counter()
    trace = policy = None
    lp_solves = 0
    if optimizer == "rl":
        problem = rl.RlProblem(workload, candidates, catalog[0], p_max=p_max)
        compiler = LpCompiler(graph, workload, noise, p_max)
        environment = rl.cached_reward(compiler)
        policy = rl.PolicyNetwork.init(problem, hidden=hidden, seed=seed)
        config = replace(rl_config or rl.TrainConfig(), seed=seed)
        _, trace, _ = rl.train(policy, problem, config, environment)
        selection = rl.greedy_selection(policy, problem)
        lp_solves = len(environment.cache)
    else:
        idx = nearest_strategy_index(catalog, baseline_threshold)

        def baseline(scheme):
            return baseline_selection(graph, workload, candidates, scheme, p_max=p_max,
                                      strategy_index=idx, catalog=catalog, finder=finder)

        if optimizer == "ga":
            problem = ga.GaProblem(graph, workload, candidates, catalog, noise=noise,
                                   p_max=p_max)
            config = replace(ga_config or ga.GaConfig(), seed=seed)
            heuristics = [baseline(scheme) for scheme in _BASELINE_SCHEMES.values()]
            population = ga.initialize_population(problem, config, seed_heuristics=heuristics)
            trace = ga.evolve(population, config, problem)
            selection = problem.decode(trace.best_genome)
            lp_solves = trace.lp_solves
            compiler = problem.compiler
        else:
            selection = baseline(scheme)
            compiler = LpCompiler(graph, workload, noise, p_max)
    seconds = time.perf_counter() - start

    solution = compiler.solve(compiler.column_ids(selection))
    return SearchResult(selection=selection, solution=solution, trace=trace,
                        lp_solves=lp_solves, seconds=seconds, policy=policy)


def _run_point(scenario: Scenario, axis_value, repetition: int, seed: int,
               finder: PathFinder) -> PointResult:
    start = time.perf_counter()
    p_max = axis_value if scenario.sweep_axis == "p_max" else scenario.p_max
    k = axis_value if scenario.sweep_axis == "k" else scenario.k
    catalog = (catalog_prefix(scenario.catalog, axis_value)
               if scenario.sweep_axis == "strategy_count" else scenario.catalog)

    result = search(scenario.graph, point_workload(scenario, axis_value, seed),
                    scenario.optimizer, seed, k=k, p_max=p_max, catalog=catalog,
                    noise=scenario.noise, baseline_threshold=scenario.baseline_threshold,
                    ga_config=scenario.ga_config, rl_config=scenario.rl_config,
                    finder=finder)
    return PointResult(
        axis_value=axis_value, repetition=repetition, seed=seed,
        status=result.solution.status, wegr=result.solution.wegr,
        seconds=time.perf_counter() - start,
        selection=result.selection, solution=result.solution, trace=result.trace)


def _guarded_point(scenario: Scenario, task, finder: PathFinder) -> PointResult:
    value, rep, seed = task
    try:
        return _run_point(scenario, value, rep, seed, finder)
    except Exception as exc:  # recorded, sweep continues
        return PointResult(axis_value=value, repetition=rep, seed=seed,
                           status="error", wegr=float("nan"), seconds=0.0,
                           error=f"{type(exc).__name__}: {exc}")


def _run_share(scenario: Scenario, tasks, finder: PathFinder, conn) -> None:
    """A worker process's body: its tasks in order on its copy of finder,
    then the points and the finder's query, Yen-run and spur-search counts
    to conn."""
    queries, yen_runs, spur_searches = finder.queries, finder.yen_runs, finder.spur_searches
    points = [_guarded_point(scenario, task, finder) for task in tasks]
    conn.send((points, finder.queries - queries, finder.yen_runs - yen_runs,
               finder.spur_searches - spur_searches))
    conn.close()


def _run_forked(scenario: Scenario, tasks, workers: int, finder: PathFinder) -> tuple:
    """Worker w runs tasks[w::workers] on a fork of this process (see
    forking.Forks); the points come back in task order and the workers'
    counts are added to finder. Raises if a worker ends without sending its
    points; no worker outlives the call."""
    # np.random.default_rng loads numpy.random: once here, not in every worker
    import numpy.random  # noqa: F401
    from .forking import Forks

    points = [None] * len(tasks)
    with Forks() as forks:
        shares = [forks.start(f"sweep worker {w}", _run_share, scenario, tasks[w::workers], finder)
                  for w in range(workers)]
        for w, worker in enumerate(shares):
            points[w::workers], queries, yen_runs, spur_searches = worker.recv()
            finder.queries += queries
            finder.yen_runs += yen_runs
            finder.spur_searches += spur_searches
    return tuple(points)


def run_scenario(scenario: Scenario, max_workers: int = 1,
                 finder: PathFinder | None = None) -> ScenarioResult:
    """Evaluate every sweep point x repetition; errors are recorded per point.

    Points are searched through finder when given, else a fresh PathFinder
    of the scenario's graph. With max_workers > 1, min(max_workers, points)
    processes forked from this one share the points out statically; each
    searches on its own copy of finder, whose counts then take in theirs.
    Every point is a pure function of (scenario, axis value, seed), so the
    results do not depend on max_workers. Without the fork start method,
    or in a process that is itself a multiprocessing child, the points run
    serially.
    """
    check_int("max_workers", max_workers)
    if finder is None:
        finder = PathFinder(scenario.graph)
    config_hash = scenario_hash(scenario)
    axis_values = scenario.sweep_values if scenario.sweep_axis is not None else (None,)
    tasks = [(value, rep, scenario.seeds[rep])
             for value in axis_values for rep in range(scenario.repetitions)]

    workers = min(max_workers, len(tasks))
    points = None
    if workers > 1:
        from . import forking  # here, so that serial runs do not import multiprocessing
        if forking.can_fork():
            points = _run_forked(scenario, tasks, workers, finder)
    if points is None:
        points = tuple(_guarded_point(scenario, task, finder) for task in tasks)
    return ScenarioResult(config_hash=config_hash, points=points)


@dataclass(frozen=True)
class PairFairnessRow:
    pair_key: tuple
    true_egr: float
    weighted_egr: float
    demand_weight: float  # lambda
    fidelity_threshold: float
    min_hops: float  # nan when the pair received no rate
    composite: float  # w * lambda / (F * L); nan when min_hops undefined


@dataclass(frozen=True)
class FairnessReport:
    pair_rows: tuple  # PairFairnessRow, descending true EGR
    corr_demand: float
    corr_fidelity: float
    corr_hops: float
    corr_composite: float
    org_true_egr: tuple  # ((org_id, value), ...) ordered by org id
    org_weighted_egr: tuple
    total_wegr: float
    zero_rate_pairs: int
    degenerate_metrics: tuple  # metric names whose correlation was undefined


def fairness_report(solution, workload: Workload, selection) -> FairnessReport:
    """Distributional statistics of an optimal allocation.

    Pairs with zero rate are excluded from the correlation inputs and counted
    in zero_rate_pairs. A metric with (numerically) zero variance across the
    remaining pairs yields a nan correlation and is listed in
    degenerate_metrics; if fewer than two pairs have positive rate the
    correlations are undefined as a whole and DegenerateVarianceError is
    raised.
    """
    if solution.status != "optimal":
        raise ValueError(f"fairness report needs an optimal solution, got {solution.status!r}")
    rate_tol = 1e-9
    for pk, nodes in solution.rates:
        if pk not in selection:
            raise ValueError(f"solution rate for pair {pk!r} absent from selection")
    rows = []
    for pair in workload.user_pairs:
        org = workload.org_by_id(pair.org_id)
        hops = [len(nodes) - 1
                for (pk, nodes), rate in solution.rates.items()
                if pk == pair.key and rate > rate_tol]
        if hops:
            true_egr = solution.true_egr_per_pair[pair.key]
            min_hops = float(min(hops))
            composite = org.weight * pair.weight / (pair.fidelity_threshold * min_hops)
        else:
            true_egr = 0.0
            min_hops = float("nan")
            composite = float("nan")
        rows.append(PairFairnessRow(
            pair_key=pair.key, true_egr=true_egr,
            weighted_egr=org.weight * pair.weight * true_egr,
            demand_weight=pair.weight, fidelity_threshold=pair.fidelity_threshold,
            min_hops=min_hops, composite=composite))
    rows.sort(key=lambda r: (-r.true_egr, r.pair_key))

    active = [r for r in rows if not math.isnan(r.min_hops)]
    zero_rate = len(rows) - len(active)
    if len(active) < 2:
        raise DegenerateVarianceError(
            f"correlations need at least 2 pairs with positive rate, got {len(active)}")

    truths = [r.true_egr for r in active]
    correlations = {}
    degenerate = []
    for name, values in (
        ("demand", [r.demand_weight for r in active]),
        ("fidelity", [r.fidelity_threshold for r in active]),
        ("hops", [r.min_hops for r in active]),
        ("composite", [r.composite for r in active]),
    ):
        try:
            correlations[name] = pearson(values, truths)
        except DegenerateVarianceError:
            correlations[name] = float("nan")
            degenerate.append(name)

    org_true = {org.id: 0.0 for org in workload.organizations}
    org_weighted = {org.id: 0.0 for org in workload.organizations}
    for r in rows:
        org_true[r.pair_key[0]] += r.true_egr
        org_weighted[r.pair_key[0]] += r.weighted_egr
    return FairnessReport(
        pair_rows=tuple(rows),
        corr_demand=correlations["demand"],
        corr_fidelity=correlations["fidelity"],
        corr_hops=correlations["hops"],
        corr_composite=correlations["composite"],
        org_true_egr=tuple(sorted(org_true.items())),
        org_weighted_egr=tuple(sorted(org_weighted.items())),
        total_wegr=solution.wegr,
        zero_rate_pairs=zero_rate,
        degenerate_metrics=tuple(degenerate),
    )


# Selection file: header "qvpn-selection v1", then one line per active
# (pair, path, strategy):
#   select <org> <a> <b> path <node> <node> ... threshold <t> max_rounds <n>
# The strategy is the last four tokens, so a node may be named "threshold".
SELECTION_HEADER = "qvpn-selection v1"
_SELECT_FORM = "expected 'select <org> <a> <b> path <node> ... threshold <t> max_rounds <n>'"


def save_selection(selection) -> str:
    out = [SELECTION_HEADER]
    for pair_key in sorted(selection):
        org, a, b = pair_key
        for path, strategy in selection[pair_key]:
            nodes = " ".join(path.nodes)
            out.append(f"select {org} {a} {b} path {nodes} "
                       f"threshold {strategy.link_threshold!r} max_rounds {strategy.max_rounds}")
    return "\n".join(out) + "\n"


def load_selection(source: str, graph: NetworkGraph):
    """Parse a selection document against a graph: (selection round-tripping
    save_selection, {pair key: its first line}). Raises InputError on a line
    that breaks the format, names no path of the graph, or repeats a path."""
    selection, first_lines = {}, {}
    for lineno, tokens in records(source, SELECTION_HEADER, InputError):
        where = f"line {lineno}:"
        if (len(tokens) < 10 or tokens[0] != "select" or tokens[4] != "path"
                or tokens[-4] != "threshold" or tokens[-2] != "max_rounds"):
            raise InputError(f"{where} {_SELECT_FORM}")
        pair_key = tuple(tokens[1:4])
        nodes = tuple(tokens[5:-4])
        if nodes[0] != pair_key[1] or nodes[-1] != pair_key[2]:
            raise InputError(f"{where} path must run from the pair's first endpoint "
                             "to its second")
        chosen = selection.setdefault(pair_key, [])
        first_lines.setdefault(pair_key, lineno)
        if any(path.nodes == nodes for path, _ in chosen):
            raise InputError(f"{where} pair {pair_key} repeats path {' '.join(nodes)}")
        threshold = number(tokens[-3], f"{where} threshold", float, InputError)
        max_rounds = number(tokens[-1], f"{where} max_rounds", int, InputError)
        try:
            path = path_from_nodes(graph, nodes)
        except KeyError as exc:
            raise InputError(f"{where} the graph has no link {exc}") from None
        chosen.append((path, made(where, InputError, DistillationStrategy, threshold,
                                  max_rounds)))
    return selection, first_lines
