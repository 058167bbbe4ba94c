import multiprocessing
import os
import re
import signal

import numpy as np
import pytest

from qvpn import allocation_lp, forking, ga_optimizer
from qvpn.allocation_lp import LpCompiler, SolverError, wegr_of_selection
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn.ga_optimizer import (
    GaConfig,
    GaProblem,
    Genome,
    dynamic_schedule,
    evolve,
    initialize_population,
    random_genome,
)
from qvpn.pathfinding import WeightScheme, baseline_selection, build_candidate_sets
from qvpn.quantum_math import (DistillationStrategy, default_strategy_catalog,
                               path_overhead_per_link)
from qvpn.workload import Organization, Workload, WorkloadParams, generate_workload

from qvpn_helpers import make_pair


@pytest.fixture
def tri_problem(triangle):
    org = Organization("org0", 1.0)
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "C", weight=0.4))
    wl = Workload(organizations=(org,), user_pairs=pairs, seed=0)
    cands = build_candidate_sets(triangle, wl, k=3)
    catalog = default_strategy_catalog(4)
    return GaProblem(triangle, wl, cands, catalog, p_max=2)


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        GaConfig(mode="annealed")
    with pytest.raises(ValueError, match="mutation_start"):
        GaConfig(mutation_start=1.5)
    with pytest.raises(ValueError, match="elitism"):
        GaConfig(population_size=4, elitism_count=4)
    with pytest.raises(ValueError, match="seed"):
        GaConfig(seed=-1)
    # integer fields reject bools (JSON true), floats and values below the minimum
    for name, value in (("generations", True), ("generations", 2.0), ("generations", -3),
                        ("population_size", 8.0), ("population_size", 1),
                        ("elitism_count", True), ("seed", 1.5)):
        with pytest.raises(ValueError, match=name):
            GaConfig(**{name: value})
    assert GaConfig(generations=0).generations == 0
    assert GaConfig(generations=np.int64(3), seed=np.int64(2)).generations == 3


def test_static_mode_constructor():
    cfg = GaConfig.static_mode(population_size=20)
    assert cfg.mode == "static"
    assert cfg.pool_start == cfg.pool_end == 0.2
    assert cfg.mutation_start == cfg.mutation_end == 0.05
    # static schedules ignore the generation index
    from qvpn.ga_optimizer import _schedule_for
    assert _schedule_for(cfg, 0) == _schedule_for(cfg, 500)


def test_dynamic_schedule_endpoints():
    cfg = GaConfig()
    pool, mut, cross = dynamic_schedule(0, 100, cfg)
    assert (pool, mut, cross) == (1.0, 0.3, 0.9)
    pool, mut, cross = dynamic_schedule(99, 100, cfg)
    assert pool == pytest.approx(0.2)
    assert mut == pytest.approx(0.02)
    assert cross == pytest.approx(0.6)


def test_dynamic_schedule_midpoint_and_monotone():
    cfg = GaConfig()
    # odd total puts an exact midpoint on the grid
    pool, mut, cross = dynamic_schedule(50, 101, cfg)
    assert pool == pytest.approx((1.0 + 0.2) / 2)
    assert mut == pytest.approx((0.3 + 0.02) / 2)
    assert cross == pytest.approx((0.9 + 0.6) / 2)
    pools = [dynamic_schedule(g, 40, cfg)[0] for g in range(40)]
    assert all(a >= b for a, b in zip(pools, pools[1:]))
    with pytest.raises(ValueError):
        dynamic_schedule(40, 40, cfg)


def test_genome_length_and_gene_space(tri_problem):
    assert tri_problem.genome_length() == 4  # 2 pairs x p_max 2
    n_paths, n_strats = tri_problem.gene_space(0)
    assert n_strats == 4
    assert n_paths == len(tri_problem.candidates[tri_problem.pair_order[0]])


def test_decode_structure_fuzz(tri_problem):
    # every random genome decodes to a valid bounded selection
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        g = random_genome(tri_problem, rng)
        sel = tri_problem.decode(g)
        assert set(sel) == set(tri_problem.pair_order)
        for pair_key, picks in sel.items():
            assert 1 <= len(picks) <= tri_problem.p_max
            paths = [p.link_keys for p, _ in picks]
            assert len(set(paths)) == len(paths)  # duplicates collapsed
            for path, strategy in picks:
                assert path in tri_problem.candidates[pair_key]
                assert strategy in tri_problem.catalog


def test_decode_keeps_first_duplicate(tri_problem):
    g = Genome(((0, 1), (0, 3), (1, 0), (1, 2)))
    sel = tri_problem.decode(g)
    first_pair = tri_problem.pair_order[0]
    picks = sel[first_pair]
    assert len(picks) == 1  # same path twice
    assert picks[0][1] is tri_problem.catalog[1]  # first strategy wins


def test_encode_decode_round_trip(tri_problem):
    rng = np.random.default_rng(77)
    for _ in range(50):
        sel = tri_problem.decode(random_genome(tri_problem, rng))
        again = tri_problem.decode(tri_problem.encode_selection(sel))
        assert {k: [(p.link_keys, s.link_threshold) for p, s in v] for k, v in sel.items()} == \
               {k: [(p.link_keys, s.link_threshold) for p, s in v] for k, v in again.items()}


def test_encode_selection_rejects_picks_outside_the_problem(triangle, tri_problem):
    pair_key = tri_problem.pair_order[0]
    cands = dict(tri_problem.candidates)
    outside = cands[pair_key][1]
    cands[pair_key] = cands[pair_key][:1]
    prob = GaProblem(triangle, tri_problem.workload, cands, tri_problem.catalog, p_max=2)
    inside = cands[pair_key][0]
    for pick in ((outside, prob.catalog[0]), (inside, DistillationStrategy(0.5))):
        with pytest.raises(ValueError, match=re.escape(f"pair {pair_key}")):
            prob.encode_selection({pair_key: [pick]})
        # looking a pick up gives it no pool id
        assert prob.compiler.find_id(pair_key, *pick) is None
    # a choice scored through the problem's compiler gets an id past the layout
    prob.compiler.column_id(pair_key, outside, prob.catalog[0])
    with pytest.raises(ValueError, match=re.escape(f"pair {pair_key}")):
        prob.encode_selection({pair_key: [(outside, prob.catalog[0])]})


def test_repeated_catalog_strategies_are_rejected(triangle, tri_problem):
    # a repeated choice would share a pool id, and gene arithmetic would skew
    catalog = tri_problem.catalog + tri_problem.catalog[:1]
    with pytest.raises(ValueError, match="repeat"):
        GaProblem(triangle, tri_problem.workload, tri_problem.candidates, catalog, p_max=2)


def test_fitness_matches_lp_and_caches(tri_problem):
    g = Genome(((0, 0), (1, 1), (0, 2), (0, 2)))
    want = wegr_of_selection(tri_problem.graph, tri_problem.workload,
                             tri_problem.decode(g), p_max=2)
    before = tri_problem.lp_solves
    assert tri_problem.fitness(g) == want
    assert tri_problem.lp_solves == before + 1
    tri_problem.fitness(g)  # second evaluation is a cache hit
    assert tri_problem.lp_solves == before + 1


def test_fitness_cache_keyed_by_canonical_selection(tri_problem):
    before = tri_problem.lp_solves
    # slots reordered within the pair but same (path -> strategy) map
    a = Genome(((0, 1), (1, 2), (0, 0), (1, 3)))
    b = Genome(((1, 2), (0, 1), (1, 3), (0, 0)))
    fa = tri_problem.fitness(a)
    fb = tri_problem.fitness(b)
    assert fa == fb
    assert tri_problem.lp_solves == before + 1


def test_infeasible_genome_scores_zero(triangle):
    org = Organization("org0", 1.0)
    pair = make_pair("org0", "A", "B", r_min=1e9)
    wl = Workload(organizations=(org,), user_pairs=(pair,), seed=0)
    cands = build_candidate_sets(triangle, wl, k=2)
    prob = GaProblem(triangle, wl, cands, default_strategy_catalog(4), p_max=2)
    rng = np.random.default_rng(0)
    assert prob.fitness(random_genome(prob, rng)) == 0.0


def test_initialize_population_heuristics_first(triangle, tri_problem):
    catalog = tri_problem.catalog
    sel = baseline_selection(triangle, tri_problem.workload,
                             tri_problem.candidates, WeightScheme.HOP,
                             p_max=2, catalog=catalog)
    cfg = GaConfig(population_size=6, generations=2)
    pop = initialize_population(tri_problem, cfg, seed_heuristics=(sel,))
    assert len(pop) == 6
    assert pop[0] == tri_problem.encode_selection(sel)
    with pytest.raises(ValueError, match="below"):
        initialize_population(tri_problem, GaConfig(population_size=2, generations=1),
                              seed_heuristics=(sel, sel, sel))


def test_evolve_deterministic(tri_problem, triangle):
    cfg = GaConfig(population_size=8, generations=6, seed=3)
    runs = []
    for _ in range(2):
        prob = GaProblem(triangle, tri_problem.workload, tri_problem.candidates,
                         tri_problem.catalog, p_max=2)
        pop = initialize_population(prob, cfg)
        runs.append(evolve(pop, cfg, prob))
    assert runs[0].best_fitness == runs[1].best_fitness
    assert runs[0].mean_fitness == runs[1].mean_fitness
    assert runs[0].best_genome == runs[1].best_genome
    assert runs[0].best_wegr == runs[1].best_wegr


def test_evolve_trace_shape_and_monotone_best(tri_problem):
    cfg = GaConfig(population_size=8, generations=10, seed=1)
    pop = initialize_population(tri_problem, cfg)
    trace = evolve(pop, cfg, tri_problem)
    assert len(trace.best_fitness) == 11  # generation 0 plus 10
    assert len(trace.mean_fitness) == 11
    assert len(trace.seconds) == 11
    # elitism: the best never degrades
    for a, b in zip(trace.best_fitness, trace.best_fitness[1:]):
        assert b >= a
    assert trace.best_wegr == trace.best_fitness[-1]
    assert trace.lp_solves > 0
    assert trace.best_wegr == tri_problem.fitness(trace.best_genome)


def test_evolve_improves_on_seeded_heuristic(triangle, tri_problem):
    sel = baseline_selection(triangle, tri_problem.workload, tri_problem.candidates,
                             WeightScheme.HOP, p_max=2, catalog=tri_problem.catalog)
    heur_fit = wegr_of_selection(triangle, tri_problem.workload, sel, p_max=2)
    cfg = GaConfig(population_size=10, generations=8, seed=5)
    pop = initialize_population(tri_problem, cfg, seed_heuristics=(sel,))
    trace = evolve(pop, cfg, tri_problem)
    assert trace.best_wegr >= heur_fit  # elitism keeps the seed alive
    assert trace.best_fitness[0] >= heur_fit


def test_evolve_rejects_wrong_genome_length(tri_problem):
    cfg = GaConfig(population_size=4, generations=1)
    with pytest.raises(ValueError, match="length"):
        evolve([Genome(((0, 0),))] * 4, cfg, tri_problem)


def test_static_and_dynamic_both_search(tri_problem, triangle):
    results = {}
    for cfg in (GaConfig(population_size=8, generations=5, seed=2),
                GaConfig.static_mode(population_size=8, generations=5, seed=2)):
        prob = GaProblem(triangle, tri_problem.workload, tri_problem.candidates,
                         tri_problem.catalog, p_max=2)
        pop = initialize_population(prob, cfg)
        results[cfg.mode] = evolve(pop, cfg, prob).best_wegr
    assert results["dynamic"] > 0
    assert results["static"] > 0


def test_pairs_without_candidates_are_skipped(triangle):
    org = Organization("org0", 1.0)
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "C"))
    wl = Workload(organizations=(org,), user_pairs=pairs, seed=0)
    cands = build_candidate_sets(triangle, wl, k=2)
    cands[pairs[1].key] = []
    prob = GaProblem(triangle, wl, cands, default_strategy_catalog(2), p_max=2)
    assert prob.pair_order == [pairs[0].key]
    assert prob.genome_length() == 2


# ------------------------------------------------ fitness through the column pool

@pytest.fixture(scope="module", params=[0, 1])
def net50_inputs(request):
    """A ga-net50-sized instance: its graph, workload and candidate sets."""
    net50 = bundled_topology()
    wl = generate_workload(net50, WorkloadParams(num_orgs=3, pairs_per_org=10, r_min=0.0),
                           request.param)
    return net50, wl, build_candidate_sets(net50, wl, k=5)


@pytest.fixture
def net50_problem(net50_inputs):
    net50, wl, cands = net50_inputs
    return GaProblem(net50, wl, cands, default_strategy_catalog(), p_max=3)


def _feasibility(problem):
    """feasible[pair index][path index][strategy index], from the overheads."""
    pairs = {p.key: p for p in problem.workload.user_pairs}
    links = problem.graph.link_by_key
    return [[[all(path_overhead_per_link(links[lk].base_fidelity, path.hop_count, strategy,
                                         pairs[key].fidelity_threshold).feasible
                  for lk in path.link_keys)
              for strategy in problem.catalog]
             for path in problem.candidates[key]]
            for key in problem.pair_order]


def _split_pick(feasible_pair):
    """(path, infeasible strategy, feasible strategy) for one pair, or None."""
    for path_idx, row in enumerate(feasible_pair):
        if not all(row) and any(row):
            return path_idx, row.index(False), row.index(True)
    return None


def _scored_lps(monkeypatch, problem):
    """Record the LP of every fitness miss, as the pool ids it passes."""
    lps = []
    real = ga_optimizer.wegr_of_selection

    def recording(graph, workload, selection, *args, **kwargs):
        lps.append(kwargs["compiler"].gather(selection))
        return real(graph, workload, selection, *args, **kwargs)

    monkeypatch.setattr(ga_optimizer, "wegr_of_selection", recording)
    return lps


def test_pool_lp_equals_compile_of_decode(monkeypatch, net50_problem):
    # the id route must hand HiGHS exactly the arrays compile(decode(g))
    # builds, with repeated paths and infeasible first picks in the mix
    problem = net50_problem
    feasible = _feasibility(problem)
    splits = [_split_pick(f) for f in feasible]
    assert sum(s is not None for s in splits) >= 10
    lps = _scored_lps(monkeypatch, problem)
    reference = LpCompiler(problem.graph, problem.workload, problem.noise, problem.p_max)
    rng = np.random.default_rng(41)
    p = problem.p_max
    forced_duplicates = forced_infeasible = 0
    for trial in range(300):
        genes = list(random_genome(problem, rng).genes)
        for i, split in enumerate(splits):
            r = rng.random()
            if r < 0.3:  # the same path twice; the first strategy wins
                genes[i * p + 2] = (genes[i * p][0], int(rng.integers(len(problem.catalog))))
                forced_duplicates += 1
            elif r < 0.5 and split is not None:  # infeasible first, feasible second
                path_idx, bad, good = split
                genes[i * p] = (path_idx, bad)
                genes[i * p + 1] = (path_idx, good)
                forced_infeasible += 1
        genome = Genome(tuple(genes))
        before = len(lps)
        value = problem.fitness(genome)
        assert len(lps) == before + 1, trial  # random genomes never repeat here
        want = reference.compile(problem.decode(genome)).lp
        got = lps[-1]
        for name in ("objective", "indptr", "indices", "data", "row_bounds"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (trial, name)
        assert got.row_labels == want.row_labels
        assert value == wegr_of_selection(problem.graph, problem.workload,
                                          problem.decode(genome), problem.noise,
                                          problem.p_max, compiler=reference)
    assert forced_duplicates > 300 and forced_infeasible > 300


def test_building_a_problem_does_no_column_math(monkeypatch, net50_inputs):
    # the layout gets its pool ids at init; a column's overheads are computed
    # the first time a gather asks for it
    calls = []
    real = allocation_lp.path_overhead_per_link

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(allocation_lp, "path_overhead_per_link", counting)
    net50, wl, cands = net50_inputs
    problem = GaProblem(net50, wl, cands, default_strategy_catalog(), p_max=3)
    assert calls == []
    problem.fitness(random_genome(problem, np.random.default_rng(0)))
    assert calls


def test_fitness_cache_is_keyed_on_first_picks(net50_problem):
    problem = net50_problem
    splits = [_split_pick(f) for f in _feasibility(problem)]
    i = next(i for i, s in enumerate(splits) if s is not None)
    path_idx, bad, good = splits[i]
    other = (path_idx + 1) % len(problem.candidates[problem.pair_order[i]])
    base = list(random_genome(problem, np.random.default_rng(3)).genes)
    p = problem.p_max

    def with_pair(slots):
        genes = list(base)
        genes[i * p:(i + 1) * p] = slots
        return Genome(tuple(genes))

    before = problem.lp_solves
    infeasible_first = problem.fitness(with_pair([(path_idx, bad), (other, 0), (path_idx, good)]))
    assert problem.lp_solves == before + 1
    # permuted slots with the same first picks hit, infeasible pick and all
    assert problem.fitness(with_pair([(other, 0), (path_idx, bad), (path_idx, good)])) \
        == infeasible_first
    assert problem.fitness(with_pair([(other, 0), (other, 5), (path_idx, bad)])) \
        == infeasible_first
    assert problem.lp_solves == before + 1
    # the same path picked feasible first is another selection
    problem.fitness(with_pair([(path_idx, good), (other, 0), (path_idx, bad)]))
    assert problem.lp_solves == before + 2


def test_genes_outside_the_gene_space_are_rejected(tri_problem):
    n_paths, n_strats = tri_problem.gene_space(0)
    for bad in ((n_paths, 0), (-1, 0), (0, n_strats), (0, -1)):
        with pytest.raises(ValueError, match="gene space"):
            tri_problem.fitness(Genome((bad, (0, 0), (0, 0), (0, 0))))
    with pytest.raises(ValueError, match="length"):
        tri_problem.fitness(Genome(((0, 0), (0, 0))))


def test_traced_lp_solves_see_every_miss(monkeypatch, tri_problem):
    # a trace counts LP solves by wrapping the module attribute
    # ga_optimizer.wegr_of_selection and fitness calls by wrapping
    # GaProblem.fitness, so every miss must go through the one and every
    # scored genome through the other. Wrappers see only this process, so
    # the run takes the one-CPU route, which forks no fitness helper
    monkeypatch.setattr(ga_optimizer, "_usable_cpus", lambda: 1)
    lp_calls, fitness_calls = [], []
    real_wegr = ga_optimizer.wegr_of_selection
    real_fitness = GaProblem.fitness

    def counting_wegr(*args, **kwargs):
        lp_calls.append(args[2])
        return real_wegr(*args, **kwargs)

    def counting_fitness(self, genome):
        fitness_calls.append(genome)
        return real_fitness(self, genome)

    monkeypatch.setattr(ga_optimizer, "wegr_of_selection", counting_wegr)
    monkeypatch.setattr(GaProblem, "fitness", counting_fitness)
    cfg = GaConfig(population_size=12, generations=6, seed=4)
    trace = evolve(initialize_population(tri_problem, cfg), cfg, tri_problem)
    assert len(fitness_calls) == cfg.population_size * (cfg.generations + 1)
    assert len(lp_calls) == trace.lp_solves == tri_problem.lp_solves
    assert 0 < trace.lp_solves < len(fitness_calls)  # hits happen, and are not counted
    assert not trace.fitness_helper


# ------------------------------------------------ the forked fitness helper

needs_fork = pytest.mark.skipif(not forking.can_fork(), reason="this process cannot fork")


def _run_on(monkeypatch, cpus, problem, config, population=None):
    """evolve on the route that cpus usable CPUs select; the helper route is
    taken wherever the platform can fork."""
    monkeypatch.setattr(ga_optimizer, "_usable_cpus", lambda: cpus)
    if population is None:
        population = initialize_population(problem, config)
    trace = evolve(population, config, problem)
    assert multiprocessing.active_children() == []
    return trace


def _trace_view(trace):
    return (trace.best_fitness, trace.mean_fitness, trace.best_genome, trace.best_wegr,
            trace.lp_solves, trace.fitness_calls)


def _fresh(problem):
    return GaProblem(problem.graph, problem.workload, problem.candidates, problem.catalog,
                     noise=problem.noise, p_max=problem.p_max)


@needs_fork
@pytest.mark.parametrize("mode", ["dynamic", "static"])
@pytest.mark.parametrize("seed", [0, 7])
def test_helper_gives_the_serial_trace(monkeypatch, net50_problem, mode, seed):
    config = (GaConfig(population_size=12, generations=5, seed=seed) if mode == "dynamic"
              else GaConfig.static_mode(population_size=12, generations=5, seed=seed))
    serial = _run_on(monkeypatch, 1, _fresh(net50_problem), config)
    helped = _run_on(monkeypatch, 2, _fresh(net50_problem), config)
    assert not serial.fitness_helper and helped.fitness_helper
    assert _trace_view(helped) == _trace_view(serial)
    assert helped.fitness_calls == config.population_size * (config.generations + 1)


@needs_fork
def test_helper_gives_the_serial_trace_with_repeated_children(monkeypatch, tri_problem):
    # the triangle's gene space is small, so children repeat within and
    # across generations; the initial population repeats genomes outright
    rng = np.random.default_rng(5)
    distinct = [random_genome(tri_problem, rng) for _ in range(4)]
    population = [distinct[i % 4] for i in range(10)]
    for config in (GaConfig(population_size=10, generations=8, seed=2),
                   GaConfig.static_mode(population_size=10, generations=8, seed=2)):
        serial = _run_on(monkeypatch, 1, _fresh(tri_problem), config, population)
        helped = _run_on(monkeypatch, 2, _fresh(tri_problem), config, population)
        assert helped.fitness_helper
        assert _trace_view(helped) == _trace_view(serial)
        assert 0 < helped.lp_solves < helped.fitness_calls / 2


@needs_fork
def test_helper_scores_infeasible_lps_zero(monkeypatch):
    # with R_min > 0 a third of random selections are infeasible
    net10 = bundled_topology(TOPOLOGY_10)
    wl = generate_workload(net10, WorkloadParams(num_orgs=2, pairs_per_org=3, r_min=100.0), 0)
    problem = GaProblem(net10, wl, build_candidate_sets(net10, wl, k=3),
                        default_strategy_catalog(4), p_max=2)
    config = GaConfig(population_size=16, generations=4, seed=3)
    serial = _run_on(monkeypatch, 1, _fresh(problem), config)
    replies = []
    real_recv = forking.Child.recv

    def recording(self):
        replies.extend(reply := real_recv(self))
        return reply

    monkeypatch.setattr(forking.Child, "recv", recording)
    helped = _run_on(monkeypatch, 2, _fresh(problem), config)
    assert _trace_view(helped) == _trace_view(serial)
    assert 0.0 in replies and max(replies) > 0.0  # the helper solved both kinds
    assert min(helped.mean_fitness) < max(helped.best_fitness)


@needs_fork
def test_helper_forked_after_solves_gives_the_serial_trace(monkeypatch, net50_problem):
    # the parent's HiGHS instance and column pool are in use before the fork
    config = GaConfig(population_size=12, generations=4, seed=1)
    traces = []
    for cpus in (1, 2):
        problem = _fresh(net50_problem)
        rng = np.random.default_rng(11)
        early = [problem.fitness(random_genome(problem, rng)) for _ in range(6)]
        assert problem.lp_solves == 6 and min(early) > 0
        traces.append(_run_on(monkeypatch, cpus, problem, config))
    assert traces[1].fitness_helper
    assert _trace_view(traces[1]) == _trace_view(traces[0])


def test_one_cpu_or_no_fork_starts_no_process(monkeypatch, tri_problem):
    starts = []
    monkeypatch.setattr(forking.Forks, "start", lambda *args: starts.append(args))
    config = GaConfig(population_size=6, generations=2, seed=0)
    assert not _run_on(monkeypatch, 1, _fresh(tri_problem), config).fitness_helper
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert not _run_on(monkeypatch, 2, _fresh(tri_problem), config).fitness_helper
    assert starts == []


def _fail_in_helper(monkeypatch, fail):
    """Make every LP the helper solves call fail(); this process's LPs solve."""
    parent = os.getpid()
    real = ga_optimizer.wegr_of_selection

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            fail()
        return real(*args, **kwargs)

    monkeypatch.setattr(ga_optimizer, "wegr_of_selection", failing)


@needs_fork
def test_a_solver_error_in_the_helper_reaches_the_caller(monkeypatch, net50_problem):
    def fail():
        raise SolverError("LP solve failed: HiGHS model status Time limit reached")

    _fail_in_helper(monkeypatch, fail)
    config = GaConfig(population_size=8, generations=2, seed=0)
    population = initialize_population(net50_problem, config)
    with pytest.raises(SolverError, match="Time limit") as info:
        _run_on(monkeypatch, 2, net50_problem, config, population)
    # the helper takes the second distinct miss: the second random genome
    assert str(info.value).endswith(f"(while scoring genome {population[1].genes})")
    assert multiprocessing.active_children() == []


def _serve_once_then_exit(problem, conn):
    conn.send(ga_optimizer._solve_each(problem, conn.recv()))
    os._exit(5)


@needs_fork
@pytest.mark.parametrize("death, code", [("mid-batch", 7), ("between batches", 5)])
def test_a_dead_helper_fails_the_run(monkeypatch, net50_problem, death, code):
    if death == "mid-batch":
        _fail_in_helper(monkeypatch, lambda: os._exit(7))
    else:  # the next send or receive finds the pipe closed
        monkeypatch.setattr(ga_optimizer, "_serve_misses", _serve_once_then_exit)

    def hung(signum, frame):
        raise TimeoutError("evolve still waiting 60 s after its helper died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match=f"helper exited with code {code}"):
            _run_on(monkeypatch, 2, net50_problem, GaConfig(population_size=8, generations=2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
