import importlib
import multiprocessing
import os
import re
import signal
from pathlib import Path

import numpy as np
import pytest

from qvpn import allocation_lp, forking, ga_optimizer, harness
from qvpn.allocation_lp import LpCompiler, SolverError, wegr_of_selection
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn.ga_optimizer import (
    GaConfig,
    GaProblem,
    dynamic_schedule,
    evolve,
    initialize_population,
)
from qvpn.pathfinding import WeightScheme, baseline_selection, build_candidate_sets
from qvpn.quantum_math import DistillationStrategy, default_strategy_catalog
from qvpn.topology import NetworkGraph, NodeSpec, make_link
from qvpn.workload import Organization, Workload, WorkloadParams, generate_workload

from qvpn_helpers import ORACLE_RTOL, make_pair, three_fidelity_copy


def random_genome(problem, rng):
    """A uniform random genome of the problem, one draw per slot."""
    return rng.integers(problem.gene_limits)


@pytest.fixture
def tri_workload():
    org = Organization("org0", 1.0)
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "C", weight=0.4))
    return Workload(organizations=(org,), user_pairs=pairs, seed=0)


@pytest.fixture
def tri_problem(triangle, tri_workload):
    cands = build_candidate_sets(triangle, tri_workload, k=3)
    catalog = default_strategy_catalog(4)
    return GaProblem(triangle, tri_workload, cands, catalog, p_max=2)


@pytest.fixture
def mixed_problem():
    """The triangle with three link fidelities, where the A-C-B path keeps
    two of the four strategies: genes 0 (A-B), 1 and 2 (A-C-B) of the first
    pair, genes 0 (A-C) and 1 (A-B-C) of the second."""
    nodes = (NodeSpec("A"), NodeSpec("B"), NodeSpec("C", is_repeater=True))
    links = (make_link("A", "B", 10.0, alpha=0.05), make_link("A", "C", 10.0, alpha=0.1),
             make_link("C", "B", 10.0, alpha=0.2))
    graph = NetworkGraph(nodes=nodes, links=links)
    pairs = (make_pair("org0", "A", "B", threshold=0.8),
             make_pair("org0", "A", "C", weight=0.4, threshold=0.75))
    wl = Workload(organizations=(Organization("org0", 1.0),), user_pairs=pairs, seed=0)
    problem = GaProblem(graph, wl, build_candidate_sets(graph, wl, k=3),
                        default_strategy_catalog(4), p_max=2)
    assert problem.gene_limits.tolist() == [[3, 3], [2, 2]]
    return problem


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
    # probabilities reject bools, NaN, infinities and strings
    for name, value in (("mutation_start", True), ("mutation_end", float("nan")),
                        ("crossover_start", float("inf")), ("crossover_end", False),
                        ("pool_start", "0.5"), ("pool_end", -0.1)):
        with pytest.raises(ValueError, match=name):
            GaConfig(**{name: value})
    assert GaConfig(mutation_start=1, pool_end=0).mutation_start == 1
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


def test_genome_length_and_gene_space(tri_problem, mixed_problem):
    assert tri_problem.gene_limits.shape == (2, 2)  # 2 pairs x p_max 2
    # the triangle's links share one fidelity: one column per path
    assert tri_problem.gene_limits[0, 0] == len(tri_problem.candidates[tri_problem.pair_order[0]])
    assert mixed_problem.gene_limits.ravel().tolist() == [3, 3, 2, 2]
    first = [mixed_problem.compiler.choice(i) for i in range(3)]
    assert [p.nodes for _, p, _ in first] == [("A", "B"), ("A", "C", "B"), ("A", "C", "B")]
    assert [mixed_problem.catalog.index(s) for _, _, s in first] == [0, 0, 2]


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


def test_decode_keeps_first_duplicate(mixed_problem):
    catalog = mixed_problem.catalog
    for genes, kept in (((2, 1), 2), ((1, 2), 0)):
        sel = mixed_problem.decode(np.array([genes, (0, 1)]))
        picks = sel[mixed_problem.pair_order[0]]
        assert len(picks) == 1  # A-C-B twice
        assert picks[0][1] is catalog[kept]  # the first column wins


def test_encode_decode_round_trip(tri_problem):
    rng = np.random.default_rng(77)
    for _ in range(50):
        sel = tri_problem.decode(random_genome(tri_problem, rng))
        again = tri_problem.decode(tri_problem.encode_selection(sel))
        assert {k: [(p.link_keys, s.link_threshold) for p, s in v] for k, v in sel.items()} == \
               {k: [(p.link_keys, s.link_threshold) for p, s in v] for k, v in again.items()}


def test_encode_selection_rejects_picks_outside_the_problem(triangle, tri_problem, tri_workload):
    pair_key = tri_problem.pair_order[0]
    cands = dict(tri_problem.candidates)
    outside = cands[pair_key][1]
    cands[pair_key] = cands[pair_key][:1]
    prob = GaProblem(triangle, tri_workload, cands, tri_problem.catalog, p_max=2)
    inside = cands[pair_key][0]
    for pick in ((outside, prob.catalog[0]), (inside, DistillationStrategy(0.5))):
        with pytest.raises(ValueError, match=re.escape(f"pair {pair_key}")):
            prob.encode_selection({pair_key: [pick]})
    # looking the picks up gave them no pool id: a choice scored through the
    # problem's compiler gets the first id past the layout
    layout = int(prob.gene_limits[:, 0].sum())
    assert prob.compiler.column_id(pair_key, outside, prob.catalog[0]) == layout
    with pytest.raises(ValueError, match=re.escape(f"pair {pair_key}")):
        prob.encode_selection({pair_key: [(outside, prob.catalog[0])]})


def test_an_empty_catalog_is_rejected(triangle, tri_problem, tri_workload):
    with pytest.raises(ValueError, match="catalog is empty"):
        GaProblem(triangle, tri_workload, tri_problem.candidates, [], p_max=2)


def test_repeated_catalog_strategies_are_rejected(triangle, tri_problem, tri_workload):
    # a repeated strategy is a mistake in the catalog
    catalog = tri_problem.catalog + tri_problem.catalog[:1]
    with pytest.raises(ValueError, match="repeat"):
        GaProblem(triangle, tri_workload, tri_problem.candidates, catalog, p_max=2)


def test_fitness_matches_lp_and_caches(tri_problem, triangle, tri_workload):
    g = np.array([[0, 1], [0, 0]])
    compiler = LpCompiler(triangle, tri_workload, p_max=2)
    want = wegr_of_selection(compiler, compiler.column_ids(tri_problem.decode(g)))
    before = tri_problem.lp_solves
    assert tri_problem.fitness(g) == want
    assert tri_problem.lp_solves == before + 1
    tri_problem.fitness(g)  # second evaluation is a cache hit
    assert tri_problem.lp_solves == before + 1


def test_fitness_cache_keyed_by_canonical_selection(tri_problem):
    before = tri_problem.lp_solves
    # slots reordered within the pair but the same columns
    a = np.array([[0, 1], [0, 1]])
    b = np.array([[1, 0], [1, 0]])
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


def test_initialize_population_heuristics_first(triangle, tri_problem, tri_workload):
    catalog = tri_problem.catalog
    sel = baseline_selection(triangle, tri_workload,
                             tri_problem.candidates, WeightScheme.HOP,
                             p_max=2, catalog=catalog)
    cfg = GaConfig(population_size=6, generations=2)
    pop = initialize_population(tri_problem, cfg, seed_heuristics=(sel,))
    assert pop.shape == (6, *tri_problem.gene_limits.shape)
    assert np.array_equal(pop[0], tri_problem.encode_selection(sel))
    with pytest.raises(ValueError, match="below"):
        initialize_population(tri_problem, GaConfig(population_size=2, generations=1),
                              seed_heuristics=(sel, sel, sel))


def test_evolve_deterministic(tri_problem, triangle, tri_workload):
    cfg = GaConfig(population_size=8, generations=6, seed=3)
    runs = []
    for _ in range(2):
        prob = GaProblem(triangle, tri_workload, tri_problem.candidates,
                         tri_problem.catalog, p_max=2)
        pop = initialize_population(prob, cfg)
        runs.append(evolve(pop, cfg, prob))
    assert runs[0].best_fitness == runs[1].best_fitness
    assert runs[0].mean_fitness == runs[1].mean_fitness
    assert np.array_equal(runs[0].best_genome, runs[1].best_genome)
    assert runs[0].best_wegr == runs[1].best_wegr


def test_evolve_trace_shape_and_monotone_best(tri_problem):
    cfg = GaConfig(population_size=8, generations=10, seed=1)
    pop = initialize_population(tri_problem, cfg)
    trace = evolve(pop, cfg, tri_problem)
    assert len(trace.best_fitness) == 11  # generation 0 plus 10
    assert len(trace.mean_fitness) == 11
    assert len(trace.seconds) == 11
    assert len(trace.breed_seconds) == 11
    assert all(0 <= b <= s for b, s in zip(trace.breed_seconds, trace.seconds))
    # elitism: the best never degrades
    for a, b in zip(trace.best_fitness, trace.best_fitness[1:]):
        assert b >= a
    assert trace.best_wegr == trace.best_fitness[-1]
    assert trace.lp_solves > 0
    assert trace.best_wegr == tri_problem.fitness(trace.best_genome)


def test_evolve_improves_on_seeded_heuristic(triangle, tri_problem, tri_workload):
    sel = baseline_selection(triangle, tri_workload, tri_problem.candidates,
                             WeightScheme.HOP, p_max=2, catalog=tri_problem.catalog)
    compiler = LpCompiler(triangle, tri_workload, p_max=2)
    heur_fit = wegr_of_selection(compiler, compiler.column_ids(sel))
    cfg = GaConfig(population_size=10, generations=8, seed=5)
    pop = initialize_population(tri_problem, cfg, seed_heuristics=(sel,))
    trace = evolve(pop, cfg, tri_problem)
    assert trace.best_wegr >= heur_fit  # elitism keeps the seed alive
    assert trace.best_fitness[0] >= heur_fit


def test_evolve_rejects_wrong_genome_length(tri_problem):
    cfg = GaConfig(population_size=4, generations=1)
    with pytest.raises(ValueError, match="shape"):
        evolve(np.zeros((4, 1), dtype=np.intp), cfg, tri_problem)


@pytest.mark.parametrize("size", [0, 3, 11])
def test_evolve_rejects_a_population_of_another_size(tri_problem, size):
    cfg = GaConfig(population_size=10, generations=1)
    population = initialize_population(tri_problem, GaConfig(population_size=11))[:size]
    with pytest.raises(ValueError, match=f"population of {size} genomes, but "
                                         "population_size is 10"):
        evolve(population, cfg, tri_problem)


def test_static_and_dynamic_both_search(tri_problem, triangle, tri_workload):
    results = {}
    for cfg in (GaConfig(population_size=8, generations=5, seed=2),
                GaConfig.static_mode(population_size=8, generations=5, seed=2)):
        prob = GaProblem(triangle, tri_workload, tri_problem.candidates,
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
    assert prob.gene_limits.shape == (1, 2)
    # with no candidates at all the genome is empty, and every generation
    # scores the one empty selection
    cands[pairs[0].key] = []
    prob = GaProblem(triangle, wl, cands, default_strategy_catalog(2), p_max=2)
    cfg = GaConfig(population_size=4, generations=3)
    trace = evolve(initialize_population(prob, cfg), cfg, prob)
    assert trace.best_genome.shape == (0, 2)
    assert (trace.lp_solves, trace.fitness_calls) == (1, 16)


def test_pairs_without_a_feasible_column_are_skipped(triangle):
    # with one distillation round at most, A-C's threshold of 0.9 is out
    # of reach on either path, so A-C leaves pair_order, and so is A-B's
    # threshold of 0.7 on the detour; such picks add no column to any LP
    org = Organization("org0", 1.0)
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "C", threshold=0.9))
    wl = Workload(organizations=(org,), user_pairs=pairs, seed=0)
    cands = build_candidate_sets(triangle, wl, k=2)
    prob = GaProblem(triangle, wl, cands, default_strategy_catalog(2, max_rounds=1), p_max=2)
    assert prob.pair_order == [pairs[0].key]
    assert prob.gene_limits.shape == (1, 2)
    picks = {k: [(p, prob.catalog[0]) for p in v] for k, v in cands.items()}
    assert prob.decode(prob.encode_selection(picks)) == {pairs[0].key: picks[pairs[0].key][:1]}


def test_encode_selection_maps_picks_to_their_stand_ins(mixed_problem):
    # on A-C-B, strategy 2 is kept, and strategy 0 stands in for 1 and 3
    problem = mixed_problem
    ab, ac = problem.pair_order
    direct, detour = problem.candidates[ab]
    catalog = problem.catalog
    for s, gene in ((0, 1), (1, 1), (2, 2), (3, 1)):
        genome = problem.encode_selection({ab: [(detour, catalog[s])]})
        assert genome[0].tolist() == [gene, gene]
    genome = problem.encode_selection({ab: [(detour, catalog[3]), (direct, catalog[2])]})
    assert genome.tolist() == [[1, 0], [0, 0]]  # A-C, the first gene, pads the empty pair


def test_the_bound_oracle_checks_every_search(ga_bound_oracle, triangle, tri_problem,
                                              tri_workload):
    # conftest's autouse oracle sees each evolve run, whichever way it is
    # called, and the seeded baselines that sit in its initial population
    sel = baseline_selection(triangle, tri_workload, tri_problem.candidates,
                             WeightScheme.HOP, p_max=2, catalog=tri_problem.catalog)
    cfg = GaConfig(population_size=6, generations=2, seed=1)
    evolve(initialize_population(tri_problem, cfg, seed_heuristics=(sel,)), cfg, tri_problem)
    problem = _fresh(tri_problem, triangle, tri_workload)
    evolve(initialize_population(problem, cfg), cfg, problem)
    harness.search(triangle, tri_workload, "ga", 0, k=3, p_max=2,
                   catalog=tri_problem.catalog, ga_config=cfg)
    assert [len(seeded) for _, _, seeded in ga_bound_oracle] == [1, 0, 3]
    for best, bound, seeded in ga_bound_oracle:
        assert 0 < best <= bound * (1 + ORACLE_RTOL)
        assert all(best >= w * (1 - ORACLE_RTOL) for w in seeded)


def test_the_layout_bound_is_the_verifiers_relaxation_bound(monkeypatch):
    # the ga-net50 instance at seed 0: the dominated columns the layout
    # leaves out cannot raise the LP over every candidate and strategy
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    verifier = importlib.import_module("verifier")
    graph = bundled_topology()
    wl = generate_workload(graph, WorkloadParams(num_orgs=3, pairs_per_org=10, r_min=0.0), 0)
    cands = build_candidate_sets(graph, wl, k=5)
    catalog = default_strategy_catalog()
    problem = GaProblem(graph, wl, cands, catalog, p_max=3)
    bound = wegr_of_selection(problem.compiler, np.arange(problem._layout_size))
    assert problem._layout_size < len(catalog) * sum(map(len, cands.values())) / 10
    assert bound == pytest.approx(verifier.relaxation_bound(graph, wl, cands, catalog),
                                  rel=verifier.OBJ_RTOL)


# ------------------------------------------------ fitness through the column pool

@pytest.fixture(scope="module", params=[0, 1])
def net50_inputs(request):
    """A ga-net50-sized instance: its graph, workload and candidate sets.
    The param is the workload seed; seed 1 runs on net50's three-fidelity
    copy, where some paths keep more than one strategy."""
    net50 = bundled_topology()
    if request.param == 1:
        net50 = three_fidelity_copy(net50, np.random.default_rng(20))
    wl = generate_workload(net50, WorkloadParams(num_orgs=3, pairs_per_org=10, r_min=0.0),
                           request.param)
    return net50, wl, build_candidate_sets(net50, wl, k=5)


@pytest.fixture
def net50_problem(net50_inputs):
    net50, wl, cands = net50_inputs
    return GaProblem(net50, wl, cands, default_strategy_catalog(), p_max=3)


def _mixed(graph):
    """Whether the links of graph differ in base fidelity."""
    return len({link.base_fidelity for link in graph.links}) > 1


def _path_genes(problem):
    """Per pair index: per candidate path index, the genes on that path."""
    out = []
    for i in range(len(problem.pair_order)):
        base, limit = problem._slot_base[i, 0], problem.gene_limits[i, 0]
        paths = problem._column_path[base:base + limit].tolist()
        by_path = {}
        for gene, path in enumerate(paths):
            by_path.setdefault(path, []).append(gene)
        out.append(by_path)
    return out


def _scored_lps(monkeypatch, problem):
    """Record the LP of every fitness miss, as the pool ids it passes."""
    lps = []
    real = ga_optimizer.wegr_of_selection

    def recording(compiler, selection):
        lps.append(compiler.gather(selection))
        return real(compiler, selection)

    monkeypatch.setattr(ga_optimizer, "wegr_of_selection", recording)
    return lps


def test_pool_lp_equals_compile_of_decode(monkeypatch, net50_problem, net50_inputs):
    # the id route must hand HiGHS exactly the arrays that the gather of
    # column_ids(decode(g)) builds, with repeated paths in the mix, of one
    # column or two
    problem = net50_problem
    path_genes = _path_genes(problem)
    two_columns = [[g for g in by_path.values() if len(g) >= 2] for by_path in path_genes]
    assert (sum(map(len, two_columns)) >= 10) == _mixed(net50_inputs[0])
    lps = _scored_lps(monkeypatch, problem)
    reference = LpCompiler(*net50_inputs[:2], p_max=problem.p_max)
    rng = np.random.default_rng(41)
    forced_duplicates = 0
    for trial in range(300):
        genome = random_genome(problem, rng)
        for i, by_path in enumerate(path_genes):
            if rng.random() < 0.4:  # one path twice; the first column wins
                on_path = list(by_path.values())[int(rng.integers(len(by_path)))]
                if two_columns[i] and rng.random() < 0.5:
                    on_path = two_columns[i][int(rng.integers(len(two_columns[i])))]
                genome[i, 0] = int(rng.choice(on_path))
                genome[i, 2] = int(rng.choice(on_path))
                forced_duplicates += 1
        before = len(lps)
        value = problem.fitness(genome)
        assert len(lps) == before + 1, trial  # random genomes never repeat here
        want = reference.gather(reference.column_ids(problem.decode(genome)))
        got = lps[-1]
        for name in ("objective", "indptr", "indices", "data", "row_bounds"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (trial, name)
        assert got.row_labels == want.row_labels
        assert value == wegr_of_selection(reference,
                                          reference.column_ids(problem.decode(genome)))
    assert forced_duplicates > 300


def test_building_a_problem_computes_only_its_layout(monkeypatch, net50_inputs):
    # GaProblem finds and computes its non-dominated columns at init; no
    # fitness call computes one after that
    calls = []
    real = allocation_lp.path_overhead_per_link

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(allocation_lp, "path_overhead_per_link", counting)
    net50, wl, cands = net50_inputs
    problem = GaProblem(net50, wl, cands, default_strategy_catalog(), p_max=3)
    size = problem._layout_size
    assert calls and problem.fill_seconds > 0
    assert len(problem.compiler._choices) == size
    assert (problem.compiler._count[:size] > 0).all()  # every layout column is feasible
    made = len(calls)
    problem.fitness(random_genome(problem, np.random.default_rng(0)))
    assert len(calls) == made


def test_fitness_cache_is_keyed_on_first_picks(net50_problem, net50_inputs):
    # each pair's path with the most columns: its first and last gene, the
    # same gene where the path keeps one strategy
    problem = net50_problem
    i, on_path = max(((i, g) for i, by_path in enumerate(_path_genes(problem))
                      for g in by_path.values()), key=lambda x: len(x[1]))
    a, b = on_path[0], on_path[-1]
    other = next(g for g in range(problem.gene_limits[i, 0]) if g not in on_path)
    base = random_genome(problem, np.random.default_rng(3))

    def with_pair(slots):
        genes = base.copy()
        genes[i] = slots
        return genes

    before = problem.lp_solves
    a_first = problem.fitness(with_pair([a, other, b]))
    assert problem.lp_solves == before + 1
    # permuted slots with the same first picks hit
    assert problem.fitness(with_pair([other, a, b])) == a_first
    assert problem.fitness(with_pair([other, other, a])) == a_first
    assert problem.lp_solves == before + 1
    # the same path picked with another column first is another selection
    problem.fitness(with_pair([b, other, a]))
    assert problem.lp_solves == before + 1 + (a != b)
    assert (a != b) == _mixed(net50_inputs[0])


def test_genes_outside_the_gene_space_are_rejected(mixed_problem):
    limits = mixed_problem.gene_limits
    for slot in np.ndindex(limits.shape):
        for bad in (limits[slot], -1):
            genes = np.zeros_like(limits)
            genes[slot] = bad
            with pytest.raises(ValueError, match="gene space"):
                mixed_problem.fitness(genes)
    with pytest.raises(ValueError, match="shape"):
        mixed_problem.fitness(np.zeros(2, dtype=np.intp))
    # whole numbers in a float array are not genes, nor is a wrongly shaped array
    for check in (mixed_problem.fitness, mixed_problem.decode):
        with pytest.raises(ValueError, match="dtype float64, not integers"):
            check(np.zeros(limits.shape))
        with pytest.raises(ValueError, match=re.escape("shape (2, 3), but the problem encodes (2, 2)")):
            check(np.zeros((2, 3), dtype=np.intp))
    config = GaConfig(population_size=4, generations=1)
    with pytest.raises(ValueError, match="not integers"):
        evolve(np.zeros((4, *limits.shape)), config, mixed_problem)


def test_traced_lp_solves_see_every_miss(monkeypatch, tri_problem):
    # a trace counts LP solves by wrapping the module attribute
    # ga_optimizer.wegr_of_selection, so every miss must go through it.
    # Wrappers see only this process, so the run takes the one-CPU route,
    # which forks no fitness helper
    monkeypatch.setattr(ga_optimizer, "_usable_cpus", lambda: 1)
    lp_calls = []
    real_wegr = ga_optimizer.wegr_of_selection

    def counting_wegr(compiler, selection):
        lp_calls.append(selection)
        return real_wegr(compiler, selection)

    monkeypatch.setattr(ga_optimizer, "wegr_of_selection", counting_wegr)
    cfg = GaConfig(population_size=12, generations=6, seed=4)
    trace = evolve(initialize_population(tri_problem, cfg), cfg, tri_problem)
    assert trace.fitness_calls == cfg.population_size * (cfg.generations + 1)
    assert len(lp_calls) == trace.lp_solves == tri_problem.lp_solves
    assert 0 < trace.lp_solves < trace.fitness_calls  # hits happen, and are not counted
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
    return (trace.best_fitness, trace.mean_fitness, trace.best_genome.tolist(), trace.best_wegr,
            trace.lp_solves, trace.fitness_calls)


def _fresh(problem, graph, workload):
    """problem built again on its graph and workload: no cached fitness, no
    column past its layout."""
    return GaProblem(graph, workload, problem.candidates, problem.catalog, p_max=problem.p_max)


@needs_fork
@pytest.mark.parametrize("mode", ["dynamic", "static"])
@pytest.mark.parametrize("seed", [0, 7])
def test_helper_gives_the_serial_trace(monkeypatch, net50_problem, mode, seed, net50_inputs):
    config = (GaConfig(population_size=12, generations=5, seed=seed) if mode == "dynamic"
              else GaConfig.static_mode(population_size=12, generations=5, seed=seed))
    serial = _run_on(monkeypatch, 1, _fresh(net50_problem, *net50_inputs[:2]), config)
    helped = _run_on(monkeypatch, 2, _fresh(net50_problem, *net50_inputs[:2]), config)
    assert not serial.fitness_helper and helped.fitness_helper
    assert _trace_view(helped) == _trace_view(serial)
    assert helped.fitness_calls == config.population_size * (config.generations + 1)


@needs_fork
def test_helper_gives_the_serial_trace_with_repeated_children(monkeypatch, tri_problem, triangle,
                                                               tri_workload):
    # the triangle's gene space is small, so children repeat within and
    # across generations; the initial population repeats genomes outright
    rng = np.random.default_rng(5)
    distinct = [random_genome(tri_problem, rng) for _ in range(4)]
    population = np.array([distinct[i % 4] for i in range(10)])
    fresh = lambda: _fresh(tri_problem, triangle, tri_workload)
    for config in (GaConfig(population_size=10, generations=8, seed=2),
                   GaConfig.static_mode(population_size=10, generations=8, seed=2)):
        serial = _run_on(monkeypatch, 1, fresh(), config, population)
        helped = _run_on(monkeypatch, 2, fresh(), config, population)
        assert helped.fitness_helper
        assert _trace_view(helped) == _trace_view(serial)
        assert 0 < helped.lp_solves < helped.fitness_calls / 2


@needs_fork
def test_helper_scores_infeasible_lps_zero(monkeypatch):
    # with R_min 1000 about a fifth of random selections are infeasible
    net10 = bundled_topology(TOPOLOGY_10)
    wl = generate_workload(net10, WorkloadParams(num_orgs=2, pairs_per_org=3, r_min=1000.0), 0)
    problem = GaProblem(net10, wl, build_candidate_sets(net10, wl, k=3),
                        default_strategy_catalog(4), p_max=2)
    config = GaConfig(population_size=16, generations=4, seed=3)
    serial = _run_on(monkeypatch, 1, _fresh(problem, net10, wl), config)
    replies = []
    real_recv = forking.Child.recv

    def recording(self):
        replies.extend(reply := real_recv(self))
        return reply

    monkeypatch.setattr(forking.Child, "recv", recording)
    helped = _run_on(monkeypatch, 2, _fresh(problem, net10, wl), config)
    assert _trace_view(helped) == _trace_view(serial)
    assert 0.0 in replies and max(replies) > 0.0  # the helper solved both kinds
    assert min(helped.mean_fitness) < max(helped.best_fitness)


@needs_fork
def test_helper_forked_after_solves_gives_the_serial_trace(monkeypatch, net50_problem,
                                                           net50_inputs):
    # the parent's HiGHS instance and column pool are in use before the fork
    config = GaConfig(population_size=12, generations=4, seed=1)
    traces = []
    for cpus in (1, 2):
        problem = _fresh(net50_problem, *net50_inputs[:2])
        rng = np.random.default_rng(11)
        early = [problem.fitness(random_genome(problem, rng)) for _ in range(6)]
        assert problem.lp_solves == 6 and min(early) > 0
        traces.append(_run_on(monkeypatch, cpus, problem, config))
    assert traces[1].fitness_helper
    assert _trace_view(traces[1]) == _trace_view(traces[0])


def test_one_cpu_or_no_fork_starts_no_process(monkeypatch, tri_problem, triangle, tri_workload):
    starts = []
    monkeypatch.setattr(forking.Forks, "start", lambda *args: starts.append(args))
    config = GaConfig(population_size=6, generations=2, seed=0)
    fresh = lambda: _fresh(tri_problem, triangle, tri_workload)
    assert not _run_on(monkeypatch, 1, fresh(), config).fitness_helper
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert not _run_on(monkeypatch, 2, fresh(), config).fitness_helper
    assert starts == []


def _fail_in_helper(monkeypatch, fail):
    """Make every LP the helper solves call fail(); this process's LPs solve."""
    parent = os.getpid()
    real = ga_optimizer.wegr_of_selection

    def failing(compiler, selection):
        if os.getpid() != parent:
            fail()
        return real(compiler, selection)

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
    assert str(info.value).endswith(f"(while scoring genes {population[1].tolist()})")
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


# ------------------------------------------------ the pool filled before generation 0

_LP_FIELDS = ("objective", "indptr", "indices", "data", "row_bounds")


def test_a_filled_pool_gathers_the_lazy_pools_lps(net50_problem, net50_inputs):
    # GaProblem fills its layout in one call, so its columns sit elsewhere
    # in the flat arrays than in a pool that computes them gather by
    # gather; every gathered LP must be the same. Infeasible choices past
    # the layout are mixed in.
    problem = _fresh(net50_problem, *net50_inputs[:2])
    size = problem._layout_size
    filled = problem.compiler
    lazy = LpCompiler(*net50_inputs[:2], p_max=problem.p_max)
    for column in range(size):
        assert lazy.column_id(*filled.choice(column)) == column
    layout = {(key, path.link_keys, strategy)
              for key, path, strategy in map(filled.choice, range(size))}
    extra = []
    for key in problem.pair_order:
        for path in problem.candidates[key]:
            for strategy in problem.catalog:
                if (key, path.link_keys, strategy) not in layout:
                    extra.append((key, path, strategy))
    for compiler in (filled, lazy):
        assert [compiler.column_id(*c) for c in extra] == list(range(size, size + len(extra)))
    filled.fill(np.arange(size + len(extra)))
    infeasible = size + np.flatnonzero(filled._count[size:] == 0)
    assert infeasible.size >= 10

    def no_fill(ids):
        raise AssertionError(f"a filled pool computed {len(ids)} columns")

    filled._fill = no_fill
    rng = np.random.default_rng(23)
    for trial in range(200):
        ids = rng.permutation(size)[:int(rng.integers(0, 120))]
        if trial % 3 == 0:  # infeasible columns mixed in
            ids = rng.permutation(np.union1d(ids, rng.choice(infeasible, 6, replace=False)))
        want, got = lazy.gather(ids), filled.gather(ids)
        for name in _LP_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (trial, name)
        assert got.row_labels == want.row_labels
    # the lazy pool computed only what its gathers asked for
    assert 0 < (lazy._count[size:] >= 0).sum() < len(extra)


def _computed_during_a_generation(compiler, ids):
    raise RuntimeError(f"a generation computed {len(ids)} columns")


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
def test_no_column_is_computed_during_the_generations(monkeypatch, net50_problem, cpus,
                                                       net50_inputs):
    # GaProblem computed its whole layout. Computing a column raises from
    # here on, in this process and in a helper forked later; a raise in the
    # helper comes back as that miss's result and fails the run
    problem = _fresh(net50_problem, *net50_inputs[:2])
    config = GaConfig(population_size=12, generations=5, seed=3)
    population = initialize_population(problem, config)
    monkeypatch.setattr(LpCompiler, "_fill", _computed_during_a_generation)
    trace = _run_on(monkeypatch, cpus, problem, config, population)
    assert trace.fitness_helper == (cpus == 2)
    assert trace.lp_solves > config.generations
    assert trace.pool_fill_seconds == problem.fill_seconds > 0
