import numpy as np
import pytest

from qvpn.allocation_lp import wegr_of_selection
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
from qvpn.quantum_math import default_strategy_catalog
from qvpn.workload import Organization, Workload

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
