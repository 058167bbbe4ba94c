"""evolve breeds a generation as array work by reading each child's random
stream as numpy's Generator would (ga_optimizer._Streams). These tests keep
the scalar per-child loop as the reference and pin the GA's bits on one
net50 instance; a numpy release that changed how Generator reads its bit
generator would fail them."""

import numpy as np
import pytest

from qvpn import harness
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn.ga_optimizer import (GaConfig, GaProblem, _breed, _genome_of, _pool_weights,
                               _random_genes, _Streams, initialize_population,
                               random_genome)
from qvpn.pathfinding import WeightScheme, baseline_selection, build_candidate_sets
from qvpn.quantum_math import default_strategy_catalog
from qvpn.workload import Organization, Workload, WorkloadParams, generate_workload

from qvpn_helpers import make_pair


# ------------------------------------------------ the scalar reference


def _pick_parent(rng, pool, weights):
    if weights is not None:
        return pool[rng.choice(len(pool), p=weights)]
    return pool[rng.integers(len(pool))]


def _mutate(genes, slot_paths, num_strats, rng, prob):
    out = list(genes)
    for slot, n_paths in enumerate(slot_paths):
        if rng.random() < prob:
            path_idx, strat_idx = out[slot]
            if rng.random() < 0.5:
                path_idx = int(rng.integers(n_paths))
            else:
                strat_idx = int(rng.integers(num_strats))
            out[slot] = (path_idx, strat_idx)
    return tuple(out)


def _scalar_child(rng, population, pool, weights, cross_prob, mut_prob, slot_paths,
                  num_strats):
    """One child as the per-slot loop bred it, from genomes as gene tuples."""
    length = len(slot_paths)
    p1 = population[_pick_parent(rng, pool, weights)]
    p2 = population[_pick_parent(rng, pool, weights)]
    if rng.random() < cross_prob and length > 1:
        cut = int(rng.integers(1, length))
        child = p1[:cut] + p2[cut:]
    else:
        child = p1
    return _mutate(child, slot_paths, num_strats, rng, mut_prob)


# ------------------------------------------------ replay of the scalar loop

_PROBS = (0.0, 1.0, 0.02, 0.3, 0.5)


def _case(rng):
    """A random breeding setup: gene array, pool, weights, probabilities,
    per-slot path counts and the catalog size."""
    pairs, p_max = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    if rng.random() < 0.2:
        pairs, p_max = (1, 2) if rng.random() < 0.5 else (2, 1)  # genome length 2
    # path counts of 1 draw nothing, as integers(1) does
    paths = rng.choice([1, 1, 2, 3, 7], size=pairs)
    # bounds this large reject about half of the 32-bit halves drawn
    num_strats = int(rng.choice([1, 2, 5, 16, 2 ** 31 + 1]))
    size = int(rng.integers(2, 9))
    genes = np.stack([rng.integers(paths[:, None], size=(pairs, p_max)) for _ in range(size)])
    genes = np.stack((genes, rng.integers(num_strats, size=genes.shape)), axis=-1)
    pool = rng.permutation(size)[: int(rng.integers(1, size + 1))].tolist()
    fitness = rng.choice([0.0, 1.0, 2.5, 1e3], size=size).tolist()
    weights = _pool_weights(pool, fitness, rng.random() < 0.6)
    probs = [float(rng.choice(_PROBS)) if rng.random() < 0.5 else float(rng.random())
             for _ in range(2)]
    return genes, pool, weights, *probs, np.repeat(paths, p_max), num_strats


def test_breed_replays_the_scalar_loop():
    rng = np.random.default_rng(2024)
    children = 0
    for case in range(400):
        genes, pool, weights, cross_prob, mut_prob, slot_paths, num_strats = _case(rng)
        seeds = [[case, gen, slot] for gen in (1, 7) for slot in range(14)]
        bred = _breed(seeds, genes, pool, weights, cross_prob, mut_prob, slot_paths,
                      num_strats)
        population = [_genome_of(g).genes for g in genes]
        for seed, child in zip(seeds, bred):
            want = _scalar_child(np.random.default_rng(seed), population, pool, weights,
                                 cross_prob, mut_prob, slot_paths.tolist(), num_strats)
            assert _genome_of(child).genes == want, (case, seed)
        children += len(seeds)
    assert children >= 10_000


@pytest.mark.parametrize("bounds", [
    (2, 3, 5, 16),  # the GA's bounds: rejections almost never happen
    (2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1, 2 ** 31 - 1, 7),  # rejection rates up to 1/2
])
def test_stream_integers_replay_generator_with_lemire_rejections(bounds):
    # rows draw integers(n) with per-row bounds and random() in an
    # interleaved script; a rejected 32-bit half costs one more half
    rng = np.random.default_rng(11)
    rows = 64
    seeds = [[5, row] for row in range(rows)]
    streams = _Streams(seeds, 200)
    reference = [np.random.default_rng(seed) for seed in seeds]
    doubles = np.zeros(rows, dtype=int)
    draws = np.zeros(rows, dtype=int)
    for _ in range(120):
        active = np.flatnonzero(rng.random(rows) < 0.7)
        if rng.random() < 0.3:
            got = streams.doubles(active)
            want = [reference[r].random() for r in active]
            doubles[active] += 1
        else:
            n = rng.choice(bounds, size=active.size)
            got = streams.integers(active, n)
            want = [reference[r].integers(int(b)) for r, b in zip(active, n)]
            draws[active] += n > 1
        assert got.tolist() == want
    # halves taken beyond one per draw are rejections
    halves = 2 * (streams.pos - doubles) - streams._held
    rejections = int((halves - draws).sum())
    assert (rejections > 100) == (bounds[0] > 2 ** 31)


def test_stream_rejections_draw_more_words():
    # the words cover 40 draws without rejections, and about half are rejected
    seeds = [[6, row] for row in range(8)]
    streams = _Streams(seeds, 20)
    rows = np.arange(len(seeds))
    got = [streams.integers(rows, 2 ** 31 + 1) for _ in range(40)]
    for seed, row in zip(seeds, np.array(got).T):
        rng = np.random.default_rng(seed)
        assert row.tolist() == [rng.integers(2 ** 31 + 1) for _ in range(40)]
    assert streams.pos.max() > 21


def test_stream_count_until_below_matches_scalar_coins():
    rng = np.random.default_rng(3)
    seeds = [[9, row] for row in range(40)]
    streams = _Streams(seeds, 160)
    reference = [np.random.default_rng(seed) for seed in seeds]
    rows = np.arange(len(seeds))
    for p in (0.0, 0.05, 0.5, 1.0, 0.05):
        limit = rng.integers(1, 30, size=len(seeds))
        got = streams.count_until_below(rows, p, limit)
        for r, (count, lim) in enumerate(zip(got, limit)):
            want = 0
            while want < lim and not reference[r].random() < p:
                want += 1
            assert count == want


# ------------------------------------------------ the initial population


def _instance(net, triangle):
    """(graph, workload) of the triangle, net10 or net50 problem."""
    if net == "triangle":
        pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "C", weight=0.4))
        return triangle, Workload((Organization("org0", 1.0),), pairs, seed=0)
    graph = bundled_topology(TOPOLOGY_10) if net == "net10" else bundled_topology()
    pairs_per_org = 3 if net == "net10" else 10
    params = WorkloadParams(num_orgs=3, pairs_per_org=pairs_per_org, r_min=0.0)
    return graph, generate_workload(graph, params, 1)


@pytest.mark.parametrize("net", ["triangle", "net10", "net50"])
@pytest.mark.parametrize("bound", [3, 5, 7])
def test_initial_population_draws_the_random_genome_genes(triangle, net, bound):
    # bound paths per pair at most, and bound strategies: integers(n) of
    # an n that is not a power of two can reject a 32-bit half
    graph, wl = _instance(net, triangle)
    candidates = build_candidate_sets(graph, wl, k=bound)
    problem = GaProblem(graph, wl, candidates, default_strategy_catalog(bound), p_max=3)
    assert bound in problem._slot_paths or net == "triangle"
    heuristic = baseline_selection(graph, wl, candidates, WeightScheme.HOP, p_max=3,
                                   strategy_index=0, catalog=problem.catalog)
    for seed, heuristics in ((bound, ()), (11, (heuristic,))):
        config = GaConfig(population_size=40, seed=seed)
        want = [problem.encode_selection(h) for h in heuristics]
        want += [random_genome(problem, np.random.default_rng([seed, 0, i]))
                 for i in range(config.population_size - len(heuristics))]
        got = initialize_population(problem, config, seed_heuristics=heuristics)
        assert got == want
        assert all(type(i) is int for genome in got for gene in genome.genes for i in gene)


def test_random_genes_replay_generator_with_lemire_rejections():
    # bounds this large reject about half of the 32-bit halves drawn, and a
    # slot with one path draws nothing
    slot_paths = [1, 2 ** 31 + 1, 7, 3 * 2 ** 30, 1, 5, 2 ** 32 - 1]
    num_strats = 2 ** 31 + 1
    seeds = [[4, 0, i] for i in range(30)]
    genes = _random_genes(seeds, slot_paths, num_strats)
    for seed, row in zip(seeds, genes.tolist()):
        rng = np.random.default_rng(seed)
        assert row == [[rng.integers(n), rng.integers(num_strats)] for n in slot_paths]
    assert _random_genes([], slot_paths, num_strats).shape == (0, len(slot_paths), 2)


# ------------------------------------------------ GA bits on one net50 instance

# Recorded from the scalar per-child loop above, run by evolve: qvpn ga's
# pipeline (three seeded baselines, k=5, p_max=3, the default catalog) on
# the ga-net50 workload at seed 0, 50 genomes, 10 generations.
PIN = {
    "dynamic": dict(
        best=[
            "0x1.aad69ab66b532p+10", "0x1.b15c68a2fbb58p+10", "0x1.b7d00ba9ea9bdp+10",
            "0x1.b9e6e98a5610ep+10", "0x1.bb1a48091d484p+10", "0x1.bb1a48091d484p+10",
            "0x1.bb1a48091d484p+10", "0x1.bfd7114d404fcp+10", "0x1.bfd7114d404fdp+10",
            "0x1.c3786b86dfd38p+10", "0x1.c3786b86dfd38p+10",
        ],
        mean=[
            "0x1.3a650b6bc1548p+10", "0x1.461b8a6eedd03p+10", "0x1.599ed1ca98d8ep+10",
            "0x1.5b29dddfc5e9ap+10", "0x1.5e110e3d6e766p+10", "0x1.8406a795b0aa0p+10",
            "0x1.a152445e207bdp+10", "0x1.a45dd6c817160p+10", "0x1.b2aaf117f6db1p+10",
            "0x1.b93bbed104765p+10", "0x1.bea0dc87e19c4p+10",
        ],
        lp_solves=530, fitness_calls=550,
        genes=[
            (5, 2), (4, 2), (3, 3), (0, 12), (1, 6), (1, 1), (1, 7), (2, 6), (1, 11),
            (8, 2), (4, 5), (0, 13), (0, 3), (1, 8), (0, 13), (3, 12), (3, 3), (0, 7),
            (1, 14), (2, 3), (1, 2), (0, 10), (0, 13), (0, 11), (1, 10), (1, 3), (2, 12),
            (3, 2), (0, 13), (4, 10), (6, 10), (8, 10), (0, 4), (0, 7), (0, 7), (0, 7),
            (1, 0), (0, 15), (0, 7), (2, 11), (4, 11), (0, 13), (2, 12), (6, 7), (8, 0),
            (0, 9), (2, 7), (2, 11), (3, 15), (9, 9), (2, 0), (0, 9), (0, 1), (10, 13),
            (0, 14), (0, 13), (0, 3), (5, 6), (5, 4), (4, 0), (2, 13), (1, 3), (2, 3),
            (0, 8), (0, 6), (0, 0), (2, 2), (2, 15), (1, 4), (1, 4), (0, 1), (0, 14),
            (0, 15), (0, 14), (4, 7), (6, 14), (1, 7), (4, 4), (6, 12), (4, 7), (1, 1),
            (1, 13), (0, 0), (6, 10), (0, 3), (6, 13), (8, 1), (0, 8), (4, 5), (3, 15),
        ],
    ),
    "static": dict(
        best=[
            "0x1.aad69ab66b532p+10", "0x1.ab8dceb7bbf89p+10", "0x1.b06df7b700191p+10",
            "0x1.b1eb66e81b269p+10", "0x1.b3bd4dbd647ebp+10", "0x1.b477f5d900ed4p+10",
            "0x1.b477f5d900ed4p+10", "0x1.b477f5d900ed4p+10", "0x1.b7d00ba9ea9bdp+10",
            "0x1.b934bf1d23f4cp+10", "0x1.b934bf1d23f4cp+10",
        ],
        mean=[
            "0x1.3a650b6bc1548p+10", "0x1.83b1f832bb25fp+10", "0x1.a32e3bcbe5a64p+10",
            "0x1.a696265d0cff2p+10", "0x1.ad8b0b33ff444p+10", "0x1.a98475274e2a6p+10",
            "0x1.ada8fba917b77p+10", "0x1.b4088c01a14c4p+10", "0x1.ae29f94283b81p+10",
            "0x1.b22bc91298e9fp+10", "0x1.af2f0a09d70d6p+10",
        ],
        lp_solves=532, fitness_calls=550,
        genes=[
            (3, 8), (4, 1), (1, 14), (0, 11), (2, 2), (0, 12), (2, 12), (2, 14), (2, 9),
            (1, 14), (4, 3), (3, 9), (2, 5), (0, 12), (0, 2), (4, 4), (4, 7), (3, 10),
            (2, 1), (0, 13), (2, 10), (0, 4), (0, 7), (0, 11), (0, 5), (0, 14), (2, 5),
            (1, 6), (3, 14), (1, 0), (8, 15), (0, 13), (6, 4), (0, 6), (0, 13), (0, 5),
            (8, 7), (5, 3), (3, 10), (0, 3), (2, 6), (3, 15), (0, 5), (0, 4), (1, 6),
            (3, 4), (0, 5), (5, 0), (1, 0), (2, 7), (7, 1), (8, 11), (3, 1), (1, 12),
            (1, 12), (1, 6), (0, 2), (4, 10), (0, 6), (6, 7), (0, 1), (0, 5), (1, 15),
            (0, 3), (0, 3), (0, 12), (3, 0), (1, 1), (4, 2), (2, 11), (3, 0), (4, 14),
            (4, 15), (6, 8), (3, 13), (2, 15), (6, 6), (5, 2), (1, 3), (6, 0), (9, 13),
            (6, 7), (0, 1), (0, 11), (1, 12), (5, 15), (1, 8), (0, 3), (2, 14), (4, 13),
        ],
    ),
}


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_ga_bits_on_net50_are_pinned(mode):
    graph = bundled_topology()
    wl = generate_workload(graph, WorkloadParams(num_orgs=3, pairs_per_org=10, r_min=0.0), 0)
    config = (GaConfig(population_size=50, generations=10) if mode == "dynamic"
              else GaConfig.static_mode(population_size=50, generations=10))
    trace = harness.search(graph, wl, "ga", 0, k=5, p_max=3,
                           catalog=tuple(default_strategy_catalog()), ga_config=config).trace
    pin = PIN[mode]
    assert [x.hex() for x in trace.best_fitness] == pin["best"]
    assert [x.hex() for x in trace.mean_fitness] == pin["mean"]
    assert (trace.lp_solves, trace.fitness_calls) == (pin["lp_solves"], pin["fitness_calls"])
    assert list(trace.best_genome.genes) == pin["genes"]
    assert all(type(i) is int for gene in trace.best_genome.genes for i in gene)
