"""evolve breeds each generation from one numpy Generator,
default_rng([seed, generation]), and draws the initial population from
default_rng([seed, 0]). These tests hold breeding to its invariants and pin
the GA's bits on one net50 instance."""

import numpy as np
import pytest

from qvpn import harness
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn.ga_optimizer import GaConfig, GaProblem, _breed, _pool_weights, initialize_population
from qvpn.pathfinding import WeightScheme, baseline_selection, build_candidate_sets
from qvpn.quantum_math import default_strategy_catalog
from qvpn.workload import Organization, Workload, WorkloadParams, generate_workload

from qvpn_helpers import make_pair


# ------------------------------------------------ breeding invariants


def _case(rng):
    """A random breeding setup: gene array, per-slot limits, pool and
    weights. Every genome's genes are distinct from every other's, so a
    child's slot names the genome it came from."""
    pairs, p_max = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    size = int(rng.integers(2, 9))
    limit = np.repeat(size * rng.integers(1, 4, size=pairs), p_max).reshape(pairs, p_max)
    # genome i holds genes congruent to i mod size
    genes = size * rng.integers(limit // size, size=(size, pairs, p_max)) \
        + np.arange(size)[:, None, None]
    pool = rng.permutation(size)[: int(rng.integers(1, size + 1))].tolist()
    fitness = rng.choice([0.0, 1.0, 2.5, 1e3], size=size).tolist()
    weights = _pool_weights(pool, fitness, rng.random() < 0.6)
    return genes, limit, pool, weights


def _sources(child, genes):
    """The genome each slot of child came from, by the residue of its gene."""
    return child.ravel() % len(genes)


def test_breed_without_mutation_cuts_between_two_parents():
    rng = np.random.default_rng(2024)
    cuts = set()
    for case in range(300):
        genes, limit, pool, weights = _case(rng)
        cross_prob = float(rng.choice([0.0, 0.5, 1.0]))
        children = _breed(np.random.default_rng([case, 1]), 20, genes, pool, weights,
                          cross_prob, 0.0, limit)
        assert children.shape == (20, *limit.shape)
        length = limit.size
        for child in children:
            src = _sources(child, genes)
            # one parent's slots before the cut, the other's from it on
            cut = next((j for j in range(1, length) if src[j] != src[j - 1]), length)
            assert (src[:cut] == src[0]).all() and (src[cut:] == src[-1]).all()
            assert src[0] in pool and src[-1] in pool
            assert (child.ravel() == np.where(np.arange(length) < cut, genes[src[0]].ravel(),
                                              genes[src[-1]].ravel())).all()
            if cross_prob == 0.0:
                assert cut == length
            cuts.add(cut)
    assert len(cuts) > 5  # cuts land all along the genome


def test_breed_without_crossover_or_mutation_copies_pool_members():
    rng = np.random.default_rng(7)
    for case in range(200):
        genes, limit, pool, weights = _case(rng)
        children = _breed(np.random.default_rng([case, 2]), 30, genes, pool, weights,
                          0.0, 0.0, limit)
        picked = set()
        for child in children:
            parent = int(child.flat[0] % len(genes))
            assert (child == genes[parent]).all()
            picked.add(parent)
        assert picked <= set(pool)
        if weights is not None:
            # a pool member of weight 0 is never a parent
            assert all(weights[pool.index(i)] > 0 for i in picked)


def test_breed_with_certain_mutation_redraws_every_slot():
    genes = np.zeros((4, 3, 2), dtype=np.intp)
    limit = np.array([[1, 1], [2, 2], [5, 5]])
    children = _breed(np.random.default_rng([3, 4]), 400, genes, [0, 1], None,
                      0.5, 1.0, limit)
    slots = children.reshape(400, -1)
    for j, n in enumerate(limit.ravel().tolist()):
        assert set(slots[:, j].tolist()) == set(range(n)), j


def test_breed_is_a_function_of_its_generator():
    genes, limit, pool, weights = _case(np.random.default_rng(5))
    runs = [_breed(np.random.default_rng([9, 3]), 12, genes, pool, weights, 0.7, 0.3, limit)
            for _ in range(2)]
    assert runs[0].tobytes() == runs[1].tobytes()


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
    # bound paths per pair and scheme, and bound strategies
    graph, wl = _instance(net, triangle)
    candidates = build_candidate_sets(graph, wl, k=bound)
    problem = GaProblem(graph, wl, candidates, default_strategy_catalog(bound), p_max=3)
    heuristic = baseline_selection(graph, wl, candidates, WeightScheme.HOP, p_max=3,
                                   strategy_index=0, catalog=problem.catalog)
    for seed, heuristics in ((bound, ()), (11, (heuristic,))):
        config = GaConfig(population_size=40, seed=seed)
        random = config.population_size - len(heuristics)
        limit = problem.gene_limits
        drawn = np.random.default_rng([seed, 0]).integers(limit, size=(random, *limit.shape))
        want = [problem.encode_selection(h) for h in heuristics] + list(drawn)
        got = initialize_population(problem, config, seed_heuristics=heuristics)
        assert got.dtype == np.intp and got.shape == (config.population_size, *limit.shape)
        assert np.array_equal(got, want)
        # every gene lies in its slot's gene space, and the draws cover it
        genes = got[len(heuristics):].reshape(random, -1)
        assert genes.min() >= 0 and (genes.max(axis=0) < limit.ravel()).all()
        assert genes.max() == limit.max() - 1


# ------------------------------------------------ GA bits on one net50 instance

# Recorded from evolve: qvpn ga's pipeline (three seeded baselines, k=5,
# p_max=3, the default catalog) on the ga-net50 workload at seed 0, 50
# genomes, 10 generations. A seeded baseline reaches the instance's bound
# in generation 0, so best holds still and the population closes in on it.
PIN = {
    "dynamic": dict(
        best=["0x1.c7ec50b5ac15ep+10"] * 11,
        mean=[
            "0x1.c53ca186bdf85p+10", "0x1.c4f78d8c21784p+10", "0x1.c5d926ccf19efp+10",
            "0x1.c6507ec31e41bp+10", "0x1.c6dabd8bb880dp+10", "0x1.c74b45a992dfap+10",
            "0x1.c73304327373fp+10", "0x1.c71ac2bb54084p+10", "0x1.c7ec50b5ac15cp+10",
            "0x1.c7ec50b5ac15cp+10", "0x1.c7d584722d1ecp+10",
        ],
        lp_solves=531, fitness_calls=550,
    ),
    "static": dict(
        best=["0x1.c7ec50b5ac15ep+10"] * 11,
        mean=[
            "0x1.c53ca186bdf85p+10", "0x1.c7af89a7024eep+10", "0x1.c7beb82eae27ap+10",
            "0x1.c78faa740fc4ep+10", "0x1.c7a7ebeb2f309p+10", "0x1.c7d584722d1ecp+10",
            "0x1.c7bd42fb0db31p+10", "0x1.c7ec50b5ac15cp+10", "0x1.c7ec50b5ac15cp+10",
            "0x1.c7d584722d1ecp+10", "0x1.c7d584722d1ecp+10",
        ],
        lp_solves=530, fitness_calls=550,
    ),
}
# the best genome in both modes: a seeded baseline's
PIN_GENES = [
    0, 1, 2, 0, 1, 1, 2, 1, 2, 3, 5, 0, 2, 1, 0, 1, 0, 4, 1, 1, 1, 0, 0, 0, 2, 1, 2, 3, 0, 1,
    4, 5, 9, 0, 0, 0, 8, 4, 2, 0, 3, 3, 5, 7, 8, 5, 6, 5, 8, 9, 6, 4, 7, 3, 0, 1, 1, 0, 1, 7,
    2, 0, 1, 0, 0, 0, 1, 4, 4, 1, 0, 4, 2, 0, 4, 7, 2, 6, 8, 6, 2, 6, 4, 1, 3, 9, 1, 2, 1, 0,
]


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
    assert trace.best_genome.ravel().tolist() == PIN_GENES
    assert trace.best_genome.dtype == np.intp and trace.best_genome.shape == (30, 3)
