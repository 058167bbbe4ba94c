import numpy as np
import pytest

from qvpn import ga_optimizer
from qvpn.allocation_lp import wegr_of_selection
from qvpn.topology import NetworkGraph, NodeSpec, make_link
from qvpn.workload import Organization, UserPair, Workload

from qvpn_helpers import ORACLE_RTOL


@pytest.fixture(autouse=True)
def ga_bound_oracle(monkeypatch):
    """Check every GA search a test runs against two oracles, and return
    the list of (final W-EGR, bound, seeded W-EGRs) of the checked runs.

    - The bound: the LP over every column of the problem's layout, without
      the p_max cap. Every genome's LP takes a subset of those columns, so
      no search may end above it.
    - The seeds: the search may not end below the W-EGR of a baseline
      whose encoded genome sits in the initial population.

    evolve calls the module's _generations whichever way the test reached
    evolve, so wrapping it sees every run."""
    checked, encoded = [], []
    real_encode = ga_optimizer.GaProblem.encode_selection
    real_generations = ga_optimizer._generations

    def encode(problem, selection):
        genome = real_encode(problem, selection)
        encoded.append((problem, selection, genome))
        return genome

    def generations(genes, config, problem, solve_batch):
        trace = real_generations(genes, config, problem, solve_batch)
        bound = wegr_of_selection(problem.compiler, np.arange(problem._layout_size))
        assert trace.best_wegr <= bound * (1 + ORACLE_RTOL), (trace.best_wegr, bound)
        initial = {row.tobytes() for row in genes}
        seeded = [wegr_of_selection(problem.compiler, problem.compiler.column_ids(selection))
                  for owner, selection, genome in encoded
                  if owner is problem and genome.tobytes() in initial]
        for wegr in seeded:
            assert trace.best_wegr >= wegr * (1 - ORACLE_RTOL), (trace.best_wegr, wegr)
        checked.append((trace.best_wegr, bound, seeded))
        return trace

    monkeypatch.setattr(ga_optimizer.GaProblem, "encode_selection", encode)
    monkeypatch.setattr(ga_optimizer, "_generations", generations)
    return checked


@pytest.fixture
def triangle():
    """A-B direct plus A-C-B detour; all links 10 km, capacity ~252383 EPR/s."""
    nodes = (NodeSpec("A"), NodeSpec("B"), NodeSpec("C", is_repeater=True))
    links = (make_link("A", "B", 10.0), make_link("A", "C", 10.0), make_link("C", "B", 10.0))
    return NetworkGraph(nodes=nodes, links=links)


@pytest.fixture
def one_pair_workload():
    org = Organization("org0", 1.0)
    pair = UserPair("org0", ("A", "B"), weight=0.5, fidelity_threshold=0.7,
                    r_min=0.0, r_max=1e9)
    return Workload(organizations=(org,), user_pairs=(pair,), seed=0)
