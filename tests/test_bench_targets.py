"""The traced benchmark wraps qvpn names that must still exist, and
describes their return values as they are shaped today."""

import importlib
from pathlib import Path

import numpy as np

from qvpn.allocation_lp import build_problem, solve
from qvpn.pathfinding import build_candidate_sets
from qvpn.quantum_math import DistillationStrategy
from qvpn.rl_optimizer import PolicyNetwork, RlProblem


def _layers(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("layers")


def test_every_traced_name_exists(monkeypatch):
    # perfbench/spans.install reads owner.__dict__[attr], so a renamed or
    # removed name crashes every traced run; the bench's own tests run untraced
    targets = _layers(monkeypatch).targets()
    assert len(targets) >= 26
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets
               if attr not in vars(owner)]
    assert missing == []


def test_every_describer_reads_the_real_return_value(monkeypatch, triangle,
                                                     one_pair_workload):
    # a traced run hands each describer what the wrapped call returned, so
    # a reshaped AllocationProblem or solution fails here, not in the bench
    candidates = build_candidate_sets(triangle, one_pair_workload, k=3)
    strategy = DistillationStrategy(0.8)
    selection = {key: [(path, strategy) for path in paths[:2]]
                 for key, paths in candidates.items()}
    problem = build_problem(triangle, one_pair_workload, selection, p_max=2)
    rl_problem = RlProblem(one_pair_workload, candidates, strategy, p_max=2)
    policy = PolicyNetwork.init(rl_problem, hidden=(4,), seed=0)
    logits, cache = policy.forward(rl_problem.encode_state())
    returned = {
        "pathfinding.build_candidate_sets": candidates,
        "allocation_lp.build_problem": problem,
        "allocation_lp.solve": solve(problem),
        "rl_optimizer.backward": policy.backward(np.ones_like(logits), cache),
    }
    described = {}
    for _, _, name, describe in _layers(monkeypatch).targets():
        if describe is not None:
            described[name] = describe(returned[name], (), {})
    assert described == {
        "pathfinding.build_candidate_sets": {"pairs": 1, "paths": 2},
        # three capacity rows and the R_max row; A-B and A-C-B, each on R_max
        "allocation_lp.build_problem": {"rows": 4, "cols": 2, "nnz": 5},
        "allocation_lp.solve": {"infeasible": False},
        "rl_optimizer.backward": {"nbytes": sum(
            w.nbytes + b.nbytes for w, b in zip(policy.weights, policy.biases))},
    }
