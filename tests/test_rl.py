import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qvpn.allocation_lp import LpCompiler, build_problem, solve
from qvpn.fixtures import bundled_topology
from qvpn.pathfinding import build_candidate_sets
from qvpn.quantum_math import DistillationStrategy
from qvpn.rl_optimizer import (
    LEAKY_SLOPE,
    PROB_FLOOR,
    BaselineTable,
    DivergenceError,
    PolicyNetwork,
    RlProblem,
    TrainConfig,
    _choice_without_replacement,
    _surrogate_dlogits,
    cached_reward,
    gradient_check,
    greedy_selection,
    load_policy,
    sample_action,
    save_policy,
    train,
)
from qvpn.topology import NetworkGraph, NodeSpec, make_link
from qvpn.workload import Organization, Workload, WorkloadParams, generate_workload

from qvpn_helpers import make_pair

EASY = DistillationStrategy(0.8)


def _multi_problem(triangle, p_max=2):
    """Three pairs with candidate-set sizes (2, 1, 2)."""
    org = Organization("org0", 1.0)
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "C"),
             make_pair("org0", "B", "C"))
    wl = Workload(organizations=(org,), user_pairs=pairs, seed=0)
    cands = build_candidate_sets(triangle, wl, k=3)
    cands[pairs[1].key] = cands[pairs[1].key][:1]
    return RlProblem(wl, cands, EASY, p_max=p_max)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(entropy_beta=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(seed=-2)


def test_learning_rate_schedule():
    cfg = TrainConfig(learning_rate=0.02, lr_decay=0.5, lr_decay_every=10,
                      lr_floor=0.004)
    assert cfg.lr_at(0) == 0.02
    assert cfg.lr_at(9) == 0.02
    assert cfg.lr_at(10) == pytest.approx(0.01)
    assert cfg.lr_at(20) == pytest.approx(0.005)
    # 0.02 * 0.5^3 = 0.0025 clips at the floor
    assert cfg.lr_at(30) == 0.004


def test_problem_layout(triangle):
    prob = _multi_problem(triangle)
    assert prob.num_pairs == 3
    assert prob.block_slices == [(0, 2), (2, 3), (3, 5)]
    assert prob.output_dim == 5
    assert prob.input_dim == 9
    assert prob.state_key() == tuple(prob.pair_order)
    x = prob.encode_state()
    assert x.shape == (9,)
    assert x.reshape(3, 3) == pytest.approx(np.eye(3))


def test_problem_skips_pairs_without_candidates(triangle):
    org = Organization("org0", 1.0)
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "A", "C"))
    wl = Workload(organizations=(org,), user_pairs=pairs, seed=0)
    cands = build_candidate_sets(triangle, wl, k=2)
    cands[pairs[1].key] = []
    prob = RlProblem(wl, cands, EASY)
    assert prob.pair_order == [pairs[0].key]
    assert prob.num_pairs == 1


def test_per_pair_quota(triangle):
    prob = _multi_problem(triangle)
    assert prob.per_pair_quota() == [2, 1, 2]
    assert prob.per_pair_quota(5) == [2, 1, 2]
    assert prob.per_pair_quota(99) == [2, 1, 2]
    # level filling: everyone gets one, extras go round-robin up to capacity
    assert prob.per_pair_quota(4) == [2, 1, 1]
    assert prob.per_pair_quota(3) == [1, 1, 1]
    with pytest.raises(ValueError, match="every pair"):
        prob.per_pair_quota(2)


def test_policy_init_shapes_and_determinism(triangle):
    prob = _multi_problem(triangle)
    a = PolicyNetwork.init(prob, hidden=(6,), seed=4)
    b = PolicyNetwork.init(prob, hidden=(6,), seed=4)
    assert [w.shape for w in a.weights] == [(6, 9), (5, 6)]
    assert [v.shape for v in a.biases] == [(6,), (5,)]
    assert a.num_parameters() == 54 + 6 + 30 + 5
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
    assert all(np.all(v == 0) for v in a.biases)
    c = PolicyNetwork.init(prob, hidden=(6,), seed=5)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_block_probs_normalize_per_pair(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
    logits, _ = policy.forward(prob.encode_state())
    probs = policy.block_probs(logits)
    for start, end in prob.block_slices:
        assert probs[start:end].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs[start:end] > 0)
    # extreme logits stay finite thanks to the max shift
    probs = policy.block_probs(np.array([800.0, -800.0, 0.0, 50.0, 49.0]))
    assert np.all(np.isfinite(probs))
    assert probs[0] == pytest.approx(1.0)


def test_sampling_respects_quota_and_blocks(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        actions, probs, cache = sample_action(policy, prob, rng)
        for i, k in enumerate(prob.pair_order):
            start, end = prob.block_slices[i]
            acts = actions[k]
            assert len(acts) == prob.per_pair_quota()[i]
            assert len(set(acts)) == len(acts)  # without replacement
            assert acts == sorted(acts)
            assert all(start <= a < end for a in acts)


def test_sampling_with_total_budget(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=1)
    rng = np.random.default_rng(5)
    actions, _, _ = sample_action(policy, prob, rng, R=4)
    counts = [len(actions[k]) for k in prob.pair_order]
    assert counts == [2, 1, 1]


def test_selection_from_actions(triangle):
    prob = _multi_problem(triangle)
    actions = {k: [prob.block_slices[i][0]] for i, k in enumerate(prob.pair_order)}
    sel = prob.selection_from_actions(actions)
    for i, k in enumerate(prob.pair_order):
        path, strategy = sel[k][0]
        assert path is prob.candidates[k][0]
        assert strategy is EASY


def test_baseline_table_running_mean():
    table = BaselineTable()
    with pytest.raises(KeyError):
        table.value("s")
    table.update("s", 2.0)
    assert table.value("s") == 2.0
    table.update("s", 4.0)
    assert table.value("s") == 3.0
    table.update("s", 0.0)
    assert table.value("s") == 2.0
    table.update("t", 10.0)
    assert table.value("t") == 10.0 and table.value("s") == 2.0


def test_gradients_match_finite_differences(triangle):
    # hand-written backprop against central differences, with and without entropy
    prob = _multi_problem(triangle)
    rng = np.random.default_rng(60)
    for seed in (0, 1, 2):
        policy = PolicyNetwork.init(prob, hidden=(6,), seed=seed)
        actions, _, _ = sample_action(policy, prob, rng)
        advantage = float(rng.normal(0.0, 5.0))
        for beta in (0.0, 0.1):
            assert gradient_check(policy, prob, actions, advantage, beta) < 1e-4


def test_gradient_check_size_guard(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(128,), seed=0)
    rng = np.random.default_rng(0)
    actions, _, _ = sample_action(policy, prob, rng)
    with pytest.raises(ValueError, match="1000"):
        gradient_check(policy, prob, actions, 1.0, 0.1)


def test_backward_into_buffers_matches_fresh_arrays(triangle):
    # train reuses one gradient buffer per layer; the bits must not change
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=3)
    actions, probs, cache = sample_action(policy, prob, np.random.default_rng(3))
    dlogits = probs - 0.5
    fresh_w, fresh_b = policy.backward(dlogits, cache)
    out = [np.full_like(g, np.nan) for g in fresh_w]  # compact first layer
    into_w, into_b = policy.backward(dlogits, cache, out=out)
    for f, i, o in zip(fresh_w, into_w, out):
        assert i is o
        assert np.array_equal(f, i)
    for f, i in zip(fresh_b, into_b):
        assert np.array_equal(f, i)


def test_apply_update_matches_scaled_sum(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=4)
    rng = np.random.default_rng(4)
    grads_w = [rng.normal(size=w.shape) for w in policy.weights]
    grads_b = [rng.normal(size=b.shape) for b in policy.biases]
    expect_w = [w + 0.3 * g for w, g in zip(policy.weights, grads_w)]
    expect_b = [b + 0.3 * g for b, g in zip(policy.biases, grads_b)]
    policy.apply_update(grads_w, grads_b, 0.3)
    for got, want in zip(policy.weights + policy.biases, expect_w + expect_b):
        assert np.array_equal(got, want)

    # a compact first-layer gradient lands on its columns only
    columns = np.array([1, 4, 8])
    grads_w = [rng.normal(size=(6, 3)), rng.normal(size=(5, 6))]
    grads_b = [np.zeros(6), np.zeros(5)]
    expect = policy.weights[0].copy()
    expect[:, columns] += 0.3 * grads_w[0]
    policy.apply_update(grads_w, grads_b, 0.3, columns)
    assert np.array_equal(policy.weights[0], expect)


def test_apply_update_detects_divergence(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
    grads_w = [np.full_like(w, 1e308) for w in policy.weights]
    grads_b = [np.zeros_like(b) for b in policy.biases]
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        policy.apply_update(grads_w, grads_b, 10.0)


def _compact_grads(policy, columns):
    grads_w = [np.zeros((policy.weights[0].shape[0], columns.size)),
               *(np.zeros_like(w) for w in policy.weights[1:])]
    return grads_w, [np.zeros_like(b) for b in policy.biases]


def test_compact_update_detects_divergence_in_active_columns(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
    columns = np.flatnonzero(prob.encode_state())
    grads_w, grads_b = _compact_grads(policy, columns)
    grads_w[0][2, 1] = np.nan
    with pytest.raises(DivergenceError, match="weights"):
        policy.apply_update(grads_w, grads_b, 0.1, columns)


def test_dense_update_detects_divergence_in_any_column(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
    inactive = np.flatnonzero(prob.encode_state() == 0)
    grads_w = [np.zeros_like(w) for w in policy.weights]
    grads_b = [np.zeros_like(b) for b in policy.biases]
    grads_w[0][0, inactive[-1]] = np.inf
    with pytest.raises(DivergenceError, match="weights"):
        policy.apply_update(grads_w, grads_b, 0.1)


def test_train_rejects_non_finite_policy_before_first_epoch(triangle):
    # updates scan only the first-layer columns they touch, so a non-finite
    # weight in a column the state never reads (a bad loaded policy.bin)
    # must be caught when training starts
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
    inactive = np.flatnonzero(prob.encode_state() == 0)
    policy.weights[0][3, inactive[0]] = np.nan
    policy = load_policy(save_policy(policy))
    assert np.all(np.isfinite(policy.forward(prob.encode_state())[0]))
    calls = []
    with pytest.raises(DivergenceError, match="weights"):
        train(policy, prob, TrainConfig(epochs=1, batch_size=1),
              lambda selection: calls.append(selection) or 1.0)
    assert calls == []


def test_sampling_rejects_non_finite_probabilities(triangle):
    # finite weights can still overflow in forward; the sampler must name it
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
    policy.weights[0][0, 0] = np.nan
    with pytest.raises(DivergenceError, match="non-finite"):
        sample_action(policy, prob, np.random.default_rng(0))


def _square_graph():
    """Four nodes, six links: several candidate paths between any two."""
    nodes = tuple(NodeSpec(n) for n in "ABCD")
    links = (make_link("A", "B", 10.0), make_link("A", "C", 10.0),
             make_link("C", "B", 10.0), make_link("A", "D", 10.0),
             make_link("D", "B", 10.0), make_link("C", "D", 10.0))
    return NetworkGraph(nodes=nodes, links=links)


def test_sampling_fills_quota_from_saturated_softmax():
    """A block whose softmax underflows to a single nonzero entry must still
    yield the full per-pair quota of distinct paths."""
    graph = _square_graph()
    org = Organization("org0", 1.0)
    wl = Workload(organizations=(org,), user_pairs=(make_pair("org0", "A", "B"),),
                  seed=0)
    cands = build_candidate_sets(graph, wl, k=5)
    prob = RlProblem(wl, cands, EASY, p_max=2)
    n = prob.output_dim
    assert n >= 3

    biases = np.full(n, -800.0)  # exp(-800) underflows to exactly 0.0
    biases[0] = 0.0
    policy = PolicyNetwork([np.zeros((n, prob.input_dim))], [biases],
                           prob.block_slices)
    assert np.count_nonzero(policy.block_probs(biases)) == 1
    for trial in range(20):
        actions, _, _ = sample_action(policy, prob, np.random.default_rng(trial))
        picks = actions[prob.pair_order[0]]
        assert len(picks) == 2
        assert len(set(picks)) == 2
        assert 0 in picks  # the only entry with mass is always drawn
        assert all(0 <= a < n for a in picks)


def _count_hops(selection):
    return sum(p.hop_count for picks in selection.values() for p, _ in picks)


def test_train_deterministic(triangle):
    prob = _multi_problem(triangle)
    cfg = TrainConfig(learning_rate=0.01, epochs=5, batch_size=2, seed=7)
    traces = []
    finals = []
    for _ in range(2):
        policy = PolicyNetwork.init(prob, hidden=(6,), seed=7)
        _, trace, _ = train(policy, prob, cfg, lambda sel: float(_count_hops(sel)))
        traces.append(trace)
        finals.append(policy)
    assert traces[0] == traces[1]
    assert all(np.array_equal(a, b)
               for a, b in zip(finals[0].weights, finals[1].weights))
    assert len(traces[0]) == 5


def test_constant_reward_trains_on_entropy_only(triangle):
    # zero advantage throughout, so the reward magnitude must not matter
    prob = _multi_problem(triangle)
    cfg = TrainConfig(learning_rate=0.05, epochs=10, batch_size=2,
                      entropy_beta=0.5, seed=3)
    outs = []
    for constant in (5.0, 17.0):
        policy = PolicyNetwork.init(prob, hidden=(6,), seed=3)
        train(policy, prob, cfg, lambda sel: constant)
        outs.append(policy)
    assert all(np.array_equal(a, b)
               for a, b in zip(outs[0].weights, outs[1].weights))
    assert all(np.array_equal(a, b)
               for a, b in zip(outs[0].biases, outs[1].biases))


def test_train_baseline_is_exact_reward_mean(triangle):
    prob = _multi_problem(triangle)
    cfg = TrainConfig(learning_rate=1e-3, epochs=4, batch_size=3, seed=2)
    rewards = []

    def env(sel):
        r = float(_count_hops(sel)) * 2.5
        rewards.append(r)
        return r

    policy = PolicyNetwork.init(prob, hidden=(6,), seed=2)
    _, trace, baseline = train(policy, prob, cfg, env)
    state = prob.state_key()
    assert baseline.counts[state] == 12
    assert baseline.value(state) == pytest.approx(np.mean(rewards), rel=1e-15)
    # each trace entry is that epoch's mean reward
    assert trace == pytest.approx([np.mean(rewards[i:i + 3]) for i in range(0, 12, 3)])


def test_training_shifts_probability_to_better_path(triangle, one_pair_workload):
    cands = build_candidate_sets(triangle, one_pair_workload, k=3)
    prob = RlProblem(one_pair_workload, cands, EASY, p_max=1)
    assert prob.candidates[prob.pair_order[0]][0].hop_count == 1
    policy = PolicyNetwork.init(prob, hidden=(8,), seed=2)

    def env(sel):
        (picks,) = sel.values()
        return 10.0 if picks[0][0].hop_count == 1 else 1.0

    before = policy.block_probs(policy.forward(prob.encode_state())[0])[0]
    cfg = TrainConfig(learning_rate=0.01, epochs=200, batch_size=4,
                      entropy_beta=0.01, seed=1)
    train(policy, prob, cfg, env)
    after = policy.block_probs(policy.forward(prob.encode_state())[0])[0]
    assert after > 0.8
    assert after > before
    sel = greedy_selection(policy, prob)
    assert _count_hops(sel) == 1  # greedy picks the direct path


def test_greedy_selection_caps_at_p_max(triangle):
    prob = _multi_problem(triangle, p_max=1)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=9)
    sel = greedy_selection(policy, prob)
    assert all(len(picks) == 1 for picks in sel.values())
    probs = policy.block_probs(policy.forward(prob.encode_state())[0])
    for i, k in enumerate(prob.pair_order):
        start, end = prob.block_slices[i]
        best = start + int(np.argmax(probs[start:end]))
        assert sel[k][0][0] is prob.candidates[k][best - start]


def test_checkpoint_round_trip(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(8,), seed=5)
    blob = save_policy(policy)
    again = load_policy(blob)
    assert all(np.array_equal(a, b) for a, b in zip(policy.weights, again.weights))
    assert all(np.array_equal(a, b) for a, b in zip(policy.biases, again.biases))
    assert again.block_slices == policy.block_slices
    assert save_policy(again) == blob  # byte-stable re-serialization


def test_checkpoint_rejects_bad_blobs():
    with pytest.raises(ValueError, match="magic"):
        load_policy(b"NOTMAGIC" + b"\x00" * 32)
    prob_blob = save_policy(PolicyNetwork([np.zeros((2, 2))], [np.zeros(2)], [(0, 2)]))
    with pytest.raises(ValueError, match="corrupt"):
        load_policy(prob_blob[:-12])
    # even array count cannot be (W, b)* + slices
    bad = b"QVPNPOL1" + struct.pack("<I", 2)
    for _ in range(2):
        bad += struct.pack("<I", 1) + struct.pack("<1I", 1) + struct.pack("<d", 0.0)
    with pytest.raises(ValueError, match="array count"):
        load_policy(bad)


def test_cached_reward_solves_each_selection_once(triangle, one_pair_workload):
    prob = RlProblem(one_pair_workload, build_candidate_sets(triangle, one_pair_workload, k=3),
                     EASY, p_max=1)
    env = cached_reward(LpCompiler(triangle, one_pair_workload, p_max=1))
    selections = [prob.selection_from_actions({prob.pair_order[0]: [a]})
                  for a in range(prob.output_dim)]
    first = [env(sel) for sel in selections]
    assert [env(sel) for sel in selections] == first
    assert len(env.cache) == prob.output_dim
    for sel, reward in zip(selections, first):
        assert reward == solve(build_problem(triangle, one_pair_workload, sel, p_max=1)).wegr


def test_block_layout_must_tile_the_logits():
    with pytest.raises(ValueError, match="tile"):
        PolicyNetwork([np.zeros((5, 2))], [np.zeros(5)], [(0, 2), (3, 5)])
    with pytest.raises(ValueError, match="tile"):
        PolicyNetwork([np.zeros((2, 2))], [np.zeros(2)], [(0, 2), (2, 2)])


# Reference implementations: the per-block loops and dense first-layer
# algebra that the vectorized policy code must reproduce.

def _reference_block_probs(logits, block_slices):
    probs = np.empty_like(logits)
    for start, end in block_slices:
        block = logits[start:end]
        e = np.exp(block - block.max())
        probs[start:end] = e / e.sum()
    return probs


def _reference_dlogits(probs, block_slices, chosen_per_block, advantage, beta):
    d = np.zeros_like(probs)
    for (start, end), chosen in zip(block_slices, chosen_per_block):
        p = probs[start:end]
        block = np.zeros(end - start)
        for a in chosen:
            block[a - start] += 1.0
        block -= len(chosen) * p
        block *= advantage
        if beta > 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                logp = np.where(p > 0, np.log(p), 0.0)
            entropy = -np.sum(p * logp)
            block += beta * (-p * (logp + entropy))
        d[start:end] = block
    return d


def _reference_train(policy, problem, config, environment):
    """REINFORCE with dense W0 @ x, a Python pass per block and
    Generator.choice; mutates policy and returns the reward trace."""
    baseline = BaselineTable()
    state = problem.state_key()
    x = problem.encode_state()
    quotas = problem.per_pair_quota(config.paths_per_state)
    trace = []
    for epoch in range(config.epochs):
        grads_w = [np.zeros_like(w) for w in policy.weights]
        grads_b = [np.zeros_like(b) for b in policy.biases]
        rewards = []
        for b_idx in range(config.batch_size):
            rng = np.random.default_rng([config.seed, epoch, b_idx])
            hs, zs = [x], []
            for W, b in zip(policy.weights[:-1], policy.biases[:-1]):
                zs.append(W @ hs[-1] + b)
                hs.append(np.where(zs[-1] > 0, zs[-1], LEAKY_SLOPE * zs[-1]))
            logits = policy.weights[-1] @ hs[-1] + policy.biases[-1]
            probs = _reference_block_probs(logits, problem.block_slices)
            actions = {}
            for k, (start, end), r in zip(problem.pair_order, problem.block_slices, quotas):
                p = probs[start:end]
                if r >= end - start:
                    chosen = range(end - start)
                else:
                    if np.count_nonzero(p) < r:
                        p = np.maximum(p, PROB_FLOOR)
                        p = p / p.sum()
                    chosen = rng.choice(end - start, size=r, replace=False, p=p)
                actions[k] = [start + int(c) for c in sorted(chosen)]
            reward = environment(problem.selection_from_actions(actions))
            baseline.update(state, reward)
            delta = _reference_dlogits(probs, problem.block_slices,
                                       [actions[k] for k in problem.pair_order],
                                       reward - baseline.value(state), config.entropy_beta)
            for layer in range(len(policy.weights) - 1, -1, -1):
                grads_w[layer] += np.outer(delta, hs[layer])
                grads_b[layer] += delta
                if layer:
                    delta = (policy.weights[layer].T @ delta) * np.where(
                        zs[layer - 1] > 0, 1.0, LEAKY_SLOPE)
            rewards.append(reward)
        for param, g in zip(policy.weights + policy.biases, grads_w + grads_b):
            param += g * config.lr_at(epoch)
        trace.append(float(np.mean(rewards)))
    return trace


def _square_problem(p_max=2):
    """Three pairs on the square graph, five candidate paths each."""
    graph = _square_graph()
    pairs = (make_pair("org0", "A", "B"), make_pair("org0", "C", "D"),
             make_pair("org0", "A", "D"))
    wl = Workload(organizations=(Organization("org0", 1.0),), user_pairs=pairs, seed=0)
    return RlProblem(wl, build_candidate_sets(graph, wl, k=5), EASY, p_max=p_max)


def test_block_ops_match_per_block_loops():
    # blocks of 1 to 12 entries; sums of 8 or more entries are pairwise in numpy
    rng = np.random.default_rng(8)
    lengths = rng.permutation(np.repeat(np.arange(1, 13), 3))
    ends = np.cumsum(lengths)
    slices = [(int(e - n), int(e)) for e, n in zip(ends, lengths)]
    size = int(ends[-1])
    policy = PolicyNetwork([np.zeros((size, 1))], [np.zeros(size)], slices)
    problem = SimpleNamespace(pair_order=list(range(len(slices))))
    for trial in range(30):
        logits = rng.normal(0.0, 10.0 ** rng.uniform(0, 3), size)
        probs = policy.block_probs(logits)
        assert np.array_equal(probs, _reference_block_probs(logits, slices))
        chosen = [sorted((start + rng.choice(end - start, size=rng.integers(1, end - start + 1),
                                             replace=False)).tolist())
                  for start, end in slices]
        advantage = float(rng.normal(0.0, 5.0))
        for beta in (0.0, 0.1):
            got = _surrogate_dlogits(policy, problem, probs, dict(enumerate(chosen)),
                                     advantage, beta)
            assert np.array_equal(got, _reference_dlogits(probs, slices, chosen,
                                                          advantage, beta))


def _floored(p):
    p = np.maximum(p, PROB_FLOOR)
    return p / p.sum()


def test_sampler_replays_generator_choice():
    """The list sampler returns Generator.choice's indices and leaves the
    generator in the same state, on flat, sparse and floor-saturated blocks."""
    rng = np.random.default_rng(2024)
    for case in range(10_500):
        kind = case % 3
        n = 2 + (case // 3) % 10
        r = int(rng.integers(1, n))
        if kind == 0:
            p = rng.dirichlet(np.ones(n))
        elif kind == 1:
            p = rng.dirichlet(np.full(n, 0.05))
            if np.count_nonzero(p) < r:
                p = _floored(p)
        else:
            logits = np.where(rng.random(n) < 0.3, rng.normal(size=n), -800.0)
            logits[rng.integers(n)] = 0.0
            p = _floored(_reference_block_probs(logits, [(0, n)]))
        want_rng = np.random.default_rng([case, 11])
        got_rng = np.random.default_rng([case, 11])
        want = want_rng.choice(n, size=r, replace=False, p=p).tolist()
        assert _choice_without_replacement(got_rng, p.tolist(), r) == want, (case, r, p)
        assert got_rng.random() == want_rng.random(), case
    # a draw equal to a cdf step goes right, as searchsorted(side="right") does
    u = np.random.default_rng(5).random()
    p = np.array([u, 1.0 - u])
    want = np.random.default_rng(5).choice(2, size=1, replace=False, p=p).tolist()
    assert _choice_without_replacement(np.random.default_rng(5), p.tolist(), 1) == want == [1]


@pytest.mark.parametrize("learning_rate, beta", [(1e-3, 0.1), (200.0, 0.0)])
def test_train_matches_dense_reference(learning_rate, beta):
    # the small step never saturates the softmax; the large one saturates it
    # in the first update, so later samples take the floor path
    prob = _square_problem()
    cfg = TrainConfig(learning_rate=learning_rate, epochs=12, batch_size=3,
                      entropy_beta=beta, seed=4)
    env = lambda sel: float(_count_hops(sel)) ** 2
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=4)
    reference = policy.copy()
    _, trace, _ = train(policy, prob, cfg, env)
    assert trace == _reference_train(reference, prob, cfg, env)
    for got, want in zip(policy.weights + policy.biases,
                         reference.weights + reference.biases):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("hidden", [(), (5,)])
@pytest.mark.parametrize("state", ["one-hot", "valued", "dense"])
def test_gradient_check_sparse_first_layer(triangle, hidden, state):
    prob = _multi_problem(triangle, p_max=1)
    rng = np.random.default_rng(12)
    x = {"one-hot": prob.encode_state(),
         "valued": np.array([1.5, 0.0, 0.3, 0.0, -0.7, 0.0, 0.0, 0.0, 2.0]),
         "dense": rng.normal(size=prob.input_dim)}[state]
    prob.encode_state = lambda: x.copy()
    for seed in (0, 1, 2):
        policy = PolicyNetwork.init(prob, hidden=hidden, seed=seed)
        actions, probs, cache = sample_action(policy, prob, rng)
        grads_w, _ = policy.backward(probs, cache)
        assert grads_w[0].shape == (policy.weights[0].shape[0], np.count_nonzero(x))
        advantage = float(rng.normal(0.0, 5.0))
        for beta in (0.0, 0.1):
            assert gradient_check(policy, prob, actions, advantage, beta) < 1e-4


def test_train_epoch_allocates_nothing_parameter_sized():
    graph = bundled_topology()
    wl = generate_workload(graph, WorkloadParams(num_orgs=3, pairs_per_org=20, r_min=0.0),
                           seed=1)
    prob = RlProblem(wl, build_candidate_sets(graph, wl, k=3), EASY, p_max=3)
    assert prob.num_pairs >= 40
    policy = PolicyNetwork.init(prob, seed=1)
    limit = policy.weights[0].nbytes
    cfg = TrainConfig(epochs=3, batch_size=2, seed=1)
    calls = [0]
    marks = {}

    def env(sel):
        calls[0] += 1
        if calls[0] == cfg.batch_size + 1:  # first sample of the second epoch
            marks["first_peak"] = tracemalloc.get_traced_memory()[1]
            marks["epoch_start"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        return float(_count_hops(sel))

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train(policy, prob, cfg, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no per-sample or per-epoch temporary the size of W0 ...
    assert peak - marks["epoch_start"] < limit
    # ... and no gradient buffer of that size for the whole run
    assert max(marks["first_peak"], peak) - start < limit
