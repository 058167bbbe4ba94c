import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qvpn import rl_optimizer
from qvpn.allocation_lp import LpCompiler, build_problem, solve
from qvpn.fixtures import TOPOLOGY_10, bundled_topology
from qvpn.pathfinding import build_candidate_sets
from qvpn.quantum_math import DistillationStrategy
from qvpn.rl_optimizer import (
    LEAKY_SLOPE,
    PROB_FLOOR,
    DivergenceError,
    EpochPolicy,
    PolicyNetwork,
    RlProblem,
    TrainConfig,
    _BlockSampler,
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

from qvpn_helpers import make_pair, one_hot_init, policy_blob

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
    # integer fields reject bools (JSON true), floats and values below the minimum
    for name, value in (("epochs", True), ("epochs", -1), ("epochs", 3.0),
                        ("batch_size", 0), ("batch_size", 2.5), ("lr_decay_every", 0),
                        ("lr_decay_every", False), ("paths_per_state", 0),
                        ("paths_per_state", True), ("seed", 1.5)):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})
    # real fields reject bools, NaN, infinities and values outside their range
    nan, inf = float("nan"), float("inf")
    for name, value in (("learning_rate", nan), ("learning_rate", True), ("learning_rate", inf),
                        ("learning_rate", "0.1"), ("lr_decay", -1), ("lr_decay", 0.0),
                        ("lr_decay", nan), ("lr_floor", inf), ("lr_floor", -1e-4),
                        ("lr_floor", False), ("entropy_beta", nan), ("entropy_beta", -inf),
                        ("entropy_beta", True)):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})
    assert TrainConfig(lr_floor=0, entropy_beta=0, learning_rate=1).learning_rate == 1
    assert TrainConfig(epochs=0, paths_per_state=None).epochs == 0
    assert TrainConfig(epochs=np.int64(2), paths_per_state=np.int64(4)).paths_per_state == 4


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
    assert prob.input_dim == 3
    assert np.array_equal(prob.encode_state(), np.ones(3))


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
    assert [w.shape for w in a.weights] == [(6, 3), (5, 6)]
    assert [v.shape for v in a.biases] == [(6,), (5,)]
    assert a.num_parameters() == 18 + 6 + 30 + 5
    # the weights the one-hot state over P*P inputs read, bit for bit
    full = one_hot_init(prob, (6,), seed=4)
    assert np.array_equal(a.weights[0], full[0][:, ::4])
    assert np.array_equal(a.weights[1], full[1])
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


def test_gradients_match_finite_differences(triangle):
    # hand-written backprop against central differences, with and without entropy
    prob = _multi_problem(triangle)
    rng = np.random.default_rng(60)
    for seed, order in ((0, "C"), (1, "C"), (2, "C"), (3, "F")):
        policy = PolicyNetwork.init(prob, hidden=(6,), seed=seed)
        # the check must perturb column-major weights in place too
        policy.weights = [np.asarray(w, order=order) for w in policy.weights]
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
    out = [np.full_like(g, np.nan) for g in fresh_w]
    into_w, into_b = policy.backward(dlogits, cache, out=out)
    for f, i, o in zip(fresh_w, into_w, out):
        assert i is o
        assert np.array_equal(f, i)
    for f, i in zip(fresh_b, into_b):
        assert np.array_equal(f, i)


def test_backward_into_buffers_allocates_no_ufunc_buffer(triangle):
    # np.outer(..., out=) took a 128 KiB ufunc buffer per layer per call
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(128, 64), seed=3)
    actions, probs, cache = sample_action(policy, prob, np.random.default_rng(3))
    dlogits = probs - 0.5
    out = [np.empty_like(w) for w in policy.weights]
    assert not out[0].flags.c_contiguous  # W0's buffer is column-major
    policy.backward(dlogits, cache, out=out)
    tracemalloc.start()
    try:
        policy.backward(dlogits, cache, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8192


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


def test_apply_update_detects_divergence(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
    grads_w = [np.full_like(w, 1e308) for w in policy.weights]
    grads_b = [np.zeros_like(b) for b in policy.biases]
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        policy.apply_update(grads_w, grads_b, 10.0)


def _update_with_one_entry(prob, layer, index, value):
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
    grads_w = [np.zeros_like(w) for w in policy.weights]
    grads_b = [np.zeros_like(b) for b in policy.biases]
    grads_w[layer][index] = value
    policy.apply_update(grads_w, grads_b, 0.1)


def test_compact_update_detects_divergence_in_active_columns(triangle):
    # W0 holds only the columns the state reads, so every column is active
    prob = _multi_problem(triangle)
    for index in ((2, 1), (0, 0), (5, prob.input_dim - 1)):
        with pytest.raises(DivergenceError, match="weights"):
            _update_with_one_entry(prob, 0, index, np.nan)


def test_dense_update_detects_divergence_in_any_column(triangle):
    # one non-finite gradient entry anywhere in any layer
    prob = _multi_problem(triangle)
    for layer, index, value in ((0, (0, 2), np.inf), (1, (4, 5), -np.inf),
                                (1, (0, 0), np.nan)):
        with pytest.raises(DivergenceError, match="weights"):
            _update_with_one_entry(prob, layer, index, value)


def test_train_rejects_non_finite_policy_before_first_epoch(triangle):
    prob = _multi_problem(triangle)
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
    # a non-finite weight in a loaded policy.bin is named before any reward
    # is computed
    w0, w1 = (w.copy() for w in policy.weights)
    w0[3, 1] = np.nan
    b0, b1 = policy.biases
    loaded = load_policy(policy_blob(w0, b0, w1, b1,
                                     [v for se in prob.block_slices for v in se]))
    calls = []
    with pytest.raises(DivergenceError, match="weights"):
        train(loaded, prob, TrainConfig(epochs=1, batch_size=1),
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
    assert len(rewards) == 12
    # the running sum in call order over the count, bit for bit
    assert baseline == sum(rewards) / len(rewards)
    assert train(policy, prob, TrainConfig(epochs=0), env)[1:] == ([], None)
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


def test_greedy_selection_rejects_non_finite_policy(triangle):
    # a checkpoint holding NaN used to yield an arbitrary selection
    prob = _multi_problem(triangle)
    for part, value in (("weights", np.nan), ("biases", np.inf)):
        policy = PolicyNetwork.init(prob, hidden=(6,), seed=0)
        getattr(policy, part)[-1][0] = value
        with pytest.raises(DivergenceError, match=part):
            greedy_selection(load_policy(save_policy(policy)), prob)


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
    w0, b0, w1, b1 = np.zeros((6, 2)), np.zeros(6), np.zeros((5, 6)), np.zeros(5)
    slices = [0, 3, 3, 5]
    good = policy_blob(w0, b0, w1, b1, slices)
    assert load_policy(good).num_parameters() == 12 + 6 + 30 + 5
    # a QVPNPOL1 file (a P*P-wide W0) is refused by its magic
    with pytest.raises(ValueError, match="magic"):
        load_policy(policy_blob(np.zeros((6, 4)), b0, w1, b1, slices, magic=b"QVPNPOL1"))
    bad = {
        "truncated": good[:-12],
        "trailing bytes": good + b"\x00",
        "array count": policy_blob(b0, b1),  # even: cannot be (W, b)* + slices
        "layers do not chain": policy_blob(w0, b0, np.zeros((5, 7)), b1, slices),
        "bias length": policy_blob(w0, np.zeros(4), w1, b1, slices),
        "slices short of the output": policy_blob(w0, b0, w1, b1, [0, 2, 2, 4]),
        "odd slice count": policy_blob(w0, b0, w1, b1, [0, 3, 5]),
        "W0 not P wide": policy_blob(np.zeros((6, 4)), b0, w1, b1, slices),
    }
    for name, blob in bad.items():
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_policy(blob)
    with pytest.raises(ValueError, match="array count"):
        load_policy(bad["array count"])


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
    total, count = 0.0, 0
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
            total += reward
            count += 1
            delta = _reference_dlogits(probs, problem.block_slices,
                                       [actions[k] for k in problem.pair_order],
                                       reward - total / count, config.entropy_beta)
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
    problem = SimpleNamespace(pair_order=list(range(len(slices))), block_slices=slices,
                              encode_state=lambda: np.ones(1))
    for trial in range(30):
        # zero weights: the logits are the biases, bit for bit
        logits = rng.normal(0.0, 10.0 ** rng.uniform(0, 3), size)
        policy = PolicyNetwork([np.zeros((size, 1))], [logits], slices)
        chosen = [sorted((start + rng.choice(end - start, size=rng.integers(1, end - start + 1),
                                             replace=False)).tolist())
                  for start, end in slices]
        advantage = float(rng.normal(0.0, 5.0))
        for beta in (0.0, 0.1):
            current = EpochPolicy(policy, problem, [len(c) for c in chosen], beta)
            probs = current.probs
            assert np.array_equal(probs, _reference_block_probs(logits, slices))
            got = current.dlogits(dict(enumerate(chosen)), advantage)
            assert np.array_equal(got, _reference_dlogits(probs, slices, chosen,
                                                          advantage, beta))


def _floored(p):
    p = np.maximum(p, PROB_FLOOR)
    return p / p.sum()


def _replay_block(kind, n, rng):
    """A draw block of n entries: flat, sparse, or a saturated softmax."""
    if kind == 0:
        return rng.dirichlet(np.ones(n))
    if kind == 1:
        return rng.dirichlet(np.full(n, 0.05))
    logits = np.where(rng.random(n) < 0.3, rng.normal(size=n), -800.0)
    logits[rng.integers(n)] = 0.0
    return _floored(_reference_block_probs(logits, [(0, n)]))


def test_sampler_replays_generator_choice():
    """The block sampler returns Generator.choice's indices and leaves the
    generator in the same state, on flat, sparse and floor-saturated blocks."""
    rng = np.random.default_rng(2024)
    for case in range(10_500):
        kind = case % 3
        n = 2 + (case // 3) % 10
        r = int(rng.integers(1, n))
        p = _replay_block(kind, n, rng)
        if kind == 1 and np.count_nonzero(p) < r:
            p = _floored(p)
        want_rng = np.random.default_rng([case, 11])
        got_rng = np.random.default_rng([case, 11])
        want = want_rng.choice(n, size=r, replace=False, p=p).tolist()
        assert _BlockSampler(p, [(0, n)], [r]).sample(got_rng) == [want], (case, r, p)
        assert got_rng.random() == want_rng.random(), case
    # a draw equal to a cdf step goes right, as searchsorted(side="right") does
    u = np.random.default_rng(5).random()
    p = np.array([u, 1.0 - u])
    want = np.random.default_rng(5).choice(2, size=1, replace=False, p=p).tolist()
    assert _BlockSampler(p, [(0, 2)], [1]).sample(np.random.default_rng(5)) == [want] == [[1]]


def test_sampler_replays_generator_choice_over_whole_samples():
    """A sample of many blocks, whose pooled draws run dry and refill when
    blocks need repeat rounds, returns block-by-block Generator.choice's
    indices and leaves the generator where that loop leaves it."""
    rng = np.random.default_rng(77)
    repeats = 0
    for case in range(1_500):
        lengths = rng.integers(1, 9, size=int(rng.integers(1, 13)))
        blocks, slices, quotas = [], [], []
        for n in lengths.tolist():
            start = slices[-1][1] if slices else 0
            p = _replay_block(int(rng.integers(3)), n, rng) if n > 1 else np.ones(1)
            r = int(rng.integers(1, n + 1))  # r == n takes the whole block, drawing nothing
            if np.count_nonzero(p) < r:
                p = _floored(p)
            blocks.append(p)
            slices.append((start, start + n))
            quotas.append(r)
        want_rng = np.random.default_rng([case, 12])
        want = []
        for p, (start, end), r in zip(blocks, slices, quotas):
            if r >= end - start:
                want.append(list(range(start, end)))
            else:
                picks = want_rng.choice(end - start, size=r, replace=False, p=p)
                want.append([start + int(j) for j in picks])
        got_rng = np.random.default_rng([case, 12])
        sampler = _BlockSampler(np.concatenate(blocks), slices, quotas)
        assert sampler.sample(got_rng) == want, case
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, case
        # did a block need a repeat round, drawing past the first rounds?
        first_rounds = np.random.default_rng([case, 12])
        first_rounds.random(sum(r for r, (start, end) in zip(quotas, slices) if r < end - start))
        repeats += first_rounds.bit_generator.state != want_rng.bit_generator.state
    assert repeats > 100


def _net10_problem():
    """Eight pairs on the bundled 10-node topology, up to five candidates
    each, four picks per pair: most samples need repeat rounds."""
    graph = bundled_topology(TOPOLOGY_10)
    wl = generate_workload(graph, WorkloadParams(num_orgs=2, pairs_per_org=4, hop_cap=4,
                                                 r_min=0.0), seed=3)
    return RlProblem(wl, build_candidate_sets(graph, wl, k=5), EASY, p_max=4)


@pytest.mark.parametrize("problem, learning_rate, beta, paths_per_state", [
    pytest.param(_square_problem, 1e-3, 0.1, None, id="0.001-0.1"),
    pytest.param(_square_problem, 200.0, 0.0, None, id="200.0-0.0"),
    pytest.param(_square_problem, 1e-3, 0.1, 4, id="0.001-0.1-paths_per_state4"),
    pytest.param(_net10_problem, 1e-3, 0.1, None, id="net10-0.001-0.1"),
    pytest.param(_net10_problem, 200.0, 0.1, 20, id="net10-200.0-0.1-paths_per_state20")])
def test_train_matches_dense_reference(monkeypatch, problem, learning_rate, beta,
                                       paths_per_state):
    # the small step never saturates the softmax; the large one saturates it
    # in the first update, so later samples take the floor path
    prob = problem()
    cfg = TrainConfig(learning_rate=learning_rate, epochs=12, batch_size=3,
                      entropy_beta=beta, paths_per_state=paths_per_state, seed=4)
    env = lambda sel: float(_count_hops(sel)) ** 2
    policy = PolicyNetwork.init(prob, hidden=(6,), seed=4)
    reference = load_policy(save_policy(policy))
    cdfs = [0]
    first_round_cdf = rl_optimizer._cdf

    def counted_cdf(p):
        cdfs[0] += 1
        return first_round_cdf(p)

    monkeypatch.setattr(rl_optimizer, "_cdf", counted_cdf)
    _, trace, _ = train(policy, prob, cfg, env)
    assert trace == _reference_train(reference, prob, cfg, env)
    for got, want in zip(policy.weights + policy.biases,
                         reference.weights + reference.biases):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    sampled = sum(r < end - start for r, (start, end)
                  in zip(prob.per_pair_quota(paths_per_state), prob.block_slices))
    if problem is _net10_problem:
        assert prob.num_pairs == 8 and sampled >= 4
        # one first-round cdf per sampled block and epoch; the rest are repeat rounds
        assert cdfs[0] > cfg.epochs * sampled + 20


@pytest.mark.parametrize("hidden", [(), (5,)])
@pytest.mark.parametrize("state", ["one-hot", "valued", "dense"])
def test_gradient_check_sparse_first_layer(triangle, hidden, state):
    prob = _multi_problem(triangle, p_max=1)
    rng = np.random.default_rng(12)
    x = {"one-hot": prob.encode_state(),
         "valued": np.array([1.5, 0.0, -0.7]),
         "dense": rng.normal(size=prob.input_dim)}[state]
    prob.encode_state = lambda: x.copy()
    for seed in (0, 1, 2):
        policy = PolicyNetwork.init(prob, hidden=hidden, seed=seed)
        actions, probs, cache = sample_action(policy, prob, rng)
        grads_w, _ = policy.backward(probs, cache)
        assert grads_w[0].shape == policy.weights[0].shape
        advantage = float(rng.normal(0.0, 5.0))
        for beta in (0.0, 0.1):
            assert gradient_check(policy, prob, actions, advantage, beta) < 1e-4


def test_train_epoch_allocates_nothing_parameter_sized():
    graph = bundled_topology()
    wl = generate_workload(graph, WorkloadParams(num_orgs=3, pairs_per_org=50, r_min=0.0),
                           seed=1)
    prob = RlProblem(wl, build_candidate_sets(graph, wl, k=3), EASY, p_max=3)
    policy = PolicyNetwork.init(prob, seed=1)
    # W0 is (hidden x P). Every np.outer(..., out=) allocates a fixed ufunc
    # buffer of two bufsize doubles, so a W0-sized temporary only shows once
    # W0 is larger than that buffer.
    limit = policy.weights[0].nbytes
    assert limit > 2 * 8 * np.getbufsize()
    # a first layer over a one-hot state of P*P inputs
    one_hot_w0 = limit * prob.num_pairs
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
    # ... and nothing the size of a one-hot first layer for the whole run
    assert max(marks["first_peak"], peak) - start < one_hot_w0
