import math
from dataclasses import astuple

import numpy as np
import pytest

from qvpn import quantum_math
from qvpn.quantum_math import (
    BellDiagonalState,
    DEFAULT_MAX_ROUNDS,
    DistillationStrategy,
    FIDELITY_ATOL,
    NoiseParams,
    default_strategy_catalog,
    load_strategy_catalog,
    path_overhead_per_link,
    purification_overhead,
    purify_step,
    save_strategy_catalog,
    swap_chain_fidelity,
    werner,
)


def test_werner_coefficients():
    s = werner(0.8)
    assert s.coefficients == pytest.approx((0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3))
    assert s.fidelity == 0.8


def test_state_validation():
    with pytest.raises(ValueError):
        BellDiagonalState((0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError):
        BellDiagonalState((0.5, 0.5, 0.5, 0.5))  # sums to 2
    with pytest.raises(ValueError):
        BellDiagonalState((1.0, 0.0, 0.0))  # wrong arity


def test_purify_step_werner_08():
    # one recurrence round on two Werner(0.8) inputs; values frozen from the
    # density-matrix simulator in tests/test_oracles.py
    out, p = purify_step(werner(0.8), werner(0.8))
    assert p == pytest.approx(0.768888888888889, abs=1e-15)
    assert out.fidelity == pytest.approx(0.8381502890173411, abs=1e-15)
    assert out.coefficients[1] == pytest.approx(0.011560693641618491, abs=1e-15)
    assert out.coefficients[2] == pytest.approx(0.011560693641618491, abs=1e-15)
    assert out.coefficients[3] == pytest.approx(0.13872832369942192, abs=1e-15)


def test_purify_step_zero_success_probability():
    psi_plus = BellDiagonalState((0.0, 1.0, 0.0, 0.0))
    phi_plus = BellDiagonalState((1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        purify_step(psi_plus, phi_plus)


def test_purify_step_improves_werner_fidelity():
    # recurrence gains fidelity for Werner inputs above 0.5
    for f in np.linspace(0.55, 0.95, 9):
        out, p = purify_step(werner(float(f)), werner(float(f)))
        assert out.fidelity > f
        assert 0 < p <= 1


def test_swap_chain_hand_value():
    # two links, perfect swap, eta=0.99; hand-evaluated nested-swap formula
    s = swap_chain_fidelity(0.8, 2, NoiseParams(measurement_fidelity=0.99))
    assert abs(s - 0.64263) <= 1e-5
    assert s == pytest.approx(0.6426315555555556, abs=1e-12)


def test_swap_chain_single_link_identity():
    # N=1 with ideal parameters returns the link fidelity untouched
    ideal = NoiseParams(measurement_fidelity=1.0)
    for f in (0.6, 0.8, 0.97):
        assert swap_chain_fidelity(f, 1, ideal) == pytest.approx(f, abs=1e-12)


def test_swap_chain_decreasing_in_length():
    noise = NoiseParams(measurement_fidelity=0.99)
    values = [swap_chain_fidelity(0.9, n, noise) for n in range(1, 8)]
    for a, b in zip(values, values[1:]):
        assert b < a
    # long chains approach the fully mixed point from above
    assert values[-1] > 0.25


def test_swap_chain_rejects_bad_args():
    with pytest.raises(ValueError):
        swap_chain_fidelity(0.8, 0)
    with pytest.raises(ValueError):
        swap_chain_fidelity(0.2, 2)  # below Werner floor


def test_overhead_equal_fidelity_is_exactly_one():
    for f in (0.6, 0.8, 0.93):
        r = purification_overhead(f, f)
        assert r.overhead == 1.0
        assert r.rounds == 0
        assert r.achieved_fidelity == f
        assert r.feasible


def test_overhead_08_to_085():
    # round 1 reaches 0.83815 < 0.85, so a second round is needed
    r = purification_overhead(0.8, 0.85)
    assert r.feasible
    assert r.rounds == 2
    assert r.overhead == pytest.approx(6.986762396230646, rel=1e-12)
    assert r.achieved_fidelity >= 0.85


def test_overhead_low_start_converges():
    # the recurrence has no fixed point between 0.5 and 1, so even 0.51
    # eventually clears 0.999; the price is astronomical but finite
    r = purification_overhead(0.51, 0.999, max_rounds=20)
    assert r.feasible
    assert r.rounds == 14
    assert r.overhead == pytest.approx(8885545.535775103, rel=1e-9)


def test_overhead_round_cap_infeasible():
    r = purification_overhead(0.51, 0.999, max_rounds=3)
    assert not r.feasible
    assert r.overhead == math.inf


def test_overhead_stall_detected():
    # F=0.5 is the recurrence's fixed point: no progress, reported infeasible
    r = purification_overhead(0.5, 0.6)
    assert not r.feasible


def test_overhead_matches_success_probability_product():
    # g = prod 2/p_k along the recurrence chain
    state = werner(0.77)
    target = 0.92
    g = 1.0
    rounds = 0
    while state.fidelity < target - FIDELITY_ATOL:
        state, p = purify_step(state, state)
        g *= 2.0 / p
        rounds += 1
    r = purification_overhead(0.77, target)
    assert r.rounds == rounds
    assert r.overhead == pytest.approx(g, rel=1e-12)
    assert r.achieved_fidelity == pytest.approx(state.fidelity, rel=1e-12)


def _overhead_by_purify_step(input_fidelity, target, max_rounds):
    """purification_overhead's loop on validated states, one purify_step per round."""
    state = werner(input_fidelity)
    overhead, rounds = 1.0, 0
    while state.fidelity < target - FIDELITY_ATOL:
        if rounds >= max_rounds:
            return (math.inf, rounds, state.fidelity, False)
        prev = state.fidelity
        state, p = purify_step(state, state)
        overhead *= 2.0 / p
        rounds += 1
        if state.fidelity <= prev + 1e-15:
            return (math.inf, rounds, state.fidelity, False)
    return (overhead, rounds, state.fidelity, True)


def test_overhead_is_bitwise_the_purify_step_recurrence():
    # the loop on plain coefficient tuples must give purify_step's bits:
    # reached, capped and stalled alike
    outcomes = set()
    for f in np.linspace(0.26, 1.0, 50):
        for target in np.linspace(0.3, 0.999, 30):
            for max_rounds in (3, DEFAULT_MAX_ROUNDS):
                want = _overhead_by_purify_step(float(f), float(target), max_rounds)
                got = astuple(purification_overhead(float(f), float(target), max_rounds))
                assert got == want, (f, target, max_rounds)
                outcomes.add((want[3], want[1] == max_rounds))
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


@pytest.mark.parametrize("args, overhead, rounds, fidelity", [
    ((0.8, 0.85, 20), "0x1.bf271d772eed1p+2", 2, "0x1.e324ae036c5ccp-1"),
    ((0.51, 0.999, 20), "0x1.0f2a5312511d4p+23", 14, "0x1.ff91e39d8c75bp-1"),
    ((0.93, 0.998, 20), "0x1.38e61c4b02b02p+3", 3, "0x1.ffdb9c4127e43p-1"),
    ((0.6, 0.95, 5), "inf", 5, "0x1.ddff4f215e2a9p-1"),
])
def test_overhead_bits_are_pinned(args, overhead, rounds, fidelity):
    # every LP coefficient derives from these; a reordered recurrence moves them
    r = purification_overhead(*args)
    assert (r.overhead, r.rounds, r.achieved_fidelity) == \
        (float.fromhex(overhead), rounds, float.fromhex(fidelity))


def test_targets_on_one_input_share_one_run_of_the_recurrence(monkeypatch):
    # every user pair has its own threshold: the recurrence runs once per
    # input, one round per ladder rung, and each target is read off it
    calls = []
    real = quantum_math._dejmps_round

    def counting(first, second):
        calls.append(first)
        return real(first, second)

    monkeypatch.setattr(quantum_math, "_dejmps_round", counting)
    quantum_math._ladder.cache_clear()
    targets = [float(t) for t in np.linspace(0.3, 0.999, 200)]
    for input_fidelity in (0.77, 0.51, 0.5001, 0.45):  # stalls at 1, at 1, capped, falls
        state, rounds = werner(input_fidelity), 0
        while rounds < DEFAULT_MAX_ROUNDS:
            nxt, _ = real(state.coefficients, state.coefficients)
            rounds += 1
            if nxt[0] <= state.fidelity + 1e-15:
                break  # the stalled round is run, and is no rung
            state = BellDiagonalState(nxt)
        calls.clear()
        got = [astuple(purification_overhead(input_fidelity, t)) for t in targets]
        assert len(calls) == rounds, input_fidelity
        want = [_overhead_by_purify_step(input_fidelity, t, DEFAULT_MAX_ROUNDS)
                for t in targets]
        assert got == want
        calls.clear()
        for t in targets[::-1]:
            purification_overhead(input_fidelity, t)
        assert calls == []


def test_overhead_domain():
    with pytest.raises(ValueError):
        purification_overhead(0.25, 0.8)
    with pytest.raises(ValueError):
        purification_overhead(0.8, 1.0)
    with pytest.raises(ValueError):
        purification_overhead(1.2, 0.8)


def test_overhead_target_below_input_short_circuits():
    r = purification_overhead(0.9, 0.8)
    assert r.overhead == 1.0 and r.rounds == 0 and r.achieved_fidelity == 0.9


def test_path_overhead_no_distillation_needed():
    # link already at threshold and the swapped pair clears the user target
    strategy = DistillationStrategy(0.8)
    r = path_overhead_per_link(0.8, 1, strategy, 0.7, NoiseParams(measurement_fidelity=0.99))
    assert r.feasible
    assert r.overhead == 1.0
    assert r.rounds == 0


def test_path_overhead_link_then_e2e():
    noise = NoiseParams(measurement_fidelity=0.99)
    strategy = DistillationStrategy(0.9)
    r = path_overhead_per_link(0.8, 2, strategy, 0.85, noise)
    assert r.feasible
    link = purification_overhead(0.8, 0.9)
    s = swap_chain_fidelity(0.9, 2, noise)  # chain runs at the nominal threshold
    assert s < 0.85  # so the end-to-end stage must fire
    e2e = purification_overhead(s, 0.85)
    assert r.overhead == pytest.approx(link.overhead * e2e.overhead, rel=1e-12)
    assert r.rounds == link.rounds + e2e.rounds


def test_path_overhead_long_low_fidelity_path_infeasible():
    # swapped fidelity lands near the mixed floor; e2e distillation cannot recover
    noise = NoiseParams(measurement_fidelity=0.95)
    r = path_overhead_per_link(0.8, 12, DistillationStrategy(0.8), 0.9, noise)
    assert not r.feasible
    assert r.overhead == math.inf


def test_path_overhead_at_or_below_a_quarter_link_fidelity_is_infeasible():
    # a separable link (F <= 1/4) is infeasible, as a stalled one (F 0.4) is;
    # it used to raise "input fidelity must lie in (0.25,1]"
    for fidelity in (0.4, 0.25, 0.19999999999999996, 0.0):
        for hops in (1, 3):
            r = path_overhead_per_link(fidelity, hops, DistillationStrategy(0.8), 0.7)
            assert not r.feasible and r.overhead == math.inf, (fidelity, hops)


def test_path_overhead_memo_matches_uncached():
    # the memo must hand back what the uncached function computes, on the
    # catalog x hop counts x user thresholds, feasible and infeasible alike
    uncached = path_overhead_per_link.__wrapped__
    noisy = NoiseParams(two_qubit_gate_fidelity=0.99, measurement_fidelity=0.97)
    feasible = 0
    for strategy in default_strategy_catalog():
        for hops in range(1, 9):
            for threshold in (0.6, 0.75, 0.8, 0.88, 0.95):
                for link_fidelity in (0.82, 0.93, 0.99):
                    for noise in (NoiseParams(), noisy):
                        args = (link_fidelity, hops, strategy, threshold, noise)
                        want = astuple(uncached(*args))
                        assert astuple(path_overhead_per_link(*args)) == want, args
                        assert astuple(path_overhead_per_link(*args)) == want, args  # a hit
                        feasible += want[3]
    assert 0 < feasible < 16 * 8 * 5 * 3 * 2


def test_catalog_default_16():
    cat = default_strategy_catalog()
    assert len(cat) == 16
    ts = [s.link_threshold for s in cat]
    assert ts[0] == 0.8 and ts[-1] == 0.998
    steps = np.diff(ts)
    assert np.allclose(steps, steps[0])
    assert all(s.max_rounds == DEFAULT_MAX_ROUNDS for s in cat)


def test_catalog_round_trip():
    cat = default_strategy_catalog(7, 0.82, 0.95)
    again = load_strategy_catalog(save_strategy_catalog(cat))
    assert [s.link_threshold for s in again] == [s.link_threshold for s in cat]


def test_catalog_rejects_unsorted():
    with pytest.raises(ValueError, match="ascending"):
        load_strategy_catalog("0.9\n0.8\n")
    with pytest.raises(ValueError, match="strictly ascending"):
        load_strategy_catalog("0.9\n0.9\n0.95\n")


def test_catalog_rejects_garbage_line():
    with pytest.raises(ValueError, match="line 2"):
        load_strategy_catalog("0.9\npotato\n")


def test_strategy_validation():
    with pytest.raises(ValueError):
        DistillationStrategy(0.25)
    with pytest.raises(ValueError):
        DistillationStrategy(1.0)
    with pytest.raises(ValueError):
        DistillationStrategy(0.9, max_rounds=0)
