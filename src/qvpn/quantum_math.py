"""Static fidelity model: nested-swap fidelity, DEJMPS purification, overhead g(.).

States are Bell-diagonal with coefficients (a, b, c, d) over the Bell basis
ordered (phi+, psi+, psi-, phi-); the fidelity is a. One purification round
consumes two pairs and keeps one with probability p, so distilling a pair
through rounds k = 1..n costs g = prod(2/p_k) base pairs per output.

The recurrence depends on its input fidelity alone; a target only picks
where it stops. So it runs once per input (_ladder), and a path's overhead
is read off one table per path class (path_overhead_ladder): link fidelity,
hop count, strategy and noise fix every stage but the last rung, which a
pair's own fidelity threshold picks with one bisect.
path_overhead_per_link is the scalar reference the table must equal.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .checks import InputError, check_int, check_real, made, number, records

# Absolute tolerance for all fidelity threshold comparisons.
FIDELITY_ATOL = 1e-9

DEFAULT_MAX_ROUNDS = 20


@dataclass(frozen=True)
class BellDiagonalState:
    coefficients: tuple  # (a, b, c, d), nonnegative, summing to 1

    def __post_init__(self):
        coeffs = tuple(float(x) for x in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != 4:
            raise ValueError("Bell-diagonal state needs exactly 4 coefficients")
        if any(x < 0 for x in coeffs):
            raise ValueError(f"negative coefficient in {coeffs}")
        if abs(sum(coeffs) - 1.0) > 1e-12:
            raise ValueError(f"coefficients must sum to 1, got {sum(coeffs)!r}")

    @property
    def fidelity(self):
        return self.coefficients[0]


def werner(fidelity: float) -> BellDiagonalState:
    """Werner state with the given fidelity: (F, (1-F)/3, (1-F)/3, (1-F)/3)."""
    rest = (1.0 - fidelity) / 3.0
    return BellDiagonalState((fidelity, rest, rest, rest))


@dataclass(frozen=True)
class NoiseParams:
    two_qubit_gate_fidelity: float = 1.0  # P2
    measurement_fidelity: float = 0.99  # eta
    swap_success_prob: float = 1.0  # q

    def __post_init__(self):
        for name in ("two_qubit_gate_fidelity", "measurement_fidelity", "swap_success_prob"):
            check_real(name, getattr(self, name), 0, 1, open_low=True, open_high=False)


DEFAULT_NOISE = NoiseParams()


@dataclass(frozen=True)
class DistillationStrategy:
    link_threshold: float  # link-level fidelity target before swapping
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self):
        check_real("link threshold", self.link_threshold, 0.25, 1, open_low=True)
        check_int("max_rounds", self.max_rounds)


@dataclass(frozen=True)
class OverheadResult:
    overhead: float  # g, base pairs consumed per output pair; inf when infeasible
    rounds: int
    achieved_fidelity: float
    feasible: bool


def swap_chain_fidelity(link_fidelity: float, num_links: int, noise: NoiseParams = DEFAULT_NOISE) -> float:
    """End-to-end fidelity of a path of num_links identical links after nested swaps.

    S = 1/4 + 3/4 * (P2*(4*eta^2 - 1)/3)^(N-1) * ((4*F - 1)/3)^N
    where N is the link count (N-1 swaps). Reduces to the link fidelity at N=1.
    """
    if num_links < 1:
        raise ValueError(f"path must have at least one link, got {num_links}")
    if not 0.25 < link_fidelity <= 1.0:
        raise ValueError(f"link fidelity must lie in (0.25,1], got {link_fidelity}")
    p2 = noise.two_qubit_gate_fidelity
    eta = noise.measurement_fidelity
    gate = p2 * (4.0 * eta * eta - 1.0) / 3.0
    state = (4.0 * link_fidelity - 1.0) / 3.0
    return 0.25 + 0.75 * gate ** (num_links - 1) * state**num_links


def _dejmps_round(first, second):
    """One DEJMPS round on coefficient tuples: (output coefficients, success
    probability), renormalized so the coefficients sum to 1 again."""
    a1, b1, c1, d1 = first
    a2, b2, c2, d2 = second
    p = (a1 + c1) * (a2 + c2) + (b1 + d1) * (b2 + d2)
    if p < 1e-12:
        raise ValueError(f"degenerate purification step, success probability {p!r}")
    out = (
        (a1 * a2 + c1 * c2) / p,
        (b1 * b2 + d1 * d2) / p,
        (b1 * d2 + d1 * b2) / p,
        (a1 * c2 + c1 * a2) / p,
    )
    # renormalize away accumulated rounding so downstream states stay valid
    total = sum(out)
    return tuple(x / total for x in out), p


def purify_step(state_a: BellDiagonalState, state_b: BellDiagonalState):
    """One DEJMPS round: consume two pairs, keep one, post-selected on success.

    Returns (output state, success probability). The map is the
    Bell-diagonal recurrence of the rotate + bilateral-CNOT + coincidence
    circuit; tests hold it to the density-matrix simulation within 1e-10.
    """
    coefficients, p = _dejmps_round(state_a.coefficients, state_b.coefficients)
    return BellDiagonalState(coefficients), p


@lru_cache(maxsize=None)
def _ladder(input_fidelity, max_rounds):
    """The symmetric recurrence from Werner(input_fidelity), run once:
    (fidelities, results). Rung k is the fidelity after k rounds, rising
    strictly, and its feasible result; the one extra result is where the
    ladder stopped, at max_rounds or at a round that did not rise."""
    state = werner(input_fidelity).coefficients
    fidelities, results = [state[0]], [OverheadResult(1.0, 0, state[0], True)]
    while len(fidelities) - 1 < max_rounds:
        state, p = _dejmps_round(state, state)  # p >= 1/2: running on never raises
        if state[0] <= fidelities[-1] + 1e-15:
            # map stalled (at or below the F=0.5 fixed line); cap would only spin
            stop = OverheadResult(math.inf, len(fidelities), state[0], False)
            break
        fidelities.append(state[0])
        results.append(OverheadResult(results[-1].overhead * (2.0 / p), len(results),
                                      state[0], True))
    else:
        stop = OverheadResult(math.inf, len(fidelities) - 1, fidelities[-1], False)
    return tuple(fidelities), (*results, stop)


def purification_overhead(input_fidelity: float, target_fidelity: float,
                          max_rounds: int = DEFAULT_MAX_ROUNDS) -> OverheadResult:
    """Base pairs needed per output pair distilled from Werner(input) to the target.

    Symmetric recurrence: each round purifies two identical copies of the
    current state. Overhead multiplies by 2/p_k per round. The result is
    read off the input's ladder, so all targets on one input share one run
    of the recurrence. Infeasibility (target unreached within max_rounds)
    is a tagged result, not an error.
    """
    if not 0.25 < input_fidelity <= 1.0:
        raise ValueError(f"input fidelity must lie in (0.25,1], got {input_fidelity}")
    if not 0.25 < target_fidelity < 1.0:
        raise ValueError(f"target fidelity must lie in (0.25,1), got {target_fidelity}")
    fidelities, results = _ladder(input_fidelity, max_rounds)
    return results[bisect_left(fidelities, target_fidelity - FIDELITY_ATOL)]


def path_overhead_per_link(link_fidelity: float, path_length_links: int,
                           strategy: DistillationStrategy, user_threshold: float,
                           noise: NoiseParams = DEFAULT_NOISE) -> OverheadResult:
    """Per-link base-EPR cost g of serving one end-to-end pair over this path.

    Two stages: link-level distillation of raw pairs up to the strategy
    threshold, then end-to-end distillation of the swapped pair up to the
    user threshold. g_total = g_link * g_e2e, since every e2e input pair
    costs g_link raw pairs on each link. The swap chain is evaluated at the
    nominal post-distillation link fidelity max(F_l, threshold).

    A link fidelity at or below 1/4 (a separable Werner state, which no
    round distills) is infeasible, as one below the F = 1/2 fixed line is.

    Not memoized: this is the scalar reference. A compile reads the same
    overheads off path_overhead_ladder.
    """
    if link_fidelity <= 0.25:
        return OverheadResult(math.inf, 0, link_fidelity, False)
    link = purification_overhead(link_fidelity, strategy.link_threshold, strategy.max_rounds)
    if not link.feasible:
        return link
    g_link, rounds = link.overhead, link.rounds
    chain_input = max(link_fidelity, strategy.link_threshold)
    s = swap_chain_fidelity(chain_input, path_length_links, noise)
    if s >= user_threshold - FIDELITY_ATOL:
        return OverheadResult(g_link, rounds, s, True)
    if s <= 0.25:
        return OverheadResult(math.inf, rounds, s, False)
    e2e = purification_overhead(s, user_threshold, strategy.max_rounds)
    if not e2e.feasible:
        return OverheadResult(math.inf, rounds + e2e.rounds, e2e.achieved_fidelity, False)
    return OverheadResult(g_link * e2e.overhead, rounds + e2e.rounds, e2e.achieved_fidelity, True)


@lru_cache(maxsize=None)
def path_overhead_ladder(link_fidelity: float, path_length_links: int,
                         strategy: DistillationStrategy, noise: NoiseParams = DEFAULT_NOISE):
    """The overhead table of one path class: (fidelities, overheads), two
    tuples. A pair of fidelity threshold T pays

        overheads[bisect_left(fidelities, T - FIDELITY_ATOL)]

    per link, inf when a stage is infeasible; for every T in (1/4, 1) that
    is path_overhead_per_link(link_fidelity, path_length_links, strategy,
    T, noise).overhead, bit for bit. fidelities is the swapped pair's
    ladder (its fidelity s first), and each overhead is g_link times the
    rung's, multiplied in path_overhead_per_link's order; the last is inf.
    An infeasible link stage has no fidelities, and s <= 1/4 only s.

    Memoized without a size bound, as _ladder is: there are at most (link
    fidelities x hop counts x strategies) classes per noise setting.
    """
    if link_fidelity <= 0.25:
        return (), (math.inf,)
    link = purification_overhead(link_fidelity, strategy.link_threshold, strategy.max_rounds)
    if not link.feasible:
        return (), (math.inf,)
    g_link = link.overhead
    s = swap_chain_fidelity(max(link_fidelity, strategy.link_threshold), path_length_links, noise)
    if s <= 0.25:
        return (s,), (g_link, math.inf)
    fidelities, results = _ladder(s, strategy.max_rounds)
    return fidelities, tuple(g_link * r.overhead for r in results)


def default_strategy_catalog(count: int = 16, low: float = 0.8, high: float = 0.998,
                             max_rounds: int = DEFAULT_MAX_ROUNDS):
    """Uniformly spaced link-threshold catalog, sorted ascending."""
    if check_int("count", count) == 1:
        return [DistillationStrategy(low, max_rounds)]
    step = (high - low) / (count - 1)
    return [DistillationStrategy(low + i * step, max_rounds) for i in range(count)]


def load_strategy_catalog(source: str, max_rounds: int = DEFAULT_MAX_ROUNDS):
    """Parse a catalog document, which has no header: one threshold per line."""
    catalog = []
    for lineno, tokens in records(source, None, InputError):
        if len(tokens) != 1:
            raise InputError(f"line {lineno}: expected one threshold, got {' '.join(tokens)!r}")
        threshold = number(tokens[0], f"line {lineno}: threshold", float, InputError)
        if catalog and threshold <= catalog[-1].link_threshold:
            raise InputError(f"line {lineno}: strategy catalog must be strictly ascending "
                             "by threshold")
        catalog.append(made(f"line {lineno}:", InputError, DistillationStrategy, threshold,
                            max_rounds))
    if not catalog:
        raise InputError("strategy catalog is empty")
    return catalog


def catalog_prefix(catalog, count):
    """The first count strategies of a catalog; InputError unless count is
    an integer from 1 to the catalog's size."""
    if check_int("strategy_count", count) > len(catalog):
        raise InputError(f"strategy count {count} outside catalog of {len(catalog)}")
    return catalog[:count]


def save_strategy_catalog(catalog) -> str:
    return "\n".join(repr(s.link_threshold) for s in catalog) + "\n"
