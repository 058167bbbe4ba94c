"""Policy-gradient path selection: REINFORCE with an average-reward baseline.

The policy is a small feed-forward network (leaky-ReLU hidden layers) mapping
the encoded user-pair list to one logit per (pair, candidate path). Softmax
is applied per pair block; during training paths are sampled without
replacement within each block, at inference each pair takes its top-p_max
probabilities. The update is

    theta <- theta + alpha * sum_t [ grad log pi(a_t|s) * (r_t - b_t)
                                     + beta * grad H(pi(.|s)) ]

with b_t the running mean of every reward observed so far, r_t included.
The state s never changes, so one mean serves every sample; a baseline
need only be independent of the action (Williams 1992). Gradients are
computed by hand-written reverse-mode differentiation; gradient_check
validates them against central finite differences and is part of the test
gate.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import allocation_lp
from .checks import InputError, check_int, check_real

LEAKY_SLOPE = 0.01
PROB_FLOOR = 1e-12  # only applied when a softmax block underflows to zeros


class DivergenceError(RuntimeError):
    """A policy weight became non-finite during training."""


class QuotaError(InputError):
    """paths_per_state (R) is below the number of pairs, so some pair
    would sample no path."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    lr_decay: float = 0.96
    lr_decay_every: int = 500
    lr_floor: float = 1e-4
    entropy_beta: float = 0.1
    batch_size: int = 8
    epochs: int = 2000
    paths_per_state: int | None = None  # R; None = every pair takes min(p_max, |CP|)
    seed: int = 0

    def __post_init__(self):
        minimums = [("lr_decay_every", 1), ("batch_size", 1), ("epochs", 0), ("seed", 0)]
        if self.paths_per_state is not None:  # None: no cap
            minimums.append(("paths_per_state", 1))
        for name, low in minimums:
            check_int(name, getattr(self, name), low)
        for name, positive in (("learning_rate", True), ("lr_decay", True),
                               ("lr_floor", False), ("entropy_beta", False)):
            check_real(name, getattr(self, name), open_low=positive)

    def lr_at(self, epoch: int) -> float:
        decayed = self.learning_rate * self.lr_decay ** (epoch // self.lr_decay_every)
        return max(self.lr_floor, decayed)


class RlProblem:
    """Candidate layout for the policy: pair order, per-pair logit blocks,
    and the single distillation strategy used for every selected path."""

    def __init__(self, workload, candidates, strategy, p_max=3):
        self.pair_order = [p.key for p in workload.user_pairs if candidates.get(p.key)]
        self.candidates = {k: list(candidates[k]) for k in self.pair_order}
        self.p_max = p_max
        bounds = list(accumulate((len(self.candidates[k]) for k in self.pair_order), initial=0))
        self.block_slices = list(zip(bounds, bounds[1:]))
        self.output_dim = bounds[-1]
        self.num_pairs = self.input_dim = len(self.pair_order)
        # the (path, strategy) choice of each global candidate index
        self._choices = [(path, strategy) for k in self.pair_order for path in self.candidates[k]]

    def encode_state(self) -> np.ndarray:
        """The static pair list as one input of 1.0 per pair slot."""
        return np.ones(self.input_dim)

    def per_pair_quota(self, R=None):
        """How many paths each pair samples; R caps the total, round-robin.
        Raises QuotaError when R is below the number of pairs."""
        quotas = [min(self.p_max, len(self.candidates[k])) for k in self.pair_order]
        if R is None or R >= sum(quotas):
            return quotas
        if R < self.num_pairs:
            raise QuotaError(f"paths_per_state {R} cannot give every pair a path "
                             f"({self.num_pairs} pairs)")
        out = [0] * self.num_pairs
        remaining = R
        level = 0
        while remaining > 0:
            level += 1
            for i in range(self.num_pairs):
                if out[i] < min(quotas[i], level) and remaining > 0:
                    out[i] += 1
                    remaining -= 1
        return out

    def selection_from_actions(self, actions):
        """actions: {pair_key: [global candidate indices]} -> selection dict."""
        choices = self._choices
        return {k: [choices[a] for a in actions[k]] for k in self.pair_order}


class _BlockLayout:
    """The per-pair logit blocks as index arrays, for whole-vector softmax.

    Per-block sums gather the blocks of each length into a (blocks, length)
    matrix and sum its rows, which adds in the same order as summing each
    block on its own. np.add.reduceat does not: it adds a block's first
    entry to the sum of the rest, which moves the last bit.
    """

    def __init__(self, block_slices, width):
        bounds = np.array(block_slices, dtype=np.intp).reshape(-1, 2)
        self.starts = bounds[:, 0]
        self.lengths = bounds[:, 1] - self.starts
        if (np.any(self.lengths < 1) or self.lengths.sum() != width
                or np.any(self.starts != np.cumsum(self.lengths) - self.lengths)):
            raise ValueError(f"block slices must tile the {width} logits in order, none empty")
        self.groups = []
        for length in sorted(set(self.lengths.tolist())):
            blocks = np.nonzero(self.lengths == length)[0]
            self.groups.append((blocks, self.starts[blocks, None] + np.arange(length)))

    def _reduce(self, values, reduce):
        out = np.empty(self.starts.size)
        for blocks, index in self.groups:
            out[blocks] = reduce(values[index], axis=1)
        return out

    def max(self, values):
        return self._reduce(values, np.max)

    def sum(self, values):
        return self._reduce(values, np.sum)

    def spread(self, per_block):
        """One value per block -> that value at every entry of the block."""
        return np.repeat(per_block, self.lengths)


class _GradientSum:
    """Per-parameter sums of sample gradients. add computes a weight
    gradient BLOCK rows (of its memory order) at a time into one small
    buffer, by a one-term matrix product (np.outer's products), and adds
    each block to its sum: the bits of adding whole outer products."""

    BLOCK = 64

    def __init__(self, policy):
        self.w = [np.zeros_like(w) for w in policy.weights]
        self.b = [np.zeros_like(b) for b in policy.biases]
        width = max(w.shape[1] if w.flags.c_contiguous else w.shape[0] for w in self.w)
        self._block = np.empty(self.BLOCK * width)

    def add(self, deltas, hs):
        """Add the gradient of weights outer(deltas[l], hs[l]), biases deltas[l]."""
        for acc, delta, h in zip(self.w, deltas, hs):
            # an F-ordered sum is the C-ordered transpose of outer(h, delta)
            rows, u, v = (acc, delta, h) if acc.flags.c_contiguous else (acc.T, h, delta)
            for start in range(0, u.size, self.BLOCK):
                part = u[start:start + self.BLOCK, None]
                block = self._block[:part.size * v.size].reshape(part.size, v.size)
                rows[start:start + part.size] += np.dot(part, v[None, :], out=block)
        for acc, delta in zip(self.b, deltas):
            acc += delta


class PolicyNetwork:
    """Feed-forward logits over candidate paths; weights in float64."""

    def __init__(self, weights, biases, block_slices):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        # Column-major: BLAS then sums W0 @ h in the order that fixed the RL
        # traces and selections; a row-major W0 moves the last bit of most units.
        self.weights[0] = np.asfortranarray(self.weights[0])
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        shapes = [w.shape for w in self.weights] + [b.shape for b in self.biases]
        widths = [self.weights[0].shape[-1], *(b.size for b in self.biases)]
        if shapes != [*zip(widths[1:], widths), *((n,) for n in widths[1:])]:
            raise ValueError(f"layer shapes do not chain: {shapes}")
        self.block_slices = list(block_slices)
        self.blocks = _BlockLayout(self.block_slices, widths[-1])

    @classmethod
    def init(cls, problem: RlProblem, hidden=(128,), seed=0):
        """Normal weights of variance 2 / (fan_in + fan_out), zero biases.

        The first layer draws P*P normals per row, at the scale of a P*P-input
        layer, and keeps columns i*P + i. So it, and the random stream of the
        later layers, are as they were when the state was one-hot over P*P
        inputs, and the RL traces and selections keep their bits.
        """
        for width in hidden:
            check_int("hidden", width)
        rng = np.random.default_rng([seed, 0xC0FFEE])
        pairs = problem.num_pairs
        dims = [problem.input_dim, *hidden, problem.output_dim]
        scale = np.sqrt(2.0 / (pairs * pairs + dims[1]))
        # rng.normal(0, scale) is 0.0 + scale * z: scale only the kept draws
        draws = np.empty(pairs * pairs)
        weights = [np.empty((dims[1], dims[0]), order="F")]
        for row in weights[0]:
            np.multiply(rng.standard_normal(out=draws)[::pairs + 1], scale, out=row)
        for fan_in, fan_out in zip(dims[1:], dims[2:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        return cls(weights, [np.zeros(n) for n in dims[1:]], problem.block_slices)

    def num_parameters(self):
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def forward(self, x):
        """Returns (logits, cache) where cache holds activations for backprop."""
        h = np.asarray(x, dtype=float)
        hs = [h]
        zs = []
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            z = W @ h + b
            zs.append(z)
            h = np.where(z > 0, z, LEAKY_SLOPE * z)
            hs.append(h)
        logits = self.weights[-1] @ h + self.biases[-1]
        return logits, (hs, zs)

    def block_probs(self, logits):
        """Per-pair softmax, each block summing to 1."""
        e = np.exp(logits - self.blocks.spread(self.blocks.max(logits)))
        return e / self.blocks.spread(self.blocks.sum(e))

    def backward(self, dlogits, cache, into=None):
        """Gradient of a scalar surrogate wrt all parameters, given dL/dlogits:
        (grads_w, grads_b): the arrays of into (a _GradientSum, a fresh one
        when None) once the gradient is added to them.
        """
        hs, zs = cache
        deltas = [dlogits]
        for layer in range(len(self.weights) - 2, -1, -1):
            delta = self.weights[layer + 1].T @ deltas[0]
            deltas.insert(0, delta * np.where(zs[layer] > 0, 1.0, LEAKY_SLOPE))
        if into is None:
            into = _GradientSum(self)
        into.add(deltas, hs)
        return into.w, into.b

    def apply_update(self, grads_w, grads_b, scale):
        """Add scale * gradient to every parameter. The gradients are scaled
        in place, so no parameter-sized temporary is allocated."""
        for g in [*grads_w, *grads_b]:
            np.multiply(g, scale, out=g)
        for W, g in zip(self.weights, grads_w):
            W += g
        for b, g in zip(self.biases, grads_b):
            b += g
        self.check_finite()

    def check_finite(self):
        """Raise DivergenceError if a parameter is NaN or infinite."""
        for W in self.weights:
            if not np.all(np.isfinite(W)):
                raise DivergenceError("policy weights diverged to non-finite values")
        for b in self.biases:
            if not np.all(np.isfinite(b)):
                raise DivergenceError("policy biases diverged to non-finite values")


class EpochPolicy:
    """The policy's work for one epoch, in which neither the policy nor its
    state changes: one forward pass and block softmax, the draw vector and
    each sampled block's first-round CDF, and the sample-independent parts
    of the surrogate gradient. Every sample of the epoch reads them.

    quotas: per_pair_quota's list. Raises DivergenceError when the softmax
    is not finite.
    """

    def __init__(self, policy: PolicyNetwork, problem: RlProblem, quotas, beta=0.0):
        logits, self.cache = policy.forward(problem.encode_state())
        self.probs = probs = policy.block_probs(logits)
        if not np.all(np.isfinite(probs)):
            raise DivergenceError(
                "policy produced non-finite action probabilities; "
                "lower the learning rate or rescale rewards")
        blocks = policy.blocks
        # A saturated softmax can underflow to fewer nonzero entries than the
        # quota; such a block draws from floored probabilities, so zero-mass
        # entries stay reachable and the quota can still be filled.
        starved = blocks.sum(probs != 0) < quotas
        floored = np.maximum(probs, PROB_FLOOR)
        floored /= blocks.spread(blocks.sum(floored))
        draw = np.where(blocks.spread(starved), floored, probs)
        self.pair_order = problem.pair_order
        self.sampler = _BlockSampler(draw, problem.block_slices, quotas)
        # every sample picks quota paths per pair, so picks * probs is fixed
        self.expected = blocks.spread(quotas) * probs
        self.entropy_term = _entropy_dlogits(blocks, probs, beta) if beta > 0 else None

    def sample(self, rng):
        """{pair_key: sorted global indices}, one draw of rng's stream."""
        return dict(zip(self.pair_order, map(sorted, self.sampler.sample(rng))))

    def dlogits(self, actions, advantage):
        """dL/dlogits of one sample's actions at this epoch's policy."""
        return _sample_dlogits(_chosen(self, actions), self.expected, advantage,
                               self.entropy_term)


class _BlockSampler:
    """Samples every block of a draw vector without replacement, each block
    consuming rng as rng.choice(n, r, replace=False, p=p) would.

    Generator.choice, per block: each round draws one uniform per missing
    pick, zeroes the entries already found, inverts the renormalized
    cumulative sum and keeps the first occurrence of each new index. Zeroed
    entries cannot be drawn again, since their cdf step is empty. Here the
    first round's cdf is formed once, and a sample takes its uniforms in
    stream order from pooled rng.random calls, each sized to the remaining
    minimum need (the rounds still owed): rng.random(n) yields the doubles
    of n single draws, and nothing is drawn that a block does not use.
    """

    def __init__(self, draw, block_slices, quotas):
        self._fixed = []  # per block: its indices when it takes them all, else None
        self._sampled = []  # (block, start, r, first-round cdf, draw list)
        for i, ((start, end), r) in enumerate(zip(block_slices, quotas)):
            if r >= end - start:
                self._fixed.append(list(range(start, end)))
            else:
                p = draw[start:end].tolist()
                self._fixed.append(None)
                self._sampled.append((i, start, r, _cdf(p), p))
        self._need = sum(r for _, _, r, _, _ in self._sampled)

    def sample(self, rng):
        """Per block, its global indices in the order Generator.choice
        returns them."""
        picks = self._fixed.copy()
        need = self._need  # first-round uniforms of the blocks not begun
        pool = rng.random(need).tolist() if need else []
        at = 0
        for i, start, r, cdf, p in self._sampled:
            need -= r
            found = []
            while True:
                missing = r - len(found)
                if at + missing > len(pool):
                    pool = pool[at:] + rng.random(at + missing - len(pool) + need).tolist()
                    at = 0
                for u in pool[at:at + missing]:
                    j = bisect_right(cdf, u)
                    if j not in found:
                        found.append(j)
                at += missing
                if len(found) == r:
                    break
                rest = p.copy()
                for j in found:
                    rest[j] = 0.0
                cdf = _cdf(rest)
            picks[i] = [start + j for j in found]
        return picks


def _cdf(p):
    """The normalized cumulative sum of a list of floats, as Generator.choice
    forms it (a running sum, then one division by the total)."""
    cdf = list(accumulate(p))
    total = cdf[-1]
    return [c / total for c in cdf]


def sample_action(policy: PolicyNetwork, problem: RlProblem, rng, R=None):
    """Sample per-pair paths without replacement under the factorized policy.

    Returns (actions, probs, cache) where actions maps pair_key to global
    logit indices. The log-probability uses the factorized approximation
    (independent draws, no renormalization). Each block consumes rng as
    rng.choice(n, r, replace=False, p=p) would. One EpochPolicy sample;
    train builds the EpochPolicy once per epoch instead.
    """
    epoch = EpochPolicy(policy, problem, problem.per_pair_quota(R))
    return epoch.sample(rng), epoch.probs, epoch.cache


def _log_probs(probs):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(probs > 0, np.log(probs), 0.0)


def _chosen(problem, actions):
    return [a for k in problem.pair_order for a in actions[k]]


def _entropy_dlogits(blocks, probs, beta):
    """dL/dlogits of the entropy bonus beta * H, per pair block."""
    logp = _log_probs(probs)
    entropy = -blocks.sum(probs * logp)
    return beta * (-probs * (logp + blocks.spread(entropy)))


def _sample_dlogits(chosen, expected, advantage, entropy_term):
    """(counts of chosen - expected) * advantage + entropy_term (None: 0)."""
    d = np.bincount(chosen, minlength=expected.size) - expected
    d *= advantage
    if entropy_term is not None:
        d += entropy_term
    return d


def surrogate_value(policy, problem, actions, advantage, beta):
    """L = sum_chosen log pi(a) * advantage + beta * H, for gradient checking."""
    logits, _ = policy.forward(problem.encode_state())
    probs = policy.block_probs(logits)
    total = np.sum(np.log(probs[_chosen(problem, actions)])) * advantage
    if beta > 0:
        total += beta * -np.sum(probs * _log_probs(probs))
    return float(total)


def _check_fits(policy: PolicyNetwork, problem: RlProblem):
    """InputError unless policy's logit blocks are problem's: a policy made
    for another workload would score the wrong pairs' paths."""
    if policy.block_slices != problem.block_slices:
        raise InputError(
            f"the policy's logit blocks are not the problem's: {len(policy.block_slices)} "
            f"blocks over {policy.blocks.lengths.sum()} paths, against {problem.num_pairs} "
            f"over {problem.output_dim}")


def train(policy: PolicyNetwork, problem: RlProblem, config: TrainConfig, environment):
    """REINFORCE loop; mutates the policy in place.

    environment(selection) -> W-EGR reward. Returns (policy, reward_trace,
    baseline) with one mean-reward entry per epoch, and baseline the mean of
    every reward seen (their running sum over their count), or None when no
    epoch ran. Raises
    InputError before the first epoch when the policy was made for other
    logit blocks, and QuotaError when config.paths_per_state is below the
    number of pairs.
    """
    _check_fits(policy, problem)
    # a loaded policy can hold non-finite weights; name them before any reward
    policy.check_finite()
    quotas = problem.per_pair_quota(config.paths_per_state)
    total, count = 0.0, 0  # every reward so far; the baseline is their mean
    trace = []
    # The gradient sums live for the whole run: allocating and freeing large
    # arrays per epoch lets the allocator's reuse of those blocks, and so
    # the peak memory, depend on unrelated small allocations.
    grads = _GradientSum(policy)
    for epoch in range(config.epochs):
        for acc in grads.w + grads.b:
            acc.fill(0.0)
        current = EpochPolicy(policy, problem, quotas, config.entropy_beta)
        rewards = []
        for b_idx in range(config.batch_size):
            actions = current.sample(np.random.default_rng([config.seed, epoch, b_idx]))
            reward = environment(problem.selection_from_actions(actions))
            total += reward
            count += 1
            advantage = reward - total / count
            policy.backward(current.dlogits(actions, advantage), current.cache, into=grads)
            rewards.append(reward)
        policy.apply_update(grads.w, grads.b, config.lr_at(epoch))
        trace.append(float(np.mean(rewards)))
    return policy, trace, total / count if count else None


def cached_reward(compiler):
    """Reward callback for train: a selection's W-EGR under an LpCompiler,
    solved once per set of pool ids; `.cache` holds one entry per LP.

    The policy's picks within a pair come sorted and share one strategy, so
    the sorted ids name a selection as its ordered picks would.
    """
    cache = {}

    def environment(selection):
        ids = compiler.column_ids(selection)
        key = np.sort(ids).tobytes()
        if key not in cache:
            cache[key] = allocation_lp.wegr_of_selection(compiler, ids)
        return cache[key]

    environment.cache = cache
    return environment


def greedy_selection(policy: PolicyNetwork, problem: RlProblem):
    """Inference: per pair, take the top-p_max paths by probability.
    Raises DivergenceError on a policy with a non-finite parameter."""
    _check_fits(policy, problem)
    policy.check_finite()
    logits, _ = policy.forward(problem.encode_state())
    probs = policy.block_probs(logits)
    actions = {}
    for i, k in enumerate(problem.pair_order):
        start, end = problem.block_slices[i]
        r = min(problem.p_max, end - start)
        block = probs[start:end]
        # stable ordering: probability descending, index ascending
        order = sorted(range(end - start), key=lambda j: (-block[j], j))
        actions[k] = [start + j for j in sorted(order[:r])]
    return problem.selection_from_actions(actions)


def gradient_check(policy: PolicyNetwork, problem: RlProblem, actions,
                   advantage: float, beta: float, step: float = 1e-5) -> float:
    """Max deviation between the gradient train applies (EpochPolicy.dlogits
    of an epoch whose quotas are the actions' picks, then backward) and
    central differences of surrogate_value, relative to the largest
    finite-difference component.

    Guarded to small policies (<= 1e3 parameters); intended as a test gate.
    """
    if policy.num_parameters() > 1000:
        raise ValueError("gradient_check is limited to policies with <= 1000 parameters")
    current = EpochPolicy(policy, problem, [len(actions[k]) for k in problem.pair_order], beta)
    grads_w, grads_b = policy.backward(current.dlogits(actions, advantage), current.cache)

    analytic = np.concatenate([g.ravel() for g in [*grads_w, *grads_b]])
    fd = np.empty_like(analytic)
    idx = 0
    # perturb in place by index: ravel() of a column-major W0 is a copy
    for arr in policy.weights + policy.biases:
        for j in np.ndindex(arr.shape):
            orig = arr[j]
            arr[j] = orig + step
            up = surrogate_value(policy, problem, actions, advantage, beta)
            arr[j] = orig - step
            down = surrogate_value(policy, problem, actions, advantage, beta)
            arr[j] = orig
            fd[idx] = (up - down) / (2.0 * step)
            idx += 1
    scale = max(np.max(np.abs(fd)), 1e-8)
    return float(np.max(np.abs(analytic - fd)) / scale)


# Checkpoint format (little-endian): magic "QVPNPOL2", uint32 array count,
# then per array uint32 ndim, uint32 dims..., float64 payload (row-major).
# Arrays are W0, b0, W1, b1, ... followed by one extra array holding the
# block slices as a flat (start, end) int-valued float array. With P block
# slices, W0 is P columns wide.
_MAGIC = b"QVPNPOL2"


def save_policy(policy: PolicyNetwork) -> bytes:
    arrays = []
    for W, b in zip(policy.weights, policy.biases):
        arrays.extend([W, b])
    arrays.append(np.array([v for se in policy.block_slices for v in se], dtype=float))
    out = [_MAGIC, struct.pack("<I", len(arrays))]
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype="<f8")
        out.append(struct.pack("<I", a.ndim))
        out.append(struct.pack(f"<{a.ndim}I", *a.shape))
        out.append(a.tobytes())
    return b"".join(out)


def load_policy(blob: bytes) -> PolicyNetwork:
    if blob[:8] != _MAGIC:
        raise ValueError("not a policy checkpoint (bad magic)")
    offset = 8
    arrays = []
    try:
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        for _ in range(count):
            (ndim,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            n = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
            offset += 8 * n
            arrays.append(arr.astype(float))
        if offset != len(blob):
            raise ValueError(f"{len(blob) - offset} bytes after the last array")
        if len(arrays) < 3 or len(arrays) % 2 == 0:
            raise ValueError("unexpected array count")
        block_slices = [(int(start), int(end)) for start, end in arrays[-1].reshape(-1, 2)]
        weights = arrays[:-1:2]
        width = len(block_slices)
        if weights[0].shape[1:] != (width,):
            raise ValueError(f"first layer {weights[0].shape} is not {width} inputs wide")
        return PolicyNetwork(weights, arrays[1:-1:2], block_slices)
    except (struct.error, ValueError) as exc:
        raise ValueError(f"corrupt checkpoint: {exc}") from None
