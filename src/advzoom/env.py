"""Oblivious reward generators.

Every environment realizes its entire reward table before round 1: the
reward of arm x at round t is a pure function of (seed, t, x), with the arm
quantized to a 2**-40 grid so the counter-based noise is well defined on the
continuum.  Replaying any (t, x) in any order returns the same bits, which
is what lets regret be computed exactly by replay.

Generators provided: stochastic instances over single-peaked mean functions,
the combined adversarial instance (rounds pre-assigned to one of M stochastic
instances with disjoint peak regions and baseline rewards), and posted-price
dynamic pricing with per-round private values drawn from built-in value
distributions.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rng import (ROUND_BLOCK, TOP53, _mix, round_keys, splitmix64,
                  stream_key, uniform)

QUANT_BITS = 40  # arm quantization for the noise counter
NOISE_KINDS = ("bernoulli", "none", "gauss")

_DIM_SALT = np.uint64(0xA5A5A5A5A5A5A5A5)


def _is_number(v) -> bool:
    """A finite int or float that converts to a float, and not a bool."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _interval(v, where: str):
    """v, which must be two numbers lo < hi, as a list or a tuple."""
    if not (isinstance(v, (tuple, list)) and len(v) == 2
            and all(map(_is_number, v)) and v[0] < v[1]):
        raise ValueError(f"{where} must be two numbers lo < hi, got {v!r}")
    return v


def arm_counter(xs) -> np.ndarray:
    """Quantize arms to the 2**-40 grid and fold dimensions into one counter."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    q = np.round(xs * float(1 << QUANT_BITS)).astype(np.uint64)
    h = q[:, 0]
    for j in range(1, q.shape[1]):
        h = splitmix64(h ^ splitmix64(q[:, j] ^ (_DIM_SALT + np.uint64(j))))
    return h


# --------------------------------------------------------------------------
# Mean functions
# --------------------------------------------------------------------------

MEAN_KINDS = ("concave", "distance_to_target", "baseline_bump", "custom_table")


@dataclass
class MeanFunction:
    """Single-peaked expected-reward shapes on [0,1]^d, range within [0,1].

    concave            b + (peak-b) * 4 s (1-s) on the support, s rescaled
    distance_to_target max(b, peak - dist_inf(x, target)) on the support
    baseline_bump      tent from b at the support edges to peak at its center
    custom_table       linear interpolation through (x, mu) points (d=1)

    Outside the support the value is the baseline b.
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in MEAN_KINDS:
            raise ValueError(f"unknown mean kind {self.kind!r}")
        p = self.params
        if self.kind == "custom_table":
            xs = np.asarray(p["xs"], dtype=np.float64)
            ys = np.asarray(p["ys"], dtype=np.float64)
            if len(xs) < 2 or not np.all(np.diff(xs) > 0):  # nan fails too
                raise ValueError("custom_table needs strictly increasing xs")
            if not (ys.min() >= 0 and ys.max() <= 1):
                raise ValueError("custom_table means outside [0,1]")
        else:
            peak, base = p["peak"], p.get("baseline", 0.0)
            if not (0.0 <= base <= peak <= 1.0):
                raise ValueError(
                    f"need 0 <= baseline <= peak <= 1, got {base}, {peak}"
                )
            _interval(p.get("support", (0.0, 1.0)), "support")

    @property
    def d(self) -> int:
        if self.kind == "distance_to_target":
            t = self.params["target"]
            return len(t) if isinstance(t, (tuple, list)) else 1
        return 1

    def support(self) -> tuple:
        return tuple(self.params.get("support", (0.0, 1.0)))

    def __call__(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        squeeze = xs.ndim == 0 or (xs.ndim == 1 and self.d > 1)
        pts = np.atleast_2d(xs) if self.d > 1 else np.atleast_1d(xs).reshape(-1, 1)
        p = self.params
        base = float(p.get("baseline", 0.0))
        if self.kind == "custom_table":
            mu = np.interp(pts[:, 0], p["xs"], p["ys"])
            return mu[0] if squeeze else mu
        lo, hi = self.support()
        x0 = pts[:, 0]
        if self.kind == "concave":
            s = (x0 - lo) / (hi - lo)
            inside = (s >= 0) & (s <= 1)
            mu = np.where(
                inside, base + (p["peak"] - base) * 4.0 * s * (1.0 - s), base
            )
        elif self.kind == "baseline_bump":
            mid, halfw = (lo + hi) / 2.0, (hi - lo) / 2.0
            bump = np.maximum(0.0, 1.0 - np.abs(x0 - mid) / halfw)
            mu = base + (p["peak"] - base) * bump
        else:  # distance_to_target
            target = np.atleast_1d(np.asarray(p["target"], dtype=np.float64))
            dist = np.max(np.abs(pts - target[None, :]), axis=1)
            inside = (x0 >= lo) & (x0 <= hi)
            mu = np.where(inside, np.maximum(base, p["peak"] - dist), base)
        return float(mu[0]) if squeeze else mu


# --------------------------------------------------------------------------
# Stochastic and combined adversarial instances
# --------------------------------------------------------------------------


def _checked_noise(noise: str) -> str:
    if noise not in NOISE_KINDS:
        raise ValueError(f"unknown noise {noise!r}")
    return noise


def _checked_scale(scale: float) -> float:
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError(
            f"noise_scale must be finite and non-negative, not {scale!r}")
    return scale


def _gauss(u, mu, scale, out):
    """Truncated Gaussian rewards from uniforms u into out, working in u:
    inverse-CDF normal, clipped back into [0,1]."""
    # scipy is imported here, its only use, so other runs never load it
    from scipy.special import ndtri

    np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
    ndtri(u, out=u)
    u *= scale
    u += mu
    return np.clip(u, 0.0, 1.0, out=out)


def _gather(par, inst, out):
    """par[:, inst] into out, gathered along out's contiguous axis (np.take
    would copy a transposed out and write the copy back)."""
    if out.flags.c_contiguous:
        return np.take(par, inst, axis=1, out=out, mode="clip")
    np.take(par.T, inst, axis=0, out=out.T, mode="clip")
    return out


def _single_reward(env, i: int, t: int, arm) -> float:
    """Reward of one arm at round t under instance i, equal to
    reward_block([t], [arm])[0, 0] bit for bit.

    A tuple arm's row of a one-arm RewardTable (means or Bernoulli
    thresholds, as Python ints that do not wrap, one per instance, and the
    arm hash as an int) is kept in env._arms; learners play one
    representative arm per node, so the dict holds at most one entry per
    node.  The round keys r_t are read ROUND_BLOCK rounds at a time from
    any t, as the block path makes them; the arm's hash then runs
    splitmix64 once on Python ints, and Bernoulli takes its integer compare.
    """
    entry = env._arms.get(arm) if isinstance(arm, tuple) else None
    if entry is None:
        table = RewardTable(env, [arm])
        par = table.par[0].tolist()
        if table.sure is not None:  # c 2^11 is 2^64 where mu = 1
            par = [p | s << 64 for p, s in zip(par, table.sure[0].tolist())]
        entry = par, None if env.noise == "none" else int(table.arm_hash[0, 0])
        if isinstance(arm, tuple):
            env._arms[arm] = entry
    par, arm_hash = entry
    if arm_hash is None:
        return par[i]
    if not 0 <= t - env._lo < len(env._r):
        env._lo = t
        env._r = round_keys(env._key, np.arange(t, t + ROUND_BLOCK)).tolist()
    h = _mix(env._r[t - env._lo] ^ arm_hash)
    if env.noise == "bernoulli":
        return 1.0 if h < par[i] else 0.0
    u = np.array((h >> 11) * 2.0 ** -53)
    return float(_gauss(u, par[i], env.noise_scale, u))


class RewardTable:
    """An environment's rewards over fixed arms, a block of rounds at a time.

    Per-arm constants (means or Bernoulli thresholds, one column per
    instance; noise-counter hashes; prices) are computed once, here, and
    per-round ones by rounds(ts); fill then writes every arm's rewards at
    any slice of ts into caller buffers.  Noise is counter_hash(key, t, q)
    = splitmix64(r_t ^ splitmix64(q)), with r_t = round_keys(key, t).
    Bernoulli hits where the hash h's top 53 bits k give u = k 2^-53 < mu,
    iff k < mu 2^53 (an exact scaling) iff k < c = ceil(mu 2^53) iff
    h < c 2^11, the threshold kept.  c 2^11 wraps to 0 at mu = 1, so sure
    marks those arms and instances, which hit every round.
    """

    def __init__(self, env, xs):
        xs = np.asarray(xs, dtype=np.float64)
        pts = np.atleast_2d(xs) if env.d > 1 else xs.reshape(-1, 1)
        self.env, self.n, self.sure = env, len(pts), None
        self.bernoulli = env.kind != "pricing" and env.noise == "bernoulli"
        if env.kind == "pricing":
            self.par = pts[:, :1]  # prices
            return
        par = np.stack([np.atleast_1d(m(pts)) for m in env.means], axis=1)
        if self.bernoulli:
            c = np.ceil(par * 2.0 ** 53).astype(np.uint64)
            par, sure = c << TOP53, c >> 53 != 0
            self.sure = sure if sure.any() else None
        self.par = par  # (n, instances)
        if env.noise != "none":
            self.arm_hash = splitmix64(arm_counter(pts))[:, None]

    def hit_values(self, T: int):
        """Each arm's reward on a hit if every in-order float sum of its
        rewards over at most T rounds is its hit count times it, else None:
        1.0 for Bernoulli noise; a pricing arm's price p if every price is
        a multiple of 2^-s with T max|p| 2^s < 2^53, so that every partial
        sum is a multiple of 2^-s below 2^53 of them, so exact."""
        if self.bernoulli:
            return np.ones(self.n)
        if self.env.kind != "pricing":
            return None
        p = self.par[:, 0]
        q = np.abs(p)  # |p| 2^s, for s = 0, 1, ...
        while T * q.max() < 2.0 ** 53:
            if (q == np.floor(q)).all():
                return p
            q = q * 2.0
        return None

    def rounds(self, ts):
        """Per-round constants of rounds ts for fill."""
        env, ts = self.env, np.asarray(ts, dtype=np.int64)
        if env.kind == "pricing":
            return env.value(ts), None
        r = None if env.noise == "none" else round_keys(env._key, ts)
        if env.schedule is None:
            return r, None
        for t in ts.min(initial=1), ts.max(initial=1):  # raise off 1..T
            env.instance_of_round(int(t))
        return r, env.schedule[ts - 1]

    def fill(self, rounds, out, tmp):
        """Rewards of every arm into out, float64 of shape (n, rounds), with
        tmp a uint64 scratch of that shape; either may be a transposed view,
        and the bits written are the same in any layout.  On a Bernoulli
        or pricing env a boolean out gets the hits instead, and tmp then
        stacks two such scratches, shape (2, n, rounds)."""
        env, par, (r, inst) = self.env, self.par, rounds
        if env.kind == "pricing":
            np.less_equal(par, r, out=out)
            if out.dtype != bool:
                out *= par
            return out
        if env.noise == "none":
            if inst is None:
                np.copyto(out, par)
                return out
            return _gather(par, inst, out)
        h, s = tmp if out.dtype == bool else (out.view(np.uint64), tmp)
        # numpy copies the broadcast r and arm hashes through its ufunc
        # buffers (8192 elements) when h's contiguous rows are shorter: 40
        # us for 2^16 cells in rows of 513 or 1089, 12 us unbuffered
        with np.errstate():  # which restores the buffer size on exit
            np.setbufsize(16)
            np.bitwise_xor(r, self.arm_hash, out=h)
        splitmix64(h, out=h, scratch=s)
        if self.bernoulli:
            if inst is not None:  # each round's instance, from contiguous rows
                par = _gather(par, inst, s)
            np.less(h, par, out=out)
            if self.sure is not None:
                sure = self.sure if inst is None else self.sure[:, inst]
                np.logical_or(out, sure, out=out)
            return out
        # Gaussian: u goes to s (numpy would copy a cast onto h's own
        # memory), which frees out for the means
        u = np.multiply(np.right_shift(h, TOP53, out=h), 2.0 ** -53,
                        out=s.view(np.float64))
        if inst is not None:
            par = _gather(par, inst, out)
        return _gauss(u, par, env.noise_scale, out)

    def block(self, ts):
        """Rewards of every arm at rounds ts, shape (n, len(ts))."""
        shape = (self.n, len(ts))
        return self.fill(self.rounds(ts), np.empty(shape),
                         np.empty(shape, dtype=np.uint64))


class CombinedEnv:
    """Rounds pre-assigned to one of M stochastic instances.

    The assignment (schedule) is fixed before round 1 and can be arbitrary;
    validation of the structural assumptions lives in make_combined.  No
    schedule means instance 0 on every round: a stochastic instance.
    """

    kind = "combined"

    def __init__(self, means: list, schedule: Optional[np.ndarray] = None,
                 noise: str = "bernoulli", noise_scale: float = 0.1,
                 seed: int = 0):
        self.means = means
        self.schedule = (None if schedule is None
                         else np.asarray(schedule, dtype=np.int64))
        self.noise = _checked_noise(noise)
        self.noise_scale = _checked_scale(noise_scale)
        self.d = means[0].d
        self._key = stream_key(seed, "env.noise")
        self._arms = {}  # tuple arm -> RewardTable row, see _single_reward
        self._lo, self._r = 0, []  # round keys of rounds _lo, _lo + 1, ...

    def instance_of_round(self, t: int) -> int:
        if self.schedule is None:
            return 0
        if not 0 < t <= len(self.schedule):
            raise ValueError(
                f"round {t} is outside 1..T, T={len(self.schedule)}")
        return int(self.schedule[t - 1])

    def mean_at(self, t: int, xs) -> np.ndarray:
        return self.means[self.instance_of_round(t)](xs)

    def reward(self, t: int, arm) -> float:
        return _single_reward(self, self.instance_of_round(t), t, arm)

    def reward_block(self, ts, xs) -> np.ndarray:
        """Rewards for arms x rows, rounds t columns: shape (len(xs), len(ts))."""
        return RewardTable(self, xs).block(ts)


class StochasticEnv(CombinedEnv):
    """I.i.d. rewards: g_t(x) has mean mu(x) every round, a combined
    instance with one instance and no schedule."""

    kind = "stochastic"

    def __init__(self, mean: MeanFunction, noise: str = "bernoulli",
                 noise_scale: float = 0.1, seed: int = 0):
        super().__init__([mean], None, noise, noise_scale, seed)

    # own entries: perfbench wraps vars(cls)[name] for each of ENV_CLASSES
    reward = CombinedEnv.reward
    reward_block = CombinedEnv.reward_block


MIN_SPREAD = 1.0 / 3.0


def phase_schedule(phases: Sequence) -> np.ndarray:
    """Expand [(instance, length), ...] into a per-round instance array."""
    parts = [np.full(int(n), int(i), dtype=np.int64) for i, n in phases]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def make_combined(means: list, schedule, subsets: list, baselines: list,
                  T: int, noise: str = "bernoulli", noise_scale: float = 0.1,
                  seed: int = 0) -> CombinedEnv:
    """Validated combined instance of the mean functions `means`.

    schedule is a list of (instance, length) phases or an array of
    per-round instances.  Rejects, naming the failing assumption:
    overlapping subsets, spread below 1/3, off-subset means not exactly the
    baseline, means above baseline outside all subsets, or a schedule that
    does not cover [T].  The means are probed on 2049 points of [0, 1].
    """
    M = len(means)
    if not (len(subsets) == len(baselines) == M):
        raise ValueError("need one subset and one baseline per instance")
    for i, mean in enumerate(means):  # subsets are intervals of [0, 1]
        if mean.d != 1:
            raise ValueError(f"instance {i} has d={mean.d}, not 1")
    if isinstance(schedule, (list, tuple)):  # phases: no huge array first
        lengths = [int(n) for _, n in schedule]
        if min(lengths, default=0) < 0 or sum(lengths) != T:
            raise ValueError(f"schedule total on [T] fails: phase lengths "
                             f"{lengths} for T={T}")
        schedule = phase_schedule(schedule)
    schedule = np.asarray(schedule, dtype=np.int64)
    if len(schedule) != T:
        raise ValueError(
            f"schedule total on [T] fails: covers {len(schedule)} of {T} rounds"
        )
    if schedule.min() < 0 or schedule.max() >= M:
        raise ValueError("schedule references an unknown instance")

    ivals = [tuple(map(float, s)) for s in subsets]
    for i in range(M):
        for j in range(i + 1, M):
            lo_i, hi_i = ivals[i]
            lo_j, hi_j = ivals[j]
            if max(lo_i, lo_j) < min(hi_i, hi_j):
                raise ValueError(
                    f"subsets disjoint fails: S_{i}={ivals[i]} overlaps "
                    f"S_{j}={ivals[j]}"
                )

    grid = np.linspace(0.0, 1.0, 2049)
    inside = [(grid >= lo) & (grid <= hi) for lo, hi in ivals]
    outside_all = ~np.any(inside, axis=0)
    tol = 1e-9
    for i, mean in enumerate(means):
        mu = np.atleast_1d(mean(grid))
        b = float(baselines[i])
        spread = float(mu[inside[i]].max()) - b if inside[i].any() else 0.0
        if spread < MIN_SPREAD - tol:
            raise ValueError(
                f"spread >= 1/3 fails for instance {i}: spread={spread:.4g}"
            )
        for j in range(M):
            if j != i and inside[j].any():
                off = mu[inside[j]]
                if np.max(np.abs(off - b)) > tol:
                    raise ValueError(
                        f"baseline fails: instance {i} is not exactly "
                        f"b_{i}={b} on S_{j}"
                    )
        if inside[i].any() and mu[inside[i]].min() < b - tol:
            raise ValueError(f"baseline fails: instance {i} below b_{i} on S_{i}")
        if outside_all.any() and mu[outside_all].max() > b + tol:
            raise ValueError(
                f"baseline fails: instance {i} above b_{i} outside all subsets"
            )
    return CombinedEnv(means, schedule, noise=noise, noise_scale=noise_scale,
                       seed=seed)


# --------------------------------------------------------------------------
# Dynamic pricing
# --------------------------------------------------------------------------


def _value_law(kind: str, params: dict):
    """(inverse CDF, mean revenue x Pr[v >= x]) of a private-value
    distribution, its parameters checked and parsed once.  The inverse CDF
    maps an array u elementwise.

    uniform: values on [a, b].

    target: the single-peaked revenue family mu(x) = a - |x - b| right of
    the peak.  The literal CDF 1 - a/x + |x-b|/x decreases below the peak,
    so no distribution realizes the left branch; the distribution used here
    keeps the formula exactly on [b, hi] (revenue a+b-x there, peak revenue
    a at price b) and is completed monotonically with an atom of mass
    (b-a)/b at value 0 and an atom at the support end hi (revenue a*x/b
    below the peak).  Parameter combinations that break monotonicity even
    on [b, hi] are rejected; `support`, if given, is [b, hi] (hi defaults
    to min(1, a+b)).
    """
    if kind == "uniform":
        _take(params, {"a", "b"}, "env.values")
        a = float(_number(params, "a", 0.0, "env.values"))
        b = float(_number(params, "b", 1.0, "env.values"))
        if not (0.0 <= a <= b <= 1.0):
            raise ValueError(f"non-monotone CDF: uniform needs 0 <= a <= b <= 1")

        def revenue(xs):
            if b == a:
                return xs * (xs <= a)
            surv = np.clip((b - xs) / (b - a), 0.0, 1.0)
            return xs * np.where(xs <= a, 1.0, surv)
        return (lambda u: a + u * (b - a)), revenue
    if kind != "target":
        raise ValueError(f"unknown value distribution {kind!r}")
    _take(params, {"a", "b", "support"}, "env.values")
    a = float(_number(params, "a", None, "env.values"))
    b = float(_number(params, "b", None, "env.values"))
    lo, hi = (_interval(params["support"], "env.values.support")
              if "support" in params else (b, min(1.0, a + b)))
    if lo != b:
        raise ValueError(f"env.values.support must be [b, hi] with b={b}, "
                         f"got {params['support']!r}")
    if not (0.0 < a <= b <= 1.0):
        raise ValueError(f"non-monotone CDF: need 0 < a <= b <= 1, got a={a} b={b}")
    if hi > a + b + 1e-12 or hi > 1.0:
        raise ValueError(
            f"non-monotone CDF: support end {hi} outside [b, a+b] = [{b}, {a + b}]"
        )
    m0, f_hi, hi = (b - a) / b, 2.0 - (a + b) / hi, float(hi)

    def value(u):
        mid = (a + b) / (2.0 - np.minimum(u, f_hi))
        return np.where(u < m0, 0.0, np.where(u <= f_hi, mid, hi))
    return value, lambda xs: np.where(
        xs <= b, xs * a / b, np.where(xs <= hi, a + b - xs, 0.0))


class PricingEnv:
    """Posted-price environment: reward x * 1{x <= v_t}.

    Private values v_t = value(t) are drawn from (seed, t) alone, and reward
    reads them ROUND_BLOCK rounds at a time from any t; every realization
    satisfies g_t(x) - g_t(x') <= x - x' for x > x' by construction.
    """

    kind = "pricing"
    d = 1

    def __init__(self, value_kind: str = "uniform",
                 value_params: Optional[dict] = None, seed: int = 0):
        self._value_of, self._revenue = _value_law(value_kind,
                                                   value_params or {})
        self._key = stream_key(seed, "env.values")
        self._lo, self._values = 0, []  # values of rounds _lo, _lo + 1, ...

    def value(self, t) -> np.ndarray:
        """Private values of the rounds t, elementwise."""
        return self._value_of(uniform(self._key, np.asarray(t, dtype=np.int64)))

    def mean_at(self, t: int, xs) -> np.ndarray:
        """Analytic mean revenue x * Pr[v >= x]."""
        return self._revenue(
            np.atleast_1d(np.asarray(xs, dtype=np.float64)).reshape(-1))

    def reward(self, t: int, arm) -> float:
        x = float(arm[0] if isinstance(arm, tuple) else np.ravel(arm)[0])
        if not 0 <= t - self._lo < len(self._values):
            self._lo = t
            self._values = self.value(np.arange(t, t + ROUND_BLOCK)).tolist()
        return x if x <= self._values[t - self._lo] else 0.0

    def reward_block(self, ts, xs) -> np.ndarray:
        return RewardTable(self, xs).block(ts)


# --------------------------------------------------------------------------
# Shared operations
# --------------------------------------------------------------------------


@dataclass
class AuditReport:
    mode: str  # "expected" or "one_sided"
    n_pairs: int
    n_rounds: int
    flagged: list

    @property
    def ok(self) -> bool:
        return not self.flagged


def lipschitz_audit(env, T: int, pairs: int = 200, seed: int = 0,
                    n_rounds: int = 128) -> AuditReport:
    """Sample-based reward-smoothness audit over rounds 1..T.

    For mean-based environments: estimate E[g_t(x) - g_t(y)] by averaging
    over sampled rounds and flag pairs where the estimate exceeds
    dist(x, y) + 3 standard errors.  For pricing: check the one-sided
    per-realization condition g_t(x) - g_t(x') <= x - x' exactly.
    """
    key = stream_key(seed, "audit")
    ts = 1 + (uniform(key, np.arange(n_rounds), 1) * T).astype(np.int64)
    d = env.d
    xs = uniform(key, np.arange(pairs * d), 2).reshape(pairs, d)
    ys = uniform(key, np.arange(pairs * d), 3).reshape(pairs, d)
    flagged = []
    if env.kind == "pricing":
        hi = np.maximum(xs[:, 0], ys[:, 0])
        lo = np.minimum(xs[:, 0], ys[:, 0])
        r_hi = env.reward_block(ts, hi.reshape(-1, 1))
        r_lo = env.reward_block(ts, lo.reshape(-1, 1))
        bad = r_hi - r_lo > (hi - lo)[:, None] + 1e-12
        for i in np.flatnonzero(bad.any(axis=1)):
            flagged.append({"x": float(hi[i]), "y": float(lo[i]),
                            "mode": "one_sided"})
        return AuditReport("one_sided", pairs, n_rounds, flagged)

    gx = env.reward_block(ts, xs)
    gy = env.reward_block(ts, ys)
    diff = gx - gy
    est = diff.mean(axis=1)
    se = diff.std(axis=1, ddof=1) / math.sqrt(n_rounds)
    dists = np.max(np.abs(xs - ys), axis=1)
    for i in np.flatnonzero(est > dists + 3.0 * se + 1e-12):
        flagged.append({
            "x": xs[i].tolist(), "y": ys[i].tolist(),
            "estimate": float(est[i]), "dist": float(dists[i]),
            "stderr": float(se[i]),
        })
    return AuditReport("expected", pairs, n_rounds, flagged)


# --------------------------------------------------------------------------
# Declarative construction (experiment configs)
# --------------------------------------------------------------------------


def _take(spec: dict, allowed: set, where: str) -> None:
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be an object, got {spec!r}")
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")


def _checked_number(v, where: str):
    if not _is_number(v):
        raise ValueError(f"{where} must be a number, got {v!r}")
    return v


def _number(spec: dict, key: str, default, where: str):
    """spec[key], or default when absent, which must be a finite number."""
    return _checked_number(spec.get(key, default), f"{where}.{key}")


def _int_list(v, n=None) -> bool:
    """Whether v is a list of ints (bools excluded), of length n if given."""
    return (isinstance(v, list) and all(type(x) is int for x in v)
            and n in (None, len(v)))


def _mean_from_spec(spec: dict, where: str = "env") -> MeanFunction:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "custom_table":
        _take(spec, {"kind", "points", "path"}, where)
        if ("path" in spec) == ("points" in spec):
            raise ValueError(f"{where} takes points or path, one of the two")
        if "path" in spec:
            if not isinstance(spec["path"], str):
                raise ValueError(f"{where}.path must be a string, "
                                 f"got {spec['path']!r}")
            pts = []
            with open(spec["path"]) as f:
                rows = csv.reader(f)
                for row in filter(None, rows):
                    try:
                        x, y = map(float, row)
                    except ValueError:
                        raise ValueError(
                            f"{spec['path']}: line {rows.line_num} must be "
                            f"x,mu (two numbers), got {','.join(row)!r}"
                        ) from None
                    pts.append((x, y))
        else:
            pts = spec["points"]
            if not (isinstance(pts, list) and all(
                    isinstance(p, list) and len(p) == 2
                    and all(map(_is_number, p)) for p in pts)):
                raise ValueError(f"{where}.points must be a list of [x, mu] "
                                 f"number pairs, got {pts!r}")
        xs = [float(p[0]) for p in pts]
        ys = [float(p[1]) for p in pts]
        return MeanFunction("custom_table", {"xs": xs, "ys": ys})
    _take(spec, {"kind", "peak", "baseline", "support"}
          | ({"target"} if kind == "distance_to_target" else set()), where)
    params = {}
    if kind == "distance_to_target":
        target = params["target"] = spec.get("target", 0.6180339887498949)
        if not (_is_number(target) or isinstance(target, list) and target
                and all(map(_is_number, target))):
            raise ValueError(f"{where}.target must be a number or a list of "
                             f"numbers, got {target!r}")
        params["peak"] = _number(spec, "peak", 0.8, where)
        params["baseline"] = _number(spec, "baseline", 0.0, where)
    elif kind in ("concave", "baseline_bump"):
        params["peak"] = _number(spec, "peak", 0.9, where)
        params["baseline"] = _number(spec, "baseline", 0.1, where)
    else:
        raise ValueError(f"unknown environment kind {kind!r} in {where}")
    if "support" in spec:
        params["support"] = spec["support"]
    return MeanFunction(kind, params)


def env_from_spec(spec: dict, T: int, seed: int):
    """Build an environment from a declarative config subtree."""
    kind = spec.get("kind")
    if kind is None:
        raise ValueError("environment spec needs a 'kind'")
    if kind == "pricing":
        _take(spec, {"kind", "values"}, "env")
        values = spec.get("values", {"kind": "uniform"})
        if not isinstance(values, dict):  # _value_law checks each law's keys
            raise ValueError(f"env.values must be an object, got {values!r}")
        params = {k: v for k, v in values.items() if k != "kind"}
        return PricingEnv(values.get("kind", "uniform"), params, seed=seed)
    noise = _checked_noise(spec.get("noise", "bernoulli"))
    if "noise_scale" in spec and noise != "gauss":
        raise ValueError(f"noise_scale needs \"noise\": \"gauss\", "
                         f"not noise {noise!r}")
    noise_scale = float(_number(spec, "noise_scale", 0.1, "env"))
    if kind == "combined":
        _take(spec, {"kind", "instances", "subsets", "baselines", "schedule",
                     "noise", "noise_scale"}, "env")
        for key in ("instances", "subsets", "baselines"):
            if not isinstance(spec.get(key), list):
                raise ValueError(f"a combined env needs env.{key}, a list, "
                                 f"got {spec.get(key)!r}")
        means = [_mean_from_spec(s, f"env.instances[{i}]")
                 for i, s in enumerate(spec["instances"])]
        subsets = [_interval(s, f"env.subsets[{i}]")
                   for i, s in enumerate(spec["subsets"])]
        baselines = [_checked_number(b, f"env.baselines[{i}]")
                     for i, b in enumerate(spec["baselines"])]
        sched = spec.get("schedule", {})
        _take(sched, {"phases", "per_round"}, "env.schedule")
        if len(sched) > 1:
            raise ValueError("env.schedule takes phases or per_round, not both")
        phases = sched.get("phases", [])
        if not (isinstance(phases, list) and all(_int_list(p, 2)
                                                 for p in phases)):
            raise ValueError(f"env.schedule.phases must be a list of "
                             f"[instance, length] int pairs, got {phases!r}")
        if not _int_list(sched.get("per_round", [])):
            raise ValueError(f"env.schedule.per_round must be a list of ints, "
                             f"got {sched['per_round']!r}")
        schedule = sched.get("phases")
        if "per_round" in sched:  # an array, so it is never read as phases
            schedule = np.asarray(sched["per_round"], dtype=np.int64)
        elif schedule is None:
            # default: equal consecutive phases
            M = len(means)
            bounds = np.linspace(0, T, M + 1).astype(int)
            schedule = [(i, bounds[i + 1] - bounds[i]) for i in range(M)]
        return make_combined(means, schedule, subsets, baselines, T=T,
                             noise=noise, noise_scale=noise_scale, seed=seed)
    mean = _mean_from_spec({k: v for k, v in spec.items()
                            if k not in ("noise", "noise_scale")})
    return StochasticEnv(mean, noise=noise, noise_scale=noise_scale, seed=seed)
