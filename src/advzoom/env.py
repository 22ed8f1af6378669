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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rng import splitmix64, stream_key, uniform

QUANT_BITS = 40  # arm quantization for the noise counter
NOISE_KINDS = ("bernoulli", "none", "gauss")

_DIM_SALT = np.uint64(0xA5A5A5A5A5A5A5A5)


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
            if len(xs) < 2 or np.any(np.diff(xs) <= 0):
                raise ValueError("custom_table needs strictly increasing xs")
            if ys.min() < 0 or ys.max() > 1:
                raise ValueError("custom_table means outside [0,1]")
        else:
            peak, base = p["peak"], p.get("baseline", 0.0)
            if not (0.0 <= base <= peak <= 1.0):
                raise ValueError(
                    f"need 0 <= baseline <= peak <= 1, got {base}, {peak}"
                )

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
# Stochastic instances
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


def _realize(mu: np.ndarray, u: np.ndarray, noise: str, scale: float):
    if noise == "bernoulli":
        return (u < mu).astype(np.float64)
    if noise == "none":
        return np.broadcast_to(mu, u.shape).astype(np.float64)
    # truncated gaussian: inverse-CDF normal, clipped back into [0,1];
    # scipy is imported here, its only use, so other runs never load it
    from scipy.special import ndtri

    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    return np.clip(mu + scale * z, 0.0, 1.0)


def _single_reward(env, means, i: int, t: int, arm) -> float:
    """Reward of one arm at round t under instance means[i].

    Each tuple arm's means (one per instance) and noise counter are
    computed once, by the same vector functions reward_block uses, and kept
    in env._arms; learners play one representative arm per node, so the
    dict holds at most one entry per node.  The reward then costs one
    scalar uniform and equals reward_block([t], [arm])[0, 0] bit for bit.
    """
    entry = env._arms.get(arm) if isinstance(arm, tuple) else None
    if entry is None:
        xs = np.asarray(arm)
        entry = ([float(np.atleast_1d(m(xs))[0]) for m in means],
                 int(arm_counter(arm)[0]))
        if isinstance(arm, tuple):
            env._arms[arm] = entry
    mus, q = entry
    mu = mus[i]
    u = uniform(env._key, t, q)
    if env.noise == "bernoulli":
        return 1.0 if u < mu else 0.0
    return float(_realize(mu, u, env.noise, env.noise_scale))


class StochasticEnv:
    """I.i.d. rewards: g_t(x) has mean mu(x) every round."""

    kind = "stochastic"

    def __init__(self, mean: MeanFunction, noise: str = "bernoulli",
                 noise_scale: float = 0.1, seed: int = 0):
        self.mean = mean
        self.noise = _checked_noise(noise)
        self.noise_scale = _checked_scale(noise_scale)
        self.seed = seed
        self.d = mean.d
        self._key = stream_key(seed, "env.noise")
        self._arms = {}  # tuple arm -> (means, counter), see _single_reward

    def mean_at(self, t: int, xs) -> np.ndarray:
        return self.mean(xs)

    def reward(self, t: int, arm) -> float:
        return _single_reward(self, (self.mean,), 0, t, arm)

    def reward_block(self, ts, xs) -> np.ndarray:
        """Rewards for arms x rows, rounds t columns: shape (len(xs), len(ts))."""
        ts = np.asarray(ts, dtype=np.int64)
        mu = np.atleast_1d(self.mean(xs))
        q = arm_counter(xs)
        u = uniform(self._key, ts[None, :], q[:, None])
        return _realize(mu[:, None], u, self.noise, self.noise_scale)


# --------------------------------------------------------------------------
# Combined adversarial instances
# --------------------------------------------------------------------------


class CombinedEnv:
    """Rounds pre-assigned to one of M stochastic instances.

    The assignment (schedule) is fixed before round 1 and can be arbitrary;
    validation of the structural assumptions lives in make_combined.
    """

    kind = "combined"

    def __init__(self, means: list, schedule: np.ndarray, subsets: list,
                 baselines: list, noise: str = "bernoulli",
                 noise_scale: float = 0.1, seed: int = 0):
        self.means = means
        self.schedule = np.asarray(schedule, dtype=np.int64)
        self.subsets = subsets
        self.baselines = list(baselines)
        self.noise = _checked_noise(noise)
        self.noise_scale = _checked_scale(noise_scale)
        self.seed = seed
        self.d = means[0].d
        self.T = len(self.schedule)
        self._key = stream_key(seed, "env.noise")
        self._arms = {}  # tuple arm -> (means, counter), see _single_reward

    def instance_of_round(self, t: int) -> int:
        return int(self.schedule[t - 1])

    def mean_at(self, t: int, xs) -> np.ndarray:
        return self.means[self.instance_of_round(t)](xs)

    def frequencies(self, upto: Optional[int] = None) -> np.ndarray:
        sched = self.schedule if upto is None else self.schedule[:upto]
        return np.bincount(sched, minlength=len(self.means)) / len(sched)

    def reward(self, t: int, arm) -> float:
        i = self.instance_of_round(t)
        return _single_reward(self, self.means, i, t, arm)

    def reward_block(self, ts, xs) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.int64)
        mus = np.stack([np.atleast_1d(m(xs)) for m in self.means])  # (M, nx)
        mu = mus[self.schedule[ts - 1], :].T  # (nx, nt)
        q = arm_counter(xs)
        u = uniform(self._key, ts[None, :], q[:, None])
        return _realize(mu, u, self.noise, self.noise_scale)


MIN_SPREAD = 1.0 / 3.0


def phase_schedule(phases: Sequence, T: Optional[int] = None) -> np.ndarray:
    """Expand [(instance, length), ...] into a per-round instance array."""
    parts = [np.full(int(n), int(i), dtype=np.int64) for i, n in phases]
    out = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    if T is not None and len(out) != T:
        raise ValueError(
            f"schedule total on [T] fails: covers {len(out)} of {T} rounds"
        )
    return out


def make_combined(instances: list, schedule, subsets: list, baselines: list,
                  T: Optional[int] = None, noise: str = "bernoulli",
                  noise_scale: float = 0.1, seed: int = 0,
                  probe: int = 2048) -> CombinedEnv:
    """Validated combined instance.

    instances may be StochasticEnv or bare MeanFunction objects.  Rejects,
    naming the failing assumption: overlapping subsets, spread below 1/3,
    off-subset means not exactly the baseline, means above baseline outside
    all subsets, or a schedule that does not cover [T].
    """
    means = [inst.mean if isinstance(inst, StochasticEnv) else inst
             for inst in instances]
    M = len(means)
    if not (len(subsets) == len(baselines) == M):
        raise ValueError("need one subset and one baseline per instance")
    if isinstance(schedule, (list, tuple)) and schedule and \
            isinstance(schedule[0], (list, tuple)):
        schedule = phase_schedule(schedule, T)
    schedule = np.asarray(schedule, dtype=np.int64)
    if T is not None and len(schedule) != T:
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

    grid = np.linspace(0.0, 1.0, probe + 1)
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
    return CombinedEnv(means, schedule, ivals, baselines, noise=noise,
                       noise_scale=noise_scale, seed=seed)


# --------------------------------------------------------------------------
# Dynamic pricing
# --------------------------------------------------------------------------


def _target_params(params: dict) -> tuple:
    a = float(params["a"])
    b = float(params["b"])
    lo, hi = params.get("support", (b, min(1.0, a + b)))
    if not (0.0 < a <= b <= 1.0):
        raise ValueError(f"non-monotone CDF: need 0 < a <= b <= 1, got a={a} b={b}")
    if hi > a + b + 1e-12 or hi > 1.0 or hi < b:
        raise ValueError(
            f"non-monotone CDF: support end {hi} outside [b, a+b] = [{b}, {a + b}]"
        )
    return a, b, float(lo), float(hi)


def pricing_value_from_cdf(kind: str, params: dict, u):
    """Inverse-CDF private value for a uniform draw u (scalar or array).

    uniform: values on [a, b].

    target: the single-peaked revenue family mu(x) = a - |x - b| right of
    the peak.  The literal CDF 1 - a/x + |x-b|/x decreases below the peak,
    so no distribution realizes the left branch; the distribution used here
    keeps the formula exactly on [b, hi] (revenue a+b-x there, peak revenue
    a at price b) and is completed monotonically with an atom of mass
    (b-a)/b at value 0 and an atom at the support end hi (revenue a*x/b
    below the peak).  Parameter combinations that break monotonicity even
    on [b, hi] are rejected.
    """
    u = np.asarray(u, dtype=np.float64)
    if kind == "uniform":
        a, b = float(params.get("a", 0.0)), float(params.get("b", 1.0))
        if not (0.0 <= a <= b <= 1.0):
            raise ValueError(f"non-monotone CDF: uniform needs 0 <= a <= b <= 1")
        return a + u * (b - a)
    if kind == "target":
        a, b, _, hi = _target_params(params)
        m0 = (b - a) / b
        f_hi = 2.0 - (a + b) / hi
        mid = (a + b) / (2.0 - np.minimum(u, f_hi))
        return np.where(u < m0, 0.0, np.where(u <= f_hi, mid, hi))
    raise ValueError(f"unknown value distribution {kind!r}")


class PricingEnv:
    """Posted-price environment: reward x * 1{x <= v_t}.

    Private values v_t are materialized from the value stream before round 1;
    every realization satisfies the one-sided condition
    g_t(x) - g_t(x') <= x - x' for x > x' by construction.
    """

    kind = "pricing"
    d = 1

    def __init__(self, value_kind: str = "uniform",
                 value_params: Optional[dict] = None, seed: int = 0):
        self.value_kind = value_kind
        self.value_params = dict(value_params or {})
        if value_kind == "target":
            _target_params(self.value_params)  # validate now
        self.seed = seed
        self._key = stream_key(seed, "env.values")

    def value(self, t) -> np.ndarray:
        if not isinstance(t, int):
            t = np.asarray(t, dtype=np.int64)
        u = uniform(self._key, t)
        return pricing_value_from_cdf(self.value_kind, self.value_params, u)

    def mean_at(self, t: int, xs) -> np.ndarray:
        """Analytic mean revenue x * Pr[v >= x]."""
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64)).reshape(-1)
        if self.value_kind == "uniform":
            a = float(self.value_params.get("a", 0.0))
            b = float(self.value_params.get("b", 1.0))
            if b == a:
                surv = (xs <= a).astype(np.float64)
            else:
                surv = np.clip((b - xs) / (b - a), 0.0, 1.0)
                surv = np.where(xs <= a, 1.0, surv)
            return xs * surv
        a, b, _, hi = _target_params(self.value_params)
        mu = np.where(
            xs <= b, xs * a / b, np.where(xs <= hi, a + b - xs, 0.0)
        )
        return mu

    def reward(self, t: int, arm) -> float:
        x = float(np.atleast_1d(np.asarray(arm))[0])
        return x if x <= float(self.value(t)) else 0.0

    def reward_block(self, ts, xs) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.int64)
        xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))[:, 0]
        vs = self.value(ts)
        return np.where(xs[:, None] <= vs[None, :], xs[:, None], 0.0)


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


def lipschitz_audit(env, pairs: int = 200, seed: int = 0,
                    n_rounds: int = 128, T: Optional[int] = None) -> AuditReport:
    """Sample-based reward-smoothness audit.

    For mean-based environments: estimate E[g_t(x) - g_t(y)] by averaging
    over sampled rounds and flag pairs where the estimate exceeds
    dist(x, y) + 3 standard errors.  For pricing: check the one-sided
    per-realization condition g_t(x) - g_t(x') <= x - x' exactly.
    """
    key = stream_key(seed, "audit")
    horizon = T or getattr(env, "T", None) or 4096
    ts = 1 + (uniform(key, np.arange(n_rounds), 1) * horizon).astype(np.int64)
    d = getattr(env, "d", 1)
    xs = uniform(key, np.arange(pairs * d), 2).reshape(pairs, d)
    ys = uniform(key, np.arange(pairs * d), 3).reshape(pairs, d)
    flagged = []
    if getattr(env, "kind", "") == "pricing":
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
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")


def _mean_from_spec(spec: dict, where: str = "env") -> MeanFunction:
    kind = spec.get("kind")
    if kind == "custom_table":
        _take(spec, {"kind", "points", "path"}, where)
        if "path" in spec:
            with open(spec["path"]) as f:
                pts = [(float(r[0]), float(r[1])) for r in csv.reader(f) if r]
        else:
            pts = [(float(x), float(y)) for x, y in spec["points"]]
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return MeanFunction("custom_table", {"xs": xs, "ys": ys})
    _take(spec, {"kind", "target", "peak", "baseline", "support"}, where)
    params = {}
    if kind == "distance_to_target":
        params["target"] = spec.get("target", 0.6180339887498949)
        params["peak"] = spec.get("peak", 0.8)
        params["baseline"] = spec.get("baseline", 0.0)
    elif kind in ("concave", "baseline_bump"):
        params["peak"] = spec.get("peak", 0.9)
        params["baseline"] = spec.get("baseline", 0.1)
    else:
        raise ValueError(f"unknown environment kind {kind!r} in {where}")
    if "support" in spec:
        params["support"] = tuple(spec["support"])
    return MeanFunction(kind, params)


def env_from_spec(spec: dict, T: int, seed: int):
    """Build an environment from a declarative config subtree."""
    kind = spec.get("kind")
    if kind is None:
        raise ValueError("environment spec needs a 'kind'")
    if kind == "pricing":
        _take(spec, {"kind", "values"}, "env")
        values = dict(spec.get("values", {"kind": "uniform"}))
        vkind = values.pop("kind", "uniform")
        _take(values, {"a", "b", "support"}, "env.values")
        return PricingEnv(vkind, values, seed=seed)
    noise = _checked_noise(spec.get("noise", "bernoulli"))
    if "noise_scale" in spec and noise != "gauss":
        raise ValueError(f"noise_scale needs \"noise\": \"gauss\", "
                         f"not noise {noise!r}")
    noise_scale = float(spec.get("noise_scale", 0.1))
    if kind == "combined":
        _take(spec, {"kind", "instances", "subsets", "baselines", "schedule",
                     "noise", "noise_scale"}, "env")
        means = [_mean_from_spec(s, f"env.instances[{i}]")
                 for i, s in enumerate(spec["instances"])]
        sched = spec.get("schedule", {"phases": None})
        if "phases" in sched and sched["phases"] is not None:
            schedule = phase_schedule(sched["phases"], T)
        elif "per_round" in sched:
            schedule = np.asarray(sched["per_round"], dtype=np.int64)
        else:
            # default: equal consecutive phases
            M = len(means)
            bounds = np.linspace(0, T, M + 1).astype(int)
            schedule = phase_schedule(
                [(i, bounds[i + 1] - bounds[i]) for i in range(M)], T
            )
        return make_combined(means, schedule, spec["subsets"],
                             spec["baselines"], T=T, noise=noise,
                             noise_scale=noise_scale, seed=seed)
    mean = _mean_from_spec({k: v for k, v in spec.items()
                            if k not in ("noise", "noise_scale")})
    return StochasticEnv(mean, noise=noise, noise_scale=noise_scale, seed=seed)
