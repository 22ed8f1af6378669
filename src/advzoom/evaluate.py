"""Offline analysis of completed runs.

Everything here is a pure function of a trace and/or an environment:
regret against the best fixed grid arm (exact, by obliviousness of the
reward stream), time-averaged adversarial gaps, inclusively-near-optimal
arm sets with their covering counts and dimension fits, and the structural
invariant monitor that re-derives every confidence quantity from the
recorded probability snapshots rather than trusting the algorithm's own
accumulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .trace import Trace

MAX_EVALS = 10**7  # guard on arm-round reward evaluations
_CHUNK = 64  # grid arms per replay block
_BLOCK = 2048  # rounds per replay block: 1 MiB per float64 temporary


def grid_points(d: int, eps: float) -> np.ndarray:
    """Evaluation grid with spacing eps per axis, endpoints included.

    Points are exact quotients k/m, so nested grids (m and 10m, say) share
    points bit-for-bit and replayed rewards agree exactly.
    """
    if eps <= 0:
        raise ValueError("grid_eps must be positive")
    m = int(round(1.0 / eps))
    axis = np.arange(m + 1, dtype=np.float64) / m
    if d == 1:
        return axis.reshape(-1, 1)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def default_grid_eps(d: int) -> float:
    return 1.0 / 1024 if d == 1 else 1.0 / 64


def _replay(env, grid: np.ndarray, T: int, checkpoints=None):
    """One pass over the reward table, in blocks of _CHUNK arms x _BLOCK rounds.

    Returns (cum_best, totals) where cum_best[t-1] = max over grid arms of
    their cumulative reward through round t, and totals is (n_grid,) at T or
    (n_grid, len(checkpoints)) when checkpoint rounds are given.

    Each block's running totals are folded into its first column before the
    cumsum, so every partial sum is the same IEEE addition, in the same
    order, as one cumsum over all T rounds: the result is bit-identical and
    memory is one block whatever T is.
    """
    cum_best = np.full(T, -np.inf)
    cps = np.asarray([T] if checkpoints is None else checkpoints, dtype=int)
    totals = np.zeros((len(grid), len(cps)))
    for lo in range(0, len(grid), _CHUNK):
        arms = grid[lo : lo + _CHUNK]
        carry = None
        for t0 in range(0, T, _BLOCK):
            t1 = min(T, t0 + _BLOCK)
            rb = env.reward_block(np.arange(t0 + 1, t1 + 1), arms)
            if carry is not None:
                rb[:, 0] += carry
            cs = np.cumsum(rb, axis=1)
            best = cum_best[t0:t1]
            np.maximum(best, cs.max(axis=0), out=best)
            hit = (cps > t0) & (cps <= t1)
            totals[lo : lo + len(arms), hit] = cs[:, cps[hit] - 1 - t0]
            carry = cs[:, -1]
    return cum_best, (totals[:, 0] if checkpoints is None else totals)


# --------------------------------------------------------------------------
# Regret
# --------------------------------------------------------------------------


@dataclass
class RegretReport:
    T: int
    grid_eps: float
    n_grid: int
    regret: float
    best_arm: tuple
    best_total: float
    alg_total: float
    lipschitz_slack: float  # T * grid spacing, the approximation uncertainty
    cum_alg: np.ndarray = field(repr=False, default=None)
    cum_best: np.ndarray = field(repr=False, default=None)
    regret_curve: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "grid_eps": self.grid_eps,
            "n_grid": self.n_grid,
            "regret": self.regret,
            "best_arm": list(self.best_arm),
            "best_total": self.best_total,
            "alg_total": self.alg_total,
            "lipschitz_slack": self.lipschitz_slack,
        }


def regret(trace: Trace, env, grid_eps: Optional[float] = None,
           grid: Optional[np.ndarray] = None,
           max_evals: int = MAX_EVALS) -> RegretReport:
    """Best-fixed-grid-arm cumulative reward minus the realized one.

    The environment is replayed exactly (oblivious rewards), so the only
    approximation is the grid itself; the T * grid_eps Lipschitz slack is
    attached to the report.
    """
    T = trace.n_rounds
    d = env.d
    if grid is None:
        grid_eps = grid_eps if grid_eps is not None else default_grid_eps(d)
        grid = grid_points(d, grid_eps)
    else:
        grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
        grid_eps = grid_eps if grid_eps is not None else 0.0
    if len(grid) * T > max_evals:
        raise ValueError(
            f"grid too large: {len(grid)} arms x {T} rounds "
            f"> {max_evals} evaluations"
        )
    cum_best, totals = _replay(env, grid, T)
    cum_alg = np.cumsum(trace.rewards())
    curve = cum_best - cum_alg
    best_idx = int(np.argmax(totals))
    return RegretReport(
        T=T,
        grid_eps=float(grid_eps),
        n_grid=len(grid),
        regret=float(curve[-1]),
        best_arm=tuple(grid[best_idx]),
        best_total=float(totals[best_idx]),
        alg_total=float(cum_alg[-1]),
        lipschitz_slack=float(T * grid_eps),
        cum_alg=cum_alg,
        cum_best=cum_best,
        regret_curve=curve,
    )


# --------------------------------------------------------------------------
# Adversarial gaps and near-optimal sets
# --------------------------------------------------------------------------


def gaps_at(env, grid: np.ndarray, ts) -> np.ndarray:
    """Time-averaged gap of every grid arm at each end-time in ts.

    gap_t(x) = (max_y sum_{tau<=t} g_tau(y) - sum_{tau<=t} g_tau(x)) / t,
    with the max taken over the same grid.
    """
    ts = np.asarray(sorted(set(int(t) for t in ts)), dtype=int)
    _, totals = _replay(env, grid, int(ts.max()), checkpoints=ts)
    best = totals.max(axis=0)
    return (best[None, :] - totals) / ts[None, :]


def eps_ladder_times(eps: float, T: int) -> list:
    """End-times { t0 * 2^k } with t0 the least integer > eps^-2 / 9."""
    start = math.floor(eps**-2 / 9.0) + 1
    out = []
    t = start
    while t <= T:
        out.append(t)
        t *= 2
    return out


def eps_optimal_set(env, grid: np.ndarray, eps_ladder, d: float, n_dbl: int,
                    T: int) -> list:
    """Boolean masks of inclusively eps-optimal grid arms, one per eps.

    An arm qualifies for eps if its adversarial gap drops below
    30 eps ln(T) sqrt(d ln(n_dbl T)) at some end-time on the geometric
    ladder past eps^-2 / 9.  All ladders share one replay: the gaps are
    taken once at the union of their end-times.
    """
    ladders = [eps_ladder_times(eps, T) for eps in eps_ladder]
    ts = sorted(set().union(*ladders))
    gaps = gaps_at(env, grid, ts) if ts else np.zeros((len(grid), 0))
    col = {t: j for j, t in enumerate(ts)}
    masks = []
    for eps, times in zip(eps_ladder, ladders):
        thr = 30.0 * eps * math.log(T) * math.sqrt(d * math.log(n_dbl * T))
        masks.append((gaps[:, [col[t] for t in times]] < thr).any(axis=1))
    return masks


# --------------------------------------------------------------------------
# Covering counts and dimension fits
# --------------------------------------------------------------------------


def covering_count(points, eps: float) -> int:
    """Greedy eps-cover size of a finite arm set under the sup metric
    (upper bound on the covering number; ascending scan, deterministic)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(pts) == 0:
        return 0
    uncovered = np.ones(len(pts), dtype=bool)
    count = 0
    for i in range(len(pts)):
        if uncovered[i]:
            count += 1
            dist = np.max(np.abs(pts - pts[i]), axis=1)
            uncovered &= dist > eps / 2.0
    return count


@dataclass
class CoverReport:
    eps_ladder: list
    counts: list
    z_hat: float  # fitted covering exponent
    multiplier: float  # fitted gamma in N(eps) ~ gamma * eps^-z

    def to_dict(self) -> dict:
        return {
            "eps_ladder": list(self.eps_ladder),
            "counts": [float(c) for c in self.counts],
            "z_hat": self.z_hat,
            "multiplier": self.multiplier,
        }


def loglog_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs), with its stderr."""
    x = np.log(np.asarray(xs, dtype=np.float64))
    y = np.log(np.asarray(ys, dtype=np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(1, len(x) - 2)
    denom = float(((x - x.mean()) ** 2).sum())
    se = math.sqrt(float(resid @ resid) / dof / denom) if denom > 0 else 0.0
    return float(slope), float(se), float(intercept)


def dimension_fit(eps_ladder, counts) -> CoverReport:
    """Least-squares fit of log N(eps) against log(1/eps).

    Counts come from greedy covers, so the fit is a conservative (upper
    bound) dimension estimate.
    """
    if len(eps_ladder) < 3 or len(counts) != len(eps_ladder):
        raise ValueError("need at least 3 ladder points with matching counts")
    slope, _, intercept = loglog_slope(
        1.0 / np.asarray(eps_ladder, dtype=np.float64), counts
    )
    return CoverReport(
        eps_ladder=list(map(float, eps_ladder)),
        counts=list(counts),
        z_hat=float(slope),
        multiplier=float(math.exp(intercept)),
    )


# --------------------------------------------------------------------------
# Invariant monitor
# --------------------------------------------------------------------------


@dataclass
class Violation:
    check: str
    t: int
    node_id: Optional[int]
    detail: str


def monitor(trace: Trace, tol: float = 1e-9) -> list:
    """Re-verify every structural property of a run from its snapshots.

    Checks, per round and per event: the distribution is a proper
    distribution with the gamma/|A_t| floor; the zooming invariant
    conf_tot_t(u) >= (t-1) L(u) for every active node (confidence sums are
    rebuilt here from the recorded pi, not taken from the algorithm); the
    cube node-count bound |A_t| <= (9t)^(d/(d+2)); at every zoom-in, the
    spent mass is >= 1/(9 L^2), the zoom probability is >= beta_t e^-L(u),
    the lifespan satisfies tau1(u) >= 2 tau1(parent) - 2, and heights
    respect h <= log2(tau1) and h <= 1 + log2 T; and the total inherited
    diameter stays below 4 t log2(T) L(u).  Returns the empty list on a
    conforming trace.
    """
    out = []
    if any(rec.pi is None or rec.active_ids is None for rec in trace.rounds):
        raise ValueError("monitor needs a trace recorded with state snapshots")
    T = trace.T
    log2T = math.log2(T) if T > 1 else 0.0
    s_conf: dict = {}
    mass: dict = {}
    inh: dict = {}
    final: dict = {}  # node_id -> (s_conf, inh) frozen at its zoom-in round

    for meta in trace.node_table.values():
        if meta.height > 1 + log2T + tol:
            out.append(Violation("height_activated", meta.tau0, meta.node_id,
                                 f"h={meta.height} > 1 + log2 T"))

    for rec in trace.rounds:
        t = rec.t
        pi = rec.pi
        ids = rec.active_ids
        n = len(ids)
        if abs(float(pi.sum()) - 1.0) > 1e-12:
            out.append(Violation("pi_sum", t, None, f"sum={pi.sum()!r}"))
        if float(pi.min()) < rec.gamma / n - 1e-12:
            out.append(Violation("pi_floor", t, None,
                                 f"min={pi.min()!r} < gamma/n"))
        if trace.space_kind == "cube":
            d = float(trace.d)
            bound = (9.0 * t) ** (d / (d + 2.0))
            if n > bound + tol:
                out.append(Violation("node_count", t, None,
                                     f"|A_t|={n} > (9t)^(d/(d+2))={bound:.4g}"))
        for i, nid in enumerate(ids):
            meta = trace.node_table[nid]
            if nid not in s_conf:
                if meta.parent_id is not None and meta.parent_id in final:
                    s_conf[nid], inh[nid] = final[meta.parent_id]
                else:
                    s_conf[nid], inh[nid] = 0.0, 0.0
                mass[nid] = 0.0
            p = float(pi[i])
            s_conf[nid] += rec.beta / p
            mass[nid] += p
            inh[nid] += meta.scale
            conf_tot = 1.0 / rec.beta + s_conf[nid]
            if conf_tot < (t - 1) * meta.scale - tol:
                out.append(Violation(
                    "zooming_invariant", t, nid,
                    f"conf_tot={conf_tot:.6g} < (t-1)L={(t - 1) * meta.scale:.6g}",
                ))
            if T > 1 and inh[nid] > 4.0 * t * log2T * meta.scale + tol:
                out.append(Violation(
                    "inherited_diameter", t, nid,
                    f"sum L(act)={inh[nid]:.6g} > 4 t log2(T) L",
                ))
        idx_of = {nid: i for i, nid in enumerate(ids)}
        for nid in rec.zoomed:
            meta = trace.node_table[nid]
            L = meta.scale
            p = float(pi[idx_of[nid]])
            if mass[nid] < 1.0 / (9.0 * L * L) - tol:
                out.append(Violation(
                    "zoom_mass", t, nid,
                    f"mass={mass[nid]:.6g} < 1/(9 L^2)={1.0 / (9 * L * L):.6g}",
                ))
            if p < rec.beta / math.exp(L) - 1e-12:
                out.append(Violation(
                    "zoom_probability", t, nid,
                    f"pi={p:.6g} < beta/e^L={rec.beta / math.exp(L):.6g}",
                ))
            if meta.height > math.log2(t) + tol:
                out.append(Violation(
                    "height_zoomed", t, nid, f"h={meta.height} > log2(tau1)"
                ))
            parent = meta.parent_id
            if parent is not None:
                p_tau1 = trace.node_table[parent].tau1
                if p_tau1 is not None and t < 2 * p_tau1 - 2:
                    out.append(Violation(
                        "lifespan", t, nid,
                        f"tau1={t} < 2 tau1(parent) - 2 = {2 * p_tau1 - 2}",
                    ))
            final[nid] = (s_conf[nid], inh[nid])
    return out
