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

from .metric import greedy_net
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
    (upper bound on the covering number): the number of centres of
    metric.greedy_net at radius eps/2, so 0 for an empty set."""
    pts = np.asarray(points, dtype=np.float64)
    pts = np.atleast_2d(pts) if pts.size else pts
    return len(greedy_net(
        len(pts), lambda c, idx: np.max(np.abs(pts[idx] - pts[c]), axis=1),
        eps / 2.0))


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

    Rounds are checked a block at a time (see _monitor_blocks), with each
    node's sums carried from block to block.  Every sum is then the same
    IEEE addition, in the same order, as in a round-by-round loop, and the
    violations come in that loop's order: activation heights first, then
    round by round the distribution and node-count checks, each active
    node's checks in activation order, and the round's zoom-ins.
    """
    if any(rec.pi is None or rec.active_ids is None for rec in trace.rounds):
        raise ValueError("monitor needs a trace recorded with state snapshots")
    log2T = math.log2(trace.T) if trace.T > 1 else 0.0
    out = [Violation("height_activated", meta.tau0, meta.node_id,
                     f"h={meta.height} > 1 + log2 T")
           for meta in trace.node_table.values()
           if meta.height > 1 + log2T + tol]
    carry: dict = {}  # node_id -> (s_conf, mass, inh) through the last block
    final: dict = {}  # node_id -> (s_conf, inh) frozen at its zoom-in round
    for block in _monitor_blocks(trace.rounds):
        out += _check_block(trace, block, tol, log2T, carry, final)
    return out


def _monitor_blocks(rounds):
    """Runs of at most _BLOCK rounds with one active set, cut after every
    round that zooms: within a run each node's sums are running sums down
    one column, and only its last round can have zoom-ins.  Cutting more
    often changes no result, so active sets are compared by equality."""
    lo = 0
    for i, rec in enumerate(rounds):
        ids = rec.active_ids
        if len(rec.pi) != len(ids):
            raise ValueError(f"round {rec.t}: {len(rec.pi)} probabilities "
                             f"for {len(ids)} active nodes")
        head = rounds[lo].active_ids
        if i > lo and (i - lo == _BLOCK or rounds[i - 1].zoomed
                       or (ids is not head and ids != head)):
            yield rounds[lo:i]
            lo = i
    if rounds:
        yield rounds[lo:]


def _running_sums(rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Running totals down each column of rows, continuing from start."""
    rows[0] += start
    return np.cumsum(rows, axis=0)


def _check_block(trace: Trace, block: list, tol: float, log2T: float,
                 carry: dict, final: dict) -> list:
    """Violations of one run from _monitor_blocks; advances carry and,
    for the nodes zoomed in its last round, final."""
    out = []
    ids = block[0].active_ids
    n = len(ids)
    if len(set(ids)) != n:
        raise ValueError(f"round {block[0].t}: an active id repeats")
    metas = [trace.node_table[nid] for nid in ids]
    for nid, meta in zip(ids, metas):
        if nid not in carry:  # newly active: start from the parent's sums
            s, h = final.get(meta.parent_id, (0.0, 0.0))
            carry[nid] = (s, 0.0, h)
    start = np.array([carry[nid] for nid in ids]).reshape(n, 3).T
    ts = np.array([rec.t for rec in block], dtype=np.float64)
    beta = np.array([rec.beta for rec in block])
    gamma = np.array([rec.gamma for rec in block])
    P = np.stack([rec.pi for rec in block])
    Ls = np.array([meta.scale for meta in metas], dtype=np.float64)

    sums, mins = P.sum(axis=1), P.min(axis=1)
    s_conf = _running_sums(beta[:, None] / P, start[0])
    mass = _running_sums(P.copy(), start[1])
    inh = _running_sums(np.tile(Ls, (len(block), 1)), start[2])
    conf_tot = (1.0 / beta)[:, None] + s_conf
    bad_conf = conf_tot < (ts - 1.0)[:, None] * Ls - tol
    bad_inh = (inh > (4.0 * ts * log2T)[:, None] * Ls + tol if trace.T > 1
               else np.zeros_like(bad_conf))
    bad_node = bad_conf | bad_inh
    bad_sum = np.abs(sums - 1.0) > 1e-12
    bad_min = mins < gamma / n - 1e-12
    bad_count = np.zeros(len(block), dtype=bool)
    if trace.space_kind == "cube":
        d = float(trace.d)
        # Python's float pow per round: np.power is not known to agree
        # with C pow in the last ulp
        bounds = [(9.0 * rec.t) ** (d / (d + 2.0)) for rec in block]
        bad_count = n > np.array(bounds) + tol

    rows = bad_sum | bad_min | bad_count | bad_node.any(axis=1)
    for r in np.flatnonzero(rows):
        rt = block[r].t
        if bad_sum[r]:
            out.append(Violation("pi_sum", rt, None, f"sum={sums[r]!r}"))
        if bad_min[r]:
            out.append(Violation("pi_floor", rt, None,
                                 f"min={mins[r]!r} < gamma/n"))
        if bad_count[r]:
            out.append(Violation(
                "node_count", rt, None,
                f"|A_t|={n} > (9t)^(d/(d+2))={bounds[r]:.4g}"))
        for j in np.flatnonzero(bad_node[r]):
            nid, scale = ids[j], metas[j].scale
            if bad_conf[r, j]:
                out.append(Violation(
                    "zooming_invariant", rt, nid,
                    f"conf_tot={float(conf_tot[r, j]):.6g} < "
                    f"(t-1)L={(rt - 1) * scale:.6g}",
                ))
            if bad_inh[r, j]:
                out.append(Violation(
                    "inherited_diameter", rt, nid,
                    f"sum L(act)={float(inh[r, j]):.6g} > 4 t log2(T) L",
                ))
    for nid, s, m, h in zip(ids, s_conf[-1].tolist(), mass[-1].tolist(),
                            inh[-1].tolist()):
        carry[nid] = (s, m, h)

    rec = block[-1]
    t = rec.t
    col = {nid: j for j, nid in enumerate(ids)}
    for nid in rec.zoomed:
        meta = trace.node_table[nid]
        L = meta.scale
        p = float(P[-1, col[nid]])
        s, m, h = carry[nid]
        if m < 1.0 / (9.0 * L * L) - tol:
            out.append(Violation(
                "zoom_mass", t, nid,
                f"mass={m:.6g} < 1/(9 L^2)={1.0 / (9 * L * L):.6g}",
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
        final[nid] = (s, h)
    return out
