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

import functools
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .env import RewardTable
from .metric import greedy_net, product_grid
from .trace import Trace

MAX_EVALS = 10**7  # guard on arm-round reward evaluations
_CELLS = 1 << 16  # arm-rounds per replay block: 512 KiB per block buffer
# arms from which replay sums a round at a time: on 2 vCPUs, 128 arms replay
# as fast either way and 160 arms about 10% faster a round at a time
_WIDE = 144
_BLOCK = 2048  # most rounds per monitor block


def grid_points(d: int, eps: float) -> np.ndarray:
    """Evaluation grid with spacing eps per axis, endpoints included.

    Points are exact quotients k/m, so nested grids (m and 10m, say) share
    points bit-for-bit and replayed rewards agree exactly.
    """
    if eps <= 0:
        raise ValueError("grid_eps must be positive")
    m = int(round(1.0 / eps))
    return product_grid(np.arange(m + 1, dtype=np.float64) / m, d)


def grid_eps_for(d: int, T: int, eps: Optional[float] = None) -> float:
    """Evaluation grid spacing for T rounds on [0,1]^d: an explicit eps,
    checked, or the default (1/1024 at d=1, 1/64 per axis above) doubled
    until the grid's (round(1/eps)+1)^d arms x T rounds fit MAX_EVALS."""
    if not isinstance(T, (int, np.integer)) or isinstance(T, bool) or T < 1:
        raise ValueError(f"the horizon must be an int >= 1, got {T!r}")
    if eps is not None and (isinstance(eps, bool)
                            or not isinstance(eps, (int, float))):
        raise ValueError(f"grid_eps must be a number, got {eps!r}")
    e = (1.0 / 1024 if d == 1 else 1.0 / 64) if eps is None else eps
    # round(1/e) is finite from 1/MAX_EVALS on; e < 2 keeps 2 points an axis
    while not (1.0 / MAX_EVALS <= e < 2.0
               and (round(1.0 / e) + 1) ** d * T <= MAX_EVALS):
        if eps is not None:
            raise ValueError(f"grid_eps={eps!r} at d={d}, T={T}: need 0 < "
                             f"grid_eps < 2 and at most evaluate.MAX_EVALS="
                             f"{MAX_EVALS} reward evaluations")
        if e >= 1.0:
            raise ValueError(
                f"T={T} is too long to evaluate at d={d}: even the grid "
                f"eps = 1 ({2 ** d} arms) needs more than "
                f"evaluate.MAX_EVALS={MAX_EVALS} reward evaluations")
        e *= 2.0
    return float(e)


def _replay(env, grid: np.ndarray, T: int, checkpoints=None):
    """One pass over the reward table, in blocks of every grid arm x
    _CELLS // n rounds.

    Returns (cum_best, totals) where cum_best[t-1] = max over grid arms of
    their cumulative reward through round t, and totals is (n_grid,) at T or
    (n_grid, len(checkpoints)) when checkpoint rounds are given.

    A grid of at least _WIDE arms lays its block out rounds x arms, and the
    running sum adds each round's row to the one before it: one add across
    every arm per round.  A narrower grid lays it out arms x rounds and runs
    one cumsum per arm, because below _WIDE arms a call per round costs
    more than the cumsum it replaces.  Either way each block starts from
    the previous block's last totals, so every partial sum is the same IEEE
    addition, in the same order, as one cumsum over all T rounds: the
    result is bit-identical whatever the block shape or layout.  The two
    block buffers are allocated once, so memory is one block (at least one
    round of every arm) whatever T is.
    """
    n = len(grid)
    if n == 0:
        raise ValueError("empty evaluation grid: no arm to replay")
    cum_best = np.full(T, -np.inf)
    cps = np.asarray([T] if checkpoints is None else checkpoints, dtype=int)
    totals = np.zeros((n, len(cps)))
    table = RewardTable(env, grid)
    wide = n >= _WIDE
    B = min(T, max(1, _CELLS // n))
    buf, tmp = np.empty(n * B), np.empty(n * B, dtype=np.uint64)
    rows = list(buf.reshape(B, n)) if wide else None  # views made once
    for t0 in range(0, T, B):
        k = min(B, T - t0)
        rb = buf[:n * k].reshape((k, n) if wide else (n, k))
        rt = tmp[:n * k].reshape(rb.shape)
        arms, scratch = (rb.T, rt.T) if wide else (rb, rt)  # arms x rounds
        table.fill(table.rounds(np.arange(t0 + 1, t0 + k + 1)), arms, scratch)
        if t0:
            arms[:, 0] += carry
        if wide:
            for prev, row in zip(rows, rows[1:k]):
                np.add(prev, row, row)
        else:
            np.cumsum(rb, axis=1, out=rb)
        best = cum_best[t0:t0 + k]
        np.maximum(best, arms.max(axis=0), out=best)
        hit = (cps > t0) & (cps <= t0 + k)
        if hit.any():
            totals[:, hit] = arms[:, cps[hit] - 1 - t0]
        carry = arms[:, -1].copy()
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
        """The scalar fields; the per-round curves (repr=False) stay out."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.repr}


def regret(trace: Trace, env, grid_eps: Optional[float] = None,
           grid: Optional[np.ndarray] = None) -> RegretReport:
    """Best-fixed-grid-arm cumulative reward minus the realized one.

    The environment is replayed exactly (oblivious rewards), so the only
    approximation is the grid itself; the T * grid_eps Lipschitz slack is
    attached to the report; grid_eps_for spaces the grid unless one is given.
    """
    T = trace.n_rounds
    if grid is None:
        grid_eps = grid_eps_for(env.d, T, grid_eps)
        grid = grid_points(env.d, grid_eps)
    else:
        grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
        grid_eps = grid_eps if grid_eps is not None else 0.0
        if len(grid) * T > MAX_EVALS:
            raise ValueError(f"grid too large: {len(grid)} arms x {T} "
                             f"rounds > {MAX_EVALS} evaluations")
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
    try:
        t = math.floor(eps**-2 / 9.0) + 1
    except OverflowError:  # eps below ~7.5e-155: t0 is past any horizon
        return []
    out = []
    while t <= T:
        out.append(t)
        t *= 2
    return out


def eps_optimal_set(env, grid: np.ndarray, eps_ladder, T: int) -> list:
    """Boolean masks of inclusively eps-optimal grid arms, one per eps.

    An arm qualifies for eps if its adversarial gap drops below
    30 eps ln(T) sqrt(d ln(n_dbl T)) at some end-time on the geometric
    ladder past eps^-2 / 9, with d the grid's dimension and the cube's
    doubling constant n_dbl = 2^d.  All ladders share one replay: the gaps
    are taken once at the union of their end-times.
    """
    d = grid.shape[1]
    ladders = [eps_ladder_times(eps, T) for eps in eps_ladder]
    ts = sorted(set().union(*ladders))
    gaps = gaps_at(env, grid, ts) if ts else np.zeros((len(grid), 0))
    col = {t: j for j, t in enumerate(ts)}
    masks = []
    for eps, times in zip(eps_ladder, ladders):
        thr = 30.0 * eps * math.log(T) * math.sqrt(d * math.log(2**d * T))
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
    cols = np.ascontiguousarray(pts.T)  # sup distance folded axis by axis

    def dist_to(c, idx):
        return functools.reduce(np.maximum,
                                [np.abs(col[idx] - col[c]) for col in cols])

    return len(greedy_net(len(pts), dist_to, eps / 2.0))


@dataclass
class CoverReport:
    eps_ladder: list
    counts: list
    z_hat: float  # fitted covering exponent
    multiplier: float  # fitted gamma in N(eps) ~ gamma * eps^-z

    def to_dict(self) -> dict:
        return {**asdict(self), "counts": [float(c) for c in self.counts]}


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
