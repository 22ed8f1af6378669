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
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .env import RewardTable
from .metric import greedy_net, product_grid
from .trace import Trace

MAX_EVALS = 10**7  # guard on arm-round reward evaluations
_CELLS = 1 << 16  # arm-rounds per replay block: 512 KiB per block buffer
# rounds whose per-round constants replay makes at once, rounded down to
# whole blocks: 32 KiB per array, under glibc's 128 KiB mmap threshold,
# unless one block (of a grid under 16 arms) holds more rounds
_CHUNK = 4096
# arms from which replay sums a round at a time: on 2 vCPUs, 128 arms replay
# as fast either way and 160 arms about 10% faster a round at a time
_WIDE = 144
# node-rounds per monitor block: 128 KiB per float64 array, three alive at
# once.  The monitor runs after a recorded run, when the process is at its
# largest, so its blocks add to the peak: a d=2, T = 8192 run with monitor
# and artifacts peaked at 47.4 MB of RSS with _CELLS blocks, 46.6 with these
_MONITOR_CELLS = 1 << 14


def grid_points(d: int, eps: float) -> np.ndarray:
    """Evaluation grid with spacing eps per axis, endpoints included.

    Points are exact quotients k/m, so nested grids (m and 10m, say) share
    points bit-for-bit and replayed rewards agree exactly.
    """
    if not 0 < eps < 2:  # exactly where round(1/eps) >= 1
        raise ValueError(f"grid_eps must be in (0, 2), got {eps!r}")
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


def _blocks(table, T: int, B: int):
    """(lo, k, rounds) of the blocks of rounds lo + 1..lo + k, k <= B, over
    1..T: rounds, their constants for table.fill, are sliced from a chunk
    of _CHUNK // B blocks (at least one) that one table.rounds call makes."""
    C = B * max(1, _CHUNK // B)
    for c0 in range(0, T, C):
        chunk = table.rounds(np.arange(c0 + 1, min(T, c0 + C) + 1))
        for lo in range(c0, min(T, c0 + C), B):
            cut = slice(lo - c0, lo - c0 + B)
            yield lo, min(B, T - lo), tuple(a if a is None else a[cut]
                                            for a in chunk)


def _replay(env, grid: np.ndarray, T: int):
    """Regret's pass over the reward table: (cum_best, totals), with
    cum_best[t-1] the max over grid arms of their cumulative reward through
    round t and totals theirs at T.  Blocks of every grid arm x _CELLS // n
    rounds fill two buffers allocated once, so memory does not grow with T.
    A grid of at least _WIDE arms lays a block out rounds x arms and adds
    each round's row to the one before it; a narrower one lays it out arms
    x rounds and runs a cumsum per arm, as a call per round costs more.
    Each block starts from the previous one's last totals, so every partial
    sum is the same IEEE addition, in order, as one cumsum over T rounds.
    """
    n = len(grid)
    if n == 0:
        raise ValueError("empty evaluation grid: no arm to replay")
    cum_best = np.full(T, -np.inf)
    table = RewardTable(env, grid)
    wide = n >= _WIDE
    B = min(T, max(1, _CELLS // n))
    buf, tmp = np.empty(n * B), np.empty(n * B, dtype=np.uint64)
    rows = list(buf.reshape(B, n)) if wide else None  # views made once
    for t0, k, rounds in _blocks(table, T, B):
        rb = buf[:n * k].reshape((k, n) if wide else (n, k))
        rt = tmp[:n * k].reshape(rb.shape)
        arms, scratch = (rb.T, rt.T) if wide else (rb, rt)  # arms x rounds
        table.fill(rounds, arms, scratch)
        if t0:
            arms[:, 0] += carry
        if wide:
            for prev, row in zip(rows, rows[1:k]):
                np.add(prev, row, row)
        else:
            np.cumsum(rb, axis=1, out=rb)
        best = cum_best[t0:t0 + k]
        np.maximum(best, arms.max(axis=0), out=best)
        carry = arms[:, -1].copy()
    return cum_best, carry


def _totals(env, grid: np.ndarray, ts) -> np.ndarray:
    """(n_grid, len(ts)) totals of every grid arm through each of the
    ascending end-times ts, with no per-round curve.  Blocks of _CELLS // n
    rounds (see _blocks) are laid out rounds x arms, and their rows are
    summed in runs cut at every end-time: the carry goes into a run's first
    row, and one np.add.reduce down the rounds sums the run into it.  numpy
    sums pairwise only along the contiguous axis, so the rows add in order,
    as in _replay (a one-arm block is summed pairwise, but its only gap is
    0 either way).  Bernoulli hits are counted instead, as booleans summed
    255 rows at most as uint8 into an int64 carry: every partial sum of
    0.0s and 1.0s is an integer below 2^53, exact in any order, so the
    counts as floats are the float sums bit for bit."""
    n = len(grid)
    if n == 0:
        raise ValueError("empty evaluation grid: no arm to replay")
    table, B = RewardTable(env, grid), min(ts[-1], max(1, _CELLS // n))
    hits = table.bernoulli
    buf = np.empty(n * B, dtype=bool if hits else np.float64)
    tmp = np.empty((1 + hits, n * B), dtype=np.uint64)
    totals, j, count = np.empty((n, len(ts))), 0, np.empty(n, dtype=np.uint8)
    carry = np.zeros(n, dtype=np.int64 if hits else np.float64)
    for lo, k, rounds in _blocks(table, ts[-1], B):
        rb = buf[:n * k].reshape(k, n)
        rt = tmp[:, :n * k].reshape(-1, k, n).transpose(0, 2, 1)
        table.fill(rounds, rb.T, rt if hits else rt[0])
        a = 0
        while a < k:  # the rows up to the next end-time, or the block's end
            c = min(k, ts[j] - lo)
            if hits:
                for b in range(a, c, 255):
                    np.add.reduce(rb[b:min(c, b + 255)].view(np.uint8),
                                  axis=0, dtype=np.uint8, out=count)
                    carry += count
            else:
                if lo + a:
                    rb[a] += carry
                np.add.reduce(rb[a:c], axis=0, out=carry)
            if lo + c == ts[j]:
                totals[:, j], j = carry, j + 1
            a = c
    return totals


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
    with the max taken over the same grid; ts holds ints >= 1, at least
    one.  The totals come from _totals, whose buffers are freed on return.
    """
    ts = list(ts)
    bad = [t for t in ts if isinstance(t, bool)
           or not isinstance(t, (int, np.integer)) or t < 1]
    if bad or not ts:
        raise ValueError("end-times must be ints >= 1, got "
                         + (repr(bad[0]) if bad else "none"))
    ts = sorted(set(map(int, ts)))
    totals = _totals(env, grid, ts)
    best = totals.max(axis=0)
    return (best[None, :] - totals) / np.asarray(ts)[None, :]


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

    def dist(a, b):  # sup distances, the |a| x |b| array built in place
        out = np.zeros((len(a), len(b)))
        for col in cols:
            diff = np.subtract.outer(col[a], col[b])
            np.maximum(out, np.abs(diff, out=diff), out=out)
        return out

    return len(greedy_net(len(pts), dist, eps / 2.0))


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
    """Runs of rounds with one active set, cut after every round that
    zooms and before a run would pass _MONITOR_CELLS node-rounds: a run of
    one round may hold more, so a run has at most max(|A_t|,
    _MONITOR_CELLS) node-rounds whatever T is.  Within a run each node's
    sums are running sums down one column, and only its last round can
    have zoom-ins.  Cutting more often changes no result, so active sets
    are compared by equality."""
    lo = 0
    for i, rec in enumerate(rounds):
        ids = rec.active_ids
        if len(rec.pi) != len(ids):
            raise ValueError(f"round {rec.t}: {len(rec.pi)} probabilities "
                             f"for {len(ids)} active nodes")
        head = rounds[lo].active_ids
        if i > lo and ((i - lo + 1) * len(ids) > _MONITOR_CELLS
                       or rounds[i - 1].zoomed
                       or (ids is not head and ids != head)):
            yield rounds[lo:i]
            lo = i
    if rounds:
        yield rounds[lo:]


def _running_sums(rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Running totals down each column of rows, continuing from start, in
    place."""
    rows[0] += start
    return np.cumsum(rows, axis=0, out=rows)


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

    # three block-sized float arrays, each rewritten in place: P becomes
    # the mass sums and then the inherited sums, conf the confidence sums
    # and then conf_tot, and thr holds each check's threshold in turn
    sums, mins = P.sum(axis=1), P.min(axis=1)
    conf = _running_sums(beta[:, None] / P, start[0])
    m_last = _running_sums(P, start[1])[-1].tolist()
    s_last = conf[-1].tolist()
    P[...] = Ls
    inh = _running_sums(P, start[2])
    conf += (1.0 / beta)[:, None]  # conf_tot
    thr = np.multiply((ts - 1.0)[:, None], Ls)
    thr -= tol
    bad_conf = conf < thr
    if trace.T > 1:
        np.multiply((4.0 * ts * log2T)[:, None], Ls, out=thr)
        thr += tol
        bad_inh = inh > thr
    else:
        bad_inh = np.zeros_like(bad_conf)
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
                    f"conf_tot={float(conf[r, j]):.6g} < "
                    f"(t-1)L={(rt - 1) * scale:.6g}",
                ))
            if bad_inh[r, j]:
                out.append(Violation(
                    "inherited_diameter", rt, nid,
                    f"sum L(act)={float(inh[r, j]):.6g} > 4 t log2(T) L",
                ))
    for nid, s, m, h in zip(ids, s_last, m_last, inh[-1].tolist()):
        carry[nid] = (s, m, h)

    rec = block[-1]
    t = rec.t
    col = {nid: j for j, nid in enumerate(ids)}
    for nid in rec.zoomed:
        meta = trace.node_table[nid]
        L = meta.scale
        p = float(rec.pi[col[nid]])
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
