"""Adaptive-zooming bandit over a node hierarchy with EXP3.P-style selection.

State per active node is the paper's three scalars — the cumulative
optimistic estimate G_hat, the cumulative confidence sum S_conf, and
log c_prod (the log-product of child counts along the ancestry) — plus its
scale L and e^L - 1 (read by the zoom test), its arm, the node itself and
its trace id.  Arm, log c_prod and L are read from the node's row in the
trace's node table, written once at activation.  A node is anything with a
`node_id`, `height`, `scale` and `children` (cube cell, DAG ball or fixed
arm); rounds and zooming never ask which kind it is.
Weights are never stored: the closed form

    log w_t(u) = eta_t * G_hat(u) - log_c_prod(u)

reproduces the explicit multiplicative-update-and-split table exactly, and
is evaluated in log space with max-subtraction each round.  When a node's
sampling uncertainty drops below its scale (instantaneous and aggregate
confidence tests both pass), the node is replaced by its children, each of
which inherits the parent's scalars by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .metric import (
    DagNode,
    FiniteMetricSpace,
    build_zooming_dag,
    cube_root,
    representative,
)
from .rng import ROUND_BLOCK, stream_key, uniform
from .trace import NodeMeta, RoundRecord, Trace

SELECT_STREAM = "algo.select"


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------


class ParamValues(NamedTuple):
    beta: float
    beta_tilde: float
    gamma: float
    eta: float


def _log_num(a_size: int, T: int, n_dbl: int) -> float:
    return 2.0 * math.log(a_size * T**3) * math.log(max(2.0, n_dbl * a_size))


def raw_param(t: int, a_size: int, T: int, n_dbl: int, d: float) -> float:
    """Unclamped schedule value sqrt(2 ln(A T^3) ln(N A)) / sqrt(t A d ln^2 T).

    The log argument N*A is floored at 2 so degenerate singleton spaces do
    not zero the schedule.
    """
    if T < 2:
        return 0.5
    return math.sqrt(_log_num(a_size, T, n_dbl)
                     / (t * a_size * d * math.log(T) ** 2))


class ParamSchedule:
    """Per-round (beta, beta_tilde, gamma, eta) with clamping and cummin.

    All four are clamped into (0, 1/2]; beta and eta are additionally forced
    non-increasing via a running minimum (|A_t| jumps can bump the raw
    formula).  beta_tilde equals beta.  gamma = gamma_coeff |A_t| beta,
    clamped.  A constant override replaces the formula entirely.

    The two log-T coefficients are gamma_coeff = c (2 + 4 log2 T) and the
    estimator's confidence coefficient conf_coeff = c (1 + 4 log2 T), with
    c = coeff_scale.  The default c = 1 is the paper's schedule, and since
    multiplying by 1.0 is exact it reproduces it bit for bit.
    """

    def __init__(self, T: int, n_dbl: int, d: float,
                 override: Optional[ParamValues] = None,
                 coeff_scale: float = 1.0):
        self.T = T
        self.n_dbl = n_dbl
        self.d = d
        self.override = override
        log2T = math.log2(T) if T > 1 else 0.0
        self.gamma_coeff = coeff_scale * (2.0 + 4.0 * log2T)
        self.conf_coeff = coeff_scale * (1.0 + 4.0 * log2T)
        self._t = 0  # last round advanced
        self._running_min = 0.5
        self._log_T2 = math.log(T) ** 2 if T > 1 else 0.0
        self._num = {}  # |A_t| -> raw_param's logs, which need only |A_t|

    def advance(self, t: int, a_size: int) -> ParamValues:
        if t != self._t + 1:
            raise ValueError(f"schedule advanced out of order: t={t}")
        self._t = t
        if self.override is not None:
            return self.override
        num = self._num.get(a_size)
        if num is None:
            num = self._num[a_size] = _log_num(a_size, self.T, self.n_dbl)
        # raw_param's value, in its order of operations
        beta = 0.5 if self.T < 2 else min(0.5, math.sqrt(
            num / (t * a_size * self.d * self._log_T2)))
        beta = min(beta, self._running_min)
        self._running_min = beta
        gamma = min(0.5, self.gamma_coeff * a_size * beta)
        return ParamValues(beta, beta, gamma, beta)  # beta_tilde = eta = beta


# --------------------------------------------------------------------------
# Configuration and state
# --------------------------------------------------------------------------


@dataclass
class AlgoConfig:
    seed: int = 0
    repr_policy: str = "center"
    record_state: bool = True  # keep per-round pi / G_hat snapshots
    # override of the doubling constant; it feeds the schedule and the trace
    # header only, the space keeps its own geometry
    n_dbl: Optional[int] = None
    param_override: Optional[ParamValues] = None
    # scale c on both log-T schedule coefficients (see ParamSchedule); the
    # default 1.0 is the paper's schedule
    coeff_scale: float = 1.0


class AlgState:
    """One run's mutable state.  Confined to a single sequential execution;
    run independent seeds in separate states.

    `space` is a cube dimension d, a FiniteMetricSpace (played on its
    zooming DAG), or a (K, d) array of fixed arms.  A cube or DAG starts
    at its root and zooms; a fixed arm set is flat: each arm is a
    zero-scale node with no children, A_t stays all K arms, and rounds
    skip the zoom test.
    """

    def __init__(self, space, T: int, config: AlgoConfig):
        if T < 1:
            raise ValueError("horizon T must be >= 1")
        self.config = config
        self.T = T
        self.t = 1

        # the space alone fixes its kind, dimension, doubling constant and
        # A_1: the root, or every fixed arm
        if isinstance(space, int):
            kind, d, n_dbl = "cube", space, 2**space
            level = [cube_root(space)]
        elif isinstance(space, np.ndarray):
            if space.ndim != 2 or len(space) == 0:
                raise ValueError(f"arm array must be (K, d), got {space.shape}")
            kind, d, n_dbl = "arms", space.shape[1], 2 ** space.shape[1]
            level = [DagNode(node_id=(0, k), scale=0.0, arm=tuple(arm))
                     for k, arm in enumerate(space)]
        elif isinstance(space, FiniteMetricSpace):
            dag = build_zooming_dag(
                space, max_height=int(math.ceil(math.log2(max(2, T)))) + 1)
            kind, d = "dag", 1
            n_dbl = space.doubling.value if config.n_dbl is None else None
            level = [dag.nodes[dag.levels[0][0]]]
        else:
            raise TypeError(f"unsupported space {type(space)!r}")
        self.kind = kind
        self.zooms = kind != "arms"
        ov = config.param_override
        if self.zooms and ov is not None and not ov.beta > 0:
            # the zoom test divides by beta, and a negative beta passes it
            # on nodes past the height bound
            raise ValueError(f"param_override beta must be > 0 on a {kind} "
                             f"space, which zooms; got {ov.beta!r}")
        # gamma > 1 inverts the weights, and a field that is not finite
        # fails rounds later, if at all
        for name, v in ov._asdict().items() if ov is not None else ():
            hi = 1.0 if name == "gamma" else math.inf
            if not (math.isfinite(v) and 0.0 <= v <= hi):
                rule = "in [0, 1]" if hi == 1.0 else ">= 0"
                raise ValueError(f"param_override {name} must be finite and "
                                 f"{rule}, got {v!r}")
        c = config.coeff_scale
        if not (math.isfinite(c) and c > 0):
            raise ValueError(f"coeff_scale must be finite and > 0, got {c!r}")
        self.n_dbl = int(config.n_dbl if config.n_dbl is not None else n_dbl)

        self.schedule = ParamSchedule(
            T, self.n_dbl, d, override=ov, coeff_scale=config.coeff_scale)
        self.select_key = stream_key(config.seed, SELECT_STREAM)
        # selection uniforms of rounds _u_lo, _u_lo + 1, ... (see select)
        self._u_lo, self._u = 0, []

        self.trace = Trace(algorithm="adversarial_zooming", T=T, d=d,
                           n_dbl=self.n_dbl, seed=config.seed,
                           space_kind=kind)

        # A_1 has weights all one, so every log c_prod is 0
        ids = tuple(self._register(u, 0.0, None, 1) for u in level)
        _activate(self, level, ids, np.zeros(len(level)), np.zeros(len(level)))

    def _register(self, node, log_cp, parent_id, tau0) -> int:
        """Add the node's row to the trace's node table; returns its id."""
        nid = len(self.trace.node_table)
        arm = representative(node, self.config.repr_policy, self.config.seed)
        if not isinstance(arm, tuple):
            arm = (arm,)
        self.trace.add_node(
            NodeMeta(
                node_id=nid,
                parent_id=parent_id,
                height=node.height,
                scale=node.scale,
                tau0=tau0,
                arm=arm,
                log_c_prod=log_cp,
            )
        )
        return nid

    @property
    def n_active(self) -> int:
        return len(self.nodes)


def _activate(state: AlgState, nodes: list, ids: tuple, g_hat: np.ndarray,
              s_conf: np.ndarray) -> None:
    """Make nodes, with trace ids ids, the active set, in that order, with
    their inherited G_hat and S_conf.  Each node's arm, log c_prod and scale
    L are read from its node-table row; e^L - 1 is math.expm1 per node,
    because np.expm1 is not known to agree with it in the last ulp."""
    rows = [state.trace.node_table[i] for i in ids]
    state.nodes, state.ids = nodes, ids  # underlying CubeNode / DagNode
    state.g_hat, state.s_conf = g_hat, s_conf
    state.arms = [m.arm for m in rows]  # each node's arm, as select plays
    state.log_c_prod = np.array([m.log_c_prod for m in rows])
    state.scale = np.array([m.scale for m in rows], dtype=np.float64)
    state.expm1_scale = np.array([math.expm1(m.scale) for m in rows])


def init(space, T: int, config: Optional[AlgoConfig] = None) -> AlgState:
    """Fresh state: A_1 is the root, or every arm of a fixed arm set
    (weights all one), schedule empty."""
    return AlgState(space, T, config or AlgoConfig())


# --------------------------------------------------------------------------
# One round
# --------------------------------------------------------------------------


def distribution(state: AlgState, pv: ParamValues) -> np.ndarray:
    """Exploration-mixed selection distribution over active nodes.

    p is proportional to exp(eta*G_hat - log_c_prod), computed with
    max-subtraction; pi mixes in gamma of uniform, so every node keeps
    probability at least gamma/|A_t|.
    """
    w = pv.eta * state.g_hat
    w -= state.log_c_prod
    # the ufunc reductions that ndarray.max, .min and .sum call
    top = np.maximum.reduce(w)
    # NaN propagates through both reductions, so this is "all finite"
    if not (math.isfinite(top) and math.isfinite(np.minimum.reduce(w))):
        raise ArithmeticError(f"non-finite weight exponent at round {state.t}")
    w -= top
    p = np.exp(w, out=w)
    p /= np.add.reduce(p)
    p *= 1.0 - pv.gamma
    p += pv.gamma / len(p)
    return p


def select(state: AlgState, pi: np.ndarray):
    """Inverse-CDF draw on the round-keyed uniform; cumulative sums follow
    activation order, which fixes tie-breaking deterministically.  The
    uniforms are drawn ROUND_BLOCK rounds at a time from any t >= 1, and
    each equals the draw of its round alone bit for bit."""
    t = state.t
    if not 0 <= t - state._u_lo < len(state._u):
        state._u_lo = t
        n = min(ROUND_BLOCK, state.T)
        state._u = uniform(state.select_key, np.arange(t, t + n)).tolist()
    u = state._u[t - state._u_lo]
    idx = int(np.add.accumulate(pi).searchsorted(u, side="right"))
    idx = min(idx, len(pi) - 1)
    return idx, state.arms[idx]


def estimate(state: AlgState, chosen: int, reward: float, pi: np.ndarray,
             pv: ParamValues) -> np.ndarray:
    """Optimistic estimates: IPS for the chosen node plus the confidence
    bonus conf_coeff * beta_t / pi_t(u), conf_coeff = c (1 + 4 log2 T),
    for every active node."""
    if not (0.0 <= reward <= 1.0):
        raise ValueError(f"reward {reward} outside [0, 1]")
    ghat = state.schedule.conf_coeff * pv.beta / pi
    ghat[chosen] += reward / pi.item(chosen)
    return ghat


def update(state: AlgState, ghat: np.ndarray, pi: np.ndarray,
           pv: ParamValues) -> None:
    state.g_hat += ghat
    state.s_conf += pv.beta / pi


def zoom_check(state: AlgState, pi: np.ndarray,
               pv: ParamValues) -> np.ndarray:
    """Indices of the active nodes to zoom in: both confidence tests clear
    the node's scale L under this round's pi, instantaneous
    beta_tilde + beta/pi <= e^L - 1 and aggregate 1/beta + S_conf <= t*L.
    The second is taken only on the nodes that pass the first."""
    idx = (pv.beta_tilde + pv.beta / pi <= state.expm1_scale).nonzero()[0]
    if idx.size:
        idx = idx[1.0 / pv.beta + state.s_conf[idx]
                  <= state.t * state.scale[idx]]
    return idx


def zoom_in(state: AlgState, zoom_idx: Sequence[int]) -> list:
    """Deactivate the flagged nodes, activate their children with the
    parent's scalars inherited by value.  Equal weight split is implicit:
    each child's log_c_prod grows by ln |c(parent)|.  A child already active
    (DAG balls can share children) is not activated twice.  Survivors keep
    their order and the children follow them."""
    zoomed_ids = []
    keep = np.ones(state.n_active, dtype=bool)
    born = []  # (child, log_cp, parent index)
    active = {n.node_id for n in state.nodes}
    for i in zoom_idx:
        node = state.nodes[i]
        if node.height > math.log2(state.T) + 1e-9:
            raise RuntimeError(
                f"zoom-in on node of height {node.height} > log2 T at round "
                f"{state.t}; the height bound should make this unreachable"
            )
        keep[i] = False
        pid = state.ids[i]
        zoomed_ids.append(pid)
        meta = state.trace.node_table[pid]
        meta.tau1 = state.t
        children = node.children
        meta.n_children = len(children)
        log_cp = state.log_c_prod[i] + math.log(len(children))
        for child in children:
            if child.node_id in active:
                continue
            active.add(child.node_id)
            born.append((child, log_cp, i))

    survivors = np.flatnonzero(keep).tolist()
    src = survivors + [i for _, _, i in born]
    _activate(state,
              [state.nodes[i] for i in survivors] + [c for c, _, _ in born],
              tuple([state.ids[i] for i in survivors] + [
                  state._register(c, log_cp, state.ids[i], state.t + 1)
                  for c, log_cp, i in born]),
              state.g_hat[src], state.s_conf[src])
    return zoomed_ids


def step(state: AlgState, env) -> RoundRecord:
    """Play one round: params, distribution, selection, reward, estimate,
    update, then the zoom pass over the nodes that were active this round
    (children activated now are first eligible next round); a fixed arm
    set has no zoom pass."""
    t = state.t
    if t > state.T:
        raise RuntimeError(f"horizon exhausted: t={t} > T={state.T}")
    n_before = len(state.nodes)
    pv = state.schedule.advance(t, n_before)
    pi = distribution(state, pv)
    chosen, arm = select(state, pi)
    chosen_id = state.ids[chosen]
    reward = float(env.reward(t, arm))
    ghat = estimate(state, chosen, reward, pi, pv)
    update(state, ghat, pi, pv)

    # snapshots describe the active set of *this* round, taken before zooming
    snap_ids = snap_pi = snap_ghat = None
    if state.config.record_state:
        snap_ids = state.ids  # a tuple, rebuilt only by zoom_in
        snap_pi = pi  # never written after it is drawn
        snap_ghat = state.g_hat.copy()  # update adds into g_hat in place

    zoomed = ()
    if state.zooms:
        zoom_idx = zoom_check(state, pi, pv)
        if zoom_idx.size:
            zoomed = tuple(zoom_in(state, zoom_idx))

    # positional, in RoundRecord's field order
    rec = RoundRecord(t, chosen_id, arm, reward, pv.beta, pv.beta_tilde,
                      pv.gamma, pv.eta, n_before, zoomed, snap_ids, snap_pi,
                      snap_ghat)
    state.trace.append(rec)
    state.t += 1
    return rec


def run(state: AlgState, env, rounds: Optional[int] = None) -> Trace:
    """Play `rounds` rounds (default: to the horizon)."""
    end = state.T if rounds is None else min(state.T, state.t + rounds - 1)
    while state.t <= end:
        step(state, env)
    return state.trace


# --------------------------------------------------------------------------
# Anytime operation (doubling trick)
# --------------------------------------------------------------------------


class _OffsetEnv:
    """Shift local phase rounds onto the global oblivious reward sequence."""

    def __init__(self, env, offset: int):
        self.env = env
        self.offset = offset

    def reward(self, t: int, arm):
        return self.env.reward(t + self.offset, arm)


def run_anytime(space, config: AlgoConfig, rounds: int, env) -> list:
    """Doubling trick: restart with horizon 2^i per phase i = 0, 1, 2, ...

    Each phase gets fresh state and a phase-derived selection seed; the
    final phase is cut short when the round budget runs out.  Returns one
    Trace per phase.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    phase_key = stream_key(config.seed, "anytime.phase")
    phases = []
    done = 0
    i = 0
    while done < rounds:
        T_i = 1 << i
        budget = min(T_i, rounds - done)
        phase_seed = int(uniform(phase_key, i) * 2**31)
        cfg = replace(config, seed=phase_seed)
        state = init(space, T_i, cfg)
        run(state, _OffsetEnv(env, done), rounds=budget)
        phases.append(state.trace)
        done += budget
        i += 1
    return phases


# --------------------------------------------------------------------------
# Schedule assumption audit
# --------------------------------------------------------------------------


@dataclass
class AssumptionReport:
    """Rounds violating each tuning assumption, for reporting only.

    The paper's schedule (c = 1) fails clauses throughout the horizons a
    test can afford, not only in a few early rounds: on d=1, gamma_t sits at
    its 1/2 cap on every round up to at least T = 2^18, and on seed 0 at
    T = 2^10 the product clause fails on about a quarter of the rounds.
    `gamma_capped` lists the rounds on which gamma_t was at that cap; it is
    not a clause and does not count towards `ok`.
    """

    violations: dict  # clause name -> list of rounds
    gamma_capped: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())


def check_assumptions(schedule: ParamSchedule, trace: Trace) -> AssumptionReport:
    """Audit the recorded schedule against the regret theorem's conditions.

    Per round: eta <= beta <= gamma/|A_t| and
    eta (1 + beta conf_coeff) <= gamma/|A_t|; the tilde sequence must be
    non-increasing with beta_tilde >= beta.  The integral condition on
    beta_tilde has no closed form (beta depends on |A_t|), so it is reported
    via its discrete sufficient per-step form
    beta_tilde_t <= 1/beta_{t+1} - 1/beta_t, which telescopes to every
    window.

    Both log-T coefficients come from `schedule`, so a run with a scaled
    schedule (AlgoConfig.coeff_scale) is audited against the clauses it ran
    under: conf_coeff enters the product clause, and gamma_coeff decides
    which rounds had gamma_t = gamma_coeff |A_t| beta_t clamped at 1/2
    (none under a constant override, which bypasses the formula).
    """
    rounds, tol = trace.rounds, 1e-12
    t = np.array([r.t for r in rounds], dtype=np.int64)
    beta, beta_tilde, gamma, eta, n_active = np.array(
        [(r.beta, r.beta_tilde, r.gamma, r.eta, r.n_active) for r in rounds],
        dtype=np.float64).reshape(-1, 5).T
    share = gamma / n_active
    with np.errstate(divide="raise"):  # a zero beta raises, as 1/0 does
        window = 1.0 / beta[1:] - 1.0 / beta[:-1] + tol
    out = {
        "eta_le_beta": t[eta > beta + tol],
        "beta_le_gamma_share": t[beta > share + tol],
        "product_clause":
            t[eta * (1.0 + beta * schedule.conf_coeff) > share + tol],
        "tilde_nonincreasing": t[1:][beta_tilde[1:] > beta_tilde[:-1] + tol],
        "tilde_ge_beta": t[beta_tilde < beta - tol],
        "tilde_window": t[:-1][beta_tilde[:-1] > window],
    }
    capped = (t[schedule.gamma_coeff * n_active * beta >= 0.5]
              if schedule.override is None else t[:0])
    return AssumptionReport(
        violations={k: v.tolist() for k, v in out.items()},
        gamma_capped=capped.tolist())
