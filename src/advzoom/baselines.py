"""Reference algorithm: EXP3.P over a fixed uniform discretization.

EXP3.P is the zooming learner's core run on a flat fixed arm set: every
arm is a zero-radius node that never zooms, and the schedule is a constant
override tuned for the horizon.  Rounds go through `algo.step`, so the
distribution, selection, estimate and update are the learner's own; only
the algorithm tag of the trace differs.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import algo, evaluate
from .metric import product_grid
from .trace import RoundRecord, Trace


def checked_grid_eps(eps) -> float:
    if (isinstance(eps, bool) or not isinstance(eps, (int, float))
            or not 0.0 < eps <= 1.0):
        raise ValueError(f"grid eps must be in (0, 1], got {eps!r}")
    return float(eps)


def uniform_grid(d: int, eps: float) -> np.ndarray:
    """Cell centers of the uniform eps-grid on [0,1]^d: K = ceil(1/eps)^d arms."""
    m = math.ceil(1.0 / checked_grid_eps(eps))
    return product_grid((np.arange(m) + 0.5) / m, d)


def default_grid_eps(T: int, d: int) -> float:
    """eps = T^(-1/(d+2)), the classic K ~ T^(d/(d+2)) discretization."""
    return float(T) ** (-1.0 / (d + 2))


def grid_eps(d: int, T: int, eps=None) -> float:
    """The grid spacing of T rounds on [0,1]^d: default_grid_eps, or an eps
    in (0, 1] whose K = ceil(1/eps)^d arms have K x T <= MAX_EVALS, K <= T."""
    if eps is None:
        return default_grid_eps(T, d)
    inv = 1.0 / checked_grid_eps(eps)  # finite from 1/MAX_EVALS on
    k = math.ceil(inv) ** d if inv <= evaluate.MAX_EVALS else math.inf
    where = f"baseline.grid_eps={eps!r} at d={d}, T={T}"
    if k * T > evaluate.MAX_EVALS:
        raise ValueError(f"{where}: its arms x T rounds exceed "
                         f"evaluate.MAX_EVALS={evaluate.MAX_EVALS}")
    if k > T:  # at most one arm per round
        raise ValueError(f"{where}: its {k} arms exceed T")
    return float(eps)


def default_params(K: int, T: int) -> algo.ParamValues:
    """Standard horizon tuning: gamma ~ sqrt(K log(KT)/T), eta = gamma/K,
    beta ~ sqrt(log(KT)/(KT)); all capped at 1/2, and beta_tilde = beta."""
    lg = math.log(max(2, K * T))
    beta = min(0.5, math.sqrt(lg / (K * T)))
    gamma = min(0.5, math.sqrt(K * lg / T))
    return algo.ParamValues(beta, beta, gamma, min(0.5, gamma / K))


class Exp3PState(algo.AlgState):
    """The learner's state over the arm rows: zooming off, constant params
    (default_params unless given) and confidence coefficient 1."""

    def __init__(self, arms: np.ndarray, T: int, seed: int = 0,
                 params: Optional[algo.ParamValues] = None,
                 record_state: bool = False):
        arms = np.atleast_2d(np.asarray(arms, dtype=np.float64))
        super().__init__(arms, T, algo.AlgoConfig(
            seed=seed, record_state=record_state, zoom_enabled=False,
            param_override=params or default_params(len(arms), T)))
        self.schedule.conf_coeff = 1.0
        self.trace.algorithm = "exp3p_uniform"


def exp3p_step(state: Exp3PState, env) -> RoundRecord:
    return algo.step(state, env)


def exp3p_run(arms, T: int, env, seed: int = 0) -> Trace:
    state = Exp3PState(arms, T, seed=seed)
    while state.t <= T:
        exp3p_step(state, env)
    return state.trace
