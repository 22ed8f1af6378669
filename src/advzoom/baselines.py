"""Reference algorithm: EXP3.P over a fixed uniform discretization.

EXP3.P is the zooming learner's core run on a flat fixed arm set: every
arm is a zero-radius node that never zooms, and the schedule is a constant
override tuned for the horizon.  Rounds go through `algo.step`, so the
distribution, selection, estimate and update are the learner's own; only
the algorithm tag of the trace differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import algo
from .trace import RoundRecord, Trace


def uniform_grid(d: int, eps: float) -> np.ndarray:
    """Cell centers of the uniform eps-grid on [0,1]^d: K = ceil(1/eps)^d arms."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    m = math.ceil(1.0 / eps)
    axis = (np.arange(m) + 0.5) / m
    if d == 1:
        return axis.reshape(-1, 1)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def default_grid_eps(T: int, d: int) -> float:
    """eps = T^(-1/(d+2)), the classic K ~ T^(d/(d+2)) discretization."""
    return float(T) ** (-1.0 / (d + 2))


@dataclass(frozen=True)
class Exp3PParams:
    beta: float
    gamma: float
    eta: float
    conf_scale: float = 1.0  # multiplier on beta/pi in the estimator


def default_params(K: int, T: int) -> Exp3PParams:
    # standard horizon tuning: gamma ~ sqrt(K log(KT)/T), eta = gamma/K,
    # beta ~ sqrt(log(KT)/(KT)); all capped at 1/2
    lg = math.log(max(2, K * T))
    gamma = min(0.5, math.sqrt(K * lg / T))
    return Exp3PParams(
        beta=min(0.5, math.sqrt(lg / (K * T))),
        gamma=gamma,
        eta=min(0.5, gamma / K),
    )


class Exp3PState(algo.AlgState):
    """The learner's state over the arm rows, zooming off, constant params."""

    def __init__(self, arms: np.ndarray, T: int, seed: int = 0,
                 params: Optional[Exp3PParams] = None,
                 record_state: bool = False):
        arms = np.atleast_2d(np.asarray(arms, dtype=np.float64))
        params = params or default_params(len(arms), T)
        override = algo.ParamValues(params.beta, params.beta, params.gamma,
                                    params.eta)
        super().__init__(arms, T, algo.AlgoConfig(
            seed=seed, record_state=record_state, zoom_enabled=False,
            param_override=override))
        self.conf_coeff = params.conf_scale
        self.trace.algorithm = "exp3p_uniform"


def exp3p_step(state: Exp3PState, env) -> RoundRecord:
    return algo.step(state, env)


def exp3p_run(arms, T: int, env, seed: int = 0,
              params: Optional[Exp3PParams] = None,
              record_state: bool = False) -> Trace:
    state = Exp3PState(arms, T, seed=seed, params=params,
                       record_state=record_state)
    while state.t <= T:
        exp3p_step(state, env)
    return state.trace
