import hashlib
import math

import numpy as np
import pytest

from advzoom import algo, baselines, evaluate
from advzoom.baselines import (
    Exp3PState,
    default_grid_eps,
    exp3p_run,
    exp3p_step,
    uniform_grid,
)
from advzoom.env import MeanFunction, StochasticEnv, env_from_spec
from advzoom.metric import FiniteMetricSpace


def two_arm_env(hi=0.6, lo=0.4, noise="bernoulli", seed=0):
    # flat on each half of [0,1]: arms 0.25 / 0.75 see a clean gap
    mean = MeanFunction(
        "custom_table", {"xs": [0.0, 0.49, 0.51, 1.0], "ys": [hi, hi, lo, lo]}
    )
    return StochasticEnv(mean, noise=noise, seed=seed)


def test_uniform_grid_examples():
    assert uniform_grid(1, 0.25).ravel().tolist() == [0.125, 0.375, 0.625, 0.875]
    assert len(uniform_grid(2, 0.5)) == 4
    with pytest.raises(ValueError):
        uniform_grid(1, 0.0)
    # default discretization gives K ~ T^(d/(d+2)) cells
    T, d = 4096, 1
    eps = default_grid_eps(T, d)
    assert len(uniform_grid(d, eps)) == math.ceil(T ** (1 / 3))


def test_single_arm_always_played():
    tr = exp3p_run(np.array([[0.5]]), 32, two_arm_env(), seed=1)
    assert all(r.node_id == 0 for r in tr.rounds)
    assert all(r.arm == (0.5,) for r in tr.rounds)


def test_two_arm_probability_monotone():
    # deterministic rewards (1, 0); with no confidence bonus the weight of
    # arm 1 never decreases and strictly grows whenever it is played
    env = two_arm_env(hi=1.0, lo=0.0, noise="none")
    params = algo.ParamValues(beta=0.0, beta_tilde=0.0, gamma=0.1, eta=0.05)
    state = Exp3PState(uniform_grid(1, 0.5), 64, seed=2, params=params,
                       record_state=True)
    probs = []
    while state.t <= 64:
        rec = exp3p_step(state, env)
        probs.append(rec.pi[0])
    assert all(b >= a - 1e-15 for a, b in zip(probs, probs[1:]))
    assert probs[-1] > probs[0]


def test_exp3p_regret_sublinear_smoke():
    regs = []
    T = 4096
    for seed in range(5):
        env = two_arm_env(seed=seed)
        tr = exp3p_run(uniform_grid(1, 0.5), T, env, seed=seed)
        regs.append(evaluate.regret(tr, env, grid=uniform_grid(1, 0.5)).regret)
    assert 0 < np.mean(regs) < 0.1 * T


def test_reduction_to_exp3p_on_fixed_nodes():
    # fixed singleton hierarchy, zooming disabled, matched constants:
    # the zooming learner's selections coincide with EXP3.P's
    pts = [0.15, 0.5, 0.85]
    K, T, seed = len(pts), 128, 6
    space = FiniteMetricSpace(pts, 1.0 - np.eye(K))
    env = two_arm_env(seed=seed)
    beta, gamma, eta = 0.02, 0.1, 0.01
    cc = 1.0 + 4.0 * math.log2(T)
    state = algo.init(
        space, T,
        algo.AlgoConfig(
            seed=seed, zoom_enabled=False, start_height=1,
            param_override=algo.ParamValues(beta, beta, gamma, eta),
        ),
    )
    assert state.n_active == K
    ztr = algo.run(state, env)
    bstate = Exp3PState(np.array(pts).reshape(-1, 1), T, seed=seed,
                        params=algo.ParamValues(beta, beta, gamma, eta),
                        record_state=True)
    bstate.schedule.conf_coeff = cc  # the zooming learner's bonus
    btr = algo.run(bstate, env)
    for zr, br in zip(ztr.rounds, btr.rounds):
        assert ztr.node_table[zr.node_id].arm == btr.node_table[br.node_id].arm
        assert zr.reward == br.reward
        assert np.allclose(zr.pi, br.pi, atol=1e-12)


def test_exp3p_run_is_audited_against_its_own_coefficient():
    # eta (1 + beta cc) vs gamma/|A| = 0.25: the run's cc = 1 holds on every
    # round, the paper's 1 + 4 log2 T = 41 would fail on every round
    T = 1024
    state = Exp3PState(uniform_grid(1, 0.5), T, seed=0,
                       params=algo.ParamValues(0.1, 0.1, 0.5, 0.1))
    assert state.schedule.conf_coeff == 1.0
    env = two_arm_env(seed=0)
    while state.t <= T:
        exp3p_step(state, env)
    rep = algo.check_assumptions(state.schedule, state.trace)
    assert rep.violations["product_clause"] == []


def test_trace_schema_shared():
    env = two_arm_env(seed=0)
    tr = exp3p_run(uniform_grid(1, 0.5), 16, env, seed=0)
    assert tr.algorithm == "exp3p_uniform"
    assert [r.t for r in tr.rounds] == list(range(1, 17))
    assert all(r.n_active == 2 and r.zoomed == () for r in tr.rounds)


# SHA-256 of EXP3.P trace CSVs written before the baseline ran through the
# zooming learner's step; the shared core must reproduce them byte for byte
EXP3P_CSV_SHA256 = {
    (1, 2048): "6dea549d6233e9871745191a7f5fc8c812eab2e7a542a4fba9e657b448e16cf3",
    (2, 1024): "3ec874a322523d1ee17b3179cc90bb86d6f725597fd59095e4ed001b78292346",
}


@pytest.mark.parametrize("d, T, spec, K", [
    (1, 2048, {"kind": "distance_to_target"}, 13),
    (2, 1024, {"kind": "distance_to_target", "target": [0.618, 0.382]}, 36),
])
def test_exp3p_trace_csv_pinned(tmp_path, d, T, spec, K):
    arms = uniform_grid(d, default_grid_eps(T, d))
    assert len(arms) == K
    tr = exp3p_run(arms, T, env_from_spec(spec, T, 3), seed=3)
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        EXP3P_CSV_SHA256[(d, T)]
