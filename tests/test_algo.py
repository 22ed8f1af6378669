import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracle
from advzoom import algo, evaluate
from advzoom.algo import AlgoConfig, ParamValues
from advzoom.env import MeanFunction, StochasticEnv, env_from_spec
from advzoom.metric import FiniteMetricSpace
from advzoom.rng import ROUND_BLOCK, uniform
from advzoom.trace import RoundRecord, Trace
from conftest import GOLD, tent_mean


class ConstEnv:
    """Deterministic reward oracle g_t(x) = value, for plumbing tests."""

    d = 1

    def __init__(self, value=1.0):
        self.value = value

    def reward(self, t, arm):
        return self.value


def fresh(T=16, seed=0, **kw):
    return algo.init(1, T, AlgoConfig(seed=seed, **kw))


# -- init ----------------------------------------------------------------


def test_init_single_root():
    st = fresh(T=16)
    assert st.n_active == 1
    assert st.nodes[0].center == (0.5,) and st.nodes[0].scale == 1.0
    st2 = algo.init(2, 16, AlgoConfig())
    assert st2.n_active == 1
    # all weights start at one, so the root has probability one
    pv = ParamValues(0.5, 0.5, 0.5, 0.5)
    assert algo.distribution(st, pv).tolist() == [1.0]
    with pytest.raises(ValueError):
        algo.init(1, 0, AlgoConfig())


def test_schedule_and_trace_take_d_from_the_space():
    # a cube's d is its dimension, a fixed arm set's the arms' length, and
    # a DAG is played at d = 1
    dag = FiniteMetricSpace([0.0, 1.0], [[0, 1], [1, 0]])
    for space, d in ((1, 1), (2, 2), (3, 3), (np.array([[0.2, 0.8]]), 2),
                     (dag, 1)):
        st = algo.init(space, 16, AlgoConfig())
        assert st.schedule.d == st.trace.d == d


def test_cube_start_level_log_c_prod_uses_the_cubes_dimension():
    # the root of a d=2 cube has 4 children, so each holds 1/4 of its weight
    st = algo.init(2, 16, AlgoConfig())
    algo.zoom_in(st, [0])
    assert st.n_active == 4
    assert st.log_c_prod.tolist() == [math.log(4)] * 4
    assert [st.trace.node_table[i].log_c_prod for i in st.ids] \
        == [math.log(4)] * 4


def test_fixed_arm_space_is_flat_and_never_zooms():
    arms = np.array([[0.2], [0.8]])
    st = algo.init(arms, 64, AlgoConfig(seed=1))
    tr = algo.run(st, ConstEnv(1.0))
    assert st.kind == "arms" and not st.zooms
    assert st.n_active == 2 and tr.zoom_events() == []
    assert [(m.arm, m.scale, m.log_c_prod) for m in tr.node_table.values()] \
        == [((0.2,), 0.0, 0.0), ((0.8,), 0.0, 0.0)]
    with pytest.raises(ValueError, match="must be"):
        algo.init(arms[:, 0], 8)


@pytest.mark.parametrize("space,error,message", [
    (2.0, TypeError, "unsupported space <class 'float'>"),
])
def test_init_names_a_start_it_cannot_make(space, error, message):
    with pytest.raises(error) as err:
        algo.init(space, 16, AlgoConfig())
    assert str(err.value) == message


@pytest.mark.parametrize("beta", [0.0, -0.1, float("nan")])
def test_a_space_that_zooms_refuses_a_beta_not_above_zero(beta):
    # the zoom test divides by beta (beta = 0 raised ZeroDivisionError at
    # t = 1 on a d=1 cube at T = 16), and beta = -0.1 passed it on a node
    # past the height bound at t = 6
    ov = ParamValues(beta, 0.1, 0.5, 0.1)
    dag = FiniteMetricSpace([0.0, 1.0], [[0, 1], [1, 0]])
    for space, kind in ((1, "cube"), (2, "cube"), (dag, "dag")):
        with pytest.raises(ValueError) as err:
            algo.init(space, 16, AlgoConfig(param_override=ov))
        assert str(err.value) == (
            f"param_override beta must be > 0 on a {kind} space, which "
            f"zooms; got {beta!r}")
    if beta == 0.0:  # a fixed arm set has no zoom test, so it takes it
        st = algo.init(np.array([[0.2], [0.8]]), 16,
                       AlgoConfig(param_override=ov))
        assert algo.run(st, ConstEnv(0.5)).n_rounds == 16


def _every_space_kind():
    return {"cube": 1, "cube_d2": 2,
            "dag": FiniteMetricSpace([0.0, 1.0], [[0, 1], [1, 0]]),
            "arms": np.array([[0.2], [0.8]])}


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,value", [
    ("beta_tilde", NAN), ("beta_tilde", -0.1), ("beta", INF),
    ("gamma", 1.5), ("gamma", -0.1), ("gamma", NAN), ("gamma", INF),
    ("eta", -0.1), ("eta", NAN), ("eta", -INF)])
@pytest.mark.parametrize("kind", sorted(_every_space_kind()))
def test_init_refuses_an_override_out_of_range(kind, field, value):
    # gamma = 1.5 ran with 1 - gamma < 0, which inverts the weights, and a
    # NaN field failed only at round 2, if at all
    ov = ParamValues(0.2, 0.2, 0.5, 0.1)._replace(**{field: value})
    rule = "in [0, 1]" if field == "gamma" else ">= 0"
    with pytest.raises(ValueError) as err:
        algo.init(_every_space_kind()[kind], 16, AlgoConfig(param_override=ov))
    assert str(err.value) == (f"param_override {field} must be finite and "
                              f"{rule}, got {value!r}")


@pytest.mark.parametrize("beta", [-0.1, NAN])
def test_a_fixed_arm_set_refuses_a_beta_below_zero_or_not_finite(beta):
    ov = ParamValues(beta, 0.1, 0.5, 0.1)
    with pytest.raises(ValueError) as err:
        algo.init(np.array([[0.2], [0.8]]), 16, AlgoConfig(param_override=ov))
    assert str(err.value) == (f"param_override beta must be finite and >= 0, "
                              f"got {beta!r}")


@pytest.mark.parametrize("c", [0.0, -1.0, NAN, INF, -INF])
@pytest.mark.parametrize("kind", sorted(_every_space_kind()))
def test_init_refuses_a_coeff_scale_not_finite_and_above_zero(kind, c):
    with pytest.raises(ValueError) as err:
        algo.init(_every_space_kind()[kind], 16, AlgoConfig(coeff_scale=c))
    assert str(err.value) == f"coeff_scale must be finite and > 0, got {c!r}"


@pytest.mark.parametrize("kind", sorted(_every_space_kind()))
def test_init_takes_the_edges_of_the_override_ranges(kind):
    space = _every_space_kind()[kind]
    zooms = kind != "arms"
    for ov in (ParamValues(0.5, 0.0, 0.0, 0.0), ParamValues(0.1, 0.1, 1.0, 0.1),
               ParamValues(0.0 if not zooms else 1e-300, 2.0, 1.0, 3.0)):
        assert algo.init(space, 16, AlgoConfig(param_override=ov,
                                               coeff_scale=1e-9)).t == 1


_FIELD = hst.one_of(hst.floats(0.0, 1.0), hst.floats(-0.5, 2.0),
                    hst.sampled_from([0.0, 1.0, NAN, INF, -INF]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kind=hst.sampled_from(sorted(_every_space_kind())),
       ov=hst.one_of(hst.none(), hst.tuples(*[_FIELD] * 4)),
       c=hst.one_of(hst.just(1.0), hst.floats(-1.0, 4.0), _FIELD),
       T=hst.integers(1, 256))
def test_init_refuses_or_every_pi_is_a_distribution(kind, ov, c, T):
    space = _every_space_kind()[kind]
    cfg = AlgoConfig(param_override=ov and ParamValues(*ov), coeff_scale=c)
    try:
        st = algo.init(space, T, cfg)
    except ValueError:
        return
    env = StochasticEnv(tent_mean(target=[GOLD, 0.382] if kind == "cube_d2"
                                  else GOLD), seed=1)
    for rec in algo.run(st, env).rounds:
        assert rec.pi.min() >= 0.0 and abs(rec.pi.sum() - 1.0) <= 1e-12
        assert 0.0 <= rec.reward <= 1.0


@pytest.mark.parametrize("K,T", [(1, 1), (2, 2), (2, 16384), (1025, 2048)])
def test_default_params_pass_init(K, T):
    from advzoom.baselines import default_params

    arms = (np.arange(K) / K).reshape(-1, 1)
    ov = default_params(K, T)
    assert algo.init(arms, T, AlgoConfig(param_override=ov)).schedule \
        .override == ov


# -- parameter schedule --------------------------------------------------


def test_params_round_one_clamps_to_half():
    st = fresh(T=16)
    pv = st.schedule.advance(1, 1)
    assert pv == ParamValues(0.5, 0.5, 0.5, 0.5)


def test_params_formula_independent_recomputation():
    # recompute the schedule value from scratch for the spec'd point
    T, t, a, n_dbl, d = 2**10, 512, 4, 2, 1
    expected = math.sqrt(
        (2 * math.log(a * T**3) * math.log(n_dbl * a))
        / (t * a * d * math.log(T) ** 2)
    )
    assert algo.raw_param(t, a, T, n_dbl, d) == pytest.approx(expected, rel=1e-12)
    assert expected < 0.5  # deep enough that the clamp is inactive
    sched = algo.ParamSchedule(T, n_dbl, d)
    for tau in range(1, t + 1):
        pv = sched.advance(tau, a)
    assert pv.beta == pytest.approx(expected, rel=1e-12)
    assert pv.beta_tilde == pv.beta == pv.eta
    assert pv.gamma == min(0.5, (2 + 4 * math.log2(T)) * a * pv.beta)


def test_params_monotone_under_jumps():
    sched = algo.ParamSchedule(2**12, 2, 1)
    sizes = [1, 1, 2, 2, 4, 3, 8, 1, 16, 2] * 30
    betas = [sched.advance(t + 1, sizes[t % len(sizes)]).beta
             for t in range(300)]
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(betas, betas[1:]))
    assert all(0.0 < b <= 0.5 for b in betas)


@pytest.mark.parametrize("T, n_dbl, d", [(4096, 2, 1.0), (2048, 25, 2.0),
                                          (1, 2, 1.0)])
def test_schedule_equals_the_uncached_running_minimum(T, n_dbl, d):
    # |A_t| jumps anywhere in 1..64, so every size's cached logs are reused
    # out of order
    sizes = np.random.default_rng(T).integers(1, 65, size=T).tolist()
    sched = algo.ParamSchedule(T, n_dbl, d)
    running = 0.5
    for t, a in enumerate(sizes, start=1):
        running = min(min(0.5, algo.raw_param(t, a, T, n_dbl, d)), running)
        pv = sched.advance(t, a)
        assert pv.beta == pv.beta_tilde == pv.eta == running
        assert pv.gamma == min(0.5, sched.gamma_coeff * a * running)
    assert len(set(sizes)) == min(T, 64)


def test_params_override():
    ov = ParamValues(0.25, 0.25, 0.25, 0.25)
    st = fresh(T=16, param_override=ov)
    assert st.schedule.advance(1, 1) == ov


# -- distribution ---------------------------------------------------------


def two_node_state(log_c_prods, g_hats=(0.0, 0.0)):
    st = fresh(T=16)
    algo.zoom_in(st, [0])  # root -> two children
    st.log_c_prod = np.array(log_c_prods, dtype=float)
    st.g_hat = np.array(g_hats, dtype=float)
    return st


def test_distribution_symmetry_and_weights():
    st = two_node_state([math.log(2), math.log(2)])
    pv = ParamValues(0.1, 0.1, 0.0, 0.1)
    assert algo.distribution(st, pv).tolist() == pytest.approx([0.5, 0.5])
    # weights 1/4 vs 1 under the closed form
    st = two_node_state([math.log(4), 0.0])
    pi = algo.distribution(st, pv)
    assert pi.tolist() == pytest.approx([0.2, 0.8])


def test_distribution_floor_and_sum():
    st = two_node_state([0.0, 0.0], g_hats=(50.0, 0.0))
    pv = ParamValues(0.1, 0.1, 0.4, 0.1)
    pi = algo.distribution(st, pv)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert pi.min() >= 0.4 / 2 - 1e-12


def test_distribution_rejects_nonfinite():
    st = fresh(T=16)
    st.g_hat = np.array([np.inf])
    with pytest.raises(ArithmeticError):
        algo.distribution(st, ParamValues(0.5, 0.5, 0.5, 0.5))


@pytest.mark.parametrize("at", [0, 1])
@pytest.mark.parametrize("g_hat, log_c_prod", [
    (np.nan, 0.0),  # NaN
    (np.inf, 0.0),  # +inf
    (0.0, np.inf),  # -inf, through log c_prod
])
def test_distribution_rejects_nonfinite_on_any_node(at, g_hat, log_c_prod):
    st = two_node_state([0.0, 0.0], [1.0, 2.0])
    st.g_hat[at], st.log_c_prod[at] = g_hat, log_c_prod
    with pytest.raises(ArithmeticError, match="non-finite"):
        algo.distribution(st, ParamValues(0.5, 0.5, 0.5, 0.5))


# -- selection -------------------------------------------------------------


def test_select_single_and_degenerate():
    st = fresh(T=16)
    idx, arm = algo.select(st, np.array([1.0]))
    assert idx == 0 and arm == (0.5,)
    st2 = two_node_state([0.0, 0.0])
    for t in range(1, 20):
        st2.t = t
        idx, _ = algo.select(st2, np.array([1.0, 0.0]))
        assert idx == 0


def test_select_draws_the_scalar_uniform_of_its_round():
    T, B = 3000, ROUND_BLOCK
    st = algo.init(1, T, AlgoConfig(seed=7))
    algo.zoom_in(st, [0])  # two nodes
    # window edges, the horizon and past it, then backwards
    for t in [1, 2, B, B + 1, 2 * B, 2 * B + 1, T, T + 1, T + 5000, B + 1, 1,
              7]:
        st.t = t
        u = float(uniform(st.select_key, t))
        # pi_0 = u is drawn past only by a draw >= u, and pi_0 just above u
        # only by a draw > u, so the draw is u exactly
        assert algo.select(st, np.array([u, 1.0 - u]))[0] == 1
        assert algo.select(st, np.array([np.nextafter(u, 1.0), 1.0 - u]))[0] \
            == 0


def test_select_monte_carlo_frequencies():
    st = two_node_state([0.0, 0.0])
    pi = np.array([0.2, 0.8])
    hits = 0
    n = 100_000
    for t in range(1, n + 1):
        st.t = t
        idx, _ = algo.select(st, pi)
        hits += idx == 0
    assert hits / n == pytest.approx(0.2, abs=0.01)


# -- estimator and update ----------------------------------------------------


def test_estimate_spec_values():
    st = fresh(T=16)  # conf coefficient 1 + 4*4 = 17
    pv = ParamValues(0.5, 0.5, 0.5, 0.5)
    ghat = algo.estimate(st, 0, 0.3, np.array([1.0]), pv)
    assert ghat[0] == pytest.approx(0.3 + 17 * 0.5)
    st2 = two_node_state([0.0, 0.0])
    pv2 = ParamValues(0.1, 0.1, 0.5, 0.1)
    ghat2 = algo.estimate(st2, 0, 1.0, np.array([0.75, 0.25]), pv2)
    assert ghat2[1] == pytest.approx(17 * 0.1 / 0.25)  # = 6.8, unselected
    ghat3 = algo.estimate(st2, 0, 0.0, np.array([0.75, 0.25]), pv2)
    assert ghat3[0] == pytest.approx(17 * 0.1 / 0.75)  # reward 0: bonus only
    with pytest.raises(ValueError):
        algo.estimate(st, 0, 1.5, np.array([1.0]), pv)


def test_update_accumulates():
    env = ConstEnv(0.7)
    st = algo.init(1, 4, AlgoConfig(seed=1))
    algo.step(st, env)
    # single node, pi = 1: G_hat equals the round's estimate exactly
    cc = 1 + 4 * math.log2(4)
    assert st.g_hat[0] == pytest.approx(0.7 + cc * 0.5)
    assert st.s_conf[0] == pytest.approx(0.5)
    algo.step(st, env)
    assert st.s_conf[0] == pytest.approx(1.0)  # beta stays clamped at 1/2


# -- zoom rule ---------------------------------------------------------------


def test_zoom_check_instantaneous_part():
    st = fresh(T=16)
    pi = np.array([0.2])
    st.s_conf = np.array([0.0])
    st.t = 100
    pv = ParamValues(0.1, 0.1, 0.5, 0.1)
    # conf_inst = 0.1 + 0.1/0.2 = 0.6 <= e - 1; conf_tot = 10 <= 100
    assert algo.zoom_check(st, pi, pv).tolist() == [0]
    # same but failing the aggregate test
    st.t = 9
    assert algo.zoom_check(st, pi, pv).tolist() == []


def scalar_zoom_rule(state, i, pi, pv):
    """The zoom test of one node as a scalar rule, for comparison."""
    L = state.nodes[i].scale
    inst = pv.beta_tilde + pv.beta / pi[i]
    if inst > math.expm1(L):
        return False
    tot = 1.0 / pv.beta + state.s_conf[i]
    return tot <= state.t * L


def on_the_bound(f, bound, x):
    """A float within 4 ulps of x with f(x) == bound exactly, or None."""
    down, up = [x], [x]
    for _ in range(4):
        down.append(np.nextafter(down[-1], -np.inf))
        up.append(np.nextafter(up[-1], np.inf))
    return next((y for y in up + down if f(y) == bound), None)


def zoom_test_states():
    """Active sets with mixed scales on a d=1 and a d=2 cube, a DAG and
    a fixed arm set."""
    cube1 = algo.init(1, 1024)
    algo.zoom_in(cube1, [0])
    algo.zoom_in(cube1, [0])
    algo.zoom_in(cube1, [1])
    cube2 = algo.init(2, 1024)
    algo.zoom_in(cube2, [0])
    algo.zoom_in(cube2, [2])
    x = (np.arange(30) + np.random.default_rng(2).random(30)) / 30
    dag = algo.init(FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x)),
                    1024, AlgoConfig(n_dbl=2))
    algo.zoom_in(dag, [0])
    algo.zoom_in(dag, [0])
    arms = algo.init(np.array([[0.2], [0.5], [0.8]]), 1024)
    return {"cube1": cube1, "cube2": cube2, "dag": dag, "arms": arms}


@pytest.mark.parametrize("name", ["cube1", "cube2", "dag", "arms"])
def test_zoom_check_equals_the_per_node_rule(name):
    st = zoom_test_states()[name]
    n = st.n_active
    assert len(st.scale) == len(st.expm1_scale) == n
    gen = np.random.default_rng(5)
    decided = set()
    # random rounds: pi, S_conf, t and the schedule anywhere in range
    for _ in range(400):
        beta = float(10 ** gen.uniform(-4, math.log10(0.5)))
        pv = ParamValues(beta, beta * gen.uniform(0.5, 1.0), 0.5, beta)
        pi = gen.dirichlet(np.full(n, 0.3)) + 1e-9
        st.s_conf = gen.uniform(0, 2e4, n)
        st.t = int(10 ** gen.uniform(0, 6))
        want = [i for i in range(n) if scalar_zoom_rule(st, i, pi, pv)]
        assert algo.zoom_check(st, pi, pv).tolist() == want
        decided.update(want)
    # both tests exactly on their bound e^L - 1 and t*L, then one ulp off
    on_bound = 0
    for _ in range(200):
        beta = float(10 ** gen.uniform(-3, -2))
        pv = ParamValues(beta, beta / 2, 0.5, beta)
        st.t = int(gen.integers(1000, 10**6))
        pi = np.full(n, 0.5)
        st.s_conf = np.zeros(n)
        for i, (L, em1) in enumerate(zip(st.scale, st.expm1_scale)):
            p = None
            if L > 0:
                p = on_the_bound(lambda x: pv.beta_tilde + pv.beta / x, em1,
                                 pv.beta / (em1 - pv.beta_tilde))
            s = on_the_bound(lambda x: 1.0 / pv.beta + x, st.t * L,
                             st.t * L - 1.0 / pv.beta)
            if p is not None:
                pi[i] = p
            if s is not None:
                st.s_conf[i] = s
            on_bound += s is not None and (p is not None or L == 0)
        for col in (pi, st.s_conf):
            shift = gen.integers(-1, 2, n)
            col[shift < 0] = np.nextafter(col[shift < 0], -np.inf)
            col[shift > 0] = np.nextafter(col[shift > 0], np.inf)
        want = [i for i in range(n) if scalar_zoom_rule(st, i, pi, pv)]
        assert algo.zoom_check(st, pi, pv).tolist() == want
        decided.update(want)
    assert on_bound > 100
    if name == "arms":
        # L = 0: e^L - 1 = 0 < beta_tilde, so a fixed arm never zooms
        assert decided == set()
    else:
        assert decided == set(range(n))


def test_no_zoom_at_round_one():
    # conf_tot >= 1/beta = 2 > 1 * L for any node at t = 1
    st = algo.init(1, 1, AlgoConfig(seed=0))
    rec = algo.step(st, ConstEnv(1.0))
    assert rec.zoomed == () and st.n_active == 1
    assert st.t == 2


def test_zoom_in_inheritance():
    st = fresh(T=16)
    st.g_hat = np.array([5.0])
    st.s_conf = np.array([2.0])
    st.t = 7
    algo.zoom_in(st, [0])
    assert st.n_active == 2
    assert [n.center[0] for n in st.nodes] == [0.25, 0.75]
    assert st.g_hat.tolist() == [5.0, 5.0]
    assert st.s_conf.tolist() == [2.0, 2.0]
    assert st.log_c_prod.tolist() == pytest.approx([math.log(2)] * 2)
    for nid in st.ids:
        assert st.trace.node_table[nid].tau0 == 8
    # zoom one child: grandchildren carry log(2) + log(2)
    algo.zoom_in(st, [0])
    assert st.log_c_prod[-1] == pytest.approx(2 * math.log(2))
    # zoom two nodes at once: children follow the survivors in parent order,
    # each inheriting its own parent's scalars, with contiguous new ids
    st.g_hat = np.array([1.0, 2.0, 3.0])
    st.s_conf = np.array([4.0, 5.0, 6.0])
    st.t = 9
    parents = list(st.nodes[:2])
    first_new = len(st.trace.node_table)
    algo.zoom_in(st, [0, 1])
    assert st.nodes == [st.nodes[0]] + [c for p in parents for c in p.children]
    assert st.g_hat.tolist() == [3.0, 1.0, 1.0, 2.0, 2.0]
    assert st.s_conf.tolist() == [6.0, 4.0, 4.0, 5.0, 5.0]
    assert st.ids[1:] == tuple(range(first_new, first_new + 4))
    assert [st.trace.node_table[i].tau0 for i in st.ids[1:]] == [10] * 4


def test_zoom_weight_conservation():
    # equal split under the closed form: children weights sum to the parent's
    st = fresh(T=16)
    st.g_hat = np.array([3.0])
    eta = 0.03
    parent_w = math.exp(eta * st.g_hat[0] - st.log_c_prod[0])
    algo.zoom_in(st, [0])
    child_w = np.exp(eta * st.g_hat - st.log_c_prod)
    assert child_w.sum() == pytest.approx(parent_w)


def test_zoom_height_guard():
    st = fresh(T=4)  # log2 T = 2
    for _ in range(3):
        algo.zoom_in(st, [0])
    algo.zoom_in(st, [len(st.nodes) - 1])  # height 2 = log2 T: allowed
    assert max(n.height for n in st.nodes) == 3
    with pytest.raises(RuntimeError, match="height"):
        algo.zoom_in(st, [len(st.nodes) - 1])  # height 3 > log2 T


# -- step / run ----------------------------------------------------------


def test_step_records_increasing_t():
    st = fresh(T=32, seed=3)
    tr = algo.run(st, ConstEnv(0.5))
    assert [r.t for r in tr.rounds] == list(range(1, 33))
    with pytest.raises(RuntimeError, match="horizon"):
        algo.step(st, ConstEnv(0.5))


def test_step_records_the_drawn_pi_itself(monkeypatch):
    # nothing writes to pi after it is drawn, so the snapshot is that very
    # array; update adds into G_hat in place, so its snapshot is a copy
    drawn = []
    distribution = algo.distribution

    def kept(state, pv):
        drawn.append(distribution(state, pv))
        return drawn[-1]

    monkeypatch.setattr(algo, "distribution", kept)
    st = fresh(T=64, seed=2)
    tr = algo.run(st, env_from_spec({"kind": "distance_to_target"}, 64, 2))
    assert len(drawn) == len(tr.rounds) == 64
    assert all(rec.pi is pi for rec, pi in zip(tr.rounds, drawn))
    assert tr.rounds[-1].g_hat is not st.g_hat
    assert evaluate.monitor(tr) == []


def test_run_matches_naive_oracle_trace():
    env = StochasticEnv(tent_mean(), seed=11)
    st = algo.init(1, 200, AlgoConfig(seed=11))
    tr = algo.run(st, env)
    log = oracle.run_naive(1, 200, env, 11)
    for rec, orec in zip(tr.rounds, log):
        assert tr.node_table[rec.node_id].arm == orec["arm"]
        assert rec.reward == orec["reward"]
        assert sorted(tr.node_table[z].arm for z in rec.zoomed) == \
            sorted(orec["zoomed"])
        for i, nid in enumerate(rec.active_ids):
            meta = tr.node_table[nid]
            lw = rec.eta * rec.g_hat[i] - meta.log_c_prod
            ref = orec["log_weights"][meta.arm]
            assert abs(lw - ref) <= 1e-9 * max(1.0, abs(ref))


def test_determinism_same_seed():
    env = StochasticEnv(tent_mean(), seed=4)
    t1 = algo.run(algo.init(1, 128, AlgoConfig(seed=4)), env)
    t2 = algo.run(algo.init(1, 128, AlgoConfig(seed=4)), env)
    assert [r.node_id for r in t1.rounds] == [r.node_id for r in t2.rounds]
    assert t1.rewards().tolist() == t2.rewards().tolist()
    t3 = algo.run(algo.init(1, 128, AlgoConfig(seed=5)), env)
    assert [r.node_id for r in t1.rounds] != [r.node_id for r in t3.rounds]


def test_newborn_children_never_zoom_immediately():
    env = StochasticEnv(tent_mean(), seed=9)
    st = algo.init(1, 512, AlgoConfig(seed=9))
    tr = algo.run(st, env)
    tau1 = {nid: t for t, nid in tr.zoom_events()}
    assert tau1, "run should zoom at least once"
    for nid, t in tau1.items():
        meta = tr.node_table[nid]
        assert t > meta.tau0  # active for at least one full round
        if meta.parent_id is not None:
            assert t >= 2 * tau1[meta.parent_id] - 2


def test_debug_invariants_clean():
    # the monitor, which gates every debug run, flags nothing
    env = StochasticEnv(tent_mean(), seed=2)
    tr = algo.run(algo.init(1, 256, AlgoConfig(seed=2)), env)
    assert evaluate.monitor(tr) == []


def test_active_set_never_shrinks_on_cubes():
    env = StochasticEnv(tent_mean(), seed=13)
    st = algo.init(1, 512, algo.AlgoConfig(seed=13))
    tr = algo.run(st, env)
    curve = tr.n_active_curve()
    assert (np.diff(curve) >= 0).all()
    assert curve[-1] > 1


def test_two_dimensional_run():
    from advzoom import evaluate

    mean = MeanFunction(
        "distance_to_target",
        {"target": (0.6180339887498949, 0.3819660112501051), "peak": 0.8},
    )
    env = StochasticEnv(mean, seed=3)
    st = algo.init(2, 256, algo.AlgoConfig(seed=3))
    tr = algo.run(st, env)
    assert tr.d == 2 and tr.n_dbl == 4
    assert len(tr.zoom_events()) >= 1
    # quadrant splits: every zoomed node contributes exactly four children
    for _, nid in tr.zoom_events():
        kids = [m for m in tr.node_table.values() if m.parent_id == nid]
        assert len(kids) == 4
    assert evaluate.monitor(tr) == []
    rep = evaluate.regret(tr, env, grid_eps=1 / 64)
    assert rep.n_grid == 65**2 and rep.regret > 0


def test_cube_start_height():
    # two levels zoomed before round 1: the four cells at height 2
    st = algo.init(1, 64, algo.AlgoConfig(seed=0))
    algo.zoom_in(st, [0])
    algo.zoom_in(st, [0, 1])
    assert st.n_active == 4
    assert st.log_c_prod.tolist() == pytest.approx([2 * math.log(2)] * 4)
    assert {n.center[0] for n in st.nodes} == {0.125, 0.375, 0.625, 0.875}


# -- finite metric spaces ------------------------------------------------


def test_run_on_finite_space():
    pts = [0.1, 0.35, 0.6, 0.85]
    dist = np.abs(np.subtract.outer(pts, pts))
    space = FiniteMetricSpace(pts, dist)
    env = StochasticEnv(tent_mean(), seed=5)
    st = algo.init(space, 64, AlgoConfig(seed=5))
    tr = algo.run(st, env)
    assert tr.n_rounds == 64
    played = {r.arm[0] for r in tr.rounds}
    assert played <= set(pts)


# SHA-256 of DAG trace CSVs, pinned before all node kinds shared one
# scale/children protocol, from the root and from the root's children.  The
# second is the CSV of the run that started at height 1 (a removed option)
# with every node id one higher: the root, zoomed before round 1, holds id 0
DAG_CSV_SHA256 = {
    0: "a55fce8e7303775053f4f4004715540a0415c223f5613d33fd78f2620ef407d2",
    1: "3e6c488f8b2832312a5e9f91ccf9394c22ade28846e145e35dbc23573602daad",
}
# the same for the d=2 cube's four level-1 cells
CUBE_D2_LEVEL_1_CSV_SHA256 = (
    "ecfacd817290a8175938eb22cb72471f3f478f535d3e76e68feec1dd3b9edf39"
)


def csv_sha256(trace, path):
    trace.write_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dag_run(levels=0):
    """The DAG run, its root zoomed before round 1 when levels is 1."""
    # n_dbl is fixed so the pin does not depend on the doubling estimate
    x = (np.arange(30) + np.random.default_rng(2).random(30)) / 30
    space = FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x))
    environment = env_from_spec({"kind": "distance_to_target"}, 1024, 2)
    st = algo.init(space, 1024, AlgoConfig(seed=2, n_dbl=2))
    if levels:
        algo.zoom_in(st, [0])
    return algo.run(st, environment)


@pytest.mark.parametrize("levels", [0, 1])
def test_dag_trace_is_pinned(tmp_path, levels):
    digest = csv_sha256(dag_run(levels), tmp_path / "trace.csv")
    assert digest == DAG_CSV_SHA256[levels]


def test_cube_d2_start_height_trace_is_pinned(tmp_path):
    environment = env_from_spec(
        {"kind": "distance_to_target", "target": [0.618, 0.382]}, 1024, 3)
    st = algo.init(2, 1024, AlgoConfig(seed=3))
    algo.zoom_in(st, [0])
    digest = csv_sha256(algo.run(st, environment), tmp_path / "trace.csv")
    assert digest == CUBE_D2_LEVEL_1_CSV_SHA256


# SHA-256 of the trace CSVs of the root cube run with zooming switched off
# (a removed option), pinned before it was removed: the learner on the
# one-arm space at the cube's centre is that learner
ONE_ARM_CSV_SHA256 = {
    1: "7f5ba39c33e2bb4a1f8691e3a299a9b9a1b610f0d883eafcc090b63bd160e0c8",
    2: "5956bfd0e7a8bab4ca8539f28db0845a6529c6a572b2b12f6456965cc9f4edac",
}


@pytest.mark.parametrize("d", [1, 2])
def test_one_arm_space_is_the_learner_that_does_not_zoom(tmp_path, d):
    spec = {"kind": "distance_to_target"}
    if d == 2:
        spec["target"] = [0.618, 0.382]
    environment = env_from_spec(spec, 1024, 0)
    st = algo.init(np.full((1, d), 0.5), 1024, AlgoConfig(seed=0))
    digest = csv_sha256(algo.run(st, environment), tmp_path / "trace.csv")
    assert digest == ONE_ARM_CSV_SHA256[d]


# SHA-256 of every round's pi bytes and of every round's g_hat bytes, which
# the monitor reads and the CSV pins do not cover; pinned before the
# selection uniforms were drawn a block of rounds at a time.  pi goes through
# np.exp, whose last bits depend on the SIMD kernel numpy dispatches it to,
# so the pins are keyed by that kernel's exp_kernel() digest
SNAPSHOT_SHA256 = {
    # X86_V4 (AVX-512)
    "3cdb30cea43dd1b9b09d95f3a417b4140c77788deea2e022749aea823c1768b5": {
        "cube_d2": (
            "ce61beb18c80ca03693dfa30d06278b9abacfb9e074781094f1c0c9b98ffd607",
            "53e3d5e111ed05272934f702683715b0fc73c01350045871f11da6731649005f"),
        "dag40": (
            "de293816a257b86b858e7484f82a6495c96407b1827886a423023973c9037a86",
            "5f5d65bd22eb1307b570ba0f703ad289babaeeb7b34e1e404517d6360b1c8117"),
    },
    # X86_V3 (AVX2), and the baseline kernel, whose exp gives the same bits
    "5de75ac7693a2101be11550ba62814dc73bcfbab2a1c1fc96b99775e9f8680f5": {
        "cube_d2": (
            "c9449c9a5ce4c959362981a7f83716d93be8cdc6a00d11c58dce1b22bec52e15",
            "3b1e62877dbfa19e8531df5cc6c72b8e9852ff18ee7153b93eee3bc15851e2de"),
        "dag40": (
            "eb120ba8597fb53cf4d23c96a2e29be3815187e0be2e8e21be8b170aae4fddc9",
            "5f5d65bd22eb1307b570ba0f703ad289babaeeb7b34e1e404517d6360b1c8117"),
    },
}


def exp_kernel():
    """SHA-256 of np.exp on 4,097 points of [-40, 0]: it tells apart the
    kernels whose last bits differ."""
    probe = np.exp(np.linspace(-40.0, 0.0, 4097))
    return hashlib.sha256(probe.tobytes()).hexdigest()


def snapshot_run(name):
    if name == "cube_d2":
        environment = env_from_spec(
            {"kind": "distance_to_target", "target": [0.618, 0.382]}, 2048, 3)
        return algo.run(algo.init(2, 2048, AlgoConfig(seed=3)), environment)
    x = (np.arange(40) + np.random.default_rng(4).random(40)) / 40
    space = FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x))
    environment = env_from_spec({"kind": "distance_to_target"}, 1024, 4)
    return algo.run(algo.init(space, 1024, AlgoConfig(seed=4, n_dbl=2)),
                    environment)


@pytest.mark.parametrize("name", ["cube_d2", "dag40"])
def test_snapshots_are_pinned(name):
    kernel = exp_kernel()
    if kernel not in SNAPSHOT_SHA256:
        dispatch = (np.lib.introspect.opt_func_info(
            func_name="^exp$", signature="float64")
            if hasattr(np.lib, "introspect") else "")
        pytest.fail(f"no snapshot pins for the np.exp kernel {kernel} of "
                    f"numpy {np.__version__} {dispatch}")
    pi, g_hat = hashlib.sha256(), hashlib.sha256()
    for rec in snapshot_run(name).rounds:
        pi.update(rec.pi.tobytes())
        g_hat.update(rec.g_hat.tobytes())
    assert (pi.hexdigest(), g_hat.hexdigest()) == \
        SNAPSHOT_SHA256[kernel][name]


def test_dag_children_shared_by_two_parents_activate_once():
    tr = dag_run()
    for rec in tr.rounds:
        keys = [(tr.node_table[i].height, tr.node_table[i].arm)
                for i in rec.active_ids]
        assert len(keys) == len(set(keys)), f"round {rec.t}: duplicate ball"
    listed = sum(tr.node_table[nid].n_children for _, nid in tr.zoom_events())
    activated = sum(m.parent_id is not None for m in tr.node_table.values())
    # children shared between zoomed balls were listed more than once but
    # activated once (25 listed, 13 activated), so the dedup fired
    assert listed > activated


def arms_run(name):
    """(state, env) of a run whose select reads each node's arm from the
    list kept next to its id."""
    if name == "dag40":
        x = (np.arange(40) + np.random.default_rng(4).random(40)) / 40
        space = FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x))
        return (algo.init(space, 1024, AlgoConfig(seed=4, n_dbl=2)),
                env_from_spec({"kind": "distance_to_target"}, 1024, 4))
    d = int(name[-1])
    target = [0.618, 0.382][:d]
    st = algo.init(d, 4096, AlgoConfig(seed=5))
    algo.zoom_in(st, [0])  # then every cell at height 1
    algo.zoom_in(st, range(st.n_active))
    return (st,
            env_from_spec({"kind": "distance_to_target", "target": target},
                          4096, 5))


def assert_active_set_is_the_node_table(state):
    """Each active node's arm, log c_prod, L and e^L - 1 (by math.expm1)
    are its node-table row's, bit for bit."""
    rows = [state.trace.node_table[i] for i in state.ids]
    assert state.arms == [m.arm for m in rows], f"round {state.t}"
    for name, want in (("log_c_prod", [m.log_c_prod for m in rows]),
                       ("scale", [m.scale for m in rows]),
                       ("expm1_scale", [math.expm1(m.scale) for m in rows])):
        assert [float(v).hex() for v in getattr(state, name)] == \
            [float(v).hex() for v in want], (name, state.t)


@pytest.mark.parametrize("name", ["cube_d1", "cube_d2", "dag40"])
def test_active_arms_follow_the_ids_after_every_zoom_in(name, monkeypatch):
    real_init, real_zoom_in, zooms = algo.init, algo.zoom_in, []

    def checked_init(*args):
        state = real_init(*args)
        assert_active_set_is_the_node_table(state)
        return state

    def checked(state, zoom_idx):
        zoomed = real_zoom_in(state, zoom_idx)
        assert_active_set_is_the_node_table(state)
        zooms.append(len(zoomed))
        return zoomed

    monkeypatch.setattr(algo, "init", checked_init)
    monkeypatch.setattr(algo, "zoom_in", checked)
    st, environment = arms_run(name)  # the cubes zoom twice here
    zooms.clear()
    tr = algo.run(st, environment)
    assert len(zooms) >= 4
    if name == "dag40":  # some zoomed balls shared a child
        listed = sum(tr.node_table[nid].n_children
                     for _, nid in tr.zoom_events())
        assert listed > sum(m.parent_id is not None
                            for m in tr.node_table.values())


# -- anytime --------------------------------------------------------------


def test_anytime_phases():
    env = ConstEnv(0.5)
    phases = algo.run_anytime(1, AlgoConfig(seed=0), 7, env)
    assert [tr.n_rounds for tr in phases] == [1, 2, 4]
    assert [tr.T for tr in phases] == [1, 2, 4]
    phases1 = algo.run_anytime(1, AlgoConfig(seed=0), 1, env)
    assert [tr.n_rounds for tr in phases1] == [1]
    assert [tr.T for tr in phases1] == [1]
    # the last phase is cut short of its horizon by the round budget
    phases6 = algo.run_anytime(1, AlgoConfig(seed=0), 6, env)
    assert [tr.n_rounds for tr in phases6] == [1, 2, 3]
    assert [tr.T for tr in phases6] == [1, 2, 4]
    with pytest.raises(ValueError):
        algo.run_anytime(1, AlgoConfig(), 0, env)


# -- schedule assumption audit ---------------------------------------------


def test_assumptions_round_one_flagged():
    st = fresh(T=16, seed=1)
    tr = algo.run(st, ConstEnv(0.4))
    rep = algo.check_assumptions(st.schedule, tr)
    # eta (1 + beta (1 + 4 log2 T)) = 0.5 * (1 + 0.5 * 17) > 0.5 = gamma/|A|
    assert 1 in rep.violations["product_clause"]
    assert not rep.ok


def test_assumptions_constant_schedule():
    ov = ParamValues(0.25, 0.25, 0.25, 0.25)
    st = algo.init(np.array([[0.5]]), 2, AlgoConfig(seed=0, param_override=ov))
    tr = algo.run(st, ConstEnv(0.4))
    rep = algo.check_assumptions(st.schedule, tr)
    assert rep.violations["eta_le_beta"] == []
    assert rep.violations["beta_le_gamma_share"] == []
    assert rep.violations["tilde_ge_beta"] == []


def test_assumptions_tuned_late_rounds_clean():
    env = StochasticEnv(tent_mean(), seed=7)
    st = algo.init(1, 4096, AlgoConfig(seed=7, record_state=False))
    tr = algo.run(st, env)
    rep = algo.check_assumptions(st.schedule, tr)
    late = set(range(3600, 4097))
    for clause in ("eta_le_beta", "beta_le_gamma_share", "product_clause",
                   "tilde_nonincreasing", "tilde_ge_beta"):
        assert not late & set(rep.violations[clause]), clause


def assumptions_reference(schedule, trace):
    """check_assumptions as a loop over the records, one clause at a time:
    the reference for its column-wise form."""
    tol = 1e-12
    cc = schedule.conf_coeff
    formula = schedule.override is None
    out = {
        "eta_le_beta": [],
        "beta_le_gamma_share": [],
        "product_clause": [],
        "tilde_nonincreasing": [],
        "tilde_ge_beta": [],
        "tilde_window": [],
    }
    capped = []
    prev = None
    for k, rec in enumerate(trace.rounds):
        share = rec.gamma / rec.n_active
        if formula and schedule.gamma_coeff * rec.n_active * rec.beta >= 0.5:
            capped.append(rec.t)
        if rec.eta > rec.beta + tol:
            out["eta_le_beta"].append(rec.t)
        if rec.beta > share + tol:
            out["beta_le_gamma_share"].append(rec.t)
        if rec.eta * (1.0 + rec.beta * cc) > share + tol:
            out["product_clause"].append(rec.t)
        if prev is not None and rec.beta_tilde > prev.beta_tilde + tol:
            out["tilde_nonincreasing"].append(rec.t)
        if rec.beta_tilde < rec.beta - tol:
            out["tilde_ge_beta"].append(rec.t)
        if k + 1 < len(trace.rounds):
            nxt = trace.rounds[k + 1]
            if rec.beta_tilde > 1.0 / nxt.beta - 1.0 / rec.beta + tol:
                out["tilde_window"].append(rec.t)
        prev = rec
    return algo.AssumptionReport(violations=out, gamma_capped=capped)


def audited_runs(case):
    """(schedule, trace) pairs of one kind of run, for the audit check."""
    env = StochasticEnv(tent_mean(), seed=3)
    if case in ("0", "1", "2"):
        st = fresh(T=16, seed=3)
        return [(st.schedule, algo.run(st, env, rounds=int(case)))]
    if case in ("4096", "4096_c1_32"):
        st = algo.init(1, 4096, AlgoConfig(
            seed=3, record_state=False,
            coeff_scale=1 / 32 if case == "4096_c1_32" else 1.0))
        return [(st.schedule, algo.run(st, env))]
    if case == "override":  # beta_tilde above beta, then below it
        pairs = []
        for ov in (ParamValues(0.2, 0.3, 0.4, 0.25),
                   ParamValues(0.3, 0.2, 0.5, 0.35)):
            st = fresh(T=256, seed=3, param_override=ov)
            pairs.append((st.schedule, algo.run(st, env)))
        return pairs
    if case == "exp3p":
        from advzoom.baselines import Exp3PState, uniform_grid
        st = Exp3PState(uniform_grid(1, 1 / 8), 512, seed=3)
        return [(st.schedule, algo.run(st, env))]
    if case == "dag":
        x = np.linspace(0.0, 1.0, 9)
        st = algo.init(FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x)),
                       512, AlgoConfig(seed=3))
        return [(st.schedule, algo.run(st, env))]
    from advzoom.cli import _merge_anytime
    phases = algo.run_anytime(1, AlgoConfig(seed=3), 300, env)
    return [(algo.ParamSchedule(tr.T, tr.n_dbl, tr.d), tr)
            for tr in [*phases, _merge_anytime(phases)]]


@pytest.mark.parametrize("case", ["0", "1", "2", "4096", "4096_c1_32",
                                  "override", "exp3p", "dag", "anytime"])
def test_check_assumptions_equals_the_record_loop(case):
    for schedule, trace in audited_runs(case):
        want = assumptions_reference(schedule, trace)
        assert algo.check_assumptions(schedule, trace) == want
        rounds = sum(want.violations.values(), want.gamma_capped)
        assert all(type(t) is int for t in rounds)
        assert bool(rounds) == (trace.n_rounds > 0)


def test_check_assumptions_raises_on_a_zero_beta():
    # only a constant override reaches beta = 0; 1/beta has no value there
    ov = ParamValues(0.0, 0.0, 0.5, 0.0)
    st = algo.init(np.array([[0.5]]), 2, AlgoConfig(param_override=ov))
    tr = algo.run(st, ConstEnv(0.4))
    with pytest.raises(ZeroDivisionError):
        assumptions_reference(st.schedule, tr)
    with pytest.raises(ArithmeticError):
        algo.check_assumptions(st.schedule, tr)
    tr.rounds.pop()  # one round has no window clause, so nothing divides
    assert algo.check_assumptions(st.schedule, tr) == \
        assumptions_reference(st.schedule, tr)


# -- schedule coefficient scale ----------------------------------------------

# SHA-256 of the trace CSV of the seed-5 tent run at T=512 under the paper's
# schedule, pinned before the coefficient scale existed
PAPER_SCHEDULE_CSV_SHA256 = (
    "27a06761b0595f40ea1db0736398cfda2593eb1290be655200368e07b031c0d3"
)


def test_coeff_scale_one_is_bit_identical(tmp_path):
    T = 512
    sched = algo.ParamSchedule(T, 2, 1)
    assert sched.conf_coeff == 1.0 + 4.0 * math.log2(T)
    sizes = [1, 1, 2, 2, 4, 3, 8, 1, 16, 2] * 30
    for t, a in enumerate(sizes, start=1):
        pv = sched.advance(t, a)
        assert pv.gamma == min(0.5, (2.0 + 4.0 * math.log2(T)) * a * pv.beta)
    digests = []
    for cfg in (AlgoConfig(seed=5), AlgoConfig(seed=5, coeff_scale=1.0)):
        st = algo.init(1, T, cfg)
        assert st.schedule.conf_coeff == 1.0 + 4.0 * math.log2(T)
        path = tmp_path / f"trace{len(digests)}.csv"
        algo.run(st, StochasticEnv(tent_mean(), seed=5)).write_csv(path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == [PAPER_SCHEDULE_CSV_SHA256] * 2


def test_schedule_rejects_out_of_order_rounds():
    sched = algo.ParamSchedule(64, 2, 1)
    sched.advance(1, 1)
    with pytest.raises(ValueError, match="out of order"):
        sched.advance(3, 1)
    sched.advance(2, 1)
    with pytest.raises(ValueError, match="out of order"):
        sched.advance(2, 1)


def test_coeff_scale_scales_both_coefficients_exactly():
    T, c = 2**10, 0.25
    base = algo.ParamSchedule(T, 2, 1)
    scaled = algo.ParamSchedule(T, 2, 1, coeff_scale=c)
    assert scaled.gamma_coeff == c * (2.0 + 4.0 * math.log2(T))
    assert scaled.conf_coeff == c * (1.0 + 4.0 * math.log2(T))
    sizes = [16, 8, 4, 3, 2, 1] * 100
    for t, a in enumerate(sizes, start=1):
        pv, pv_c = base.advance(t, a), scaled.advance(t, a)
        # beta and eta do not depend on the coefficients; gamma does
        assert (pv_c.beta, pv_c.beta_tilde, pv_c.eta) == \
            (pv.beta, pv.beta_tilde, pv.eta)
        assert pv_c.gamma == min(0.5, scaled.gamma_coeff * a * pv.beta)
    assert pv_c.gamma < 0.5 == pv.gamma  # the last round's values
    st = fresh(T=16, coeff_scale=c)  # conf coefficient c * (1 + 4*4)
    assert st.schedule.conf_coeff == c * 17
    pv = ParamValues(0.1, 0.1, 0.5, 0.1)
    ghat = algo.estimate(st, 0, 0.3, np.array([1.0]), pv)
    assert ghat[0] == pytest.approx(0.3 + c * 17 * 0.1)


def test_check_assumptions_uses_the_schedules_coefficients():
    # eta (1 + beta cc) vs gamma/|A| = 0.1: cc = 17 fails, cc = 17/32 holds
    tr = Trace(algorithm="adversarial_zooming", T=16, d=1, n_dbl=2, seed=0)
    tr.append(RoundRecord(t=1, node_id=0, arm=(0.5,), reward=0.0, beta=0.09,
                          beta_tilde=0.09, gamma=0.1, eta=0.09, n_active=1))
    paper = algo.check_assumptions(algo.ParamSchedule(16, 2, 1), tr)
    scaled = algo.check_assumptions(
        algo.ParamSchedule(16, 2, 1, coeff_scale=1 / 32), tr
    )
    assert paper.violations["product_clause"] == [1]
    assert scaled.violations["product_clause"] == []
    # gamma_coeff |A| beta = 18 * 0.09 reaches the cap; 18/32 * 0.09 does not
    assert paper.gamma_capped == [1] and scaled.gamma_capped == []
    ov = algo.ParamSchedule(16, 2, 1, override=ParamValues(0.09, 0.09, 0.1,
                                                           0.09))
    assert algo.check_assumptions(ov, tr).gamma_capped == []
    # end to end: a scaled run is audited against its own clauses
    st = fresh(T=256, seed=2, coeff_scale=1 / 32)  # cc = (1 + 4*8) / 32
    run_tr = algo.run(st, StochasticEnv(tent_mean(), seed=2))
    rep = algo.check_assumptions(st.schedule, run_tr)
    assert rep.gamma_capped == [r.t for r in run_tr.rounds if r.gamma == 0.5]
    assert rep.violations["product_clause"] == [
        r.t for r in run_tr.rounds
        if r.eta * (1.0 + r.beta * 33 / 32) > r.gamma / r.n_active + 1e-12
    ]
