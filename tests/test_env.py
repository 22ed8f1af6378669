import math
import re

import numpy as np
import pytest

from advzoom import evaluate
from advzoom.env import (
    NOISE_KINDS,
    CombinedEnv,
    MeanFunction,
    PricingEnv,
    StochasticEnv,
    env_from_spec,
    lipschitz_audit,
    make_combined,
    phase_schedule,
)
from conftest import GOLD, tent_mean


def eval_reward(env, t, x):
    """Reward of arm x at round t, with range checks on t and x."""
    if t < 1:
        raise ValueError(f"round {t} < 1")
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(f"arm {x} outside [0,1]^d")
    return env.reward(t, x)


def mixture_mean(env, xs):
    """Mean reward at xs of a combined instance, mixed by round frequency."""
    f = np.bincount(env.schedule, minlength=len(env.means)) / len(env.schedule)
    return sum(f[i] * np.atleast_1d(m(xs)) for i, m in enumerate(env.means))


# -- mean functions -----------------------------------------------------------


def test_distance_to_target_shape():
    m = tent_mean(peak=0.8, baseline=0.0)
    assert m(GOLD) == pytest.approx(0.8)
    assert m(GOLD + 0.1) == pytest.approx(0.7)
    assert m(0.0) == pytest.approx(0.8 - GOLD)
    m2 = MeanFunction("distance_to_target",
                      {"target": 0.5, "peak": 0.3, "baseline": 0.0})
    assert m2(0.95) == 0.0  # clipped at zero far from the peak


def test_concave_shape():
    m = MeanFunction("concave", {"peak": 0.9, "baseline": 0.1})
    assert m(0.5) == pytest.approx(0.9)
    assert m(0.0) == pytest.approx(0.1) and m(1.0) == pytest.approx(0.1)
    # x (1 - x) comes out of the preset with peak 0.25 and zero baseline
    m2 = MeanFunction("concave", {"peak": 0.25, "baseline": 0.0})
    xs = np.linspace(0, 1, 101)
    assert np.allclose(m2(xs), xs * (1 - xs))


def test_baseline_bump_and_support():
    m = MeanFunction("baseline_bump",
                     {"peak": 0.55, "baseline": 0.2, "support": (0.6, 0.9)})
    assert m(0.75) == pytest.approx(0.55)
    assert m(0.6) == pytest.approx(0.2) and m(0.3) == pytest.approx(0.2)


def test_custom_table_interpolation():
    m = MeanFunction("custom_table", {"xs": [0, 0.5, 1], "ys": [0, 1, 0]})
    assert m(0.25) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="increasing"):
        MeanFunction("custom_table", {"xs": [0, 0], "ys": [0, 1]})
    for ys in ([0, 1.5], [-0.1, 0.5]):
        with pytest.raises(ValueError, match=r"means outside \[0,1\]"):
            MeanFunction("custom_table", {"xs": [0, 1], "ys": ys})
    with pytest.raises(ValueError):
        MeanFunction("concave", {"peak": 1.2, "baseline": 0.0})
    with pytest.raises(ValueError, match="kind"):
        MeanFunction("wiggly", {})


# -- obliviousness ------------------------------------------------------------


def test_rewards_are_pure_functions_of_seed_t_x(tent_env):
    env = tent_env(seed=123)
    probes = [(t, x) for t in (1, 7, 500, 7) for x in (0.1, GOLD, 0.93)]
    first = [eval_reward(env, t, x) for t, x in probes]
    again = [eval_reward(env, t, x) for t, x in reversed(probes)]
    assert first == list(reversed(again))
    block = env.reward_block(np.array([1, 7, 500]), np.array([[0.1]]))
    assert block[0, 0] == eval_reward(env, 1, 0.1)


def test_eval_reward_bounds(tent_env):
    env = tent_env()
    with pytest.raises(ValueError):
        eval_reward(env, 0, 0.5)
    with pytest.raises(ValueError):
        eval_reward(env, 1, 1.5)


def test_noise_models(tent_env):
    det = StochasticEnv(tent_mean(), noise="none", seed=0)
    assert eval_reward(det, 3, GOLD) == pytest.approx(0.8)
    sure = StochasticEnv(
        MeanFunction("custom_table", {"xs": [0, 1], "ys": [1, 1]}), seed=0
    )
    assert all(eval_reward(sure, t, 0.4) == 1.0 for t in range(1, 50))
    bern = tent_env(seed=8)
    vals = {eval_reward(bern, t, 0.3) for t in range(1, 200)}
    assert vals <= {0.0, 1.0}
    mean = np.mean([eval_reward(bern, t, 0.3) for t in range(1, 4001)])
    assert mean == pytest.approx(tent_mean()(0.3), abs=0.03)
    gauss = StochasticEnv(tent_mean(), noise="gauss", noise_scale=0.1, seed=8)
    draws = gauss.reward_block(np.arange(1, 2001), np.array([[0.3]]))[0]
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    assert draws.mean() == pytest.approx(tent_mean()(0.3), abs=0.02)
    with pytest.raises(ValueError):
        StochasticEnv(tent_mean(), noise="cauchy")


def assert_single_arm_rewards_equal_block(env, T, d, ts=(), seed=0,
                                          arms=()):
    """reward(t, arm) equals reward_block([t], [arm])[0, 0] bit for bit on
    300 (t, arm) pairs over 20 arms and `arms`, each arm played as a tuple
    of float and of np.float64 (what fixed-arm spaces pass) and repeated,
    so the per-arm cache is both missed and hit; `ts` adds rounds to every
    arm."""
    gen = np.random.default_rng(seed)
    pool = [tuple(float(v) for v in gen.random(d)) for _ in range(18)]
    pool += [(0.0,) * d, (1.0,) * d, *arms]
    plays = [(int(t), pool[k]) for t, k in zip(
        gen.integers(1, T + 1, 300), gen.integers(0, len(pool), 300))]
    plays += [(int(t), arm) for t in ts for arm in pool]
    for n, (t, arm) in enumerate(plays):
        if n % 2:
            arm = tuple(np.float64(v) for v in arm)
        got = env.reward(t, arm)
        want = env.reward_block([t], [arm])[0, 0]
        assert type(got) is float
        assert got.hex() == float(want).hex(), (t, arm)
    return pool


@pytest.mark.parametrize("noise", ["bernoulli", "none", "gauss"])
@pytest.mark.parametrize("target", [GOLD, [0.618, 0.382]])
def test_single_arm_reward_equals_block_stochastic(noise, target):
    env = StochasticEnv(tent_mean(target=target), noise=noise,
                        noise_scale=0.2, seed=4)
    pool = assert_single_arm_rewards_equal_block(env, 4096, env.d)
    assert len(env._arms) == len(pool)  # float and np.float64 arms share


# -- combined instances -------------------------------------------------------


def two_bumps():
    m1 = MeanFunction("baseline_bump",
                      {"peak": 0.55, "baseline": 0.2, "support": (0.1, 0.4)})
    m2 = MeanFunction("baseline_bump",
                      {"peak": 0.55, "baseline": 0.2, "support": (0.6, 0.9)})
    return m1, m2


def test_make_combined_single_instance_reduces():
    m1, _ = two_bumps()
    env = make_combined([m1], [(0, 64)], [(0.1, 0.4)], [0.2], T=64, seed=0)
    xs = np.linspace(0, 1, 33)
    assert np.allclose(env.mean_at(10, xs), m1(xs))


def test_make_combined_rejections():
    m1, m2 = two_bumps()
    subs = [(0.1, 0.4), (0.6, 0.9)]
    weak = MeanFunction("baseline_bump",
                        {"peak": 0.4, "baseline": 0.2, "support": (0.1, 0.4)})
    with pytest.raises(ValueError, match="spread >= 1/3"):
        make_combined([weak, m2], [(0, 32), (1, 32)], subs, [0.2, 0.2], T=64)
    with pytest.raises(ValueError, match="disjoint"):
        make_combined([m1, m2], [(0, 32), (1, 32)],
                      [(0.1, 0.7), (0.6, 0.9)], [0.2, 0.2], T=64)
    with pytest.raises(ValueError, match="schedule total"):
        make_combined([m1, m2], [(0, 32), (1, 16)], subs, [0.2, 0.2], T=64)
    # instance 0 is not flat at its baseline on S_1
    leaky = MeanFunction("distance_to_target",
                         {"target": 0.25, "peak": 0.55, "baseline": 0.2})
    with pytest.raises(ValueError, match="baseline"):
        make_combined([leaky, m2], [(0, 32), (1, 32)], subs, [0.2, 0.2], T=64)
    with pytest.raises(ValueError, match="one subset and one baseline"):
        make_combined([m1, m2], [(0, 32), (1, 32)], subs, [0.2], T=64)
    for bad in (2, -1):
        with pytest.raises(ValueError, match="unknown instance"):
            make_combined([m1, m2], np.tile([0, bad], 32), subs, [0.2, 0.2],
                          T=64)
    # instance 0 peaks 0.4 above its baseline on S_0 but dips to 0 there,
    # and is exactly its baseline everywhere else
    dips = MeanFunction("custom_table", {"xs": [0, 0.1, 0.2, 0.3, 0.4, 1],
                                         "ys": [0.2, 0.2, 0, 0.6, 0.2, 0.2]})
    with pytest.raises(ValueError, match="instance 0 below b_0 on S_0"):
        make_combined([dips, m2], [(0, 32), (1, 32)], subs, [0.2, 0.2], T=64)
    # its subsets are intervals of [0, 1]: a 2-D instance is refused by name
    tent2 = MeanFunction("distance_to_target",
                         {"target": [0.3, 0.6], "peak": 0.8})
    for means, i in (([tent2, tent2], 0), ([m1, tent2], 1)):
        with pytest.raises(ValueError, match=f"instance {i} has d=2, not 1"):
            make_combined(means, [(0, 32), (1, 32)], subs, [0.2, 0.2], T=64)


def test_combined_mixture_identity():
    m1, m2 = two_bumps()
    T = 64
    env = make_combined([m1, m2], [(0, 32), (1, 32)],
                        [(0.1, 0.4), (0.6, 0.9)], [0.2, 0.2], T=T, seed=0)
    assert np.bincount(env.schedule).tolist() == [32, 32]
    x = 0.25  # inside S_1
    expected = 0.5 * m1(x) + 0.5 * 0.2
    assert mixture_mean(env, x)[0] == pytest.approx(expected)
    # empirical check against realized rewards over the full horizon
    big = make_combined([m1, m2], [(0, 2048), (1, 2048)],
                        [(0.1, 0.4), (0.6, 0.9)], [0.2, 0.2], T=4096, seed=3)
    realized = big.reward_block(np.arange(1, 4097), np.array([[x]]))[0].mean()
    assert realized == pytest.approx(expected, abs=0.04)


def test_single_arm_reward_equals_block_combined():
    m1, m2 = two_bumps()
    env = make_combined([m1, m2], [(0, 100), (1, 156)],
                        [(0.1, 0.4), (0.6, 0.9)], [0.2, 0.2], T=256, seed=6)
    # rounds 99..102 straddle the phase boundary after round 100
    assert_single_arm_rewards_equal_block(env, 256, 1, ts=range(99, 103))


# rounds on both sides of the first two round-key windows' edges
# (ROUND_BLOCK = 256), then back to 2
WINDOW_EDGES = [1, 255, 256, 257, 511, 512, 513, 2]
WINDOW_ARMS = [(0.3,), (0.618,), (0.75,)]


def assert_reward_is_the_block_at(env, ts):
    for t in ts:
        for arm in WINDOW_ARMS:
            want = float(env.reward_block([t], [arm])[0, 0])
            assert env.reward(t, arm).hex() == want.hex(), (t, arm)


@pytest.mark.parametrize("noise", NOISE_KINDS)
def test_round_key_window_equals_the_block_stochastic(noise):
    env = StochasticEnv(tent_mean(), noise=noise, noise_scale=0.2, seed=11)
    # then past a learner's horizon of T = 600, and back to it
    assert_reward_is_the_block_at(env, WINDOW_EDGES + [601, 857, 5000, 600])


@pytest.mark.parametrize("noise", NOISE_KINDS)
def test_round_key_window_equals_the_block_combined(noise):
    m1, m2 = two_bumps()
    env = make_combined([m1, m2], [(0, 256), (1, 300), (0, 468)],
                        [(0.1, 0.4), (0.6, 0.9)], [0.2, 0.2], T=1024,
                        noise=noise, noise_scale=0.2, seed=11)
    assert_reward_is_the_block_at(env, WINDOW_EDGES + [1024, 768])


def eight_rounds():
    """Noiseless phases [(0, 4), (1, 4)] on T = 8, and its three ways to
    read arm 0.75: instance 0 has it at 0.2, instance 1 at its peak 0.55."""
    m1, m2 = two_bumps()
    env = make_combined([m1, m2], [(0, 4), (1, 4)], [(0.1, 0.4), (0.6, 0.9)],
                        [0.2, 0.2], T=8, noise="none")
    return env, {"reward": lambda t: env.reward(t, (0.75,)),
                 "reward_block": lambda t: env.reward_block([t], [(0.75,)]),
                 "mean_at": lambda t: env.mean_at(t, [0.75])}


@pytest.mark.parametrize("read", ["reward", "reward_block", "mean_at"])
@pytest.mark.parametrize("t, want", [(0, None), (-3, None), (9, None),
                                     (1, 0.2), (8, 0.55)])
def test_combined_rounds_outside_1_to_T_are_refused(read, t, want):
    _, reads = eight_rounds()
    if want is None:
        with pytest.raises(ValueError, match=rf"round {t} is outside 1\.\.T, "
                                             r"T=8$"):
            reads[read](t)
    else:
        assert float(np.ravel(reads[read](t))[0]) == want


@pytest.mark.parametrize("noise", NOISE_KINDS)
@pytest.mark.parametrize("offset", [250, 255, 256, 508])
def test_round_key_window_through_an_offset_env(noise, offset):
    from advzoom.algo import _OffsetEnv

    env = StochasticEnv(tent_mean(), noise=noise, noise_scale=0.2, seed=12)
    local = _OffsetEnv(env, offset)
    for t in range(1, 13):  # local rounds whose global ones straddle a block
        if t % 4 == 0:  # moves the window back, so it refills mid-block
            env.reward(t, WINDOW_ARMS[0])
        for arm in WINDOW_ARMS:
            want = float(env.reward_block([t + offset], [arm])[0, 0])
            assert local.reward(t, arm).hex() == want.hex(), (t, arm)


def test_phase_schedule_and_arbitrary_interleaving():
    sched = phase_schedule([(1, 3), (0, 2)])
    assert sched.tolist() == [1, 1, 1, 0, 0]
    m1, m2 = two_bumps()
    per_round = np.tile([0, 1], 32)
    env = make_combined([m1, m2], per_round, [(0.1, 0.4), (0.6, 0.9)],
                        [0.2, 0.2], T=64, seed=0)
    assert env.instance_of_round(1) == 0 and env.instance_of_round(2) == 1


BUMPS_SPEC = {
    "kind": "combined",
    "instances": [{"kind": "baseline_bump", "peak": 0.55, "baseline": 0.2,
                   "support": sup} for sup in ([0.1, 0.4], [0.6, 0.9])],
    "subsets": [[0.1, 0.4], [0.6, 0.9]], "baselines": [0.2, 0.2],
}


def test_combined_schedule_has_one_parser():
    def schedule(**sched):
        spec = dict(BUMPS_SPEC, schedule=sched) if sched else BUMPS_SPEC
        return env_from_spec(spec, 64, 0).schedule.tolist()

    # equal consecutive phases only when no schedule is given
    assert schedule() == [0] * 32 + [1] * 32
    want = [1] * 10 + [0] * 54
    assert schedule(phases=[[1, 10], [0, 54]]) == want
    assert schedule(per_round=want) == want
    with pytest.raises(ValueError, match=r"unknown keys \['phasez'\]"):
        schedule(phasez=[[1, 10], [0, 54]])
    with pytest.raises(ValueError, match="not both"):
        schedule(phases=[[1, 10], [0, 54]], per_round=want)
    # the key picks the format: pairs under per_round are not phases
    for bad in ({"phases": []}, {"per_round": []}):
        with pytest.raises(ValueError, match="schedule total"):
            schedule(**bad)
    with pytest.raises(ValueError, match="per_round must be a list of ints"):
        schedule(per_round=[[1, 10], [0, 54]])


# -- the block path ---------------------------------------------------------


def _mu_edges():
    """Bernoulli means at the edges of the 2^-53 grid of uniform draws."""
    exact = [0.0, 2.0 ** -53, 12345 * 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0]
    near = [np.nextafter(m, to) for m in exact for to in (0.0, 1.0)]
    return sorted({float(m) for m in exact + near})


@pytest.mark.parametrize("mu", _mu_edges())
def test_bernoulli_threshold_equals_the_float_rule_at_its_edges(
        mu, monkeypatch):
    """The block path's integer threshold against u < mu, on hashes whose
    top 53 bits k are placed around ceil(mu 2^53)."""
    import advzoom.env as env_module

    K = math.ceil(mu * 2.0 ** 53)
    ks = [k for k in range(K - 2, K + 2) if 0 <= k < 2 ** 53]
    placed = np.array([(k << 11) | low for k in ks for low in (0, 2047)],
                      dtype=np.uint64)
    real = env_module.splitmix64

    def placing(x, out=None, scratch=None):
        if out is not None and out.ndim == 2:  # the block's hashes
            out[...] = placed
            return out
        return real(x, out, scratch)

    monkeypatch.setattr(env_module, "splitmix64", placing)
    env = StochasticEnv(MeanFunction("custom_table",
                                     {"xs": [0, 1], "ys": [mu, mu]}), seed=0)
    assert env.means[0](0.5) == mu
    got = env.reward_block(np.arange(1, len(placed) + 1), [[0.5]])[0]
    want = [1.0 if (int(h) >> 11) * 2.0 ** -53 < mu else 0.0 for h in placed]
    assert got.tolist() == want


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("noise", NOISE_KINDS)
def test_one_instance_combined_env_is_the_stochastic_env(noise, d):
    mean = tent_mean(target=[0.618, 0.382][:d])
    one = CombinedEnv([mean], None, noise=noise, noise_scale=0.2, seed=5)
    env = StochasticEnv(mean, noise=noise, noise_scale=0.2, seed=5)
    ts = np.array([1, 7, 3, 7, 200, 64])
    arms = np.random.default_rng(2).random((9, d))
    assert one.reward_block(ts, arms).tobytes() == \
        env.reward_block(ts, arms).tobytes()
    for t in ts.tolist():
        assert one.mean_at(t, arms).tobytes() == env.mean_at(t, arms).tobytes()
        for arm in arms:
            arm = tuple(arm.tolist())
            assert one.reward(t, arm).hex() == env.reward(t, arm).hex()
    # the benchmark's per-class wrappers need the class's own entries
    assert {"reward", "reward_block"} <= set(vars(StochasticEnv))


def _every_env_kind():
    m1, m2 = two_bumps()
    for noise in NOISE_KINDS:
        yield StochasticEnv(tent_mean(), noise=noise, noise_scale=0.2, seed=3)
        yield StochasticEnv(tent_mean(target=[0.618, 0.382]), noise=noise,
                            noise_scale=0.2, seed=3)
        yield make_combined([m1, m2], np.tile([0, 0, 1], 22)[:64],
                            [(0.1, 0.4), (0.6, 0.9)], [0.2, 0.2], T=64,
                            noise=noise, noise_scale=0.2, seed=3)
    yield PricingEnv("uniform", {"a": 0.1, "b": 0.9}, seed=3)
    yield PricingEnv("target", {"a": 0.25, "b": 0.5, "support": (0.5, 0.7)},
                     seed=3)


@pytest.mark.parametrize("env", list(_every_env_kind()),
                         ids=lambda e: f"{e.kind}-{getattr(e, 'noise', '')}")
def test_reward_block_on_unsorted_repeated_rounds_equals_reward(env):
    ts = np.array([5, 3, 5, 64, 1, 3, 40, 2, 64, 17])
    gen = np.random.default_rng(9)
    arms = np.vstack([gen.random((6, env.d)), np.zeros(env.d),
                      np.ones(env.d)])
    block = env.reward_block(ts, arms)
    assert block.shape == (len(arms), len(ts))
    for i, arm in enumerate(arms):
        for j, t in enumerate(ts):
            assert block[i, j].hex() == \
                env.reward(int(t), tuple(arm.tolist())).hex(), (t, arm)


def unit_bumps(noise, kind):
    """A stochastic or combined env whose means on the 1/12 grid are
    exactly 1.0 at 1/4 (and at 3/4 on instance 1) and exactly 0.0 at and
    beyond the edges of each bump."""
    lo, hi = (MeanFunction("baseline_bump", {"peak": 1.0, "baseline": 0.0,
                                             "support": s})
              for s in ((0.0, 0.5), (0.5, 1.0)))
    if kind == "stochastic":
        return StochasticEnv(lo, noise=noise, noise_scale=0.2, seed=7)
    return make_combined([lo, hi], np.tile([0, 1, 1], 30)[:80],
                         [(0.0, 0.5), (0.5, 1.0)], [0.0, 0.0], T=80,
                         noise=noise, noise_scale=0.2, seed=7)


@pytest.mark.parametrize("noise", NOISE_KINDS)
@pytest.mark.parametrize("kind", ["stochastic", "combined"])
def test_reward_block_equals_the_float_uniform_reference(kind, noise):
    """Rewards realized from rng.uniform's float draws, as before the block
    kernel: u < mu, mu itself, and the clipped inverse-normal; on shaped
    means and on means of exactly 0.0 and 1.0, the edges of the Bernoulli
    thresholds."""
    from scipy.special import ndtri

    from advzoom.env import arm_counter
    from advzoom.rng import uniform

    m1, m2 = two_bumps()
    env = (StochasticEnv(tent_mean(target=[0.618, 0.382]), noise=noise,
                         noise_scale=0.2, seed=7)
           if kind == "stochastic" else
           make_combined([m1, m2], np.tile([0, 1, 1], 30)[:80],
                         [(0.1, 0.4), (0.6, 0.9)], [0.2, 0.2], T=80,
                         noise=noise, noise_scale=0.2, seed=7))
    for env in env, unit_bumps(noise, kind):
        xs = evaluate.grid_points(env.d, 1 / 12)
        ts = np.arange(1, 81)
        mu = np.stack([env.mean_at(t, xs) for t in ts], axis=1)
        u = uniform(env._key, ts[None, :], arm_counter(xs)[:, None])
        want = {"bernoulli": (u < mu).astype(np.float64), "none": mu,
                "gauss": np.clip(mu + 0.2 * ndtri(np.clip(u, 1e-12,
                                                          1 - 1e-12)),
                                 0.0, 1.0)}[noise]
        assert env.reward_block(ts, xs).tobytes() == want.tobytes()
    assert {0.0, 1.0} <= set(mu.ravel().tolist())


@pytest.mark.parametrize("kind", ["stochastic", "combined"])
def test_single_arm_reward_equals_block_at_means_0_and_1(kind):
    # mu = 1 is c = 2^53, whose threshold c 2^11 wraps to 0 in the block
    # kernel's uint64 and is 2^64 as the single-arm path's Python int
    env = unit_bumps("bernoulli", kind)
    edges = [(0.25,), (0.75,), (0.5,)]
    assert_single_arm_rewards_equal_block(env, 80, 1, ts=range(1, 81),
                                          arms=edges)
    mu = np.stack([env.mean_at(t, edges) for t in range(1, 81)], axis=1)
    got = env.reward_block(np.arange(1, 81), edges)
    assert {0.0, 1.0} <= set(mu.ravel().tolist())
    assert (got[mu == 1.0] == 1.0).all() and not got[mu == 0.0].any()


@pytest.mark.parametrize("kind", ["stochastic", "combined"])
def test_none_noise_draws_nothing(kind, monkeypatch):
    import advzoom.env as env_module

    m1, m2 = two_bumps()
    env = (StochasticEnv(tent_mean(target=[0.618, 0.382]), noise="none")
           if kind == "stochastic" else
           make_combined([m1, m2], [(0, 40), (1, 24)],
                         [(0.1, 0.4), (0.6, 0.9)], [0.2, 0.2], T=64,
                         noise="none"))
    grid = evaluate.grid_points(env.d, 1 / 8)
    means = np.stack([env.mean_at(t, grid) for t in range(1, 65)], axis=1)

    def draw(*args, **kw):
        raise AssertionError("none noise drew a uniform or hashed a counter")

    monkeypatch.setattr(env_module, "uniform", draw)
    monkeypatch.setattr(env_module, "splitmix64", draw)
    assert env.reward_block(np.arange(1, 65), grid).tobytes() == \
        means.tobytes()
    _, totals = evaluate._replay(env, grid, 64)
    assert totals.tobytes() == means.cumsum(axis=1)[:, -1].tobytes()


# -- dynamic pricing ----------------------------------------------------------


def test_pricing_buy_rule():
    # degenerate uniform [0.5, 0.5]: every private value is exactly 0.5
    env = PricingEnv("uniform", {"a": 0.5, "b": 0.5}, seed=0)
    assert eval_reward(env, 1, 0.3) == pytest.approx(0.3)
    assert eval_reward(env, 1, 0.6) == 0.0
    assert eval_reward(env, 9, 0.5) == pytest.approx(0.5)
    # so the mean revenue is x up to the value and 0 past it
    assert env.mean_at(1, [0.3, 0.5, 0.6]).tolist() == [0.3, 0.5, 0.0]


@pytest.mark.parametrize("kind, params", [
    ("uniform", {"a": 0.1, "b": 0.9}),
    ("target", {"a": 0.25, "b": 0.5, "support": (0.5, 0.7)}),
])
def test_single_arm_reward_equals_block_pricing(kind, params):
    env = PricingEnv(kind, params, seed=2)
    # across the value blocks' edges, forwards, then backwards
    walk = list(range(250, 521)) + list(range(520, 249, -1))
    assert_single_arm_rewards_equal_block(env, 4096, 1, ts=walk)


@pytest.mark.parametrize("kind, params", [
    ("uniform", {"a": 0.1, "b": 0.9}),
    ("target", {"a": 0.25, "b": 0.5, "support": (0.5, 0.7)}),
])
def test_pricing_scalar_value_equals_the_array_path(kind, params):
    env = PricingEnv(kind, params, seed=5)
    ts = np.arange(1, 3001)
    assert [float(env.value(int(t))).hex() for t in ts] == \
        [float(v).hex() for v in env.value(ts)]
    if kind != "target":
        return
    # the target family's branch points and their neighbours, against the
    # inverse CDF on Python floats (min(u, f_hi) is u where it is used)
    m0, f_hi, hi = (0.5 - 0.25) / 0.5, 2.0 - 0.75 / 0.7, 0.7
    us = [0.0, 1.0 - 2.0 ** -53, m0, f_hi] + [
        float(np.nextafter(e, to)) for e in (m0, f_hi) for to in (0.0, 1.0)]
    want = [0.0 if u < m0 else 0.75 / (2.0 - u) if u <= f_hi else hi
            for u in us]
    assert [v.hex() for v in env._value_of(np.array(us)).tolist()] == \
        [v.hex() for v in want]
    assert want[4] == 0.0 < want[5] and want[6] < hi == want[7]


def test_pricing_value_from_cdf_uniform():
    assert PricingEnv("uniform", {"a": 0.0, "b": 1.0})._value_of(0.4) \
        == pytest.approx(0.4)
    vs = PricingEnv("uniform", {"a": 0.2, "b": 0.6})._value_of(
        np.array([0.0, 0.5, 1.0]))
    assert vs.tolist() == pytest.approx([0.2, 0.4, 0.6])


@pytest.mark.parametrize("kind, params, reason", [
    ("uniform", {"a": 0.9, "b": 0.2}, "non-monotone"),
    ("target", {"a": 0.6, "b": 0.5}, "non-monotone"),
    ("beta", {}, "unknown value distribution"),
    ("target", {"a": 0.25, "b": 0.5, "zz": 1},
     r"unknown keys \['zz'\] in env.values"),
])
def test_pricing_env_checks_its_values_at_construction(kind, params, reason):
    with pytest.raises(ValueError, match=reason):
        PricingEnv(kind, params)
    with pytest.raises(ValueError, match=reason):
        env_from_spec({"kind": "pricing", "values": dict(params, kind=kind)},
                      T=16, seed=0)


def test_pricing_target_family_mean_revenue():
    params = {"a": 0.25, "b": 0.5, "support": (0.5, 0.7)}
    # Monte Carlo of x * 1{x <= v} against the peak value
    env = PricingEnv("target", params, seed=1)
    vs = env._value_of((np.arange(100_000) + 0.5) / 100_000)
    mc = np.where(0.5 <= vs, 0.5, 0.0).mean()
    assert mc == pytest.approx(0.25, abs=0.01)
    # right branch keeps the target shape exactly: mu(x) = 1/4 - |x - 1/2|
    for x in (0.5, 0.55, 0.65, 0.7):
        assert env.mean_at(1, x)[0] == pytest.approx(0.25 - abs(x - 0.5))
        mc_x = np.where(x <= vs, x, 0.0).mean()
        assert mc_x == pytest.approx(0.25 - abs(x - 0.5), abs=0.01)
    with pytest.raises(ValueError, match="non-monotone"):
        PricingEnv("target", {"a": 0.25, "b": 0.5, "support": (0.5, 0.9)})


def test_pricing_values_stay_in_unit_interval():
    for kind, params in (("uniform", {"a": 0.0, "b": 1.0}),
                         ("uniform", {"a": 0.3, "b": 0.8}),
                         ("target", {"a": 0.25, "b": 0.5,
                                     "support": (0.5, 0.7)})):
        env = PricingEnv(kind, params, seed=5)
        vs = env.value(np.arange(1, 2001))
        assert vs.min() >= 0.0 and vs.max() <= 1.0


def test_pricing_uniform_mean_revenue_concave():
    env = PricingEnv("uniform", {"a": 0.0, "b": 1.0}, seed=0)
    xs = np.linspace(0, 1, 101)
    mu = env.mean_at(1, xs)
    assert np.allclose(mu, xs * (1 - xs))
    assert xs[np.argmax(mu)] == pytest.approx(0.5)


def test_pricing_one_sided_lipschitz_every_realization():
    env = PricingEnv("uniform", {"a": 0.0, "b": 1.0}, seed=7)
    ts = np.arange(1, 257)
    xs = np.linspace(0, 1, 41).reshape(-1, 1)
    r = env.reward_block(ts, xs)
    for i in range(len(xs)):
        for j in range(i):
            hi, lo = xs[i, 0], xs[j, 0]
            assert np.all(r[i] - r[j] <= hi - lo + 1e-12)


# -- audits --------------------------------------------------------------


def test_audit_clean_instance(tent_env):
    # deterministic audit; seed 1 avoids the ~3.4 sigma false positive that
    # seed 0's realization happens to produce (expected at the 3 SE threshold
    # roughly once per thousand pairs)
    rep = lipschitz_audit(tent_env(seed=1), pairs=100, n_rounds=96, T=1024)
    assert rep.mode == "expected" and rep.ok


def test_audit_flags_jump():
    broken = StochasticEnv(
        MeanFunction("custom_table",
                     {"xs": [0, 0.45, 0.55, 1], "ys": [0.9, 0.9, 0.2, 0.2]}),
        noise="none", seed=0,
    )
    rep = lipschitz_audit(broken, pairs=400, n_rounds=32, T=512)
    assert not rep.ok


def test_audit_pricing_one_sided():
    rep = lipschitz_audit(PricingEnv("uniform", {}, seed=3), T=1024)
    assert rep.mode == "one_sided" and rep.ok


class SlopeEnv:
    """Pricing stub whose every realization is g_t(x) = slope * x."""

    kind = "pricing"
    d = 1

    def __init__(self, slope):
        self.slope = slope

    def reward_block(self, ts, xs):
        return np.repeat(self.slope * xs, len(ts), axis=1)


@pytest.mark.parametrize("slope,flagged", [(1.0, 0), (1.5, 50)])
def test_audit_pricing_flags_a_rise_steeper_than_the_price(slope, flagged):
    # g_t(x) - g_t(x') = slope (x - x') breaks the one-sided condition
    # exactly when slope > 1, and then on every pair
    rep = lipschitz_audit(SlopeEnv(slope), T=64, pairs=50, n_rounds=4)
    assert rep.mode == "one_sided" and len(rep.flagged) == flagged
    assert all(f["mode"] == "one_sided" and f["x"] > f["y"]
               for f in rep.flagged)


# -- declarative construction -------------------------------------------------


def two_bump_spec():
    return {
        "kind": "combined",
        "instances": [
            {"kind": "baseline_bump", "peak": 0.55, "baseline": 0.2,
             "support": [0.1, 0.4]},
            {"kind": "baseline_bump", "peak": 0.55, "baseline": 0.2,
             "support": [0.6, 0.9]},
        ],
        "subsets": [[0.1, 0.4], [0.6, 0.9]],
        "baselines": [0.2, 0.2],
    }


def test_env_from_spec_kinds(tmp_path):
    env = env_from_spec({"kind": "distance_to_target"}, T=64, seed=0)
    assert isinstance(env, StochasticEnv)
    env = env_from_spec({"kind": "pricing",
                         "values": {"kind": "uniform", "a": 0, "b": 1}},
                        T=64, seed=0)
    assert isinstance(env, PricingEnv)
    env = env_from_spec(two_bump_spec(), T=64, seed=0)
    assert isinstance(env, CombinedEnv)
    assert np.bincount(env.schedule).tolist() == [32, 32]  # equal phases
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("0.0,0.3\n1.0,0.7\n")
    env = env_from_spec({"kind": "custom_table", "path": str(csv_path)},
                        T=8, seed=0)
    assert env.means[0](0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="unknown keys"):
        env_from_spec({"kind": "distance_to_target", "sigma": 1}, T=8, seed=0)
    with pytest.raises(ValueError, match="kind"):
        env_from_spec({}, T=8, seed=0)


@pytest.mark.parametrize("row", ["0.5,0.4,0.3", "x,0.4", "0.5", "0.5,"])
def test_custom_table_file_names_a_bad_row(tmp_path, row):
    path = tmp_path / "table.csv"
    path.write_text(f"0.0,0.3\n\n{row}\n1.0,0.7\n")
    with pytest.raises(ValueError) as err:
        env_from_spec({"kind": "custom_table", "path": str(path)}, T=8, seed=0)
    assert str(err.value) == \
        f"{path}: line 3 must be x,mu (two numbers), got {row!r}"


def test_every_env_kind_rejects_an_unknown_noise():
    m1, m2 = two_bumps()
    with pytest.raises(ValueError, match="unknown noise 'bernouli'"):
        make_combined([m1, m2], [(0, 32), (1, 32)], [(0.1, 0.4), (0.6, 0.9)],
                      [0.2, 0.2], T=64, noise="bernouli")
    for spec in (two_bump_spec(), {"kind": "distance_to_target"}):
        for scale in ({}, {"noise_scale": 0.3}):
            with pytest.raises(ValueError, match="unknown noise 'bernouli'"):
                env_from_spec(dict(spec, noise="bernouli", **scale), T=64,
                              seed=0)


@pytest.mark.parametrize("key,value", [("noise", "none"),
                                       ("noise_scale", 0.3)])
def test_noise_keys_belong_to_the_env_not_its_instances(key, value):
    spec = two_bump_spec()
    spec["instances"][0][key] = value
    with pytest.raises(ValueError, match=re.escape(
            f"unknown keys ['{key}'] in env.instances[0]")):
        env_from_spec(spec, T=64, seed=0)
    gauss = {"noise": "gauss"} if key == "noise_scale" else {}
    for top in (two_bump_spec(), {"kind": "distance_to_target"}):
        env = env_from_spec(dict(top, **gauss, **{key: value}), T=64, seed=0)
        assert getattr(env, key) == value


@pytest.mark.parametrize("noise", [None, "bernoulli", "none"])
def test_noise_scale_without_gauss_noise_is_rejected(noise):
    given = {} if noise is None else {"noise": noise}
    for top in (two_bump_spec(), {"kind": "distance_to_target"}):
        with pytest.raises(ValueError, match=re.escape(
                f"noise_scale needs \"noise\": \"gauss\", not noise "
                f"{noise or 'bernoulli'!r}")):
            env_from_spec(dict(top, **given, noise_scale=0.3), T=64, seed=0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -0.5, -1e-300])
def test_noise_scale_must_be_finite_and_non_negative(scale):
    m1, m2 = two_bumps()
    msg = re.escape(f"noise_scale must be finite and non-negative, "
                    f"not {scale!r}")
    with pytest.raises(ValueError, match=msg):
        make_combined([m1, m2], [(0, 32), (1, 32)], [(0.1, 0.4), (0.6, 0.9)],
                      [0.2, 0.2], T=64, noise="gauss", noise_scale=scale)
    with pytest.raises(ValueError, match=msg):
        StochasticEnv(tent_mean(), noise="gauss", noise_scale=scale)
    if not math.isfinite(scale):  # a config's numbers are finite JSON numbers
        msg = re.escape(f"env.noise_scale must be a number, got {scale!r}")
    for top in (two_bump_spec(), {"kind": "distance_to_target"}):
        with pytest.raises(ValueError, match=msg):
            env_from_spec(dict(top, noise="gauss", noise_scale=scale), T=64,
                          seed=0)


def test_zero_noise_scale_gives_the_mean():
    for top in (two_bump_spec(), {"kind": "distance_to_target"}):
        env = env_from_spec(dict(top, noise="gauss", noise_scale=0.0), T=64,
                            seed=0)
        rewards = [env.reward(t, (0.3,)) for t in range(1, 9)]
        assert rewards == [float(env.mean_at(t, 0.3)) for t in range(1, 9)]


def test_reward_block_keeps_the_callers_ufunc_buffer_size():
    # the kernel shrinks numpy's ufunc buffer around one call, and must
    # hand the caller's size back
    with np.errstate():
        np.setbufsize(4096)
        StochasticEnv(tent_mean(), seed=0).reward_block(
            np.arange(1, 9), np.linspace(0.0, 1.0, 5))
        assert np.getbufsize() == 4096
