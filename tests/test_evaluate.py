import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import advzoom
from advzoom import algo, evaluate
from advzoom.env import (MeanFunction, PricingEnv, RewardTable, StochasticEnv,
                         make_combined)
from advzoom.evaluate import (
    covering_count,
    dimension_fit,
    eps_ladder_times,
    eps_optimal_set,
    gaps_at,
    grid_points,
    loglog_slope,
    monitor,
    regret,
    Violation,
)
from advzoom.metric import FiniteMetricSpace
from advzoom.trace import NodeMeta, RoundRecord, Trace
from conftest import (GOLD, NET_EDGE_SIZES, cover_eps_ladder, net_edge_eps,
                      net_edge_points, sup_dist, tent_mean, tied_points)


def adversarial_gap(env, grid, t, x):
    """Gap of a single arm (appended to the grid if absent)."""
    grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    x = np.atleast_1d(np.asarray(x, dtype=np.float64)).reshape(1, -1)
    match = np.flatnonzero(np.all(grid == x, axis=1))
    if len(match):
        idx = int(match[0])
        full = grid
    else:
        full = np.vstack([grid, x])
        idx = len(full) - 1
    return float(gaps_at(env, full, [t])[idx, 0])


def det_env(xs_ys):
    return StochasticEnv(
        MeanFunction("custom_table", {"xs": xs_ys[0], "ys": xs_ys[1]}),
        noise="none",
    )


def synthetic_trace(rewards, arms=None, T=None):
    T = T or len(rewards)
    tr = Trace(algorithm="adversarial_zooming", T=T, d=1, n_dbl=2, seed=0)
    tr.add_node(NodeMeta(0, None, 0, 1.0, 1, (0.5,), 0.0))
    for t, r in enumerate(rewards, start=1):
        arm = (arms[t - 1],) if arms else (0.5,)
        tr.append(RoundRecord(t=t, node_id=0, arm=arm, reward=float(r),
                              beta=0.5, beta_tilde=0.5, gamma=0.5, eta=0.5,
                              n_active=1))
    return tr


# -- regret -------------------------------------------------------------------


def test_regret_zero_when_playing_grid_best():
    env = det_env(([0, 0.5, 1], [0.2, 0.9, 0.2]))
    best = 0.5
    tr = synthetic_trace([env.reward(t, best) for t in range(1, 33)])
    rep = regret(tr, env, grid_eps=1 / 16)
    assert rep.regret == pytest.approx(0.0)
    assert rep.best_arm == (0.5,)
    assert rep.lipschitz_slack == pytest.approx(32 / 16)


def test_regret_T_when_playing_worst_arm():
    env = det_env(([0, 0.49, 0.51, 1], [1.0, 1.0, 0.0, 0.0]))
    tr = synthetic_trace([0.0] * 40)
    rep = regret(tr, env, grid=np.array([[0.25], [0.75]]))
    assert rep.regret == pytest.approx(40.0)
    assert rep.regret_curve.tolist() == pytest.approx(
        np.arange(1, 41, dtype=float).tolist()
    )


def test_regret_guard_on_grid_size():
    env = det_env(([0, 1], [0.5, 0.5]))
    tr = synthetic_trace([0.5] * 100)
    with pytest.raises(ValueError, match="grid too large"):
        regret(tr, env, grid=np.zeros((evaluate.MAX_EVALS // 100 + 1, 1)))
    with pytest.raises(ValueError, match="grid_eps=1e-05 at d=1, T=100"):
        regret(tr, env, grid_eps=1e-5)


def test_an_empty_grid_is_named_by_every_replay_caller():
    env = det_env(([0, 1], [0.5, 0.5]))
    empty = np.zeros((0, 1))
    assert eps_ladder_times(0.1, 64)  # so eps_optimal_set replays
    with pytest.raises(ValueError, match="empty evaluation grid"):
        regret(synthetic_trace([0.5] * 5), env, grid=empty)
    with pytest.raises(ValueError, match="empty evaluation grid"):
        gaps_at(env, empty, [5])
    with pytest.raises(ValueError, match="empty evaluation grid"):
        eps_optimal_set(env, empty, [0.1], 64)


def old_cli_grid_eps(d, T):
    """The CLI's coarsening loop before grid_eps_for owned it (reference)."""
    eps = 1.0 / 1024 if d == 1 else 1.0 / 64
    while (round(1.0 / eps) + 1) ** d * T > evaluate.MAX_EVALS:
        if eps >= 1.0:
            raise ValueError("too long")
        eps *= 2.0
    return eps


@pytest.mark.parametrize("d", [1, 2])
def test_grid_eps_for_coarsens_like_the_old_cli_loop(d):
    # T at and around every step: the last T each spacing fits
    eps, steps = (1.0 / 1024 if d == 1 else 1.0 / 64), []
    while eps <= 1.0:
        steps.append(evaluate.MAX_EVALS // (round(1 / eps) + 1) ** d)
        eps *= 2.0
    Ts = [1, 64] + [T + k for T in steps for k in (-1, 0, 1)]
    for T in Ts:
        if T > steps[-1]:
            with pytest.raises(ValueError, match=f"T={T} is too long"):
                evaluate.grid_eps_for(d, T)
            with pytest.raises(ValueError):
                old_cli_grid_eps(d, T)
        else:
            assert evaluate.grid_eps_for(d, T) == old_cli_grid_eps(d, T), T


@pytest.mark.parametrize("eps", [1 / 16, 0.3, 1.0, 1.5])
def test_grid_eps_for_returns_an_explicit_eps_that_fits(eps):
    assert evaluate.grid_eps_for(2, 4096, eps) == eps


@pytest.mark.parametrize("d, T, eps", [
    (1, 4096, 1e-4), (2, 4096, 1 / 256), (1, 16, 0.0), (1, 16, -0.1),
    (1, 16, 2.0), (1, 16, math.inf), (1, 16, math.nan), (1, 16, 5e-324),
])
def test_grid_eps_for_rejects_an_explicit_eps_that_does_not_fit(d, T, eps):
    with pytest.raises(ValueError, match=f"grid_eps={eps!r} at d={d}, T={T}"):
        evaluate.grid_eps_for(d, T, eps)


@pytest.mark.parametrize("d, eps", [
    (1, 2.0), (1, 3.0), (2, 2.5), (1, 0.0), (1, -0.5), (1, math.nan),
])
def test_grid_points_rejects_an_eps_without_a_grid_step(d, eps):
    # round(1/eps) == 0 from eps = 2 on: the grid would divide by zero
    with pytest.raises(ValueError, match=re.escape(
            f"grid_eps must be in (0, 2), got {eps!r}")):
        grid_points(d, eps)
    assert grid_points(d, math.nextafter(2.0, 0.0)).tolist() == \
        grid_points(d, 1.0).tolist()


def test_regret_default_grid_is_coarsened_to_fit(tent_env):
    # 1025 arms x 16384 rounds exceeds MAX_EVALS; 1/512 is the first fit
    env = tent_env(seed=5)
    T = 16384
    tr = synthetic_trace([env.reward(t, (0.5,)) for t in range(1, T + 1)])
    got, want = regret(tr, env), regret(tr, env, grid_eps=1 / 512)
    assert got.to_dict() == want.to_dict()
    assert got.grid_eps == 1 / 512 and got.n_grid == 513
    assert np.array_equal(got.regret_curve, want.regret_curve)


def test_regret_cross_checked_on_finer_grid(tent_env):
    # deterministic rewards: the Lipschitz slack genuinely bounds what a
    # finer grid can gain (realized-noise maxima would not be so bounded)
    env = tent_env(seed=3, noise="none")
    st = algo.init(1, 1024, algo.AlgoConfig(seed=3, record_state=False))
    tr = algo.run(st, env)
    coarse = regret(tr, env, grid_eps=1 / 256)
    fine = regret(tr, env, grid_eps=1 / 2560)
    assert coarse.regret > 0
    assert fine.regret >= coarse.regret - 1e-9  # finer grid finds a better arm
    assert abs(fine.regret - coarse.regret) <= coarse.lipschitz_slack


# -- adversarial gaps ---------------------------------------------------------


def test_gap_of_best_arm_is_zero():
    env = det_env(([0, 0.5, 1], [0.2, 0.9, 0.2]))
    grid = grid_points(1, 1 / 8)
    assert adversarial_gap(env, grid, 16, 0.5) == pytest.approx(0.0)


def test_gap_two_arm_deterministic():
    env = det_env(([0, 0.49, 0.51, 1], [1.0, 1.0, 0.0, 0.0]))
    grid = np.array([[0.25], [0.75]])
    for t in (1, 5, 40):
        assert adversarial_gap(env, grid, t, 0.75) == pytest.approx(1.0)
        assert adversarial_gap(env, grid, t, 0.25) == pytest.approx(0.0)
    gaps = gaps_at(env, grid, [4, 16])
    assert gaps[1].tolist() == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("ts, named", [
    ([0], "0"), ([], "none"), ([-3, 4], "-3"), ([2.5, 4], "2.5"),
    ([4, True], "True"), ([4.0], "4.0"),
])
def test_gaps_at_rejects_end_times_that_are_not_ints_from_one(ts, named):
    env = det_env(([0, 1], [0.5, 0.5]))
    with pytest.raises(ValueError, match=re.escape(
            f"end-times must be ints >= 1, got {named}")):
        gaps_at(env, grid_points(1, 1 / 4), ts)


def test_gaps_at_takes_numpy_ints_unsorted_and_repeated():
    env = det_env(([0, 0.49, 0.51, 1], [1.0, 1.0, 0.0, 0.0]))
    grid = np.array([[0.25], [0.75]])
    got = gaps_at(env, grid, np.array([16, 4, 16], dtype=np.int32))
    assert got.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    assert gaps_at(env, grid, (t for t in (4, 16))).tolist() == got.tolist()


def test_gap_tracks_iid_gap_on_stochastic_instance(tent_env):
    env = tent_env(seed=12)
    grid = grid_points(1, 1 / 64)
    T = 1024
    mu = tent_mean()(grid[:, 0])
    gap_iid = mu.max() - mu
    for t in (T // 2, T):
        bound = 3 * math.sqrt(2 * math.log(T * len(grid)) / t)
        emp = gaps_at(env, grid, [t])[:, 0]
        frac = np.mean(np.abs(emp - gap_iid) <= bound)
        assert frac >= 0.99


# -- blocked replay -----------------------------------------------------------


def single_pass_replay(env, grid, T, checkpoints=None):
    """Reference replay: one cumsum over all T rounds per 64-arm chunk."""
    ts = np.arange(1, T + 1)
    cum_best = np.full(T, -np.inf)
    cps = None if checkpoints is None else np.asarray(checkpoints, dtype=int)
    totals = (
        np.zeros(len(grid)) if cps is None else np.zeros((len(grid), len(cps)))
    )
    for lo in range(0, len(grid), 64):
        block = grid[lo : lo + 64]
        cs = np.cumsum(env.reward_block(ts, block), axis=1)
        np.maximum(cum_best, cs.max(axis=0), out=cum_best)
        if cps is None:
            totals[lo : lo + len(block)] = cs[:, -1]
        else:
            totals[lo : lo + len(block), :] = cs[:, cps - 1]
    return cum_best, totals


BLOCK = 2048
BUMPS = [MeanFunction("baseline_bump",
                      {"peak": 1.0, "baseline": 0.0, "support": (0.05, 0.45)}),
         MeanFunction("baseline_bump",
                      {"peak": 1.0, "baseline": 0.0, "support": (0.55, 0.95)})]
TENT_D2 = MeanFunction("distance_to_target",
                       {"peak": 0.8, "target": [GOLD, 1.0 - GOLD]})
# 101 arms at d = 1 and 100 at d = 2: narrow grids, summed one arm at a time
GRID_D1, GRID_D2 = grid_points(1, 1 / 100), grid_points(2, 1 / 9)
# at least _WIDE arms: wide grids, summed a round at a time across every arm
WIDE_D1 = grid_points(1, 1 / evaluate._WIDE)
WIDE_D2 = grid_points(2, 1 / math.isqrt(evaluate._WIDE))


def stochastic(mean, noise):
    return lambda T: StochasticEnv(mean, noise=noise, seed=1)


def combined_switching_at(switch):
    """Two-bump combined env on instance 1 from round `switch` on.

    Gaussian noise makes running sums round, so a carry added in another
    order than one long cumsum would change the bits.
    """
    def make(T):
        schedule = (np.arange(1, T + 1) >= switch).astype(np.int64)
        return make_combined(BUMPS, schedule, [(0.05, 0.45), (0.55, 0.95)],
                             [0.0, 0.0], T=T, noise="gauss", seed=5)
    return make


REPLAY_CASES = {
    "combined_switch_inside_block": (combined_switching_at(BLOCK // 2 + 1),
                                     GRID_D1),
    "combined_switch_on_block_edge": (combined_switching_at(BLOCK + 1),
                                      GRID_D1),
    "pricing": (lambda T: PricingEnv("uniform", {"a": 0.0, "b": 1.0}, seed=2),
                GRID_D1),
}
for _noise in ("bernoulli", "none", "gauss"):
    REPLAY_CASES[f"{_noise}_d1"] = (stochastic(BUMPS[0], _noise), GRID_D1)
    REPLAY_CASES[f"{_noise}_d2"] = (stochastic(TENT_D2, _noise), GRID_D2)
# the same cases on wide grids: new ids, so the ones above keep theirs
for _case, (_make, _grid) in list(REPLAY_CASES.items()):
    REPLAY_CASES[f"{_case}_wide"] = (_make,
                                     WIDE_D2 if _grid is GRID_D2 else WIDE_D1)
# grids of one and two arms: one-column and two-column blocks
REPLAY_CASES["one_arm"] = (combined_switching_at(BLOCK + 1), GRID_D1[50:51])
REPLAY_CASES["two_arms"] = (combined_switching_at(BLOCK + 1), GRID_D1[20:22])
REPLAY_CASES["one_arm_bernoulli"] = (stochastic(BUMPS[0], "bernoulli"),
                                     GRID_D1[20:21])


@pytest.mark.parametrize("T", [1, BLOCK - 3, BLOCK, 2 * BLOCK + 1])
@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_blocked_replay_is_bit_identical_to_one_pass(case, T):
    make, grid = REPLAY_CASES[case]
    env = make(T)
    cps = sorted({t for t in (1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1)
                  if t <= T} | {T})
    want = single_pass_replay(env, grid, T)
    got = evaluate._replay(env, grid, T)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    want = single_pass_replay(env, grid, T, cps)[1]
    got = evaluate._totals(env, grid, cps)
    if len(grid) > 1 or getattr(env, "noise", None) == "bernoulli":
        # Bernoulli totals are hit counts, exact in any order
        assert np.array_equal(got, want)
    else:
        # numpy sums a one-column block pairwise, not row by row, so one
        # arm's totals may differ from a cumsum in the last bits; gaps_at
        # makes its only gap 0 either way
        assert np.array_equal(gaps_at(env, grid, cps), np.zeros_like(got))


@pytest.mark.parametrize("T", [1, BLOCK - 3, BLOCK, 2 * BLOCK + 1])
@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_blocked_replay_is_bit_identical_under_a_second_block_shape(
        case, T, monkeypatch):
    # an odd cell count: no block fills its buffer, and block edges fall
    # off the phases; each grid is summed in both layouts.  Chunks of round
    # constants hold 1000 // B blocks of B rounds, so their edges fall
    # inside phases too, and a grid of one or two arms, whose block holds
    # more than 1000 rounds, takes one block a chunk
    monkeypatch.setattr(evaluate, "_CELLS", 9701)
    monkeypatch.setattr(evaluate, "_CHUNK", 1000)
    for wide in (1, len(REPLAY_CASES[case][1]) + 1):  # wide, then narrow
        monkeypatch.setattr(evaluate, "_WIDE", wide)
        test_blocked_replay_is_bit_identical_to_one_pass(case, T)


@pytest.mark.parametrize("wide", [False, True])
def test_replay_sums_a_round_at_a_time_from_the_wide_threshold(
        wide, monkeypatch):
    # fill gets arms x rounds either way: a view of a rounds-major block
    # (arms contiguous) on a wide grid, an arms-major one on a narrow grid
    n = evaluate._WIDE - 1 + wide
    grid = (np.arange(n) / n).reshape(-1, 1)
    fill, strides = RewardTable.fill, []

    def spy(self, rounds, out, tmp):
        strides.append(out.strides)
        return fill(self, rounds, out, tmp)

    monkeypatch.setattr(RewardTable, "fill", spy)
    T = 3 * (evaluate._CELLS // n) + 5  # four blocks, the last partial
    evaluate._replay(stochastic(BUMPS[0], "bernoulli")(T), grid, T)
    assert len(strides) == 4
    assert all((s[0] < s[1]) == wide for s in strides)


def test_replay_memory_does_not_grow_with_the_horizon():
    # one pass over 9 arms x 2^22 rounds holds a 302 MB reward table and its
    # temporaries at once; the blocked replay must fit in 1 GiB of address
    # space
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from advzoom.env import MeanFunction, StochasticEnv
        from advzoom.evaluate import gaps_at, grid_points
        mean = MeanFunction("distance_to_target", {"peak": 0.8, "target": 0.5})
        env = StochasticEnv(mean, seed=3)
        gaps = gaps_at(env, grid_points(1, 1 / 8), [2**20, 2**22])
        assert gaps.shape == (9, 2) and gaps.min() == 0.0
    """)
    src = str(Path(advzoom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# -- inclusively eps-optimal sets ----------------------------------------


def test_eps_ladder_strictly_past_threshold():
    # 0.75^-2/9 < 1 -> ladder starts at 1; integer threshold is bumped so
    # the end-time is strictly past eps^-2/9
    assert eps_ladder_times(0.75, 64) == [1, 2, 4, 8, 16, 32, 64]
    assert eps_ladder_times(1.0 / 3.0, 64) == [2, 4, 8, 16, 32, 64]
    assert eps_ladder_times(0.01, 100) == []  # starts past the horizon


def test_eps_ladder_of_an_eps_whose_square_overflows_is_empty():
    # eps**-2 overflows a float below about 7.5e-155: t0 is past any T
    for eps in (5e-324, 1e-200, 7.4e-155):
        assert eps_ladder_times(eps, 2**62) == []
    assert eps_ladder_times(1e-154, 2**62) == []  # t0 ~ 1.1e307


def test_eps_optimal_set_threshold_above_one_takes_all():
    env = det_env(([0, 0.49, 0.51, 1], [1.0, 1.0, 0.0, 0.0]))
    grid = grid_points(1, 1 / 8)
    T, d, n_dbl = 64, 1, 2
    eps = 0.5  # threshold = 30 * 0.5 * ln 64 * sqrt(ln 128) > 1 >= any gap
    thr = 30 * eps * math.log(T) * math.sqrt(d * math.log(n_dbl * T))
    assert thr >= 1.0
    assert eps_optimal_set(env, grid, [eps], T)[0].all()


def test_eps_with_an_empty_ladder_gets_an_empty_mask():
    env = det_env(([0, 0.49, 0.51, 1], [1.0, 1.0, 0.0, 0.0]))
    grid = grid_points(1, 1 / 16)
    assert eps_ladder_times(0.01, 64) == []
    masks = eps_optimal_set(env, grid, [0.5, 0.01], 64)
    assert masks[0].all()
    assert masks[1].dtype == bool and masks[1].shape == (17,)
    assert not masks[1].any()
    (only,) = eps_optimal_set(env, grid, [0.01], 64)
    assert only.dtype == bool and only.shape == (17,) and not only.any()


def test_eps_optimal_set_two_arm():
    # feasible thresholds sit above 10 ln(T) sqrt(ln 2T) / sqrt(T), so a
    # sub-gap threshold needs a long horizon; the computation itself is
    # cheap because only two arms are replayed
    env = det_env(([0, 0.49, 0.51, 1], [1.0, 1.0, 0.4, 0.4]))  # gap 0.6
    grid = np.array([[0.25], [0.75]])
    T, d, n_dbl = 2**20, 1, 2
    eps = 3.4e-4
    thr = 30 * eps * math.log(T) * math.sqrt(d * math.log(n_dbl * T))
    assert thr < 0.6
    assert eps_ladder_times(eps, T)  # the ladder reaches into [1, T]
    mask = eps_optimal_set(env, grid, [eps], T)[0]
    assert mask.tolist() == [True, False]


def test_eps_optimal_set_combined_concentrates_near_peaks():
    from advzoom.env import make_combined

    m1 = MeanFunction("baseline_bump",
                      {"peak": 1.0, "baseline": 0.0, "support": (0.05, 0.45)})
    m2 = MeanFunction("baseline_bump",
                      {"peak": 1.0, "baseline": 0.0, "support": (0.55, 0.95)})
    T = 2**21
    env = make_combined([m1, m2], [(0, T // 2), (1, T // 2)],
                        [(0.05, 0.45), (0.55, 0.95)], [0.0, 0.0],
                        T=T, noise="none", seed=4)
    grid = grid_points(1, 1 / 8)
    d, n_dbl = 1, 2
    eps = 2.42e-4
    thr = 30 * eps * math.log(T) * math.sqrt(d * math.log(n_dbl * T))
    assert 0.35 < thr < 0.5  # between the near-peak and the baseline gaps
    mask = eps_optimal_set(env, grid, [eps], T)[0]
    members = set(grid[mask][:, 0].tolist())
    # mixture gaps: 0 at the peaks, 0.3125 one grid step away, 0.5 at the
    # baseline arms; the set is exactly the two peak neighborhoods
    assert members == {0.125, 0.25, 0.375, 0.625, 0.75, 0.875}


# -- covering counts and dimension fits ---------------------------------------


def test_covering_single_point():
    assert covering_count(np.array([[0.3]]), 0.25) == 1
    ladder = [1 / 4, 1 / 8, 1 / 16]
    rep = dimension_fit(ladder, [1, 1, 1])
    assert rep.z_hat == pytest.approx(0.0, abs=1e-12)


def test_covering_count_of_an_empty_set_is_zero():
    assert covering_count([], 0.25) == 0
    assert covering_count(np.zeros((0, 2)), 0.25) == 0


def covering_count_reference(points, eps):
    """covering_count as a mask loop over every point's distance per centre."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    uncovered = np.ones(len(pts), dtype=bool)
    count = 0
    for i in range(len(pts)):
        if uncovered[i]:
            count += 1
            uncovered &= np.max(np.abs(pts - pts[i]), axis=1) > eps / 2.0
    return count


@pytest.mark.parametrize("d", [1, 2])
def test_covering_count_matches_the_reference_loop(d):
    rng = np.random.default_rng(30 + d)
    for _ in range(60):
        pts = tied_points(rng, int(rng.integers(1, 25)), d)
        for eps in cover_eps_ladder(sup_dist(pts)):
            assert covering_count(pts, eps) == \
                covering_count_reference(pts, eps)
    # near-optimal-like subsets of the evaluation grid, on the cover-fit ladder
    grid = grid_points(d, 1 / 32 if d == 1 else 1 / 16)
    for _ in range(10):
        subset = grid[rng.random(len(grid)) < rng.random()]
        for eps in [2.0 ** -k for k in range(0, 8)]:
            assert covering_count(subset, eps) == \
                covering_count_reference(subset, eps)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [*NET_EDGE_SIZES, 700])
def test_covering_count_matches_the_reference_across_net_passes(n, d):
    rng = np.random.default_rng(n + d)
    pts = net_edge_points(rng, n, d)
    for eps in net_edge_eps(rng, sup_dist(pts)):
        assert covering_count(pts, eps) == covering_count_reference(pts, eps)


def test_dimension_fit_recovers_exact_ladders():
    for z in (0.0, 0.5, 1.0, 1.7):
        ladder = [2.0 ** -k for k in range(2, 9)]
        counts = [3.0 * e ** -z for e in ladder]
        rep = dimension_fit(ladder, counts)
        assert abs(rep.z_hat - z) <= 1e-6
        assert rep.multiplier == pytest.approx(3.0, rel=1e-6)
    with pytest.raises(ValueError):
        dimension_fit([0.5, 0.25], [1, 2])


def test_dimension_fit_full_grid_and_two_points():
    grid = grid_points(1, 1 / 1024)
    ladder = [2.0 ** -k for k in range(2, 8)]
    counts = [covering_count(grid, e) for e in ladder]
    rep = dimension_fit(ladder, counts)
    # exact-count oracle: ceil(1/eps) intervals of length eps cover [0,1]
    oracle = dimension_fit(ladder, [math.ceil(1.0 / e) for e in ladder])
    assert abs(rep.z_hat - 1.0) <= 0.15
    assert abs(oracle.z_hat - 1.0) <= 0.15
    two = np.array([[0.2], [0.8]])
    rep2 = dimension_fit(ladder, [covering_count(two, e) for e in ladder])
    assert rep2.z_hat <= 0.3


def test_loglog_slope_edges():
    assert loglog_slope([1, 2, 4], [7, 7, 7])[0] == pytest.approx(0.0, abs=1e-12)
    assert loglog_slope([1, 2, 4], [1, 2, 4])[0] == pytest.approx(1.0)


# -- invariant monitor ---------------------------------------------------


def test_monitor_clean_on_real_run(tent_env):
    env = tent_env(seed=6)
    st = algo.init(1, 512, algo.AlgoConfig(seed=6))
    tr = algo.run(st, env)
    assert len(tr.zoom_events()) > 0
    assert monitor(tr) == []


def test_monitor_requires_snapshots(tent_env):
    env = tent_env(seed=6)
    st = algo.init(1, 16, algo.AlgoConfig(seed=6, record_state=False))
    tr = algo.run(st, env)
    with pytest.raises(ValueError, match="snapshots"):
        monitor(tr)


def _two_round_trace(pi2, zoom_child=True):
    """Root zooms at t=1; child 1 zooms at t=2 with probability pi2."""
    tr = Trace(algorithm="adversarial_zooming", T=4, d=1, n_dbl=2, seed=0)
    tr.add_node(NodeMeta(0, None, 0, 1.0, 1, (0.5,), 0.0, tau1=1, n_children=2))
    tr.add_node(NodeMeta(1, 0, 1, 0.5, 2, (0.25,), math.log(2),
                         tau1=2 if zoom_child else None, n_children=2))
    tr.add_node(NodeMeta(2, 0, 1, 0.5, 2, (0.75,), math.log(2)))
    tr.append(RoundRecord(t=1, node_id=0, arm=(0.5,), reward=1.0,
                          beta=0.5, beta_tilde=0.5, gamma=0.5, eta=0.5,
                          n_active=1, zoomed=(0,), active_ids=(0,),
                          pi=np.array([1.0])))
    tr.append(RoundRecord(t=2, node_id=1, arm=(0.25,), reward=1.0,
                          beta=0.5, beta_tilde=0.5, gamma=0.2, eta=0.5,
                          n_active=2, zoomed=(1,) if zoom_child else (),
                          active_ids=(1, 2),
                          pi=np.array([pi2, 1.0 - pi2])))
    return tr


def test_monitor_flags_fabricated_premature_zoom():
    # child zoomed with mass 0.4 < 1/(9 L^2) = 4/9; every other check passes
    bad = _two_round_trace(pi2=0.4)
    violations = monitor(bad)
    assert len(violations) == 1
    assert violations[0].check == "zoom_mass" and violations[0].node_id == 1
    clean = _two_round_trace(pi2=0.4, zoom_child=False)
    assert monitor(clean) == []


@pytest.mark.parametrize("tau1,flagged", [
    (5, [("lifespan", 5, 1, "tau1=5 < 2 tau1(parent) - 2 = 6")]), (6, [])])
def test_monitor_flags_a_child_zoomed_within_its_parents_lifespan(
        tau1, flagged):
    # the root zooms at t=4, so a child may zoom at 2 * 4 - 2 = 6 at the
    # earliest; every other check passes on both traces
    tr = Trace(algorithm="adversarial_zooming", T=8, d=1, n_dbl=2, seed=0)
    tr.add_node(NodeMeta(0, None, 0, 1.0, 1, (0.5,), 0.0, tau1=4,
                         n_children=2))
    tr.add_node(NodeMeta(1, 0, 1, 0.5, 5, (0.25,), math.log(2), tau1=tau1,
                         n_children=2))
    tr.add_node(NodeMeta(2, 0, 1, 0.5, 5, (0.75,), math.log(2)))
    for t in range(1, tau1 + 1):
        ids, pi = ((0,), [1.0]) if t <= 4 else ((1, 2), [0.5, 0.5])
        zoomed = (0,) if t == 4 else (1,) if t == tau1 else ()
        tr.append(RoundRecord(t=t, node_id=ids[0], arm=(0.5,), reward=1.0,
                              beta=0.5, beta_tilde=0.5, gamma=0.1, eta=0.5,
                              n_active=len(ids), zoomed=zoomed,
                              active_ids=ids, pi=np.array(pi)))
    assert [(v.check, v.t, v.node_id, v.detail)
            for v in monitor(tr)] == flagged
    assert_monitor_matches_reference(tr)


def test_monitor_zoom_probability_floor():
    # mass ok requires pi >= 4/9; use pi = 0.45 but beta/e^L needs 0.303:
    # passing; now drop pi below the floor and watch both checks fire
    bad = _two_round_trace(pi2=0.25)
    checks = {v.check for v in monitor(bad)}
    assert "zoom_mass" in checks and "zoom_probability" in checks


def test_monitor_node_count_arithmetic():
    # d=1, t=9: the bound is (81)^(1/3) = 4.32..., so 4 passes and 5 fails
    def counted(n_active):
        tr = Trace(algorithm="adversarial_zooming", T=16, d=1, n_dbl=2, seed=0)
        for k in range(n_active):
            tr.add_node(NodeMeta(k, None, 0, 1.0, 1, (0.5,), 0.0))
        pi = np.full(n_active, 1.0 / n_active)
        tr.append(RoundRecord(t=9, node_id=0, arm=(0.5,), reward=0.0,
                              beta=0.5, beta_tilde=0.5, gamma=0.5, eta=0.5,
                              n_active=n_active,
                              active_ids=tuple(range(n_active)), pi=pi))
        return [v for v in monitor(tr) if v.check == "node_count"]

    assert counted(4) == []
    bad = counted(5)
    assert len(bad) == 1 and "(9t)^(d/(d+2))" in bad[0].detail


def test_monitor_distribution_checks():
    tr = _two_round_trace(pi2=0.4)
    tr.rounds[1].pi = np.array([0.4, 0.7])  # sums to 1.1
    checks = {v.check for v in monitor(tr)}
    assert "pi_sum" in checks
    tr2 = _two_round_trace(pi2=0.05)  # below gamma/n = 0.1
    checks2 = {v.check for v in monitor(tr2)}
    assert "pi_floor" in checks2


# -- inherited diameter -------------------------------------------------------


def _root_then_child_trace(L):
    """T=2: the root (L=1) zooms at t=1 into one child of scale L."""
    tr = Trace(algorithm="adversarial_zooming", T=2, d=1, n_dbl=2, seed=0)
    tr.add_node(NodeMeta(0, None, 0, 1.0, 1, (0.5,), 0.0, tau1=1,
                         n_children=1))
    tr.add_node(NodeMeta(1, 0, 1, L, 2, (0.5,), 0.0))
    for t, nid in ((1, 0), (2, 1)):
        tr.append(RoundRecord(t=t, node_id=nid, arm=(0.5,), reward=1.0,
                              beta=0.5, beta_tilde=0.5, gamma=0.5, eta=0.5,
                              n_active=1, zoomed=(0,) if t == 1 else (),
                              active_ids=(nid,), pi=np.array([1.0])))
    return tr


def test_inherited_diameter_root_and_child():
    # the child inherits the root's round: sum L(act) = 1 + L at t=2,
    # against the bound 4 t log2(T) L = 8 L
    assert monitor(_root_then_child_trace(0.5)) == []  # 1.5 <= 4
    violations = monitor(_root_then_child_trace(0.1))  # 1.1 > 0.8
    assert [(v.check, v.t, v.node_id) for v in violations] == \
        [("inherited_diameter", 2, 1)]


def test_inherited_diameter_bound_on_real_run(tent_env):
    env = tent_env(seed=10)
    st = algo.init(1, 512, algo.AlgoConfig(seed=10))
    tr = algo.run(st, env)
    # children were activated, so some sums carry inherited rounds
    assert any(m.parent_id is not None for m in tr.node_table.values())
    assert [v for v in monitor(tr) if v.check == "inherited_diameter"] == []


# -- blocked monitor against the round-by-round reference --------------------


def monitor_reference(trace: Trace, tol: float = 1e-9) -> list:
    """The monitor as one loop over every (round, active node) pair: the
    reference that the blocked evaluate.monitor must equal exactly."""
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


# monitor block budgets: one node-round (a block per round), an odd size
# whose cuts fall off the zoom-ins, and the default
MONITOR_CELLS = (1, 301, evaluate._MONITOR_CELLS)


def assert_monitor_matches_reference(
        tr, cells=(evaluate._MONITOR_CELLS,)) -> None:
    """Equal ordered violation lists at the default tolerance and at
    negative ones, where most checks fire and every detail is compared,
    with the monitor's block budget set to each of cells."""
    for tol in (1e-9, -0.01, -1.0, -5.0):
        want = monitor_reference(tr, tol)
        for c in cells:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluate, "_MONITOR_CELLS", c)
                got = monitor(tr, tol)
            assert got == want
            # plain ints, so the run report's JSON can hold them
            assert all(type(v.t) is int for v in got)
            assert all(v.node_id is None or type(v.node_id) is int
                       for v in got)


@pytest.mark.parametrize("d,target", [(1, GOLD), (2, [GOLD, 1.0 - GOLD])])
def test_monitor_matches_reference_on_cube_runs(d, target):
    env = StochasticEnv(tent_mean(target=target), seed=0)
    tr = algo.run(algo.init(d, 2048, algo.AlgoConfig(seed=0)), env)
    assert tr.zoom_events()
    assert_monitor_matches_reference(tr, MONITOR_CELLS if d == 2 else
                                     (evaluate._MONITOR_CELLS,))


@pytest.mark.parametrize("seed", range(4))
def test_monitor_matches_reference_on_dag_spaces(seed, tent_env):
    # one uniform draw in each of 56 equal cells of [0, 1]
    x = (np.arange(56) + np.random.default_rng(seed).random(56)) / 56
    space = FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x))
    tr = algo.run(algo.init(space, 1024, algo.AlgoConfig(seed=seed)),
                  tent_env(seed=seed))
    assert tr.space_kind == "dag" and tr.zoom_events()
    assert_monitor_matches_reference(tr, MONITOR_CELLS if seed == 0 else
                                     (evaluate._MONITOR_CELLS,))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("start_height,n_flagged", [(1, 0), (2, 7), (3, 56)])
def test_monitor_matches_reference_from_a_deeper_start(
        seed, start_height, n_flagged, tent_env):
    # every cell down to start_height is zoomed before round 1.  The
    # node-count bound (9t)^(d/(d+2)) holds for a run from the root, so a
    # full level of 2^h nodes is flagged until 9t >= (2^h)^3
    st = algo.init(1, 4096, algo.AlgoConfig(seed=seed))
    for _ in range(start_height):
        algo.zoom_in(st, range(st.n_active))
    tr = algo.run(st, tent_env(seed=seed))
    flagged = monitor(tr)
    assert [v.check for v in flagged] == ["node_count"] * n_flagged
    assert_monitor_matches_reference(tr, MONITOR_CELLS if start_height == 3
                                     else (evaluate._MONITOR_CELLS,))


def test_monitor_matches_reference_on_anytime_phases(tent_env):
    phases = algo.run_anytime(1, algo.AlgoConfig(seed=2), 3000,
                              tent_env(seed=2))
    assert len(phases) == 12 and phases[0].T == 1
    for tr in phases:
        assert_monitor_matches_reference(tr, MONITOR_CELLS)


def test_monitor_matches_reference_when_a_zoomed_node_stays_active():
    """Node 0 zooms at t=1 and again at t=2 while staying active with its
    child 1, which starts from 0's sums as frozen at t=1; child 2 first
    appears after 0's second zoom-in and starts from the later sums.  At
    t=6 the active set changes with no zoom-in before it."""
    tr = Trace(algorithm="adversarial_zooming", T=8, d=1, n_dbl=2, seed=0)
    tr.add_node(NodeMeta(0, None, 0, 4.0, 1, (0.5,), 0.0, tau1=2,
                         n_children=2))
    tr.add_node(NodeMeta(1, 0, 1, 0.05, 2, (0.25,), math.log(2), tau1=3,
                         n_children=2))
    tr.add_node(NodeMeta(2, 0, 1, 0.05, 3, (0.75,), math.log(2)))
    rounds = [((0,), [1.0], (0,)), ((0, 1), [0.6, 0.4], (0,)),
              ((0, 1), [0.5, 0.5], (1,)), ((0, 1, 2), [0.2, 0.3, 0.5], ()),
              ((0, 1, 2), [0.3, 0.3, 0.4], ()), ((2, 0), [0.5, 0.5], ())]
    for t, (ids, pi, zoomed) in enumerate(rounds, start=1):
        tr.append(RoundRecord(t=t, node_id=ids[0], arm=(0.5,), reward=1.0,
                              beta=0.25, beta_tilde=0.25, gamma=0.3, eta=0.25,
                              n_active=len(ids), zoomed=zoomed,
                              active_ids=ids, pi=np.array(pi)))
    assert {v.check for v in monitor_reference(tr, -1.0)} >= {
        "zoom_mass", "zooming_invariant", "inherited_diameter"}
    assert_monitor_matches_reference(tr)


@pytest.mark.parametrize("cells", [301, None])
def test_monitor_blocks_stay_within_the_cell_budget(cells, monkeypatch):
    # |A_t| reaches 64 on this run, and one active set lasts 2048 rounds or
    # more: each block holds at most max(|A_t|, budget) node-rounds
    if cells is not None:
        monkeypatch.setattr(evaluate, "_MONITOR_CELLS", cells)
    budget = evaluate._MONITOR_CELLS
    env = StochasticEnv(tent_mean(target=[GOLD, 1.0 - GOLD]), seed=0)
    tr = algo.run(algo.init(2, 8192, algo.AlgoConfig(seed=0)), env)
    assert max(rec.n_active for rec in tr.rounds) == 64
    assert max(len(list(run)) for _, run in itertools.groupby(
        rec.active_ids for rec in tr.rounds)) >= 2048
    check, sizes = evaluate._check_block, []

    def spy(trace, block, *args):
        sizes.append((len(block), len(block[0].active_ids)))
        return check(trace, block, *args)

    monkeypatch.setattr(evaluate, "_check_block", spy)
    assert monitor(tr) == []
    assert sum(k for k, _ in sizes) == 8192
    assert max(n for _, n in sizes) == 64
    assert all(k * n <= max(n, budget) for k, n in sizes)


@pytest.mark.parametrize("height,flagged", [
    (2, []), (3, [("height_activated", 2, 1, "h=3 > 1 + log2 T")])])
def test_monitor_flags_a_node_activated_above_the_height_bound(
        height, flagged):
    # T=2: a node may sit at height 1 + log2 T = 2 at most, and one above
    # it is flagged at its activation round tau0 = 2
    tr = _root_then_child_trace(0.5)
    tr.node_table[1].height = height
    assert [(v.check, v.t, v.node_id, v.detail)
            for v in monitor(tr)] == flagged
    assert_monitor_matches_reference(tr)


@pytest.mark.parametrize("field,value", [
    ("pi", np.array([0.4, 0.3, 0.3])),  # three probabilities, two nodes
    ("active_ids", (1, 1)),  # one node twice
])
def test_monitor_rejects_malformed_snapshots(field, value):
    tr = _two_round_trace(pi2=0.4)
    setattr(tr.rounds[1], field, value)
    with pytest.raises(ValueError, match="round 2"):
        monitor(tr)
