import sys
from pathlib import Path

import numpy as np
import pytest

# make the oracle helper importable from any test module
sys.path.insert(0, str(Path(__file__).parent))

from advzoom.env import MeanFunction, StochasticEnv, make_combined

GOLD = 0.6180339887498949


def tent_mean(peak=0.8, baseline=0.0, target=GOLD):
    return MeanFunction(
        "distance_to_target",
        {"target": target, "peak": peak, "baseline": baseline},
    )


@pytest.fixture
def tent_env():
    def make(seed=0, noise="bernoulli", **kw):
        return StochasticEnv(tent_mean(**kw), noise=noise, seed=seed)

    return make


def tied_points(rng, n, d):
    """n points on a coarse grid of [0,1]^d, so that many distances tie
    (duplicate points included)."""
    k = int(rng.integers(1, 9))
    return rng.integers(0, k + 1, size=(n, d)) / k


# set sizes around greedy_net's 64-point passes, the last one large enough
# that a pass's centres x rest distances are cut into chunks
NET_EDGE_SIZES = (63, 64, 65, 129, 400)


def net_edge_points(rng, n, d):
    """n points of [0,1]^d on a grid fine enough that most are distinct,
    with about one in eight a copy of another point."""
    k = 4 * int(np.ceil(n ** (1.0 / d)))
    pts = rng.integers(0, k + 1, size=(n, d)) / k
    dup = rng.choice(n, n // 8, replace=False)
    pts[dup] = pts[rng.integers(0, n, len(dup))]
    return pts


def net_edge_eps(rng, dist):
    """Ten cover scales of cover_eps_ladder(dist), its least and largest
    included: most put a point exactly on the cover radius."""
    ladder = cover_eps_ladder(dist)
    inner = rng.choice(len(ladder) - 2, min(8, len(ladder) - 2),
                       replace=False)
    return [ladder[0], *(ladder[1 + i] for i in sorted(inner)), ladder[-1]]


def sup_dist(pts):
    return np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)


def euclid_dist(pts):
    return np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))


def cover_eps_ladder(dist):
    """Cover scales eps from below the least positive distance to above the
    diameter, with eps/2 equal to every distance present, so that points
    sit exactly on a cover radius."""
    pos = np.unique(dist[dist > 0])
    return [0.5 * pos.min(initial=1.0), *(2.0 * pos),
            3.0 * pos.max(initial=1.0)]


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
