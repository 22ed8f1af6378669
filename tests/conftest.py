import sys
from pathlib import Path

import numpy as np
import pytest

# make the oracle helper importable from any test module
sys.path.insert(0, str(Path(__file__).parent))

from advzoom.env import MeanFunction, StochasticEnv

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
