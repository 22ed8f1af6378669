"""Action-space geometry.

Two hierarchies are provided:

* the dyadic cube tree over [0,1]^d under the sup metric, where a node of
  height h is an axis-parallel cube of side 2**-h and its 2^d children are
  its quadrants;
* a zooming DAG over an arbitrary finite metric space, built level by level
  from greedy coverings, for use when the action set is not a cube.

Nodes of both hierarchies are named by node_id = (height, cell or center
point index) and expose `height`, `scale` (cube diameter, ball radius) and
`children` (the nodes one level down); with node_id, which keys
representative's seeded draw, that is all the zooming learner reads of
them.  Plus the covering utilities: one greedy net (the DAG's levels here,
evaluate's cover counts) and a brute-force doubling-constant estimate,
whose one greedy cover of a ball is _ball_cover_count; and product_grid,
the grids of evaluation and of the fixed-grid baseline.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rng import fnv1a64, uniform

# --------------------------------------------------------------------------
# Cube tree
# --------------------------------------------------------------------------

# the arm a cube node plays: see representative
REPR_POLICIES = ("center", "low_endpoint", "seeded_uniform")


@dataclass(frozen=True)
class CubeNode:
    """Axis-parallel dyadic cube: side 2**-height, sup-diameter = side.

    The node is its id (height, cell), cell[j] in [0, 2**height) indexing
    the dyadic cell along axis j; ids are stable across runs and hashable.
    Its geometry is derived from the id, exactly: along axis j it spans
    [2c, 2c + 2] half-widths of 2**-(height+1), dyadic rationals of at most
    height + 1 <= 53 significant bits.  As a zooming node its scale is its
    diameter and its children are its 2^d quadrants (see cube_children).
    """

    node_id: tuple  # (height, cell)

    @property
    def height(self) -> int:
        return self.node_id[0]

    @property
    def cell(self) -> tuple:
        return self.node_id[1]

    @property
    def dim(self) -> int:
        return len(self.cell)

    @property
    def half_width(self) -> float:
        return 0.5 ** (self.height + 1)

    @property
    def scale(self) -> float:
        """The sup-diameter, equal to the side."""
        return 2.0 * self.half_width

    @property
    def center(self) -> tuple:
        h = self.half_width
        return tuple((2 * c + 1) * h for c in self.cell)

    @property
    def children(self) -> list:
        return cube_children(self)

    def low_corner(self) -> tuple:
        h = self.half_width
        return tuple(2 * c * h for c in self.cell)


def product_grid(axis: np.ndarray, d: int) -> np.ndarray:
    """The points of axis^d as rows, the last coordinate varying fastest."""
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def cube_root(d: int) -> CubeNode:
    """Root cube [0,1]^d: height 0, scale 1."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return CubeNode((0, (0,) * d))


def cube_children(u: CubeNode) -> list:
    """The 2^d quadrants of u, each of half the side, heights h(u)+1.

    Quadrant q uses bit j of q to pick the low (0) or high (1) half along
    axis j; children ordered by q, which fixes activation order downstream.
    """
    height, cell = u.node_id
    return [CubeNode((height + 1, tuple(2 * c + ((q >> j) & 1)
                                        for j, c in enumerate(cell))))
            for q in range(1 << len(cell))]


def representative(u, policy: str = "center", seed: int = 0) -> tuple:
    """Fixed data-independent arm inside node u.

    For cube nodes: the cube center, the low corner (the natural choice for
    posted prices, where only downward deviations are safe), or a uniform
    draw keyed by (seed, node id) so it never depends on observations.
    DAG nodes always use their ball center.  policy is one of REPR_POLICIES.
    """
    if policy not in REPR_POLICIES:
        raise ValueError(f"unknown representative policy {policy!r}")
    if isinstance(u, DagNode):
        return u.arm
    if policy == "center":
        return u.center
    if policy == "low_endpoint":
        return u.low_corner()
    key = fnv1a64(f"repr:{seed}:{u.node_id}")
    us = uniform(key, np.arange(u.dim))
    lo = u.low_corner()
    return tuple(lo[j] + u.scale * us[j] for j in range(u.dim))


# --------------------------------------------------------------------------
# Finite metric spaces
# --------------------------------------------------------------------------

_NET_CELLS = 1 << 14  # distances per greedy_net chunk of the rest


class FiniteMetricSpace:
    """Finite point set with an explicit distance matrix.

    Symmetry, zero diagonal, nonnegativity, the triangle inequality and a
    diameter of at most 1 are checked on construction.
    """

    def __init__(self, points: Sequence, dist):
        dist = np.asarray(dist, dtype=np.float64)
        n = len(points)
        if n == 0:
            raise ValueError("empty metric space")
        if dist.shape != (n, n):
            raise ValueError(f"distance matrix shape {dist.shape} != ({n}, {n})")
        if not np.isfinite(dist).all():
            i, j = np.argwhere(~np.isfinite(dist))[0]
            raise ValueError(f"distance ({i}, {j}) is {dist[i, j]}, not finite")
        if np.any(dist < 0):
            raise ValueError("negative distances")
        if np.any(np.diag(dist) != 0):
            raise ValueError("nonzero diagonal")
        if not np.array_equal(dist, dist.T):
            raise ValueError("distance matrix not symmetric")
        # min over k of d(i,k)+d(k,j) must not beat d(i,j); rows i go in
        # blocks of about 2^21 sums, so memory stays O(n^2) at any n and a
        # small space is checked in a single block
        rows = max(1, (1 << 21) // (n * n))
        via = np.concatenate([
            np.min(dist[i:i + rows, :, None] + dist[None, :, :], axis=1)
            for i in range(0, n, rows)
        ])
        if np.any(via < dist - 1e-12):
            i, j = np.unravel_index(np.argmin(via - dist), dist.shape)
            raise ValueError(
                f"triangle inequality violated at pair ({i}, {j}): "
                f"d={dist[i, j]:.6g} > best detour {via[i, j]:.6g}"
            )
        if dist.max() > 1.0:
            raise ValueError(f"diameter {float(dist.max()):.6g} > 1")
        self.points = list(points)
        self.dist = dist

    def __len__(self) -> int:
        return len(self.points)

    @functools.cached_property
    def doubling(self) -> "DoublingReport":
        """doubling_constant(self), computed on first use."""
        return doubling_constant(self)

    @classmethod
    def from_file(cls, path):
        """Load from text: first line n >= 1, then n rows of n distances;
        the points are 0..n-1."""
        with open(path) as f:
            tokens = f.read().split()
        if not tokens:
            raise ValueError(f"{path}: empty file")
        if not tokens[0].isdecimal() or int(tokens[0]) < 1:
            raise ValueError(f"{path}: the point count must be an int >= 1, "
                             f"got {tokens[0]!r}")
        n = int(tokens[0])
        vals = []
        for k, tok in enumerate(tokens[1:]):
            try:
                vals.append(float(tok))
            except ValueError:
                vals.append(math.nan)
            if not math.isfinite(vals[-1]):
                raise ValueError(f"{path}: distance {k + 1} (row {k // n + 1}, "
                                 f"column {k % n + 1}) must be a finite "
                                 f"number, got {tok!r}")
        if len(vals) != n * n:
            raise ValueError(f"{path}: expected {n * n} distances, got {len(vals)}")
        return cls(list(range(n)), np.array(vals).reshape(n, n))


def greedy_net(n: int, dist, r: float) -> list:
    """Centres of the greedy r-net of points 0..n-1, in ascending order:
    each point still uncovered, in turn, becomes a centre and covers the
    uncovered points within r of it.  dist(a, b) gives the (len(a), len(b))
    distances from candidate centres a to points b.

    A pass settles the next 64 uncovered points.  Their distance matrix
    gives each a row mask, a Python int, of those it leaves uncovered: the
    lowest live bit is the next centre, and its mask clears what it covers.
    Then centres x rest, in chunks of at most _NET_CELLS, drops each later
    point a new centre covers.  Exact: whether a head point is covered
    depends only on earlier centres, all in the head or applied before.  A
    d = 2 cover ladder of up to 1,089 centres took 8.4 ms, against 21.5 ms
    with a round of numpy calls per centre.
    """
    centers, live = [], np.arange(n)
    while len(live):
        head, rest = live[:64], live[64:]
        bits = 2 ** np.arange(len(head), dtype=np.uint64)
        masks = ((dist(head, head) > r) @ bits).tolist()
        left, picked = (1 << len(head)) - 1, []
        while left:
            i = (left & -left).bit_length() - 1
            picked.append(i)
            left &= (left - 1) & masks[i]  # i and the points it covers go
        new = head[picked]
        centers += new.tolist()
        step = max(1, _NET_CELLS // len(new))
        keep = [(dist(new, rest[lo:lo + step]) > r).all(axis=0)
                for lo in range(0, len(rest), step)]
        live = rest[np.concatenate(keep)] if keep else rest
    return centers


def greedy_cover(space: FiniteMetricSpace, eps: float) -> list:
    """Greedy eps-covering: ball centers (point indices), radius eps/2.

    The greedy_net of the space, so output is deterministic.  Guarantees
    every point lies within eps/2 of a returned center, and centers are
    pairwise more than eps/2 apart.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return greedy_net(len(space), lambda a, b: space.dist[np.ix_(a, b)],
                      eps / 2.0)


# --------------------------------------------------------------------------
# Zooming DAG
# --------------------------------------------------------------------------


@dataclass
class DagNode:
    """Ball node named by node_id = (height, center point index); its scale
    is the ball's radius, 2**-height in a zooming DAG and 0 for a fixed arm
    (0, k), a childless node of a flat arm set (see algo.AlgState).
    `children` holds the child DagNode objects of the next level.
    """

    node_id: tuple  # (height, center point index)
    scale: float
    arm: object  # the center's point value, played as the representative
    ball: frozenset = frozenset()  # point indices within distance scale
    children: list = field(default_factory=list, repr=False, compare=False)

    @property
    def height(self) -> int:
        return self.node_id[0]

    @property
    def center_point(self) -> int:
        return self.node_id[1]


@dataclass
class ZoomingDag:
    space: FiniteMetricSpace
    max_height: int
    nodes: dict  # node id -> DagNode
    levels: list  # levels[h] = list of node ids


def build_zooming_dag(space: FiniteMetricSpace, max_height: int) -> ZoomingDag:
    """Level-by-level DAG construction.

    Level h is a greedy (2r)-cover of the space with r = 2**-h, so its balls
    of radius r cover everything and their centers are > r apart.  Children
    of u are all next-level nodes whose balls share a point with B(u); this
    yields the covering (a), overlap (b) and separation (c) properties.
    """
    if max_height < 0:
        raise ValueError("max_height must be >= 0")
    levels = []
    nodes = {}
    for h in range(max_height + 1):
        r = 2.0 ** -h
        centers = greedy_cover(space, 2.0 * r)
        level = []
        for c in centers:
            nid = (h, c)
            ball = frozenset(np.flatnonzero(space.dist[c] <= r).tolist())
            nodes[nid] = DagNode(node_id=nid, scale=r, arm=space.points[c],
                                 ball=ball)
            level.append(nid)
        levels.append(level)
    for h in range(max_height):
        for uid in levels[h]:
            u = nodes[uid]
            u.children = [nodes[vid] for vid in levels[h + 1]
                          if u.ball & nodes[vid].ball]
    if len(levels[0]) != 1:
        # a (2*1)-cover of a diameter-<=1 space is a single ball
        raise AssertionError("root level should be a single node")
    return ZoomingDag(space=space, max_height=max_height, nodes=nodes, levels=levels)


# --------------------------------------------------------------------------
# Doubling constant
# --------------------------------------------------------------------------


@dataclass
class DoublingReport:
    """Smallest-cover-size estimate; exact=False marks a greedy upper bound."""

    value: int
    exact: bool


_EXACT_LIMIT = 12  # exact minimum set cover only up to this many candidates


def _grow(taken, cand, near):
    """`taken` plus, repeatedly, the lowest candidate bit, keeping only the
    candidates that near(bit) puts within reach of each bit taken."""
    while cand:  # candidates only shrink: the lowest is the next taken
        low = cand & -cand
        taken |= low
        cand &= near(low)
    return taken


def _ball_cover_count(ball, near, best=None):
    """(count, exact) for covering `ball`, a bitmask over point ids, by sets
    of at most half its diameter; near(bit) masks the ball's other members
    within that of bit.  The greedy takes the _grow'n set of the lowest
    uncovered member until none is left; the count is the exact minimum
    cover over the distinct grown sets when there are at most _EXACT_LIMIT,
    else the greedy count.  Given `best`, None as soon as the greedy count
    is known to be at most `best` (see doubling_constant)."""
    uncovered, count = ball, 0
    while uncovered:
        low = uncovered & -uncovered
        uncovered &= ~_grow(low, near(low), near)
        count += 1
        if best is not None and count + uncovered.bit_count() <= best:
            return None
    # the picks are distinct candidates: each holds its own member, which
    # no earlier pick covered
    if count > _EXACT_LIMIT:
        return count, False
    candidates, rest = set(), ball
    while rest:
        low = rest & -rest
        rest ^= low
        candidates.add(_grow(low, near(low), near))
        if len(candidates) > _EXACT_LIMIT:
            return count, False
    for k in range(1, count):
        for combo in itertools.combinations(candidates, k):
            if functools.reduce(int.__or__, combo) == ball:
                return k, True
    return count, True


def _balls(dist):
    """(ball, near) for every distinct ball of two or more points, largest
    first, as _ball_cover_count takes them.  A center's balls are the
    prefixes of its row in stable sorted order that end at the last tie of
    their radius; their diameters are running maxima over the same
    prefixes."""
    n = len(dist)
    order = np.argsort(dist, axis=1, kind="stable")
    srt = np.take_along_axis(dist, order, axis=1)
    # prefix[c][k]: the mask of the first k points of c's sorted row
    prefix = [list(itertools.accumulate((1 << j for j in row), int.__or__,
                                        initial=0))
              for row in order.tolist()]
    # diam[c, k]: the diameter of the first k+1 points of c's sorted row,
    # a running max of each point's largest distance to those before it
    diam = np.empty((n, n))
    for c, row in enumerate(order):
        sub = dist[np.ix_(row, row)]
        np.maximum.accumulate(
            np.maximum.accumulate(sub, axis=1).diagonal(), out=diam[c])
    # a ball of c ends where its radius is last tied; k >= 1 gives two or
    # more members
    ends = np.ones((n, n), dtype=bool)
    ends[:, :-1] = srt[:, 1:] != srt[:, :-1]
    ends[:, 0] = False
    centers, lasts = ends.nonzero()
    diam = diam.tolist()
    balls = {prefix[c][k + 1]: diam[c][k]
             for c, k in zip(centers.tolist(), lasts.tolist())}
    srt = srt.tolist()
    for ball in sorted(balls, key=int.bit_count, reverse=True):
        def near(bit, ball=ball, reach=balls[ball] / 2.0 + 1e-12):
            j = bit.bit_length() - 1
            return prefix[j][bisect.bisect_right(srt[j], reach)] & ball & ~bit
        yield ball, near


def doubling_constant(space: FiniteMetricSpace) -> DoublingReport:
    """Brute-force doubling constant of a small finite space.

    Every ball (all centers, all radii present in the distance matrix) must
    be coverable by `value` sets of at most half the ball's diameter: the
    largest _ball_cover_count over the balls.  Greedy covers make this an
    upper bound unless every ball admitted the exact search; the report
    says which.

    Balls are visited largest first, and two bounds skip those that cannot
    raise `best`, the largest count so far.  Both assume only that each
    greedy step covers a new member (its own), so they hold for any greedy
    that picks an uncovered member's set:
    * a ball of m <= best members counts at most m.  It is exact too, so
      no guard on `exact` is needed: while exact holds, best is at most
      the candidates of one ball, at most _EXACT_LIMIT, and m members have
      at most m candidates;
    * once exact is False, a greedy with p picks and u members uncovered
      ends at most at p + u, and the exact count is at most the greedy
      one.  While exact holds the ball is counted in full, as more than
      _EXACT_LIMIT candidates would end exactness.
    """
    best, exact = 1, True
    for ball, near in _balls(space.dist):
        if ball.bit_count() <= best:
            break  # so are all balls after it
        counted = _ball_cover_count(ball, near, None if exact else best)
        if counted is not None:
            count, ball_exact = counted
            best, exact = max(best, count), exact and ball_exact
    return DoublingReport(value=best, exact=exact)
