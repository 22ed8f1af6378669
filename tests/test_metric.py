import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advzoom
from advzoom import metric
from advzoom.metric import (
    DagNode,
    DoublingReport,
    FiniteMetricSpace,
    _ball_cover_count,
    _balls,
    build_zooming_dag,
    cube_children,
    cube_root,
    doubling_constant,
    greedy_cover,
    representative,
)
from conftest import (NET_EDGE_SIZES, cover_eps_ladder, euclid_dist,
                      net_edge_eps, net_edge_points, sup_dist, tied_points)


def unit_space(dist):
    """The finite space on 0..n-1 of `dist` rescaled to diameter <= 1."""
    dist = np.asarray(dist, dtype=np.float64)
    return FiniteMetricSpace(list(range(len(dist))),
                             dist / max(1.0, dist.max()))


def line_space(n):
    pts = np.linspace(0.0, 1.0, n)
    return FiniteMetricSpace(list(pts), np.abs(np.subtract.outer(pts, pts)))


def action_span_radius(dag, node_id):
    """Max distance from a node's center to any point in its sub-DAG balls."""
    u = dag.nodes[node_id]
    seen = set()
    stack = [u]
    pts = set()
    while stack:
        v = stack.pop()
        if v.node_id in seen:
            continue
        seen.add(v.node_id)
        pts |= v.ball
        stack.extend(v.children)
    return float(max(dag.space.dist[u.center_point][p] for p in pts))


def greedy_cover_reference(space, eps):
    """greedy_cover as a mask loop over every point's distance per centre."""
    covered = np.zeros(len(space), dtype=bool)
    centers = []
    for i in range(len(space)):
        if not covered[i]:
            centers.append(i)
            covered |= space.dist[i] <= eps / 2.0
    return centers


def _grow_half_diameter_set(dist, members, start, half):
    """Grow a maximal diameter-<=half subset of `members` from `start`,
    scanning members in ascending order (deterministic)."""
    maxd = dist[start].copy()
    taken = [start]
    for q in members:
        if q != start and maxd[q] <= half + 1e-12:
            taken.append(q)
            maxd = np.maximum(maxd, dist[q])
    return frozenset(taken)


def ball_cover_count_reference(dist, members):
    """_ball_cover_count on frozensets, growing every set twice: once per
    member for the candidates, and again for each lowest uncovered member
    in the greedy."""
    sub = dist[np.ix_(members, members)]
    diam = float(sub.max())
    if diam == 0.0:
        return 1, True
    half = diam / 2.0
    candidates = []
    seen = set()
    for p in members:
        s = _grow_half_diameter_set(dist, members, p, half)
        if s not in seen:
            seen.add(s)
            candidates.append(s)
    uncovered = set(members)
    greedy_count = 0
    while uncovered:
        p = min(uncovered)
        uncovered -= _grow_half_diameter_set(dist, members, p, half)
        greedy_count += 1
    if len(candidates) > metric._EXACT_LIMIT:
        return greedy_count, False
    universe = set(members)
    for k in range(1, len(candidates) + 1):
        if k >= greedy_count:
            break
        for combo in itertools.combinations(candidates, k):
            if set().union(*combo) >= universe:
                return k, True
    return greedy_count, True


def distinct_balls(dist):
    """Member tuples of every distinct ball of at least two points."""
    balls = {}
    for i in range(len(dist)):
        for r in np.unique(dist[i]):
            members = tuple(np.flatnonzero(dist[i] <= r).tolist())
            if len(members) >= 2:
                balls[members] = None
    return list(balls)


def members_of(mask):
    """The point ids of a bitmask, ascending."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


# -- cube tree ---------------------------------------------------------------


def test_cube_root_basics():
    r1 = cube_root(1)
    assert r1.center == (0.5,) and r1.scale == 1.0 and r1.height == 0
    r2 = cube_root(2)
    assert r2.center == (0.5, 0.5) and r2.scale == 1.0
    assert len(cube_children(r2)) == 4
    r3 = cube_root(3)
    assert r3.height == 0 and r3.scale == 1.0
    with pytest.raises(ValueError):
        cube_root(0)


def test_cube_children_bisection():
    root = cube_root(1)
    kids = cube_children(root)
    assert [k.center[0] for k in kids] == [0.25, 0.75]
    assert all(k.scale == 0.5 and k.height == 1 for k in kids)
    left = kids[0]
    grandkids = cube_children(left)
    assert [k.center[0] for k in grandkids] == [0.125, 0.375]


def test_cube_children_quadrants():
    kids = cube_children(cube_root(2))
    centers = {k.center for k in kids}
    assert centers == {(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)}
    # quadrant q sets bit j of q for the high half along axis j
    assert [k.node_id for k in kids] == [(1, (0, 0)), (1, (1, 0)),
                                         (1, (0, 1)), (1, (1, 1))]


def test_children_tile_parent_exactly():
    # union of children boxes equals the parent box, disjoint interiors
    node = cube_root(2)
    for _ in range(3):
        kids = cube_children(node)
        los = [k.low_corner() for k in kids]
        his = [tuple(c + k.half_width for c in k.center) for k in kids]
        # pairwise disjoint interiors
        for (la, ha), (lb, hb) in itertools.combinations(zip(los, his), 2):
            overlap = all(max(la[j], lb[j]) < min(ha[j], hb[j]) for j in range(2))
            assert not overlap
        # total volume preserved and all inside the parent
        vol = sum(np.prod([h - l for l, h in zip(lo, hi)])
                  for lo, hi in zip(los, his))
        assert vol == pytest.approx(node.scale ** 2)
        plo, phi = node.low_corner(), tuple(
            c + node.half_width for c in node.center
        )
        for lo, hi in zip(los, his):
            assert all(plo[j] <= lo[j] and hi[j] <= phi[j] for j in range(2))
        node = kids[3]


def test_scale_matches_height():
    node = cube_root(1)
    for h in range(1, 8):
        node = cube_children(node)[h % 2]
        assert node.scale == pytest.approx(2.0 ** -node.height)


def test_representative_policies():
    node = cube_children(cube_root(1))[1]  # [0.5, 1]
    assert representative(node, "center") == (0.75,)
    assert representative(node, "low_endpoint") == (0.5,)
    assert representative(cube_root(2), "center") == (0.5, 0.5)
    u1 = representative(node, "seeded_uniform", seed=5)
    u2 = representative(node, "seeded_uniform", seed=5)
    assert u1 == u2  # data independent: same node, same seed, same arm
    assert 0.5 <= u1[0] <= 1.0
    assert representative(node, "seeded_uniform", seed=6) != u1
    with pytest.raises(ValueError):
        representative(node, "median")


def float_recursion_children(center, half_width):
    """(center, half width) of each quadrant by float arithmetic on the
    parent's: the centre moves by half the parent's half-width along every
    axis, low (bit 0) or high (bit 1), in cube_children's quadrant order."""
    h = half_width / 2.0
    return [(tuple(c + (h if (q >> j) & 1 else -h)
                   for j, c in enumerate(center)), h)
            for q in range(1 << len(center))]


def assert_geometry_is_the_float_recursion(nodes, centers, half_width,
                                           seed):
    """The derived geometry and representatives of nodes of one height
    equal those of the float recursion's centres and half-width bit for bit
    (by float.hex, so -0.0 cannot pass as 0.0)."""
    def hexes(xs):
        return [float(x).hex() for x in xs]

    keys = np.array([metric.fnv1a64(f"repr:{seed}:{u.node_id}")
                     for u in nodes])
    draws = metric.uniform(keys[:, None], np.arange(nodes[0].dim)).tolist()
    for node, center, draw in zip(nodes, centers, draws):
        low = tuple(c - half_width for c in center)
        drawn = tuple(lo + 2.0 * half_width * x for lo, x in zip(low, draw))
        assert hexes(node.center) == hexes(center)
        assert hexes(node.low_corner()) == hexes(low)
        assert node.half_width.hex() == half_width.hex()
        assert node.scale.hex() == (2.0 * half_width).hex()
        for policy, want in zip(metric.REPR_POLICIES, (center, low, drawn)):
            assert hexes(representative(node, policy, seed)) == hexes(want)


@pytest.mark.parametrize("d,height", [(1, 14), (2, 7), (3, 4)])
def test_cube_geometry_is_exact_on_every_cell(d, height):
    nodes, centers, half_width = [cube_root(d)], [(0.5,) * d], 0.5
    for h in range(height + 1):
        assert all(u.height == h and u.dim == d for u in nodes)
        assert_geometry_is_the_float_recursion(nodes, centers, half_width,
                                               seed=h)
        nodes = [v for u in nodes for v in cube_children(u)]
        centers = [c for center in centers
                   for c, _ in float_recursion_children(center, half_width)]
        half_width /= 2.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cube_geometry_is_exact_down_to_height_52(d):
    # 2c + 1 < 2^53 for every cell down to height 52, so every coordinate
    # of a cell there is a double
    node, center, half_width = cube_root(d), (0.5,) * d, 0.5
    rng = np.random.default_rng(d)
    for h in range(1, 53):
        q = int(rng.integers(1 << d))
        node = cube_children(node)[q]
        center, half_width = float_recursion_children(center, half_width)[q]
        assert node.height == h
        assert_geometry_is_the_float_recursion([node], [center], half_width,
                                               seed=h)
    assert max(node.cell) >= 1 << 50  # the path reached the last bits


def test_dag_node_height_and_center_point_are_its_id():
    x = (np.arange(40) + np.random.default_rng(4).random(40)) / 40
    space = FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x))
    dag = build_zooming_dag(space, 11)
    for h, level in enumerate(dag.levels):
        for nid in level:
            u = dag.nodes[nid]
            assert (u.height, u.center_point) == u.node_id == nid
            assert u.height == h and u.arm == x[u.center_point]
            assert u.ball == set(np.flatnonzero(
                space.dist[u.center_point] <= u.scale).tolist())


# -- finite metric spaces ----------------------------------------------------


def test_space_validation():
    with pytest.raises(ValueError, match=r"triangle .* pair \(0, 1\)"):
        FiniteMetricSpace([0, 1, 2], [[0, 1, 0.2], [1, 0, 0.2], [0.2, 0.2, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        FiniteMetricSpace([0, 1], [[0, 0.5], [0.4, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        FiniteMetricSpace([0, 1], [[0.1, 0.5], [0.5, 0]])
    with pytest.raises(ValueError, match="diameter"):
        FiniteMetricSpace([0, 1], [[0, 2.0], [2.0, 0]])
    with pytest.raises(ValueError, match="empty"):
        FiniteMetricSpace([], np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"shape \(2, 3\) != \(2, 2\)"):
        FiniteMetricSpace([0, 1], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="negative"):
        FiniteMetricSpace([0, 1], [[0, -0.5], [-0.5, 0]])


def test_triangle_check_fits_in_quadratic_memory():
    # an n x n x n detour tensor at n = 1000 needs 7.45 GiB; the check must
    # build a 1000-point space inside a 1 GiB address space
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        import numpy as np
        from advzoom.metric import FiniteMetricSpace
        pts = np.linspace(0.0, 1.0, 1000)
        sp = FiniteMetricSpace(list(pts), np.abs(np.subtract.outer(pts, pts)))
        assert len(sp) == 1000
    """)
    src = str(Path(advzoom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_space_from_file(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    sp = FiniteMetricSpace.from_file(path)
    assert len(sp) == 3 and sp.dist.max() == 1.0
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1\n")
    with pytest.raises(ValueError, match="expected 9"):
        FiniteMetricSpace.from_file(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text(" \n")
    with pytest.raises(ValueError, match="empty file"):
        FiniteMetricSpace.from_file(empty)


@pytest.mark.parametrize("count", ["0", "-1", "-2", "2.5", "1e9", "abc"])
def test_space_from_file_names_a_bad_point_count(tmp_path, count):
    path = tmp_path / "space.txt"
    path.write_text(f"{count}\n0 1\n1 0\n")
    with pytest.raises(ValueError) as err:
        FiniteMetricSpace.from_file(path)
    assert str(err.value) == (f"{path}: the point count must be an int "
                              f">= 1, got {count!r}")


@pytest.mark.parametrize("token", ["zz", "nan", "inf", "-inf"])
def test_space_from_file_names_a_bad_distance(tmp_path, token):
    path = tmp_path / "space.txt"
    path.write_text(f"3\n0 1 1\n1 0 {token}\n1 1 0\n")
    with pytest.raises(ValueError) as err:
        FiniteMetricSpace.from_file(path)
    assert str(err.value) == (f"{path}: distance 6 (row 2, column 3) must be "
                              f"a finite number, got {token!r}")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_space_rejects_a_non_finite_distance_first(bad):
    # symmetric, so no other check would name the value
    dist = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, bad], [0.5, bad, 0.0]])
    with pytest.raises(ValueError) as err:
        FiniteMetricSpace([0, 1, 2], dist)
    assert str(err.value) == f"distance (1, 2) is {bad}, not finite"


def test_greedy_cover_two_points():
    far = FiniteMetricSpace([0, 1], [[0, 1], [1, 0]])
    assert len(greedy_cover(far, 0.4)) == 2
    close = FiniteMetricSpace([0, 0.1], [[0, 0.1], [0.1, 0]])
    assert len(greedy_cover(close, 0.4)) == 1
    with pytest.raises(ValueError):
        greedy_cover(far, 0.0)


def test_greedy_cover_grid_properties():
    # 5-point uniform grid, eps = 0.5: exhaustively verify the covering and
    # packing properties, and the deterministic ascending-order count
    sp = line_space(5)
    eps = 0.5
    centers = greedy_cover(sp, eps)
    for i in range(len(sp)):
        assert min(sp.dist[i][c] for c in centers) <= eps / 2
    for a, b in itertools.combinations(centers, 2):
        assert sp.dist[a][b] > eps / 2
    assert centers == [0, 2, 4]


@pytest.mark.parametrize("n,eps", [(7, 0.3), (11, 0.17), (9, 0.6)])
def test_greedy_cover_properties_random_sizes(n, eps):
    sp = line_space(n)
    centers = greedy_cover(sp, eps)
    assert all(min(sp.dist[i][c] for c in centers) <= eps / 2
               for i in range(n))
    assert all(sp.dist[a][b] > eps / 2
               for a, b in itertools.combinations(centers, 2))


@pytest.mark.parametrize("d", [1, 2])
def test_greedy_cover_matches_the_reference_loop(d):
    rng = np.random.default_rng(10 + d)
    for _ in range(60):
        n = int(rng.integers(2, 25))
        dist = sup_dist(tied_points(rng, n, d))
        sp = FiniteMetricSpace(list(range(n)), dist)
        for eps in cover_eps_ladder(dist):
            assert greedy_cover(sp, eps) == greedy_cover_reference(sp, eps)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", NET_EDGE_SIZES)
def test_greedy_cover_matches_the_reference_across_net_passes(n, d):
    rng = np.random.default_rng(100 + n + d)
    dist = sup_dist(net_edge_points(rng, n, d))
    sp = FiniteMetricSpace(list(range(n)), dist)
    for eps in net_edge_eps(rng, dist):
        assert greedy_cover(sp, eps) == greedy_cover_reference(sp, eps)


def test_greedy_net_cuts_the_rest_into_chunks():
    # 400 distinct points and a radius below their spacing: every point is
    # a centre, so each pass's 64 centres meet the rest in chunks
    x = np.arange(400) / 400
    calls = []

    def dist(a, b):
        calls.append((len(a), len(b)))
        return np.abs(np.subtract.outer(x[a], x[b]))

    assert metric.greedy_net(len(x), dist, 1 / 1000) == list(range(400))
    assert all(r * c <= metric._NET_CELLS for r, c in calls)
    assert calls[:4] == [(64, 64), (64, 256), (64, 80), (64, 64)]


# -- zooming DAG -------------------------------------------------------------


def test_dag_singleton_chain():
    sp = FiniteMetricSpace(["x"], [[0.0]])
    dag = build_zooming_dag(sp, 4)
    assert [len(level) for level in dag.levels] == [1] * 5


def test_dag_two_far_points_split_at_level_one():
    sp = FiniteMetricSpace([0.0, 1.0], [[0, 1], [1, 0]])
    dag = build_zooming_dag(sp, 2)
    # radius 1/2 centers must be more than 1/2 apart, so both points appear
    assert len(dag.levels[1]) >= 2


def dag_property_failures(dag):
    """Exhaustive check of the DAG's covering (a), overlap (b) and
    separation (c) properties; returns human-readable failures."""
    bad = []
    for h, level in enumerate(dag.levels):
        r = 2.0 ** -h
        for uid in level:
            u = dag.nodes[uid]
            if h < dag.max_height:
                covered = set().union(*(v.ball for v in u.children))
                if not u.ball <= covered:
                    bad.append(f"(a) ball of {uid} not covered by children")
                bad += [f"(b) {uid} does not overlap child {v.node_id}"
                        for v in u.children if not u.ball & v.ball]
        for i, uid in enumerate(level):
            for vid in level[i + 1:]:
                a = dag.nodes[uid].center_point
                b = dag.nodes[vid].center_point
                if dag.space.dist[a, b] <= r:
                    bad.append(f"(c) same-radius centers {uid},{vid} within {r}")
    return bad


def test_dag_properties_eight_point_grid():
    sp = line_space(8)
    dag = build_zooming_dag(sp, 4)
    assert dag_property_failures(dag) == []
    # children centers are (r/2)-separated inside the 1.5r ball around the
    # parent, which packs at most DblC^3 of them (DblC itself is not a valid
    # bound for this construction: the root's level-1 node here has 3
    # children while the line's doubling constant is 2)
    n_dbl = doubling_constant(sp).value
    assert n_dbl == 2
    for node in dag.nodes.values():
        assert len(node.children) <= n_dbl**3
        # geometric containment: the action-span stays within 3 r(u)
        assert action_span_radius(dag, node.node_id) <= 3.0 * node.scale
    assert len(dag.nodes[(1, 0)].children) == 3


def test_every_node_kind_answers_scale_and_children():
    root = cube_root(2)
    assert root.scale == 1.0
    assert root.children == cube_children(root)
    dag = build_zooming_dag(line_space(8), 3)
    for h, level in enumerate(dag.levels):
        for nid in level:
            node = dag.nodes[nid]
            assert node.scale == 2.0 ** -h
            # children are the DAG's own node objects, one level down
            assert bool(node.children) == (h < dag.max_height)
            assert all(v.height == h + 1 and dag.nodes[v.node_id] is v
                       for v in node.children)
    arm = DagNode(node_id=(0, 0), scale=0.0, arm=(0.3,))
    assert arm.scale == 0.0 and arm.children == []


def test_dag_root_is_whole_space():
    sp = line_space(6)
    dag = build_zooming_dag(sp, 3)
    root = dag.nodes[dag.levels[0][0]]
    assert root.ball == frozenset(range(6))
    with pytest.raises(ValueError):
        build_zooming_dag(sp, -1)


# -- doubling constant -------------------------------------------------------


def test_doubling_singleton():
    sp = FiniteMetricSpace(["x"], [[0.0]])
    rep = doubling_constant(sp)
    assert rep.value == 1 and rep.exact


def test_doubling_three_equidistant():
    # oracle: exhaustive enumeration over all subsets of diameter <= 1/2
    # (singletons only), so the minimum cover of the radius-1 ball is 3
    sp = FiniteMetricSpace(list("abc"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    pts = range(3)
    half_sets = [
        s for r in range(1, 4) for s in itertools.combinations(pts, r)
        if all(sp.dist[a][b] <= 0.5 for a, b in itertools.combinations(s, 2))
    ]
    best = min(
        k for k in range(1, 4)
        for combo in itertools.combinations(half_sets, k)
        if set().union(*combo) == set(pts)
    )
    rep = doubling_constant(sp)
    assert rep.value == best == 3


def test_doubling_cube_grids():
    # dyadic interval grid: every ball is an interval, halves cover it
    rep = doubling_constant(line_space(9))
    assert rep.value <= 2
    # 2-d sup-metric grid: quadrants cover every ball
    axis = np.linspace(0, 1, 5)
    pts = [(x, y) for x in axis for y in axis]
    dist = np.array(
        [[max(abs(a[0] - b[0]), abs(a[1] - b[1])) for b in pts] for a in pts]
    )
    rep2 = doubling_constant(FiniteMetricSpace(pts, dist))
    assert rep2.value <= 4


def doubling_reference(dist):
    """The doubling report built from the reference count of every ball."""
    counts = [ball_cover_count_reference(dist, list(members))
              for members in distinct_balls(dist)]
    return DoublingReport(value=max([1] + [c for c, _ in counts]),
                          exact=all(exact for _, exact in counts))


def assert_doubling_matches_the_reference(dist):
    """Every ball's count and the report, on the space of `dist` rescaled
    to diameter <= 1."""
    sp = unit_space(dist)
    balls = list(_balls(sp.dist))
    members = [members_of(ball) for ball, _ in balls]
    assert sorted(members) == sorted(distinct_balls(sp.dist))
    sizes = [len(m) for m in members]
    assert sizes == sorted(sizes, reverse=True)
    for (ball, near), m in zip(balls, members):
        assert (_ball_cover_count(ball, near)
                == ball_cover_count_reference(sp.dist, list(m)))
    expected = doubling_reference(sp.dist)
    assert doubling_constant(sp) == expected
    return expected


@pytest.mark.parametrize("d", [1, 2])
def test_ball_cover_counts_match_the_reference(d):
    rng = np.random.default_rng(20 + d)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        assert_doubling_matches_the_reference(sup_dist(tied_points(rng, n, d)))
    # 26 evenly spaced points: more than _EXACT_LIMIT candidates, so the
    # greedy count stands
    rep = assert_doubling_matches_the_reference(line_space(26).dist)
    assert not rep.exact


@pytest.mark.parametrize("d", [2, 3])
def test_ball_cover_counts_match_the_reference_under_euclid(d):
    # grid points of [0,1]^d have Euclidean diameter up to sqrt(d), so the
    # spaces are rescaled (unit_space)
    rng = np.random.default_rng(30 + d)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        assert_doubling_matches_the_reference(
            euclid_dist(tied_points(rng, n, d)))


def test_ball_cover_counts_beyond_one_machine_word():
    # 70 points on 9 grid positions of a line: the whole space is a
    # 70-member ball, wider than a 64-bit mask
    pts = np.random.default_rng(70).integers(0, 9, size=(70, 1)) / 8
    assert np.ptp(pts) == 1.0
    assert_doubling_matches_the_reference(sup_dist(pts))
    # the whole ball of 70 evenly spaced points: more than _EXACT_LIMIT
    # candidates, so the greedy count stands
    dist = line_space(70).dist
    ball, near = next(_balls(dist))
    assert ball == (1 << 70) - 1
    got = _ball_cover_count(ball, near)
    assert got == ball_cover_count_reference(dist, list(range(70)))
    assert got[1] is False


def test_each_members_grown_set_matches_the_reference():
    for d in (1, 2):
        rng = np.random.default_rng(40 + d)
        for _ in range(10):
            dist = sup_dist(tied_points(rng, int(rng.integers(2, 21)), d))
            for ball, near in _balls(dist):
                members = members_of(ball)
                half = float(dist[np.ix_(members, members)].max()) / 2.0
                for p in members:
                    bit = 1 << p
                    mask = metric._grow(bit, near(bit), near)
                    want = _grow_half_diameter_set(dist, members, p, half)
                    assert set(members_of(mask)) == want


def greedy_count_reference(dist, members):
    """The reference's greedy count: the grown set of the lowest uncovered
    member, taken until none is left."""
    half = float(dist[np.ix_(members, members)].max()) / 2.0
    uncovered, count = set(members), 0
    while uncovered:
        p = min(uncovered)
        uncovered -= _grow_half_diameter_set(dist, members, p, half)
        count += 1
    return count


@pytest.mark.parametrize("euclid", [False, True])
def test_the_early_stop_is_none_exactly_when_the_greedy_is_within_best(
        euclid):
    # given best, _ball_cover_count answers None exactly when the greedy
    # count is at most best, and otherwise the full count, exact or not
    rng = np.random.default_rng(50 + euclid)
    metric_of = euclid_dist if euclid else sup_dist
    spaces = [unit_space(metric_of(tied_points(
        rng, int(rng.integers(2, 25)), int(rng.integers(1, 4)))))
        for _ in range(12)]
    for sp in [*spaces, line_space(26)]:
        for ball, near in _balls(sp.dist):
            members = list(members_of(ball))
            greedy = greedy_count_reference(sp.dist, members)
            full = ball_cover_count_reference(sp.dist, members)
            for best in range(1, greedy + 1):
                got = _ball_cover_count(ball, near, best)
                assert (got is None) == (greedy <= best)
                assert got is None or got == full


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 10), d=st.integers(1, 3), k=st.integers(1, 8),
       euclid=st.booleans(), data=st.data())
def test_doubling_constant_equals_the_reference_report(n, d, k, euclid, data):
    cells = data.draw(st.lists(st.lists(st.integers(0, k), min_size=d,
                                        max_size=d),
                               min_size=n, max_size=n))
    pts = np.array(cells, dtype=np.float64) / k
    dist = (euclid_dist if euclid else sup_dist)(pts)
    sp = unit_space(dist)
    assert doubling_constant(sp) == doubling_reference(sp.dist)


@pytest.mark.parametrize("seed,value", [(0, 23), (1, 25)])
def test_doubling_value_on_stratified_56_point_spaces(seed, value):
    # one uniform draw in each of 56 equal cells of [0, 1]: the spaces of
    # the finite-space benchmark runs.  The greedy inflates the estimate
    # (the true constant of a line is about 2); fixing that must change
    # these pins on purpose.
    x = (np.arange(56) + np.random.default_rng(seed).random(56)) / 56
    sp = FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x))
    assert doubling_constant(sp) == DoublingReport(value=value, exact=False)


@pytest.mark.parametrize("seed,value", [(126704, 26), (126705, 24)])
def test_doubling_value_on_held_out_56_point_spaces(seed, value):
    # the same stratified spaces at the seeds of the benchmark's held-out
    # run (base seed 7919): 56-member balls, wider than a 64-bit mask
    x = (np.arange(56) + np.random.default_rng(seed).random(56)) / 56
    sp = FiniteMetricSpace(x.tolist(), np.abs(x[:, None] - x))
    assert doubling_constant(sp) == DoublingReport(value=value, exact=False)


@pytest.mark.parametrize("n,value", [(100, 51), (200, 101)])
def test_doubling_value_on_long_lines(n, value):
    # the greedy's count on evenly spaced lines grows as n/2 + 1 (the true
    # constant is 2), over balls up to 200 members wide
    assert doubling_constant(line_space(n)) == DoublingReport(value, False)


# tied-point seeds whose largest balls are exact while a smaller ball,
# whose greedy count is within the largest count so far, has more than
# _EXACT_LIMIT candidates: the greedy may stop early on such a ball only
# once the report is already inexact, or the report would wrongly read exact
EXACTNESS_ENDS_BELOW_THE_LARGEST_BALLS = [1029, 3036, 3634, 5002]
# seeds of untied points where growing the skip's sets within half a
# ball's radius, not half its diameter, skips a ball that raises the count
RADIUS_IS_NOT_THE_DIAMETER = [51, 80]


@pytest.mark.parametrize("seed,tied", [
    *((s, True) for s in [*range(24), *EXACTNESS_ENDS_BELOW_THE_LARGEST_BALLS]),
    *((s, False) for s in RADIUS_IS_NOT_THE_DIAMETER)])
def test_doubling_constant_on_spaces_of_14_to_40_points(seed, tied):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(14, 41)), int(rng.integers(1, 4))
    metric_of = euclid_dist if rng.integers(0, 2) else sup_dist
    pts = tied_points(rng, n, d) if tied else rng.random((n, d))
    sp = unit_space(metric_of(pts))
    assert doubling_constant(sp) == doubling_reference(sp.dist)
