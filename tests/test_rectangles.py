import math

import numpy as np
import pytest

from egr import rectangles
from egr.geometry import (
    Configuration,
    GeometryError,
    SimplexSpec,
    check_copies,
    congruence_check,
    embed_from_distances,
    enumerate_copies,
    pairwise_sq_dists,
)
from egr.rectangles import (
    _census_classify,
    count_distance_pairs,
    path_config,
    product_config,
    regular_simplex,
)


def test_regular_simplex_small():
    seg = regular_simplex(2, 1.0)
    assert np.allclose(seg.points, [[0.0], [1.0]])
    tri = regular_simplex(3, 1.0)
    assert np.allclose(tri.points[2], [0.5, math.sqrt(3.0) / 2.0])


def test_regular_simplex_seven_points():
    cfg = regular_simplex(7, 2.0)
    assert cfg.points.shape == (7, 6)
    sq = pairwise_sq_dists(cfg.points)
    off = sq[np.triu_indices(7, k=1)]
    assert off.shape == (21,)
    assert np.abs(off - 4.0).max() < 1e-11


def test_regular_simplex_rejects_small_n():
    with pytest.raises(GeometryError):
        regular_simplex(1, 1.0)
    with pytest.raises(GeometryError):
        regular_simplex(3, 0.0)


def test_path_config_golden_triangle():
    path = path_config(2, 1.5, 1.0)
    assert np.allclose(path.points[0], [0.0, 0.0])
    assert np.allclose(path.points[2], [1.5, 0.0])
    assert np.allclose(path.points[1], [0.75, math.sqrt(0.4375)], atol=1e-12)


def test_path_config_equilateral():
    path = path_config(2, 1.0, 1.0)
    sq = pairwise_sq_dists(path.points)
    off = sq[np.triu_indices(3, k=1)]
    assert np.abs(off - 1.0).max() < 1e-12


def test_path_config_four_points_concyclic():
    path = path_config(3, 2.9, 1.0)
    path.verify()
    assert path.points.shape == (4, 2)
    # Circumcenter of the first three points must serve the fourth.
    a, b, c = path.points[:3]
    ax, ay = b - a
    bx, by = c - a
    d = 2.0 * (ax * by - ay * bx)
    ux = (by * (ax * ax + ay * ay) - ay * (bx * bx + by * by)) / d
    uy = (ax * (bx * bx + by * by) - bx * (ax * ax + ay * ay)) / d
    center = a + np.array([ux, uy])
    radii = np.linalg.norm(path.points - center, axis=1)
    assert np.abs(radii - path.radius).max() < 1e-9


def test_path_config_bisection_stops_at_neighbouring_doubles(monkeypatch):
    # A plain 200-step bisection reaches the same bits; the search stops
    # once the midpoint no longer moves.
    def plain(inside, lo, hi, rel):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if inside(mid) else (lo, mid)
        return lo, hi

    calls = []
    span = rectangles._arc_span
    monkeypatch.setattr(rectangles, "_arc_span", lambda *a: calls.append(a) or span(*a))
    for t, x, y in ((2, 1.5, 1.0), (3, 2.9, 1.0), (19, 1.0, 0.6)):
        calls.clear()
        fast = path_config(t, x, y)
        assert len(calls) < 100, (t, len(calls))
        with monkeypatch.context() as patch:
            patch.setattr(rectangles, "bisect", plain)
            slow = path_config(t, x, y)
        assert fast.step_angle == slow.step_angle
        assert fast.points.tobytes() == slow.points.tobytes()


def test_path_config_rejects_infeasible():
    with pytest.raises(GeometryError):
        path_config(3, 3.1, 1.0)  # t below fewest_edges
    with pytest.raises(GeometryError):
        path_config(2, 2.0, 1.0)  # straight-line limit
    with pytest.raises(GeometryError):
        path_config(2, 1.5, -1.0)


def test_fewest_edges_at_exact_multiples():
    assert rectangles.fewest_edges(2.0, 1.0) == 3
    assert rectangles.fewest_edges(math.nextafter(2.0, 0.0), 1.0) == 2
    assert rectangles.fewest_edges(0.5, 1.0) == 2
    assert rectangles.fewest_edges(3.0, 1.5) == 3


def test_fewest_edges_matches_both_rules_it_replaced():
    def leg_loop(gap, step, min_edges):
        t = max(2, min_edges, math.ceil(gap / step))
        while gap >= t * step:
            t += 1
        return t

    def path_accepts(t, x, y):
        return t >= max(2, math.ceil(x / y)) and x < t * y

    ys = [0.1, 0.3, 0.6, 0.7, 1.0, 1.5, 2.0 / 3.0]
    pairs = [(k * y, y) for y in ys for k in range(1, 9)]
    pairs += [(math.nextafter(x, direction), y) for x, y in list(pairs) for direction in (0.0, math.inf)]
    pairs += [(float(x), float(y)) for x, y in np.random.default_rng(12).uniform(0.05, 3.0, size=(200, 2))]
    for x, y in pairs:
        fewest = rectangles.fewest_edges(x, y)
        for min_edges in (1, 2, 3, 5, 12):
            assert max(min_edges, fewest) == leg_loop(x, y, min_edges), (x, y, min_edges)
        for t in range(1, fewest + 3):
            assert path_accepts(t, x, y) == (t >= fewest), (x, y, t)


def test_path_config_starts_at_fewest_edges():
    for x, y in [(2.0, 1.0), (3.0, 1.5), (math.nextafter(2.0, 0.0), 1.0), (2.9, 1.0), (0.5, 1.0)]:
        fewest = rectangles.fewest_edges(x, y)
        with pytest.raises(GeometryError, match=f"needs at least {fewest} edges"):
            path_config(fewest - 1, x, y)
        assert len(path_config(fewest, x, y).points) == fewest + 1


@pytest.mark.parametrize("count", [3.0, 2.5, True, "3"])
def test_path_and_census_read_counts_as_integers(count):
    # 3.0 and 2.5 ended in numpy's bare TypeError
    with pytest.raises(GeometryError, match="path edge count t must be an integer"):
        path_config(count, 2.5, 1.0)
    with pytest.raises(GeometryError, match="census m must be an integer"):
        count_distance_pairs(count, 2.5, 1.0)
    assert len(path_config(np.int64(3), 2.5, 1.0).points) == 4
    assert count_distance_pairs(np.int64(3), 2.5, 1.0)["enumerated"] == 190


def test_product_unit_square():
    seg = regular_simplex(2, 1.0)
    prod = product_config(seg, seg).product
    assert prod.points.shape == (4, 2)
    square = embed_from_distances(SimplexSpec.rectangle(1.0, 1.0))
    assert congruence_check(prod.points, square) is not None


def test_product_distance_law():
    left = regular_simplex(7, 1.0)
    right = path_config(2, 1.5, 1.0).as_configuration()
    prod = product_config(left, right)
    assert prod.product.points.shape == (21, 8)
    n = len(right)  # point (i, k) sits at flat index i*|right| + k
    rng = np.random.default_rng(5)
    for _ in range(50):
        i, j = rng.integers(0, 7, size=2)
        k, l = rng.integers(0, 3, size=2)
        got = math.dist(prod.product.points[n * i + k], prod.product.points[n * j + l]) ** 2
        want = (math.dist(left.points[i], left.points[j]) ** 2
                + math.dist(right.points[k], right.points[l]) ** 2)
        assert abs(got - want) < 1e-12


def test_product_with_single_point_is_copy():
    left = regular_simplex(4, 1.3)
    right = Configuration(points=np.array([[2.0]]))
    prod = product_config(left, right).product
    assert np.abs(pairwise_sq_dists(prod.points) - pairwise_sq_dists(left.points)).max() < 1e-12


def test_product_lifts_named_copies():
    left = regular_simplex(3, 1.5)
    right = path_config(2, 1.5, 1.0).as_configuration()
    prod = product_config(left, right)
    assert len(prod.product.named_copies["fibers"]) == 3
    assert all(len(f) == 3 for f in prod.product.named_copies["fibers"])
    pairs = prod.product.named_copies["right_endpoint_pair"]
    assert len(pairs) == 3
    for i, j in pairs:
        assert abs(math.dist(prod.product.points[i], prod.product.points[j]) - 1.5) < 1e-12
    # The path as the left factor: its copies act on the left index.
    flipped = product_config(right, left).product
    assert len(flipped.named_copies["left_edges"]) == 2 * 3
    assert len(flipped.named_copies["left_endpoint_pair"]) == 3
    check_copies(flipped.points, flipped.named_copies["left_edges"], SimplexSpec.pair(1.0).sq_dist)
    check_copies(flipped.points, flipped.named_copies["left_endpoint_pair"], SimplexSpec.pair(1.5).sq_dist)


def test_builders_declare_isometries_as_symmetry():
    simplex = regular_simplex(5, 1.5)
    path = path_config(2, 1.5, 1.0).as_configuration()
    prod = product_config(simplex, path).product
    assert "symmetry" not in path.notes
    assert len(simplex.notes["symmetry"]) == len(prod.notes["symmetry"]) == 10
    for cfg in (simplex, prod):
        sq = pairwise_sq_dists(cfg.points)
        for img in cfg.notes["symmetry"]:
            assert sorted(img) == list(range(len(cfg))) and img != list(range(len(cfg)))
            assert np.abs(sq[np.ix_(img, img)] - sq).max() < 1e-12
    # Images of more than SYMMETRY_ENTRIES point indices are not declared.
    assert "symmetry" in regular_simplex(80, 1.0).notes
    assert "symmetry" not in regular_simplex(81, 1.0).notes


def test_census_m2():
    out = count_distance_pairs(2, 1.5, 1.0)
    assert out == {
        "enumerated": 70,
        "formula_q": 70,
        "fiber_pairs": 63,
        "endpoint_pairs": 7,
    }


def test_census_m3():
    out = count_distance_pairs(3, 2.5, 1.0)
    assert out["formula_q"] == 4 * math.comb(10, 2) + 10 == 190
    assert out["enumerated"] == 190


def test_census_matches_enumerate_copies():
    simplex = regular_simplex(7, 1.5)
    path = path_config(2, 1.5, 1.0).as_configuration()
    prod = product_config(simplex, path).product
    pairs = enumerate_copies(prod, SimplexSpec.pair(1.5))
    assert len(pairs) == count_distance_pairs(2, 1.5, 1.0)["formula_q"]


@pytest.mark.parametrize("m,x,y,pairs", [(3, 3.0, 1.5, 190), (5, 4.0, 1.0, 736), (3, 2.9, 1.0, 190)])
def test_census_takes_the_fewest_edges(m, x, y, pairs):
    # at an exact multiple x = k*y the path needs k+1 edges, as path_config builds
    out = count_distance_pairs(m, x, y)
    assert out["enumerated"] == out["formula_q"] == pairs
    with pytest.raises(GeometryError, match="is not fewest_edges"):
        count_distance_pairs(m - 1, x, y)


def test_census_rejects_bad_parameters():
    with pytest.raises(GeometryError):
        count_distance_pairs(3, 1.5, 1.0)  # m != fewest_edges(x, y)
    with pytest.raises(GeometryError):
        count_distance_pairs(2, 1.0, 1.5)  # x <= y


def test_census_aborts_on_unattributable_pair():
    # Right factor with an interior chord at the long distance: the
    # pair (v0, v1) is same-left at distance x but not the endpoint
    # pair, so classification must fail.
    pts = np.array([[0.0, 1.5, 3.0]]).T
    with pytest.raises(GeometryError, match="not generic"):
        _census_classify(Configuration(points=pts), 3, 2, 1.5)
