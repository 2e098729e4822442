import math

import numpy as np
import pytest
from helpers import random_spec

from egr.geometry import (
    ConstraintViolation,
    GeometryError,
    SimplexSpec,
    congruence_check,
    embed_from_distances,
    pairwise_sq_dists,
)
from egr.perturbation import (
    build_perturbation_grid,
    contract_simplex,
    coordinate_lift,
    eps_max,
    is_connected,
    lifted_base_copy,
    orthogonal_lift_check,
)


def test_eps_max_segment():
    assert abs(eps_max(SimplexSpec.pair(1.0)) - 1.0 / math.sqrt(2.0)) < 1e-6


def test_eps_max_regular_tetrahedron():
    for lam in (1.0, 2.0**-40, 2.0**16):
        got = eps_max(SimplexSpec.regular(4, lam)) / lam
        assert abs(got - 1.0 / math.sqrt(2.0)) < 2e-9


def test_eps_max_brackets_realizability():
    em = eps_max(SimplexSpec.triangle(1.0, 1.0, 1.4))
    contract_simplex(SimplexSpec.triangle(1.0, 1.0, 1.4), 0.999 * em)
    with pytest.raises(ConstraintViolation) as err:
        contract_simplex(SimplexSpec.triangle(1.0, 1.0, 1.4), 1.001 * em)
    assert err.value.name == "eps_too_large"


def test_contract_regular_tetrahedron():
    out = contract_simplex(SimplexSpec.regular(4, 1.0), 0.5)
    off = out.sq_dist[np.triu_indices(4, k=1)]
    assert np.abs(off - 0.5).max() == 0.0
    with pytest.raises(ConstraintViolation):
        contract_simplex(SimplexSpec.regular(4, 1.0), 0.71)


def test_contract_zero_is_identity():
    spec = SimplexSpec.triangle(2.0, 2.0, 3.0)
    out = contract_simplex(spec, 0.0)
    assert np.array_equal(out.sq_dist, spec.sq_dist)


def test_contract_lift_round_trip_random():
    rng = np.random.default_rng(99)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        spec = random_spec(rng, k)
        eps = rng.uniform(0.1, 0.9) * eps_max(spec)
        out = contract_simplex(spec, eps)
        lifted = out.sq_dist + 2.0 * eps * eps
        np.fill_diagonal(lifted, 0.0)
        assert np.abs(lifted - spec.sq_dist).max() <= 1e-12
        # Geometric version: place the contracted simplex, push each
        # vertex along its own fresh axis, recover the original.
        pts = coordinate_lift(embed_from_distances(out), eps)
        back = pairwise_sq_dists(pts)
        assert np.abs(back - spec.sq_dist).max() <= 1e-9 * spec.sq_dist.max() + 1e-12


def test_orthogonal_lift_check_values():
    assert orthogonal_lift_check(0.5, 0.5) == 1.0
    assert orthogonal_lift_check(1.7, 0.0) == 1.7
    with pytest.raises(GeometryError):
        orthogonal_lift_check(-0.1, 0.5)


def test_grid_segment_example():
    grid = build_perturbation_grid(SimplexSpec.pair(1.0), [2], 0.6)
    assert grid.notes["n1"] == 2
    assert np.allclose(grid.points, [[0.0, 0.0], [1.0, 0.0], [0.5, 0.3]])
    sq = pairwise_sq_dists(grid.points)
    assert sq[np.triu_indices(3, k=1)].max() < 1.2 ** 2
    assert is_connected(grid.points, 0.6)


def test_grid_triangle_example():
    grid = build_perturbation_grid(SimplexSpec.regular(3, 1.0), [2, 2], 0.6)
    assert grid.notes["n1"] == 4
    assert len(grid.points) == 5
    assert is_connected(grid.points, 0.6)
    assert len(grid.named_copies["chains"]) == 2


def test_grid_notes_its_connectivity_last():
    grid = build_perturbation_grid(SimplexSpec.regular(3, 1.0), [2, 2], 0.6)
    assert list(grid.notes) == ["kind", "eps", "m_counts", "n1", "eps_steps", "connected"]
    assert grid.notes["connected"] is True


def test_is_connected_sees_a_split_grid():
    # Rows (0, 0), (1, 0) and (0.5, 0.3) are at least 0.58 apart, so at
    # eps = 0.2 no two balls meet; at 0.3 the middle row joins them.
    grid = build_perturbation_grid(SimplexSpec.pair(1.0), [2], 0.6)
    assert not is_connected(grid.points, 0.2)
    assert is_connected(grid.points, 0.3)


def test_grid_rejects_large_step():
    with pytest.raises(ConstraintViolation) as err:
        build_perturbation_grid(SimplexSpec.pair(1.0), [2], 0.4)
    assert err.value.name == "eps_floor"


def test_grid_rejects_bad_counts():
    with pytest.raises(GeometryError):
        build_perturbation_grid(SimplexSpec.pair(1.0), [2, 2], 0.6)
    with pytest.raises(GeometryError):
        build_perturbation_grid(SimplexSpec.pair(1.0), [1], 0.6)


@pytest.mark.parametrize("eps", [0.0, -0.6, math.nan, math.inf])
def test_grid_rejects_non_positive_or_non_finite_eps(eps):
    with pytest.raises(GeometryError, match=f"eps must be finite and positive, got {eps}"):
        build_perturbation_grid(SimplexSpec.triangle(1.0, 1.0, 1.0), [2, 3], eps)


@pytest.mark.parametrize("counts", [[2.9, 3.7], [2.0, 3], [True, 3], ["2", 3]])
def test_grid_reads_counts_as_integers(counts):
    # 2.9 and 3.7 were truncated to a grid with counts [2, 3]
    with pytest.raises(GeometryError, match="subdivision count must be an integer"):
        build_perturbation_grid(SimplexSpec.triangle(1.0, 1.0, 1.0), counts, 0.6)
    assert build_perturbation_grid(SimplexSpec.triangle(1.0, 1.0, 1.0), [np.int64(2), 3], 0.6).notes[
        "m_counts"
    ] == [2, 3]


@pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf])
def test_contract_rejects_negative_or_non_finite_eps(eps):
    with pytest.raises(GeometryError, match=f"eps must be finite and nonnegative, got {eps}"):
        contract_simplex(SimplexSpec.regular(4, 1.0), eps)


def test_grid_connected_on_random_simplices():
    rng = np.random.default_rng(31337)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        spec = random_spec(rng, k)
        m = [int(rng.integers(2, 5)) for _ in range(k - 1)]
        w = embed_from_distances(spec)
        step = max(np.linalg.norm(w[i + 1]) / m[i] for i in range(k - 1))
        grid = build_perturbation_grid(spec, m, 1.01 * step)
        assert is_connected(grid.points, 1.01 * step)
        assert len(grid.points) == grid.notes["n1"] + 1


def test_lifted_base_copy_segment():
    grid = build_perturbation_grid(SimplexSpec.pair(1.0), [2], 0.6)
    cfg = lifted_base_copy(grid, [1.0])
    assert abs(math.dist(cfg.points[0], cfg.points[1]) - 1.0) < 1e-12
    assert abs(math.dist(cfg.points[0], grid.points[0]) - 0.6) < 1e-12


def test_lifted_base_copy_triangle_random_directions():
    grid = build_perturbation_grid(SimplexSpec.regular(3, 1.0), [3, 3], 0.5)
    rng = np.random.default_rng(7)
    fiber = grid.notes["n1"] - 2
    for _ in range(20):
        u = rng.standard_normal(fiber)
        u /= np.linalg.norm(u)
        cfg = lifted_base_copy(grid, u)
        spec_pts = embed_from_distances(SimplexSpec.regular(3, 1.0))
        assert congruence_check(cfg.points, np.pad(spec_pts, ((0, 0), (0, 1)))) is not None


def test_lifted_base_copy_rejects_bad_direction():
    grid = build_perturbation_grid(SimplexSpec.pair(1.0), [2], 0.6)
    with pytest.raises(GeometryError):
        lifted_base_copy(grid, [0.0])
    with pytest.raises(GeometryError):
        lifted_base_copy(grid, [1.0, 0.0])


def test_coordinate_lift_distances():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, size=(5, 3))
    lifted = coordinate_lift(pts, 0.3)
    assert lifted.shape == (5, 8)
    got = pairwise_sq_dists(lifted)
    want = pairwise_sq_dists(pts) + 2.0 * 0.09
    np.fill_diagonal(want, 0.0)
    assert np.abs(got - want).max() < 1e-12
