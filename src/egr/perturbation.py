"""Simplex contraction, the connected subdivision grid, and sphere lifts.

Shrinking every squared side of a simplex by the same amount 2*eps^2 is
the inverse of lifting each vertex onto its own orthogonal eps-sphere
axis: the lift adds eps^2 twice per pair, once for each endpoint, and
there are no cross terms.  ``contract_simplex`` performs the shrink and
certifies the result stays a real nondegenerate simplex;
``eps_max`` locates the collapse threshold by bisection.

``build_perturbation_grid`` realizes, as a ``Configuration``, the
block-matrix point set whose rows are the simplex vertices (w_i, 0)
plus chain rows ((j/m_i) w_i, (eps/2) e_k) subdividing each edge from
the origin.  Its two load-bearing facts are verified directly: the rows
are affinely independent, and the graph joining rows at distance
< 2*eps is connected (``is_connected``), so the eps-balls around the
rows overlap along every chain.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (
    Configuration,
    ConstraintViolation,
    GeometryError,
    SimplexSpec,
    as_index,
    bisect,
    check_copies,
    components,
    embed_from_distances,
    is_nondegenerate,
    min_gram_eigenvalue,
    pairwise_sq_dists,
    sq_slack,
)


def _contracted_sq(sq: np.ndarray, eps: float) -> np.ndarray:
    out = sq - 2.0 * eps * eps
    np.fill_diagonal(out, 0.0)
    return out


def _contraction_ok(sq: np.ndarray, eps: float) -> bool:
    out = _contracted_sq(sq, eps)
    off = out[np.triu_indices(len(out), k=1)]
    if off.size and off.min() <= 0.0:
        return False
    # Judged against the original scale: the contracted simplex's own
    # scale shrinks towards the collapse point along with its Gram matrix.
    return min_gram_eigenvalue(out) > sq_slack(float(sq.max()))


def eps_max(spec: SimplexSpec) -> float:
    """Largest eps (within 1e-9 relative) whose contraction stays nondegenerate.

    The contracted Gram matrix decreases monotonically in eps, so the
    admissible set is an interval [0, eps_max) whose end ``bisect`` finds.
    """
    sq = spec.sq_dist
    if not is_nondegenerate(sq):
        raise GeometryError("degenerate simplex has no contraction margin")
    off = sq[np.triu_indices(len(sq), k=1)]
    lo, hi = 0.0, math.sqrt(float(off.min()) / 2.0)
    if _contraction_ok(sq, hi):
        raise GeometryError("contraction bracket failed to pin the collapse point")
    return bisect(lambda eps: _contraction_ok(sq, eps), lo, hi, 1e-9)[0]


def contract_simplex(spec: SimplexSpec, eps: float) -> SimplexSpec:
    """The simplex with every squared side shrunk by 2*eps^2, refused
    when that degenerates it."""
    if not 0.0 <= eps < math.inf:
        raise GeometryError(f"eps must be finite and nonnegative, got {eps}")
    if eps > 0.0 and not _contraction_ok(spec.sq_dist, eps):
        raise ConstraintViolation("eps_too_large", f"contraction by eps={eps} degenerates the simplex")
    return SimplexSpec(_contracted_sq(spec.sq_dist, eps))


def is_connected(points, eps: float) -> bool:
    """Whether the rows of ``points`` chain into one piece through pairs
    at distance strictly below 2*eps."""
    close = np.triu(pairwise_sq_dists(points) < (2.0 * eps) ** 2, k=1)
    return all(low == 0 for low in components(len(points), np.argwhere(close)))


def build_perturbation_grid(delta_spec: SimplexSpec, m_counts, eps: float) -> Configuration:
    """Subdivision grid over a simplex with one chain per edge from w0.

    Rows are the d+1 base rows w_i followed by the chain rows; the
    ``base`` copy is the base rows and each ``chains`` copy walks from
    w0 to one w_i.  Its notes are kind, eps, the counts m_i, n1 (the
    ambient and affine dimension sum(m_i - 1) + d), the chain steps and,
    last, ``connected``.  Refuses a grid whose chain steps reach eps or
    whose balls do not chain into one piece."""
    d = len(delta_spec.sq_dist) - 1
    m_counts = tuple(as_index(m, "subdivision count") for m in m_counts)
    if len(m_counts) != d:
        raise GeometryError(f"need {d} subdivision counts, got {len(m_counts)}")
    if any(m < 2 for m in m_counts):
        raise GeometryError(f"subdivision counts must be at least 2, got {m_counts}")
    if not 0.0 < eps < math.inf:
        raise GeometryError(f"eps must be finite and positive, got {eps}")

    w = embed_from_distances(delta_spec)
    steps = tuple(float(np.linalg.norm(w[i + 1])) / m_counts[i] for i in range(d))
    for i, step in enumerate(steps):
        if step >= eps:
            raise ConstraintViolation(
                "eps_floor", f"chain step ||w_{i + 1}||/m = {step} is not below eps={eps}"
            )

    n1 = sum(m - 1 for m in m_counts) + d
    fiber = n1 - d
    pts = np.zeros((n1 + 1, n1))
    labels = []
    for i in range(d + 1):
        pts[i, :d] = w[i]
        labels.append(f"w{i}")
    chains: list[tuple[int, ...]] = []
    row, axis = d + 1, 0
    for i in range(1, d + 1):
        chain = [0]
        for j in range(1, m_counts[i - 1]):
            pts[row, :d] = (j / m_counts[i - 1]) * w[i]
            pts[row, d + axis] = eps / 2.0
            labels.append(f"w{i}_{j}")
            chain.append(row)
            row += 1
            axis += 1
        chain.append(i)
        chains.append(tuple(chain))
    if row != n1 + 1 or axis != fiber:
        raise GeometryError(f"grid filled {row} rows and {axis} axes, wants {n1 + 1} and {fiber}")

    diffs = pts[1:] - pts[0]
    if np.linalg.matrix_rank(diffs) != n1:
        raise GeometryError("grid rows are affinely dependent")

    grid = Configuration(
        points=pts,
        labels=labels,
        named_copies={"base": [tuple(range(d + 1))], "chains": chains},
        notes={"kind": "perturbation_grid", "eps": eps, "m_counts": list(m_counts), "n1": n1,
               "eps_steps": list(steps)},
    )

    # Each chain must walk from w0 to its vertex in hops below 2*eps;
    # both facts follow from step < eps but are certified directly.
    bound_sq = (2.0 * eps) ** 2
    for chain in chains:
        for u, v in zip(chain, chain[1:]):
            gap = float(np.dot(pts[u] - pts[v], pts[u] - pts[v]))
            if gap >= bound_sq:
                raise GeometryError(f"chain hop ({u}, {v}) has length >= 2*eps")
    if not is_connected(pts, eps):
        raise GeometryError("grid intersection graph is not connected")
    grid.notes["connected"] = True
    return grid


def lifted_base_copy(grid: Configuration, unit_dir) -> Configuration:
    """Base simplex of a ``build_perturbation_grid`` grid translated by
    eps along one fiber direction.

    The translated vertices all sit at distance eps from their base
    counterparts and keep every pairwise distance, so they form a copy
    of the base simplex, checked against the base rows, with each vertex
    on the sphere of radius eps around its base point.
    """
    n1, eps = grid.notes["n1"], grid.notes["eps"]
    base = grid.points[list(grid.named_copies["base"][0])]
    d = len(base) - 1
    u = np.asarray(unit_dir, dtype=float)
    if u.shape != (n1 - d,):
        raise GeometryError(f"direction must live in the {n1 - d}-dimensional fiber")
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise GeometryError("lift direction must have unit norm")

    shift = np.zeros(n1)
    shift[d:] = eps * u
    pts = base + shift
    check_copies(pts, [range(d + 1)], pairwise_sq_dists(base), "lifted base copy")
    return Configuration(
        points=pts,
        labels=[f"q{i}" for i in range(d + 1)],
        notes={"kind": "lifted_base_copy", "eps": eps},
    )


def orthogonal_lift_check(base_sq: float, eps: float) -> float:
    """Squared distance after both endpoints move eps along fresh axes."""
    if base_sq < 0.0:
        raise GeometryError(f"squared distance must be nonnegative, got {base_sq}")
    return base_sq + 2.0 * eps * eps


def coordinate_lift(points: np.ndarray, eps: float) -> np.ndarray:
    """Append one fresh axis per point and move each point eps along its own.

    Every pairwise squared distance grows by exactly 2*eps^2: the two
    fresh coordinates never interact, so there are no cross terms.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    out = np.zeros((n, dim + n))
    out[:, :dim] = pts
    out[np.arange(n), dim + np.arange(n)] = eps
    return out
