"""Builders shared by several test modules."""

import itertools
import math

import numpy as np

from egr.geometry import CSR, Configuration, SimplexSpec, check_copies, enumerate_copies, pairwise_sq_dists
from egr.rectangles import path_config, product_config, regular_simplex
from egr.solver import ColoringProblem


def assert_canonical(rows):
    """``rows`` are canonical CSR rows: ``indptr`` runs from 0 to the
    stored count without falling, each row's columns rise strictly inside
    the shape, and no stored value has the bits of +0.0."""
    assert isinstance(rows, CSR)
    n, dim = rows.shape
    assert rows.indptr.shape == (n + 1,) and rows.indptr[0] == 0 and rows.indptr[-1] == len(rows.indices)
    assert np.all(np.diff(rows.indptr) >= 0)
    assert rows.data.dtype == np.float64 and len(rows.data) == len(rows.indices)
    assert np.all((rows.indices >= 0) & (rows.indices < dim))
    owner = np.repeat(np.arange(n), np.diff(rows.indptr))
    assert np.all(np.diff(rows.indices)[owner[1:] == owner[:-1]] > 0)
    assert np.all(rows.data.view(np.uint64) != 0)


def square_problem(r=2):
    """The unit square: its four sides as mono pairs, itself as the one
    rainbow rectangle."""
    seg = regular_simplex(2, 1.0)
    cfg = product_config(seg, seg).product
    mono = enumerate_copies(cfg, SimplexSpec.pair(1.0))
    rainbow = enumerate_copies(cfg, SimplexSpec.rectangle(1.0, 1.0))
    assert len(mono) == 4 and len(rainbow) == 1
    return ColoringProblem(cfg=cfg, mono_targets=mono, rainbow_targets=rainbow, r=r)


def census_problem(m, s, r, symmetric=True):
    """S_s(1.5) x B_m(1.5, 1.0): distance-1.5 pairs plus 1.5 x 1.0 rectangles.

    As built, the product declares the simplex transpositions, so the
    search breaks them; ``symmetric=False`` removes the declaration and
    the search runs the dom/wdeg order.
    """
    simplex = regular_simplex(s, 1.5)
    path = path_config(m, 1.5, 1.0).as_configuration()
    cfg = product_config(simplex, path).product
    if not symmetric:
        del cfg.notes["symmetry"]
    mono = enumerate_copies(cfg, SimplexSpec.pair(1.5))
    rainbow = enumerate_copies(cfg, SimplexSpec.rectangle(1.5, 1.0))
    # The targets are exactly the ones census_verdict reasons about.
    assert len(mono) == (m + 1) * math.comb(s, 2) + s
    assert len(rainbow) == m * math.comb(s, 2)
    return ColoringProblem(cfg=cfg, mono_targets=mono, rainbow_targets=rainbow, r=r)


def random_obtuse(rng, lo=0.3, hi=4.0):
    """Sample sides a <= b <= c with the angle opposite c obtuse."""
    while True:
        a, b = sorted(rng.uniform(lo, hi, size=2))
        c_lo = math.hypot(a, b)
        c_hi = a + b
        if c_hi - c_lo < 1e-3:
            continue
        return a, b, rng.uniform(c_lo + 1e-3, c_hi - 1e-3)


def random_spec(rng, k):
    """Nondegenerate simplex from random points with a sane scale."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(k, k - 1))
        sq = pairwise_sq_dists(pts)
        if sq[np.triu_indices(k, k=1)].min() > 0.05:
            return SimplexSpec(sq)


def check_sphere_chain(chain, center):
    """The checks a sphere chain's build runs: every node s from
    ``center`` and every ``hops`` copy d long."""
    s, d = chain.notes["s"], chain.notes["d"]
    radii = [(0, i) for i in range(1, len(chain) + 1)]
    check_copies(np.vstack([center, chain.points]), radii, SimplexSpec.pair(s).sq_dist, "center-node pair")
    check_copies(chain.points, chain.named_copies["hops"], SimplexSpec.pair(d).sq_dist, "hop")


def planted_problem(seed):
    """400 mono and 400 rainbow triples over 60 points that a hidden
    balanced 3-coloring avoids, so a COUNTEREXAMPLE by construction: mono
    triples it does not color all-same, rainbow triples it does not
    color all-distinct."""
    rng = np.random.default_rng(seed)
    hidden = rng.permutation(np.arange(60) % 3)
    triples = np.array(list(itertools.combinations(range(60), 3)))
    a, b, c = hidden[triples].T
    distinct = 1 + (a != b) + ((c != a) & (c != b))
    mono = triples[np.sort(rng.choice(np.flatnonzero(distinct > 1), 400, replace=False))]
    rainbow = triples[np.sort(rng.choice(np.flatnonzero(distinct < 3), 400, replace=False))]
    cfg = Configuration(points=np.arange(60, dtype=float)[:, None])
    return ColoringProblem(cfg=cfg, mono_targets=mono.tolist(), rainbow_targets=rainbow.tolist(), r=3)
