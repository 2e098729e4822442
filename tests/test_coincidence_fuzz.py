"""``Configuration``'s coincidence check against a brute-force oracle.

The check reads the points as CSR rows: it projects them with
``np.bincount``, sweeps the sorted first projection and decides each
surviving pair in difference form.  The oracle measures every pair of the
dense matrix in difference form against the same threshold,
``sq_slack(extent ** 2)`` with the per-axis extent of the dense matrix.
The drawn configurations are sparse, with stored +0.0 and -0.0 values,
empty rows, translated copies and pairs a few ulps on either side of the
threshold.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from egr.geometry import CSR, Configuration, GeometryError, sq_slack


def _threshold(dense: np.ndarray) -> float:
    return sq_slack(float((dense.max(0) - dense.min(0)).max()) ** 2)


def brute_force_pairs(dense: np.ndarray) -> set:
    """Every pair (i, j), i < j, whose difference |p_i - p_j|^2 is within
    the threshold."""
    thresh = _threshold(dense)
    pairs = set()
    for i in range(len(dense)):
        diff = dense[i + 1 :] - dense[i]
        for j in np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= thresh):
            pairs.add((i, i + 1 + int(j)))
    return pairs


@st.composite
def sparse_configs(draw):
    """A sparse matrix of at most 40 rows, as dense rows and as CSR rows
    that also store some +0.0 entries."""
    n, dim = draw(st.integers(1, 24)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    values = rng.choice([-1.0, 1.0], (n, dim)) * rng.uniform(0.5, 4.0, (n, dim))
    dense = np.where(rng.random((n, dim)) < density, values, 0.0)
    empty = ~dense.any(axis=1)
    dense[empty.nonzero()[0][1:], 0] = values[empty.nonzero()[0][1:], 0]  # one empty row at most
    dense[(dense == 0.0) & (rng.random((n, dim)) < 0.2)] = -0.0
    if draw(st.booleans()):  # far from the origin on some axes
        dense[:, rng.random(dim) < 0.5] += draw(st.sampled_from([1e3, -3e4]))
    for _ in range(draw(st.integers(0, 2))):  # translated copies of a few rows
        rows = rng.choice(n, size=draw(st.integers(1, 4)))
        scale = math.sqrt(_threshold(dense))
        shift = draw(st.sampled_from([0.0, 0.5, 2.0, 1e3])) * scale * rng.standard_normal(dim) / math.sqrt(dim)
        dense = np.vstack([dense, dense[rows] + shift])
    for _ in range(draw(st.integers(0, 3))):  # a pair at the threshold, a few ulps either side
        i, axis = draw(st.integers(0, len(dense) - 1)), draw(st.integers(0, dim - 1))
        ulps = draw(st.integers(-3, 3))
        column = dense[:, axis]
        inward = -1.0 if dense[i, axis] == column.max() and column.max() > column.min() else 1.0
        step = math.sqrt(_threshold(dense))
        for _ in range(abs(ulps)):
            step = math.nextafter(step, math.inf if ulps > 0 else 0.0)
        row = dense[i].copy()
        row[axis] += inward * step
        dense = np.vstack([dense, row])
    dense = dense[rng.permutation(len(dense))]
    stored = (dense.view(np.uint64) != 0) | (rng.random(dense.shape) < 0.2)
    rows, cols = np.nonzero(stored)
    indptr = np.searchsorted(rows, np.arange(len(dense) + 1))
    return dense, CSR(indptr, cols, dense[rows, cols], dense.shape)


def _verdict(points):
    try:
        Configuration(points=points)
    except GeometryError as err:
        return str(err)
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(sparse_configs())
def test_coincidence_check_agrees_with_the_brute_force_oracle(drawn):
    dense, rows = drawn
    pairs = brute_force_pairs(dense)
    got = _verdict(rows)
    assert _verdict(dense) == got  # a dense input takes the same path
    if not pairs:
        assert got is None
    else:
        i, j = map(int, got.split()[1:4:2])
        assert (i, j) in pairs, (got, pairs)
