"""Point/configuration kernel.

Everything downstream works with two objects: a ``Configuration`` (an
ordered list of points in some E^n, optionally with labels and named
index tuples) and a ``SimplexSpec`` (a squared-distance matrix for a
small labeled point set).  This module provides the shared tolerance
policy, congruence testing, exhaustive enumeration of congruent copies,
Cayley-Menger volumes, and a deterministic embedding of a realizable
distance matrix into coordinates.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import re
import tempfile
from dataclasses import dataclass
from json.decoder import scanstring
from typing import NamedTuple

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric input or failed construction."""


class NonRealizableError(GeometryError):
    """A distance matrix admits no Euclidean realization."""


class ConstraintViolation(GeometryError):
    """A named precondition inequality failed.

    ``name`` identifies the violated inequality so callers and tests can
    assert on it instead of parsing messages.
    """

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


REL_TOL = 1e-9

# The one size rule: no input may make egr store more than this many
# 8-byte numbers (512 MiB as float64) in one array or set of lists.
MAX_ENTRIES = 1 << 26


def check_entries(what: str, count: int) -> None:
    """Refuse ``what`` when it would store ``count`` entries, 8-byte
    numbers, past ``MAX_ENTRIES``.  Callers check before they allocate,
    so an oversized input ends in GeometryError, not an OOM kill."""
    if count > MAX_ENTRIES:
        raise GeometryError(f"{what} would store {count} entries, more than the limit of {MAX_ENTRIES}")


def sq_close(d1, d2):
    """Comparison policy for squared distances: one relative rule, so a
    configuration scaled by lambda gets the same verdicts.

    Per pair, ``sq_close`` (elementwise on arrays) calls d1 and d2 equal
    when ``|d1 - d2| <= REL_TOL * max(d1, d2)``; congruence testing and
    copy enumeration use it.  Per copy, ``check_copies`` allows every
    entry the slack ``sq_slack`` of the largest wanted squared distance,
    measuring each tuple from its own first point so that its rounding
    follows the copy's size, not its distance from the origin.
    """
    return np.abs(d1 - d2) <= REL_TOL * np.maximum(d1, d2)


def sq_slack(scale: float) -> float:
    """Absolute slack granted to a squared quantity of the given scale."""
    return REL_TOL * max(scale, 0.0)


def bisect(inside, lo: float, hi: float, rel: float) -> tuple[float, float]:
    """Narrow [lo, hi] to the boundary of a monotone predicate, ``inside``
    on lo's side, until ``hi - lo <= rel * hi`` or the midpoint equals an
    end (so at any ``rel``); returns the final (lo, hi)."""
    while hi - lo > rel * hi:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo, hi


def as_index(value, what: str) -> int:
    """``value`` as a Python int.  Only integers pass, numpy ones too; a
    float, string or bool is refused rather than truncated or parsed."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise GeometryError(f"{what} must be an integer, got {value!r}")


def as_indices(values, n: int, what: str) -> list[int]:
    """``values`` as a list of Python ints in ``range(n)``: each must pass
    ``as_index``, so a float, string or bool is refused, and so is an
    integer out of range."""
    out = [v if type(v) is int else as_index(v, what) for v in values]
    if out and (min(out) < 0 or max(out) >= n):
        bad = next(i for i in out if not 0 <= i < n)
        raise GeometryError(f"{what} {bad} is outside range({n})")
    return out


def lex_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array of indices in lexicographic order: one
    ``lexsort`` of them as the smallest unsigned type that holds them,
    which numpy sorts by radix up to 16 bits."""
    return rows[np.lexsort(rows.T[::-1].astype(np.min_scalar_type(rows.max(initial=0))))]


def components(n: int, pairs) -> list[int]:
    """For each point of ``range(n)``, the lowest index in its component
    of the graph whose edges are the index pairs ``pairs``."""
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    # Each root is the lowest index of its set.
    for i, j in pairs:
        a, b = find(i), find(j)
        if a != b:
            root[max(a, b)] = min(a, b)
    return [find(i) for i in range(n)]


def as_point(p) -> np.ndarray:
    """Validate and convert an array-like into a 1-D float point."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise GeometryError(f"a point must be a 1-D sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("point has non-finite entries")
    return arr


def squared_distance(p, q) -> float:
    p = as_point(p)
    q = as_point(q)
    if p.shape != q.shape:
        raise GeometryError(f"dimension mismatch: {p.shape[0]} vs {q.shape[0]}")
    diff = p - q
    return float(np.dot(diff, diff))


def sq_dists_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The squared distances |a_i - b_j|^2 between the rows of ``a`` and
    of ``b``, in difference form: exact for equal rows, and with rounding
    that follows the distance, not the rows' distance from the origin."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Full n x n matrix of squared distances, exactly symmetric."""
    pts = np.asarray(points, dtype=float)
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    # Mirror the upper triangle: a strided ``pts @ pts.T`` need not be
    # symmetric.  ``_neighbour_lists`` mirrors it the same way, a block
    # of rows at a time.
    d = np.triu(sq_norms[:, None] + sq_norms[None, :] - 2.0 * (pts @ pts.T), 1)
    return np.maximum(d + d.T, 0.0)


_GATHER_ENTRIES = 1 << 20  # coordinates a chunked check gathers at once
_PAIR_CHUNK = 1 << 16  # candidate pairs the coincidence sweep holds at once
_PROJECTIONS = 8
_TOKEN_CHUNK = 1 << 16  # coordinates read_json and _write_rows handle at once


class CSR(NamedTuple):
    """Compressed sparse rows: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` at the sorted columns
    ``indices[indptr[i]:indptr[i + 1]]`` of a ``shape`` matrix.  The rows
    are canonical when no stored value has the bits of +0.0 (a -0.0 is
    stored), so equal matrices, bit for bit, have equal rows."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @classmethod
    def from_flat(cls, flat: np.ndarray, values: np.ndarray, shape: tuple) -> "CSR":
        """The rows of a ``shape`` matrix holding ``values`` at the rising
        row-major indices ``flat``."""
        n, dim = shape
        return cls(np.searchsorted(flat, np.arange(n + 1) * dim), flat % max(dim, 1), values, (n, dim))

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "CSR":
        """The canonical rows of a 2-D float64 array."""
        if a.ndim != 2 or a.dtype != np.float64:
            raise TypeError(f"only 2-D float64 arrays are stored as rows, got {a.dtype} {a.shape}")
        flat = np.flatnonzero(a.view(np.uint64))
        return cls.from_flat(flat, a.ravel()[flat], a.shape)

    def canonical(self) -> "CSR":
        """These rows without their stored +0.0 values."""
        keep = self.data.view(np.uint64) != 0
        if keep.all():
            return self
        kept = np.concatenate(([0], np.cumsum(keep)))
        return CSR(kept[self.indptr], self.indices[keep], self.data[keep], self.shape)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return out


def _csr_block(rows: CSR, idx: np.ndarray) -> np.ndarray:
    """The rows of each tuple in ``idx`` (T x k) as a (T, k, L) block:
    tuple t's rows scattered over the sorted union of their columns,
    L the widest union."""
    t_count, k = idx.shape
    flat = idx.ravel()
    starts = rows.indptr[flat]
    lens = rows.indptr[flat + 1] - starts
    slot = np.repeat(np.arange(flat.size), lens)
    pos = np.arange(slot.size) - np.repeat(np.cumsum(lens) - lens - starts, lens)
    tup = slot // k
    key = tup * np.int64(rows.shape[1]) + rows.indices[pos]
    union, local = np.unique(key, return_inverse=True)
    first = np.searchsorted(union, np.arange(t_count) * np.int64(rows.shape[1]))
    local = local - first[tup]
    out = np.zeros((t_count, k, int(local.max(initial=-1)) + 1))
    out[tup, slot % k, local] = rows.data[pos]
    return out


def check_copies(points, tuples, sq_dist, what: str = "copy") -> float:
    """Raise GeometryError, naming the first bad tuple, unless every
    index tuple t realizes ``sq_dist`` in row order: each
    ``| |p[t[i]] - p[t[j]]|^2 - sq_dist[i, j] |`` is at most
    ``sq_slack(max sq_dist)``.  Returns the worst such error relative
    to ``max sq_dist``.

    ``points`` is a dense array, whose rows are gathered, or a ``CSR``,
    whose rows are scattered over the union of each tuple's columns;
    either way tuples go in chunks, one batched matrix product per
    chunk, each tuple taken relative to its own first point.
    """
    want = np.asarray(sq_dist, dtype=float)
    k = want.shape[0]
    idx = np.asarray(tuples, dtype=np.intp).reshape(len(tuples), k)
    scale = float(want.max())
    slack = sq_slack(scale)
    sparse = isinstance(points, CSR)
    if sparse:
        width = k * int(np.diff(points.indptr).max(initial=1))
    else:
        pts = np.asarray(points, dtype=float)
        width = pts.shape[1]
    step = max(1, _GATHER_ENTRIES // (k * max(1, width)))
    worst = 0.0
    # Non-finite coordinates give NaN errors, which fail like large ones.
    with np.errstate(invalid="ignore"):
        for start in range(0, len(idx), step):
            chunk = idx[start : start + step]
            sub = _csr_block(points, chunk) if sparse else pts[chunk]
            sub = sub - sub[:, :1]
            gram = sub @ sub.transpose(0, 2, 1)
            norms = np.einsum("tii->ti", gram)
            err = np.abs(norms[:, :, None] + norms[:, None, :] - 2.0 * gram - want).max(axis=(1, 2))
            fails = ~(err <= slack)
            if fails.any():
                bad = int(np.flatnonzero(fails)[0])
                tup = tuple(int(i) for i in chunk[bad])
                raise GeometryError(f"{what} {tup} is off the wanted squared distances by {err[bad]:.3g}")
            worst = max(worst, float(err.max()))
    return worst / scale if scale > 0.0 else worst


class Configuration:
    """An ordered finite point set in a common E^n.

    ``rows`` holds the points as canonical CSR rows (``CSR``), which
    validation, ``save`` and ``load`` read; ``points`` is the dense
    n x dim array, the one given or else built from ``rows`` once, on
    first use.  ``named_copies`` maps a name to a list of index tuples
    into the points; builders use it to record which sub-tuples carry
    which structural role.  Coincident points are rejected: glued
    constructions share points by index, so an unplanned coordinate
    collision is treated as a bug.
    """

    def __init__(self, points, labels=None, named_copies=None, notes=None):
        if isinstance(points, CSR):
            rows = points.canonical()
        else:
            pts = np.asarray(points, dtype=float)
            if pts.ndim != 2:
                raise GeometryError(f"points must be a non-empty 2-D array, got {pts.shape}")
            rows = CSR.from_dense(pts)
            self.points = pts
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise GeometryError(f"points must be a non-empty 2-D array, got {rows.shape}")
        if not np.all(np.isfinite(rows.data)):
            raise GeometryError("configuration has non-finite coordinates")
        self.rows = rows
        self.notes = notes
        n = len(self)
        self.labels = None if labels is None else [str(s) for s in labels]
        if self.labels is not None and len(self.labels) != n:
            raise GeometryError("labels length does not match point count")
        self.named_copies = {
            str(k): [tuple(as_indices(t, n, f"{k!r} copy index")) for t in v] for k, v in (named_copies or {}).items()
        }
        dup = self._find_coincident()
        if dup is not None:
            raise GeometryError(f"points {dup[0]} and {dup[1]} coincide within tolerance")

    @functools.cached_property
    def points(self) -> np.ndarray:
        return self.rows.dense()

    def _find_coincident(self):
        """A pair of points within the coincidence threshold, or None.

        The threshold is relative to the largest per-axis extent, the
        implicit zeros of the rows counted, so it does not depend on
        where the configuration sits.  The search is exact at every size
        and dimension: a projection onto a unit direction never
        lengthens a distance, so a close pair stays within the window on
        every projection, which is widened by the projections' rounding
        bound.  The projections are summed from the rows by
        ``np.bincount``.  Pairs inside the window of the first (sorted)
        projection are enumerated in chunks, filtered on the other
        projections, and the survivors decided in difference form,
        |a - b|^2 over the union of their columns.
        """
        rows = self.rows
        n, dim = rows.shape
        cols, data = rows.indices, rows.data
        owner = np.repeat(np.arange(n), np.diff(rows.indptr))
        full = np.bincount(cols, minlength=dim) == n  # columns with no implicit zero
        top, bottom = np.where(full, -np.inf, 0.0), np.where(full, np.inf, 0.0)
        np.maximum.at(top, cols, data)
        np.minimum.at(bottom, cols, data)
        scale = float((top - bottom).max())
        thresh = sq_slack(scale * scale)
        width = int(np.diff(rows.indptr).max())
        # Widened a hair past the threshold, and by twice the bound
        # (width + 1) eps sum |a_c u_c| <= (width + 1) eps width max|a_c|
        # on each projection's rounding, so no close pair is dropped.
        rounding = 4.0 * (width + 1) * width * np.finfo(float).eps * float(np.abs(data).max(initial=0.0))
        window = 1.001 * math.sqrt(thresh) + rounding
        dirs = np.random.default_rng(0).standard_normal((dim, _PROJECTIONS))
        dirs /= np.linalg.norm(dirs, axis=0)
        proj = np.column_stack([np.bincount(owner, weights=data * dirs[cols, p], minlength=n) for p in range(_PROJECTIONS)])
        order = np.argsort(proj[:, 0], kind="stable")
        proj = proj[order]
        ends = np.searchsorted(proj[:, 0], proj[:, 0] + window, side="right")
        counts = ends - np.arange(1, n + 1)
        starts = np.concatenate(([0], np.cumsum(counts)))
        gather = max(1, _GATHER_ENTRIES // (2 * max(1, width)))
        lo = 0
        while lo < n:
            hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + _PAIR_CHUNK, "right")) - 1)
            i = np.repeat(np.arange(lo, hi), counts[lo:hi])
            j = i + 1 + np.arange(i.size) - np.repeat(starts[lo:hi] - starts[lo], counts[lo:hi])
            for axis in range(1, _PROJECTIONS):
                keep = np.abs(proj[i, axis] - proj[j, axis]) <= window
                i, j = i[keep], j[keep]
            for s in range(0, i.size, gather):
                pair = _csr_block(rows, np.column_stack([order[i[s : s + gather]], order[j[s : s + gather]]]))
                diff = pair[:, 0] - pair[:, 1]
                hit = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= thresh)
                if hit.size:
                    a, b = order[i[s + hit[0]]], order[j[s + hit[0]]]
                    return int(min(a, b)), int(max(a, b))
            lo = hi
        return None

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    def to_json_dict(self) -> dict:
        return self._payload(self.points.tolist())

    def _payload(self, points) -> dict:
        out = {
            "dim": self.dim,
            "points": points,
            "copies": {k: [list(t) for t in v] for k, v in self.named_copies.items()},
        }
        if self.labels is not None:
            out["labels"] = list(self.labels)
        if self.notes:
            out["notes"] = self.notes
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Configuration":
        try:
            pts = data["points"]
            if not isinstance(pts, CSR):
                pts = np.asarray(pts, dtype=float)
            dim = as_index(data["dim"], "dim")
        except (KeyError, TypeError, ValueError) as exc:
            raise GeometryError(f"malformed configuration payload: {exc}") from None
        if len(pts.shape) != 2 or pts.shape[1] != dim:
            raise GeometryError("declared dim does not match point rows")
        return cls(
            points=pts,
            labels=data.get("labels"),
            named_copies={k: [tuple(t) for t in v] for k, v in data.get("copies", {}).items()},
            notes=data.get("notes"),
        )

    def save(self, path: str) -> dict:
        """Write the configuration; returns the payload written, with
        ``points`` as the rows."""
        payload = self._payload(self.rows)
        write_json_atomic(path, payload)
        return payload

    @classmethod
    def load(cls, path: str) -> "Configuration":
        return cls.from_json_dict(read_json(path))


def gram_from_sq_dist(sq: np.ndarray) -> np.ndarray:
    """Gram matrix of the vectors p_i - p_0, i = 1..k-1."""
    sq = np.asarray(sq, dtype=float)
    d0 = sq[0, 1:]
    return (d0[:, None] + d0[None, :] - sq[1:, 1:]) / 2.0


def min_gram_eigenvalue(sq: np.ndarray) -> float:
    g = gram_from_sq_dist(sq)
    if g.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(g)[0])


def is_realizable(sq: np.ndarray) -> bool:
    """True when the squared-distance matrix embeds in Euclidean space."""
    scale = float(np.max(sq)) if sq.size else 1.0
    return min_gram_eigenvalue(sq) >= -sq_slack(scale)


def is_nondegenerate(sq: np.ndarray) -> bool:
    """True when the k points realizing ``sq`` span a full (k-1)-flat."""
    scale = float(np.max(sq)) if sq.size else 1.0
    return min_gram_eigenvalue(sq) > sq_slack(scale)


@dataclass(frozen=True)
class SimplexSpec:
    """Labeled squared-distance matrix of an abstract k-point simplex."""

    sq_dist: np.ndarray

    def __post_init__(self):
        sq = np.asarray(self.sq_dist, dtype=float)
        if sq.ndim != 2 or sq.shape[0] != sq.shape[1] or sq.shape[0] < 2:
            raise GeometryError(f"sq_dist must be k x k with k >= 2, got {sq.shape}")
        if not np.all(np.isfinite(sq)):
            raise GeometryError("sq_dist has non-finite entries")
        if not np.allclose(sq, sq.T, rtol=0, atol=0):
            raise GeometryError("sq_dist must be exactly symmetric")
        if np.any(np.diag(sq) != 0.0):
            raise GeometryError("sq_dist diagonal must be zero")
        off = sq[~np.eye(sq.shape[0], dtype=bool)]
        if np.any(off <= 0.0):
            raise GeometryError("off-diagonal squared distances must be positive")
        if not is_realizable(sq):
            raise NonRealizableError("squared-distance matrix is not realizable")
        sq = sq.copy()
        sq.flags.writeable = False
        object.__setattr__(self, "sq_dist", sq)

    @property
    def k(self) -> int:
        return int(self.sq_dist.shape[0])

    @classmethod
    def from_points(cls, points) -> "SimplexSpec":
        pts = np.asarray(points, dtype=float)
        return cls(sq_dists_between(pts, pts))

    @classmethod
    def pair(cls, d: float) -> "SimplexSpec":
        if d <= 0:
            raise GeometryError("pair distance must be positive")
        return cls(np.array([[0.0, d * d], [d * d, 0.0]]))

    @classmethod
    def triangle(cls, a: float, b: float, c: float) -> "SimplexSpec":
        """Triangle with |p0 p1| = c, |p0 p2| = b, |p1 p2| = a."""
        sq = np.array(
            [
                [0.0, c * c, b * b],
                [c * c, 0.0, a * a],
                [b * b, a * a, 0.0],
            ]
        )
        return cls(sq)

    @classmethod
    def regular(cls, n: int, side: float) -> "SimplexSpec":
        n = as_index(n, "simplex point count n")
        if n < 2:
            raise GeometryError("a regular simplex needs at least 2 points")
        if side <= 0:
            raise GeometryError("side must be positive")
        check_entries(f"regular simplex spec of {n} points ({n} x {n} squared distances)", n * n)
        sq = np.full((n, n), side * side)
        np.fill_diagonal(sq, 0.0)
        return cls(sq)

    @classmethod
    def rectangle(cls, a: float, b: float) -> "SimplexSpec":
        """Rectangle with side lengths a and b, corners (0,0),(a,0),(0,b),(a,b).

        Filled in closed form, so equal sides hold equal values and the
        spec is exactly invariant under the rectangle's symmetries."""
        if a <= 0 or b <= 0:
            raise GeometryError("rectangle sides must be positive")
        a2, b2 = a * a, b * b
        d2 = a2 + b2
        return cls(np.array([[0.0, a2, b2, d2], [a2, 0.0, d2, b2], [b2, d2, 0.0, a2], [d2, b2, a2, 0.0]]))

    def to_json_dict(self) -> dict:
        return {"sq_dist": self.sq_dist.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplexSpec":
        try:
            return cls(np.asarray(data["sq_dist"], dtype=float))
        except (KeyError, TypeError) as exc:
            raise GeometryError(f"malformed simplex payload: {exc}") from None

    def save(self, path: str):
        write_json_atomic(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "SimplexSpec":
        return cls.from_json_dict(read_json(path))


_CANDIDATE_CHUNK = 1 << 16  # candidates one step of _embeddings gathers at once


def _neighbour_lists(points: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """For each squared distance v of the increasing ``values``, the
    sorted keys ``a * n + b`` of the ordered pairs of distinct points a,
    b whose squared distance d[a, b] is ``sq_close`` to v.

    d is never held whole: its upper triangle is formed in blocks of
    rows in Gram form, |a|^2 + |b|^2 - 2 a.b, whose rounding error in a
    block is at most err = 4 (dim + 4) eps (max |a|^2 + max |b|^2), eps
    the float64 machine epsilon.  Where that error could change a
    verdict, an entry within 2 err of a tolerance edge, d is taken in
    difference form, |a - b|^2, so no verdict depends on where the
    points sit.  Each entry near a value is stored as (a, b) and as
    (b, a), so the lists are symmetric.  Each stored ordered pair is
    one entry, its key; ``check_entries`` refuses them while scanning."""
    n = len(points)
    if not len(values):
        return []
    norms = np.einsum("ij,ij->i", points, points)
    rounding = 4.0 * (points.shape[1] + 4) * np.finfo(float).eps
    # Every entry sq_close to a value lies in this window, widened past
    # the tolerance; each block widens it by its own err.
    floor, ceil = values[0] * (1.0 - 2.0 * REL_TOL), values[-1] * (1.0 + 2.0 * REL_TOL)
    found: list[list[np.ndarray]] = [[] for _ in values]
    total = lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _GATHER_ENTRIES // (n - lo)))
        err = rounding * (norms[lo:hi].max() + norms[lo:].max())
        block = np.add.outer(norms[lo:hi], norms[lo:])
        gram = points[lo:hi] @ points[lo:].T
        gram *= 2.0
        block -= gram
        del gram
        np.maximum(block, 0.0, out=block)
        rows, cols = np.nonzero((block >= floor - err) & (block <= ceil + err))
        upper = cols > rows
        rows, cols = rows[upper], cols[upper]
        near = block[rows, cols]
        del block
        rows += lo
        cols += lo
        edge = np.zeros(len(near), dtype=bool)
        for v in values:
            edge |= np.abs(np.abs(near - v) - REL_TOL * np.maximum(near, v)) <= 2.0 * err
        edge = np.flatnonzero(edge)
        step = max(1, _GATHER_ENTRIES // max(1, points.shape[1]))
        for at in (edge[i : i + step] for i in range(0, len(edge), step)):
            diff = points[rows[at]] - points[cols[at]]
            near[at] = np.einsum("ij,ij->i", diff, diff)
        for pieces, v in zip(found, values):
            hit = sq_close(near, v)
            a, b = rows[hit], cols[hit]
            pieces += [a * n + b, b * n + a]
            total += 2 * len(a)
        del rows, cols, near, a, b  # before the next block is formed
        check_entries(f"copy enumeration's neighbour lists after {hi} of {n} points", total)
        lo = hi
    lists = []
    for pieces in found:
        keys = np.concatenate(pieces)
        pieces.clear()
        keys.sort()
        lists.append(keys)
    return lists


def _stabiliser_orbits(s: np.ndarray) -> list[list[int]]:
    """``above[q]``: the rows p < q whose orbit, under the automorphisms
    of ``s`` (exact equality) that fix rows 0..p-1, holds q.

    One search per pair (p, q) for an automorphism that fixes rows
    0..p-1 and maps p to q, extended row by row; the group itself is
    never listed."""
    k = len(s)
    rows = s.tolist()
    shape = [sorted(row) for row in rows]

    def extends(image: list[int]) -> bool:
        i = len(image)
        if i == k:
            return True
        return any(
            c not in image
            and shape[c] == shape[i]
            and all(rows[c][image[t]] == rows[i][t] for t in range(i))
            and extends(image + [c])
            for c in range(k)
        )

    above: list[list[int]] = [[] for _ in range(k)]
    for p in range(k):
        for q in range(p + 1, k):
            if shape[q] == shape[p] and rows[q][:p] == rows[p][:p] and extends([*range(p), q]):
                above[q].append(p)
    return above


def _embeddings(points: np.ndarray, s: np.ndarray):
    """Yield non-empty ``(rows, k)`` int blocks of injective assignments
    ``a`` of the k rows of ``s`` to ``points``, all rows in
    lexicographic order: each copy of ``s`` in ``points`` (a point set
    with an assignment that has ``sq_close(d[a[i], a[t]], s[i, t])`` for
    all t < i, d the squared distances ``_neighbour_lists`` decides,
    with its Gram-form error bound) at least once,
    and once unless two distinct values of ``s`` lie within twice the
    tolerance.

    Of the assignments an automorphism of ``s`` (exact equality) maps to
    one another it keeps the lexicographically least: a[p] < a[q] for
    each row p and each q in p's orbit under the automorphisms that fix
    rows 0..p-1 (``_stabiliser_orbits``).  Such an automorphism maps an
    assignment to another, so the least is never pruned, and the first
    assignment yielded is the lexicographically first.

    Candidates come from one neighbour list per distinct value of ``s``
    (``_neighbour_lists``): row i takes the neighbours of the assigned
    row whose value has the shortest list, and the other constraints
    are membership tests of ``a * n + b`` keys in the sorted lists.
    Partial assignments grow one row per level, kept on a stack in
    chunks halved until they gather at most ``_CANDIDATE_CHUNK``
    candidates, so that memory stays bounded and rows come out in order.
    """
    pts = np.asarray(points, dtype=float)
    s = np.asarray(s, dtype=float)
    n, k = len(pts), len(s)
    values = np.unique(s[~np.eye(k, dtype=bool)])
    lists = _neighbour_lists(pts, values)
    if any(len(keys) == 0 for keys in lists):
        return
    value = np.searchsorted(values, s)  # the list of each entry off the diagonal
    starts = [np.searchsorted(keys, np.arange(n + 1) * n) for keys in lists]
    above = _stabiliser_orbits(s)

    stack = [np.empty((1, 0), dtype=np.intp)]
    while stack:
        part = stack.pop()
        m, i = part.shape
        if i == k:
            yield part
            continue
        if i == 0:
            stack.append(np.arange(n)[:, None])
            continue
        src = min(range(i), key=lambda t: len(lists[value[i, t]]))
        keys, start = lists[value[i, src]], starts[value[i, src]]
        first = start[part[:, src]]
        counts = start[part[:, src] + 1] - first
        total = int(counts.sum())
        if total > _CANDIDATE_CHUNK and m > 1:
            stack += [part[m // 2 :], part[: m // 2]]
            continue
        rows = np.repeat(np.arange(m), counts)
        cand = keys[np.arange(total) + np.repeat(first - np.cumsum(counts) + counts, counts)] % n
        for p in above[i]:
            keep = cand > part[rows, p]
            rows, cand = rows[keep], cand[keep]
        for t in range(i):
            if t != src:
                want = part[rows, t] * n + cand
                other = lists[value[i, t]]
                keep = other[np.minimum(np.searchsorted(other, want), len(other) - 1)] == want
                rows, cand = rows[keep], cand[keep]
        if rows.size:
            stack.append(np.column_stack([part[rows], cand]))


def congruence_check(A, B):
    """Search for a bijection making all pairwise squared distances agree.

    Returns a tuple ``perm`` with ``|A_i A_j| == |B_perm[i] B_perm[j]|``
    for all i, j (within tolerance), or None when no such bijection
    exists.  ``_embeddings`` alone decides: the first assignment it
    yields in B for A's squared distances, measured from A's first
    point as ``check_copies`` measures a tuple, is the lexicographically
    first such bijection (the automorphism pruning never drops it), so
    neither answer depends on where A or B sits; capped at 12 points.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2:
        raise GeometryError("congruence_check expects 2-D point arrays")
    n = A.shape[0]
    if B.shape[0] != n:
        raise GeometryError(f"point counts differ: {n} vs {B.shape[0]}")
    if n > 12:
        raise GeometryError("congruence_check capped at 12 points")
    block = next(_embeddings(B, pairwise_sq_dists(A - A[:1])), None)
    return None if block is None else tuple(block[0].tolist())


def enumerate_copies(cfg: Configuration, spec: SimplexSpec):
    """All k-subsets of ``cfg`` congruent to ``spec``.

    Returns sorted index tuples in lexicographic order; every subset
    congruent to the spec appears exactly once.  ``_embeddings`` finds
    each copy once, or more often when spec values within tolerance of
    each other are unequal (a spec rounded from points, say); the sorted
    rows are ordered by one ``lexsort`` and such repeats, then adjacent,
    are dropped.  Capped at k <= 6; the stored neighbour lists and the
    gathered rows, counted as their blocks arrive, pass ``check_entries``,
    which bounds the memory together with the blocks of distances scanned.
    The copies returned are never more than the rows gathered.
    """
    k = spec.k
    if k > 6:
        raise GeometryError("enumerate_copies capped at spec size 6")
    if k > len(cfg):
        return []
    blocks, gathered = [], 0
    for block in _embeddings(cfg.points, spec.sq_dist):
        gathered += block.size
        check_entries(f"copy enumeration's {gathered // k} gathered embeddings of {k} points", gathered)
        blocks.append(np.sort(block, axis=1))
    if not blocks:
        return []
    rows = lex_rows(np.concatenate(blocks))
    rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    return list(zip(*rows.T.tolist()))


def cayley_menger_volume(spec: SimplexSpec) -> float:
    """(k-1)-dimensional content of the simplex given by ``spec``.

    Zero for degenerate (flat) simplices; raises when the determinant
    certifies non-realizability beyond tolerance.
    """
    sq = spec.sq_dist
    k = spec.k
    j = k - 1
    m = np.ones((k + 1, k + 1))
    m[0, 0] = 0.0
    m[1:, 1:] = sq
    det = float(np.linalg.det(m))
    content2 = (-1.0) ** k * det / (2.0**j * math.factorial(j) ** 2)
    scale = float(np.max(sq)) ** j if sq.size else 1.0
    if content2 < -sq_slack(scale):
        raise NonRealizableError(f"negative squared content {content2}")
    return math.sqrt(max(content2, 0.0))


def embed_from_distances(spec: SimplexSpec) -> np.ndarray:
    """Deterministic coordinates realizing ``spec`` in E^(k-1).

    Point 0 sits at the origin, point 1 on the positive first axis, and
    each later point i gets a nonnegative coordinate on axis i-1
    (triangular pattern).  Rows 1..k-1 are the Cholesky factor of
    ``gram_from_sq_dist(spec.sq_dist)``, swept one axis at a time: axis
    j's pivot is point j+1's height, and one matrix-vector product gives
    every later point's coordinate on it (0 when the pivot is within
    rounding of zero).  A height^2 below minus the slack, or rows that
    ``check_copies`` finds off ``spec`` by the copy rule, raise
    NonRealizableError.
    """
    sq = spec.sq_dist
    k = spec.k
    x = np.zeros((k, max(1, k - 1)))
    g = gram_from_sq_dist(sq)
    slack = sq_slack(float(np.max(sq)))
    pivot_floor = math.sqrt(slack)
    low = x[1:]  # row j is point j + 1
    for j in range(k - 1):
        h2 = g[j, j] - float(np.dot(low[j, :j], low[j, :j]))
        if h2 < -slack:
            raise NonRealizableError(f"embedding failed at point {j + 1}: height^2 = {h2}")
        pivot = low[j, j] = math.sqrt(max(h2, 0.0))
        if pivot > pivot_floor:
            low[j + 1 :, j] = (g[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / pivot
    try:
        check_copies(x, [tuple(range(k))], sq, "embedding")
    except GeometryError as exc:
        raise NonRealizableError(str(exc)) from None
    return x


def write_json_atomic(path: str, payload: dict):
    """Write ``payload`` as compact one-line JSON via a temp file plus
    rename, so readers never see a torn file.

    The text is ``json.dumps(payload)`` with each top-level ``CSR`` value
    in place of its dense ``tolist()``, and each 2-D float64 ndarray
    value in place of its ``tolist()``, written as bytes (it is ASCII).
    An ndarray is taken to its canonical rows (``CSR.from_dense``) and
    the rows are streamed a block at a time by ``_write_rows``, which
    holds about one block of text, never the whole.  Other values go
    through the C encoder one at a time.  Floats are written with
    ``float.__repr__`` either way, so they reload bit-identical."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"{")
            for i, (key, value) in enumerate(payload.items()):
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be str, got {key!r}")
                fh.write(f"{', ' if i else ''}{json.dumps(key)}: ".encode())
                if isinstance(value, np.ndarray):
                    value = CSR.from_dense(value)
                if isinstance(value, CSR):
                    _write_rows(fh, value)
                else:
                    fh.write(json.dumps(value).encode())
            fh.write(b"}\n")
        # mkstemp creates the file 0600; give it the mode a plain open
        # would.  The umask can only be read by setting it.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_rows(fh, rows: CSR):
    """Write ``rows`` to the binary file ``fh`` as the bytes of
    ``json.dumps(rows.dense().tolist())``, a block of rows at a time, from
    the stored values only.  A block with at least half its entries stored
    is scattered into a dense block for one ``json.dumps``.  In any other
    block the text is cut from one all-zero template of the block's rows,
    each stored value's text in place of the ``0.0`` at its fixed offset;
    each distinct stored bit pattern (``-0.0`` included) is formatted once,
    by one ``json.dumps`` of the patterns a block adds.  The formatted texts
    are kept for the next blocks until they pass a quarter chunk, then
    dropped, so they hold about one block's worth however many values the
    rows have."""
    n, dim = rows.shape
    step = max(1, _TOKEN_CHUNK // max(dim, 1))
    width = 5 * dim + 2  # bytes of one row "[0.0, ..., 0.0], " of the template
    template = memoryview((b"[" + b", ".join([b"0.0"] * dim) + b"], ") * min(step, n))
    texts: dict[int, bytes] = {}  # bit pattern -> its JSON text
    fh.write(b"[")
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        first, last = rows.indptr[lo], rows.indptr[hi]
        local = np.repeat(np.arange(hi - lo), np.diff(rows.indptr[lo : hi + 1]))  # each value's row in the block
        cols = rows.indices[first:last]
        if lo:
            fh.write(b", ")
        if 2 * (last - first) >= (hi - lo) * dim:
            block = np.zeros((hi - lo, dim))
            block[local, cols] = rows.data[first:last]
            fh.write(json.dumps(block.tolist())[1:-1].encode())
            continue
        values = rows.data[first:last].view(np.uint64).tolist()
        if len(texts) > _TOKEN_CHUNK // 4:
            texts.clear()
        new = list(set(values).difference(texts))
        formatted = json.dumps(np.array(new, np.uint64).view(np.float64).tolist())[1:-1].encode().split(b", ")
        texts.update(zip(new, formatted))
        offsets = local * width + 5 * cols + 1  # of each stored value's "0.0"
        parts = [None] * (2 * len(values) + 1)
        cuts = map(slice, [0, *(offsets + 3).tolist()], [*offsets.tolist(), (hi - lo) * width - 2])
        parts[::2] = map(template.__getitem__, cuts)
        parts[1::2] = map(texts.__getitem__, values)
        fh.write(b"".join(parts))
    fh.write(b"]")


_WS = rb"[ \t\n\r]*"
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.S)
_KEY_COLON = re.compile(_WS + b":" + _WS)
_ROWS_OPEN = re.compile(rb"\[" + _WS + rb"\[")
_ROWS_CLOSE = re.compile(_WS + rb"\]")
_GAP = re.compile(_WS + b"," + _WS + rb"\[")


def read_json(path: str):
    """Load a JSON file as ``json.load`` does, except that each value of a
    ``"points"`` key that is a rectangular array of number rows comes back
    as its canonical ``CSR`` rows, whose ``dense()`` is bit-equal to
    ``np.asarray(value, dtype=float)``, decoded from the file's bytes a
    chunk of rows at a time (the peak is about the file plus the stored
    values) by ``_csr_rows``: tokens ``0.0`` are found by numpy and never
    stored, and each distinct text of the other tokens is decoded once a
    batch.  Only the rest is decoded, as strict UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    arrays, pieces, done, pos = [], [], 0, 0
    while string := _STRING.search(data, pos):
        pos = string.end()
        try:
            colon = scanstring(string[0].decode(), 1)[0] == "points" and _KEY_COLON.match(data, pos)
        except ValueError:  # a bad string: json reports it below
            break
        if found := colon and _csr_rows(data, colon.end()):
            arrays.append(found[0])
            pieces.append(data[done : colon.end()])
            done = pos = found[1]
    pieces.append(data[done:])
    del data
    try:
        pieces = [piece.decode() for piece in pieces]  # no BOM is skipped: json.loads refuses it
        # Each array is spliced out for a float literal found nowhere else and a space, so it
        # cannot run into what follows; parse_float returns the arrays in their place.
        slot = "1." + "0" * 20
        while any(slot in piece for piece in pieces):
            slot += "0"
        names = {f"{slot}{k}": array for k, array in enumerate(arrays)}
        spliced = "".join(piece + f"{name} " for piece, name in zip(pieces, names)) + pieces[-1]
        return json.loads(spliced, parse_float=lambda s: names[s] if s in names else float(s))
    except ValueError:  # json's own error, at its position in the file
        with open(path) as fh:
            return json.load(fh)


def _csr_rows(data: bytes, pos: int):
    """The rectangular array of JSON-number rows at ``data[pos]`` as
    canonical ``CSR`` rows and the end of its bytes, or None (empty,
    ragged, nested, not numbers)."""
    if not (m := _ROWS_OPEN.match(data, pos)):
        return None
    if not (found := _walk_rows(data, m.end() - 1)):
        return None
    starts, ends = found
    if not (close := _ROWS_CLOSE.match(data, int(ends[-1]) + 1)):
        return None
    n, dim = len(starts), data.count(b",", starts[0], ends[0]) + 1
    step = max(1, _TOKEN_CHUNK // dim)
    flat, values = [np.empty(0, np.intp)], [np.empty(0)]  # decoded entries by flat index, in order
    left, count = [], 0  # the tokens the chunks left, decoded a quarter chunk or more at a time
    try:
        for lo in range(0, n, step):
            at, hi, decoded = _parse_rows(data, starts[lo : lo + step], ends[lo : lo + step], dim)
            if decoded is None:
                left.append((at + lo * dim, hi))
                count += len(at)
            if left and (decoded is not None or 4 * count >= _TOKEN_CHUNK or lo + step >= n):
                at_left, hi_left = map(np.concatenate, zip(*left))
                left, count = [], 0
                flat.append(at_left)
                values.append(_numbers_at(data, hi_left, starts[at_left // dim]))
            if decoded is not None:
                flat.append(at + lo * dim)
                values.append(decoded)
    except (ValueError, OverflowError):  # json's errors, and ints beyond float range
        return None
    flat, values = np.concatenate(flat), np.concatenate(values)
    keep = values.view(np.uint64) != 0
    return CSR.from_flat(flat[keep], values[keep], (n, dim)), close.end()


def _walk_rows(data: bytes, q: int):
    """The starts and ends of the rows from the ``[`` at ``data[q]``, or
    None: each row runs to the first ``]`` after it, holds no ``[``, and is
    followed by whitespace, one comma and the next row's ``[``, or ends
    the rows.  Two ``bytes.find`` calls and one regex match per row."""
    starts, ends = [], []
    while (e := data.find(b"]", q)) >= 0 and data.find(b"[", q + 1, e) < 0:
        starts.append(q + 1)
        ends.append(e)
        if not (gap := _GAP.match(data, e + 1)):
            return np.array(starts), np.array(ends)
        q = gap.end() - 1
    return None


def _parse_rows(data: bytes, starts: np.ndarray, ends: np.ndarray, dim: int):
    """Read the rows ``data[starts[i]:ends[i]]`` as ``np.asarray`` does from
    ``json.loads``.  Tokens ``0.0`` or `` 0.0`` after a comma are zeros and
    the rest are left to the caller: returns their flat indices, their ends
    in ``data`` and None.  Unless most are nonzero: then json decodes the
    whole chunk, and every flat index, None and the values are returned.
    Raises ValueError unless each row has ``dim`` JSON numbers."""
    base = int(starts[0]) - 8  # so that even the first comma has five bytes before it
    c = np.frombuffer(data, np.uint8, int(ends[-1]) + 1 - base, base)
    n = len(starts)

    def where(char):  # bit p of the 64-bit little-endian words is set where c[p] == char
        bits = np.zeros(-(-c.size // 64) * 8, np.uint8)
        bits[: -(-c.size // 8)] = np.packbits(c == char, bitorder="little")
        return bits.view("<u8")

    def back(bits, s):  # bit p is bit p - s of ``bits``
        moved = bits << np.uint64(s)
        moved[1:] |= bits[:-1] >> np.uint64(64 - s)
        return moved

    comma, zero, dot, space = map(where, b",0. ")
    counts = np.bitwise_count(comma)
    before = np.cumsum(counts, dtype=np.int64) - counts - int(np.bitwise_count(comma[0] & np.uint64(0xFF)))

    def rank(p):  # the commas before each position: popcounts of the comma bits in 64-bit words
        return before[p >> 6] + np.bitwise_count(comma[p >> 6] & (np.uint64(1) << (p & 63).astype(np.uint64)) - 1)

    # With one comma between rows, row i has dim - 1 iff (i + 1) * dim - 1 precede its "]".
    if (rank(ends - base) != np.arange(dim - 1, n * dim, dim)).any():
        raise ValueError("rows of different widths")
    # A token holds no comma, and a "[" follows the comma after a row.
    literal = back(zero, 1) & back(dot, 2) & back(zero, 3) & (back(comma, 4) | back(space, 4) & back(comma, 5))
    nonzero = comma & ~literal
    nonzero[0] &= ~np.uint64(0xFF)  # the commas before the first row end none of its tokens
    if 2 * int(np.bitwise_count(nonzero).sum()) > n * dim:  # mostly nonzero: decode the whole chunk
        tokens = bytearray(c)
        np.frombuffer(tokens, np.uint8)[np.r_[0:8, starts - base - 1, ends - base]] = 32  # blank the brackets
        return np.arange(n * dim), None, np.array(_numbers(bytes(tokens), n * dim), dtype=float)
    # Comma k ends token k; the comma after a row's "]" ends its last token.
    words = np.flatnonzero(nonzero != 0)
    word, bit = np.nonzero(np.unpackbits(nonzero[words].view(np.uint8), bitorder="little").reshape(-1, 64))
    at = words[word] * 64 + bit
    rest = np.append(rank(at), n * dim - 1)
    row, col = np.divmod(rest, dim)
    hi = np.append(at + base, 0)
    hi[col == dim - 1] = ends[row[col == dim - 1]]
    return rest, hi, None


_TOKEN_BYTES = 32  # bytes read before the end of each token _numbers_at decodes


def _numbers_at(data: bytes, ends: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """The JSON numbers that end at ``ends`` in ``data``, each after the last
    comma before it or at the start ``firsts`` of its row, as float64.

    Each token is read from the ``_TOKEN_BYTES`` bytes before its end, with
    those up to its comma or its row's ``[`` blanked, and each distinct such
    text (``np.unique`` of the texts as byte strings) is decoded once.  A
    token not within its bytes (or within the file's first bytes) is sliced
    out."""
    width = min(_TOKEN_BYTES, len(data) // 8 * 8)
    texts = np.lib.stride_tricks.sliding_window_view(np.frombuffer(data, np.uint8), width)[np.maximum(ends - width, 0)]
    sep = (texts == 44) | (texts == 91)
    texts[np.arange(width) <= width - 1 - np.argmax(sep[:, ::-1], axis=1)[:, None]] = 32
    inside = sep.any(axis=1) & (ends >= width)
    distinct, inverse = np.unique(texts[inside].view(f"V{width}").ravel(), return_inverse=True)
    texts = np.concatenate((distinct.view(np.uint8).reshape(-1, width), np.full((len(distinct), 1), 44, np.uint8)), axis=1)
    values = np.empty(len(ends))
    values[inside] = np.array(_numbers(texts.tobytes()[:-1], len(texts)), dtype=float)[inverse]
    if not inside.all():
        spans = zip(firsts[~inside].tolist(), ends[~inside].tolist())
        sliced = b",".join(data[data.rfind(b",", f, e) + 1 or f : e] for f, e in spans)
        values[~inside] = _numbers(sliced, np.count_nonzero(~inside))
    return values


def _numbers(text: bytes, count: int) -> list:
    """json's list of the ``count`` comma-separated tokens ``text``, which
    may hold only number characters and whitespace."""
    # With no quote, brace, bracket or letter of true/false/null, json reads numbers or fails.
    if text.translate(None, b"0123456789+-.eENaInfity,\t\n\r "):
        raise ValueError("a number row holds a character no JSON number has")
    if len(numbers := json.loads(b"[" + text + b"]")) != count:  # one blank token reads as []
        raise ValueError("a token is blank")
    return numbers
