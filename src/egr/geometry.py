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

import json
import math
import operator
import os
import re
import tempfile
from dataclasses import dataclass, field
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


def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Full n x n matrix of squared distances, exactly symmetric."""
    pts = np.asarray(points, dtype=float)
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    # Mirror the upper triangle: a strided ``pts @ pts.T`` need not be
    # symmetric, and copy enumeration relies on d == d.T.
    d = np.triu(sq_norms[:, None] + sq_norms[None, :] - 2.0 * (pts @ pts.T), 1)
    return np.maximum(d + d.T, 0.0)


_GATHER_ENTRIES = 1 << 20  # coordinates a chunked check gathers at once
_PAIR_CHUNK = 1 << 16  # candidate pairs the coincidence sweep holds at once
_PROJECTIONS = 8
_TOKEN_CHUNK = 1 << 16  # coordinates read_json and _write_rows handle at once


class CSR(NamedTuple):
    """Compressed sparse rows: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` at the sorted columns
    ``indices[indptr[i]:indptr[i + 1]]`` of a ``shape`` matrix."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

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


@dataclass
class Configuration:
    """An ordered finite point set in a common E^n.

    ``named_copies`` maps a name to a list of index tuples into
    ``points``; builders use it to record which sub-tuples carry which
    structural role.  Coincident points are rejected: glued
    constructions share points by index, so an unplanned coordinate
    collision is treated as a bug.
    """

    points: np.ndarray
    labels: list[str] | None = None
    named_copies: dict[str, list[tuple[int, ...]]] = field(default_factory=dict)
    notes: dict | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise GeometryError(f"points must be a non-empty 2-D array, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("configuration has non-finite coordinates")
        self.points = pts
        if self.labels is not None:
            self.labels = [str(s) for s in self.labels]
            if len(self.labels) != len(pts):
                raise GeometryError("labels length does not match point count")
        self.named_copies = {
            str(k): [tuple(as_indices(t, len(pts), f"{k!r} copy index")) for t in v]
            for k, v in self.named_copies.items()
        }
        dup = self._find_coincident()
        if dup is not None:
            raise GeometryError(f"points {dup[0]} and {dup[1]} coincide within tolerance")

    def _find_coincident(self):
        """A pair of points within the coincidence threshold, or None.

        The threshold is relative to the largest per-axis extent, so it
        does not depend on where the configuration sits.  The search is
        exact at every size and dimension: a projection onto a unit
        direction never lengthens a distance, so a close pair stays
        within the window on every projection.  Pairs inside the window
        of the first (sorted) projection are enumerated in chunks,
        filtered on the other projections, and the survivors tested
        exactly.
        """
        pts = self.points
        n, dim = pts.shape
        scale = float((pts.max(0) - pts.min(0)).max())
        thresh = sq_slack(scale * scale)
        # Widened a hair so rounding in the projections cannot drop a
        # pair right at the threshold; survivors are tested exactly.
        window = 1.001 * math.sqrt(thresh)
        dirs = np.random.default_rng(0).standard_normal((dim, _PROJECTIONS))
        proj = pts @ (dirs / np.linalg.norm(dirs, axis=0))
        order = np.argsort(proj[:, 0], kind="stable")
        proj = proj[order]
        ends = np.searchsorted(proj[:, 0], proj[:, 0] + window, side="right")
        counts = ends - np.arange(1, n + 1)
        starts = np.concatenate(([0], np.cumsum(counts)))
        gather = max(1, _GATHER_ENTRIES // dim)
        lo = 0
        while lo < n:
            hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + _PAIR_CHUNK, "right")) - 1)
            i = np.repeat(np.arange(lo, hi), counts[lo:hi])
            j = i + 1 + np.arange(i.size) - np.repeat(starts[lo:hi] - starts[lo], counts[lo:hi])
            for axis in range(1, _PROJECTIONS):
                keep = np.abs(proj[i, axis] - proj[j, axis]) <= window
                i, j = i[keep], j[keep]
            for s in range(0, i.size, gather):
                diff = pts[order[i[s : s + gather]]] - pts[order[j[s : s + gather]]]
                hit = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= thresh)
                if hit.size:
                    a, b = order[i[s + hit[0]]], order[j[s + hit[0]]]
                    return int(min(a, b)), int(max(a, b))
            lo = hi
        return None

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

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
            pts = np.asarray(data["points"], dtype=float)
            dim = as_index(data["dim"], "dim")
        except (KeyError, TypeError, ValueError) as exc:
            raise GeometryError(f"malformed configuration payload: {exc}") from None
        if pts.ndim != 2 or pts.shape[1] != dim:
            raise GeometryError("declared dim does not match point rows")
        return cls(
            points=pts,
            labels=data.get("labels"),
            named_copies={k: [tuple(t) for t in v] for k, v in data.get("copies", {}).items()},
            notes=data.get("notes"),
        )

    def save(self, path: str) -> dict:
        """Write the configuration; returns the payload written, with
        ``points`` as the array."""
        payload = self._payload(self.points)
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
        return cls(pairwise_sq_dists(pts))

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
        if n < 2:
            raise GeometryError("a regular simplex needs at least 2 points")
        if side <= 0:
            raise GeometryError("side must be positive")
        sq = np.full((n, n), side * side)
        np.fill_diagonal(sq, 0.0)
        return cls(sq)

    @classmethod
    def rectangle(cls, a: float, b: float) -> "SimplexSpec":
        """Rectangle with side lengths a and b, corners (0,0),(a,0),(0,b),(a,b)."""
        if a <= 0 or b <= 0:
            raise GeometryError("rectangle sides must be positive")
        pts = np.array([[0.0, 0.0], [a, 0.0], [0.0, b], [a, b]])
        return cls.from_points(pts)

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


def _embeddings(d: np.ndarray, s: np.ndarray):
    """Yield non-empty ``(rows, k)`` int blocks of injective assignments
    ``a`` of the k rows of ``s`` to the points of ``d`` with
    ``sq_close(d[a[i], a[t]], s[i, t])`` for all t < i, all rows in
    lexicographic order.

    Rows i > j are twins when swapping them leaves ``s`` exactly
    unchanged; a row must take a larger point than its previous twin.
    Sorting any assignment within its twin classes gives another one
    (``d`` must be symmetric), so every copy keeps at least one, and the
    lexicographically first assignment is never pruned.

    Partial assignments grow one row per level: the candidates of row i
    are the AND of the closeness rows of the points already assigned.
    Each level is split into chunks of at most ``_GATHER_ENTRIES // n``
    partial assignments, kept on a stack so that memory stays bounded
    and rows still come out in order.
    """
    n, k = d.shape[0], s.shape[0]
    close: dict[float, np.ndarray] = {}

    def close_rows(v: float, points: np.ndarray) -> np.ndarray:
        if v not in close:
            close[v] = sq_close(d.T, v)
        return close[v][points]

    twin = [-1] * k
    for i in range(k):
        for j in range(i - 1, -1, -1):
            perm = np.arange(k)
            perm[[i, j]] = j, i
            if np.array_equal(s[np.ix_(perm, perm)], s):
                twin[i] = j
                break

    step = max(1, _GATHER_ENTRIES // max(n, 1))
    stack = [np.empty((1, 0), dtype=np.intp)]
    while stack:
        part = stack.pop()
        m, i = part.shape
        if i == k:
            yield part
            continue
        mask = np.ones((m, n), dtype=bool)
        for t in range(i):
            mask &= close_rows(float(s[i, t]), part[:, t])
        mask[np.arange(m)[:, None], part] = False
        if twin[i] >= 0:
            mask &= np.arange(n) > part[:, twin[i], None]
        rows, cols = np.nonzero(mask)
        grown = np.column_stack([part[rows], cols])
        stack.extend(grown[start : start + step] for start in reversed(range(0, len(grown), step)))


def congruence_check(A, B):
    """Search for a bijection making all pairwise squared distances agree.

    Returns a tuple ``perm`` with ``|A_i A_j| == |B_perm[i] B_perm[j]|``
    for all i, j (within tolerance), or None when no such bijection
    exists.  The first embedding of ``_embeddings``, so the
    lexicographically first such bijection; capped at 12 points.
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
    da = pairwise_sq_dists(A)
    db = pairwise_sq_dists(B)

    # Quick reject on the sorted distance multisets.
    iu = np.triu_indices(n, k=1)
    if not np.all(sq_close(np.sort(da[iu]), np.sort(db[iu]))):
        return None
    block = next(_embeddings(db, da), None)
    return None if block is None else tuple(block[0].tolist())


MAX_DIST_ENTRIES = 1 << 24  # entries of the n x n distance matrix enumerate_copies builds


def enumerate_copies(cfg: Configuration, spec: SimplexSpec):
    """All k-subsets of ``cfg`` congruent to ``spec``.

    Returns sorted index tuples in lexicographic order; every subset
    congruent to the spec appears exactly once.  Capped at k <= 6, and
    at ``MAX_DIST_ENTRIES`` entries of the n x n distance matrix (4096
    points), which with one boolean n x n closeness matrix per distinct
    spec distance bounds the memory.
    """
    k = spec.k
    n = len(cfg)
    if k > 6:
        raise GeometryError("enumerate_copies capped at spec size 6")
    if n * n > MAX_DIST_ENTRIES:
        raise GeometryError(
            f"enumerate_copies: {n} points need {n * n} distance entries, "
            f"over the limit of {MAX_DIST_ENTRIES}"
        )
    if k > n:
        return []
    blocks = [np.sort(b, axis=1) for b in _embeddings(pairwise_sq_dists(cfg.points), spec.sq_dist)]
    if not blocks:
        return []
    return [tuple(row) for row in np.unique(np.concatenate(blocks), axis=0).tolist()]


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
    (triangular pattern).  The result is validated by recomputing all
    pairwise distances; failure raises NonRealizableError.
    """
    sq = spec.sq_dist
    k = spec.k
    dim = max(1, k - 1)
    x = np.zeros((k, dim))
    scale = float(np.max(sq))
    pivot_floor = math.sqrt(sq_slack(scale))
    for i in range(1, k):
        v = np.zeros(dim)
        for m in range(i - 1):
            pivot = x[m + 1, m]
            g = (sq[0, i] + sq[0, m + 1] - sq[i, m + 1]) / 2.0
            proj = float(np.dot(x[m + 1, :m], v[:m]))
            v[m] = (g - proj) / pivot if pivot > pivot_floor else 0.0
        h2 = sq[0, i] - float(np.dot(v[: i - 1], v[: i - 1]))
        if h2 < -sq_slack(scale):
            raise NonRealizableError(f"embedding failed at point {i}: height^2 = {h2}")
        v[i - 1] = math.sqrt(max(h2, 0.0))
        x[i] = v
    got = pairwise_sq_dists(x)
    for i in range(k):
        for j2 in range(i):
            if not sq_close(float(got[i, j2]), float(sq[i, j2])):
                raise NonRealizableError(
                    f"embedding round trip failed on pair ({j2}, {i}): "
                    f"{got[i, j2]} vs {sq[i, j2]}"
                )
    return x


def write_json_atomic(path: str, payload: dict):
    """Write ``payload`` as compact one-line JSON via a temp file plus
    rename, so readers never see a torn file.

    The text is ``json.dumps(payload)`` with each top-level ndarray value
    in place of its ``tolist()``.  Other values go through the C encoder
    one at a time; a 2-D float64 array is streamed a block of rows at a
    time by ``_write_rows``, which holds Python floats for at most one
    block and never the whole text.  Floats are written with
    ``float.__repr__`` either way, so they reload bit-identical."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("{")
            for i, (key, value) in enumerate(payload.items()):
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be str, got {key!r}")
                fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
                if isinstance(value, np.ndarray):
                    _write_rows(fh, value)
                else:
                    fh.write(json.dumps(value))
            fh.write("}\n")
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


def _write_rows(fh, a: np.ndarray):
    """Write a 2-D float64 array as ``json.dumps(a.tolist())`` does, a block of
    rows at a time: one ``json.dumps`` if most entries are nonzero, else ``0.0``
    for each entry whose bits are zero (not ``-0.0``) and json for the rest."""
    if a.ndim != 2 or a.dtype != np.float64:
        raise TypeError(f"only 2-D float64 arrays are written, got {a.dtype} {a.shape}")
    dim, zeros = a.shape[1], "0.0, " * a.shape[1]
    step = max(1, _TOKEN_CHUNK // max(dim, 1))
    fh.write("[")
    for lo in range(0, len(a), step):
        block = a[lo : lo + step]
        rows, cols = np.divmod(np.flatnonzero(block.view(np.uint64) != 0), max(dim, 1))
        if 2 * rows.size > block.size:
            fh.write((", " if lo else "") + json.dumps(block.tolist())[1:-1])
            continue
        values = json.dumps(block[rows, cols].tolist())[1:-1].split(", ")
        cols, k = cols.tolist(), 0
        for i, end in enumerate(np.searchsorted(rows, np.arange(1, len(block) + 1)).tolist()):
            parts, done = [", [" if lo + i else "["], 0
            for j, v in zip(cols[k:end], values[k:end]):
                parts += (zeros[: 5 * (j - done)], v, ", ")
                done = j + 1
            parts.append(zeros[: 5 * (dim - done)])
            fh.write("".join(parts).removesuffix(", ") + "]")
            k = end
    fh.write("]")


_WS = rb"[ \t\n\r]*"
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.S)
_KEY_COLON = re.compile(_WS + b":" + _WS)
_ROWS_OPEN = re.compile(rb"\[" + _WS + rb"\[")
_ROWS_CLOSE = re.compile(_WS + rb"\]")


def read_json(path: str):
    """Load a JSON file as ``json.load`` does, except that each value of a
    ``"points"`` key that is a rectangular array of number rows comes back
    as a float64 ndarray, bit-equal to ``np.asarray(value, dtype=float)``,
    decoded from the file's bytes a chunk of rows at a time (the peak is about
    the file plus the array); only the rest is decoded, as strict UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    arrays, pieces, done, pos = [], [], 0, 0
    while string := _STRING.search(data, pos):
        pos = string.end()
        try:
            colon = scanstring(string[0].decode(), 1)[0] == "points" and _KEY_COLON.match(data, pos)
        except ValueError:  # a bad string: json reports it below
            break
        if found := colon and _dense_rows(data, colon.end()):
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


def _dense_rows(data: bytes, pos: int):
    """The rectangular array of JSON-number rows at ``data[pos]`` as float64
    and the end of its bytes, or None (empty, ragged, nested, not numbers).
    Numpy finds the brackets in windows that start small and double, so a
    value given up early (nested, say) is scanned about as far as it goes."""
    if not (m := _ROWS_OPEN.match(data, pos)):
        return None
    q, starts, ends, size = m.end() - 1, [], [], 64
    while True:
        c = np.frombuffer(data, np.uint8, min(size, len(data) - q), q)
        at = np.flatnonzero((c == 91) | (c == 93))  # at[0] is the "[" of a row, at q
        # "[" and "]" alternate; a "]" for a "[" closes, a "[" for a "]" nests
        wrong = np.flatnonzero((c[at] == 91) != (np.arange(at.size) % 2 == 0))
        if wrong.size and wrong[0] % 2:
            return None
        rows = wrong[0] // 2 if wrong.size else (at.size - 1) // 2
        gaps = rows - 1 if wrong.size else rows  # each through the next "[": whitespace and one comma
        lo, lens = at[1 : 2 * gaps : 2] + 1, at[2 : 2 * gaps + 1 : 2] - at[1 : 2 * gaps : 2]
        gap = c[np.arange(lens.sum()) + np.repeat(lo - np.cumsum(lens) + lens, lens)]
        if gap.tobytes().translate(None, b" \t\n\r") != b",[" * gaps:
            return None
        starts.append(at[0 : 2 * rows : 2] + q + 1)
        ends.append(at[1 : 2 * rows : 2] + q)
        if wrong.size:
            break
        if rows == 0 and q + size >= len(data):
            return None
        q += int(at[2 * rows])
        size = 2 * size if rows == 0 else min(2 * size, 8 * _TOKEN_CHUNK)
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    if not (close := _ROWS_CLOSE.match(data, int(ends[-1]) + 1)):
        return None
    out = np.zeros((len(starts), data.count(b",", starts[0], ends[0]) + 1))
    step = max(1, _TOKEN_CHUNK // out.shape[1])
    for lo in range(0, len(starts), step):
        try:
            _parse_rows(data, starts[lo : lo + step], ends[lo : lo + step], out[lo : lo + step])
        except (ValueError, OverflowError):  # json's errors, and ints beyond float range
            return None
    return out, close.end()


def _parse_rows(data: bytes, starts: np.ndarray, ends: np.ndarray, out: np.ndarray):
    """Fill ``out`` from the rows ``data[starts[i]:ends[i]]`` as ``np.asarray``
    does from ``json.loads``: tokens ``0.0`` or `` 0.0`` after a comma stay
    zero, json decodes the rest (all, if most are nonzero).  Raises
    ValueError unless each row has ``out.shape[1]`` JSON numbers."""
    base = int(starts[0]) - 8  # so that even the first comma has five bytes before it
    c = np.frombuffer(data, np.uint8)[base : int(ends[-1]) + 1]
    n, dim = out.shape
    comma, zero = c == 44, c == 48
    # A token holds no comma, and a "[" follows the comma after a row.
    literal = zero[7:-1] & (c[6:-2] == 46) & zero[5:-3] & (comma[4:-4] | (c[4:-4] == 32) & comma[3:-5])
    words = np.packbits(np.append(comma, np.zeros(-c.size % 64, bool)), bitorder="little").view("<u8")
    counts = np.bitwise_count(words)
    before = np.cumsum(counts, dtype=np.int64) - counts - np.count_nonzero(comma[:8])

    def rank(p):  # the commas before each position: popcounts of the comma bits in 64-bit words
        return before[p >> 6] + np.bitwise_count(words[p >> 6] & (np.uint64(1) << (p & 63).astype(np.uint64)) - 1)

    # With one comma between rows, row i has dim - 1 iff (i + 1) * dim - 1 precede its "]".
    if (rank(ends - base) != np.arange(dim - 1, n * dim, dim)).any():
        raise ValueError("rows of different widths")
    nonzero = comma[8:] > literal
    if 2 * np.count_nonzero(nonzero) > n * dim:  # mostly nonzero: decode the whole chunk
        rest, tokens = slice(None), bytearray(c)
        np.frombuffer(tokens, np.uint8)[np.r_[0:8, starts - base - 1, ends - base]] = 32  # blank the brackets
    else:
        # Comma k ends token k; the comma after a row's "]" ends its last token.
        at = np.flatnonzero(nonzero) + 8
        rest = np.append(rank(at), n * dim - 1)
        row, col = np.divmod(rest, dim)
        hi, first = np.append(at + base, 0), starts[row]
        hi[col == dim - 1] = ends[row[col == dim - 1]]
        tokens = b",".join([data[data.rfind(b",", f, j) + 1 or f : j] for f, j in zip(first.tolist(), hi.tolist())])
    # With no quote, brace, bracket or letter of true/false/null, json reads numbers or fails.
    if tokens.translate(None, b"0123456789+-.eENaInfity,\t\n\r "):
        raise ValueError("a number row holds a character no JSON number has")
    out.reshape(-1)[rest] = json.loads(b"[" + tokens + b"]")
