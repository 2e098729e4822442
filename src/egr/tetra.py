"""Hinged tetrahedra, dense quadruples, and chained link configurations.

A 4-point simplex is treated with vertex 0 as apex and face {1,2,3} as
base.  Rotating the apex around the base plane inside two extra axes
sweeps a circle of congruent copies; two positions on that circle give
a hinge pair whose apex-base-apex angle ranges over (0, 2*theta], with
theta the slope of the apex edge against the base plane.  The builders
below chain such hinges along equilateral polygonal paths: a link
joins two placed copies, the closed-polygon variant glues links around
a seed copy, and the anchor gadget stacks parallelogram extensions and
dense quadruples along a short path between two chosen face vertices,
then places one glued double polygon, built once, on every attached
copy.

Paths and hinge completions need room: every leg and every hinge pair
may claim fresh orthogonal axes from a shared workspace, so the output
dimension grows with the construction.  The count of auxiliary axes is
recorded in the configuration notes.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    CSR,
    Configuration,
    ConstraintViolation,
    GeometryError,
    SimplexSpec,
    cayley_menger_volume,
    check_copies,
    congruence_check,
    embed_from_distances,
    pairwise_sq_dists,
    sq_slack,
    squared_distance,
)
from .rectangles import fewest_edges, path_config

IDENTITY_ROLES = (0, 1, 2, 3)
SWAPPED_ROLES = (2, 3, 0, 1)
# Hinge angles closer than this (rad) share one solved hinge; the grid
# is 1000x finer than the 1e-9 angle check of _hinge_rows.
HINGE_GRID = 1e-12
# Largest points x dim a builder workspace may reach: 512 MB as dense
# float64, so an oversized build ends in GeometryError, not an OOM kill.
MAX_COORDINATES = 1 << 26


def _face_frame(sq: np.ndarray, apex: int):
    """The face opposite ``apex`` and the simplex embedded face-first.

    Rows 0-2 of the frame hold that face, in face order, in the plane
    of the first two axes; row 3 is the apex, with its foot in the
    first two coordinates and its height over the face in the third.
    """
    face = tuple(j for j in range(4) if j != apex)
    order = list(face) + [apex]
    return face, embed_from_distances(SimplexSpec(sq[np.ix_(order, order)]))


def _in_row_order(indices, roles) -> tuple:
    """Copy tuple in simplex row order: point indices[m] plays row roles[m]."""
    out = [0] * len(roles)
    for i, role in zip(indices, roles):
        out[role] = int(i)
    return tuple(out)


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    cosang = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return math.acos(max(-1.0, min(1.0, cosang)))


def _check_hinge_range(profile: TetraProfile, value: float, name: str, what: str) -> None:
    """Raise ConstraintViolation ``name`` unless value lies in (0, 2*theta]."""
    two_theta = 2.0 * profile.theta
    if not 0.0 < value <= two_theta + 1e-12:
        raise ConstraintViolation(name, f"{what} must lie in (0, {two_theta}], got {value}")


def _circumcenter_2d(v: np.ndarray) -> np.ndarray:
    ax, ay = v[1] - v[0]
    bx, by = v[2] - v[0]
    d = 2.0 * (ax * by - ay * bx)
    ux = (by * (ax * ax + ay * ay) - ay * (bx * bx + by * by)) / d
    uy = (ax * (bx * bx + by * by) - bx * (ax * ax + ay * ay)) / d
    return v[0] + np.array([ux, uy])


@dataclass(frozen=True)
class TetraProfile:
    """Derived geometry of a 4-point simplex with vertex 0 as apex.

    ``heights[i]`` is the height of vertex i over its opposite face and
    ``face_circumradii[i]`` that face's circumradius; H_max and rho_min
    are their extremes and condition_flag records H_max > rho_min.
    ``base2d`` embeds face {1,2,3} in the plane, ``apex_foot`` is the
    apex projection into it, ``apex_height`` the offset, and theta the
    angle of edge (0,1) against the base plane.
    """

    spec: SimplexSpec
    heights: tuple
    face_circumradii: tuple
    H_max: float
    rho_min: float
    hmax_vertex: int
    rhomin_vertex: int
    condition_flag: bool
    base2d: np.ndarray
    apex_foot: np.ndarray
    apex_height: float
    theta: float


def tetra_profile(spec: SimplexSpec) -> TetraProfile:
    if spec.k != 4:
        raise GeometryError(f"profile needs 4 points, got {spec.k}")
    sq = spec.sq_dist
    volume = cayley_menger_volume(spec)
    if volume <= math.sqrt(sq_slack(float(sq.max()))) ** 3:
        raise ConstraintViolation("degenerate", "coplanar points have no hinge geometry")

    faces = [tuple(j for j in range(4) if j != i) for i in range(4)]
    areas = [cayley_menger_volume(SimplexSpec(sq[np.ix_(f, f)])) for f in faces]
    heights = tuple(3.0 * volume / area for area in areas)
    radii = tuple(
        math.sqrt(sq[i][j] * sq[i][k] * sq[j][k]) / (4.0 * area)
        for (i, j, k), area in zip(faces, areas)
    )

    _, frame = _face_frame(sq, 0)
    d = heights[0]
    theta = math.asin(min(1.0, d / math.sqrt(sq[0][1])))

    return TetraProfile(
        spec=spec,
        heights=heights,
        face_circumradii=radii,
        H_max=max(heights),
        rho_min=min(radii),
        hmax_vertex=int(np.argmax(heights)),
        rhomin_vertex=int(np.argmin(radii)),
        condition_flag=max(heights) > min(radii),
        base2d=frame[:3, :2],
        apex_foot=frame[3, :2],
        apex_height=d,
        theta=theta,
    )


def apex_circle(profile: TetraProfile, gamma: float) -> np.ndarray:
    """Apex position at circle parameter gamma, base fixed in {z=w=0}."""
    f = profile.apex_foot
    d = profile.apex_height
    return np.array([f[0], f[1], d * math.cos(gamma), d * math.sin(gamma)])


def _hinge_rows(profile: TetraProfile, phi: float) -> np.ndarray:
    """Rows a, b, c, d, a' of two copies sharing the base face at apex
    angle phi, with both copies and the angle at b checked (to 1e-9 rad).

    The apex circle parameter gap solves
    cos(phi) = (B2 + A2 cos(gap)) / (B2 + A2) with B2 the squared
    apex-foot-to-b distance and A2 the squared apex height, so phi is
    attainable exactly for phi in (0, 2*theta].
    """
    _check_hinge_range(profile, phi, "phi_range", "hinge angle")
    rel = profile.base2d[0] - profile.apex_foot
    b2 = float(np.dot(rel, rel))
    a2 = profile.apex_height**2
    cos_gap = (math.cos(phi) * (b2 + a2) - b2) / a2
    gap = math.acos(max(-1.0, min(1.0, cos_gap)))
    rows = np.zeros((5, 4))
    rows[0] = apex_circle(profile, gap / 2.0)
    rows[4] = apex_circle(profile, -gap / 2.0)
    rows[1:4, :2] = profile.base2d
    if squared_distance(rows[0], rows[4]) <= sq_slack(float(profile.spec.sq_dist.max())):
        raise ConstraintViolation("apex_coincidence", f"apexes coincide at phi={phi}")
    check_copies(rows, [(0, 1, 2, 3), (4, 1, 2, 3)], profile.spec.sq_dist, "hinge copy")
    realized = _angle(rows[0] - rows[1], rows[4] - rows[1])
    if abs(realized - phi) > 1e-9:
        raise GeometryError(f"hinge angle {realized} misses requested {phi}")
    return rows


def glue_two_copies(profile: TetraProfile, phi: float) -> Configuration:
    """The hinge pair: rows a, b, c, d, a' (``_hinge_rows``), whose two
    ``tetra`` copies share the base face b, c, d."""
    return Configuration(
        points=_hinge_rows(profile, phi),
        labels=["a", "b", "c", "d", "a_prime"],
        named_copies={"tetra": [(0, 1, 2, 3), (4, 1, 2, 3)]},
        notes={"kind": "hinge_pair", "phi": phi},
    )


def _quadruple_rows(profile: TetraProfile) -> tuple[np.ndarray, list]:
    """Rows z, y1-y3, x1-x3 of four congruent copies stacked over one
    face in E^5, and those copies, checked, in simplex row order.

    x1 x2 x3 realize the face under the largest height; y1 y2 y3 sit on
    the sphere of apex positions over it, arranged as the face of
    smallest circumradius; z completes y1 y2 y3 to a fourth copy.  The
    copies are the three y-over-x copies, then the z copy.  Needs the
    largest height to exceed the smallest face circumradius: that face
    then fits on the sphere of radius H_max around the apex foot, its
    plane offset by sqrt(H_max^2 - rho_min^2).
    """
    if not profile.condition_flag:
        raise ConstraintViolation(
            "condition",
            f"largest height {profile.H_max} does not exceed smallest "
            f"face circumradius {profile.rho_min}",
        )
    sq = profile.spec.sq_dist
    i_h, i_r = profile.hmax_vertex, profile.rhomin_vertex
    face_h, xf = _face_frame(sq, i_h)
    face_r, rf = _face_frame(sq, i_r)
    big_h, rho = profile.H_max, profile.rho_min
    center = _circumcenter_2d(rf[:3, :2])

    z0 = math.sqrt(big_h * big_h - rho * rho)
    rows = np.zeros((7, 5))
    rows[0, :2] = xf[3, :2]
    rows[0, 2:4] = rf[3, :2] - center
    rows[0, 4] = z0 + profile.heights[i_r]
    rows[1:4, :2] = xf[3, :2]
    rows[1:4, 2:4] = rf[:3, :2] - center
    rows[1:4, 4] = z0
    rows[4:, :2] = xf[:3, :2]

    copies = [_in_row_order((k, 4, 5, 6), (i_h,) + face_h) for k in (1, 2, 3)]
    copies.append(_in_row_order((0, 1, 2, 3), (i_r,) + face_r))
    check_copies(rows, copies, sq, "dense quadruple copy")
    return rows, copies


def dense_quadruple(profile: TetraProfile) -> Configuration:
    """The dense quadruple: rows z, y1-y3, x1-x3 and their four
    ``tetra`` copies (``_quadruple_rows``)."""
    rows, copies = _quadruple_rows(profile)
    return Configuration(
        points=rows,
        labels=["z", "y1", "y2", "y3", "x1", "x2", "x3"],
        named_copies={"tetra": copies},
        notes={"kind": "dense_quadruple"},
    )


class Workspace:
    """Growing point store that can allocate fresh orthogonal axes.

    Each row is kept sparse, as sorted columns plus values: a builder
    reads the local column block of the points it touches and writes
    new rows over that block plus any fresh axes.  Growth past
    ``MAX_COORDINATES`` (points x dim, the size of the dense matrix the
    builders end with) raises GeometryError.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self.aux_axes = 0

    def _check_size(self, points: int, dim: int) -> None:
        if points * dim > MAX_COORDINATES:
            raise GeometryError(
                f"workspace of {points} points x {dim} axes = {points * dim} coordinates "
                f"exceeds the limit of {MAX_COORDINATES}"
            )

    def add_axis(self) -> int:
        self._check_size(len(self._cols), self.dim + 1)
        self.dim += 1
        self.aux_axes += 1
        return self.dim - 1

    def add_row(self, cols, vals) -> int:
        """Add a point with values ``vals`` at the sorted columns ``cols``."""
        self._check_size(len(self._cols) + 1, self.dim)
        self._cols.append(np.asarray(cols, dtype=np.intp))
        self._vals.append(np.asarray(vals, dtype=float))
        return len(self._cols) - 1

    def add_point(self, coords) -> int:
        """Add a point given by its leading coordinates."""
        coords = np.asarray(coords, dtype=float)
        return self.add_row(np.arange(len(coords)), coords)

    def block(self, idx):
        """The sorted union of the columns of rows ``idx``, and those rows
        as a dense block over it."""
        cols = [self._cols[i] for i in idx]
        union = np.unique(np.concatenate(cols))
        out = np.zeros((len(cols), len(union)))
        for row, c, i in zip(out, cols, idx):
            row[np.searchsorted(union, c)] = self._vals[i]
        return union, out

    def csr(self) -> CSR:
        lens = [len(c) for c in self._cols]
        return CSR(
            indptr=np.concatenate(([0], np.cumsum(lens, dtype=np.intp))),
            indices=np.concatenate([np.empty(0, np.intp), *self._cols]),
            data=np.concatenate([np.empty(0), *self._vals]),
            shape=(len(self._cols), self.dim),
        )


@dataclass(frozen=True)
class IsometryFrame:
    """Source side of an isometric extension, which ``_Builder.place``
    puts over placed anchor images.

    Extra point i is ``anchor 0 + coeffs[i] @ (anchor j - anchor 0)``
    plus ``residuals[i]``, a pair (fresh-axis offsets, values) along
    ``axes`` new orthonormal directions; ``anchor_sq`` holds the
    anchors' squared distances, which the anchor images of every
    placement must realize.
    """

    anchor_sq: np.ndarray
    coeffs: np.ndarray
    axes: int
    residuals: tuple


def isometry_frame(src_anchors, src_extras) -> IsometryFrame:
    """Split extras into affine combinations of the anchors plus
    residuals, orthonormalized by Gram-Schmidt."""
    src_anchors = np.asarray(src_anchors, dtype=float)
    src_extras = np.atleast_2d(np.asarray(src_extras, dtype=float))
    anchor_sq = pairwise_sq_dists(src_anchors)
    u = src_anchors[1:] - src_anchors[0]
    coeffs = []
    residuals = []
    for e in src_extras:
        c, *_ = np.linalg.lstsq(u.T, e - src_anchors[0], rcond=None)
        coeffs.append(c)
        residuals.append(e - src_anchors[0] - c @ u)

    # Each independent residual direction costs one fresh axis.
    basis: list[np.ndarray] = []
    rows = []
    floor = math.sqrt(sq_slack(float(anchor_sq.max())))
    for res in residuals:
        comps = []
        vec = res.copy()
        for q in basis:
            comp = float(np.dot(vec, q))
            comps.append(comp)
            vec = vec - comp * q
        norm = float(np.linalg.norm(vec))
        if norm > floor:
            basis.append(vec / norm)
            comps.append(norm)
        rows.append(comps)
    axes = np.arange(len(basis))
    return IsometryFrame(
        anchor_sq=anchor_sq,
        coeffs=np.array(coeffs),
        axes=len(basis),
        residuals=tuple((axes, np.pad(comps, (0, len(basis) - len(comps)))) for comps in rows),
    )


@dataclass
class LinkedConfig:
    """A configuration together with its ordered tetra copies."""

    cfg: Configuration
    tetra_copies: list


@dataclass(frozen=True)
class GluingTemplate:
    """The glued double polygon, built once over the simplex's own seed.

    ``frame`` places its rows over the four points of a copy in row
    order, which are its anchors; ``copies`` index the seed (0-3) and
    then those rows.  ``seed_fans`` lists the fans at corners of three
    seed points as (fan registry key, their rows in key order): copies
    that share those points share such a fan.  ``placements`` counts
    its hinge placements.
    """

    frame: IsometryFrame
    copies: list
    seed_fans: list
    placements: int


class _Builder:
    """Shared bookkeeping for the chained constructions.

    All stored copy tuples are labeled in the row order of the original
    simplex; hinge copies built under rotated vertex roles are mapped
    back before storage.  Copies are checked once, by ``finish``:
    workspace rows never change once added.

    Each vertex role (identity, or edges (0,1) and (2,3) swapped) is
    resolved once: ``role_profiles``, ``steps`` (its apex edge length)
    and ``fan_angles`` (its largest fan substep: theta by default, else
    ``corner_angle`` clamped a hair below the role's 2*theta).  An
    explicit ``corner_angle`` must lie in the hinge range, and each role
    glues one hinge at its fan angle, so an angle too small for distinct
    apexes is refused before the first row is placed.

    One build solves each distinct hinge and arc once: ``hinges`` maps
    the roles and the angle on a ``HINGE_GRID`` grid to the verified
    hinge pair's isometry frame, ``arcs`` an exact (edges, gap, step)
    triple to the verified arc, and ``fan_registry`` a path corner to
    its fan's interior rows.  ``place`` records each placement's anchor
    indices under its frame, and ``finish`` checks them once per frame,
    so a frame reused at an angle a grid step off is checked there.

    ``glued_template`` builds the glued double polygon once, over the
    simplex's own seed, and ``replay`` places it over any copy as one
    isometric block.  Copies placed from it share exactly the fans at
    corners of three of their points, which ``replay`` takes from
    ``fan_registry`` as ``fan`` would.
    """

    def __init__(self, profile: TetraProfile, dim: int, corner_angle: float | None = None):
        self.spec = profile.spec
        self.ws = Workspace(dim)
        self.copies: list = []
        self.fan_registry: dict = {}
        self.hinges: dict = {}
        self.arcs: dict = {}
        self.placements = 0
        self.anchors: dict = {}  # id(frame) -> (frame, anchor index tuples)
        swapped = list(SWAPPED_ROLES)
        self.role_profiles = {
            IDENTITY_ROLES: profile,
            SWAPPED_ROLES: tetra_profile(SimplexSpec(self.spec.sq_dist[np.ix_(swapped, swapped)])),
        }
        roles = self.role_profiles.items()
        self.steps = {perm: math.sqrt(prof.spec.sq_dist[0][1]) for perm, prof in roles}
        self.fan_angles = {perm: prof.theta for perm, prof in roles}
        if corner_angle is not None:
            _check_hinge_range(profile, corner_angle, "corner_angle", "corner angle")
            for perm, prof in roles:
                self.fan_angles[perm] = min(float(corner_angle), 2.0 * prof.theta * (1.0 - 1e-9))
                _hinge_rows(prof, self.fan_angles[perm])

    def place(self, frame: IsometryFrame, idx, block=None, reuse=None) -> list:
        """Add the images of the frame's extras over the anchor images
        ``idx`` and return the index of each extra.

        ``block`` is the anchors' column block as ``Workspace.block``
        returns it, when the caller already holds it; the new rows span
        that block plus their own fresh axes.  ``reuse`` maps extras to
        placed points that stand in for them, which get no row.  The
        check of the anchor images against ``frame.anchor_sq`` waits
        for ``finish``.
        """
        self.anchors.setdefault(id(frame), (frame, []))[1].append(tuple(idx))
        cols, dst = block or self.ws.block(idx)
        base = self.ws.dim
        for _ in range(frame.axes):
            self.ws.add_axis()
        origin = dst[0]
        vals = origin + frame.coeffs @ (dst[1:] - origin)
        reuse = reuse or {}
        return [
            reuse[j]
            if j in reuse
            else self.ws.add_row(np.concatenate([cols, base + axes]), np.concatenate([v, res]))
            for j, (v, (axes, res)) in enumerate(zip(vals, frame.residuals))
        ]

    def leg(self, i_start: int, i_end: int, step: float, min_edges: int) -> list:
        """Vertex indices of an equal-step path from i_start to i_end.

        Zero-length and single-step legs stay direct; anything else lands
        on a circular arc of max(min_edges, ``fewest_edges``) edges,
        placed in the plane of the endpoints and one fresh axis.
        """
        if i_start == i_end:
            return [i_start]
        cols, (p, q) = self.ws.block([i_start, i_end])
        gap = math.dist(p, q)
        slack = math.sqrt(sq_slack(step * step))
        if abs(gap - step) <= slack and min_edges <= 1:
            return [i_start, i_end]
        t = max(min_edges, fewest_edges(gap, step))
        key = (t, gap, step)
        if key not in self.arcs:
            self.arcs[key] = path_config(t, gap, step).points
        cols = np.append(cols, self.ws.add_axis())
        e1 = (q - p) / gap
        out = [i_start]
        for x, y in self.arcs[key][1:-1]:
            out.append(self.ws.add_row(cols, np.append(p + x * e1, y)))
        out.append(i_end)
        return out

    def fan(self, i_prev: int, i_center: int, i_next: int, perm) -> list:
        """Fan of points at the role's step around a path corner.

        Interpolates from the incoming to the outgoing neighbor in angle
        substeps of at most the role's fan angle; returns the full
        sequence including both neighbors.  A backtracking corner
        (shared neighbor index) needs no fan at all.

        Revisiting the same corner with the same neighbors reproduces the
        same interior points, so those are deduplicated through an exact
        symbolic registry instead of being placed twice: it maps (lower
        neighbor, higher neighbor, center, substeps) to the interior
        points in order from the lower neighbor.
        """
        if i_prev == i_next:
            return [i_prev]
        step = self.steps[perm]
        cols, (p0, c, p1) = self.ws.block([i_prev, i_center, i_next])
        v0 = p0 - c
        v1 = p1 - c
        n0 = float(np.linalg.norm(v0))
        n1 = float(np.linalg.norm(v1))
        slack = math.sqrt(sq_slack(step * step))
        if abs(n0 - step) > slack or abs(n1 - step) > slack:
            raise GeometryError("corner neighbors are not at the path step distance")
        psi = _angle(v0, v1)
        substeps = max(1, math.ceil(psi / self.fan_angles[perm] - 1e-12))
        if substeps == 1:
            return [i_prev, i_next]
        lo, hi = sorted((i_prev, i_next))
        key = (lo, hi, i_center, substeps)
        if key in self.fan_registry:
            mids = self.fan_registry[key]
            return [i_prev] + (mids if i_prev == lo else mids[::-1]) + [i_next]
        e1 = v0 / n0
        w = v1 - float(np.dot(v1, e1)) * e1
        wn = float(np.linalg.norm(w))
        if wn > slack:
            e2 = w / wn
        else:
            # Straight-through corner: rotate inside a fresh plane.
            cols = np.append(cols, self.ws.add_axis())
            c = np.append(c, 0.0)
            e1 = np.append(e1, 0.0)
            e2 = np.zeros(len(cols))
            e2[-1] = 1.0
        mids = []
        for j in range(1, substeps):
            ang = psi * j / substeps
            mids.append(self.ws.add_row(cols, c + step * (math.cos(ang) * e1 + math.sin(ang) * e2)))
        self.fan_registry[key] = mids if i_prev == lo else mids[::-1]
        return [i_prev] + mids + [i_next]

    def _place_hinge(self, perm, i_apex1: int, i_center: int, i_apex2: int):
        """Complete two fan neighbors around a corner into a hinge pair."""
        idx = (i_apex1, i_center, i_apex2)
        cols, dst = self.ws.block(idx)
        phi = _angle(dst[0] - dst[1], dst[2] - dst[1])
        key = (perm, round(phi / HINGE_GRID))
        if key not in self.hinges:
            rows = _hinge_rows(self.role_profiles[perm], phi)
            self.hinges[key] = isometry_frame(rows[[0, 1, 4]], rows[2:4])
        self.placements += 1
        return self.place(self.hinges[key], idx, (cols, dst))

    def walk_path(self, path, perm) -> None:
        """Insert the fan at every interior corner of ``path`` together
        with its hinge copies, stored in original row order."""
        for i_prev, i_center, i_next in zip(path, path[1:], path[2:]):
            fan = self.fan(i_prev, i_center, i_next, perm)
            for a1, a2 in zip(fan, fan[1:]):
                z1, z2 = self._place_hinge(perm, a1, i_center, a2)
                for apex in (a1, a2):
                    self.copies.append(_in_row_order((apex, i_center, z1, z2), perm))

    def link(self, t1, t2) -> None:
        """Chain copy t1 to copy t2 through hinge corners.

        One path runs t1[1] -> t1[0] -> ... -> t2[0] -> t2[1] at the
        (0,1) edge step, the other t1[2] -> t1[3] -> ... -> t2[3] ->
        t2[2] at the (2,3) edge step with vertex roles rotated; the
        second path's copies are appended in reverse so the stored
        order stays consecutive after t2.  Both legs take the fewest
        edges.
        """
        self.copies.append(t1)
        if tuple(t1) == tuple(t2):
            self.copies.append(t2)
            return
        leg = self.leg(t1[0], t2[0], self.steps[IDENTITY_ROLES], 1)
        self.walk_path([t1[1]] + leg + [t2[1]], IDENTITY_ROLES)
        self.copies.append(t2)

        leg = self.leg(t1[3], t2[3], self.steps[SWAPPED_ROLES], 1)
        start = len(self.copies)
        self.walk_path([t1[2]] + leg + [t2[2]], SWAPPED_ROLES)
        self.copies[start:] = reversed(self.copies[start:])

    def closed_polygon(self, seed, perm) -> int:
        """Equilateral polygon through the seed's vertices in role
        order with a hinge fan at every polygon corner.  Every leg takes
        the fewest edges, so the seed edge (perm[0], perm[1]) stays
        direct.  Returns the number of copies added."""
        order = [seed[p] for p in perm]
        poly = [order[0]]
        for nxt in order[1:] + [order[0]]:
            poly.extend(self.leg(poly[-1], nxt, self.steps[perm], 1)[1:])
        before = len(self.copies)
        # The closed walk enters its first corner from the last vertex.
        self.walk_path([poly[-2]] + poly, perm)
        return len(self.copies) - before

    def glued_polygons(self, seed):
        """Both closed polygons of the glued construction plus the
        links chaining consecutive polygon copies.  Returns the copy
        counts (pass one, pass two, links)."""
        phi1 = self.closed_polygon(seed, IDENTITY_ROLES)
        phi2 = self.closed_polygon(seed, SWAPPED_ROLES)
        polygon_copies = self.copies[len(self.copies) - phi1 - phi2 :]
        before = len(self.copies)
        for t1, t2 in zip(polygon_copies, polygon_copies[1:]):
            self.link(t1, t2)
        return phi1, phi2, len(self.copies) - before

    def glued_template(self, seed_points) -> GluingTemplate:
        """Run ``glued_polygons`` once on ``seed_points`` (the simplex in
        row order, spanning its own space) in a workspace of its own,
        with this build's roles, hinges and arcs, and check its
        placements once per frame.

        Each template row becomes its affine coefficients over the seed
        plus its own fresh-axis entries, so ``replay`` places it as one
        isometric block.
        """
        sub = copy.copy(self)  # shares the solved hinges and arcs
        sub.ws = Workspace(seed_points.shape[1])
        sub.copies, sub.fan_registry, sub.anchors, sub.placements = [], {}, {}, 0
        seed = tuple(sub.ws.add_point(p) for p in seed_points)
        sub.glued_polygons(seed)
        rows = sub.ws.csr()
        for frame, tuples in sub.anchors.values():
            check_copies(rows, tuples, frame.anchor_sq, "anchor image")
        n, dim = len(seed), seed_points.shape[1]
        u = seed_points[1:] - seed_points[0]
        coeffs = np.linalg.solve(u.T, (rows.dense()[n:, :dim] - seed_points[0]).T).T
        residuals = tuple(
            (c[c >= dim] - dim, v[c >= dim]) for c, v in zip(sub.ws._cols[n:], sub.ws._vals[n:])
        )
        frame = IsometryFrame(pairwise_sq_dists(seed_points), coeffs, sub.ws.aux_axes, residuals)
        seed_fans = [
            (key, [i - n for i in mids])
            for key, mids in sub.fan_registry.items()
            if max(key[:3]) < n
        ]
        return GluingTemplate(frame, sub.copies, seed_fans, sub.placements)

    def replay(self, tpl: GluingTemplate, seed) -> None:
        """Place the template over the copy ``seed`` (row order) and add
        its copies and hinge placements, as ``glued_polygons(seed)``
        would.  A seed-corner fan that an earlier copy registered is
        reused, as ``fan`` reuses it; the others are registered."""
        reuse = {}
        fans = []
        for (lo, hi, center, substeps), mids in tpl.seed_fans:
            i, j = seed[lo], seed[hi]
            key = (min(i, j), max(i, j), seed[center], substeps)
            mids = mids if i < j else mids[::-1]
            reuse.update(zip(mids, self.fan_registry.get(key, ())))
            fans.append((key, mids))
        index = list(seed) + self.place(tpl.frame, seed, reuse=reuse)
        for key, mids in fans:
            self.fan_registry.setdefault(key, [index[len(seed) + m] for m in mids])
        self.copies.extend(tuple(index[i] for i in t) for t in tpl.copies)
        self.placements += tpl.placements

    def finish(self, extra_notes: dict) -> LinkedConfig:
        """The configuration, after every placement's anchor images and
        every stored copy are checked on the sparse rows."""
        rows = self.ws.csr()
        for frame, tuples in self.anchors.values():
            check_copies(rows, tuples, frame.anchor_sq, "anchor image")
        worst = check_copies(rows, self.copies, self.spec.sq_dist, "tetra copy")
        notes = {
            "aux_axes": self.ws.aux_axes,
            "dim": self.ws.dim,
            "placement": "paths and hinge completions use fresh orthogonal axes",
            "hinges": self.placements,
            "distinct_hinges": len(self.hinges),
            "distinct_copies": len({tuple(sorted(t)) for t in self.copies}),
            "max_rel_sq_err": worst,
        }
        notes.update(extra_notes)
        cfg = Configuration(
            points=rows.dense(),
            named_copies={"tetra": [tuple(t) for t in self.copies]},
            notes=notes,
        )
        return LinkedConfig(cfg=cfg, tetra_copies=list(self.copies))


def build_link(
    profile: TetraProfile,
    t1_points,
    t2_points,
    corner_angle: float | None = None,
) -> LinkedConfig:
    """Chain two placed copies of the simplex through hinge corners."""
    t1_points = np.asarray(t1_points, dtype=float)
    t2_points = np.asarray(t2_points, dtype=float)
    if t1_points.shape != t2_points.shape or t1_points.shape[0] != 4:
        raise GeometryError("endpoints must be two 4-point arrays of equal dimension")
    ends = np.vstack([t1_points, t2_points])
    try:
        check_copies(ends, [(0, 1, 2, 3), (4, 5, 6, 7)], profile.spec.sq_dist, "endpoint")
    except GeometryError as err:
        raise ConstraintViolation("seed_congruence", str(err)) from None

    b = _Builder(profile, t1_points.shape[1], corner_angle)
    t1 = tuple(b.ws.add_point(p) for p in t1_points)
    # Points shared between the endpoint copies are identified by
    # coordinates once, here at the seam; everything downstream shares
    # by index.
    cross_sq = pairwise_sq_dists(ends)[:4, 4:]
    slack = sq_slack(float(profile.spec.sq_dist.max()))
    t2 = tuple(
        int(t1[np.nonzero(cross_sq[:, j] <= slack)[0][0]])
        if bool(np.any(cross_sq[:, j] <= slack))
        else b.ws.add_point(t2_points[j])
        for j in range(4)
    )

    b.link(t1, t2)
    return b.finish(extra_notes={"kind": "link"})


def build_x1(
    profile: TetraProfile,
    seed_points,
    corner_angle: float | None = None,
) -> LinkedConfig:
    """Glued links around one placed copy of the simplex.

    Two closed equilateral polygons run through the seed's vertices,
    one at the (0,1) edge step starting along that edge, one at the
    (2,3) edge step with vertex roles rotated accordingly; every
    polygon corner carries a hinge fan, and consecutive fan copies are
    chained with links.
    """
    seed_points = np.asarray(seed_points, dtype=float)
    if seed_points.ndim != 2 or seed_points.shape[0] != 4:
        raise GeometryError("seed must be a 4-point array")
    perm = congruence_check(embed_from_distances(profile.spec), seed_points)
    if perm is None:
        raise ConstraintViolation("seed_congruence", "seed is not congruent to the simplex")
    seed_points = seed_points[list(perm)]

    b = _Builder(profile, seed_points.shape[1], corner_angle)
    seed = tuple(b.ws.add_point(p) for p in seed_points)
    b.copies.append(seed)
    phi1, phi2, link_copies = b.glued_polygons(seed)
    return b.finish(
        extra_notes={
            "kind": "x1",
            "phi": [phi1, phi2],
            "polygon_copies": phi1 + phi2,
            "link_copies": link_copies,
        }
    )


def build_anchor_gadget(
    profile: TetraProfile,
    edge=None,
    k: int = 1,
    corner_angle: float | None = None,
) -> LinkedConfig:
    """Parallelogram path gadget anchored at an edge of the
    largest-height face.

    The two edge vertices are joined by a (k+1)-edge path whose step is
    the diagonal of the parallelogram spanned by the face.  Each path
    edge carries that parallelogram, whose two face-congruent triangles
    receive dense-quadruple attachments.  The glued double polygon is
    built once over the simplex's own seed (``glued_template``) and
    replayed on every attached copy in attachment order: the rows, copy
    tuples and fans shared at seed corners are those a walk of
    ``glued_polygons`` on each copy would give, with coordinates equal
    to rounding.
    """
    dq_rows, dq_copies = _quadruple_rows(profile)
    if k < 1:
        raise GeometryError("path length must be at least 1")
    i_h = profile.hmax_vertex
    face, frame = _face_frame(profile.spec.sq_dist, i_h)
    if edge is None:
        edge = (face[0], face[1])
    a1, a2 = (int(edge[0]), int(edge[1]))
    if a1 == a2 or {a1, a2} - set(face):
        raise GeometryError(f"edge {edge} must join two vertices of the face {face}")
    a3 = next(j for j in face if j not in (a1, a2))

    # Canonical copy: largest-height face in the plane, apex above it.
    pts4 = np.zeros((4, 3))
    pts4[list(face) + [i_h]] = frame

    p1, p2, p3 = pts4[a1], pts4[a2], pts4[a3]
    x = p2 + p3 - p1
    d_step = float(np.linalg.norm(p1 - x))

    b = _Builder(profile, 3, 2.0 * profile.theta if corner_angle is None else corner_angle)
    idx4 = tuple(b.ws.add_point(p) for p in pts4)
    b.copies.append(idx4)

    bpath = b.leg(idx4[a1], idx4[a2], d_step, k + 1)
    if len(bpath) != k + 2:
        raise GeometryError(f"edge gap admits no {k + 1}-edge path at the diagonal step")

    dense_frame = isometry_frame(dq_rows[4:], dq_rows[[1, 2, 3, 0]])
    parallelogram_frame = isometry_frame(np.vstack([p1, x]), np.vstack([p2, p3]))

    def attach_dense(tri_idx):
        """Dense-quadruple attachment over one placed face triangle.

        tri_idx is in face row order; returns the four copy tuples."""
        *ys, z = b.place(dense_frame, tri_idx)
        local = [z, *ys, *tri_idx]  # the dense quadruple's point order
        copies = [tuple(local[i] for i in t) for t in dq_copies]
        b.copies.extend(copies)
        return copies

    # Each path edge spans a parallelogram congruent to (a1, a2, x, a3)
    # whose diagonal is the edge; its two triangles are congruent to
    # the face, the second one with the off-diagonal corners swapped.
    rows = [face.index(a) for a in (a1, a2, a3)]
    attachments = []
    for i in range(len(bpath) - 1):
        c1, c2 = b.place(parallelogram_frame, bpath[i : i + 2])
        attachments += attach_dense(_in_row_order((bpath[i], c1, c2), rows))
        attachments += attach_dense(_in_row_order((bpath[i + 1], c2, c1), rows))

    # Glue the double polygon construction onto every attached copy.
    tpl = b.glued_template(embed_from_distances(profile.spec))
    for tup in attachments:
        b.replay(tpl, tup)

    return b.finish(
        extra_notes={
            "kind": "anchor_gadget",
            "edge": [a1, a2],
            "k": k,
            "path": [int(i) for i in bpath],
            "attachment_copies": len(attachments),
            "gluing_copy_counts": [len(tpl.copies)] * len(attachments),
        }
    )
