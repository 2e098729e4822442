"""Obtuse-triangle machinery.

Given an obtuse triangle with sides a <= b <= c, this module computes
the associated quadratic invariant and height bound, realizes the
five-point gadget that transmits color equality across a sphere of
equal chords, walks equal-hop chains between two points of a sphere,
chains gadget spheres across the E^4 sphere of equal chords, and
assembles the two-sphere certificate used in the wide-angle regime.
Each construction is returned as the ``Configuration`` it describes,
checked before it is returned; ``check_case_b`` re-checks the
certificate from the configuration alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Configuration,
    ConstraintViolation,
    GeometryError,
    SimplexSpec,
    as_point,
    bisect,
    check_copies,
    sq_close,
    sq_slack,
    squared_distance,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TriangleInvariants:
    """Derived quantities of a triangle with sides a <= b <= c.

    Delta is the symmetric quartic 2a^2b^2 + 2b^2c^2 + 2c^2a^2 - a^4 -
    b^4 - c^4 (16 times the squared area); h = sqrt(Delta)/a is twice
    the height over the shortest side; gamma is the largest angle.
    """

    a: float
    b: float
    c: float
    Delta: float
    h: float
    obtuse: bool
    gamma: float
    circumradius: float


def triangle_invariants(a: float, b: float, c: float) -> TriangleInvariants:
    if not (0.0 < a <= b <= c):
        raise GeometryError(f"sides must satisfy 0 < a <= b <= c, got {(a, b, c)}")
    if a + b <= c:
        raise ConstraintViolation("triangle_inequality", f"a + b <= c for {(a, b, c)}")
    delta = (
        2.0 * (a * b) ** 2
        + 2.0 * (b * c) ** 2
        + 2.0 * (c * a) ** 2
        - a**4
        - b**4
        - c**4
    )
    if delta <= 0.0:
        raise ConstraintViolation("degenerate", f"Delta = {delta} is not positive")
    h = math.sqrt(delta) / a
    cos_gamma = (a * a + b * b - c * c) / (2.0 * a * b)
    gamma = math.acos(max(-1.0, min(1.0, cos_gamma)))
    circumradius = c / (2.0 * math.sin(gamma))
    return TriangleInvariants(
        a=a,
        b=b,
        c=c,
        Delta=delta,
        h=h,
        obtuse=(a * a + b * b < c * c),
        gamma=gamma,
        circumradius=circumradius,
    )


@dataclass(frozen=True)
class PerturbedChord:
    """Chord length of the shifted triangle pair and its admissible bound."""

    ell: float
    bound: float
    ok: bool


def perturbed_chord(a: float, b: float, c: float, eps: float) -> PerturbedChord:
    """Length ell of the chord joining the two equal-distance apexes.

    Requires 0 < eps < h.  The bound 2*sqrt(c^2 - (eps/2)^2) always
    exceeds ell; ``ok`` records the comparison explicitly.
    """
    inv = triangle_invariants(a, b, c)
    if not (0.0 < eps < inv.h):
        raise ConstraintViolation("eps_range", f"eps must lie in (0, h={inv.h}), got {eps}")
    num = inv.Delta - (a * eps) ** 2
    den = b * b - (eps / 2.0) ** 2
    ell = math.sqrt(num / den)
    bound = 2.0 * math.sqrt(c * c - (eps / 2.0) ** 2)
    return PerturbedChord(ell=ell, bound=bound, ok=ell < bound)


def five_point_sq(a: float, b: float, c: float, eps: float, ell: float) -> np.ndarray:
    """Wanted squared distances of the five-point gadget, rows and
    columns A, B, P, M, N."""
    a2, b2, c2 = a**2, b**2, c**2
    e2, l2 = eps**2, ell**2
    return np.array(
        [
            [0.0, e2, c2, c2, b2],
            [e2, 0.0, c2, c2, b2],
            [c2, c2, 0.0, l2, a2],
            [c2, c2, l2, 0.0, a2],
            [b2, b2, a2, a2, 0.0],
        ]
    )


def build_five_point(a: float, b: float, c: float, eps: float) -> Configuration:
    """Five points in E^3 transmitting color equality between two
    sphere points, rows A, B, P, M, N.

    A and B sit eps apart, straddling the origin on the first axis; P
    and M lie on the sphere of points at distance c from both, with
    |PM| = ell (``notes["ell"]``); N is at distance b from A and B and
    at distance a from P and M.  P, M, N lie in the perpendicular
    bisector plane, and the position of N on the axis through the two
    chord midpoints is what makes all four outer triangles congruent to
    (a, b, c).  The named copies, those four ``triangle_*`` and
    ``tetra_PMAB``, cover every entry of ``five_point_sq``, against
    which all five rows are checked.
    """
    inv = triangle_invariants(a, b, c)
    if not inv.obtuse:
        raise ConstraintViolation("obtuse", f"{(a, b, c)} is not an obtuse triple")
    chord = perturbed_chord(a, b, c, eps)
    ell = chord.ell
    c_p = math.sqrt(c * c - (eps / 2.0) ** 2)
    b_p = math.sqrt(b * b - (eps / 2.0) ** 2)
    half = ell / 2.0
    x_sq = c_p * c_p - half * half
    if x_sq <= 0.0:
        raise ConstraintViolation("chord_bound", "chord exceeds sphere diameter")
    x = math.sqrt(x_sq)
    # The algebraic identity behind N's placement; kept as a hard check.
    x_alg = (b_p * b_p + c_p * c_p - a * a) / (2.0 * b_p)
    if abs(x_alg - x) > 1e-6 * c:
        raise GeometryError(f"midpoint identity failed: {x_alg} vs {x}")
    rows = np.array(
        [
            [-eps / 2.0, 0.0, 0.0],
            [eps / 2.0, 0.0, 0.0],
            [0.0, x, half],
            [0.0, x, -half],
            [0.0, b_p, 0.0],
        ]
    )
    check_copies(rows, [(0, 1, 2, 3, 4)], five_point_sq(a, b, c, eps, ell), "five-point gadget")
    return Configuration(
        points=rows,
        labels=["A", "B", "P", "M", "N"],
        named_copies={
            "triangle_NPA": [(4, 2, 0)],
            "triangle_NPB": [(4, 2, 1)],
            "triangle_NMA": [(4, 3, 0)],
            "triangle_NMB": [(4, 3, 1)],
            "tetra_PMAB": [(2, 3, 0, 1)],
        },
        notes={"a": a, "b": b, "c": c, "eps": eps, "ell": ell},
    )


def _sphere_chain(center, s: float, d: float, nodes, k: int, s_prime, pre_hops: int) -> Configuration:
    """Check that every node is s from ``center`` and every hop is d
    long, then return the chain with its ``hops`` copies."""
    hops = [(i, i + 1) for i in range(len(nodes) - 1)]
    radii = [(0, i) for i in range(1, len(nodes) + 1)]
    check_copies(np.vstack([center, nodes]), radii, SimplexSpec.pair(s).sq_dist, "center-node pair")
    check_copies(nodes, hops, SimplexSpec.pair(d).sq_dist, "hop")
    return Configuration(
        points=nodes,
        named_copies={"hops": hops},
        notes={"s": s, "d": d, "s_prime": s_prime, "k": k, "pre_hops": pre_hops},
    )


def _unit_orthogonal(vectors: list[np.ndarray], dim: int) -> np.ndarray:
    """First standard basis direction orthogonalized against ``vectors``."""
    basis = []
    for v in vectors:
        w = v.copy()
        for u in basis:
            w = w - np.dot(w, u) * u
        n = np.linalg.norm(w)
        if n > 1e-12:
            basis.append(w / n)
    for axis in range(dim):
        w = np.zeros(dim)
        w[axis] = 1.0
        for u in basis:
            w = w - np.dot(w, u) * u
        n = np.linalg.norm(w)
        if n > 1e-6:
            return w / n
    raise GeometryError("no orthogonal direction available; ambient dimension too small")


def _chain_profile(uv: float, d: float, k: int):
    def f(x: float) -> float:
        return 2.0 * (k + 1) * math.asin(d / (2.0 * x)) - 2.0 * math.asin(uv / (2.0 * x))

    return f


def chain_on_sphere(center, s: float, U, V, d: float) -> Configuration:
    """Connect U to V on the sphere by the smallest workable equal-hop chain.

    Solves f(x) = 2(k+1) asin(d/2x) - 2 asin(|UV|/2x) for a radius
    s' in [p, s] with f(s') an integer multiple of 2 pi, taking the
    smallest k for which such a radius exists (some k has one: the gap
    f(p) - f(s) grows with k).  Antipodal endpoints get one
    deterministic pre-hop first.

    Returns rows U, X_1, ..., X_k, V, each checked to lie s from
    ``center``, with every consecutive pair, the ``hops`` copies,
    checked d apart.  Its notes are s, d, s_prime (the radius of the
    circle carrying the nodes; None for the single-point chain of
    coincident endpoints), k and ``pre_hops``.
    """
    center = as_point(center)
    U = as_point(U)
    V = as_point(V)
    dim = center.shape[0]
    if U.shape[0] != dim or V.shape[0] != dim:
        raise GeometryError("center, U, V must share a dimension")
    if dim < 3:
        raise GeometryError("chain_on_sphere needs ambient dimension >= 3")
    if not (0.0 < d < 2.0 * s):
        raise GeometryError(f"step must satisfy 0 < d < 2s, got d={d}, s={s}")
    ends = np.vstack([center, U, V])
    check_copies(ends, [(0, 1), (0, 2)], SimplexSpec.pair(s).sq_dist, "center-endpoint pair")
    s_sq = s * s
    uv_sq = squared_distance(U, V)
    scale_slack = sq_slack(s_sq)
    if uv_sq <= scale_slack:
        # Coincident endpoints: nothing to connect.
        return _sphere_chain(center, s, d, U[None, :].copy(), 0, None, 0)

    if sq_close(uv_sq, 4.0 * s_sq):
        # Antipodal endpoints: one deterministic pre-hop off the axis.
        radial = (U - center) / s
        e = _unit_orthogonal([radial], dim)
        xi = 2.0 * math.asin(d / (2.0 * s))
        u_pre = center + math.cos(xi) * (U - center) + math.sin(xi) * s * e
        inner = chain_on_sphere(center, s, u_pre, V, d)
        nodes = np.vstack([U[None, :], inner.points])
        notes = inner.notes
        return _sphere_chain(center, s, d, nodes, notes["k"] + 1, notes["s_prime"], notes["pre_hops"] + 1)

    uv = math.sqrt(uv_sq)
    half_uv = uv / 2.0
    base = max(d / 2.0, half_uv)
    p = base + 0.01 * (s - base)
    if not (p < s):
        raise GeometryError("no admissible circle radius interval")

    # p < s, so each step of k widens f(p) - f(s) by
    # 2 (asin(d/2p) - asin(d/2s)) > 0; once the gap exceeds 2 pi, a
    # multiple of 2 pi lies strictly inside it and the scan stops.
    solution = None
    for k in itertools.count(1):
        f = _chain_profile(uv, d, k)
        fs = f(s)
        fp = f(p)
        lo, hi = min(fs, fp), max(fs, fp)
        n_lo = max(0, math.ceil(lo / TWO_PI - 1e-9))
        n_hi = math.floor(hi / TWO_PI + 1e-9)
        for n in range(n_lo, n_hi + 1):
            target = TWO_PI * n
            if abs(fs - target) <= 1e-12:
                solution = (k, s, n)
                break
            if abs(fp - target) <= 1e-12:
                solution = (k, p, n)
                break
            if (fp - target) * (fs - target) < 0.0:
                a_x, b_x = bisect(lambda x: (f(x) - target) * (fp - target) > 0.0, p, s, 1e-15)
                solution = (k, 0.5 * (a_x + b_x), n)
                break
        if solution is not None:
            break
    k, s_prime, n = solution

    # Circle of radius s' through U and V on the sphere, tilted off the
    # great-circle plane by a deterministic third direction.
    w_mid = (U + V) / 2.0
    e1 = (V - U) / uv
    m_vec = w_mid - center
    m = math.sqrt(max(s_sq - half_uv * half_uv, 0.0))
    w_hat = m_vec / m
    e3 = _unit_orthogonal([e1, w_hat], dim)
    q_sq = s_prime * s_prime - half_uv * half_uv
    alpha = -q_sq / m
    beta_sq = q_sq * (m * m - q_sq)
    beta = math.sqrt(max(beta_sq, 0.0)) / m
    o_circ = w_mid + alpha * w_hat + beta * e3

    e_a = (U - o_circ) / s_prime
    v_rel = V - o_circ
    e_b = v_rel - np.dot(v_rel, e_a) * e_a
    e_b_norm = np.linalg.norm(e_b)
    if e_b_norm <= 1e-12 * s_prime:
        raise GeometryError("degenerate circle frame")
    e_b = e_b / e_b_norm

    step = 2.0 * math.asin(d / (2.0 * s_prime))
    nodes = [U]
    for i in range(1, k + 1):
        ang = i * step
        nodes.append(o_circ + s_prime * (math.cos(ang) * e_a + math.sin(ang) * e_b))
    nodes.append(V)
    return _sphere_chain(center, s, d, np.vstack(nodes), k, s_prime, 0)


def chain_angle_defect(chain: Configuration) -> float:
    """Distance from f(s') to the nearest integer multiple of 2 pi, for a
    chain built by ``chain_on_sphere``.

    For antipodal inputs the profile applies to the segment after the
    deterministic pre-hop, which is where s' was solved.
    """
    notes = chain.notes
    if notes["s_prime"] is None:
        return 0.0
    u = chain.points[notes["pre_hops"]]
    v = chain.points[-1]
    uv = math.sqrt(squared_distance(u, v))
    f = _chain_profile(uv, notes["d"], notes["k"] - notes["pre_hops"])
    val = f(notes["s_prime"])
    return abs(val - TWO_PI * round(val / TWO_PI))


def mono_sphere_witness(a: float, b: float, c: float, eps: float, U, V) -> Configuration:
    """Chain of gadget spheres showing one color must dominate a sphere.

    U and V are E^4 points with |UA| = |UB| = |VA| = |VB| = c, where A
    and B straddle the origin on the first axis, eps apart.  The chain
    stays on the sphere of points c from both, in the hyperplane
    orthogonal to AB, hopping by the gadget chord ell.  Returns rows A,
    B, then the chain nodes U, ..., V; each hop, with A and B, is a
    ``tetra_PMAB`` copy checked congruent to the gadget's {P, M, A, B}.
    Its notes are a, b, c, eps, ell and the chain's k, s_prime and
    pre_hops.
    """
    ell = build_five_point(a, b, c, eps).notes["ell"]
    U, V = as_point(U), as_point(V)
    if U.shape[0] != 4 or V.shape[0] != 4:
        raise GeometryError("witness endpoints must be E^4 points")
    A4 = np.array([-eps / 2.0, 0.0, 0.0, 0.0])
    B4 = np.array([eps / 2.0, 0.0, 0.0, 0.0])
    ends = np.vstack([A4, B4, U, V])
    pairs = [(2, 0), (2, 1), (3, 0), (3, 1)]
    check_copies(ends, pairs, SimplexSpec.pair(c).sq_dist, "endpoint-anchor pair")
    radius = math.sqrt(c * c - (eps / 2.0) ** 2)
    chain3 = chain_on_sphere(np.zeros(3), radius, U[1:], V[1:], ell)
    rows = np.zeros((len(chain3) + 2, 4))
    rows[:2] = A4, B4
    rows[2:, 1:] = chain3.points

    pmab = [2, 3, 0, 1]
    ref = five_point_sq(a, b, c, eps, ell)[np.ix_(pmab, pmab)]
    hops = [(2 + i, 3 + i, 0, 1) for i in range(len(chain3) - 1)]
    check_copies(rows, hops, ref, "sphere hop")
    return Configuration(
        points=rows,
        named_copies={"tetra_PMAB": hops},
        notes={"a": a, "b": b, "c": c, "eps": eps, "ell": ell,
               **{key: chain3.notes[key] for key in ("k", "s_prime", "pre_hops")}},
    )


def check_case_b(cfg: Configuration) -> None:
    """Raise GeometryError unless ``cfg``, as ``case_b_certificate``
    returns it, holds every claim of the certificate.

    It reads only the configuration: rows O, P, Q, Z1, Z2 and notes c,
    rho, delta, branch, rad_S and rad_W.  The inequalities come first:
    (rho - delta)^2 <= |OQ|^2 <= rho^2, OQ orthogonal to QP, and
    |PQ|^2 <= 2 rho delta.  Then the named copies: ``c_pairs`` at
    distance c, ``outer_radius`` at rad_S and ``forced_radius`` at
    rad_W.  On the interior branch, last, rho < |OP| < rad_S.
    """
    notes = cfg.notes
    o, p, q = cfg.points[:3]
    rho, delta = notes["rho"], notes["delta"]
    slack = sq_slack(notes["c"] ** 2)
    oq_sq = squared_distance(o, q)
    lo = (rho - delta) ** 2
    hi = rho * rho
    if not (lo - slack <= oq_sq <= hi + slack):
        raise GeometryError(f"|OQ|^2 = {oq_sq} outside [{lo}, {hi}]")
    dot = float(np.dot(q - o, p - q))
    if abs(dot) > math.sqrt(slack) * rho:
        raise GeometryError(f"OQ is not orthogonal to QP: dot = {dot}")
    pq_sq = squared_distance(p, q)
    if pq_sq > 2.0 * rho * delta + slack:
        raise GeometryError(f"|PQ|^2 = {pq_sq} exceeds 2 rho delta")
    pts, copies, pair = cfg.points, cfg.named_copies, SimplexSpec.pair
    check_copies(pts, copies["c_pairs"], pair(notes["c"]).sq_dist, "Z-P/Q pair")
    check_copies(pts, copies["outer_radius"], pair(notes["rad_S"]).sq_dist, "outer-sphere radius")
    check_copies(pts, copies["forced_radius"], pair(notes["rad_W"]).sq_dist, "forced-sphere radius")
    if notes["branch"] != "on_sphere":
        op_sq = squared_distance(o, p)
        if not (hi - slack < op_sq < notes["rad_S"] ** 2 + slack):
            raise GeometryError(f"|OP|^2 = {op_sq} outside (rho^2, rad_S^2)")


def forced_sphere_radius(a: float, b: float, c: float, eps: float) -> float:
    """Radius |OZ| of the sphere swept by the apex over a chord of length c.

    C and D sit on the circle of radius rad_S = sqrt(c^2 - eps^2/4) with
    |CD| = c; Z completes them to the (a, b, c) triangle on the far side
    of the chord from O, and |OZ| depends only on a, b, c, eps.
    """
    rad_s_sq = c * c - (eps * eps) / 4.0
    if rad_s_sq <= (c * c) / 4.0:
        raise ConstraintViolation("chord_fit", "chord c does not fit on the sphere")
    dcd = math.sqrt(rad_s_sq - (c * c) / 4.0)
    zx = (a * a - b * b) / (2.0 * c)
    zy_sq = a * a - (zx + c / 2.0) ** 2
    if zy_sq <= 0.0:
        raise ConstraintViolation("apex_height", "triangle apex has no height over the chord")
    zy = math.sqrt(zy_sq)
    return math.hypot(zx, dcd + zy)


def case_b_certificate(a: float, b: float, c: float, eps: float, rho: float, delta: float) -> Configuration:
    """Concrete two-sphere geometry for the wide-angle regime, rows O, P,
    Q, Z1, Z2 in E^3.

    O is the shared center; Q sits at radius rho - delta, P is reached
    orthogonally from Q, and Z1 (on the outer sphere S, radius rad_S)
    and Z2 (on the inner forced sphere W, radius rad_W) are both at
    distance c from P and Q: the ``c_pairs`` copies.  ``outer_radius``
    holds (O, Z1), and (O, P) when rho equals rad_S (``branch`` note
    ``on_sphere``: P taken on S; else ``interior``: P at the maximal
    orthogonal offset); ``forced_radius`` holds (O, Z2).  Every
    precondition is checked by name before any geometry is built, and
    the result passes ``check_case_b`` before it is returned.
    """
    if not (math.isfinite(rho) and math.isfinite(delta)):
        raise GeometryError(f"rho and delta must be finite, got rho={rho}, delta={delta}")
    inv = triangle_invariants(a, b, c)
    if inv.gamma < 5.0 * math.pi / 6.0:
        raise ConstraintViolation("gamma_min", f"largest angle {inv.gamma} below 5*pi/6")
    if not (0.0 < eps < inv.h):
        raise ConstraintViolation("eps_h", f"eps must lie in (0, h={inv.h})")
    if eps >= c / 2.0:
        raise ConstraintViolation("eps_c_half", f"eps must be below c/2 = {c / 2.0}")
    rad_s = math.sqrt(c * c - (eps * eps) / 4.0)
    rho_floor = math.sqrt(3.0 * c * c / 4.0 - (eps * eps) / 4.0)
    if rho <= rho_floor:
        raise ConstraintViolation("rho_min", f"rho must exceed {rho_floor}")
    slack = math.sqrt(sq_slack(rad_s * rad_s))
    if rho > rad_s + slack:
        raise ConstraintViolation("rho_max", f"rho must not exceed rad_S = {rad_s}")
    rho = min(rho, rad_s)
    if delta <= 0.0:
        raise ConstraintViolation("delta_positive", "delta must be positive")
    if delta >= (c * c - rho * rho) / (2.0 * rho):
        raise ConstraintViolation("delta1", f"delta must be below (c^2 - rho^2)/(2 rho)")
    on_sphere = sq_close(rho * rho, rad_s * rad_s)
    if not on_sphere and delta >= (rad_s * rad_s - rho * rho) / (2.0 * rho):
        raise ConstraintViolation("delta2", "delta must be below (rad_S^2 - rho^2)/(2 rho)")
    if delta >= inv.h * inv.h / (2.0 * rho):
        raise ConstraintViolation("delta3", "delta must be below h^2/(2 rho)")

    rad_w = forced_sphere_radius(a, b, c, eps)

    oq = rho - delta
    q_pt = np.array([oq, 0.0, 0.0])
    if on_sphere:
        pq = math.sqrt(rad_s * rad_s - oq * oq)
        branch = "on_sphere"
    else:
        pq = math.sqrt(2.0 * rho * delta)
        branch = "interior"
    p_pt = np.array([oq, pq, 0.0])

    # The inequality chain guaranteeing both circle intersections.
    mid = ((eps / 2.0) ** 2 + (c / 2.0) ** 2)
    denom = math.sqrt(c * c - rho * delta)
    tol = 1e-12 * c
    if not (mid / denom <= mid / rho + tol and mid / rho <= rho - delta + tol):
        raise ConstraintViolation("ineq_final", "certificate inequality chain failed")

    half_pq_sq = (pq / 2.0) ** 2
    r_c = math.sqrt(c * c - half_pq_sq)

    def _bisector_point(radius: float, name: str) -> np.ndarray:
        # Circle about the projected center meets the circle about the midpoint of PQ.
        r_slice_sq = radius * radius - half_pq_sq
        if r_slice_sq <= 0.0:
            raise ConstraintViolation(name, "sphere does not reach the bisector plane")
        x = (r_slice_sq - r_c * r_c + oq * oq) / (2.0 * oq)
        z_sq = r_slice_sq - x * x
        if z_sq < 0.0:
            raise ConstraintViolation(name, "bisector circles do not intersect")
        return np.array([x, pq / 2.0, math.sqrt(z_sq)])

    z1 = _bisector_point(rad_s, "z1_intersection")
    z2 = _bisector_point(rad_w, "z2_intersection")

    cert = Configuration(
        points=np.vstack([np.zeros(3), p_pt, q_pt, z1, z2]),
        labels=["O", "P", "Q", "Z1", "Z2"],
        named_copies={
            "c_pairs": [(3, 1), (3, 2), (4, 1), (4, 2)],
            "outer_radius": [(0, 3), (0, 1)] if on_sphere else [(0, 3)],
            "forced_radius": [(0, 4)],
        },
        notes={"a": a, "b": b, "c": c, "eps": eps, "rho": rho, "delta": delta, "branch": branch,
               "rad_S": rad_s, "rad_W": rad_w},
    )
    check_case_b(cert)
    return cert
