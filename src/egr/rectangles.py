"""Regular simplices, equilateral arc paths, and orthogonal products.

Three building blocks combine into the product configurations whose
pair census drives the rectangle arguments: ``regular_simplex`` places
n mutually equidistant points, ``path_config`` realizes a polygonal
path with equal edges and a prescribed endpoint gap on a circular arc,
and ``product_config`` forms the orthogonal Cartesian product, whose
squared distances add across the factors by construction.  The
census ``count_distance_pairs`` enumerates every pair at the long
distance in such a product and checks the closed-form count
(m+1)*C(3m+1,2) + (3m+1); a pair that is neither a within-fiber pair
nor a path-endpoint pair means the side lengths were not generic, and
the census aborts rather than return a misleading number.
``census_verdict`` gives the proven verdict of the coloring problem on
such a product, which the tests check against the solver.

``regular_simplex`` declares its vertex transpositions in
``notes["symmetry"]`` as full point-index images, and ``product_config``
lifts each factor's declared images to the product; ``solve_gr`` breaks
the symmetries that keep a problem's targets.  The path declares none:
its reversal would merge the first and last fibers into one orbit of the
search order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Configuration,
    GeometryError,
    SimplexSpec,
    as_index,
    bisect,
    check_copies,
    check_entries,
    embed_from_distances,
    enumerate_copies,
)
from .solver import COUNTEREXAMPLE, FORCED, declared_symmetry

# A builder declares no symmetry when its images would hold more point
# indices than this; declaring fewer generators is always sound.
SYMMETRY_ENTRIES = 1 << 18


def regular_simplex(n: int, x: float) -> Configuration:
    """n points in E^{n-1} with all pairwise distances equal to x."""
    n = as_index(n, "simplex point count n")
    if n < 2:
        raise GeometryError(f"regular simplex needs at least 2 points, got {n}")
    if not 0.0 < x < math.inf:
        raise GeometryError(f"side length must be positive and finite, got {x}")
    pts = embed_from_distances(SimplexSpec.regular(n, x))
    notes = {"kind": "regular_simplex", "n": n, "side": x}
    if math.comb(n, 2) * n <= SYMMETRY_ENTRIES:
        notes["symmetry"] = []
        for a, b in itertools.combinations(range(n), 2):
            img = list(range(n))
            img[a], img[b] = b, a
            notes["symmetry"].append(img)
    return Configuration(points=pts, labels=[f"u{i}" for i in range(n)], notes=notes)


@dataclass(frozen=True)
class PathConfig:
    """Equilateral path on a circular arc.

    t+1 coplanar points with consecutive distances y and endpoint
    distance x; ``radius`` and ``step_angle`` describe the arc.
    """

    t: int
    x: float
    y: float
    points: np.ndarray
    radius: float
    step_angle: float

    def verify(self) -> None:
        y2, x2 = self.y * self.y, self.x * self.x
        edges = [(i, i + 1) for i in range(self.t)]
        check_copies(self.points, edges, [[0.0, y2], [y2, 0.0]], "edge")
        check_copies(self.points, [(0, self.t)], [[0.0, x2], [x2, 0.0]], "endpoint gap")

    def as_configuration(self) -> Configuration:
        return Configuration(
            points=self.points,
            labels=[f"v{i}" for i in range(self.t + 1)],
            named_copies={
                "endpoint_pair": [(0, self.t)],
                "edges": [(i, i + 1) for i in range(self.t)],
            },
            notes={
                "kind": "arc_path",
                "t": self.t,
                "x": self.x,
                "y": self.y,
                "radius": self.radius,
                "step_angle": self.step_angle,
            },
        )


def _arc_span(alpha: float, t: int, y: float) -> float:
    """Endpoint chord of t equal chords y at central step alpha."""
    return y * math.sin(t * alpha / 2.0) / math.sin(alpha / 2.0)


def fewest_edges(x: float, y: float) -> int:
    """The least t >= 2 with x < t*y (in floating point): the fewest edges
    of length y whose path can end x apart."""
    if not math.isfinite(x / y):
        raise GeometryError(f"lengths x={x} and y={y} have no finite ratio x/y")
    t = max(2, math.ceil(x / y))
    while x >= t * y:
        t += 1
    return t


def path_config(t: int, x: float, y: float) -> PathConfig:
    """Path of t edges of length y on an arc, endpoints x apart.

    The step angle solves span(alpha) = x by ``bisect`` to neighbouring
    doubles; span is strictly decreasing on (0, 2*pi/t), from the
    straight-line limit t*y to 0, so a root exists exactly when 0 < x < t*y,
    that is when t is at least ``fewest_edges(x, y)``.
    """
    t = as_index(t, "path edge count t")
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise GeometryError(f"lengths must be positive and finite, got x={x}, y={y}")
    fewest = fewest_edges(x, y)
    if t < fewest:
        raise GeometryError(f"endpoint gap {x} needs at least {fewest} edges of length {y}, got t={t}")
    check_entries(f"path of {t + 1} points x 2 axes", (t + 1) * 2)

    lo, hi = 1e-12, 2.0 * math.pi / t - 1e-12
    if _arc_span(lo, t, y) < x or _arc_span(hi, t, y) > x:
        raise GeometryError("arc span does not bracket the requested endpoint gap")
    lo, hi = bisect(lambda alpha: _arc_span(alpha, t, y) > x, lo, hi, 0.0)
    alpha = 0.5 * (lo + hi)
    radius = y / (2.0 * math.sin(alpha / 2.0))

    raw = np.array(
        [[radius * math.cos(i * alpha), radius * math.sin(i * alpha)] for i in range(t + 1)]
    )
    # Canonical frame: first point at the origin, last on the positive
    # first axis, interior points in the upper half plane.
    shifted = raw - raw[0]
    span = shifted[t]
    norm = math.hypot(span[0], span[1])
    cos_r, sin_r = span[0] / norm, span[1] / norm
    rot = np.array([[cos_r, sin_r], [-sin_r, cos_r]])
    pts = shifted @ rot.T
    if t >= 2 and pts[1][1] < 0.0:
        pts[:, 1] = -pts[:, 1]
    pts[0] = 0.0
    pts[t][1] = 0.0

    path = PathConfig(t=t, x=x, y=y, points=pts, radius=radius, step_angle=alpha)
    path.verify()
    return path


@dataclass(frozen=True)
class ProductConfig:
    """Orthogonal product of two configurations.

    Point (i, j) of the product concatenates left point i with right
    point j and sits at flat index i*|right| + j, so squared distances
    add across the factors by construction, and the lifted copies of
    each factor hold wherever they held in the factor.  Each factor's
    declared symmetry images act on its own index with the other index
    fixed.
    """

    left: Configuration
    right: Configuration
    product: Configuration


def product_config(left: Configuration, right: Configuration) -> ProductConfig:
    """Cartesian product with concatenated coordinates."""
    n_l, n_r = len(left.points), len(right.points)
    dim = left.points.shape[1] + right.points.shape[1]
    check_entries(f"product of {n_l * n_r} points x {dim} axes", n_l * n_r * dim)
    pts = np.hstack([np.repeat(left.points, n_r, axis=0), np.tile(right.points, (n_l, 1))])

    def lab(cfg, side, idx):
        return cfg.labels[idx] if cfg.labels else f"{side}{idx}"

    labels = [f"{lab(left, 'l', i)}|{lab(right, 'r', j)}" for i in range(n_l) for j in range(n_r)]

    copies: dict[str, list[tuple[int, ...]]] = {
        "fibers": [tuple(i * n_r + j for i in range(n_l)) for j in range(n_r)]
    }
    for name, tuples in left.named_copies.items():
        copies[f"left_{name}"] = [
            tuple(i * n_r + j for i in tpl) for j in range(n_r) for tpl in tuples
        ]
    for name, tuples in right.named_copies.items():
        copies[f"right_{name}"] = [
            tuple(i * n_r + j for j in tpl) for i in range(n_l) for tpl in tuples
        ]

    notes = {"kind": "product", "left_size": n_l, "right_size": n_r}
    on_left, on_right = declared_symmetry(left), declared_symmetry(right)
    count = len(on_left) + len(on_right)
    if count and count * n_l * n_r <= SYMMETRY_ENTRIES:
        notes["symmetry"] = [[g[i] * n_r + j for i in range(n_l) for j in range(n_r)] for g in on_left]
        notes["symmetry"] += [[i * n_r + g[j] for i in range(n_l) for j in range(n_r)] for g in on_right]
    prod = Configuration(points=pts, labels=labels, named_copies=copies, notes=notes)
    return ProductConfig(left=left, right=right, product=prod)


def _census_classify(
    cfg: Configuration, n_right: int, endpoint_j: int, x: float
) -> tuple[int, int]:
    """Classify every pair at distance x in a product configuration.

    Returns (fiber, endpoint) counts.  Fiber pairs share the right
    factor; endpoint pairs share the left factor and join the two path
    endpoints.  Anything else is a coincidence the census cannot
    attribute, so it aborts.
    """
    fiber = endpoint = 0
    for p, q in enumerate_copies(cfg, SimplexSpec.pair(x)):
        li, ri = divmod(p, n_right)
        lj, rj = divmod(q, n_right)
        if ri == rj and li != lj:
            fiber += 1
        elif li == lj and {ri, rj} == {0, endpoint_j}:
            endpoint += 1
        else:
            raise GeometryError(
                f"pair ({p}, {q}) at distance {x} is neither fiber nor endpoint type; "
                "side lengths are not generic"
            )
    return fiber, endpoint


def count_distance_pairs(m: int, x: float, y: float) -> dict[str, int]:
    """Census of distance-x pairs in S_{3m+1}(x) x B_m(x, y).

    Every such pair is either a within-fiber simplex pair, one of
    (m+1)*C(3m+1, 2), or a path-endpoint pair over a fixed simplex
    point, one of 3m+1.  The enumerated total must match the closed
    form q = (m+1)*C(3m+1, 2) + (3m+1).  The path takes the fewest
    edges ``path_config`` can build, m = ``fewest_edges(x, y)``.
    """
    m = as_index(m, "census m")
    if not x > y > 0.0:
        raise GeometryError(f"census needs x > y > 0, got x={x}, y={y}")
    fewest = fewest_edges(x, y)
    if m != fewest:
        raise GeometryError(f"m={m} is not fewest_edges(x, y) = {fewest}")

    n = 3 * m + 1
    simplex = regular_simplex(n, x)
    path = path_config(m, x, y).as_configuration()
    prod = product_config(simplex, path)
    fiber, endpoint = _census_classify(prod.product, m + 1, m, x)

    formula_q = (m + 1) * math.comb(n, 2) + n
    enumerated = fiber + endpoint
    if enumerated != formula_q:
        raise GeometryError(
            f"census mismatch: enumerated {enumerated} pairs, closed form gives {formula_q}"
        )
    return {
        "enumerated": enumerated,
        "formula_q": formula_q,
        "fiber_pairs": fiber,
        "endpoint_pairs": endpoint,
    }


def census_verdict(m: int, s: int, r: int) -> str:
    """Closed-form verdict of the census coloring problem (m, s, r).

    The census is S_s(x) x B_m(x, y) with r colors, for x > y generic:
    point (a, i) is simplex position a in fiber i = 0..m.  Its mono
    targets are the distance-x pairs, the m+1 fiber cliques K_s plus
    the s endpoint pairs ((a, 0), (a, m)); its rainbow targets are the
    x-by-y rectangles (a, i), (b, i), (b, i+1), (a, i+1) between
    consecutive fibers.  The verdict is FORCED exactly when r < s or
    s > 3m:

    - If r < s, a fiber's K_s holds two points of one color.
    - If r >= s, each fiber coloring c_i that avoids its mono pairs is
      injective.  Let position a change color from fiber i to i+1.  The
      rectangle (a, b) avoids rainbow only if c_{i+1}(a) = c_i(b) or
      c_{i+1}(b) is c_i(a) or c_i(b).  By injectivity at most one b has
      c_i(b) = c_{i+1}(a) and at most one has c_{i+1}(b) = c_i(a); every
      other b keeps its color.  So one step changes at most 3 positions,
      m steps at most 3m, and the endpoint pairs need all s positions
      changed: impossible when s > 3m.
    - If 2 <= s <= 3m and r >= s, split the positions into at most m
      blocks of 2 or 3 and let step i rotate the colors of block i,
      starting from an injective fiber 0.  Each rectangle then repeats
      a color, each fiber stays injective, and each position ends on a
      color it did not start with: a COUNTEREXAMPLE.
    """
    m, s, r = as_index(m, "census m"), as_index(s, "census s"), as_index(r, "color count")
    if m < 1 or s < 2 or r < 1:
        raise ValueError(f"census needs m >= 1, s >= 2 and r >= 1, got ({m}, {s}, {r})")
    return FORCED if r < s or s > 3 * m else COUNTEREXAMPLE
