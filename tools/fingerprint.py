"""Print a fingerprint of the program's observable behaviour.

Run from anywhere in a source checkout:

    python tools/fingerprint.py > fingerprint.txt

Two checkouts behave the same on what it covers when their outputs are
equal, so a change meant to keep behaviour is checked by running this
on both sides and diffing the outputs.  It prints, one line each:

- the SHA-256 of the artifact written by each of 14 ``construct`` runs
  of the command line at or near their defaults, and of 14 more of
  ``hinge``, ``dense-quad``, ``five-point``, ``grid``, ``chain`` and
  ``contract`` at other inputs (three hinge angles up to 2*theta, a
  non-regular ``--spec`` that meets the dense-quadruple condition,
  three seeded obtuse triples, grids over a tetrahedron at m = 7, a
  segment and the non-regular spec, an antipodal and an E^4 chain, a
  contracted triangle), with the exit code of each;
- a digest of the verdict, node count, witness and static search order
  of each census coloring problem S_s(1.5) x B_m(1.5, 1.0) with r
  colors, for m >= 2, (m+1)*s <= 21 and r <= s+3 (126 cases), with the
  declared symmetry and with it removed;
- one digest of the same over 1,000 seeded random problems (n <= 8
  points, r <= 4 colors), half of them closed under a declared
  permutation;
- one digest of the same over three seeded planted problems (60 points,
  400 mono and 400 rainbow triples that a hidden balanced 3-coloring
  avoids), and one for the anchor gadget's tetra problem (1,513 points,
  its distinct tetra copies as mono and rainbow targets, r = 4), so the
  search is checked past n <= 8 on the shapes its propagators and
  variable order are tuned for;
- the count and digest of the copies ``enumerate_copies`` lists for
  each of the four specs of the copies scan (a pair, a rectangle, a
  triangle and a tetrahedron) in a seeded 200-point product, a 6-point
  spec in the 8^3 integer lattice and the regular tetrahedron in the
  anchor gadget, and for two specs the Gram form of
  ``pairwise_sq_dists`` rounds (equal distances a bit apart): the
  1.0 x 0.6 rectangle in a 3x3x2 grid and the regular tetrahedron in the
  anchor gadget;
- bit digests of ``path_config``, ``eps_max`` and ``chain_on_sphere``
  on seeded inputs, refusals included, and of the chord ``ell`` of
  ``perturbed_chord`` on 200 seeded obtuse triples and eps;
- the SHA-256 of the point bits, copy lists and notes of six case B
  certificates (P on the outer sphere and P inside it, at scales 1,
  2^-40 and 2^16; only the six input notes are read) and of the two
  E^4 sphere witnesses of the tests (generic and antipodal endpoints).

It imports ``egr`` from this checkout's ``src`` and the planted problems
from ``tests/helpers.py``, uses only the standard library and numpy, and
takes about 3 s on a 2-vCPU VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from egr.cli import main  # noqa: E402
from egr.geometry import (  # noqa: E402
    Configuration,
    GeometryError,
    SimplexSpec,
    embed_from_distances,
    enumerate_copies,
    pairwise_sq_dists,
)
from egr.perturbation import eps_max  # noqa: E402
from egr.rectangles import path_config, product_config, regular_simplex  # noqa: E402
from egr.solver import BudgetExceeded, ColoringProblem, _orbit_order, solve_gr  # noqa: E402
from egr.tetra import build_anchor_gadget, tetra_profile  # noqa: E402
from egr.triangles import (  # noqa: E402
    case_b_certificate,
    chain_on_sphere,
    mono_sphere_witness,
    perturbed_chord,
    triangle_invariants,
)
from helpers import planted_problem  # noqa: E402

CONSTRUCTS = [
    ["x1"],
    ["link", "--offset", "30"],
    ["anchor-gadget"],
    ["anchor-gadget", "--k", "2"],
    ["product", "--n", "10", "--x", "1.0", "--t", "19", "--y", "0.6"],
    ["path", "--t", "19", "--x", "1.0", "--y", "0.6"],
    ["regular-simplex", "--n", "10", "--x", "1.5"],
    ["grid", "--eps", "0.6"],
    ["grid", "--regular-k", "4", "--m", "3", "--eps", "0.5"],
    ["contract", "--eps", "0.1"],
    ["hinge"],
    ["dense-quad"],
    ["chain", "--s", "1.0", "--d", "0.4", "--gap", "1.2"],
    ["five-point", "--a", "0.5", "--b", "1.0", "--c", "1.2", "--eps", "0.05"],
]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# A tetrahedron with no symmetry whose largest height exceeds its
# smallest face circumradius, so it has a dense quadruple.
SKEW = SimplexSpec(
    np.array(
        [
            [0.0, 1.0, 1.21, 1.44],
            [1.0, 0.0, 1.69, 1.0],
            [1.21, 1.69, 0.0, 1.1],
            [1.44, 1.0, 1.1, 0.0],
        ]
    )
)


def obtuse_draw(rng) -> tuple:
    """A seeded obtuse triple a <= b <= c and an eps in (0.05 h, 0.95 h)."""
    a, b = sorted(float(v) for v in rng.uniform(0.3, 4.0, size=2))
    c = float(rng.uniform(math.hypot(a, b) + 1e-3, a + b - 1e-3))
    return a, b, c, float(rng.uniform(0.05, 0.95)) * triangle_invariants(a, b, c).h


def varied_constructs(tmp: str) -> list:
    """Runs of the hinge, dense-quad, five-point, grid, chain and
    contract builders away from their defaults; the skew spec is written
    into ``tmp``."""
    two_theta = 2.0 * tetra_profile(SimplexSpec.regular(4, 1.0)).theta
    runs = [["hinge", "--phi", repr(phi)] for phi in (0.05, 1.0, two_theta)]
    spec = os.path.join(tmp, "skew.json")
    SKEW.save(spec)
    runs += [["hinge", "--spec", spec], ["dense-quad", "--spec", spec]]
    rng = np.random.default_rng(25)
    while len(runs) < 8:
        *sides, eps = obtuse_draw(rng)
        runs.append(["five-point", *(f"--{k}={v!r}" for k, v in zip("abc", sides)), f"--eps={eps!r}"])
    runs += [
        ["grid", "--regular-k", "4", "--m", "7", "--eps", "0.2"],
        ["grid", "--regular-k", "2", "--m", "3", "--eps", "0.4"],
        ["grid", "--spec", spec, "--m", "3", "--eps", "0.5"],
        ["chain", "--s", "1.0", "--d", "0.4", "--gap", "2.0"],
        ["chain", "--s", "1.0", "--d", "0.4", "--gap", "1.2", "--dim", "4"],
        ["contract", "--regular-k", "3", "--eps", "0.3"],
    ]
    return runs


def artifacts() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(CONSTRUCTS + varied_constructs(tmp)):
            out = os.path.join(tmp, f"{i}.json")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(["construct", *args, "-o", out])
                except SystemExit as exit:  # refused by the argument parser
                    code = exit.code
            sha = hashlib.sha256(Path(out).read_bytes()).hexdigest() if code == 0 else "-"
            shown = [os.path.basename(arg) if arg.startswith(tmp) else arg for arg in args]
            print(f"construct {' '.join(shown)}: exit {code} sha256 {sha}")


def search_digest(problem: ColoringProblem) -> str:
    n = len(problem.cfg.points)
    order = _orbit_order(problem.generators, n) if problem.generators else None
    try:
        out = solve_gr(problem, budget=30.0)
    except BudgetExceeded:
        return digest("budget", order)
    return digest(out.verdict, out.stats.nodes, out.witness, order)


def census() -> None:
    for m in range(2, 10):
        for s in range(2, 21 // (m + 1) + 1):
            simplex = regular_simplex(s, 1.5)
            path = path_config(m, 1.5, 1.0).as_configuration()
            cfg = product_config(simplex, path).product
            mono = enumerate_copies(cfg, SimplexSpec.pair(1.5))
            rainbow = enumerate_copies(cfg, SimplexSpec.rectangle(1.5, 1.0))
            bare = Configuration(points=cfg.points)
            for r in range(1, s + 4):
                line = [
                    search_digest(ColoringProblem(cfg=c, mono_targets=mono, rainbow_targets=rainbow, r=r))
                    for c in (cfg, bare)
                ]
                print(f"census m={m} s={s} r={r}: declared {line[0]} removed {line[1]}")


def random_problem(rng) -> ColoringProblem:
    n = int(rng.integers(2, 9))
    r = int(rng.integers(1, 5))
    kinds = []
    for _ in range(2):
        size = int(rng.integers(0, 2 * n))
        kinds.append(
            [tuple(int(i) for i in rng.choice(n, int(rng.integers(2, min(n, 4) + 1)), replace=False)) for _ in range(size)]
        )
    notes = {}
    if rng.random() < 0.5:
        img = [int(i) for i in rng.permutation(n)]
        # Close each target set under the powers of the permutation.
        for ts in kinds:
            for t in list(ts):
                moved = tuple(img[i] for i in t)
                while sorted(moved) != sorted(t):
                    ts.append(moved)
                    moved = tuple(img[i] for i in moved)
        notes["symmetry"] = [img]
    cfg = Configuration(points=np.arange(n, dtype=float)[:, None], notes=notes)
    return ColoringProblem(cfg=cfg, mono_targets=kinds[0], rainbow_targets=kinds[1], r=r)


def random_problems() -> None:
    rng = np.random.default_rng(2024)
    lines = [search_digest(random_problem(rng)) for _ in range(1000)]
    print(f"random problems x1000: {digest(lines)}")


def search_shapes() -> None:
    lines = [search_digest(planted_problem(seed)) for seed in (1, 2, 3)]
    print(f"planted problems x3: {digest(lines)}")
    cfg = build_anchor_gadget(tetra_profile(SimplexSpec.regular(4, 1.0))).cfg
    tetras = sorted({tuple(sorted(t)) for t in cfg.named_copies["tetra"]})
    problem = ColoringProblem(cfg=cfg, mono_targets=tetras, rainbow_targets=tetras, r=4)
    print(f"anchor tetra problem: {search_digest(problem)}")


def copies() -> None:
    simplex = regular_simplex(10, 1.0)
    path = path_config(19, 1.0, 0.6).as_configuration()
    points = product_config(simplex, path).product.points
    product = Configuration(points=points[np.random.default_rng(0).permutation(len(points))])
    specs = {
        "pair": SimplexSpec.pair(1.0),
        "rectangle": SimplexSpec.rectangle(1.0, 0.6),
        "triangle": SimplexSpec.regular(3, 1.0),
        "tetrahedron": SimplexSpec.regular(4, 1.0),
    }
    cases = [(f"product {name}", product, spec) for name, spec in specs.items()]
    lattice = Configuration(points=np.array(list(itertools.product(range(8), repeat=3)), dtype=float))
    corners = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 3], [1, 1, 1], [2, 1, 0]], dtype=float)
    cases.append(("lattice 8^3 six-point", lattice, SimplexSpec.from_points(corners)))
    regular = SimplexSpec.regular(4, 1.0)
    anchor = build_anchor_gadget(tetra_profile(regular)).cfg
    cases.append(("anchor tetrahedron", anchor, regular))
    grid = Configuration(points=np.array(list(itertools.product([0.0, 1.0, 2.0], [0.0, 0.6, 1.2], [0.0, 1.0]))))
    rectangle = SimplexSpec(pairwise_sq_dists(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.6], [1.0, 0.6]])))
    cases.append(("grid 3x3x2 rounded rectangle", grid, rectangle))
    cases.append(("anchor rounded tetrahedron", anchor, SimplexSpec(pairwise_sq_dists(embed_from_distances(regular)))))
    for name, cfg, spec in cases:
        found = enumerate_copies(cfg, spec)
        print(f"copies {name}: {len(found)} {digest(found)}")


def guarded(fn, *args):
    try:
        return fn(*args)
    except GeometryError as err:
        return type(err).__name__


def kernels() -> None:
    rng = np.random.default_rng(7)
    rows = []
    pairs = [(float(k), 1.0) for k in range(1, 8)] + [(float(k) * 0.6, 0.6) for k in range(1, 8)]
    pairs += [(float(x), float(y)) for x, y in rng.uniform(0.1, 3.0, size=(60, 2))]
    for x, y in pairs:
        for t in range(2, 12):
            path = guarded(path_config, t, x, y)
            rows.append(path if isinstance(path, str) else (path.points.tobytes(), path.radius, path.step_angle))
    print(f"path_config x{len(rows)}: {digest(rows)}")

    rows = []
    for k in (2, 3, 4, 5):
        for _ in range(15):
            pts = rng.uniform(-1.0, 1.0, size=(k, k - 1))
            rows.append(guarded(eps_max, SimplexSpec(pairwise_sq_dists(pts))))
    print(f"eps_max x{len(rows)}: {digest(rows)}")

    rows = []
    for _ in range(40):
        s, d = rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.6)
        alpha = rng.uniform(0.05, math.pi)
        u = np.array([s, 0.0, 0.0])
        v = np.array([s * math.cos(alpha), s * math.sin(alpha), 0.0])
        chain = guarded(chain_on_sphere, np.zeros(3), s, u, v, d)
        if not isinstance(chain, str):
            chain = (chain.points.tobytes(), *(chain.notes[key] for key in ("k", "s_prime", "pre_hops")))
        rows.append(chain)
    print(f"chain_on_sphere x{len(rows)}: {digest(rows)}")

    rng = np.random.default_rng(11)
    rows = [perturbed_chord(*obtuse_draw(rng)) for _ in range(200)]
    print(f"perturbed_chord ell x{len(rows)}: {digest(np.array(rows))}")


def config_sha(cfg: Configuration, note_keys) -> str:
    h = hashlib.sha256(cfg.points.tobytes())
    h.update(repr((sorted(cfg.named_copies.items()), [(key, cfg.notes[key]) for key in note_keys])).encode())
    return h.hexdigest()


def certificates() -> None:
    for lam in (1.0, 2.0**-40, 2.0**16):
        a, b, c, eps = (lam * v for v in (1.0, 1.0, 1.95, 0.4))
        rad_s = math.sqrt(c * c - eps * eps / 4.0)
        for where, rho, delta in (("on S", rad_s, 1e-3 * lam), ("inside S", 0.99 * rad_s, 1e-4 * lam)):
            cert = case_b_certificate(a, b, c, eps, rho, delta)
            sha = config_sha(cert, ("a", "b", "c", "eps", "rho", "delta"))
            print(f"case_b scale {lam!r} P {where}: sha256 {sha}")
    r = math.sqrt(8.75)
    for name, v in (("generic", [0.0, 0.0, r, 0.0]), ("antipodal", [0.0, -r, 0.0, 0.0])):
        witness = mono_sphere_witness(2.0, 2.0, 3.0, 1.0, [0.0, r, 0.0, 0.0], v)
        print(f"mono_sphere_witness {name}: sha256 {config_sha(witness, sorted(witness.notes))}")


def run() -> None:
    artifacts()
    census()
    random_problems()
    search_shapes()
    copies()
    kernels()
    certificates()


if __name__ == "__main__":
    run()
