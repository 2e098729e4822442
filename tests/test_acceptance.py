"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its elapsed time; a failed
assertion leaves the usual FAIL line from the runner instead.  Runtime
bounds are asserted, so a regression in speed fails the suite too.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from helpers import census_problem, check_sphere_chain, random_obtuse, random_spec, square_problem

from egr.cli import main
from egr.geometry import (
    Configuration,
    ConstraintViolation,
    SimplexSpec,
    congruence_check,
    embed_from_distances,
    pairwise_sq_dists,
    write_json_atomic,
)
from egr.palettes import (
    MONO,
    RAINBOW,
    TYPE_A,
    TYPE_B,
    classification_scan,
    classify_quadruple,
    hall_violating_subset,
    has_sdr,
)
from egr.perturbation import (
    build_perturbation_grid,
    contract_simplex,
    coordinate_lift,
    eps_max,
    is_connected,
    lifted_base_copy,
)
from egr.rectangles import count_distance_pairs
from egr.solver import (
    COUNTEREXAMPLE,
    ColoringProblem,
    FORCED,
    exhaustive_oracle,
    five_point_logic_scan,
    solve_gr,
    verify_coloring,
)
from egr.tetra import dense_quadruple, glue_two_copies, tetra_profile
from egr.triangles import (
    build_five_point,
    chain_angle_defect,
    chain_on_sphere,
    five_point_sq,
    perturbed_chord,
    triangle_invariants,
)


def _finish(num, name, started, bound):
    elapsed = time.perf_counter() - started
    print(f"criterion {num:02d} {name}: PASS in {elapsed:.2f}s (bound {bound:g}s)")
    assert elapsed < bound, f"criterion {num} exceeded its {bound}s runtime bound"


def isosceles_tetra(t):
    base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0]])
    apex = np.array([0.5, math.sqrt(3.0) / 6.0, t])
    return SimplexSpec.from_points(np.vstack([base, apex]))


def test_criterion_01_formula_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a, b, c = random_obtuse(rng)
        inv = triangle_invariants(a, b, c)
        assert inv.obtuse
        assert inv.h < 2.0 * b
        eps = rng.uniform(1e-6, inv.h * (1.0 - 1e-9))
        ell = perturbed_chord(a, b, c, eps)
        bound = 2.0 * math.sqrt(c * c - (eps / 2.0) ** 2)
        gap_sq = (b * b + c * c - a * a - eps * eps / 2.0) ** 2 / (b * b - eps * eps / 4.0)
        assert abs(bound * bound - ell * ell - gap_sq) <= 1e-12 * bound * bound
        assert ell < bound
    assert triangle_invariants(2.0, 2.0, 3.0).Delta == 63.0
    _finish(1, "formula suite", started, 1.0)


def test_criterion_02_five_point_gadget():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b, c = random_obtuse(rng)
        inv = triangle_invariants(a, b, c)
        eps = rng.uniform(0.05 * inv.h, 0.95 * inv.h)
        g = build_five_point(a, b, c, eps)
        want = five_point_sq(a, b, c, eps, g.notes["ell"])
        assert np.abs(pairwise_sq_dists(g.points) - want).max() <= 1e-9 * c * c
    for r in (3, 4, 5):
        assert five_point_logic_scan(r)["violations"] == 0
    _finish(2, "five-point gadget", started, 5.0)


def test_criterion_03_sphere_chains():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    built = 0
    while built < 100:
        dim = int(rng.integers(3, 5))
        s = rng.uniform(0.5, 3.0)
        u = rng.standard_normal(dim)
        u = s * u / np.linalg.norm(u)
        v = rng.standard_normal(dim)
        v = s * v / np.linalg.norm(v)
        if np.linalg.norm(u - v) < 1e-3 or np.linalg.norm(u + v) > 2.0 * s - 1e-3:
            continue
        d = rng.uniform(0.1, 1.8) * s
        chain = chain_on_sphere(np.zeros(dim), s, u, v, d)
        check_sphere_chain(chain, np.zeros(dim))
        assert chain_angle_defect(chain) < 1e-10
        built += 1
    _finish(3, "sphere chains", started, 5.0)


def test_criterion_04_rectangle_census():
    started = time.perf_counter()
    for m, x, y, expected in ((2, 1.5, 1.0, 70), (3, 2.5, 1.0, 190)):
        census = count_distance_pairs(m, x, y)
        q = (m + 1) * math.comb(3 * m + 1, 2) + (3 * m + 1)
        assert q == expected
        assert census["formula_q"] == expected
        assert census["enumerated"] == expected
    _finish(4, "rectangle census", started, 1.0)


def _contains_clique(targets, size):
    adj = {}
    for i, j in targets:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    for v, nbrs in adj.items():
        for combo in itertools.combinations(sorted(nbrs), size - 1):
            if all(y in adj[x] for x, y in itertools.combinations(combo, 2)):
                return True
    return False


def test_criterion_05_census_instance_forced():
    started = time.perf_counter()
    for r in (4, 7):
        problem = census_problem(2, 7, r)
        out = solve_gr(problem, budget=300.0)
        assert out.verdict == FORCED
        assert out.witness is None
    # Independent cross-check at r=4: the pair targets contain a clique
    # on more than r points, so some pair is monochromatic outright.
    pairs = [t for t in census_problem(2, 7, 4).mono_targets if len(t) == 2]
    assert _contains_clique(pairs, 5)
    _finish(5, "distance-pair instance forced", started, 300.0)


def test_criterion_06_solver_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(424242)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        r = int(rng.integers(2, 4))
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        cfg = Configuration(points=pts)
        mono = [
            tuple(rng.choice(n, size=int(rng.integers(2, 4)), replace=False))
            for _ in range(int(rng.integers(1, 6)))
        ]
        rainbow = [
            tuple(rng.choice(n, size=int(rng.integers(2, min(n, 4) + 1)), replace=False))
            for _ in range(int(rng.integers(0, 4)))
        ]
        p = ColoringProblem(cfg=cfg, mono_targets=mono, rainbow_targets=rainbow, r=r)
        assert p.r ** len(p.cfg.points) <= 10**7
        got = solve_gr(p)
        want = exhaustive_oracle(p)
        assert got.verdict == want.verdict
        if got.verdict == COUNTEREXAMPLE:
            assert verify_coloring(p, got.witness)["clean"]
    _finish(6, "solver soundness", started, 120.0)


def test_criterion_07_perturbation_round_trip():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        spec = random_spec(rng, k)
        em = eps_max(spec)
        contract_simplex(spec, 0.999 * em)
        with pytest.raises(ConstraintViolation):
            contract_simplex(spec, 1.001 * em)
        eps = rng.uniform(0.1, 0.9) * em
        out = contract_simplex(spec, eps)
        lifted = out.sq_dist + 2.0 * eps * eps
        np.fill_diagonal(lifted, 0.0)
        assert np.abs(lifted - spec.sq_dist).max() <= 1e-12
        pts = coordinate_lift(embed_from_distances(out), eps)
        back = pairwise_sq_dists(pts)
        assert np.abs(back - spec.sq_dist).max() <= 1e-9 * spec.sq_dist.max() + 1e-12
    _finish(7, "perturbation round trip", started, 5.0)


def test_criterion_08_perturbation_grid():
    started = time.perf_counter()
    for spec in (SimplexSpec.pair(1.0), SimplexSpec.regular(3, 1.0)):
        k = spec.k
        grid = build_perturbation_grid(spec, [2] * (k - 1), 0.6)
        assert is_connected(grid.points, 0.6)
        direction = [1.0] + [0.0] * (k - 2)
        cfg = lifted_base_copy(grid, direction)
        original = embed_from_distances(spec)
        padded = np.pad(original, ((0, 0), (0, cfg.points.shape[1] - original.shape[1])))
        assert congruence_check(cfg.points, padded) is not None
    _finish(8, "perturbation grid", started, 1.0)


def test_criterion_09_tetra_suite():
    started = time.perf_counter()
    spec = SimplexSpec.regular(4, 1.0)
    prof = tetra_profile(spec)
    assert abs(prof.H_max - math.sqrt(2.0 / 3.0)) <= 1e-12
    assert abs(prof.rho_min - 1.0 / math.sqrt(3.0)) <= 1e-12
    assert abs(math.cos(2.0 * prof.theta) + 1.0 / 3.0) <= 1e-12

    rng = np.random.default_rng(3)
    for _ in range(100):
        phi = rng.uniform(1e-3, 2.0 * prof.theta)
        pts = glue_two_copies(prof, phi).points
        u, v = pts[0] - pts[1], pts[4] - pts[1]
        cos_phi = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        assert abs(math.acos(min(1.0, max(-1.0, cos_phi))) - phi) < 1e-9

    quad = dense_quadruple(prof)
    reference = embed_from_distances(spec)
    assert len(quad.named_copies["tetra"]) == 4
    for tup in quad.named_copies["tetra"]:
        assert congruence_check(quad.points[list(tup)], reference) is not None

    heights = np.linspace(0.05, 0.4, 10)
    family = [(isosceles_tetra(float(t)), tetra_profile(isosceles_tetra(float(t)))) for t in heights]
    flags = [p.condition_flag for _, p in family]
    assert flags == [False] * 5 + [True] * 5
    for member_spec, p in family:
        if p.condition_flag:
            member_ref = embed_from_distances(member_spec)
            member_quad = dense_quadruple(p)
            for tup in member_quad.named_copies["tetra"]:
                assert congruence_check(member_quad.points[list(tup)], member_ref) is not None
        else:
            with pytest.raises(ConstraintViolation) as err:
                dense_quadruple(p)
            assert err.value.name == "condition"
    _finish(9, "tetra suite", started, 10.0)


def _replay_normal_form(quadruple):
    qc = classify_quadruple(*quadruple)
    if qc.kind == MONO:
        assert all(qc.common in s for s in quadruple)
    elif qc.kind == RAINBOW:
        assert len(set(qc.sdr)) == 4
        assert all(color in s for color, s in zip(qc.sdr, quadruple))
    else:
        nf = qc.normal_form(*quadruple)
        if qc.kind == TYPE_A:
            assert nf[0] == {1, 2} and nf[1] == {2, 3} and nf[2] == {1, 3}
            assert nf[3] <= {1, 2, 3}
        else:
            assert nf[0] == nf[1] == nf[2] == frozenset({1, 2})
            assert {3, 4} <= nf[3] and not nf[3] & {1, 2}
    return qc.kind


def test_criterion_10_palette_suite():
    started = time.perf_counter()
    for r in (3, 4, 5):
        assert classification_scan(r)["unclassifiable"] == 0

    pool3 = [frozenset(s) for n in (2, 3) for s in itertools.combinations((1, 2, 3), n)]
    for quadruple in itertools.product(pool3, repeat=4):
        _replay_normal_form(quadruple)
    pool5 = [
        frozenset(s)
        for n in range(2, 6)
        for s in itertools.combinations((1, 2, 3, 4, 5), n)
    ]
    rng = np.random.default_rng(4)
    for _ in range(200):
        quadruple = tuple(pool5[i] for i in rng.integers(0, len(pool5), size=4))
        _replay_normal_form(quadruple)

    families = 0
    blocked = 0
    while families < 300:
        k = int(rng.integers(2, 7))
        fam = [
            frozenset(int(c) for c in rng.choice(6, size=int(rng.integers(1, 4)), replace=False) + 1)
            for _ in range(k)
        ]
        families += 1
        sdr = has_sdr(fam)
        if sdr is None:
            blocked += 1
            sub = hall_violating_subset(fam)
            union = frozenset().union(*(fam[i] for i in sub))
            assert len(union) < len(sub)
        else:
            assert len(set(sdr)) == len(fam)
            assert all(color in s for color, s in zip(sdr, fam))
    assert blocked > 0
    _finish(10, "palette suite", started, 60.0)


def test_criterion_11_cli_round_trip(tmp_path):
    started = time.perf_counter()
    construct_cases = [
        ["five-point", "--a", "0.5", "--b", "1.0", "--c", "1.2", "--eps", "0.05"],
        ["chain", "--s", "1.0", "--d", "0.4", "--gap", "1.2"],
        ["regular-simplex", "--n", "4", "--x", "1.0"],
        ["path", "--t", "3", "--x", "1.0", "--y", "0.8"],
        ["product", "--n", "3", "--x", "1.0", "--t", "2", "--y", "0.7"],
        ["grid", "--regular-k", "3", "--m", "2", "--eps", "0.6"],
        ["hinge"],
        ["dense-quad"],
        ["link", "--offset", "3.0"],
        ["x1"],
        ["anchor-gadget"],
        ["contract", "--regular-k", "4", "--eps", "0.1"],
    ]
    for i, argv in enumerate(construct_cases):
        out = tmp_path / f"cfg_{i}.json"
        assert main(["construct", *argv, "-o", str(out)]) == 0, argv[0]
        cfg = Configuration.load(str(out))
        assert np.all(np.isfinite(cfg.points))

    forced = tmp_path / "forced.json"
    write_json_atomic(str(forced), census_problem(2, 7, 7).to_json_dict())
    assert main(["solve", str(forced), "-o", str(tmp_path / "r7.json")]) == 0

    square = square_problem()
    unsq = tmp_path / "unsq.json"
    write_json_atomic(str(unsq), square.to_json_dict())
    out = tmp_path / "r2.json"
    assert main(["solve", str(unsq), "-o", str(out)]) == 1
    witness = json.loads(out.read_text())["witness"]
    assert verify_coloring(square, witness)["clean"]

    truncated = tmp_path / "broken.json"
    truncated.write_text(unsq.read_text()[:50])
    assert main(["solve", str(truncated), "-o", str(tmp_path / "never.json")]) == 2

    _finish(11, "CLI round trip", started, 60.0)
