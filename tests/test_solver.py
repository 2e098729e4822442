import math
import tracemalloc

import numpy as np
import pytest
from helpers import census_problem, square_problem

from egr.geometry import Configuration, GeometryError, SimplexSpec, embed_from_distances
from egr.palettes import as_palette
from egr.rectangles import census_verdict, regular_simplex
from egr.solver import (
    BudgetExceeded,
    COUNTEREXAMPLE,
    FORCED,
    ORACLE_CAP,
    ColoringProblem,
    exhaustive_oracle,
    five_point_logic_scan,
    solve_gr,
    _orbit_order,
    verify_coloring,
)
from egr.tetra import build_x1, tetra_profile


def pair_problem(r):
    cfg = regular_simplex(2, 1.0)
    return ColoringProblem(cfg=cfg, mono_targets=[(0, 1)], rainbow_targets=[], r=r)


def test_single_pair_one_color_forced():
    out = solve_gr(pair_problem(1))
    assert out.verdict == FORCED
    assert out.witness is None
    assert exhaustive_oracle(pair_problem(1)).verdict == FORCED


def test_single_pair_two_colors_counterexample():
    out = solve_gr(pair_problem(2))
    assert out.verdict == COUNTEREXAMPLE
    assert verify_coloring(pair_problem(2), out.witness)["clean"]


def test_unit_square_two_colors():
    p = square_problem()
    out = solve_gr(p)
    assert out.verdict == COUNTEREXAMPLE
    report = verify_coloring(p, out.witness)
    assert report["clean"]
    assert exhaustive_oracle(p).verdict == COUNTEREXAMPLE


def test_unit_square_needs_rainbow_rule():
    # Without the rainbow quadruple, 4 colors trivially avoid the sides;
    # with it and r=1 the side pairs force immediately.
    p = square_problem(r=1)
    assert solve_gr(p).verdict == FORCED


def test_clique_bound_forces_r4():
    p = census_problem(2, 7, 4)
    out = solve_gr(p)
    assert out.verdict == FORCED
    assert out.witness is None


def test_long_pair_census_forced_r7():
    p = census_problem(2, 7, 7, symmetric=False)
    out = solve_gr(p)
    assert out.verdict == FORCED
    assert out.witness is None
    assert out.stats.nodes == 2_598


def test_hand_built_column_coloring_rejected():
    p = census_problem(2, 7, 7)
    # Color each 7-point fiber with all 7 colors, identically across
    # the three fibers; the end-to-end pairs then collide.
    coloring = [0] * 21
    for i in range(7):
        for j in range(3):
            coloring[i * 3 + j] = i
    report = verify_coloring(p, coloring)
    assert not report["clean"]
    assert report["mono_violations"]


def test_census_verdict_matches_solver_and_oracle():
    cases = [
        (m, s, r)
        for m in range(2, 10)
        for s in range(2, 21 // (m + 1) + 1)
        for r in range(1, s + 4)
    ]
    assert len(cases) == 126
    oracle_runs = 0
    for m, s, r in cases:
        want = census_verdict(m, s, r)
        # As built, the search breaks the declared simplex symmetry;
        # without the declaration it runs the dom/wdeg order.
        built = census_problem(m, s, r)
        assert len(built.generators) == math.comb(s, 2)
        for p in (built, census_problem(m, s, r, symmetric=False)):
            got = solve_gr(p, budget=30.0)
            assert got.verdict == want, (m, s, r, bool(p.generators))
            if want == COUNTEREXAMPLE:
                assert verify_coloring(p, got.witness)["clean"]
        if r ** len(p.cfg.points) <= ORACLE_CAP:
            assert exhaustive_oracle(p).verdict == want, (m, s, r)
            oracle_runs += 1
    assert oracle_runs == 56


def test_census_verdict_rejects_degenerate_arguments():
    for args in [(0, 3, 3), (2, 1, 3), (2, 3, 0)]:
        with pytest.raises(ValueError):
            census_verdict(*args)
    # (2, 7, 7.5) once read as FORCED and (2.5, 7, 7) as COUNTEREXAMPLE.
    for args in [(2, 7, 7.5), (2.5, 7, 7), (2, 7.0, 7), (True, 7, 7), (2, 7, np.float64(7))]:
        with pytest.raises(GeometryError, match="must be an integer"):
            census_verdict(*args)
    assert census_verdict(np.int64(2), np.int32(7), 7) == census_verdict(2, 7, 7) == FORCED


def test_weighted_order_decides_hard_census_cases():
    # The smallest-domain order took 239,611 and 631,592 nodes on the
    # (2, 7, 8) and (2, 7, 9) cases and found no counterexample to
    # (3, 9, 11) in 30 s.  The node counts pin the search tree.
    for args, nodes in [((2, 7, 8), 2_798), ((2, 7, 9), 2_863), ((3, 10, 9), 45)]:
        out = solve_gr(census_problem(*args, symmetric=False))
        assert out.verdict == FORCED, args
        assert out.stats.nodes == nodes, args
    p = census_problem(3, 9, 11, symmetric=False)
    out = solve_gr(p, budget=30.0)
    assert out.verdict == COUNTEREXAMPLE
    assert verify_coloring(p, out.witness)["clean"]


def test_symmetric_census_decides_in_pinned_nodes():
    # The search breaks the 10-simplex's 45 transpositions fiber by
    # fiber; without them (3, 10, 10) took 2,135,520 nodes (about 25 s).
    for args, nodes in [((2, 7, 7), 110), ((2, 7, 8), 182), ((3, 10, 9), 9), ((3, 10, 10), 1_250)]:
        p = census_problem(*args)
        out = solve_gr(p, budget=30.0)
        assert out.verdict == FORCED, args
        assert out.stats.nodes == nodes, args


def test_static_order_runs_fiber_by_fiber():
    p = census_problem(3, 10, 10)
    assert _orbit_order(p.generators, 40) == [a * 4 + i for i in range(4) for a in range(10)]
    # Two disjoint cycles give two orbits, listed by their lowest index.
    assert _orbit_order([(0, 3, 2, 5, 4, 1), (0, 1, 4, 3, 2, 5)], 6) == [0, 1, 3, 5, 2, 4]


def test_declared_symmetry_is_checked_against_the_targets():
    cfg = Configuration(points=np.arange(4, dtype=float)[:, None])
    cfg.notes = {"symmetry": [[1, 0, 2, 3], [0, 1, 3, 2], [1, 2, 3, 0], [0, 1, 2, 3]]}
    p = ColoringProblem(cfg=cfg, mono_targets=[(0, 1), (2, 3)], rainbow_targets=[(0, 1, 2)], r=3)
    # Only the swap of 0 and 1 keeps both target sets; the identity is of no use.
    assert p.generators == [(1, 0, 2, 3)]
    p = ColoringProblem(cfg=cfg, mono_targets=[(0, 1), (2, 3)], rainbow_targets=[(0, 1, 3), (0, 1, 2)], r=3)
    assert p.generators == [(1, 0, 2, 3), (0, 1, 3, 2)]


def test_generator_check_sees_targets_the_search_drops():
    # At r=3 the 4-point rainbow target can never be rainbow, so solve_gr
    # drops it; the generator check still reads it.  The swap of 0 and 1
    # keeps every other target, and is kept once the target's image is
    # a target too.
    cfg = Configuration(points=np.arange(5, dtype=float)[:, None], notes={"symmetry": [[1, 0, 2, 3, 4]]})
    mono, rainbow = [(0, 1), (2, 3)], [(0, 1, 2), (0, 2, 3, 4)]
    p = ColoringProblem(cfg=cfg, mono_targets=mono, rainbow_targets=rainbow, r=3)
    assert p.generators == []
    assert solve_gr(p).verdict == exhaustive_oracle(p).verdict
    p = ColoringProblem(cfg=cfg, mono_targets=mono, rainbow_targets=rainbow + [(1, 2, 3, 4)], r=3)
    assert p.generators == [(1, 0, 2, 3, 4)]


@pytest.mark.parametrize(
    "symmetry",
    [[[1, 0, 2]], [[1, 1, 2, 3]], [[0, 1, 2, 4]], [[0, 1, 2, -1]], [[1.0, 0, 2, 3]], [[True, 0, 2, 3]],
     [[0, 1, 2, "3"]], [{"0": 1}], ["0123"], [3], {"0": [1, 0, 2, 3]}, 5, "swap"],
)
def test_malformed_symmetry_is_refused(symmetry):
    cfg = Configuration(points=np.arange(4, dtype=float)[:, None], notes={"symmetry": symmetry})
    with pytest.raises(ValueError):
        ColoringProblem(cfg=cfg, mono_targets=[(0, 1)], rainbow_targets=[], r=2)


def symmetric_problem(rng):
    """Targets closed under 1-3 random point permutations, each moving at
    most 5 points, which the configuration declares; about 3 in 10 then
    get one extra target that some generators need not keep."""
    n = int(rng.integers(3, 9))
    r = int(rng.integers(1, 5))
    images = []
    for _ in range(int(rng.integers(1, 4))):
        img = np.arange(n)
        moved = rng.choice(n, size=int(rng.integers(2, min(n, 5) + 1)), replace=False)
        img[moved] = rng.permutation(moved)
        images.append(img.tolist())

    def draw(count, lo, hi):
        sizes = rng.integers(lo, min(n, hi) + 1, size=count)
        return [tuple(sorted(rng.choice(n, size=int(k), replace=False).tolist())) for k in sizes]

    def closure(seeds):
        seen, todo = set(seeds), list(seeds)
        while todo:
            t = todo.pop()
            for img in images:
                u = tuple(sorted(img[p] for p in t))
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return sorted(seen)

    mono = closure(draw(int(rng.integers(1, 3)), 2, 3))
    rainbow = closure(draw(int(rng.integers(0, 3)), 2, 4))
    if rng.random() < 0.3:
        (mono if rng.random() < 0.5 else rainbow).extend(draw(1, 2, 3))
    cfg = Configuration(points=rng.uniform(0.0, 1.0, size=(n, 2)), notes={"symmetry": images})
    return ColoringProblem(cfg=cfg, mono_targets=mono, rainbow_targets=rainbow, r=r)


def test_symmetry_breaking_matches_oracle_on_closed_instances():
    rng = np.random.default_rng(2006)
    verdicts, kept, dropped = [], 0, 0
    for _ in range(1_000):
        p = symmetric_problem(rng)
        got = solve_gr(p)
        assert got.verdict == exhaustive_oracle(p).verdict
        if got.verdict == COUNTEREXAMPLE:
            assert verify_coloring(p, got.witness)["clean"]
        verdicts.append(got.verdict)
        moving = {tuple(img) for img in p.cfg.notes["symmetry"]} - {tuple(range(len(p.cfg.points)))}
        kept += bool(p.generators)
        dropped += len(p.generators) < len(moving)
    # Both verdicts, the symmetric search and dropped generators all occur
    # often enough for the comparison to mean something.
    assert min(verdicts.count(FORCED), verdicts.count(COUNTEREXAMPLE)) >= 300
    assert kept >= 600 and dropped >= 50


def test_budget_exceeded_is_an_error():
    p = census_problem(2, 7, 7)
    with pytest.raises(BudgetExceeded):
        solve_gr(p, budget=0.0)


def test_budget_is_read_at_every_node():
    # m=3 r=9 decides in 45 nodes, far fewer than any node stride, and
    # in 9 when the search breaks the simplex symmetry
    for symmetric in (True, False):
        with pytest.raises(BudgetExceeded):
            solve_gr(census_problem(3, 10, 9, symmetric), budget=1e-9)


def test_deep_search_does_not_recurse():
    # One search level per point, past the default recursion limit.
    n = 1200
    cfg = Configuration(points=np.arange(n, dtype=float)[:, None])
    mono = [(i, i + 1) for i in range(n - 1)]
    p = ColoringProblem(cfg=cfg, mono_targets=mono, rainbow_targets=[], r=2)
    out = solve_gr(p)
    assert out.verdict == COUNTEREXAMPLE
    assert verify_coloring(p, out.witness)["clean"]


def test_colors_beyond_the_point_count_cost_nothing():
    cfg = Configuration(points=np.arange(6, dtype=float)[:, None])

    def problem(r):
        mono = [(0, 1), (1, 2), (3, 4)]
        rainbow = [(0, 2, 4), (1, 3, 5), (2, 3, 4, 5)]
        return ColoringProblem(cfg=cfg, mono_targets=mono, rainbow_targets=rainbow, r=r)

    small = solve_gr(problem(6))
    tracemalloc.start()
    try:
        big = solve_gr(problem(10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert small.verdict == big.verdict == COUNTEREXAMPLE
    assert big.witness == small.witness
    assert peak < 1 << 20


def test_x1_tetra_targets_counterexample_in_pinned_nodes():
    # Every distinct tetra copy of x1 is both a mono and a rainbow target.
    spec = SimplexSpec.regular(4, 1.0)
    cfg = build_x1(tetra_profile(spec), embed_from_distances(spec)).cfg
    tetras = sorted({tuple(sorted(t)) for t in cfg.named_copies["tetra"]})
    p = ColoringProblem(cfg=cfg, mono_targets=tetras, rainbow_targets=tetras, r=4)
    out = solve_gr(p)
    assert out.verdict == COUNTEREXAMPLE
    assert out.stats.nodes == 416
    assert verify_coloring(p, out.witness)["clean"]


def random_problem(rng):
    n = int(rng.integers(4, 9))
    r = int(rng.integers(2, 4))
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    cfg = Configuration(points=pts)
    mono = []
    rainbow = []
    for _ in range(int(rng.integers(1, 6))):
        k = int(rng.integers(2, 4))
        mono.append(tuple(rng.choice(n, size=k, replace=False)))
    for _ in range(int(rng.integers(0, 4))):
        k = int(rng.integers(2, min(n, 4) + 1))
        rainbow.append(tuple(rng.choice(n, size=k, replace=False)))
    return ColoringProblem(cfg=cfg, mono_targets=mono, rainbow_targets=rainbow, r=r)


def test_solver_matches_oracle_on_random_instances():
    rng = np.random.default_rng(424242)
    for _ in range(50):
        p = random_problem(rng)
        got = solve_gr(p)
        want = exhaustive_oracle(p)
        assert got.verdict == want.verdict
        if got.verdict == COUNTEREXAMPLE:
            assert verify_coloring(p, got.witness)["clean"]
            assert verify_coloring(p, want.witness)["clean"]


def neq_heavy_problem(rng):
    """Many 2-point mono targets, some from cliques, and short rainbows.

    A clique lists each of its pairs in both orders, and a rainbow
    target of 4 points with r <= 3 can never be rainbow, so target
    normalisation is exercised too.
    """
    n = int(rng.integers(5, 10))
    r = int(rng.integers(2, 4))
    pairs = []
    for _ in range(int(rng.integers(0, 2))):
        clique = rng.choice(n, size=int(rng.integers(3, min(n, 5) + 1)), replace=False)
        pairs += [(int(a), int(b)) for a in clique for b in clique if a != b]
    for _ in range(int(rng.integers(1, n))):
        pairs.append(tuple(int(i) for i in rng.choice(n, size=2, replace=False)))
    rainbow = [
        tuple(int(i) for i in rng.choice(n, size=int(rng.integers(3, 5)), replace=False))
        for _ in range(int(rng.integers(1, 2 * n)))
    ]
    cfg = Configuration(points=rng.uniform(0.0, 1.0, size=(n, 2)))
    return ColoringProblem(cfg=cfg, mono_targets=pairs, rainbow_targets=rainbow, r=r)


def test_solver_matches_oracle_on_neq_heavy_instances():
    rng = np.random.default_rng(20041)
    verdicts = []
    for _ in range(300):
        p = neq_heavy_problem(rng)
        got = solve_gr(p)
        assert got.verdict == exhaustive_oracle(p).verdict
        if got.verdict == COUNTEREXAMPLE:
            assert verify_coloring(p, got.witness)["clean"]
        verdicts.append(got.verdict)
    # Both verdicts occur often enough for the comparison to mean something.
    assert min(verdicts.count(FORCED), verdicts.count(COUNTEREXAMPLE)) >= 100


def test_forced_verdict_stable_under_point_permutation():
    rng = np.random.default_rng(7)
    base = square_problem()
    for _ in range(5):
        perm = rng.permutation(4)
        inv = np.argsort(perm)
        cfg = Configuration(points=base.cfg.points[perm])
        remap = lambda t: tuple(int(inv[i]) for i in t)
        p = ColoringProblem(
            cfg=cfg,
            mono_targets=[remap(t) for t in base.mono_targets],
            rainbow_targets=[remap(t) for t in base.rainbow_targets],
            r=base.r,
        )
        assert solve_gr(p).verdict == solve_gr(base).verdict


def test_verify_coloring_flags_a_rainbow_rectangle():
    # Position a of fiber i gets color a + i: every fiber is injective
    # and every endpoint pair differs, so only 4-point rectangles can be
    # rainbow, and every rectangle between non-adjacent positions is.
    p = census_problem(2, 7, 7)
    coloring = [(a + i) % 7 for a in range(7) for i in range(3)]
    report = verify_coloring(p, coloring)
    assert not report["clean"] and not report["mono_violations"]
    assert report["rainbow_violations"] and all(len(t) == 4 for t in report["rainbow_violations"])
    rect = (0, 1, 2 * 3, 2 * 3 + 1)  # positions 0 and 2 over fibers 0 and 1
    assert rect in {tuple(sorted(t)) for t in report["rainbow_violations"]}


def test_verify_coloring_reports():
    p = square_problem()
    report = verify_coloring(p, [0, 0, 0, 0])
    assert len(report["mono_violations"]) == 4
    assert not report["rainbow_violations"]
    with pytest.raises(ValueError):
        verify_coloring(p, [0, 0, 0])
    with pytest.raises(ValueError):
        verify_coloring(p, [0, 0, 0, 5])


@pytest.mark.parametrize("bad", [0.5, True, "1", -1, 3, 2**64])
def test_every_index_is_an_integer_in_range(bad):
    # copy indices, target indices and colors go through one rule: an int
    # or numpy int in range(n), here n = 3 points and r = 3 colors
    cfg = regular_simplex(3, 1.0)
    problem = ColoringProblem(cfg=cfg, mono_targets=[(0, np.int64(1))], rainbow_targets=[], r=3)
    assert verify_coloring(problem, [0, np.int64(1), 2])["clean"]
    with pytest.raises(GeometryError):
        Configuration(points=cfg.points, named_copies={"pair": [(0, bad)]})
    with pytest.raises(GeometryError):
        ColoringProblem(cfg=cfg, mono_targets=[(0, bad)], rainbow_targets=[], r=3)
    with pytest.raises(GeometryError):
        verify_coloring(problem, [0, 1, bad])
    if not isinstance(bad, int) or isinstance(bad, bool):
        with pytest.raises(GeometryError):
            as_palette([1, bad])


def test_problem_validation():
    cfg = regular_simplex(3, 1.0)
    with pytest.raises(ValueError):
        ColoringProblem(cfg=cfg, mono_targets=[(0,)], rainbow_targets=[], r=2)
    with pytest.raises(ValueError):
        ColoringProblem(cfg=cfg, mono_targets=[(0, 0)], rainbow_targets=[], r=2)
    with pytest.raises(ValueError):
        ColoringProblem(cfg=cfg, mono_targets=[(0, 3)], rainbow_targets=[], r=2)
    with pytest.raises(ValueError):
        ColoringProblem(cfg=cfg, mono_targets=[], rainbow_targets=[], r=0)


def test_problem_json_round_trip():
    p = square_problem()
    payload = p.to_json_dict()
    back = ColoringProblem.from_json_dict(payload)
    assert back.mono_targets == p.mono_targets
    assert back.rainbow_targets == p.rainbow_targets
    assert back.r == p.r
    assert np.array_equal(back.cfg.points, p.cfg.points)


def test_oracle_cap():
    cfg = Configuration(points=np.arange(11, dtype=float)[:, None])
    p = ColoringProblem(cfg=cfg, mono_targets=[(0, 1)], rainbow_targets=[], r=5)
    with pytest.raises(ValueError):
        exhaustive_oracle(p)


def test_five_point_scan_zero_violations():
    for r in (3, 4, 5):
        out = five_point_logic_scan(r)
        assert out["violations"] == 0
        assert out["conforming"] == {3: 18, 4: 48, 5: 100}[r]
    with pytest.raises(ValueError):
        five_point_logic_scan(6)
    with pytest.raises(ValueError):
        five_point_logic_scan(2)
    # 3.5 once read as 25 colorings of a scan that has no such r.
    for r in (3.5, 3.0, True):
        with pytest.raises(GeometryError, match="must be an integer"):
            five_point_logic_scan(r)
