import dataclasses
import itertools
import math
import random

import pytest

from egr import palettes
from egr.geometry import ConstraintViolation, GeometryError, SimplexSpec
from egr.palettes import (
    MONO,
    RAINBOW,
    TYPE_A,
    TYPE_B,
    _fits_no_kind,
    _scan_kernel,
    classification_scan,
    classify_quadruple,
    hall_violating_subset,
    has_sdr,
    propagate_disjointness,
)
from egr.solver import ColoringProblem, solve_gr, verify_coloring
from egr.tetra import build_link, glue_two_copies, tetra_profile

R4_POOL = [
    frozenset(c)
    for size in (2, 3, 4)
    for c in itertools.combinations(range(1, 5), size)
]


def test_sdr_triangle_family():
    fam = [{1, 2}, {2, 3}, {1, 3}]
    sdr = has_sdr(fam)
    assert sdr is not None
    assert len(set(sdr)) == 3
    assert all(c in s for c, s in zip(sdr, fam))
    assert hall_violating_subset(fam) is None


def test_sdr_blocked_family():
    fam = [{1, 2}, {1, 2}, {1, 2}, {3, 4}]
    assert has_sdr(fam) is None
    assert hall_violating_subset(fam) == (0, 1, 2)


def test_sdr_singletons():
    assert has_sdr([{1}, {1}]) is None
    assert hall_violating_subset([{1}, {1}]) == (0, 1)


def test_sdr_matches_hall_on_random_families():
    rng = random.Random(2)
    for _ in range(500):
        fam = [
            frozenset(rng.sample(range(1, 6), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5))
        ]
        sdr = has_sdr(fam)
        bad = hall_violating_subset(fam)
        if sdr is None:
            assert bad is not None
            union = frozenset().union(*(fam[i] for i in bad))
            assert len(union) < len(bad)
        else:
            assert bad is None
            assert len(set(sdr)) == len(fam)
            assert all(c in s for c, s in zip(sdr, fam))


def test_classify_patterns():
    assert classify_quadruple({1, 2}, {2, 3}, {1, 3}, {1, 2}).kind == TYPE_A
    assert classify_quadruple({1, 2}, {1, 2}, {1, 2}, {3, 4}).kind == TYPE_B
    assert classify_quadruple({1, 2}, {2, 3}, {3, 4}, {4, 1}).kind == RAINBOW
    out = classify_quadruple({1, 2}, {1, 2}, {1, 3}, {1, 4})
    assert out.kind == MONO
    assert out.common == 1


def test_classify_mono_wins_over_rainbow():
    out = classify_quadruple({1, 2}, {1, 3}, {1, 4}, {1, 5})
    assert out.kind == MONO


def test_classify_witness_replays():
    cases = [
        ((frozenset({7, 9}), frozenset({9, 4}), frozenset({7, 4}), frozenset({7, 9, 4})), TYPE_A),
        (({2, 3}, {4, 5}, {2, 3}, {2, 3}), TYPE_B),
        (({5, 6}, {5, 6}, {1, 2, 3}, {5, 6}), TYPE_B),
        # unions of six and seven colors
        (({1, 2}, {1, 2}, {1, 2}, {3, 4, 5, 6}), TYPE_B),
        (({3, 4, 5, 6, 7}, {1, 2}, {1, 2}, {1, 2}), TYPE_B),
    ]
    for quad, want in cases:
        out = classify_quadruple(*quad)
        assert out.kind == want
        nf = out.normal_form(*quad)
        if want == TYPE_A:
            assert nf[0] == {1, 2} and nf[1] == {2, 3} and nf[2] == {1, 3}
            assert nf[3] <= {1, 2, 3}
        else:
            assert nf[0] == nf[1] == nf[2] == frozenset({1, 2})
            assert {3, 4} <= nf[3] and not nf[3] & {1, 2}
        mapped = set(out.color_map.values())
        assert len(mapped) == len(out.color_map)


def test_classify_rejects_small_palettes():
    with pytest.raises(ConstraintViolation) as err:
        classify_quadruple({1}, {1, 2}, {1, 2}, {1, 2})
    assert err.value.name == "palette_size"
    with pytest.raises(ConstraintViolation) as err:
        classify_quadruple(set(), {1, 2}, {1, 2}, {1, 2})
    assert err.value.name == "empty_palette"


def _mono_count(r):
    """Quadruples with a common color, by inclusion-exclusion over it."""
    total = 0
    for j in range(1, r + 1):
        supersets = 2 ** (r - j) - (1 if j == 1 else 0)
        total += (-1) ** (j + 1) * math.comb(r, j) * supersets**4
    return total


def test_scan_counts_match_closed_forms():
    for r in (2, 3, 4, 5):
        out = classification_scan(r)
        pool = 2**r - r - 1
        assert out["unclassifiable"] == 0
        assert out["total"] == pool**4
        assert out[MONO] == _mono_count(r)
        assert out[TYPE_A] == 60 * math.comb(r, 3)
        rest = 2 ** (r - 2) - (r - 2) - 1
        assert out[TYPE_B] == 4 * math.comb(r, 2) * rest
        assert out[RAINBOW] == out["total"] - out[MONO] - out[TYPE_A] - out[TYPE_B]


def test_scan_kernel_agrees_with_classify_quadruple():
    """Per multiset, the kernel's weight and class match the loop versions.

    The weight is 4! over the factorials of the runs of equal palettes,
    and the class is ``classify_quadruple``'s kind, with TYPE_A and
    TYPE_B both read as the kernel's residual.
    """
    for r in (2, 3, 4, 5):
        pool, idx, weight, mono, rainbow = _scan_kernel(r)
        multisets = list(itertools.combinations_with_replacement(pool, 4))
        assert len(multisets) == len(idx)
        for row, multiset in enumerate(multisets):
            assert tuple(pool[i] for i in idx[row]) == multiset
            mult = math.factorial(4)
            for _, group in itertools.groupby(multiset):
                mult //= math.factorial(len(list(group)))
            assert weight[row] == mult, multiset
            kind = classify_quadruple(*multiset).kind
            if kind not in (MONO, RAINBOW):
                kind = "residual"
            got = MONO if mono[row] else RAINBOW if rainbow[row] else "residual"
            assert got == kind, multiset


def test_scan_rejects_large_r():
    with pytest.raises(ValueError):
        classification_scan(6)
    for r in (3.0, True):
        with pytest.raises(GeometryError, match="must be an integer"):
            classification_scan(r)


def test_propagate_consistent_type_b_pair():
    quad = ({3, 4}, {1, 2}, {1, 2}, {1, 2})
    assert propagate_disjointness(quad, quad, {1: 1, 2: 2, 3: 3}) == []
    assert propagate_disjointness(quad, quad, {0: 0, 1: 1, 2: 2, 3: 3}) == []


def test_propagate_reports_type_mismatch():
    a_quad = ({1, 2}, {2, 3}, {1, 3}, {1, 2})
    b_quad = ({1, 2}, {1, 2}, {1, 2}, {3, 4})
    recs = propagate_disjointness(a_quad, b_quad, {0: 0, 3: 1})
    assert recs == [{"rule": "same_type", "left_kind": TYPE_A, "right_kind": TYPE_B}]


def test_propagate_rejects_bad_sharing():
    quad = ({3, 4}, {1, 2}, {1, 2}, {1, 2})
    with pytest.raises(GeometryError):
        propagate_disjointness(quad, quad, {5: 0})
    with pytest.raises(GeometryError):
        propagate_disjointness(quad, quad, {0: 1, 1: 1})
    other = ({3, 4}, {1, 3}, {1, 2}, {1, 2})
    with pytest.raises(GeometryError):
        propagate_disjointness(quad, other, {1: 1})


def test_propagate_raises_when_a_witness_fails_to_replay(monkeypatch):
    search = palettes._search_witness

    def reversed_witness(sets):
        out = search(sets)
        return dataclasses.replace(out, index_perm=out.index_perm[::-1])

    monkeypatch.setattr(palettes, "_search_witness", reversed_witness)
    quad = ({3, 4}, {1, 2}, {1, 2}, {1, 2})
    with pytest.raises(GeometryError, match="witness fails to replay"):
        propagate_disjointness(quad, quad, {1: 1, 2: 2, 3: 3})


def test_brute_force_flags_only_quadruples_no_kind_fits():
    assert _fits_no_kind(({1}, {2}, {1, 2}, {1, 2}))
    samples = {
        MONO: ({1, 2}, {1, 3}, {1, 4}, {1, 5}),
        RAINBOW: ({1, 2}, {2, 3}, {3, 4}, {4, 5}),
        TYPE_A: ({3, 5}, {2, 3, 5}, {2, 3}, {2, 5}),  # order and colors renamed
        TYPE_B: ({2, 5}, {3, 4}, {3, 4}, {3, 4}),
    }
    for kind, quad in samples.items():
        assert classify_quadruple(*quad).kind == kind
        assert not _fits_no_kind(quad), kind


def test_propagate_skips_unclassifiable_quadruples():
    # singleton palettes fall outside the classification hypotheses
    left = (frozenset([1]), frozenset([1]), frozenset([2]), frozenset([3]))
    right = (frozenset([2]), frozenset([1]), frozenset([2]), frozenset([3]))
    assert propagate_disjointness(left, right, {1: 1, 2: 2, 3: 3}) == []


def test_biconditional_holds_exhaustively_at_r4():
    """Every classifiable pair over a shared triple agrees on disjointness.

    This replays the linked-pair transmission rule as a finite theorem:
    fix any palettes on the three shared slots, then any two
    classifiable completions are disjoint from a shared slot on one
    side exactly when the other is.
    """
    memo = {}

    def kind_of(quad):
        key = (quad[0], quad[1], quad[2], quad[3])
        if key not in memo:
            try:
                memo[key] = classify_quadruple(*quad).kind
            except GeometryError:
                memo[key] = None
        return memo[key]

    in_scope_pairs = 0
    for triple in itertools.combinations_with_replacement(R4_POOL, 3):
        frees = [
            f
            for f in R4_POOL
            if kind_of((f,) + triple) in (TYPE_A, TYPE_B)
        ]
        for fl, fr in itertools.product(frees, repeat=2):
            recs = propagate_disjointness(
                (fl,) + triple, (fr,) + triple, {1: 1, 2: 2, 3: 3}
            )
            assert all(r["rule"] != "type_b_biconditional" for r in recs), recs
            in_scope_pairs += 1
    assert in_scope_pairs > 0


def test_counterexample_palettes_stay_consistent():
    """Singleton palettes from an avoiding coloring never trip the rules."""
    spec = SimplexSpec.regular(4, 1.0)
    prof = tetra_profile(spec)
    pts = glue_two_copies(prof, prof.theta).points
    link = build_link(prof, pts[[0, 1, 2, 3]], pts[[4, 1, 2, 3]])
    problem = ColoringProblem(
        cfg=link.cfg,
        mono_targets=link.tetra_copies,
        rainbow_targets=link.tetra_copies,
        r=3,
    )
    res = solve_gr(problem, budget=60.0)
    assert res.verdict == "COUNTEREXAMPLE"
    assert verify_coloring(problem, res.witness)["clean"]
    cols = res.witness
    shared_pairs = 0
    for ta, tb in itertools.combinations(link.tetra_copies, 2):
        common = set(ta) & set(tb)
        if len(common) != 3:
            continue
        shared = {ta.index(p): tb.index(p) for p in common}
        ql = tuple(frozenset([cols[p]]) for p in ta)
        qr = tuple(frozenset([cols[p]]) for p in tb)
        assert propagate_disjointness(ql, qr, shared) == []
        shared_pairs += 1
    assert shared_pairs > 0
