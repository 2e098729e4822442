import math
import re

import numpy as np
import pytest

from egr import tetra
from egr.geometry import (
    ConstraintViolation,
    GeometryError,
    SimplexSpec,
    cayley_menger_volume,
    check_copies,
    congruence_check,
    embed_from_distances,
    enumerate_copies,
    pairwise_sq_dists,
)
from egr.tetra import (
    apex_circle,
    build_anchor_gadget,
    build_link,
    build_x1,
    dense_quadruple,
    glue_two_copies,
    tetra_profile,
)

REGULAR = SimplexSpec.regular(4, 1.0)

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


def isosceles(t):
    """Equilateral unit base with the apex at height t over the centroid."""
    base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0]])
    apex = np.array([0.5, math.sqrt(3.0) / 6.0, t])
    return SimplexSpec.from_points(np.vstack([base, apex]))


def test_regular_profile_values():
    prof = tetra_profile(REGULAR)
    assert abs(prof.H_max - math.sqrt(2.0 / 3.0)) < 1e-12
    assert abs(prof.rho_min - 1.0 / math.sqrt(3.0)) < 1e-12
    assert prof.condition_flag
    assert np.abs(np.asarray(prof.heights) - math.sqrt(2.0 / 3.0)).max() < 1e-12
    assert np.abs(np.asarray(prof.face_circumradii) - 1.0 / math.sqrt(3.0)).max() < 1e-12
    rel = prof.base2d[0] - prof.apex_foot
    b2, a2 = float(rel @ rel), prof.apex_height**2
    assert abs((b2 - a2) / (b2 + a2) + 1.0 / 3.0) < 1e-12
    assert abs(math.cos(2.0 * prof.theta) + 1.0 / 3.0) < 1e-12


def test_profile_heights_against_volume():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.uniform(-1.0, 1.0, size=(4, 3))
        spec = SimplexSpec.from_points(pts)
        try:
            prof = tetra_profile(spec)
        except ConstraintViolation:
            continue
        vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
        for i in range(4):
            face = [j for j in range(4) if j != i]
            area = 0.5 * np.linalg.norm(np.cross(pts[face[1]] - pts[face[0]], pts[face[2]] - pts[face[0]]))
            assert abs(prof.heights[i] - 3.0 * vol / area) < 1e-9


def test_needle_fails_condition():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0.05, 0], [3, 0.05, 0.05]])
    prof = tetra_profile(SimplexSpec.from_points(pts))
    assert not prof.condition_flag
    with pytest.raises(ConstraintViolation) as err:
        dense_quadruple(prof)
    assert err.value.name == "condition"


def test_degenerate_rejected():
    flat = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(ConstraintViolation) as err:
        tetra_profile(SimplexSpec.from_points(flat))
    assert err.value.name == "degenerate"


def test_apex_circle_congruent_everywhere():
    for spec in (REGULAR, SKEW):
        prof = tetra_profile(spec)
        base = glue_two_copies(prof, prof.theta).points[1:4]
        for gamma in np.linspace(0.0, 2.0 * math.pi, 9):
            pts = np.vstack([apex_circle(prof, float(gamma))[None, :], base])
            assert np.abs(pairwise_sq_dists(pts) - spec.sq_dist).max() < 1e-9


def test_glue_hits_requested_angle():
    rng = np.random.default_rng(11)
    for spec in (REGULAR, SKEW):
        prof = tetra_profile(spec)
        for _ in range(50):
            phi = float(rng.uniform(1e-3, 2.0 * prof.theta))
            pts = glue_two_copies(prof, phi).points
            assert abs(tetra._angle(pts[0] - pts[1], pts[4] - pts[1]) - phi) < 1e-9
            check_copies(pts, [(0, 1, 2, 3), (4, 1, 2, 3)], spec.sq_dist, "hinge copy")


def test_glue_full_opening_is_antipodal():
    prof = tetra_profile(REGULAR)
    pts = glue_two_copies(prof, 2.0 * prof.theta).points
    # at the top of the range the apexes sit at opposite circle points
    assert abs(np.linalg.norm(pts[0] - pts[4]) - 2.0 * prof.apex_height) < 1e-9


def test_glue_rejects_out_of_range():
    prof = tetra_profile(REGULAR)
    for phi in (0.0, -0.5, 2.0 * prof.theta + 1e-6):
        with pytest.raises(ConstraintViolation) as err:
            glue_two_copies(prof, phi)
        assert err.value.name == "phi_range"


def test_hinge_configuration():
    prof = tetra_profile(SKEW)
    cfg = glue_two_copies(prof, prof.theta)
    assert len(cfg) == 5
    assert cfg.named_copies["tetra"] == [(0, 1, 2, 3), (4, 1, 2, 3)]


def test_dense_quadruple_regular():
    prof = tetra_profile(REGULAR)
    quad = dense_quadruple(prof)
    pts = quad.points
    assert pts.shape == (7, 5)
    ref = embed_from_distances(REGULAR)
    for tup in quad.named_copies["tetra"]:
        assert congruence_check(pts[list(tup)], ref) is not None
    y = pts[1:4]
    sides = np.sqrt(pairwise_sq_dists(y)[[0, 0, 1], [1, 2, 2]])
    area = cayley_menger_volume(SimplexSpec.from_points(y))
    assert abs(sides.prod() / (4.0 * area) - prof.rho_min) < 1e-12
    assert len(quad) == 7


def test_dense_quadruple_skew_exact():
    # every copy tuple lists its points in the spec's row order
    quad = dense_quadruple(tetra_profile(SKEW))
    check_copies(quad.points, quad.named_copies["tetra"], SKEW.sq_dist)


def test_dense_quadruple_tracks_condition_boundary():
    flags = []
    for t in np.linspace(0.05, 0.4, 10):
        prof = tetra_profile(isosceles(float(t)))
        flags.append(prof.condition_flag)
        if prof.condition_flag:
            assert dense_quadruple(prof).points.shape == (7, 5)
        else:
            with pytest.raises(ConstraintViolation) as err:
                dense_quadruple(prof)
            assert err.value.name == "condition"
    assert flags == [False] * 5 + [True] * 5


def place_extras(dim, anchor_rows, src_anchors, src_extras):
    """Place anchor rows ``(cols, vals)`` in a builder of ``dim`` axes and
    the extras over them; the finished points of anchors plus extras."""
    b = tetra._Builder(tetra_profile(REGULAR), dim)
    idx = [b.ws.add_row(cols, vals) for cols, vals in anchor_rows]
    new_idx = b.place(tetra.isometry_frame(src_anchors, src_extras), idx)
    return b.finish({}).cfg.points[idx + new_idx]


def test_extend_isometry_preserves_distances():
    rng = np.random.default_rng(7)
    src = rng.uniform(-1.0, 1.0, size=(6, 3))
    q, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(3, 3)))
    got = place_extras(3, [(range(3), p @ q + 2.0) for p in src[:3]], src[:3], src[3:])
    assert np.abs(pairwise_sq_dists(got) - pairwise_sq_dists(src)).max() < 1e-9


def test_extend_isometry_grows_axes_when_needed():
    # two anchors in the plane cannot carry a 3d cloud without new axes
    rng = np.random.default_rng(19)
    src = rng.uniform(-1.0, 1.0, size=(5, 3))
    anchors = src[:2].copy()
    anchors[:, 2] = 0.0
    got = place_extras(2, [(range(2), p[:2]) for p in anchors], anchors, src[2:])
    assert got.shape[1] > 2
    want = pairwise_sq_dists(np.vstack([anchors, src[2:]]))
    assert np.abs(pairwise_sq_dists(got) - want).max() < 1e-9


def test_extend_isometry_over_anchors_with_disjoint_columns():
    rng = np.random.default_rng(23)
    src = rng.uniform(-1.0, 1.0, size=(5, 3))
    half = math.dist(src[0], src[1]) / math.sqrt(2.0)
    # each anchor image sits on its own axis, so their rows share no column
    got = place_extras(6, [([1], [half]), ([4], [-half])], src[:2], src[2:])
    assert got.shape[1] == 8
    assert np.abs(pairwise_sq_dists(got) - pairwise_sq_dists(src)).max() < 1e-9
    # the images live on the anchors' columns plus the two fresh axes
    assert set(np.flatnonzero(got.any(axis=0))) == {1, 4, 6, 7}


def test_finish_checks_the_anchor_images_of_each_frame():
    # a builder's placements wait for finish, which checks every frame's
    # anchor images at once: a frame whose anchors the placed rows do not
    # realize is named there
    src = embed_from_distances(REGULAR)
    extra = np.array([[0.3, 0.2, 2.0]])
    b = tetra._Builder(tetra_profile(REGULAR), 3)
    idx = [b.ws.add_point(p) for p in src]
    b.place(tetra.isometry_frame(src[:3], extra), idx[:3])
    b.place(tetra.isometry_frame(src[1:], extra), idx[1:])
    assert len(b.finish({}).cfg) == 6
    b.place(tetra.isometry_frame(1.5 * src[:3], extra), idx[:3])
    with pytest.raises(GeometryError, match=r"anchor image \(0, 1, 2\) is off"):
        b.finish({})


def test_trivial_link():
    prof = tetra_profile(REGULAR)
    pts = embed_from_distances(REGULAR)
    out = build_link(prof, pts, pts)
    assert len(out.tetra_copies) == 2
    assert len(out.cfg) == 4


def test_translated_link():
    prof = tetra_profile(REGULAR)
    pts = embed_from_distances(REGULAR)
    out = build_link(prof, pts, pts + np.array([10.0, 0.0, 0.0]))
    assert len(out.tetra_copies) == 178
    assert len(out.cfg) == 268
    assert out.tetra_copies[0] == (0, 1, 2, 3)
    check_copies(out.cfg.points, out.tetra_copies, REGULAR.sq_dist, "tetra copy")


def test_link_deduplicates_shared_seam_points():
    prof = tetra_profile(REGULAR)
    pts = glue_two_copies(prof, prof.theta).points
    out = build_link(prof, pts[[0, 1, 2, 3]], pts[[4, 1, 2, 3]])
    # the shared base face is stored once, so the far endpoint reuses it
    assert out.tetra_copies[-1] == (4, 1, 2, 3)
    check_copies(out.cfg.points, out.tetra_copies, REGULAR.sq_dist, "tetra copy")


def test_corner_angle_gate():
    prof = tetra_profile(REGULAR)
    pts = embed_from_distances(REGULAR)
    for bad in (0.0, -0.2, 2.0 * prof.theta + 0.01):
        with pytest.raises(ConstraintViolation) as err:
            build_link(prof, pts, pts + np.array([10.0, 0.0, 0.0]), corner_angle=bad)
        assert err.value.name == "corner_angle"
        with pytest.raises(ConstraintViolation):
            build_x1(prof, pts, corner_angle=bad)
    # a fan at a tiny corner angle would place thousands of rows before
    # its first hinge fails; one glue per role refuses it up front
    for tiny in (1e-5, 1e-9):
        for build in (
            lambda: build_link(prof, pts, pts + np.array([30.0, 0.0, 0.0]), corner_angle=tiny),
            lambda: build_x1(prof, pts, corner_angle=tiny),
            lambda: build_anchor_gadget(prof, corner_angle=tiny),
        ):
            with pytest.raises(ConstraintViolation) as err:
                build()
            assert err.value.name == "apex_coincidence"


def test_x1_census():
    prof = tetra_profile(REGULAR)
    out = build_x1(prof, embed_from_distances(REGULAR))
    notes = out.cfg.notes
    assert len(out.tetra_copies) == 1 + notes["polygon_copies"] + notes["link_copies"]
    assert len(out.tetra_copies) == 383
    assert len(out.cfg) == 416
    assert out.tetra_copies[0] == (0, 1, 2, 3)
    check_copies(out.cfg.points, out.tetra_copies, REGULAR.sq_dist, "tetra copy")


def test_x1_named_copies_are_all_copies():
    out = build_x1(tetra_profile(REGULAR), embed_from_distances(REGULAR))
    distinct = sorted({tuple(sorted(t)) for t in out.tetra_copies})
    assert len(distinct) == 321
    assert enumerate_copies(out.cfg, REGULAR) == distinct


def test_anchor_gadget_named_copies_are_copies():
    cfg = build_anchor_gadget(tetra_profile(REGULAR)).cfg
    distinct = {tuple(sorted(t)) for t in cfg.named_copies["tetra"]}
    found = enumerate_copies(cfg, REGULAR)
    assert (len(distinct), len(found)) == (1_393, 2_449)
    assert distinct <= set(found)


def test_x1_wide_corner_angle_shrinks_build():
    prof = tetra_profile(REGULAR)
    out = build_x1(prof, embed_from_distances(REGULAR), corner_angle=2.0 * prof.theta)
    assert len(out.tetra_copies) == 117
    assert len(out.cfg) == 97
    check_copies(out.cfg.points, out.tetra_copies, REGULAR.sq_dist, "tetra copy")


def test_x1_accepts_relabeled_seed():
    seed = embed_from_distances(SKEW)[[2, 0, 3, 1]]
    out = build_x1(tetra_profile(SKEW), seed)
    first = out.cfg.points[list(out.tetra_copies[0])]
    assert np.abs(pairwise_sq_dists(first) - SKEW.sq_dist).max() < 1e-9
    check_copies(out.cfg.points, out.tetra_copies, SKEW.sq_dist, "tetra copy")
    # stored copies must be in row order; a relabeled one is rejected
    copies = list(out.tetra_copies)
    copies[5] = tuple(copies[5][i] for i in (2, 0, 3, 1))
    with pytest.raises(GeometryError, match=re.escape(f"tetra copy {copies[5]}")):
        check_copies(out.cfg.points, copies, SKEW.sq_dist, "tetra copy")


@pytest.mark.parametrize(
    "build, points, copies",
    [
        (lambda prof, pts: build_x1(prof, pts), 738, 671),
        (lambda prof, pts: build_link(prof, pts, pts + np.array([30.0, 0.0, 0.0])), 727, 484),
        (lambda prof, pts: build_anchor_gadget(prof), 3145, 3569),
    ],
    ids=["x1", "link", "anchor-gadget"],
)
def test_role_asymmetric_builds(build, points, copies):
    # SKEW's two vertex roles differ in theta and in path step
    prof = tetra_profile(SKEW)
    out = build(prof, embed_from_distances(SKEW))
    assert (len(out.cfg), len(out.tetra_copies)) == (points, copies)
    check_copies(out.cfg.points, out.tetra_copies, SKEW.sq_dist, "tetra copy")


def test_x1_rejects_incongruent_seed():
    prof = tetra_profile(REGULAR)
    with pytest.raises(ConstraintViolation) as err:
        build_x1(prof, 1.1 * embed_from_distances(REGULAR))
    assert err.value.name == "seed_congruence"


def test_anchor_gadget_regular():
    prof = tetra_profile(REGULAR)
    out = build_anchor_gadget(prof, k=1)
    notes = out.cfg.notes
    assert len(notes["path"]) == 3
    assert notes["attachment_copies"] == 16
    assert len(out.tetra_copies) == 1 + 16 + sum(notes["gluing_copy_counts"])
    check_copies(out.cfg.points, out.tetra_copies, REGULAR.sq_dist, "tetra copy")


@pytest.mark.parametrize("k, placements", [(1, 688), (2, 1032)])
def test_anchor_gadget_solves_each_distinct_hinge_once(k, placements):
    notes = build_anchor_gadget(tetra_profile(REGULAR), k=k).cfg.notes
    assert notes["hinges"] == placements
    assert notes["distinct_hinges"] <= 32
    assert 0.0 <= notes["max_rel_sq_err"] <= 1e-14
    if k == 1:
        assert notes["distinct_copies"] == 1393


def test_finish_checks_rows_placed_from_a_reused_hinge(monkeypatch):
    # Anchor k=1 places 688 hinges from 16 distinct ones, so its last row
    # comes from a reused hinge; tampering with it must still fail the
    # final check, which names the first copy holding that row.
    finish = tetra._Builder.finish
    named = []

    def tamper_then_finish(self, extra_notes):
        last = len(self.ws._vals) - 1
        named.append(next(t for t in self.copies if last in t))
        self.ws._vals[last][0] += 1e-3
        return finish(self, extra_notes)

    monkeypatch.setattr(tetra._Builder, "finish", tamper_then_finish)
    with pytest.raises(GeometryError) as err:
        build_anchor_gadget(tetra_profile(REGULAR), k=1)
    assert str(err.value).startswith(f"tetra copy {named[0]} is off")


def walked_anchor_gadget(monkeypatch, *args, **kwargs):
    """The anchor gadget with the glued double polygon walked on every
    attached copy, the reference its template replay must equal."""
    with monkeypatch.context() as m:
        m.setattr(tetra._Builder, "replay", lambda self, tpl, seed: self.glued_polygons(seed))
        return build_anchor_gadget(*args, **kwargs)


@pytest.mark.parametrize(
    "spec, k, corner_angle",
    [(REGULAR, 1, None), (REGULAR, 2, None), (SKEW, 1, None), (REGULAR, 1, 0.9), (SKEW, 1, 1.5)],
    ids=["regular", "regular-k2", "skew", "regular-corner-0.9", "skew-corner-1.5"],
)
def test_template_replay_equals_the_walk(monkeypatch, spec, k, corner_angle):
    prof = tetra_profile(spec)
    got = build_anchor_gadget(prof, k=k, corner_angle=corner_angle)
    want = walked_anchor_gadget(monkeypatch, prof, k=k, corner_angle=corner_angle)
    assert got.cfg.points.shape == want.cfg.points.shape
    assert got.tetra_copies == want.tetra_copies
    assert np.abs(got.cfg.points - want.cfg.points).max() <= 1e-12
    for key in ("hinges", "distinct_hinges", "distinct_copies", "gluing_copy_counts"):
        assert got.cfg.notes[key] == want.cfg.notes[key], key
    if corner_angle == 0.9:
        # attached copies share the fans at corners of three of their points
        assert len(got.cfg) == 6609


def test_template_replay_keeps_the_workspace_limit():
    with pytest.raises(GeometryError, match="exceeds the limit"):
        build_anchor_gadget(tetra_profile(REGULAR), corner_angle=0.3)


@pytest.mark.parametrize(
    "build, points, copies, most",
    [
        (lambda prof, pts: build_x1(prof, pts), 416, 383, 16),
        (lambda prof, pts: build_link(prof, pts, pts + np.array([30.0, 0.0, 0.0])), 748, 498, 8),
    ],
    ids=["x1", "link"],
)
def test_hinges_within_the_angle_grid_are_solved_once(build, points, copies, most):
    # corners of one true angle measure it a few ulps apart
    out = build(tetra_profile(REGULAR), embed_from_distances(REGULAR))
    assert (len(out.cfg), len(out.tetra_copies)) == (points, copies)
    assert out.cfg.notes["distinct_hinges"] <= most


def test_anchor_gadget_requires_condition():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0.05, 0], [3, 0.05, 0.05]])
    prof = tetra_profile(SimplexSpec.from_points(pts))
    with pytest.raises(ConstraintViolation) as err:
        build_anchor_gadget(prof)
    assert err.value.name == "condition"


def test_anchor_gadget_rejects_edge_off_face():
    prof = tetra_profile(SKEW)
    with pytest.raises(GeometryError):
        build_anchor_gadget(prof, edge=(prof.hmax_vertex, 0))
