import itertools
import json
import math
import os
import stat
import time
import tracemalloc

import numpy as np
import pytest

from egr import geometry
from egr.geometry import (
    CSR,
    Configuration,
    GeometryError,
    NonRealizableError,
    SimplexSpec,
    cayley_menger_volume,
    check_copies,
    congruence_check,
    embed_from_distances,
    enumerate_copies,
    is_nondegenerate,
    is_realizable,
    pairwise_sq_dists,
    read_json,
    sq_close,
    squared_distance,
    write_json_atomic,
)
from egr.rectangles import path_config, regular_simplex
from helpers import assert_canonical


def brute_force_congruence(A, B):
    """Oracle: try every bijection explicitly."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    n = len(A)
    da = pairwise_sq_dists(A)
    db = pairwise_sq_dists(B)
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            for j in range(i):
                if not sq_close(float(da[i, j]), float(db[perm[i], perm[j]])):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return perm
    return None


def random_rigid_motion(rng, dim):
    m = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(m)
    t = rng.standard_normal(dim)
    return q, t


def test_components_names_each_point_by_its_lowest_index():
    assert geometry.components(1, []) == [0]
    # Isolated points, a self-loop and a repeated pair.
    assert geometry.components(4, []) == [0, 1, 2, 3]
    assert geometry.components(4, [(2, 2)]) == [0, 1, 2, 3]
    assert geometry.components(5, [(4, 1), (1, 4), (4, 1), (3, 3)]) == [0, 1, 2, 3, 1]
    # A chain joined from its high end still takes its lowest index.
    assert geometry.components(6, [(5, 4), (4, 3), (3, 2), (0, 5)]) == [0, 1, 0, 0, 0, 0]
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        pairs = [tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(int(rng.integers(0, 2 * n)))]
        # Reference: n rounds of lowering both ends of every edge to their minimum.
        low = list(range(n))
        for _ in range(n):
            for i, j in pairs:
                low[i] = low[j] = min(low[i], low[j])
        assert geometry.components(n, pairs) == low


def test_squared_distance_basic():
    assert squared_distance([0.0, 0.0], [3.0, 4.0]) == 25.0
    with pytest.raises(GeometryError):
        squared_distance([0.0, 0.0], [1.0, 2.0, 3.0])


def test_sq_close_policy():
    assert sq_close(1.0, 1.0 + 5e-10)
    assert not sq_close(1.0, 1.0 + 5e-9)


def straddling_lattice():
    """2197 lattice points plus a pair 2e-8 apart on either side of a
    6-decimal rounding boundary, at indices 2197 and 2198."""
    axis = np.arange(13) * 0.1
    grid = np.array(list(itertools.product(axis, axis, axis)))
    pair = np.array([[0.05, 0.05, 0.05000049], [0.05, 0.05, 0.05000051]])
    return grid, pair


def high_dim_cloud():
    """2500 points in E^200 plus one far point that widens the window,
    so the first projection's window holds about 190,000 candidate
    pairs; the near pair sits at indices 2501 and 2502."""
    rng = np.random.default_rng(5)
    cloud = rng.uniform(0.0, 1.0, size=(2500, 200))
    far = np.zeros((1, 200))
    far[0, 0] = 1000.0
    p = rng.uniform(0.0, 1.0, size=200)
    pair = np.vstack([p, p + 0.01 / math.sqrt(200)])
    return np.vstack([cloud, far]), pair


def test_configuration_rejects_coincident_points():
    with pytest.raises(GeometryError):
        Configuration(points=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    for base, pair in (straddling_lattice(), high_dim_cloud()):
        Configuration(points=np.vstack([base, pair[:1]]))
        n = len(base)
        with pytest.raises(GeometryError, match=f"points {n} and {n + 1} coincide"):
            Configuration(points=np.vstack([base, pair]))


def test_coincidence_threshold_ignores_translation():
    tri = embed_from_distances(SimplexSpec.regular(3, 1.0))
    far = Configuration(points=tri + np.array([1e5, 7e4]))
    assert np.array_equal(pairwise_sq_dists(far.points) > 0.5, ~np.eye(3, dtype=bool))
    with pytest.raises(GeometryError, match="points 0 and 3 coincide"):
        Configuration(points=np.vstack([tri, tri[:1] + 1e-6]) + np.array([1e5, 7e4]))


def test_coincident_pair_inside_the_threshold_is_found_in_every_direction():
    # The threshold distance is sqrt(REL_TOL) times the largest per-axis
    # extent (1 here).  A pair at 0.9 of it must be found along every
    # direction, whatever the projections the sweep draws; one at 1.1 of
    # it is kept.
    limit = math.sqrt(geometry.REL_TOL)
    for k in range(12):
        step = limit * np.array([math.cos(k * math.pi / 12), math.sin(k * math.pi / 12)])
        frame = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        with pytest.raises(GeometryError, match="points 2 and 3 coincide"):
            Configuration(points=np.vstack([frame, frame[2] + 0.9 * step]))
        Configuration(points=np.vstack([frame, frame[2] + 1.1 * step]))


def test_check_copies_refuses_a_copy_two_slacks_off():
    # The slack is REL_TOL of the largest wanted squared distance: a pair
    # 2 slacks long is refused, one half a slack long passes.
    want = [[0.0, 4.0], [4.0, 0.0]]
    slack = geometry.sq_slack(4.0)
    check_copies(np.array([[0.0], [math.sqrt(4.0 + 0.5 * slack)]]), [(0, 1)], want)
    with pytest.raises(GeometryError, match=r"copy \(0, 1\)"):
        check_copies(np.array([[0.0], [math.sqrt(4.0 + 2.0 * slack)]]), [(0, 1)], want)


def test_check_copies_names_the_bad_tuple():
    pts = np.vstack([embed_from_distances(SimplexSpec.triangle(1.0, 1.2, 1.4)), np.zeros((1, 2))])
    spec = SimplexSpec.triangle(1.0, 1.2, 1.4).sq_dist
    check_copies(pts, [(0, 1, 2)], spec)
    tampered = pts.copy()
    tampered[2, 0] += 1e-4
    with pytest.raises(GeometryError, match=r"copy \(0, 1, 2\)"):
        check_copies(tampered, [(0, 1, 2)], spec)
    # a relabeled copy of a scalene triangle is not in row order
    with pytest.raises(GeometryError, match=r"copy \(1, 0, 2\)"):
        check_copies(pts, [(0, 1, 2), (1, 0, 2)], spec)

    # a batch several chunks long whose only bad tuple is the last one
    wide = np.zeros((4, 4096))
    wide[:, :2] = pts
    per_chunk = geometry._GATHER_ENTRIES // (3 * wide.shape[1])
    batch = [(0, 1, 2)] * (3 * per_chunk + 5) + [(0, 1, 3)]
    with pytest.raises(GeometryError, match=r"copy \(0, 1, 3\)"):
        check_copies(wide, batch, spec)
    check_copies(wide, batch[:-1], spec)


def test_configuration_validates_copies_and_labels():
    empty = CSR(np.zeros(1, np.intp), np.empty(0, np.intp), np.empty(0), (0, 2))
    for bad in (np.zeros(3), np.zeros((1, 2, 2)), np.zeros((0, 2)), np.zeros((2, 0)), empty):
        with pytest.raises(GeometryError, match="non-empty 2-D array"):
            Configuration(points=bad)
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(GeometryError):
        Configuration(points=pts, labels=["a"])
    with pytest.raises(GeometryError):
        Configuration(points=pts, named_copies={"bad": [(0, 5)]})
    for bad in [(0.9, 1), (True, 0), ("1", 0)]:
        with pytest.raises(GeometryError):
            Configuration(points=pts, named_copies={"bad": [bad]})
    cfg = Configuration(points=pts, labels=["a", "b"], named_copies={"pair": [(np.int64(0), 1)]})
    assert cfg.named_copies["pair"] == [(0, 1)]
    assert type(cfg.named_copies["pair"][0][0]) is int


def test_configuration_json_round_trip(tmp_path):
    cfg = Configuration(
        points=np.array([[0.0, 0.1234567890123456], [1.0, 2.0]]),
        labels=["p", "q"],
        named_copies={"pair": [(0, 1)]},
    )
    path = tmp_path / "cfg.json"
    cfg.save(str(path))
    back = Configuration.load(str(path))
    assert np.array_equal(back.points, cfg.points)
    assert back.labels == cfg.labels
    assert back.named_copies == cfg.named_copies
    # every bit survives; array_equal calls -0.0 equal to 0.0, so compare bit patterns
    edge = Configuration(points=np.array([[-0.0, 5e-324, 1.0 / 3.0, 1e308]]))
    edge.save(str(path))
    back = Configuration.load(str(path))
    assert np.array_equal(back.points.view(np.uint64), edge.points.view(np.uint64))


def test_write_json_atomic_is_one_compact_dump(tmp_path):
    payload = {"dim": 2, "points": [[0.1, -2.5], [1e-300, 3.0]], "notes": {"kind": "x", "ok": True}}
    path = tmp_path / "out.json"
    write_json_atomic(str(path), payload)
    assert path.read_text() == json.dumps(payload) + "\n"
    # an ndarray value is written as its tolist(); rows with a non-finite
    # entry are spelled as json spells them
    odd = {"points": np.array([[0.0, np.nan], [np.inf, -0.0], [0.0, 0.0]]), "n": 3}
    write_json_atomic(str(path), odd)
    assert path.read_text() == json.dumps({**odd, "points": odd["points"].tolist()}) + "\n"
    odd = {"points": np.array([[np.nan, 1.0], [-np.inf, 2.5]])}  # a block of mostly nonzero entries
    write_json_atomic(str(path), odd)
    assert path.read_text() == json.dumps({"points": odd["points"].tolist()}) + "\n"
    # the file gets the mode a plain open gives under the umask
    for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
        old = os.umask(umask)
        try:
            write_json_atomic(str(path), payload)
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode


def _sparse_rows(rng, n: int, dim: int, per_row: int) -> np.ndarray:
    pts = np.zeros((n, dim))
    for row in pts:
        row[rng.choice(dim, per_row, replace=False)] = rng.standard_normal(per_row)
    return pts


def _csr(points: np.ndarray) -> CSR:
    nz = points != 0.0
    return CSR(np.concatenate(([0], np.cumsum(nz.sum(axis=1)))), np.nonzero(nz)[1], points[nz], points.shape)


def _check_outcome(points, tuples, want):
    """check_copies' worst relative error, or its error message."""
    try:
        return check_copies(points, tuples, want)
    except GeometryError as err:
        return str(err)


def test_check_copies_reads_csr_rows_as_it_reads_dense_rows():
    outcomes = {float: 0, str: 0}
    for seed in range(80):
        rng = np.random.default_rng(seed)
        k, dim = int(rng.integers(2, 6)), 40
        template = _sparse_rows(rng, k, dim, int(rng.integers(1, 4)))
        if seed % 3 == 0:
            # rows that share no column, the first of them all zero
            template = np.zeros((k, dim))
            template[np.arange(1, k), rng.choice(dim, k - 1, replace=False)] = rng.standard_normal(k - 1)
        want = pairwise_sq_dists(template)
        # copies under coordinate permutations and sign flips, then
        # noise rows and an all-zero row
        copies = [template[:, rng.permutation(dim)] * rng.choice([-1.0, 1.0], dim) for _ in range(6)]
        pts = np.vstack(copies + [_sparse_rows(rng, 8, dim, 2), np.zeros((1, dim))])
        tuples = [tuple(range(c * k, c * k + k)) for c in range(6)]
        if seed % 4 == 1:
            tuples.insert(int(rng.integers(7)), tuple(rng.choice(len(pts), k, replace=False)))
        pts[rng.integers(len(pts)), rng.integers(dim)] += rng.choice([1e-3, 1e-7, 1e-13])
        dense = _check_outcome(pts, tuples, want)
        sparse = _check_outcome(_csr(pts), tuples, want)
        assert type(sparse) is type(dense), (seed, dense, sparse)
        if isinstance(dense, str):
            assert sparse == dense
        else:
            assert abs(sparse - dense) <= 1e-12
        outcomes[type(dense)] += 1
    assert min(outcomes.values()) >= 20, outcomes

    zero = _csr(np.zeros((2, 3)))
    assert check_copies(zero, [(0, 1)], np.zeros((2, 2))) == 0.0
    with pytest.raises(GeometryError, match=r"copy \(0, 1\) is off"):
        check_copies(zero, [(0, 1)], [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_copies_refuses_non_finite_points(bad):
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [bad, 0.0, 0.0]])
    want = SimplexSpec.pair(1.0).sq_dist
    for points in (pts, _csr(pts)):
        assert check_copies(points, [(0, 1), (1, 0)], want) == 0.0
        with pytest.raises(GeometryError, match=r"copy \(1, 2\) is off"):
            check_copies(points, [(0, 1), (1, 2)], want)
        # the non-finite point as the tuple's own origin
        with pytest.raises(GeometryError, match=r"copy \(2, 1\) is off"):
            check_copies(points, [(0, 1), (2, 1)], want)


@pytest.mark.parametrize(
    "points",
    [
        np.array([[-0.0, 5e-324, 1e308, -1e-320, 0.0, 12345678901234567.0]]),
        np.array([[1e-310, 0.0, 1.0 / 3.0], [-0.0, -0.0, 1024.0], [2.0, -3.0, 0.0]]),
        np.random.default_rng(1).standard_normal((7, 5)),
        _sparse_rows(np.random.default_rng(2), 50, 5000, 3),  # several blocks of rows
    ],
    ids=["extremes", "integral", "dense", "sparse"],
)
def test_save_writes_what_json_dumps_writes(points, tmp_path):
    cfg = Configuration(
        points=points,
        labels=[f"p{i}" for i in range(len(points))],
        named_copies={"pair": [(0, len(points) - 1)]},
        notes={"kind": "test", "eps": -0.0, "side": 1e-300},
    )
    path = tmp_path / "cfg.json"
    cfg.save(str(path))
    assert path.read_text() == json.dumps(cfg.to_json_dict()) + "\n"
    back = Configuration.load(str(path))
    assert np.array_equal(back.points.view(np.uint64), points.view(np.uint64))


def test_save_and_load_memory_follows_the_array(tmp_path):
    cfg = Configuration(points=_sparse_rows(np.random.default_rng(0), 1500, 1500, 8))
    path = tmp_path / "cfg.json"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cfg.save(str(path))
        save_extra = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = Configuration.load(str(path))
        load_extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.points.view(np.uint64), cfg.points.view(np.uint64))
    assert save_extra < 8e6
    assert load_extra < path.stat().st_size + 1.5 * cfg.points.nbytes


def test_save_memory_stays_near_one_block_on_distinct_values(tmp_path):
    # 48,000 distinct nonzero values at 10% density: the writer formats
    # each once but keeps only about a block's worth of their texts (about
    # 6 MB at the peak), where keeping them all would take over 10 MB.
    points = np.zeros((12_000, 40))
    points[:, ::10] = np.random.default_rng(1).standard_normal((12_000, 4))
    cfg = Configuration(points=points)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cfg.save(str(tmp_path / "cfg.json"))
        save_extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert save_extra < 8e6


def _reads_as_json_load(path, text: str):
    """``read_json`` of ``text`` is ``json.load`` of it with each
    rectangular number-row ``points`` value as canonical rows whose dense
    float64 array equals it bit for bit, or raises json's exact error."""
    path.write_text(text)
    try:
        with open(path) as fh:
            want = json.load(fh)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            read_json(str(path))
        assert str(got.value) == str(exc), text
        return
    got, rows = read_json(str(path)), want["points"]
    if all(type(row) is list and len(row) == len(rows[0]) > 0 and {type(x) for x in row} <= {int, float} for row in rows):
        try:
            ref = np.asarray(rows, dtype=float).view(np.uint64)
        except OverflowError:  # an integer beyond float range: a list, as from json
            ref = None
        if ref is not None:
            assert_canonical(got["points"])
            assert np.array_equal(got["points"].dense().view(np.uint64), ref), text
            got["points"] = want["points"] = None
    assert json.dumps(got) == json.dumps(want), text


@pytest.mark.parametrize(
    "token",
    ["0.0", " 0.0", "  0.0", "0.0 ", "\n0.0", "0.00", "0", "-0.0", "0e0", "+0.0", "00", ".0", "0.", "0.0.0",
     "", '"1.5"', "true", "null", "[2]", "{}", "NaN", "-Infinity", "1e400", "1" + "0" * 400],
    ids=lambda token: repr(token) if len(token) < 10 else f"{len(token)} digits",
)
def test_read_json_reads_each_token_as_json_does(tmp_path, token):
    # first, inside and last in a row, among zeros (tokens sliced out) and
    # among nonzeros (the whole chunk decoded), in default and compact form
    for at in (0, 4, 8):
        for fill in ("0.0", "1.5"):
            row = [fill] * 9
            row[at] = token
            for sep in (", ", ","):
                rows = [sep.join(row), sep.join(["0.0"] * 8 + ["2.5"])]
                _reads_as_json_load(tmp_path / "t.json", '{"dim": 9, "points": [[%s]]}' % f"]{sep}[".join(rows))


@pytest.mark.parametrize(
    "points",
    [
        "[[1.0, 0.0],\n  [0.0, 2.0]]",  # indented
        "[ [1.0,0.0] ,\r\n\t[0.0,2.0] ]",  # whitespace inside the brackets and around the comma
        "[[1.0, 0.0],\r\n[0.0, 2.0],\r\n[0.0, 0.0]]",  # CRLF line ends
        "[[1.0, 0.0]\n,\n[0.0, 2.0]]",
        "[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]",
        "[[1.0, 0.0] [0.0, 2.0]]",  # no comma between rows
        "[[1.0, 0.0],, [0.0, 2.0]]",
        "[[1.0, 0.0], 5, [0.0, 2.0]]",
        "[[1.0, 0.0], [0.0, 2.0], ]",
        "[[1.0, 0.0], [0.0]]",  # ragged
        "[[1.0], [0.0, 2.0]]",
        "[[1.0, 0.0], [[0.0, 2.0]]]",  # nested
        "[[1.0, [0.0]], [0.0, 2.0]]",
        "[[]]",
        "[[], []]",
        "[[1.0, 0.0]]5",  # a number right after the array
        "[[1.0, 0.0]]e5",
        "[[1.0, 0.0]].5",
        "[[1.0, 0.0]] 5",
        "[[1.0, 0.0]]0",
    ],
)
def test_read_json_reads_rows_as_json_does(tmp_path, points):
    _reads_as_json_load(tmp_path / "t.json", '{"dim": 2, "points": %s}' % points)
    _reads_as_json_load(tmp_path / "t.json", '{"points": %s, "dim": 2}' % points)
    # UTF-8 keys and strings on both sides of the array, and a byte order
    # mark, which json.load refuses
    _reads_as_json_load(tmp_path / "t.json", '{"ключ": "é", "points": %s, "日本": ["ñ", 1.5]}' % points)
    _reads_as_json_load(tmp_path / "t.json", '\ufeff{"points": %s}' % points)


@pytest.mark.parametrize("key", ['"\\u0070oints"', '"p\\u006fint\\u0073"', '"points\\u0020"', '"\\\\points"'])
def test_read_json_decodes_escaped_keys(tmp_path, key):
    path = tmp_path / "t.json"
    path.write_text('{"dim": 2, %s: [[1.0, 0.0], [0.0, -2.5]]}' % key)
    got, want = read_json(str(path)), json.loads(path.read_text())
    assert list(got) == list(want)
    if "points" in want:
        assert isinstance(got["points"], CSR)
        assert np.array_equal(got["points"].dense(), want["points"])
    else:
        assert got == want


def test_read_json_splices_arrays_for_a_literal_the_file_lacks(tmp_path):
    # the note holds the first placeholder the reader would try, 1. and 21
    # zeros, so the array goes in under a longer one
    path = tmp_path / "t.json"
    path.write_text('{"dim": 2, "points": [[0.0, 1.0], [2.0, 3.0]], "notes": {"x": 1.%s}}' % ("0" * 21))
    got = read_json(str(path))
    assert got["notes"] == {"x": 1.0}
    assert np.array_equal(got["points"].dense(), [[0.0, 1.0], [2.0, 3.0]])


def test_write_json_atomic_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    # a set, and arrays the rows writer does not take
    for bad in ({1, 2}, np.zeros(3), np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(TypeError):
            write_json_atomic(str(path), {"points": bad})
        assert path.read_text() == "old\n"
        assert not list(tmp_path.glob("*.tmp"))


def test_simplex_spec_validation():
    with pytest.raises(GeometryError):
        SimplexSpec(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(GeometryError):
        SimplexSpec(np.array([[0.0, 0.0], [0.0, 0.0]]))  # zero off-diagonal
    with pytest.raises(NonRealizableError):
        SimplexSpec.triangle(1.0, 1.0, 5.0)  # violates triangle inequality
    # Degenerate but realizable is allowed.
    spec = SimplexSpec.triangle(1.0, 1.0, 2.0)
    assert spec.k == 3


def test_congruence_unit_square_vs_rotated():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    rng = np.random.default_rng(7)
    q, t = random_rigid_motion(rng, 2)
    moved = square @ q.T + t
    reflected = moved @ np.diag([1.0, -1.0])
    for other in (moved, reflected):
        perm = congruence_check(square, other)
        assert perm is not None
        assert brute_force_congruence(square, other) is not None


def test_congruence_rejects_rhombus():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    # Same side lengths, different diagonals.
    h = math.sqrt(3.0) / 2.0
    rhombus = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, h], [0.5, h]])
    assert congruence_check(square, rhombus) is None
    assert brute_force_congruence(square, rhombus) is None


def test_congruence_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(12345)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 4))
        a = rng.standard_normal((n, dim))
        if trial % 2 == 0:
            q, t = random_rigid_motion(rng, dim)
            b = a @ q.T + t
            b = b[rng.permutation(n)]
        else:
            b = rng.standard_normal((n, dim))
        # The brute force tries permutations in lexicographic order.
        assert congruence_check(a, b) == brute_force_congruence(a, b)


def test_congruence_size_mismatch_and_cap():
    with pytest.raises(GeometryError):
        congruence_check(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(GeometryError):
        congruence_check(np.zeros((13, 2)), np.zeros((13, 2)))


def test_congruence_returns_lex_first_permutation_with_twin_rows():
    # Integer corners give exactly equal squared distances, so twin rows.
    square = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    isosceles = np.array([[0, 0], [2, 0], [1, 3]], dtype=float)
    regular = np.eye(5)
    rng = np.random.default_rng(2718)
    for pts in (square, isosceles, regular):
        for _ in range(4):
            moved = pts[rng.permutation(len(pts))] + rng.integers(-3, 4, size=pts.shape[1])
            assert congruence_check(pts, moved) == brute_force_congruence(pts, moved)


def test_congruence_of_one_point_and_of_none():
    assert congruence_check(np.zeros((1, 2)), np.ones((1, 2))) == (0,)
    assert congruence_check(np.zeros((0, 2)), np.zeros((0, 3))) == ()


@pytest.mark.parametrize("t", [1e3, 1e4, 1e5])
def test_congruence_ignores_translation(t):
    # A's distances are measured from its first point and B's pairs are
    # decided in difference form near a tolerance edge, so moving either
    # set far from the origin keeps the bijection.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    b = (a @ q.T)[rng.permutation(6)]
    perm = congruence_check(a, b)
    assert perm is not None and perm == brute_force_congruence(a, b)
    assert congruence_check(a + t, b) == congruence_check(a, b + t) == perm


def test_congruence_twelve_point_regular_simplex_is_fast():
    a = embed_from_distances(SimplexSpec.regular(12, 1.0))
    rng = np.random.default_rng(12)
    q, t = random_rigid_motion(rng, a.shape[1])
    b = (a @ q.T + t)[rng.permutation(12)]
    start = time.perf_counter()
    perm = congruence_check(a, b)
    assert time.perf_counter() - start < 1.0
    assert perm is not None
    check_copies(b, [perm], pairwise_sq_dists(a))


def test_enumerate_copies_grid_squares():
    grid = np.array([[x, y] for x in range(3) for y in range(3)], dtype=float)
    cfg = Configuration(points=grid)
    spec = SimplexSpec.from_points([[0, 0], [1, 0], [0, 1], [1, 1]])
    copies = enumerate_copies(cfg, spec)
    # Oracle: brute force over all 4-subsets.
    expected = []
    for sub in itertools.combinations(range(9), 4):
        if congruence_check(grid[list(sub)], np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float)):
            expected.append(tuple(sub))
    assert copies == sorted(expected)
    assert len(copies) == 4


def test_enumerate_copies_complete_on_planted_instances():
    rng = np.random.default_rng(99)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 4))
        base = rng.standard_normal((k, dim))
        spec = SimplexSpec.from_points(base)
        planted = []
        cloud = 8.0 * rng.standard_normal((int(rng.integers(5, 12)), dim))
        pts = [row for row in cloud]
        n_plants = int(rng.integers(1, 4))
        for p in range(n_plants):
            q, t = random_rigid_motion(rng, dim)
            copy = base @ q.T + t + 40.0 * (p + 1)
            planted.append(tuple(range(len(pts), len(pts) + k)))
            pts.extend(copy)
        cfg = Configuration(points=np.array(pts))
        copies = enumerate_copies(cfg, spec)
        emb = embed_from_distances(spec)
        for tup in copies:
            assert congruence_check(cfg.points[list(tup)], emb) is not None
        for tup in planted:
            assert tuple(sorted(tup)) in copies


def test_enumerate_copies_tolerance_is_relative():
    # 0.4% off is off at any scale, not only at side 1
    tri = Configuration(points=embed_from_distances(SimplexSpec.regular(3, 1e-5)))
    assert len(enumerate_copies(tri, SimplexSpec.pair(1e-5))) == 3
    assert enumerate_copies(tri, SimplexSpec.pair(1.004e-5)) == []
    assert enumerate_copies(tri, SimplexSpec.regular(3, 1.004e-5)) == []


def test_enumerate_copies_caps(monkeypatch):
    # A 10^3 lattice has 2,700 unit pairs, stored as 5,400 ordered pairs
    # of one key each; the refusal names the count and the limit.
    lattice = Configuration(points=np.array(list(itertools.product(range(10), repeat=3)), dtype=float))
    monkeypatch.setattr(geometry, "MAX_ENTRIES", 5399)
    refusal = "neighbour lists after 1000 of 1000 points would store 5400 entries, more than the limit of 5399"
    with pytest.raises(GeometryError, match=refusal):
        enumerate_copies(lattice, SimplexSpec.pair(1.0))
    monkeypatch.setattr(geometry, "MAX_ENTRIES", 5400)
    assert len(enumerate_copies(lattice, SimplexSpec.pair(1.0))) == 2700
    with pytest.raises(GeometryError, match="spec size 6"):
        enumerate_copies(Configuration(points=lattice.points[:10]), SimplexSpec.regular(7, 1.0))


def test_enumerate_copies_counts_every_gathered_embedding(monkeypatch):
    # Read back from points in Gram form, the regular 6-point spec holds
    # two rounded side values, so its 924 copies in the 12-point simplex
    # are found 13,860 times; each gathered row of 6 indices is counted by
    # the size rule before the repeats are dropped, and bounds the copies
    # returned.
    spec = SimplexSpec(pairwise_sq_dists(embed_from_distances(SimplexSpec.regular(6, 1.0))))
    check_entries, counted = geometry.check_entries, []

    def check(what, entries):
        check_entries(what, entries)
        if "gathered" in what:
            counted.append(entries)

    monkeypatch.setattr(geometry, "check_entries", check)
    copies = enumerate_copies(regular_simplex(12, 1.0), spec)
    assert len(copies) == math.comb(12, 6) == 924
    assert counted == sorted(counted) and counted[-1] == 13_860 * 6


def test_enumerate_copies_memory_follows_the_candidates():
    # Past the old 4096-point bound: the distances are scanned in blocks
    # of rows, never held as an n x n matrix.
    cfg = path_config(6000, 1.5, 1.0).as_configuration()
    n = len(cfg)
    tracemalloc.start()
    try:
        found = enumerate_copies(cfg, SimplexSpec.pair(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [(i, i + 1) for i in range(n - 1)]
    assert peak < n * n * 8 // 10


def test_neighbour_lists_peak_near_their_stored_keys():
    # Two orthogonal circles of radius 1/sqrt(2) in E^4: every pair across
    # them is a unit chord and no pair on one circle is, so the lists
    # hold 2 x 1023 x 1025 keys, each ordered pair once.
    r = math.sqrt(0.5)
    pts = np.zeros((2048, 4))
    for start, count, axes in ((0, 1023, [0, 1]), (1023, 1025, [2, 3])):
        angles = 2.0 * math.pi * np.arange(count) / count
        pts[start : start + count, axes] = r * np.column_stack([np.cos(angles), np.sin(angles)])
    tracemalloc.start()
    try:
        (keys,) = geometry._neighbour_lists(pts, np.array([1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == 2 * 1023 * 1025
    assert peak <= 2.5 * keys.nbytes


@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_enumerate_copies_counts_ignore_translation(scale):
    # The 8^3 lattice, turned and moved far from the origin: the Gram
    # form's rounding there reaches past the tolerance, so pairs near a
    # tolerance edge are decided in difference form and every offset
    # gives the counts of the lattice at the origin.
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    lattice = np.array(list(itertools.product(range(8), repeat=3)), dtype=float) @ q.T * scale
    specs = [SimplexSpec.pair(scale), SimplexSpec.rectangle(scale, scale), SimplexSpec.regular(3, math.sqrt(2.0) * scale)]
    for offset in (0.0, 1e2, 1e3, 3e3, 1e4, 1e5):
        cfg = Configuration(points=lattice + offset * scale)
        assert [len(enumerate_copies(cfg, spec)) for spec in specs] == [1344, 1176, 2744]


def brute_force_copies(points, spec):
    """Oracle: every k-subset, tried in every vertex order."""
    d = pairwise_sq_dists(points)
    subs = np.array(list(itertools.combinations(range(len(points)), spec.k)))
    hit = np.zeros(len(subs), dtype=bool)
    for perm in itertools.permutations(range(spec.k)):
        idx = subs[:, perm]
        hit |= sq_close(d[idx[:, :, None], idx[:, None, :]], spec.sq_dist).all(axis=(1, 2))
    return [tuple(int(i) for i in sub) for sub in subs[hit]]


LATTICE_SPECS = {
    # corners and the order of the spec's automorphism group: with single
    # row swaps ...
    "isosceles": ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], 2),
    "regular-triangle": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 6),
    "regular-tetrahedron": ([[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]], 24),
    "square": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], 8),
    # ... with double swaps only, row 3 drawing its candidates from row
    # 2's list and, with the rows permuted, from row 1's ...
    "rectangle": ([[0, 0, 0], [2, 0, 0], [0, 1, 0], [2, 1, 0]], 4),
    "rectangle-permuted": ([[0, 0, 0], [2, 1, 0], [2, 0, 0], [0, 1, 0]], 4),
    # ... and none.
    "scalene": ([[0, 0, 0], [1, 0, 0], [0, 2, 0]], 1),
}


def rotation(a: float, b: float) -> np.ndarray:
    """A rotation by a about the z axis after one by b about the x axis."""
    ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    about_z = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    about_x = np.array([[1.0, 0.0, 0.0], [0.0, cb, -sb], [0.0, sb, cb]])
    return about_z @ about_x


@pytest.mark.parametrize("name", sorted(LATTICE_SPECS))
def test_enumerate_copies_matches_brute_force_on_lattice_clouds(name):
    corners, order = LATTICE_SPECS[name]
    spec = SimplexSpec.from_points(np.array(corners, dtype=float))
    perms = itertools.permutations(range(spec.k))
    assert sum(np.array_equal(spec.sq_dist[np.ix_(p, p)], spec.sq_dist) for p in perms) == order
    # Entry (i, j) moved up i + j ulps, as rounding a turned copy's
    # distances may move them on one BLAS kernel, the equal distances of
    # every symmetric spec come apart on any, so the exact automorphisms
    # no longer prune.
    turn = rotation(0.3, 0.4)
    i, j = np.indices(spec.sq_dist.shape)
    sq = spec.sq_dist.copy()
    for step in range(1, 2 * spec.k - 2):
        sq = np.where((i != j) & (i + j >= step), np.nextafter(sq, np.inf), sq)
    rounded = SimplexSpec(sq)
    off = ~np.eye(spec.k, dtype=bool)
    assert order == 1 or len(np.unique(rounded.sq_dist[off])) > len(np.unique(spec.sq_dist[off]))
    lattice = np.array(list(itertools.product(range(3), repeat=3)), dtype=float)
    rng = np.random.default_rng(7)
    for _ in range(4):
        pts = lattice[rng.permutation(len(lattice))[: int(rng.integers(12, 20))]]
        copies = enumerate_copies(Configuration(points=pts), spec)
        assert copies == brute_force_copies(pts, spec)
        # Automorphism pruning leaves one embedding per copy of an exact spec.
        assert sum(len(b) for b in geometry._embeddings(pts, spec.sq_dist)) == len(copies)
        # A rounded spec may be embedded several times per copy; the
        # repeats are dropped.
        moved = pts @ turn.T
        assert enumerate_copies(Configuration(points=moved), rounded) == brute_force_copies(moved, rounded) == copies


@pytest.mark.parametrize("a, b", [(1.0, 0.6), (1.5, 1.0), (0.3, 7.0)])
def test_rectangle_spec_keeps_the_rectangle_symmetries(a, b):
    # Filled in closed form, equal sides hold equal values, so the
    # exact-equality pruning sees the Klein group: every row is in row
    # 0's orbit, and only the identity fixes row 0.
    s = SimplexSpec.rectangle(a, b).sq_dist
    assert s[0].tolist() == [0.0, a * a, b * b, a * a + b * b]
    for perm in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
        assert np.array_equal(s[np.ix_(perm, perm)], s)
    assert geometry._stabiliser_orbits(s) == [[], [0], [0], [0]]


def test_enumerate_copies_of_a_rounded_spec_equal_the_exact_ones():
    # The Gram form rounds the rectangle's equal sides apart (0.36 and
    # 0.3599999999999999, say), where from_points' difference form keeps
    # them equal: each value gets its own neighbour list,
    # fewer automorphisms prune, each copy may be found in several
    # orders, and once the repeats are dropped the copies are the exact
    # spec's.
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.6], [1.0, 0.6]])
    rounded = SimplexSpec(pairwise_sq_dists(corners))
    exact = SimplexSpec.rectangle(1.0, 0.6)
    assert np.array_equal(SimplexSpec.from_points(corners).sq_dist, exact.sq_dist)
    assert not np.array_equal(rounded.sq_dist, exact.sq_dist)
    pts = np.array(list(itertools.product([0.0, 1.0, 2.0], [0.0, 0.6, 1.2], [0.0, 1.0])))
    copies = enumerate_copies(Configuration(points=pts), rounded)
    assert len(copies) == 14
    assert copies == enumerate_copies(Configuration(points=pts), exact) == brute_force_copies(pts, exact)


def test_enumerate_copies_with_close_unequal_spec_distances():
    # A right isosceles triangle whose legs differ by 0.8e-9 (relative):
    # within tolerance of each other, yet a point pair may be close to
    # one leg and not the other, so each leg is matched on its own value
    # and the swap of rows 1 and 2, not an exact automorphism, does not
    # prune.
    spec = SimplexSpec(np.array([[0.0, 1.0, 1.0 + 0.8e-9], [1.0, 0.0, 2.0], [1.0 + 0.8e-9, 2.0, 0.0]]))

    def triangle(u: float, v: float) -> np.ndarray:
        """Legs u and v (squared) from point 0; points 1 and 2 are 2 apart."""
        x = (u + v - 2.0) / (2.0 * math.sqrt(u))
        return np.array([[0.0, 0.0], [math.sqrt(u), 0.0], [x, math.sqrt(v - x * x)]])

    # Legs 1 + 1.6e-9 (close to the long leg only) and 1 - 0.5e-9 (close
    # to the short leg only): only the order that swaps rows 1 and 2 fits.
    swapped = triangle(1.0 + 1.6e-9, 1.0 - 0.5e-9)
    # Both legs close to the long leg only: no order fits.
    neither = triangle(1.0 + 1.6e-9, 1.0 + 1.6e-9)
    for pts, want in ((swapped, [(0, 1, 2)]), (neither, [])):
        assert brute_force_copies(pts, spec) == want
        assert enumerate_copies(Configuration(points=pts), spec) == want
    # Legs 1.5e-9 apart: both orders fit a triangle whose legs sit
    # between them, and the copy is listed once.
    spec = SimplexSpec(np.array([[0.0, 1.0, 1.0 + 1.5e-9], [1.0, 0.0, 2.0], [1.0 + 1.5e-9, 2.0, 0.0]]))
    middle = triangle(1.0 + 0.75e-9, 1.0 + 0.75e-9)
    assert sum(len(b) for b in geometry._embeddings(middle, spec.sq_dist)) == 2
    assert enumerate_copies(Configuration(points=middle), spec) == brute_force_copies(middle, spec) == [(0, 1, 2)]


def test_pairwise_sq_dists_symmetric_on_strided_input():
    pts = np.random.default_rng(3).standard_normal((300, 20))[:, ::2]
    d = pairwise_sq_dists(pts)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.allclose(d, pairwise_sq_dists(np.ascontiguousarray(pts)), rtol=0, atol=1e-12)


def test_cayley_menger_known_volumes():
    area = cayley_menger_volume(SimplexSpec.regular(3, 1.0))
    assert abs(area - math.sqrt(3.0) / 4.0) < 1e-14
    vol = cayley_menger_volume(SimplexSpec.regular(4, 1.0))
    assert abs(vol - math.sqrt(2.0) / 12.0) < 1e-14
    assert cayley_menger_volume(SimplexSpec.triangle(1.0, 1.0, 2.0)) == 0.0


def test_cayley_menger_matches_heron_on_random_triangles():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 1000:
        a, b, c = sorted(rng.uniform(0.2, 5.0, size=3))
        if a + b <= c + 1e-6:
            continue
        count += 1
        delta = 2 * (a * b) ** 2 + 2 * (b * c) ** 2 + 2 * (c * a) ** 2 - a**4 - b**4 - c**4
        heron = math.sqrt(max(delta, 0.0)) / 4.0
        got = cayley_menger_volume(SimplexSpec.triangle(a, b, c))
        assert abs(got - heron) <= 1e-12 * max(heron, 1.0)


def test_embed_triangle_2_2_3():
    spec = SimplexSpec.triangle(2.0, 2.0, 3.0)
    pts = embed_from_distances(spec)
    # Base of length 3 on the first axis, apex height = 2*Area/3.
    assert pts[0][0] == 0.0 and pts[0][1] == 0.0
    assert abs(pts[1][0] - 3.0) < 1e-12 and pts[1][1] == 0.0
    assert abs(pts[2][1] - math.sqrt(63.0) / 6.0) < 1e-12


def test_embed_round_trip_random_specs():
    rng = np.random.default_rng(5150)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        dim = int(rng.integers(1, 5))
        base = rng.standard_normal((k, dim)) * rng.uniform(0.5, 4.0)
        spec = SimplexSpec.from_points(base)
        pts = embed_from_distances(spec)
        got = pairwise_sq_dists(pts)
        for i in range(k):
            for j in range(i):
                assert sq_close(float(got[i, j]), float(spec.sq_dist[i, j]))
        # Triangular frame: point i has zeros beyond axis i-1.
        for i in range(k):
            assert np.all(pts[i, max(i, 1):] == 0.0)


def test_embed_rejects_unrealizable_quad():
    # Four points pairwise at distance 1 except one pair far apart.
    sq = np.full((4, 4), 1.0)
    np.fill_diagonal(sq, 0.0)
    sq[2, 3] = sq[3, 2] = 16.0
    assert not is_realizable(sq)
    with pytest.raises(NonRealizableError):
        SimplexSpec(sq)


def test_embed_points_far_apart_by_the_copy_rule():
    # The 1e-6 entry is below one ulp of 1e8, so no float64 rows meet it
    # within 1e-9 of itself; the rows meet the copy rule, 1e-9 of the
    # largest squared distance, as every builder's copies do.
    spec = SimplexSpec(np.array([[0.0, 1e8, 1e8 + 1e-6], [1e8, 0.0, 1e-6], [1e8 + 1e-6, 1e-6, 0.0]]))
    pts = embed_from_distances(spec)
    check_copies(pts, [(0, 1, 2)], spec.sq_dist)
    assert pts[1, 1] == 0.0 and pts[2, 1] >= 0.0


def test_realizability_predicates():
    reg = SimplexSpec.regular(4, 1.0)
    assert is_realizable(reg.sq_dist)
    assert is_nondegenerate(reg.sq_dist)
    flat = SimplexSpec.triangle(1.0, 1.0, 2.0)
    assert is_realizable(flat.sq_dist)
    assert not is_nondegenerate(flat.sq_dist)
