import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from helpers import census_problem, square_problem

from egr import cli, geometry, palettes, tetra
from egr.cli import main
from egr.geometry import (
    Configuration,
    SimplexSpec,
    check_copies,
    enumerate_copies,
    write_json_atomic,
)
from egr.solver import verify_coloring


def needle_spec():
    base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0]])
    apex = np.array([0.5, math.sqrt(3.0) / 6.0, 0.05])
    return SimplexSpec.from_points(np.vstack([base, apex]))


# A tetrahedron with no symmetry: a copy listed out of row order fails
# the replay below.
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

# Case id -> argv; "SKEW" stands for the path of a spec file holding SKEW.
CONSTRUCT_CASES = {
    "five-point": ["five-point", "--a", "0.5", "--b", "1.0", "--c", "1.2", "--eps", "0.05"],
    "chain": ["chain", "--s", "1.0", "--d", "0.4", "--gap", "1.2"],
    "regular-simplex": ["regular-simplex", "--n", "4", "--x", "1.0"],
    "path": ["path", "--t", "3", "--x", "1.0", "--y", "0.8"],
    "product": ["product", "--n", "3", "--x", "1.0", "--t", "2", "--y", "0.7"],
    "grid": ["grid", "--regular-k", "3", "--m", "2", "--eps", "0.6"],
    "hinge": ["hinge"],
    "dense-quad": ["dense-quad"],
    "link": ["link", "--offset", "3.0"],
    # a straight-through hinge corner, the only known input that places
    # a corner fan in a fresh plane: 28 points, 18 tetra copies
    "link-straight": ["link", "--offset", "-1"],
    "contract": ["contract", "--regular-k", "4", "--eps", "0.1"],
    "hinge-skew": ["hinge", "--spec", "SKEW"],
    "dense-quad-skew": ["dense-quad", "--spec", "SKEW"],
    "link-skew": ["link", "--offset", "3.0", "--spec", "SKEW"],
}


@pytest.mark.parametrize("argv", CONSTRUCT_CASES.values(), ids=CONSTRUCT_CASES.keys())
def test_construct_artifacts_reload(argv, tmp_path):
    spec_path = tmp_path / "skew.json"
    SKEW.save(str(spec_path))
    out = tmp_path / "cfg.json"
    argv = [str(spec_path) if a == "SKEW" else a for a in argv]
    assert main(["construct", *argv, "-o", str(out)]) == 0
    cfg = Configuration.load(str(out))
    assert np.all(np.isfinite(cfg.points))
    assert len(cfg) >= 4
    # every named tetra copy lists its points in the spec's row order
    if "tetra" in cfg.named_copies:
        spec = SKEW if str(spec_path) in argv else SimplexSpec.regular(4, 1.0)
        check_copies(cfg.points, cfg.named_copies["tetra"], spec.sq_dist)


# Flags that carry a length: a build scaled by lam scales each of them.
LENGTH_FLAGS = {"--side", "--x", "--y", "--s", "--d", "--gap", "--a", "--b", "--c", "--eps", "--offset"}
SIDE_BUILDERS = {"grid", "hinge", "dense-quad", "link", "x1", "anchor-gadget", "contract"}


def _build_scaled(argv, lam, tmp_path):
    """Build case ``argv`` with every length, and SKEW, scaled by lam."""
    spec_path = tmp_path / f"skew-{lam}.json"
    SimplexSpec(SKEW.sq_dist * lam * lam).save(str(spec_path))
    flags = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] in SIDE_BUILDERS:
        flags.setdefault("--side", "1.0")
    scaled = [argv[0]]
    for flag, value in flags.items():
        if flag in LENGTH_FLAGS:
            value = repr(float(value) * lam)
        elif value == "SKEW":
            value = str(spec_path)
        scaled.append(f"{flag}={value}")  # "=" keeps a value like -9e-13 from reading as a flag
    out = tmp_path / f"cfg-{lam}.json"
    assert main(["construct", *scaled, "-o", str(out)]) == 0
    return Configuration.load(str(out))


@pytest.mark.parametrize(
    "argv",
    [*CONSTRUCT_CASES.values(), ["x1"], ["anchor-gadget"]],
    ids=[*CONSTRUCT_CASES.keys(), "x1", "anchor-gadget"],
)
def test_construct_is_scale_free(argv, tmp_path):
    # congruence does not see units: every build at side lam is lam
    # times the side-1 build, with the same copies
    unit = _build_scaled(argv, 1.0, tmp_path)
    for lam in (2.0**-40, 2.0**16):
        cfg = _build_scaled(argv, lam, tmp_path)
        assert cfg.named_copies == unit.named_copies
        assert cfg.points.shape == unit.points.shape
        assert np.abs(cfg.points - lam * unit.points).max() <= 1e-12 * lam


def test_construct_grid_records_connectivity(tmp_path):
    out = tmp_path / "grid.json"
    assert main(["construct", "grid", "--regular-k", "3", "--m", "2", "--eps", "0.6", "-o", str(out)]) == 0
    cfg = Configuration.load(str(out))
    assert cfg.notes["kind"] == "perturbation_grid"
    assert cfg.notes["connected"] is True


@pytest.mark.parametrize(
    "flags, message",
    [
        (["x1", "--corner-angle", "1e-9"], "apex_coincidence"),
        (["x1", "--corner-angle", "3.0"], "corner_angle"),
        (["anchor-gadget", "--edge", "0", "1"], "face (1, 2, 3)"),
        (["anchor-gadget", "--edge", "0", "0"], "face (1, 2, 3)"),
    ],
)
def test_construct_refuses_bad_tetra_flags_before_placing_points(tmp_path, monkeypatch, capsys, flags, message):
    def placed(*args):
        raise AssertionError("a point was placed")

    monkeypatch.setattr(tetra.Workspace, "add_row", placed)
    monkeypatch.setattr(tetra.Workspace, "add_point", placed)
    out = tmp_path / "refused.json"
    assert main(["construct", *flags, "-o", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_construct_anchor_gadget_on_another_edge(tmp_path, capsys):
    out = tmp_path / "anchor13.json"
    assert main(["construct", "anchor-gadget", "--edge", "1", "3", "-o", str(out)]) == 0
    assert "1513 points, dim 1506, 1873 named copies" in capsys.readouterr().out
    assert len(Configuration.load(str(out))) == 1513


def test_construct_dense_quad_requires_condition(tmp_path):
    spec_path = tmp_path / "needle.json"
    needle_spec().save(str(spec_path))
    out = tmp_path / "dq.json"
    assert main(["construct", "dense-quad", "--spec", str(spec_path), "-o", str(out)]) == 2
    assert not out.exists()


def test_construct_workspace_limit(tmp_path, monkeypatch, capsys):
    # anchor-gadget reaches 1513 points x 1506 axes
    monkeypatch.setattr(tetra, "MAX_COORDINATES", 10**6)
    out = tmp_path / "anchor.json"
    assert main(["construct", "anchor-gadget", "-o", str(out)]) == 2
    assert not out.exists()
    assert "coordinates exceeds the limit of 1000000" in capsys.readouterr().err


def test_construct_round_trip_compares_bits(tmp_path, monkeypatch, capsys):
    # a writer that turns +0.0 into -0.0 writes equal values but other bits
    write_rows = geometry._write_rows
    monkeypatch.setattr(geometry, "_write_rows", lambda fh, a: write_rows(fh, np.where(a == 0, -0.0, a)))
    assert main(["construct", "hinge", "--side", "1.0", "-o", str(tmp_path / "h.json")]) == 2
    assert "written configuration does not round-trip" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper",
    [
        lambda payload: {**payload, "notes": {**payload["notes"], "phi": -payload["notes"]["phi"]}},
        lambda payload: {**payload, "copies": {"tetra": [[0, 1, 2, 4], [4, 1, 2, 3]]}},
    ],
    ids=["note", "copy-index"],
)
def test_construct_round_trip_compares_notes_and_copies(tmp_path, monkeypatch, capsys, tamper):
    write = geometry.write_json_atomic
    monkeypatch.setattr(geometry, "write_json_atomic", lambda path, payload: write(path, tamper(payload)))
    assert main(["construct", "hinge", "--side", "1.0", "-o", str(tmp_path / "h.json")]) == 2
    assert "does not round-trip" in capsys.readouterr().err


def test_construct_link_refuses_non_finite_offset(tmp_path, capsys):
    out = tmp_path / "link.json"
    for offset in ("nan", "inf"):
        assert main(["construct", "link", "--offset", offset, "-o", str(out)]) == 2
        assert not out.exists()
        assert "seed_congruence" in capsys.readouterr().err


def test_construct_runs_each_check_once(tmp_path, monkeypatch):
    # the coincidence check runs on the built configuration only, and the
    # anchor images of all placements from one frame are checked together
    calls = {"check_copies": 0, "_find_coincident": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(tetra, "check_copies")
    counted(geometry.Configuration, "_find_coincident")
    out = tmp_path / "anchor.json"
    assert main(["construct", "anchor-gadget", "--k", "2", "-o", str(out)]) == 0
    assert calls["_find_coincident"] == 1
    assert calls["check_copies"] <= 2 * Configuration.load(str(out)).notes["distinct_hinges"] + 8


@pytest.mark.parametrize("name", ["path", "product"])
@pytest.mark.parametrize("flag", ["--x", "--y"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_construct_rejects_non_finite_lengths(tmp_path, capsys, name, flag, value):
    lengths = {"--x": "1.0", "--y": "1.0", flag: value}
    argv = ["construct", name, "--t", "2", *itertools.chain(*lengths.items())]
    if name == "product":
        argv += ["--n", "3"]
    out = tmp_path / "cfg.json"
    assert main([*argv, "-o", str(out)]) == 2
    assert not out.exists()
    assert re.search(f"lengths? must be positive and finite, got .*{value}", capsys.readouterr().err)


@pytest.mark.parametrize(
    "name,value,wanted",
    [("grid", "nan", "positive"), ("grid", "inf", "positive"), ("contract", "nan", "nonnegative"),
     ("contract", "inf", "nonnegative")],
)
def test_construct_names_a_bad_eps(tmp_path, capsys, name, value, wanted):
    out = tmp_path / "cfg.json"
    assert main(["construct", name, "--eps", value, "-o", str(out)]) == 2
    assert not out.exists()
    assert f"eps must be finite and {wanted}, got {value}" in capsys.readouterr().err


def test_construct_rejects_bad_triangle(tmp_path):
    out = tmp_path / "fp.json"
    argv = ["construct", "five-point", "--a", "1.0", "--b", "1.0", "--c", "0.5",
            "--eps", "0.05", "-o", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def test_solve_forced_exit_zero(tmp_path):
    problem = tmp_path / "p.json"
    write_json_atomic(str(problem), census_problem(2, 7, 7).to_json_dict())
    out = tmp_path / "result.json"
    assert main(["solve", str(problem), "-o", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["verdict"] == "FORCED"
    assert body["witness"] is None
    assert body["stats"]["nodes"] > 0


def test_solve_counterexample_exit_one(tmp_path):
    """The written witness must replay cleanly against the problem."""
    p = square_problem()
    problem = tmp_path / "p.json"
    write_json_atomic(str(problem), p.to_json_dict())
    out = tmp_path / "result.json"
    assert main(["solve", str(problem), "-o", str(out)]) == 1
    body = json.loads(out.read_text())
    assert body["verdict"] == "COUNTEREXAMPLE"
    assert verify_coloring(p, body["witness"])["clean"]


def test_solve_truncated_input_exit_two(tmp_path):
    problem = tmp_path / "p.json"
    payload = census_problem(2, 7, 7).to_json_dict()
    text = json.dumps(payload)
    out = tmp_path / "result.json"
    # a torn file, a well-formed file whose mono targets are not a list,
    # and colour counts or target indices that are not integers: none of
    # them may be truncated or parsed into a solvable problem
    bodies = [text[: len(text) // 2], json.dumps({**payload, "mono": 5})]
    bodies += [json.dumps({**payload, "r": r}) for r in (1.9, True, "3", 3.0)]
    bodies.append(json.dumps({**payload, "mono": [[0.7, 1], *payload["mono"]]}))
    for body in bodies:
        problem.write_text(body)
        assert main(["solve", str(problem), "-o", str(out)]) == 2
        assert not out.exists()


def test_solve_budget_flag(tmp_path):
    problem = tmp_path / "p.json"
    write_json_atomic(str(problem), census_problem(2, 7, 7).to_json_dict())
    out = tmp_path / "result.json"
    # a NaN budget never expires; it and a budget that is not positive are refused
    for budget in ("0.000001", "nan", "0", "-1"):
        assert main(["solve", str(problem), "--budget", budget, "-o", str(out)]) == 2
        assert not out.exists()
    assert main(["solve", str(problem), "--budget", "300", "-o", str(out)]) == 0


def test_solve_breaks_the_declared_symmetry_of_the_frontier_census(tmp_path, capsys):
    # S_10 x B_3 at r=10: FORCED since 10 > 3m, decided fiber by fiber
    # under the 45 simplex transpositions its problem file declares.
    problem = tmp_path / "p.json"
    write_json_atomic(str(problem), census_problem(3, 10, 10).to_json_dict())
    assert len(json.loads(problem.read_text())["config"]["notes"]["symmetry"]) == 45
    out = tmp_path / "result.json"
    assert main(["solve", str(problem), "--budget", "0.5", "-o", str(out)]) == 0
    body = json.loads(out.read_text())
    assert (body["verdict"], body["witness"], body["stats"]["nodes"]) == ("FORCED", None, 1_250)
    assert capsys.readouterr().out.startswith("FORCED in 1250 nodes")


def test_copies_round_trip(tmp_path):
    cfg_path = tmp_path / "square.json"
    argv = ["construct", "product", "--n", "2", "--x", "1.0", "--t", "2", "--y", "1.0",
            "-o", str(cfg_path)]
    assert main(argv) == 0
    spec_path = tmp_path / "pair.json"
    SimplexSpec.pair(1.0).save(str(spec_path))
    out = tmp_path / "copies.json"
    assert main(["copies", str(cfg_path), "--spec", str(spec_path), "-o", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["count"] == len(body["copies"])
    cfg = Configuration.load(str(cfg_path))
    found = enumerate_copies(cfg, SimplexSpec.pair(1.0))
    assert [list(t) for t in found] == body["copies"]


def test_scan_classification_r5_writes_pinned_bytes(tmp_path, capsys):
    out = tmp_path / "scan.json"
    assert main(["scan", "classification", "--r", "5", "-o", str(out)]) == 0
    assert out.read_text() == (
        '{"kind": "classification", "r": 5, "MONO": 214646, "RAINBOW": 241570, '
        '"TYPE_A": 600, "TYPE_B": 160, "unclassifiable": 0, "total": 456976}\n'
    )
    assert capsys.readouterr().out == f"wrote {out}: 0 violations\n"


def test_scan_exit_codes(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["scan", "five-point", "--r", "3", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["violations"] == 0
    assert main(["scan", "classification", "--r", "4", "-o", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["unclassifiable"] == 0
    assert body["total"] == (2 ** 4 - 5) ** 4
    bad = tmp_path / "bad.json"
    assert main(["scan", "five-point", "--r", "9", "-o", str(bad)]) == 2
    assert not bad.exists()


def test_scan_classification_exits_2_when_a_witness_fails(tmp_path, monkeypatch):
    # a witness that fails to replay is a fault, not a scan violation
    search = palettes._search_witness

    def reversed_witness(sets):
        out = search(sets)
        return dataclasses.replace(out, index_perm=out.index_perm[::-1])

    monkeypatch.setattr(palettes, "_search_witness", reversed_witness)
    out = tmp_path / "scan.json"
    assert main(["scan", "classification", "--r", "4", "-o", str(out)]) == 2
    assert not out.exists()


def _copies_argv(tmp_path):
    cfg_path = tmp_path / "square.json"
    square_problem().cfg.save(str(cfg_path))
    spec_path = tmp_path / "pair.json"
    SimplexSpec.pair(1.0).save(str(spec_path))
    return ["copies", str(cfg_path), "--spec", str(spec_path)]


def _solve_argv(tmp_path):
    problem = tmp_path / "p.json"
    write_json_atomic(str(problem), square_problem().to_json_dict())
    return ["solve", str(problem)]


# Verb -> (argv builder, a top-level key of its artifact holding an int)
WRITING_VERBS = {
    "copies": (_copies_argv, "count"),
    "solve": (_solve_argv, "r"),
    "scan": (lambda tmp_path: ["scan", "five-point", "--r", "3"], "violations"),
}


@pytest.mark.parametrize("verb", WRITING_VERBS)
def test_writing_verbs_compare_what_they_wrote(verb, tmp_path, monkeypatch, capsys):
    make_argv, key = WRITING_VERBS[verb]
    argv = [*make_argv(tmp_path), "-o", str(tmp_path / "out.json")]
    assert main(argv) in (0, 1)
    write = cli.write_json_atomic
    monkeypatch.setattr(
        cli, "write_json_atomic", lambda path, payload: write(path, {**payload, key: payload[key] + 1})
    )
    assert main(argv) == 2
    assert "does not round-trip" in capsys.readouterr().err


def test_report_each_artifact_shape(tmp_path, capsys):
    cfg_path = tmp_path / "hinge.json"
    assert main(["construct", "hinge", "-o", str(cfg_path)]) == 0
    problem_path = tmp_path / "p.json"
    write_json_atomic(str(problem_path), square_problem().to_json_dict())
    result_path = tmp_path / "result.json"
    assert main(["solve", str(problem_path), "-o", str(result_path)]) == 1
    scan_path = tmp_path / "scan.json"
    assert main(["scan", "five-point", "--r", "3", "-o", str(scan_path)]) == 0
    spec_path = tmp_path / "pair.json"
    SimplexSpec.pair(1.0).save(str(spec_path))
    copies_path = tmp_path / "copies.json"
    assert main(["copies", str(cfg_path), "--spec", str(spec_path), "-o", str(copies_path)]) == 0
    capsys.readouterr()

    assert main(["report", str(cfg_path)]) == 0
    assert "configuration: 5 points" in capsys.readouterr().out
    assert main(["report", str(problem_path)]) == 0
    assert "r=2" in capsys.readouterr().out
    assert main(["report", str(result_path)]) == 0
    assert "COUNTEREXAMPLE" in capsys.readouterr().out
    assert main(["report", str(scan_path)]) == 0
    assert "five-point scan at r=3" in capsys.readouterr().out
    assert main(["report", str(copies_path)]) == 0
    assert "copies artifact: 9 copies of a 2-point spec" in capsys.readouterr().out


@pytest.mark.parametrize(
    "body, fault",
    [
        ({"dim": 1, "points": [[0.0], [float("nan")]]}, "non-finite coordinates"),
        ({"dim": 1, "points": [[0.0], [float("inf")]]}, "non-finite coordinates"),
        ({"dim": 2, "points": [[0.0], [1.0]]}, "declared dim does not match point rows"),
        ({"dim": 1, "points": []}, "declared dim does not match point rows"),
        ({"dim": 0, "points": [[], []]}, "points must be a non-empty 2-D array"),
    ],
    ids=["nan", "inf", "dim-mismatch", "no-rows", "empty-rows"],
)
def test_malformed_points_exit_two_naming_the_fault(body, fault, tmp_path, capsys):
    spec, cfg, problem, out = (tmp_path / name for name in ("spec.json", "cfg.json", "p.json", "out.json"))
    SimplexSpec.pair(1.0).save(str(spec))
    cfg.write_text(json.dumps(body))
    problem.write_text(json.dumps({"config": body, "mono": [], "rainbow": [], "r": 2}))
    for argv in (["copies", str(cfg), "--spec", str(spec)], ["solve", str(problem)]):
        assert main(argv + ["-o", str(out)]) == 2
        assert fault in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "sq, fault",
    [([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], "must be k x k"), ([[1.0, 1.0], [1.0, 0.0]], "diagonal must be zero")],
    ids=["not-square", "nonzero-diagonal"],
)
def test_copies_refuses_a_malformed_spec(sq, fault, tmp_path, capsys):
    spec, cfg, out = tmp_path / "spec.json", tmp_path / "cfg.json", tmp_path / "out.json"
    spec.write_text(json.dumps({"sq_dist": sq}))
    Configuration(points=np.array([[0.0], [1.0]])).save(str(cfg))
    assert main(["copies", str(cfg), "--spec", str(spec), "-o", str(out)]) == 2
    assert fault in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_junk(tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("{\"unexpected\": 1}")
    assert main(["report", str(junk)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["report", str(broken)]) == 2
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["report", str(listed)]) == 2
    # a copy index or a dim that is not an integer
    fractional = tmp_path / "fractional.json"
    for body in ({"dim": 1, "points": [[0.0], [1.0]], "copies": {"pair": [[0.9, 1]]}},
                 {"dim": 1.9, "points": [[0.0], [1.0]]}):
        fractional.write_text(json.dumps(body))
        assert main(["report", str(fractional)]) == 2
