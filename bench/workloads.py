"""Workloads of the egr benchmark: input set-up, CLI op lists and checks.

Each workload has a set-up step, which writes its input files into a
work directory, and an op list: the ``egr`` command lines one timed
pass runs, each with a check written against the files the op wrote.
Checks use only this module's own code (plain JSON, numpy and the
pinned counts below), never the egr function under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The chained builds: construct argv, then pinned points and tetra copies.
BUILDS = {
    "x1": (["x1"], 416, 383),
    "link": (["link", "--offset", "30"], 748, 498),
    "anchor": (["anchor-gadget"], 1513, 1873),
    "anchor-k2": (["anchor-gadget", "--k", "2"], 2268, 2809),
}

# census name -> (path steps m, simplex size, colours r, pinned verdict).
# m=2 is the tests' census_problem (7-simplex); m=3 uses the 10-simplex.
CENSUS = {
    "census-m2-r7": (2, 7, 7, "FORCED"),
    "census-m2-r8": (2, 7, 8, "FORCED"),
    "census-m3-r9": (3, 10, 9, "FORCED"),
}
FRONTIER = ("census-m3-r10", 3, 10, 10)
FRONTIER_BUDGET = "0.5"
SOLVE_BUDGET = "120"

PLANTED_COUNT = 8
PLANTED_POINTS = 60
PLANTED_COLORS = 3
PLANTED_MONO = 400
PLANTED_RAINBOW = 400

WIDE_COLORS = 4
PROBE_BUDGET = "10"

# The copies-scan product: regular 10-simplex (side 1) x path t=19.
PRODUCT = (10, 1.0, 19, 0.6)
COPY_SPECS = {"pair": 910, "rectangle": 855, "triangle": 2400, "tetrahedron": 4200}
SCAN_R = "5"
SCAN_TOTAL = 456_976

REL_TOL = 1e-9


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    error: str | None


@dataclass
class Op:
    """One CLI command line of a pass.

    ``check`` returns None when the op's output is right, else the
    reason it is wrong.  ``info`` returns exact counts read from the
    output (such as solver nodes) for the record.
    """

    name: str
    verb: str
    argv: list[str]
    output: str | None
    check: Callable[[Outcome], str | None]
    info: Callable[[], dict] | None = None


# ---------------------------------------------------------------- inputs


def planted_instance(seed: int, index: int):
    """A hidden colouring plus mono and rainbow triples it avoids.

    The colouring is balanced (20 points per colour); the mono triples
    are drawn from triples it does not colour all-same, the rainbow
    triples from triples it does not colour all-distinct, so the
    instance has a counterexample by construction.
    """
    rng = np.random.default_rng([seed, index])
    n, r = PLANTED_POINTS, PLANTED_COLORS
    hidden = rng.permutation(np.arange(n) % r)
    triples = np.array(list(itertools.combinations(range(n), 3)))
    a, b, c = hidden[triples].T
    distinct = 1 + (a != b) + ((c != a) & (c != b))
    mono = triples[np.sort(rng.choice(np.flatnonzero(distinct > 1), PLANTED_MONO, replace=False))]
    rain = triples[np.sort(rng.choice(np.flatnonzero(distinct < 3), PLANTED_RAINBOW, replace=False))]
    coords = rng.normal(size=(n, 3))
    return hidden, mono.tolist(), rain.tolist(), coords


def _census(m: int, size: int, r: int):
    from egr.geometry import SimplexSpec, enumerate_copies
    from egr.rectangles import path_config, product_config, regular_simplex
    from egr.solver import ColoringProblem

    cfg = product_config(regular_simplex(size, 1.5), path_config(m, 1.5, 1.0).as_configuration()).product
    return ColoringProblem(
        cfg=cfg,
        mono_targets=enumerate_copies(cfg, SimplexSpec.pair(1.5)),
        rainbow_targets=enumerate_copies(cfg, SimplexSpec.rectangle(1.5, 1.0)),
        r=r,
    )


def _build(name: str):
    """The configuration ``egr construct x1`` or ``anchor-gadget`` writes."""
    from egr.geometry import SimplexSpec, embed_from_distances
    from egr.tetra import build_anchor_gadget, build_x1, tetra_profile

    spec = SimplexSpec.regular(4, 1.0)
    if name == "x1":
        return build_x1(tetra_profile(spec), embed_from_distances(spec)).cfg
    return build_anchor_gadget(tetra_profile(spec)).cfg


def _tetra_problem(cfg, r: int):
    """mono = rainbow = the distinct tetra copies of a built configuration."""
    from egr.solver import ColoringProblem

    distinct = sorted({tuple(sorted(t)) for t in cfg.named_copies["tetra"]})
    return ColoringProblem(cfg=cfg, mono_targets=distinct, rainbow_targets=distinct, r=r)


def setup_build_chained(inputs: str, seed: int) -> None:
    """Nothing to generate: the builders are deterministic."""


def setup_solve_census(inputs: str, seed: int) -> None:
    from egr.geometry import Configuration, write_json_atomic
    from egr.solver import ColoringProblem

    for name, (m, size, r, _) in CENSUS.items():
        write_json_atomic(os.path.join(inputs, f"{name}.json"), _census(m, size, r).to_json_dict())
    name, m, size, r = FRONTIER
    write_json_atomic(os.path.join(inputs, f"{name}.json"), _census(m, size, r).to_json_dict())
    for i in range(PLANTED_COUNT):
        _, mono, rain, coords = planted_instance(seed, i)
        problem = ColoringProblem(
            cfg=Configuration(points=coords), mono_targets=mono, rainbow_targets=rain, r=PLANTED_COLORS
        )
        write_json_atomic(os.path.join(inputs, f"planted-{i}.json"), problem.to_json_dict())
    wide = _tetra_problem(_build("x1"), WIDE_COLORS)
    write_json_atomic(os.path.join(inputs, "wide-x1.json"), wide.to_json_dict())
    # The probe is untimed, so its 25 MB problem is written compactly
    # to keep set-up short.
    probe = _tetra_problem(_build("anchor"), WIDE_COLORS)
    with open(os.path.join(inputs, "probe-anchor.json"), "w") as fh:
        fh.write(json.dumps(probe.to_json_dict()))


def _product_points(seed: int) -> np.ndarray:
    from egr.rectangles import path_config, product_config, regular_simplex

    size, x, t, y = PRODUCT
    cfg = product_config(regular_simplex(size, x), path_config(t, x, y).as_configuration()).product
    return cfg.points[np.random.default_rng(seed).permutation(len(cfg))]


def _specs():
    from egr.geometry import SimplexSpec

    x, y = PRODUCT[1], PRODUCT[3]
    return {
        "pair": SimplexSpec.pair(x),
        "rectangle": SimplexSpec.rectangle(x, y),
        "triangle": SimplexSpec.regular(3, x),
        "tetrahedron": SimplexSpec.regular(4, x),
    }


def setup_copies_scan(inputs: str, seed: int) -> None:
    from egr.geometry import Configuration

    Configuration(points=_product_points(seed)).save(os.path.join(inputs, "product.json"))
    for name, spec in _specs().items():
        spec.save(os.path.join(inputs, f"{name}.spec.json"))
    _build("anchor").save(os.path.join(inputs, "anchor.json"))


# ---------------------------------------------------------------- checks


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def replay_witness(witness, mono, rainbow, r: int, n: int) -> str | None:
    """Replay a colouring target by target; None when it avoids all."""
    if not isinstance(witness, list) or len(witness) != n:
        return f"witness is not a list of {n} colours"
    if any(not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < r for c in witness):
        return f"witness uses a colour outside 0..{r - 1}"
    for t in mono:
        if len({witness[i] for i in t}) == 1:
            return f"mono target {t} is monochromatic"
    for t in rainbow:
        if len({witness[i] for i in t}) == len(t):
            return f"rainbow target {t} is rainbow"
    return None


def _sq_dists(points: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """Squared distances over each tuple's point pairs, in chunks."""
    pairs = list(itertools.combinations(range(tuples.shape[1]), 2))
    out = np.empty((len(tuples), len(pairs)))
    for lo in range(0, len(tuples), 256):
        sub = points[tuples[lo : lo + 256]]
        for j, (a, b) in enumerate(pairs):
            diff = sub[:, a] - sub[:, b]
            out[lo : lo + 256, j] = np.einsum("ij,ij->i", diff, diff)
    return out


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.all(np.abs(got - want) <= REL_TOL * np.maximum(np.abs(want), 1.0)))


def _first_failure(o: Outcome, want_rc: int) -> str | None:
    if o.error is not None:
        return o.error
    if o.rc != want_rc:
        return f"exit {o.rc}, expected {want_rc}: {o.stderr.strip()[-200:]}"
    return None


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _construct_check(path: str, points: int, copies: int):
    # A file byte-identical to one already checked needs no second parse.
    checked: set[str] = set()

    def check(o: Outcome):
        bad = _first_failure(o, 0)
        if bad:
            return bad
        digest = _digest(path)
        if digest in checked:
            return None
        data = _load(path)
        pts = np.asarray(data["points"], dtype=float)
        if pts.shape != (points, data["dim"]):
            return f"points {pts.shape}, expected {points} rows of dim {data['dim']}"
        tetra = np.asarray(data["copies"]["tetra"], dtype=int)
        if tetra.shape != (copies, 4):
            return f"{len(tetra)} tetra copies, expected {copies}"
        if not _close(_sq_dists(pts, tetra), np.ones((copies, 6))):
            return "a named tetra copy is not a unit regular tetrahedron"
        checked.add(digest)
        return None

    return check


def _solve_check(problem_path: str, out: str, expect: str):
    problem = _load(problem_path)
    n = len(problem["config"]["points"])
    mono, rain, r = problem["mono"], problem["rainbow"], problem["r"]

    def check(o: Outcome):
        if o.error is not None:
            return o.error
        if expect == "FRONTIER" and o.rc == 2:
            ok = o.stderr.startswith("INDETERMINATE")
            return None if ok else f"exit 2 without INDETERMINATE: {o.stderr.strip()[-200:]}"
        if o.rc not in (0, 1) or not os.path.exists(out):
            return f"exit {o.rc}: {o.stderr.strip()[-200:]}"
        result = _load(out)
        verdict = result["verdict"]
        if expect != "FRONTIER" and verdict != expect:
            return f"verdict {verdict}, expected {expect}"
        if verdict == "FORCED":
            return None if o.rc == 0 and result["witness"] is None else "FORCED with exit 1 or a witness"
        if verdict == "COUNTEREXAMPLE":
            if o.rc != 1:
                return f"COUNTEREXAMPLE with exit {o.rc}"
            return replay_witness(result["witness"], mono, rain, r, n)
        return f"unknown verdict {verdict}"

    def info():
        return {"nodes": _load(out)["stats"]["nodes"]} if os.path.exists(out) else {}

    return check, info


def _copies_check(path: str, points: np.ndarray, spec_sq: np.ndarray, count: int):
    iu = np.triu_indices(len(spec_sq), k=1)
    want = np.sort(spec_sq[iu])

    def check(o: Outcome):
        bad = _first_failure(o, 0)
        if bad:
            return bad
        data = _load(path)
        tuples = np.asarray(data["copies"], dtype=int).reshape(-1, len(spec_sq))
        if data["count"] != count or len(tuples) != count:
            return f"{data['count']} copies ({len(tuples)} listed), expected {count}"
        if np.any(np.diff(tuples, axis=1) <= 0) or len({tuple(t) for t in tuples.tolist()}) != count:
            return "copy tuples are not sorted and distinct"
        if not _close(np.sort(_sq_dists(points, tuples), axis=1), np.broadcast_to(want, (count, len(want)))):
            return "a listed copy does not match the spec's distances"
        return None

    return check


def _scan_check(path: str):
    def check(o: Outcome):
        bad = _first_failure(o, 0)
        if bad:
            return bad
        data = _load(path)
        kinds = sum(data[k] for k in ("MONO", "RAINBOW", "TYPE_A", "TYPE_B"))
        if data["total"] != SCAN_TOTAL or data["unclassifiable"] != 0 or kinds != SCAN_TOTAL:
            return f"scan total {data['total']}, unclassifiable {data['unclassifiable']}"
        return None

    return check


def _report_check(points: int, copies: int):
    def check(o: Outcome):
        bad = _first_failure(o, 0)
        if bad:
            return bad
        got_p = re.search(r"configuration: (\d+) points", o.stdout)
        got_c = re.search(r"copies\[tetra\]: (\d+)", o.stdout)
        if not got_p or not got_c or (int(got_p[1]), int(got_c[1])) != (points, copies):
            return f"report says {o.stdout.strip()!r}, expected {points} points, {copies} copies"
        return None

    return check


# ---------------------------------------------------------------- op lists


def ops_build_chained(inputs: str, outputs: str) -> list[Op]:
    ops = []
    for name, (args, points, copies) in BUILDS.items():
        out = os.path.join(outputs, f"{name}.json")
        argv = ["construct", *args, "-o", out]
        ops.append(Op(f"construct {name}", "construct", argv, out, _construct_check(out, points, copies)))
    return ops


def _solve_op(inputs: str, outputs: str, name: str, expect: str, budget: str) -> Op:
    problem = os.path.join(inputs, f"{name}.json")
    out = os.path.join(outputs, f"{name}.result.json")
    check, info = _solve_check(problem, out, expect)
    argv = ["solve", problem, "--budget", budget, "-o", out]
    return Op(f"solve {name}", "solve", argv, out, check, info)


def ops_solve_census(inputs: str, outputs: str) -> list[Op]:
    ops = [_solve_op(inputs, outputs, name, want, SOLVE_BUDGET) for name, (*_, want) in CENSUS.items()]
    ops += [
        _solve_op(inputs, outputs, f"planted-{i}", "COUNTEREXAMPLE", SOLVE_BUDGET)
        for i in range(PLANTED_COUNT)
    ]
    ops.append(_solve_op(inputs, outputs, FRONTIER[0], "FRONTIER", FRONTIER_BUDGET))
    ops.append(_solve_op(inputs, outputs, "wide-x1", "COUNTEREXAMPLE", SOLVE_BUDGET))
    return ops


def probe_solve_census(inputs: str, outputs: str) -> Op:
    """The 1513-point anchor tetra problem, solved once outside the passes."""
    return _solve_op(inputs, outputs, "probe-anchor", "FRONTIER", PROBE_BUDGET)


def ops_copies_scan(inputs: str, outputs: str) -> list[Op]:
    product = os.path.join(inputs, "product.json")
    points = np.asarray(_load(product)["points"], dtype=float)
    ops = []
    for name, count in COPY_SPECS.items():
        spec = os.path.join(inputs, f"{name}.spec.json")
        out = os.path.join(outputs, f"{name}.copies.json")
        spec_sq = np.asarray(_load(spec)["sq_dist"], dtype=float)
        argv = ["copies", product, "--spec", spec, "-o", out]
        ops.append(Op(f"copies {name}", "copies", argv, out, _copies_check(out, points, spec_sq, count)))
    out = os.path.join(outputs, "scan.json")
    argv = ["scan", "classification", "--r", SCAN_R, "-o", out]
    ops.append(Op(f"scan classification r={SCAN_R}", "scan", argv, out, _scan_check(out)))
    _, points_k1, copies_k1 = BUILDS["anchor"]
    argv = ["report", os.path.join(inputs, "anchor.json")]
    ops.append(Op("report anchor", "report", argv, None, _report_check(points_k1, copies_k1)))
    return ops


@dataclass(frozen=True)
class Workload:
    setup: Callable[[str, int], None]
    ops: Callable[[str, str], list[Op]]
    probe: Callable[[str, str], Op] | None = None


WORKLOADS = {
    "build-chained": Workload(setup_build_chained, ops_build_chained),
    "solve-census": Workload(setup_solve_census, ops_solve_census, probe_solve_census),
    "copies-scan": Workload(setup_copies_scan, ops_copies_scan),
}
