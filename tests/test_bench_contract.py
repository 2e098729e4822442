"""What the benchmark in ``bench/`` needs from the library.

The benchmark's set-up calls the builders directly, its op lists pass
fixed CLI flags, and its tracer wraps named egr functions.  A library
change that breaks any of these fails here, before a benchmark run.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import run, workloads  # noqa: E402
from egr import cli  # noqa: E402
from egr.geometry import Configuration, SimplexSpec, embed_from_distances  # noqa: E402
from egr.tetra import build_link, tetra_profile  # noqa: E402


def _check_ops(ops) -> None:
    parser = cli._build_parser()
    for op in ops:
        parser.parse_args(op.argv)
        for arg in op.argv:
            if arg.endswith(".json") and arg != op.output:
                assert os.path.exists(arg), f"{op.name} reads a missing input {arg}"


def test_setups_write_every_input_the_ops_read(tmp_path):
    for name, wl in workloads.WORKLOADS.items():
        inputs, outputs = tmp_path / name / "in", tmp_path / name / "out"
        inputs.mkdir(parents=True)
        outputs.mkdir()
        wl.setup(str(inputs), 0)
        ops = wl.ops(str(inputs), str(outputs))
        if wl.probe is not None:
            ops.append(wl.probe(str(inputs), str(outputs)))
        _check_ops(ops)

    _, points, copies = workloads.BUILDS["anchor"]
    anchor = Configuration.load(str(tmp_path / "copies-scan" / "in" / "anchor.json"))
    assert (len(anchor), len(anchor.named_copies["tetra"])) == (points, copies)


def test_trace_targets_cover_the_builders_and_count_their_output():
    targets = {name: counts for name, _, counts in run.trace_targets()}
    assert set(run.BUILDERS) <= set(targets)

    spec = SimplexSpec.regular(4, 1.0)
    pts = embed_from_distances(spec)
    out = build_link(tetra_profile(spec), pts, pts + np.array([3.0, 0.0, 0.0]))
    counts = targets["tetra.build_link"](out)
    assert counts == {
        "tetra.points": len(out.cfg),
        "tetra.dim": out.cfg.dim,
        "tetra.copies": len(out.tetra_copies),
    }


def test_construct_artifacts_keep_dense_points(tmp_path):
    # The bench's construct check parses ``points`` with np.asarray, so
    # a new points format needs a matching bench change.
    path = str(tmp_path / "x1.json")
    assert cli.main(["construct", "x1", "-o", path]) == 0
    with open(path) as fh:
        data = json.load(fh)
    assert isinstance(data["points"], list)
    assert all(isinstance(row, list) and len(row) == data["dim"] for row in data["points"])
    assert all(type(v) is float for row in data["points"] for v in row)
    _, points, copies = workloads.BUILDS["x1"]
    check = workloads._construct_check(path, points, copies)
    assert check(workloads.Outcome(rc=0, stdout="", stderr="", error=None)) is None


def test_construct_check_accepts_the_anchor_artifact(tmp_path):
    # The anchor gadget places its glued polygons from one template; the
    # bench's check reads every copy off the written points.
    path = str(tmp_path / "anchor.json")
    assert cli.main(["construct", "anchor-gadget", "-o", path]) == 0
    _, points, copies = workloads.BUILDS["anchor"]
    check = workloads._construct_check(path, points, copies)
    assert check(workloads.Outcome(rc=0, stdout="", stderr="", error=None)) is None
