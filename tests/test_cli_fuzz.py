"""Exit-code contract of ``egr solve`` and ``egr report`` under fuzzed input.

Every payload, malformed or valid but odd, must end in exit 0, 1 or 2
without an exception escaping ``main``; exit 1 only with a written
witness that replays clean against the problem it came from.
"""

import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from egr.cli import main
from egr.solver import ColoringProblem, verify_coloring

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)


@st.composite
def problem_payloads(draw):
    """Problems of at most 8 points and r <= 4, each carrying at most
    one flaw: a short, repeating or out-of-range target, a coincident
    point, an odd color count, or a field replaced by junk."""
    n = draw(st.integers(2, 8))
    dim = draw(st.integers(1, 3))
    row = st.lists(st.integers(-30, 30).map(lambda v: v / 10), min_size=dim, max_size=dim)
    points = draw(st.lists(row, min_size=n, max_size=n, unique_by=tuple))
    target = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 4), unique=True)
    payload = {
        "config": {"dim": dim, "points": points},
        "mono": draw(st.lists(target, max_size=6)),
        "rainbow": draw(st.lists(target, max_size=6)),
        "r": draw(st.integers(1, 4)),
    }
    flaw = draw(st.sampled_from([None, None, "target", "coincide", "colors", "junk"]))
    if flaw == "target":
        payload["mono"].append(draw(st.sampled_from([[0], [1, 1], [0, n], [-1, 0]])))
    elif flaw == "colors":
        payload["r"] = draw(st.sampled_from([0, -1, 2.5, "3"]))
    elif flaw == "coincide":
        points[-1] = list(points[0])
    elif flaw == "junk":
        payload[draw(st.sampled_from(["config", "mono", "rainbow", "r"]))] = draw(json_values)
    return payload


artifact_keys = st.sampled_from(
    ["verdict", "witness", "stats", "kind", "count", "spec", "r", "points", "dim",
     "config", "mono", "rainbow", "copies", "labels", "notes"]
)
artifact_payloads = st.dictionaries(artifact_keys, json_values, max_size=6).flatmap(
    lambda d: st.sampled_from([None, "copies", "five-point", "classification"]).map(
        lambda kind: d if kind is None else {**d, "kind": kind}
    )
)


def _run(verb, payload):
    """Exit code of ``egr <verb>`` on the payload, and the JSON it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.json")
        out = os.path.join(tmp, "out.json")
        with open(src, "w") as fh:
            json.dump(payload, fh)
        rc = main(["solve", src, "-o", out] if verb == "solve" else ["report", src])
        if not os.path.exists(out):
            return rc, None
        with open(out) as fh:
            return rc, json.load(fh)


@FUZZ
@given(problem_payloads() | json_values)
def test_solve_exit_codes_hold_on_any_payload(payload):
    rc, written = _run("solve", payload)
    assert rc in (0, 1, 2)
    if rc == 1:
        problem = ColoringProblem.from_json_dict(payload)
        assert verify_coloring(problem, written["witness"])["clean"]


@FUZZ
@given(artifact_payloads | problem_payloads() | json_values)
def test_report_exit_codes_hold_on_any_payload(payload):
    rc, _ = _run("report", payload)
    assert rc in (0, 2)
