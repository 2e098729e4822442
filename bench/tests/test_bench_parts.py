"""Tests of the benchmark's own parts: planted inputs, replay, spans."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import run  # noqa: E402
from bench.trace import Span, Tracer, covered, layer_self_times, self_times  # noqa: E402
from bench.workloads import (  # noqa: E402
    PLANTED_COLORS,
    PLANTED_MONO,
    PLANTED_POINTS,
    PLANTED_RAINBOW,
    planted_instance,
    replay_witness,
)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_hidden_colouring_avoids_every_planted_target(seed):
    for index in (0, 3, 7):
        hidden, mono, rain, coords = planted_instance(seed, index)
        assert np.bincount(hidden).tolist() == [PLANTED_POINTS // PLANTED_COLORS] * PLANTED_COLORS
        assert len({tuple(t) for t in mono}) == len(mono) == PLANTED_MONO
        assert len({tuple(t) for t in rain}) == len(rain) == PLANTED_RAINBOW
        assert all(len({int(hidden[i]) for i in t}) > 1 for t in mono)
        assert all(len({int(hidden[i]) for i in t}) < 3 for t in rain)
        assert coords.shape == (PLANTED_POINTS, 3)
        assert replay_witness(hidden.tolist(), mono, rain, PLANTED_COLORS, PLANTED_POINTS) is None


def test_planted_instances_follow_the_seed():
    a, b = planted_instance(5, 2), planted_instance(5, 2)
    assert a[1] == b[1] and a[2] == b[2] and np.array_equal(a[0], b[0])
    assert planted_instance(6, 2)[1] != a[1]
    assert planted_instance(5, 3)[1] != a[1]


def test_replay_rejects_tampered_witness():
    hidden, mono, rain, _ = planted_instance(0, 0)
    good = hidden.tolist()
    n, r = PLANTED_POINTS, PLANTED_COLORS
    assert replay_witness(good, mono, rain, r, n) is None

    t = mono[0]
    same = list(good)
    for i in t:
        same[i] = good[t[0]]
    assert "mono target" in replay_witness(same, mono, rain, r, n)

    t = rain[0]
    spread = list(good)
    for c, i in enumerate(t):
        spread[i] = c
    reason = replay_witness(spread, mono, rain, r, n)
    assert reason is not None

    assert replay_witness(good[:-1], mono, rain, r, n) is not None
    assert replay_witness(good[:-1] + [r], mono, rain, r, n) is not None
    assert replay_witness(good[:-1] + [True], mono, rain, r, n) is not None
    assert replay_witness(None, mono, rain, r, n) is not None


def test_covered_merges_and_clips_intervals():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == pytest.approx(3.0)
    assert covered([(4.0, 5.0)], 0.0, 3.0) == 0.0


def test_self_time_arithmetic_on_a_hand_built_trace():
    spans = [
        Span("cli.construct", 0.0, 10.0, None, 0),
        Span("tetra.build_x1", 1.0, 4.0, 0, 0),
        Span("geometry.pairwise", 2.0, 3.0, 1, 0),
        Span("geometry.write_json_atomic", 5.0, 9.0, 0, 0),
        Span("cli.solve", 10.0, 12.0, None, 1),
        Span("solver.solve_gr", 10.5, 11.5, 4, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0, 1.0])
    layers = layer_self_times(spans)
    assert layers == pytest.approx({"cli": 4.0, "tetra": 2.0, "geometry": 5.0, "solver": 1.0})
    assert sum(layers.values()) == pytest.approx(12.0)


def test_layer_metrics_split_inclusive_and_self_time():
    spans = [
        Span("cli.solve", 0.0, 10.0, None, 0),
        Span("solver.ColoringProblem.from_json_dict", 0.0, 3.0, 0, 0),
        Span("geometry.Configuration.from_json_dict", 1.0, 2.0, 1, 0),
        Span("solver.solve_gr", 3.0, 9.0, 0, 0),
        Span("solver.verify_coloring", 8.0, 9.0, 3, 0),
        Span("solver.verify_coloring", 9.0, 9.5, 0, 0),
    ]
    counts = {3: {"solver.nodes": 500}}
    m = run.layer_metrics(spans, counts, self_times(spans), range(len(spans)))
    assert m["solver.load_s"] == pytest.approx(2.0)
    assert m["geometry.validate_s"] == pytest.approx(1.0)
    assert m["solver.search_s"] == pytest.approx(5.0)
    assert m["solver.nodes"] == 500
    assert m["solver.nodes_per_s"] == pytest.approx(100.0)
    assert m["solver.replay_calls"] == 2
    assert m["solver.replay_s"] == pytest.approx(1.5)
    assert m["cli.self_s"] == pytest.approx(0.5)


def test_tracer_wraps_once_and_restores_originals():
    class Box:
        @classmethod
        def make(cls, x):
            return helpers.inner(x) + 1

    helpers = types.SimpleNamespace(inner=lambda x: 2 * x)
    alias = types.SimpleNamespace(inner=helpers.inner)
    original_make, original_inner = Box.__dict__["make"], helpers.inner
    tracer = Tracer()
    targets = [
        ("box.make", [(Box, "make")], lambda out: {"made": out}),
        ("helpers.inner", [(helpers, "inner"), (alias, "inner")], None),
    ]
    with tracer.installed(targets):
        with tracer.span("cli.op"):
            assert Box.make(3) == 7
        assert alias.inner(1) == 2
    assert Box.__dict__["make"] is original_make and helpers.inner is original_inner
    assert alias.inner is original_inner
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("cli.op", None),
        ("box.make", 0),
        ("helpers.inner", 1),
        ("helpers.inner", None),
    ]
    assert tracer.counts == {1: {"made": 7}}


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
