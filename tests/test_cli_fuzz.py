"""Exit-code contract of ``egr solve``, ``egr report``, ``egr copies``,
``egr construct`` and ``egr scan`` under fuzzed input.

Every payload or argument, malformed or valid but odd, must end in exit
0, 1 or 2 without an exception escaping ``main``; exit 1 only with a
written witness that replays clean against the problem it came from,
exit 0 from ``copies`` only with exactly the copies a brute-force search
finds, and exit 0 from ``construct`` only with an artifact that reloads.

``geometry.read_json`` must read any document as ``json.load`` does,
bar its float64 ``points`` arrays, and raise wherever ``json.load``
raises.
"""

import io
import itertools
import json
import math
import os
import random
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from egr import geometry
from egr.cli import main
from egr.geometry import Configuration, read_json, sq_close
from egr.solver import ColoringProblem, exhaustive_oracle, verify_coloring
from helpers import assert_canonical

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)


def _closure(targets, img):
    """The targets and all their images under the permutation ``img``."""
    seen, todo = {tuple(sorted(t)) for t in targets}, list(targets)
    while todo:
        t = tuple(sorted(img[p] for p in todo.pop()))
        if t not in seen:
            seen.add(t)
            todo.append(t)
    return [list(t) for t in sorted(seen)]


@st.composite
def symmetry_entries(draw, n, payload):
    """A ``notes.symmetry`` entry for n points: a list of images, one of
    them with a wrong length, a repeated, out-of-range, float or bool
    index, or not a list, or else a valid permutation of ``range(n)``
    that the targets may break or, with the targets closed under it
    here, keep."""
    img = list(draw(st.permutations(range(n))))
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["length", "repeat", "range", "float", "bool", "non-list", "breaks", "keeps"]))
    if kind == "length":
        img = draw(st.sampled_from([img[:-1], img + [n]]))
    elif kind == "repeat":
        img[i] = img[(i + 1) % n]
    elif kind == "range":
        img[i] = draw(st.sampled_from([-1, n, n + 7]))
    elif kind in ("float", "bool"):
        img[i] = float(img[i]) if kind == "float" else img[i] == 1
    elif kind == "non-list":
        return draw(st.sampled_from([5, "swap", {"0": [1, 0]}, [7], ["01"], [{"0": 1}], [None]]))
    elif kind == "keeps":
        payload["mono"], payload["rainbow"] = _closure(payload["mono"], img), _closure(payload["rainbow"], img)
    images = [img]
    if draw(st.booleans()):  # a valid image beside it, before or after
        images.insert(draw(st.integers(0, 1)), list(draw(st.permutations(range(n)))))
    return images


@st.composite
def problem_payloads(draw, flaws=(None, None, "target", "coincide", "colors", "junk", "symmetry", "symmetry")):
    """Problems of at most 8 points and r <= 4, each carrying at most
    one flaw: a short, repeating or out-of-range target, a coincident
    point, an odd color count, a field replaced by junk, or a
    ``notes.symmetry`` entry from ``symmetry_entries`` (which may be
    valid)."""
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
    flaw = draw(st.sampled_from(flaws))
    if flaw == "symmetry":
        payload["config"]["notes"] = {"symmetry": draw(symmetry_entries(n, payload))}
    elif flaw == "target":
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


@st.composite
def copies_inputs(draw):
    """A configuration of at most 8 half-integer lattice points and a spec
    of k <= 4 points, taken from the configuration when it has k points,
    each pair carrying at most one flaw: an asymmetric, non-realizable or
    degenerate spec, a coincident point, bad copy indices, or a field
    replaced by junk."""
    n = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 3))
    row = st.lists(st.integers(-6, 6).map(lambda v: v / 2), min_size=dim, max_size=dim)
    points = draw(st.lists(row, min_size=n, max_size=n, unique_by=tuple))
    k = draw(st.integers(2, 4))
    if k <= n:
        picked = np.array([points[i] for i in draw(st.permutations(range(n)))[:k]])
        sq = ((picked[:, None] - picked[None]) ** 2).sum(axis=-1)
    else:
        sq = np.zeros((k, k))
        sq[np.triu_indices(k, 1)] = draw(st.lists(st.integers(1, 8), min_size=k * (k - 1) // 2,
                                                  max_size=k * (k - 1) // 2))
        sq += sq.T
    config = {"dim": dim, "points": points}
    spec = {"sq_dist": sq.tolist()}
    flaw = draw(st.sampled_from(
        [None, None, None, "asymmetric", "unrealizable", "degenerate", "coincide", "copies", "junk"]
    ))
    if flaw == "asymmetric":
        spec["sq_dist"][0][1] += 0.5
    elif flaw == "unrealizable":
        spec["sq_dist"] = [[0.0, 1.0, 16.0], [1.0, 0.0, 1.0], [16.0, 1.0, 0.0]]
    elif flaw == "degenerate":
        spec["sq_dist"][0][1] = spec["sq_dist"][1][0] = 0.0
    elif flaw == "coincide":
        points[-1] = list(points[0])
    elif flaw == "copies":
        config["copies"] = {"pair": draw(st.sampled_from([[[0, n]], [[0.5, 0]], [[True, 0]], [["0", 1]], 7]))}
    elif flaw == "junk":
        target = draw(st.sampled_from(["config", "dim", "points", "spec", "sq_dist"]))
        if target == "config":
            config = draw(json_values)
        elif target == "spec":
            spec = draw(json_values)
        elif target == "sq_dist":
            spec["sq_dist"] = draw(json_values)
        else:
            config[target] = draw(json_values)
    return config, spec


# Flags of the small builders: a value that builds, and the values the
# fuzz may put in its place.  Integers stay small enough that no example
# builds more than a few hundred points; floats take the edge values 0,
# negatives, nan and +-inf as well as ordinary lengths.
FLOATS = st.sampled_from(
    [0.0, -1.0, math.nan, math.inf, -math.inf, 0.05, 0.1, 0.3, 0.5, 0.7, 1.0, 1.2, 1.5, 2.0, 3.0]
)
COUNTS = st.integers(-2, 12)
BUILDER_FLAGS = {
    "five-point": {"a": (0.5, FLOATS), "b": (1.0, FLOATS), "c": (1.2, FLOATS), "eps": (0.05, FLOATS)},
    "chain": {"s": (1.0, FLOATS), "d": (0.4, FLOATS), "gap": (1.2, FLOATS), "dim": (3, st.integers(-1, 6))},
    "regular-simplex": {"n": (4, COUNTS), "x": (1.0, FLOATS)},
    "path": {"t": (3, COUNTS), "x": (1.0, FLOATS), "y": (0.8, FLOATS)},
    "product": {"n": (3, COUNTS), "x": (1.0, FLOATS), "t": (2, COUNTS), "y": (0.7, FLOATS)},
    "grid": {
        "regular-k": (3, st.integers(-1, 4)),
        "side": (1.0, FLOATS),
        "m": (2, st.integers(-1, 3)),
        "eps": (0.6, FLOATS),
    },
    "hinge": {"side": (1.0, FLOATS), "phi": (1.0, FLOATS)},
    "dense-quad": {"side": (1.0, FLOATS)},
    "contract": {"regular-k": (4, st.integers(-1, 5)), "side": (1.0, FLOATS), "eps": (0.1, FLOATS)},
}


@st.composite
def construct_argv(draw):
    """``construct`` arguments for one small builder, each flag either
    its building value or a fuzzed one, given as ``--flag=value`` so
    that negative values parse as values."""
    name = draw(st.sampled_from(sorted(BUILDER_FLAGS)))
    flags = BUILDER_FLAGS[name].items()
    return [name] + [f"--{flag}={draw(st.just(good) | fuzz)}" for flag, (good, fuzz) in flags]


def _run_argv(*argv):
    """Exit code of ``egr <argv> -o OUT`` and the path of OUT, or None
    when nothing was written."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        rc = main([*argv, "-o", out])
        if not os.path.exists(out):
            return rc, None
        if argv[0] == "construct":
            return rc, Configuration.load(out)
        with open(out) as fh:
            return rc, json.load(fh)


def _run(verb, *payloads):
    """Exit code of ``egr <verb>`` on the payloads (for ``copies``, the
    configuration and then the spec), and the JSON it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"in{i}.json") for i in range(len(payloads))]
        for path, payload in zip(paths, payloads):
            with open(path, "w") as fh:
                json.dump(payload, fh)
        out = os.path.join(tmp, "out.json")
        if verb == "copies":
            argv = ["copies", paths[0], "--spec", paths[1], "-o", out]
        elif verb == "solve":
            argv = ["solve", paths[0], "-o", out]
        else:
            argv = ["report", paths[0]]
        rc = main(argv)
        if not os.path.exists(out):
            return rc, None
        with open(out) as fh:
            return rc, json.load(fh)


def _is_permutation_list(entry, n) -> bool:
    return isinstance(entry, list) and all(
        isinstance(img, list) and all(type(i) is int for i in img) and sorted(img) == list(range(n))
        for img in entry
    )


@FUZZ
@given(problem_payloads() | json_values)
def test_solve_exit_codes_hold_on_any_payload(payload):
    """A malformed ``notes.symmetry`` entry exits 2; a problem that loads
    gets the verdict the exhaustive oracle gives, whatever it declares."""
    rc, written = _run("solve", payload)
    assert rc in (0, 1, 2)
    if rc == 1:
        problem = ColoringProblem.from_json_dict(payload)
        assert verify_coloring(problem, written["witness"])["clean"]
    config = payload.get("config") if isinstance(payload, dict) else None
    notes = config.get("notes") if isinstance(config, dict) else None
    if isinstance(notes, dict) and "symmetry" in notes:
        if not _is_permutation_list(notes["symmetry"], len(config["points"])):
            assert rc == 2
        else:
            want = exhaustive_oracle(ColoringProblem.from_json_dict(payload)).verdict
            assert rc == {"FORCED": 0, "COUNTEREXAMPLE": 1}[want]


@settings(FUZZ, max_examples=160)
@given(problem_payloads(flaws=["symmetry"]))
def test_solve_checks_every_kind_of_symmetry_entry(payload):
    test_solve_exit_codes_hold_on_any_payload.hypothesis.inner_test(payload)


@FUZZ
@given(artifact_payloads | problem_payloads() | json_values)
def test_report_exit_codes_hold_on_any_payload(payload):
    rc, _ = _run("report", payload)
    assert rc in (0, 2)


@FUZZ
@given(copies_inputs())
def test_copies_exit_codes_hold_on_any_payload(inputs):
    config, spec = inputs
    rc, written = _run("copies", config, spec)
    assert rc in (0, 2)
    if rc == 0:
        pts = np.asarray(config["points"], dtype=float)
        d = ((pts[:, None] - pts[None]) ** 2).sum(axis=-1)
        want = np.asarray(spec["sq_dist"], dtype=float)
        realizing = [
            list(t)
            for t in itertools.combinations(range(len(pts)), len(want))
            if any(np.all(sq_close(d[np.ix_(p, p)], want)) for p in itertools.permutations(t))
        ]
        assert written["copies"] == realizing
        assert written["count"] == len(realizing)


@settings(FUZZ, max_examples=200)
@given(construct_argv())
def test_construct_exit_codes_hold_on_any_argument(argv):
    rc, cfg = _run_argv("construct", *argv)
    assert rc in (0, 2)
    assert (cfg is not None) == (rc == 0)


@FUZZ
@given(st.sampled_from(["five-point", "classification"]), st.integers(-1, 7))
def test_scan_exit_codes_hold_on_any_color_count(kind, r):
    rc, written = _run_argv("scan", kind, "--r", str(r))
    assert rc in (0, 1, 2)
    assert (written is not None) == (rc != 2)
    if written is not None:
        assert (written["kind"], written["r"]) == (kind, r)


class Pairs(list):
    """A JSON object written from (key, value) pairs, so a key may repeat."""


class Raw(str):
    """A number token, or an object key, written with exactly this spelling."""


def _json_text(value, style: str, rng: random.Random, depth: int = 0) -> str:
    """``value`` as JSON text: "compact" has no whitespace, "default" is
    ``json.dumps``' spacing, "indent" puts each member on its own line
    indented by two spaces a level, "random" puts 0-2 random JSON
    whitespace characters around every token."""

    def ws():
        return "".join(rng.choice(" \t\n\r") for _ in range(rng.randrange(3))) if style == "random" else ""

    def nl(d):
        return "\n" + "  " * d if style == "indent" else ""

    comma = ", " if style == "default" else ","
    colon = ":" if style in ("compact", "random") else ": "
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, (dict, Pairs)):
        items = list(value.items() if isinstance(value, dict) else value)
        body = comma.join(
            f"{nl(depth + 1)}{ws()}{k if isinstance(k, Raw) else json.dumps(k)}{ws()}{colon}{ws()}"
            f"{_json_text(v, style, rng, depth + 1)}{ws()}"
            for k, v in items
        )
        return "{" + body + (nl(depth) if items else "") + "}"
    if isinstance(value, list):
        body = comma.join(f"{nl(depth + 1)}{ws()}{_json_text(v, style, rng, depth + 1)}{ws()}" for v in value)
        return "[" + body + (nl(depth) if value else "") + "]"
    return json.dumps(value)


NUMBERS = (
    st.just(0.0)
    | st.just(0.0)
    | st.floats()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([-0.0, 5e-324, 1e308, 2**53 + 1, 10**400, math.nan, math.inf, -math.inf])
    | st.sampled_from(["-0", "1E5", "-0.0", "0.0e0", "5e-324", "1.0000000000000002", "-Infinity"]).map(Raw)
)


@st.composite
def points_values(draw, side=6, numbers=NUMBERS):
    """A rectangular array of number rows, at most ``side`` by ``side``,
    or one with a single flaw that keeps it from being one."""
    n, dim = draw(st.integers(1, side)), draw(st.integers(1, side))
    rows = [[draw(numbers) for _ in range(dim)] for _ in range(n)]
    flaw = draw(st.sampled_from([None, None, None, "ragged", "nested", "string", "object", "bool", "empty"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))
    if flaw == "ragged":
        rows[i].append(0.0)
    elif flaw == "empty":
        rows = draw(st.sampled_from([[], [[]], [[], []]]))
    elif flaw is not None:
        rows[i][j] = {"nested": [1.0], "string": "1.5", "object": {"points": [[1.0]]}, "bool": True}[flaw]
    return rows


# "points" spelled with escapes, and keys that only look like it
ESCAPED_KEYS = ['"\\u0070oints"', '"p\\u006fint\\u0073"', '"points\\u0020"', '"\\u0050oints"', '"\\\\points"']


def _utf8(s: str) -> str:
    """``s`` as a JSON string with its non-ASCII characters unescaped, so
    the file holds them as UTF-8."""
    return json.dumps(s, ensure_ascii=False)


@st.composite
def json_documents(draw, points=points_values()):
    """A configuration, problem or other document, possibly with
    nested, repeated or escaped ``points`` keys, ``points`` inside
    strings, and UTF-8 keys and strings around ``points``."""
    doc = draw(
        st.fixed_dictionaries(
            {"dim": st.integers(1, 6), "points": points},
            optional={"copies": st.just({"pair": [[0, 1]]}), "labels": st.lists(st.text(max_size=3)),
                      "notes": st.fixed_dictionaries({}, optional={"points": points, "kind": st.text(max_size=3)})},
        )
        | problem_payloads()
        | json_values
        | st.builds(lambda a, b: Pairs([("points", a), ("x", '"points": [[1.0]]'), ("points", b)]), points, points)
        | st.builds(lambda a: [{"points": a}, "points", {"config": {"points": a}}], points)
        | st.builds(lambda a, key: Pairs([(Raw(key), a), ("dim", 2)]), points, st.sampled_from(ESCAPED_KEYS))
        | st.builds(
            lambda a, s: Pairs([(Raw(_utf8(s)), Raw(_utf8(s))), ("points", a), (Raw(_utf8(s + "ü")), [Raw(_utf8(s))])]),
            points, st.text(st.characters(min_codepoint=128, exclude_categories=["Cs"]), min_size=1, max_size=3),
        )
    )
    return _json_text(doc, draw(st.sampled_from(["compact", "default", "indent", "random"])), random.Random(draw(st.integers(0, 9))))


def _is_number_rows(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) > 0
        and all(isinstance(row, list) and len(row) == len(value[0]) > 0 for row in value)
        and all(type(x) in (int, float) for row in value for x in row)
    )


def _assert_same(got, want):
    """``got`` equals ``want`` with types and float bits, except that a
    ``points`` value numpy can read as float64 rows is canonical rows
    whose dense array is that ndarray."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want)
        for key, value in want.items():
            if key == "points" and _is_number_rows(value):
                try:
                    ref = np.asarray(value, dtype=float)
                except OverflowError:  # an integer beyond float range stays a list, as from json
                    ref = None
                if ref is not None:
                    assert_canonical(got[key])
                    assert np.array_equal(got[key].dense().view(np.uint64), ref.view(np.uint64))
                    continue
            _assert_same(got[key], value)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, float):
        assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert type(got) is type(want) and got == want


@settings(FUZZ, max_examples=400)
@given(json_documents(), st.sampled_from([None, None, "delete", "insert", "truncate"]), st.integers(0, 10**6),
       st.sampled_from(list('[]{},:"0.-eN ')))
def test_read_json_equals_json_load(text, mutation, at, char):
    at %= len(text) + 1
    if mutation == "delete":
        text = text[:at] + text[at + 1 :]
    elif mutation == "insert":
        text = text[:at] + char + text[at:]
    elif mutation == "truncate":
        text = text[:at]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            fh.write(text)
        try:
            with open(path) as fh:
                want = json.load(fh)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                read_json(path)
            assert str(got.value) == str(exc)
            return
        _assert_same(read_json(path), want)


@settings(FUZZ, max_examples=200)
@given(json_documents(points_values(12, st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), NUMBERS))),
       st.sampled_from([None, None, "delete", "insert", "truncate"]), st.integers(0, 10**6),
       st.sampled_from(list('[]{},:"0.-eN ')))
def test_read_json_equals_json_load_in_small_chunks(text, mutation, at, char):
    """The same equality with eight coordinates a chunk, on arrays up to
    12 x 12 and mostly zeros: they span several chunks,
    rows wider than eight are chunks of one row, and both the sliced and
    the whole-chunk decoding run."""
    with mock.patch.object(geometry, "_TOKEN_CHUNK", 8):
        test_read_json_equals_json_load.hypothesis.inner_test(text, mutation, at, char)


# Each array below repeats a few values, as the tetra artifacts do: its
# entries are zeros and the values of a pool of at most four.
POOL = st.sampled_from([-0.0, 5e-324, 1e308, 1 / 3]) | st.floats()
# Equal values spelled differently, so that equal values do not share a text.
SPELLINGS = ["1.5", "1.50", "15e-1", "-0.0", "5e-324", "1e308", "0.3333333333333333", "0.0", "0", "0.00"]


@settings(FUZZ, max_examples=200)
@given(st.lists(POOL, min_size=1, max_size=4), st.integers(1, 12), st.integers(1, 12), st.data(),
       st.sampled_from([None, 8]))
def test_write_rows_writes_what_json_dumps_writes_on_repeated_values(pool, n, dim, data, chunk):
    """The writer formats each distinct stored value once per array and
    cuts its zeros from a template; fed the canonical rows of an array,
    its text is still ``json.dumps`` of the array's rows, over one block
    and over many (eight coordinates a block)."""
    entries = st.sampled_from([0.0, *pool])
    points = np.array([[data.draw(entries) for _ in range(dim)] for _ in range(n)])
    out = io.BytesIO()
    with mock.patch.object(geometry, "_TOKEN_CHUNK", chunk or geometry._TOKEN_CHUNK):
        geometry._write_rows(out, geometry.CSR.from_dense(points))
    assert out.getvalue() == json.dumps(points.tolist()).encode()


@settings(FUZZ, max_examples=200)
@given(st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=4), st.integers(1, 12), st.integers(1, 12),
       st.data(), st.sampled_from(["compact", "default", "random"]), st.sampled_from([None, 8]))
def test_read_json_equals_json_load_on_respelled_values(pool, n, dim, data, style, chunk):
    """``read_json`` decodes each distinct token text once; equal values
    spelled differently in one chunk (``1.5``, ``1.50``, ``15e-1``) must
    still read as ``json.load`` reads them, with the default chunk and
    with eight coordinates a chunk."""
    entries = st.sampled_from(["0.0", *pool]).map(Raw)
    rows = [[data.draw(entries) for _ in range(dim)] for _ in range(n)]
    text = _json_text(Pairs([("dim", dim), ("points", rows)]), style, random.Random(n * 13 + dim))
    with mock.patch.object(geometry, "_TOKEN_CHUNK", chunk or geometry._TOKEN_CHUNK):
        test_read_json_equals_json_load.hypothesis.inner_test(text, None, 0, " ")
