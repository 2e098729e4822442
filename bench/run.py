"""Benchmark of the egr command line, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload solve-census --seed 0 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` by a set-up child
process (three times; the median is ``setup_s``).  This process then
imports egr from ``src/`` and runs timed passes over the workload's
fixed list of CLI ops through ``egr.cli.main(argv)``, checking every
op's output.  With ``--trace 1`` it alternates plain and traced
passes; the traced ones install span wrappers around the public egr
functions the CLI calls and report per-layer metrics.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  A full record (machine, seed,
commit, per-op results and, when traced, every span) is written to
``.bench_work/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
if __name__ == "__main__":
    # One process and no extra threads: BLAS pools get one thread unless
    # the caller chose otherwise.  This must precede the numpy import.
    for _var in THREAD_VARS:
        os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.trace import Tracer, layer_self_times, self_times  # noqa: E402
from bench.workloads import WORKLOADS, Op, Outcome  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_bytes": "B"}
VERBS = ("construct", "solve", "copies", "scan", "report")
LAYERS = ("cli", "tetra", "geometry", "solver", "palettes")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "tetra.build_s": "s",
    "tetra.points": "count",
    "tetra.dim": "count",
    "tetra.copies": "count",
    "geometry.write_s": "s",
    "geometry.read_s": "s",
    "geometry.validate_s": "s",
    "geometry.enumerate_s": "s",
    "geometry.copies_found": "count",
    "solver.load_s": "s",
    "solver.search_s": "s",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.replay_s": "s",
    "solver.replay_calls": "count",
    "palettes.scan_s": "s",
    "palettes.classify_calls": "count",
    "trace.overhead": "ratio",
}
BUILDERS = ("tetra.build_x1", "tetra.build_link", "tetra.build_anchor_gadget")


# ---------------------------------------------------------------- tracing


def trace_targets():
    """Every public egr function the CLI calls, with the places it lives.

    The functions imported into ``egr.cli`` and the methods it calls on
    the classes it imports, plus the module-level names through which
    egr functions reach the JSON I/O, the witness replay and the
    palette classifier.
    """
    import egr.cli as cli
    import egr.geometry as geometry
    import egr.palettes as palettes
    import egr.solver as solver

    counts = {
        "build_x1": _build_counts,
        "build_link": _build_counts,
        "build_anchor_gadget": _build_counts,
        "enumerate_copies": lambda out: {"geometry.copies_found": len(out)},
        "solve_gr": lambda out: {"solver.nodes": out.stats.nodes},
    }
    groups: dict[int, list] = {}
    places = [(cli, n) for n, v in vars(cli).items() if inspect.isfunction(v) and v.__module__ != "egr.cli"]
    places += [
        (geometry, "write_json_atomic"),
        (geometry, "read_json"),
        (geometry.Configuration, "save"),
        (geometry.Configuration, "load"),
        (geometry.Configuration, "from_json_dict"),
        (geometry.SimplexSpec, "load"),
        (solver.ColoringProblem, "from_json_dict"),
        (solver, "verify_coloring"),
        (palettes, "classify_quadruple"),
    ]
    for owner, attr in places:
        fn = getattr(owner, attr)
        fn = getattr(fn, "__func__", fn)
        groups.setdefault(id(fn), [fn, []])[1].append((owner, attr))
    return [
        (f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}", where, counts.get(fn.__name__))
        for fn, where in groups.values()
    ]


def _build_counts(out) -> dict:
    return {"tetra.points": len(out.cfg), "tetra.dim": out.cfg.dim, "tetra.copies": len(out.tetra_copies)}


def layer_metrics(spans, counts, own, ids) -> dict:
    """Per-layer metrics over the spans ``ids`` (one traced pass)."""
    m = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items() if name != "trace.overhead"}
    decided_search = 0.0
    for i in ids:
        s = spans[i]
        dur = s.end - s.start
        layer = s.name.split(".", 1)[0]
        m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + own[i]
        if s.name in BUILDERS:
            m["tetra.build_s"] += dur
        elif s.name == "geometry.write_json_atomic":
            m["geometry.write_s"] += dur
        elif s.name == "geometry.Configuration.save":
            m["geometry.write_s"] += own[i]
        elif s.name == "geometry.read_json":
            m["geometry.read_s"] += dur
        elif s.name == "geometry.Configuration.from_json_dict":
            m["geometry.validate_s"] += own[i]
        elif s.name == "geometry.enumerate_copies":
            m["geometry.enumerate_s"] += dur
        elif s.name == "solver.ColoringProblem.from_json_dict":
            m["solver.load_s"] += own[i]
        elif s.name == "solver.solve_gr":
            m["solver.search_s"] += own[i]
            if i in counts:
                decided_search += own[i]
        elif s.name == "solver.verify_coloring":
            m["solver.replay_s"] += dur
            m["solver.replay_calls"] += 1
        elif s.name == "palettes.classification_scan":
            m["palettes.scan_s"] += dur
        elif s.name == "palettes.classify_quadruple":
            m["palettes.classify_calls"] += 1
        for key, value in counts.get(i, {}).items():
            m[key] += value
    m["solver.nodes_per_s"] = m["solver.nodes"] / decided_search if decided_search > 0 else 0.0
    return m


# ---------------------------------------------------------------- passes


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    artifact_bytes: int = 0
    info: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_op(main, op: Op, tracer: Tracer | None):
    """Run one CLI op in-process; returns (seconds, outcome)."""
    if op.output and os.path.exists(op.output):
        os.unlink(op.output)
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.span(f"cli.{op.verb}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                rc = main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the op failed; the benchmark records it and goes on
            error = f"{type(exc).__name__}: {exc}"[:300]
        seconds = time.perf_counter() - start
    return seconds, Outcome(rc, out.getvalue(), err.getvalue(), error)


def check_op(op: Op, outcome: Outcome) -> str | None:
    try:
        return op.check(outcome)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        return f"check raised {type(exc).__name__}: {exc}"[:300]


def run_pass(main, ops: list[Op], tracer: Tracer | None, op_ids: list) -> PassResult:
    result = PassResult()
    for op in ops:
        if tracer:
            tracer.op = len(op_ids)
            op_ids.append(op.name)
        seconds, outcome = run_op(main, op, tracer)
        result.times.append(seconds)
        reason = check_op(op, outcome)
        if reason:
            result.failures.append((op.name, reason))
        if op.output and os.path.exists(op.output):
            result.artifact_bytes += os.path.getsize(op.output)
        if op.info and not reason:
            result.info[op.name] = op.info()
    return result


# ---------------------------------------------------------------- record


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "egr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<26} {shown:>14} {unit:<6} {note}")


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    def seconds(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be > 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--seconds", type=seconds, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_only(args, inputs: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    WORKLOADS[args.workload].setup(str(inputs), args.seed)
    return 0


def run_setup(args, inputs: Path) -> list[float]:
    """Generate the inputs SETUP_REPEATS times, each in a fresh process."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload]
    cmd += ["--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed with exit {done.returncode}:\n{done.stderr[-2000:]}")
    return times


@dataclass
class Measured:
    untraced: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    tracer: Tracer | None = None
    op_names: list[str] = field(default_factory=list)  # per traced op id
    pass_of_op: list[int] = field(default_factory=list)  # traced op id -> traced pass


def measure(egr_main, ops: list[Op], seconds: float, trace: bool) -> Measured:
    """Plain passes until ``seconds`` and MIN_PASSES; with ``trace``,
    plain and traced passes alternate until ``seconds``."""
    m = Measured(tracer=Tracer() if trace else None)
    targets = trace_targets() if trace else []
    start = time.perf_counter()
    while True:
        m.untraced.append(run_pass(egr_main, ops, None, m.op_names))
        if m.tracer:
            with m.tracer.installed(targets):
                m.traced.append(run_pass(egr_main, ops, m.tracer, m.op_names))
            m.pass_of_op += [len(m.traced) - 1] * (len(m.op_names) - len(m.pass_of_op))
        if time.perf_counter() - start >= seconds and (trace or len(m.untraced) >= MIN_PASSES):
            return m


def summarize_trace(m: Measured, pass_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and the record."""
    spans, counts = m.tracer.spans, m.tracer.counts
    own = self_times(spans)
    by_pass: list[list[int]] = [[] for _ in m.traced]
    for i, s in enumerate(spans):
        by_pass[m.pass_of_op[s.op]].append(i)
    layer = [layer_metrics(spans, counts, own, ids) for ids in by_pass]
    per_layer = {name: statistics.median(x[name] for x in layer) for name in PER_LAYER if name != "trace.overhead"}
    per_layer["trace.overhead"] = statistics.median(p.wall for p in m.traced) / pass_s - 1.0

    selfs = layer_self_times(spans)
    total = sum(selfs.values())
    n = len(m.traced)
    rows = [
        (f"{name}.self_s", value / n, "s", f"{value / total:6.1%} of traced time")
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1])
    ]
    traced_mean = statistics.mean(p.wall for p in m.traced)
    rows.append(("sum of self times", total / n, "s", f"traced pass mean {traced_mean:.6g} s"))
    rows.append(("untraced pass_s", pass_s, "s", f"overhead {per_layer['trace.overhead']:+.1%}"))
    print_table(f"layers (traced, mean of {n} passes):", rows)
    print_table("per-layer metrics (median over traced passes):", [(k, v, PER_LAYER[k], "") for k, v in per_layer.items()])

    nodes: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if "solver.nodes" in counts.get(i, {}):
            nodes.setdefault(m.op_names[s.op], []).append(counts[i]["solver.nodes"])
    record = {
        "per_layer": per_layer,
        "layer_self_s": selfs,
        "nodes_by_op": nodes,
        "op_names": m.op_names,
        "spans": [list(s) for s in spans],
        "counts": {str(k): v for k, v in counts.items()},
    }
    return per_layer, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "egr" / "cli.py").is_file():
        print(f"error: no egr sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / args.workload
    inputs, outputs = work / "inputs", work / "outputs"
    if args.setup_only:
        return setup_only(args, inputs)

    workload = WORKLOADS[args.workload]
    try:
        setup_times = run_setup(args, inputs)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(outputs, ignore_errors=True)
    outputs.mkdir(parents=True)

    sys.path.insert(0, str(ROOT / "src"))
    from egr.cli import main as egr_main

    ops = workload.ops(str(inputs), str(outputs))
    m = measure(egr_main, ops, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probe = None
    if workload.probe is not None:
        probe_op = workload.probe(str(inputs), str(outputs))
        seconds, outcome = run_op(egr_main, probe_op, None)
        probe = {"op": probe_op.name, "seconds": seconds, "failure": check_op(probe_op, outcome)}

    untraced = m.untraced
    attempted = len(ops) * (len(untraced) + len(m.traced))
    failures = [f for p in untraced + m.traced for f in p.failures]
    verbs = {v: [sum(t for t, op in zip(p.times, ops) if op.verb == v) for p in untraced] for v in VERBS}
    e2e = {
        "pass_s": statistics.median(p.wall for p in untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "artifact_bytes": statistics.median(p.artifact_bytes for p in untraced),
    }

    info = machine_info()
    print(f"egr bench: workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print(
        f"machine: nproc={info['nproc']} cpu={info['cpu_model']!r} python={info['python']} "
        f"numpy={info['numpy']} blas={info['blas']!r}"
    )
    print("threads: " + " ".join(f"{k}={v}" for k, v in info["threads_env"].items()))
    print(f"commit: {info['commit']} src_sha256={info['src_sha256'][:16]}")
    n = len(untraced)
    with_probe = attempted + (probe is not None)
    failed_all = len(failures) + int(bool(probe and probe["failure"]))
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"median of {len(setup_times)} set-ups"),
        ("pass_s", e2e["pass_s"], "s", f"median of {n} passes, {len(ops)} ops each"),
    ]
    rows += [(f"{v}_s", statistics.median(ts), "s", f"median of {n}") for v, ts in verbs.items() if any(ts)]
    rows += [
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss after the passes, before any probe"),
        ("artifact_bytes", e2e["artifact_bytes"], "B", "output bytes per pass"),
        ("failed_frac", failed_all / with_probe, "ratio", f"{failed_all} of {with_probe} ops, probe included"),
    ]
    print_table("end to end:", rows)
    op_rows = []
    for i, op in enumerate(ops):
        seen = {p.info[op.name]["nodes"] for p in untraced if "nodes" in p.info.get(op.name, {})}
        note = f"nodes {', '.join(map(str, sorted(seen)))}" if seen else ""
        op_rows.append((op.name, statistics.median(p.times[i] for p in untraced), "s", note))
    print_table("per op (median):", op_rows)
    if probe:
        print(f"probe (untimed): {probe['op']} in {probe['seconds']:.3f} s: {probe['failure'] or 'ok'}")
    for name, reason in failures[:10]:
        print(f"FAILED {name}: {reason}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": info,
        "setup_times": setup_times,
        "end_to_end": e2e,
        "verbs": verbs,
        "ops": [op.name for op in ops],
        "pass_times": [p.times for p in untraced],
        "op_info": [p.info for p in untraced],
        "failures": failures,
        "probe": probe,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if m.tracer:
        per_layer, record["traced"] = summarize_trace(m, e2e["pass_s"])
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in per_layer.items()}

    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
