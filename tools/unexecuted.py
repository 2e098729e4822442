"""List the statements of ``src/egr`` that neither the tests nor the bench run.

Run from anywhere in a source checkout:

    python tools/unexecuted.py

It runs the tier-1 suite (pytest, in this process) and then one pass of
each bench workload's op list, set up at seed 0 in a temporary
directory, under the standard library's line tracer (``sys.settrace``).
It then prints each ``src/egr`` statement that never ran, as
``path:line: source``, and their count.  Code run in child processes is
not seen.  The bench is imported and read, never changed.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "egr"


def statement_spans(path: Path) -> list[tuple[int, int]]:
    """(first, last) source lines of each statement's own code: a simple
    statement's whole extent, a compound statement's header up to its
    body.  Docstrings and ``global``/``nonlocal`` run no code."""
    spans = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans.append((first, max(first, last)))
    return spans


def traced(run) -> dict[str, set[int]]:
    """Run ``run()`` and return the lines executed in each ``src/egr`` file."""
    prefix = str(SRC) + os.sep
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hit


def run_tier1() -> int:
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT)])


def run_bench() -> list[tuple[str, str]]:
    """One checked pass of each workload's ops; returns the failures."""
    from bench.run import run_pass
    from bench.workloads import WORKLOADS
    from egr.cli import main

    failed = []
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory() as work:
            inputs, outputs = os.path.join(work, "inputs"), os.path.join(work, "outputs")
            os.mkdir(inputs)
            os.mkdir(outputs)
            workload.setup(inputs, 0)
            failed += run_pass(main, workload.ops(inputs, outputs), None, []).failures
    return failed


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    status: dict[str, object] = {}

    def run():
        status["tests"] = run_tier1()
        status["bench"] = run_bench()

    hit = traced(run)
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        ran = hit.get(str(path), set())
        for first, last in sorted(statement_spans(path)):
            if not ran.intersection(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements never executed (pytest exit {status['tests']}, bench failures {status['bench']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
