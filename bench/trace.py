"""In-memory spans around the public egr functions the CLI calls.

A ``Tracer`` wraps each target function once and patches every place
that refers to it, so a call through ``egr.cli`` and a call from inside
another egr module land in the same span.  Spans stay in a list until
the run ends; ``self_times`` turns them into per-span self time: the
span's duration minus the part of it that its child spans cover.

Only the traced run installs the wrappers, and ``Tracer.installed``
puts every original back on exit, so timed passes run the unmodified
program.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def layer_of(name: str) -> str:
    """Layer of a span name: the egr module named by its first part."""
    return name.split(".", 1)[0]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is not None and a <= run_hi:
            run_hi = max(run_hi, b)
            continue
        if run_hi is not None:
            total += run_hi - run_lo
        run_lo, run_hi = a, b
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[layer_of(s.name)] = out.get(layer_of(s.name), 0.0) + own
    return out


def _attr(owner, attr):
    # Read classmethods as the descriptor itself, so they can be restored.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@dataclass
class Tracer:
    """Span recorder for one traced run.

    ``counts`` maps a span id to the exact counts that the wrapper's
    ``count`` hook read from the wrapped call's result.  ``op`` is the
    id stamped on new spans; the caller sets it before each CLI op.
    """

    spans: list[Span] = field(default_factory=list)
    counts: dict[int, dict[str, int]] = field(default_factory=dict)
    op: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.op))
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid] = self.spans[sid]._replace(end=time.perf_counter())

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sid:
                out = fn(*args, **kwargs)
            if count is not None:
                self.counts[sid] = count(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``targets`` for the duration of the block.

        ``targets`` lists ``(name, places, count)``; ``places`` lists the
        ``(owner, attribute)`` pairs that all hold one function or
        classmethod, which is wrapped once.  Originals come back on exit.
        """
        saved = []
        try:
            for name, places, count in targets:
                original = _attr(*places[0])
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(name, original.__func__, count))
                else:
                    patched = self.wrap(name, original, count)
                for owner, attr in places:
                    saved.append((owner, attr, _attr(owner, attr)))
                    setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
