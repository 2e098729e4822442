"""Complete search for color-forcing verdicts on finite configurations.

A problem asks: does every r-coloring of the points contain some mono
target tuple colored all-same or some rainbow target tuple colored
all-distinct?  ``solve_gr`` answers by backtracking over points with
bitmask domains, a conflict-weighted variable order (forced points
first, then the smallest domain per unit of failure weight), and
first-use color symmetry breaking; a problem whose configuration
declares point symmetries that keep its targets is searched in a static
orbit order under lex-leader constraints instead.  One propagation rule
serves both target kinds: when a target has one uncolored point left,
that point loses every color that would complete the target.  FORCED
means the search space closed with no avoiding coloring, COUNTEREXAMPLE
ships the avoiding coloring it found.  Running out of budget raises; an
undecided instance never masquerades as a verdict.

``exhaustive_oracle`` re-derives small verdicts by plain enumeration so
the solver has an independent reference, and ``five_point_logic_scan``
enumerates every coloring of a five-point gadget to confirm the forced
chord-endpoint agreement that the gadget geometry encodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Configuration, as_index, as_indices, components

FORCED = "FORCED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"

ORACLE_CAP = 10**7
DEFAULT_BUDGET = 300.0


class BudgetExceeded(RuntimeError):
    """Search ran out of time before reaching a verdict."""


def declared_symmetry(cfg: Configuration) -> list[tuple[int, ...]]:
    """The point permutations in ``cfg.notes["symmetry"]``, each the
    full image list of one generator.  Anything but a list of
    permutations of ``range(n)`` is refused."""
    n = len(cfg.points)
    declared = cfg.notes.get("symmetry", []) if isinstance(cfg.notes, dict) else []
    if not isinstance(declared, list):
        raise ValueError(f"notes.symmetry must be a list of point images, got {type(declared).__name__}")
    images = []
    for img in declared:
        if not isinstance(img, (list, tuple)):
            raise ValueError(f"a symmetry image must be a list of point indices, got {type(img).__name__}")
        img = tuple(as_indices(img, n, "symmetry image index"))
        if len(img) != n or len(set(img)) != n:
            raise ValueError(f"a symmetry image of {len(img)} indices is not a permutation of range({n})")
        images.append(img)
    return images


@dataclass
class ColoringProblem:
    """Targets over the points of ``cfg`` and a color count.

    ``watch[p]`` lists each distinct target through point p, read once
    as a point set: a ``(sorted tuple, rainbow)`` pair, mono targets first.
    ``generators`` are the point permutations declared in
    ``cfg.notes["symmetry"]`` that map the mono target set and the
    rainbow target set each onto itself, checked on every watched
    target; the others are dropped, which is always sound.
    """

    cfg: Configuration
    mono_targets: list[tuple[int, ...]]
    rainbow_targets: list[tuple[int, ...]]
    r: int
    generators: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)
    watch: list[list[tuple[tuple[int, ...], bool]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.cfg.points)
        self.mono_targets = [tuple(as_indices(t, n, "mono target index")) for t in self.mono_targets]
        self.rainbow_targets = [tuple(as_indices(t, n, "rainbow target index")) for t in self.rainbow_targets]
        for t in self.mono_targets + self.rainbow_targets:
            if len(t) < 2 or len(set(t)) < len(t):
                raise ValueError(f"target {t} needs at least 2 points and repeats none")
        self.r = as_index(self.r, "color count")
        if self.r < 1:
            raise ValueError(f"color count must be positive, got {self.r}")
        # Mono targets come first in each watch list: the order decides which
        # target fails first, hence solve_gr's weights and search tree.
        kinds = ((self.mono_targets, False), (self.rainbow_targets, True))
        targets = dict.fromkeys((tuple(sorted(t)), rainbow) for ts, rainbow in kinds for t in ts)
        self.watch = [[] for _ in range(n)]
        for entry in targets:
            for p in entry[0]:
                self.watch[p].append(entry)
        images = dict.fromkeys(declared_symmetry(self.cfg))
        images.pop(tuple(range(n)), None)  # the identity breaks nothing
        # Only the targets through a point an image moves can move.
        self.generators = [
            img
            for img in images
            if all(
                (tuple(sorted([img[i] for i in t])), rainbow) in targets
                for p, q in enumerate(img) if p != q for t, rainbow in self.watch[p]
            )
        ]

    def to_json_dict(self) -> dict:
        return {
            "config": self.cfg.to_json_dict(),
            "mono": [list(t) for t in self.mono_targets],
            "rainbow": [list(t) for t in self.rainbow_targets],
            "r": self.r,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ColoringProblem":
        return cls(
            cfg=Configuration.from_json_dict(payload["config"]),
            mono_targets=[tuple(t) for t in payload["mono"]],
            rainbow_targets=[tuple(t) for t in payload["rainbow"]],
            r=payload["r"],
        )


@dataclass
class SearchStats:
    nodes: int = 0
    elapsed: float = 0.0


@dataclass
class SearchResult:
    verdict: str
    witness: list[int] | None
    stats: SearchStats

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else [int(c) for c in self.witness],
            "stats": {"nodes": self.stats.nodes, "elapsed": self.stats.elapsed},
        }


def verify_coloring(problem: ColoringProblem, coloring) -> dict:
    """Replay a full coloring against every target.

    Returns the violated mono targets (colored all-same) and realized
    rainbow targets (colored all-distinct); ``clean`` means the
    coloring avoids everything and therefore certifies COUNTEREXAMPLE.
    """
    n = len(problem.cfg.points)
    cols = as_indices(coloring, problem.r, "color")
    if len(cols) != n:
        raise ValueError(f"coloring covers {len(cols)} of {n} points")
    mono_bad = [t for t in problem.mono_targets if len({cols[i] for i in t}) == 1]
    rain_bad = [t for t in problem.rainbow_targets if len({cols[i] for i in t}) == len(t)]
    return {
        "mono_violations": mono_bad,
        "rainbow_violations": rain_bad,
        "clean": not mono_bad and not rain_bad,
    }


def _orbit_order(generators: list[tuple[int, ...]], n: int) -> list[int]:
    """The points orbit by orbit of the group the generators generate,
    orbits by lowest index, each orbit in index order."""
    low = components(n, ((i, j) for img in generators for i, j in enumerate(img)))
    return sorted(range(n), key=lambda i: (low[i], i))


def solve_gr(problem: ColoringProblem, budget: float = DEFAULT_BUDGET) -> SearchResult:
    """Backtracking search for an avoiding coloring.

    Each point watches its targets in ``problem.watch``.  Once a
    watched target has one uncolored point left and its colors can still
    complete it, that point loses every color that would (unit
    propagation; Davis, Logemann and Loveland, CACM 1962): the one color
    of a mono target, or each color not yet on a rainbow one.

    Colors are interchangeable in every constraint, so each point may
    only take an already-used color or the lowest unused one; the used
    colors are then always a prefix 0..opened-1, and since backtracking
    is last-in first-out each stack frame restores the prefix length it
    started from.  Propagation removes only used colors, or every unused
    color at once, so the unused colors stay interchangeable under any
    variable order.

    Without point symmetry the order is conflict-weighted (dom/wdeg;
    Boussemart, Hemery, Lecoutre and Sais, ECAI 2004): every point
    starts at weight 1, and each failed propagation adds 1 to each point
    of the target that failed.  The next point is the lowest-index
    uncolored one with a single color left, else the one with the
    smallest domain size per unit of weight, ties going to the lowest
    index.  Weights depend only on which targets failed, so the search
    is deterministic and its tree is isomorphic under color permutation.

    With the problem's ``generators`` (point permutations that keep both
    target sets), the order is static: the orbits of the group G they
    generate, by lowest index, each orbit in index order.  First-use
    colors follow that order.  For each generator g the search keeps the
    lex-leader constraint X <=lex norm(X o g) (Crawford, Ginsberg, Luks
    and Roy, KR 1996), where X lists the colors in the static order and
    norm renames colors by first use in it; it prunes a node once the
    colored prefix decides X >lex norm(X o g), and drops g for the
    subtree once the prefix decides X <lex norm(X o g).  This is sound
    because G x S_r maps avoiding colorings to avoiding colorings, and
    the lex-least coloring of each orbit is first-use (else norm of it
    would be smaller) and is at most every norm(X o g) (each is in its
    orbit): it meets every constraint, and propagation never removes it.
    Value precedence and the lex-leader constraints follow one static
    order, as their combination requires (Walsh, CP 2006).

    The search keeps its own stack, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    n = len(problem.cfg.points)
    # First-use symmetry breaking opens at most one new color per point,
    # so colors beyond the point count are never reached.
    r = min(problem.r, n)
    full = (1 << r) - 1
    colors = [-1] * n
    domains = [full] * n

    # A rainbow target longer than r can never be colored all-distinct.
    watch = [[e for e in w if not e[1] or len(e[0]) <= r] for w in problem.watch]
    weight = [1] * n

    # waiting[k] holds the lex comparisons (g, j, renaming) that resume
    # once position k of the static order is colored: X and norm(X o g)
    # agree on positions < j, and the renaming maps the colors of X o g
    # there to those of X.
    order = _orbit_order(problem.generators, n) if problem.generators else []
    rank = [0] * n
    for k, p in enumerate(order):
        rank[p] = k
    waiting: list[list[tuple[tuple[int, ...], int, dict]]] = [[] for _ in order]
    for img in problem.generators:
        waiting[rank[img[order[0]]]].append((img, 0, {}))

    start = time.monotonic()
    deadline = start + budget
    stats = SearchStats()

    def propagate(idx: int, trail: list[tuple[int, int | None]]) -> tuple[int, ...] | None:
        """Narrow the domains the new color of ``idx`` constrains.

        Returns None on success, else the failing target: one colored
        into a violation, or the one whose rule emptied a domain.
        """
        c = colors[idx]
        for t, rainbow in watch[idx]:
            free = -1
            used = 0
            for p in t:
                cp = colors[p]
                if cp < 0:
                    if free >= 0:
                        break
                    free = p
                    continue
                bit = 1 << cp
                if used & bit if rainbow else cp != c:
                    break
                used |= bit
            else:
                # Unit propagation: the last uncolored point loses every
                # color that would complete the target.  Earlier steps leave
                # no target fully colored; the guard keeps free = -1 from
                # narrowing domains[-1].
                if free < 0:
                    return t
                dom = domains[free]
                narrowed = dom & used if rainbow else dom & ~used
                if narrowed != dom:
                    trail.append((free, dom))
                    domains[free] = narrowed
                    if not narrowed:
                        return t
        return None

    def lex_leader(k: int, trail: list[tuple[int, int | None]]) -> bool:
        """Resume the comparisons waiting on position k, just colored;
        False when one of them finds X >lex norm(X o g).  A comparison
        that stops on an uncolored position is queued at the later of
        its two points and trailed as (position, None)."""
        for img, j, rename in waiting[k]:
            rename = dict(rename)
            while j < n:
                p = order[j]
                w = max(j, rank[img[p]])
                if w > k:
                    waiting[w].append((img, j, rename))
                    trail.append((w, None))
                    break
                x, z = colors[p], rename.setdefault(colors[img[p]], len(rename))
                if x != z:
                    if x > z:
                        return False
                    break  # X <lex norm(X o g) for the whole subtree
                j += 1
        return True

    def pick(depth: int) -> int:
        if order:
            return order[depth] if depth < n else -1
        # size / weight is compared by cross-multiplication, so no float
        # rounding can break the index tie order.
        best, best_size, best_w = -1, r + 1, 1
        for i in range(n):
            if colors[i] < 0:
                size = domains[i].bit_count()
                if size == 1:
                    return i
                if size * best_w < best_size * weight[i]:
                    best, best_size, best_w = i, size, weight[i]
        return best

    def dfs() -> bool:
        # The point being colored lives in locals; every point above it
        # is saved as (point, colors still to try, trail of its color,
        # colors opened before it).
        stack: list[tuple[int, int, list, int]] = []
        opened = 0
        idx = pick(0)
        while idx >= 0:
            cand = domains[idx] & ((2 << opened) - 1) & full
            trail = None
            while True:
                if trail is not None:
                    for p, dom in reversed(trail):
                        if dom is None:
                            waiting[p].pop()
                        else:
                            domains[p] = dom
                    colors[idx] = -1
                if not cand:
                    if not stack:
                        return False
                    idx, cand, trail, opened = stack.pop()
                    continue
                bit = cand & -cand
                cand ^= bit
                c = bit.bit_length() - 1
                stats.nodes += 1
                if time.monotonic() > deadline:
                    raise BudgetExceeded(
                        f"no verdict after {stats.nodes} nodes within {budget} s"
                    )
                colors[idx] = c
                trail = []
                if order and not lex_leader(len(stack), trail):
                    continue
                failed = propagate(idx, trail)
                if failed is None:
                    break
                for p in failed:
                    weight[p] += 1
            stack.append((idx, cand, trail, opened))
            opened = max(opened, c + 1)
            idx = pick(len(stack))
        return True

    found = dfs()
    stats.elapsed = time.monotonic() - start
    if found:
        witness = list(colors)
        report = verify_coloring(problem, witness)
        if not report["clean"]:
            raise AssertionError("search returned a non-avoiding coloring")
        return SearchResult(verdict=COUNTEREXAMPLE, witness=witness, stats=stats)
    return SearchResult(verdict=FORCED, witness=None, stats=stats)


def _digit_matrix(codes: np.ndarray, n: int, r: int) -> np.ndarray:
    digits = np.empty((len(codes), n), dtype=np.int64)
    rest = codes.copy()
    for j in range(n):
        rest, digits[:, j] = np.divmod(rest, r)
    return digits


def _avoids(digits: np.ndarray, mono, rainbow) -> np.ndarray:
    """Mask of the colorings (rows of ``digits``) that color no mono
    target all-same and no rainbow target all-distinct."""
    avoid = np.ones(len(digits), dtype=bool)
    for t in mono:
        same = np.ones(len(digits), dtype=bool)
        for p in t[1:]:
            same &= digits[:, p] == digits[:, t[0]]
        avoid &= ~same
    for t in rainbow:
        distinct = np.ones(len(digits), dtype=bool)
        for a_i in range(len(t)):
            for b_i in range(a_i + 1, len(t)):
                distinct &= digits[:, t[a_i]] != digits[:, t[b_i]]
        avoid &= ~distinct
    return avoid


def exhaustive_oracle(problem: ColoringProblem) -> SearchResult:
    """Enumerate every coloring; independent reference for solve_gr."""
    n = len(problem.cfg.points)
    r = problem.r
    total = r**n
    if total > ORACLE_CAP:
        raise ValueError(f"{r}^{n} = {total} colorings exceed the oracle cap {ORACLE_CAP}")
    start = time.monotonic()
    stats = SearchStats()
    chunk = 1 << 14
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        digits = _digit_matrix(codes, n, r)
        avoid = _avoids(digits, problem.mono_targets, problem.rainbow_targets)
        if avoid.any():
            row = int(np.argmax(avoid))
            stats.nodes += row + 1
            stats.elapsed = time.monotonic() - start
            witness = [int(c) for c in digits[row]]
            return SearchResult(verdict=COUNTEREXAMPLE, witness=witness, stats=stats)
        stats.nodes += len(codes)
    stats.elapsed = time.monotonic() - start
    return SearchResult(verdict=FORCED, witness=None, stats=stats)


def five_point_logic_scan(r: int) -> dict:
    """Exhaust all r-colorings of the five-point gadget A,B,P,M,N.

    Hypotheses: the gap endpoints A and B get distinct colors and none
    of the four congruent triangles NPA, NPB, NMA, NMB is colored
    monochromatic or rainbow.  Under these, the chord endpoints M and P
    must agree; the scan counts colorings either way.
    """
    r = as_index(r, "color count")
    if not 3 <= r <= 5:
        raise ValueError(f"scan supports 3 <= r <= 5, got {r}")
    a, b, p, m, nn = 0, 1, 2, 3, 4
    triangles = [(nn, p, a), (nn, p, b), (nn, m, a), (nn, m, b)]
    codes = np.arange(r**5, dtype=np.int64)
    digits = _digit_matrix(codes, 5, r)
    # A and B distinct is the pair (A, B) read as a mono target.
    hyp = _avoids(digits, triangles + [(a, b)], triangles)
    agree = digits[:, m] == digits[:, p]
    return {
        "violations": int((hyp & ~agree).sum()),
        "conforming": int((hyp & agree).sum()),
    }
