"""Complete search for color-forcing verdicts on finite configurations.

A problem asks: does every r-coloring of the points contain some mono
target tuple colored all-same or some rainbow target tuple colored
all-distinct?  ``solve_gr`` answers by backtracking over points with
bitmask domains, a conflict-weighted variable order (forced points
first, then the smallest domain per unit of failure weight), and
first-use color symmetry breaking; a problem whose configuration
declares point symmetries that keep its targets is searched in a static
orbit order under lex-leader constraints instead.  Each target kind has
its own propagator with one rule: when a target has one uncolored point
left, that point loses every color that would complete the target.  FORCED
means the search space closed with no avoiding coloring, COUNTEREXAMPLE
ships the avoiding coloring it found.  Running out of budget raises; an
undecided instance never masquerades as a verdict.

``exhaustive_oracle`` re-derives small verdicts by plain enumeration so
the solver has an independent reference, and ``five_point_logic_scan``
enumerates every coloring of a five-point gadget to confirm the forced
chord-endpoint agreement that the gadget geometry encodes.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Configuration, as_index, as_indices, components, lex_rows

FORCED = "FORCED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"

ORACLE_CAP = 10**7
DEFAULT_BUDGET = 300.0
_IMAGE_ENTRIES = 1 << 20  # mapped target entries the generator check holds at once


class BudgetExceeded(RuntimeError):
    """Search ran out of time before reaching a verdict."""


def declared_symmetry(cfg: Configuration) -> list[tuple[int, ...]]:
    """The point permutations in ``cfg.notes["symmetry"]``, each the
    full image list of one generator.  Anything but a list of
    permutations of ``range(n)`` is refused."""
    n = len(cfg)
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

    Each distinct target is read once as a point set, mono targets
    first, each kind in first-occurrence order.  ``mono_partners[p]``
    and ``rainbow_partners[p]`` list, in that order, the other points of
    each distinct mono or rainbow target through point p, as sorted
    tuples.  ``generators`` are the point permutations declared in
    ``cfg.notes["symmetry"]`` that map the mono target set and the
    rainbow target set each onto itself, checked on every distinct
    target; the others are dropped, which is always sound.
    """

    cfg: Configuration
    mono_targets: list[tuple[int, ...]]
    rainbow_targets: list[tuple[int, ...]]
    r: int
    generators: list[tuple[int, ...]] = field(init=False, repr=False, compare=False)
    mono_partners: list[list[tuple[int, ...]]] = field(init=False, repr=False, compare=False)
    rainbow_partners: list[list[tuple[int, ...]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.cfg)
        self.mono_targets = [tuple(as_indices(t, n, "mono target index")) for t in self.mono_targets]
        self.rainbow_targets = [tuple(as_indices(t, n, "rainbow target index")) for t in self.rainbow_targets]
        for t in self.mono_targets + self.rainbow_targets:
            if len(t) < 2 or len(set(t)) < len(t):
                raise ValueError(f"target {t} needs at least 2 points and repeats none")
        self.r = as_index(self.r, "color count")
        if self.r < 1:
            raise ValueError(f"color count must be positive, got {self.r}")
        # The order of each partner list decides which target fails first,
        # hence solve_gr's weights and search tree.
        kinds = ((self.mono_targets, False), (self.rainbow_targets, True))
        targets = dict.fromkeys((tuple(sorted(t)), rainbow) for ts, rainbow in kinds for t in ts)
        self.mono_partners = [[] for _ in range(n)]
        self.rainbow_partners = [[] for _ in range(n)]
        for t, rainbow in targets:
            partners = self.rainbow_partners if rainbow else self.mono_partners
            # combinations(t, k - 1) leaves out the points of t last to first.
            for p, others in zip(reversed(t), itertools.combinations(t, len(t) - 1)):
                partners[p].append(others)
        images = dict.fromkeys(declared_symmetry(self.cfg))
        images.pop(tuple(range(n)), None)  # the identity breaks nothing
        self.generators = []
        if not images:
            return
        # The distinct targets of one kind and size, as rows in lexsort
        # order; an image keeps them when their images, sorted the same
        # way, are the same rows.  Images go in batches, the batch index
        # the first sort key; the smallest integer types that hold the
        # indices let numpy sort them by radix.
        groups: dict[tuple[bool, int], list[tuple[int, ...]]] = {}
        for t, rainbow in targets:
            groups.setdefault((rainbow, len(t)), []).append(t)
        perms = np.array(list(images), dtype=np.min_scalar_type(n - 1))
        keep = np.ones(len(perms), dtype=bool)
        for ts in groups.values():
            table = lex_rows(np.array(ts, dtype=perms.dtype))
            m, size = table.shape
            step = max(1, _IMAGE_ENTRIES // table.size)
            for lo in range(0, len(perms), step):
                mapped = np.sort(perms[lo : lo + step][:, table].reshape(-1, size), axis=1)
                batch = np.arange(len(mapped) // m, dtype=np.min_scalar_type(step)).repeat(m)
                mapped = mapped[np.lexsort((*mapped.T[::-1], batch))].reshape(-1, m, size)
                keep[lo : lo + step] &= (mapped == table).all(axis=(1, 2))
        self.generators = [img for img, ok in zip(images, keep) if ok]

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
    n = len(problem.cfg)
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


def _by_arity(partners: list[tuple[int, ...]]) -> tuple[int, list[tuple[int, ...]]]:
    """The list with its common length when that is 1 or 2, else 0."""
    lengths = set(map(len, partners))
    return (lengths.pop() if lengths in ({1}, {2}) else 0), partners


def solve_gr(problem: ColoringProblem, budget: float = DEFAULT_BUDGET) -> SearchResult:
    """Backtracking search for an avoiding coloring.

    Coloring a point runs two propagators over its partner lists
    (``problem.mono_partners`` and ``rainbow_partners``), mono first:
    once a target through it has one uncolored point left and its colors
    can still complete it, that point loses every color that would (unit
    propagation; Davis, Logemann and Loveland, CACM 1962): the one color
    of a mono target, or each color not yet on a rainbow one.  A list
    whose targets all have 2 or 3 points runs a loop unrolled for that
    size.  Both lists follow the order of the problem's distinct targets
    (each kind in first-occurrence order) and the mono one runs first, so
    the failing target and the order of narrowings are those of one loop
    over the point's mono targets and then its rainbow ones.

    No target is ever colored into a violation: coloring its
    second-to-last point narrows its last one, and every color the
    search tries comes from the chosen point's domain.  So the
    propagators only report a target whose rule emptied a domain, and
    never test a fully colored target.  A found coloring is still
    replayed against every target before it is returned.

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

    That choice is read from two lazy heaps instead of a scan of every
    point; entries that no longer hold are dropped or re-keyed when they
    reach the top.  A narrowing that leaves a point one color pushes it
    on a heap of forced points by index.  No other push is needed: a
    point with two candidate colors is only chosen when no point is
    forced, so backtracking to it and recoloring it starts from a state
    with no forced point.  The other points sit in a heap keyed by
    (-weight * lcm(1..r) / size, index), integers whose order is the
    size / weight order exactly, ties to the lowest index.  A key falls
    when a narrowing shrinks a domain or a failure raises a weight.  The
    failing target's other points are all colored but the one whose
    domain the failure emptied, and colored points re-enter the order
    only when backtracking uncolors them; so pushing the narrowed and the
    uncolored points anew before the next choice leaves every uncolored
    point an entry at or below its key, and a top whose key is current
    is the point a scan would choose.  When the heap and the touched
    points together pass 2n entries, the heap is dropped and rebuilt from
    every uncolored point at the next choice no point forces.  A heap of
    at most n entries is dropped only after more than n touches, so the
    rebuilds add O(1) work per touch.  Either way the choice, and so the
    tree, is the scan's.

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
    n = len(problem.cfg)
    # First-use symmetry breaking opens at most one new color per point,
    # so colors beyond the point count are never reached.
    r = min(problem.r, n)
    full = (1 << r) - 1
    colors = [-1] * n
    domains = [full] * n
    weight = [1] * n

    # A rainbow target longer than r can never be colored all-distinct.
    mono = [_by_arity(ps) for ps in problem.mono_partners]
    rainbow = [_by_arity([o for o in ps if len(o) < r]) for ps in problem.rainbow_partners]

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

    # The weighted order's state: ``forced`` holds every uncolored point
    # with one color left, ``ratio`` holds (key, point) entries with key
    # -weight * lcm(1..r) / size (an integer: every size divides the lcm),
    # and ``touched`` the points whose key may have fallen below their
    # entries since the last choice from ``ratio``.  An empty ``ratio`` is
    # rebuilt from every uncolored point at the next choice no point forces.
    forced = list(range(n)) if r == 1 else []
    ratio: list[tuple[int, int]] = []
    touched: list[int] = []
    # lcm(1..r) has about 1.44 r bits, so ``scale`` takes about as much
    # memory as r <= n domains of r bits.
    lcm = math.lcm(*range(1, r + 1))
    scale = [0] + [lcm // size for size in range(1, r + 1)]

    start = time.monotonic()
    deadline = start + budget
    stats = SearchStats()

    def narrow(p: int, dom: int, narrowed: int, trail: list) -> bool:
        """Narrow the domain of uncolored point p; True when it empties."""
        trail.append((p, dom))
        domains[p] = narrowed
        touched.append(p)
        if narrowed & (narrowed - 1):
            return False
        if narrowed:
            heapq.heappush(forced, p)
            return False
        return True

    def propagate(idx: int, c: int, trail: list) -> tuple[int, ...] | None:
        """Narrow the domains the new color c of ``idx`` constrains, by
        the mono rule and then by the rainbow rule.

        Returns None on success, else the other points of the target
        whose rule emptied a domain.
        """
        bit = 1 << c
        arity, partners = mono[idx]
        # Mono: the last uncolored point of a target whose colored points
        # all have color c loses c.
        if arity == 1:
            for o in partners:
                q = o[0]
                cq = colors[q]
                if cq < 0:
                    dom = domains[q]
                    if dom & bit and narrow(q, dom, dom ^ bit, trail):
                        return o
        elif arity == 2:
            for o in partners:
                a, b = o
                ca, cb = colors[a], colors[b]
                if ca < 0:
                    if cb != c:
                        continue
                    free = a
                elif ca != c:
                    continue
                elif cb < 0:
                    free = b
                else:
                    continue
                dom = domains[free]
                if dom & bit and narrow(free, dom, dom ^ bit, trail):
                    return o
        else:
            for o in partners:
                free = -1
                for q in o:
                    cq = colors[q]
                    if cq < 0:
                        if free >= 0:
                            break
                        free = q
                    elif cq != c:
                        break
                else:
                    dom = domains[free]
                    if dom & bit and narrow(free, dom, dom ^ bit, trail):
                        return o
        # Rainbow: the last uncolored point of a target whose colored
        # points have distinct colors keeps only those colors.
        arity, partners = rainbow[idx]
        if arity == 1:
            for o in partners:
                q = o[0]
                cq = colors[q]
                if cq < 0:
                    dom = domains[q]
                    if dom != bit and narrow(q, dom, dom & bit, trail):
                        return o
        elif arity == 2:
            for o in partners:
                a, b = o
                ca, cb = colors[a], colors[b]
                if ca < 0:
                    if cb < 0 or cb == c:
                        continue
                    free, used = a, bit | 1 << cb
                elif ca == c:
                    continue
                elif cb < 0:
                    free, used = b, bit | 1 << ca
                else:
                    continue
                dom = domains[free]
                if dom & used != dom and narrow(free, dom, dom & used, trail):
                    return o
        else:
            for o in partners:
                free = -1
                used = bit
                for q in o:
                    cq = colors[q]
                    if cq < 0:
                        if free >= 0:
                            break
                        free = q
                        continue
                    if used >> cq & 1:
                        break
                    used |= 1 << cq
                else:
                    dom = domains[free]
                    if dom & used != dom and narrow(free, dom, dom & used, trail):
                        return o
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
            forced.clear()
            touched.clear()
            return order[depth] if depth < n else -1
        if len(ratio) + len(touched) > 2 * n:
            # The heap would outgrow 2n entries: drop it, and rebuild it
            # at the next choice no point forces.
            touched.clear()
            ratio.clear()
        while forced:
            i = heapq.heappop(forced)
            dom = domains[i]
            if colors[i] < 0 and not dom & (dom - 1):
                return i
        if depth == n:
            return -1
        # No point is forced, so every uncolored one has two colors or more.
        # Keys are written out: a helper call per key cost about 3% of the
        # 60-point planted searches.
        if ratio:
            for i in touched:
                if colors[i] < 0:
                    heapq.heappush(ratio, (-weight[i] * scale[domains[i].bit_count()], i))
        else:
            ratio[:] = [(-weight[i] * scale[domains[i].bit_count()], i) for i in range(n) if colors[i] < 0]
            heapq.heapify(ratio)
        touched.clear()
        # Every uncolored point now has an entry at or below its key.
        while True:
            k, i = ratio[0]
            if colors[i] >= 0:
                heapq.heappop(ratio)
                continue
            now = -weight[i] * scale[domains[i].bit_count()]
            if now == k:
                return i
            heapq.heapreplace(ratio, (now, i))

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
                    # idx is uncolored again, perhaps at a key below its
                    # entries in ``ratio``.
                    touched.append(idx)
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
                failed = propagate(idx, c, trail)
                if failed is None:
                    break
                weight[idx] += 1
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
    n = len(problem.cfg)
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
