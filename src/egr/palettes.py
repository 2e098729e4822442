"""Color-palette combinatorics on quadruples of color sets.

A palette is the set of colors available at a point (a nonempty
frozenset of ints).  ``has_sdr`` decides whether a family of palettes
admits a system of distinct representatives; when it does not,
``hall_violating_subset`` names a subfamily whose union is too small.

``classify_quadruple`` sorts a quadruple of palettes, each of size at
least two, into MONO (a color common to all four), RAINBOW (an SDR
exists), or exactly one of two residual shapes, each witnessed by an
index reordering plus an injective color renaming:

  TYPE_A: ({1,2}, {2,3}, {1,3}, subset of {1,2,3})
  TYPE_B: ({1,2}, {1,2}, {1,2}, superset of {3,4} avoiding 1 and 2)

``classification_scan`` proves exhaustively, for small color counts,
that no quadruple escapes these cases.  It holds each palette as a
color bitmask and decides every sorted multiset at once: MONO when the
four masks share a bit, RAINBOW when Hall's union-size condition holds
on all 15 subfamilies.  Only the residual multisets go through
``classify_quadruple``, which replays their TYPE_A/TYPE_B witness.
``propagate_disjointness``
replays the consistency rules that tie the quadruples of two copies
sharing a face: both must land in the same shape, and when they share
three positions, the unshared palette is disjoint from a shared one on
the left exactly when the same holds on the right.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConstraintViolation, GeometryError, as_index

MONO = "MONO"
RAINBOW = "RAINBOW"
TYPE_A = "TYPE_A"
TYPE_B = "TYPE_B"

SCAN_MAX_COLORS = 5


def as_palette(colors) -> frozenset:
    out = frozenset(as_index(c, "palette color") for c in colors)
    if not out:
        raise ConstraintViolation("empty_palette", "palettes must be nonempty")
    return out


def has_sdr(palettes):
    """A tuple of distinct representatives, one per palette, or None.

    Augmenting-path matching; None means Hall's condition fails and
    ``hall_violating_subset`` will produce a witness subfamily.
    """
    sets = [frozenset(p) for p in palettes]
    owner: dict = {}

    def augment(i, seen) -> bool:
        for c in sorted(sets[i]):
            if c in seen:
                continue
            seen.add(c)
            if c not in owner or augment(owner[c], seen):
                owner[c] = i
                return True
        return False

    for i in range(len(sets)):
        if not augment(i, set()):
            return None
    rep = {i: c for c, i in owner.items()}
    return tuple(rep[i] for i in range(len(sets)))


def hall_violating_subset(palettes):
    """Smallest index subfamily whose palette union is undersized."""
    sets = [frozenset(p) for p in palettes]
    for size in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            union = frozenset().union(*(sets[i] for i in combo))
            if len(union) < size:
                return combo
    return None


def _is_type_a(quad) -> bool:
    return (
        quad[0] == {1, 2}
        and quad[1] == {2, 3}
        and quad[2] == {1, 3}
        and quad[3] <= {1, 2, 3}
    )


def _is_type_b(quad) -> bool:
    return (
        quad[0] == quad[1] == quad[2] == frozenset({1, 2})
        and {3, 4} <= quad[3]
        and not quad[3] & {1, 2}
    )


@dataclass(frozen=True)
class QuadClass:
    """Classification outcome with its replayable witness.

    For TYPE_A and TYPE_B, ``index_perm`` lists which input palette
    lands in each normal-form slot and ``color_map`` renames colors;
    ``normal_form`` replays both.  MONO carries a shared color, RAINBOW
    a representative per palette.
    """

    kind: str
    index_perm: tuple | None = None
    color_map: dict | None = None
    sdr: tuple | None = None
    common: int | None = None

    def normal_form(self, c1, c2, c3, c4):
        if self.index_perm is None or self.color_map is None:
            raise GeometryError(f"{self.kind} carries no relabeling witness")
        quads = (frozenset(c1), frozenset(c2), frozenset(c3), frozenset(c4))
        return tuple(
            frozenset(self.color_map[c] for c in quads[i]) for i in self.index_perm
        )


def _search_witness(sets):
    """Read the normal-form witness off the smallest Hall violator.

    With no common color and palettes of size >= 2, the smallest
    subfamily with an undersized union is either three palettes equal
    to one pair {x, y}, the fourth then disjoint from it (TYPE_B), or
    all four inside three colors x < y < z, which forces the three
    pairs {x,y}, {y,z}, {x,z} to occur (TYPE_A).
    """
    bad = hall_violating_subset(sets)
    if len(bad) == 3:
        rest = next(i for i in range(4) if i not in bad)
        order = sorted(sets[bad[0]]) + sorted(sets[rest])
        return QuadClass(
            kind=TYPE_B,
            index_perm=(*bad, rest),
            color_map={c: i + 1 for i, c in enumerate(order)},
        )
    x, y, z = sorted(frozenset().union(*sets))
    picked = [sets.index(frozenset(p)) for p in ((x, y), (y, z), (x, z))]
    rest = next(i for i in range(4) if i not in picked)
    return QuadClass(kind=TYPE_A, index_perm=(*picked, rest), color_map={x: 1, y: 2, z: 3})


def classify_quadruple(c1, c2, c3, c4) -> QuadClass:
    """Place four palettes of size >= 2 into one of the four kinds."""
    sets = tuple(as_palette(c) for c in (c1, c2, c3, c4))
    for s in sets:
        if len(s) < 2:
            raise ConstraintViolation(
                "palette_size", f"classification needs palettes of size >= 2, got {set(s)}"
            )
    common = sets[0] & sets[1] & sets[2] & sets[3]
    if common:
        return QuadClass(kind=MONO, common=min(common))
    sdr = has_sdr(sets)
    if sdr is not None:
        return QuadClass(kind=RAINBOW, sdr=sdr)
    out = _search_witness(sets)
    nf = out.normal_form(*sets)
    if not (_is_type_a(nf) if out.kind == TYPE_A else _is_type_b(nf)):
        raise GeometryError("relabeling witness fails to replay")
    return out


def _fits_no_kind(quad) -> bool:
    """True when brute force places the quadruple in none of the four
    kinds: no common color, no SDR, and no index order with an injective
    color renaming that gives the TYPE_A or TYPE_B normal form.

    Colors renamed past 4 are alike to both normal forms, so renamings
    into 1..max(4, colors) cover every injection; fine for r <= 5.
    """
    sets = tuple(frozenset(p) for p in quad)
    if frozenset.intersection(*sets):
        return False
    if any(len(set(pick)) == 4 for pick in itertools.product(*sets)):
        return False
    colors = sorted(frozenset().union(*sets))
    for image in itertools.permutations(range(1, max(4, len(colors)) + 1), len(colors)):
        rename = dict(zip(colors, image))
        renamed = [frozenset(rename[c] for c in s) for s in sets]
        for order in itertools.permutations(renamed):
            if _is_type_a(order) or _is_type_b(order):
                return False
    return True


def _classify_or_none(sets):
    if any(len(s) < 2 for s in sets):
        return None
    return classify_quadruple(*sets)


# Arrangements of a sorted 4-multiset, indexed by which neighbours are
# equal: bit 0 for slots 0 and 1, bit 1 for slots 1 and 2, bit 2 for 2 and 3.
_ARRANGEMENTS = np.array([24, 12, 12, 4, 12, 6, 4, 1], dtype=np.int64)


def _scan_kernel(r: int):
    """Decide MONO and RAINBOW for every sorted 4-multiset of the pool of
    size->=2 subsets of {1..r}.

    Returns the pool, the multisets as an (N, 4) array of pool indices
    in ``combinations_with_replacement`` order, each row's number of
    arrangements, and the MONO and RAINBOW row masks (RAINBOW leaves
    out MONO rows, as ``classify_quadruple`` does).
    """
    pool = [
        frozenset(c)
        for size in range(2, r + 1)
        for c in itertools.combinations(range(1, r + 1), size)
    ]
    masks = np.array([sum(1 << (c - 1) for c in p) for p in pool], dtype=np.int64)
    n = math.comb(len(pool) + 3, 4)
    flat = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(len(pool)), 4)
    )
    idx = np.fromiter(flat, dtype=np.int64, count=4 * n).reshape(n, 4)
    weight = _ARRANGEMENTS[(idx[:, 1:] == idx[:, :-1]) @ np.array([1, 2, 4])]
    quad = masks[idx]
    mono = np.bitwise_and.reduce(quad, axis=1) != 0
    popcount = np.array([m.bit_count() for m in range(1 << r)])
    hall = np.ones(n, dtype=bool)
    for family in range(1, 16):
        members = [i for i in range(4) if family >> i & 1]
        union = np.bitwise_or.reduce(quad[:, members], axis=1)
        hall &= popcount[union] >= len(members)
    return pool, idx, weight, mono, hall & ~mono


def classification_scan(r: int) -> dict:
    """Classify every quadruple of size->=2 subsets of {1..r}.

    Ordered quadruples are counted through their sorted multiset, so
    each distinct multiset is decided once and weighted by its number
    of arrangements.  MONO (the four color bitmasks share a bit) and
    RAINBOW (every subfamily's union has at least as many colors as
    members, Hall's condition) are decided for all multisets at once;
    only the residual ones go through ``classify_quadruple``, whose
    TYPE_A/TYPE_B witness is replayed.  A quadruple whose witness fails
    counts as ``unclassifiable`` only when ``_fits_no_kind`` confirms it;
    otherwise the error propagates.  ``unclassifiable`` must come back 0.
    """
    r = as_index(r, "color count")
    if not 2 <= r <= SCAN_MAX_COLORS:
        raise ValueError(f"scan supports 2 <= r <= {SCAN_MAX_COLORS}, got {r}")
    pool, idx, weight, mono, rainbow = _scan_kernel(r)
    counts = {
        MONO: int(weight[mono].sum()),
        RAINBOW: int(weight[rainbow].sum()),
        TYPE_A: 0,
        TYPE_B: 0,
        "unclassifiable": 0,
    }
    for row in np.flatnonzero(~(mono | rainbow)):
        quad = tuple(pool[i] for i in idx[row])
        try:
            kind = classify_quadruple(*quad).kind
        except GeometryError:
            # A witness that fails to replay is a fault, unless no kind fits.
            if not _fits_no_kind(quad):
                raise
            kind = "unclassifiable"
        counts[kind] += int(weight[row])
    total = len(pool) ** 4
    if sum(counts.values()) != total:
        raise GeometryError(f"scan counts {counts} do not sum to the {total} quadruples")
    counts["total"] = total
    return counts


def _check_sharing(shared, left, right):
    try:
        pairs = sorted((int(k), int(v)) for k, v in dict(shared).items())
    except (TypeError, ValueError, AttributeError) as err:
        raise GeometryError(f"sharing map must be position pairs: {err}") from None
    keys = [k for k, _ in pairs]
    vals = [v for _, v in pairs]
    if any(not 0 <= p <= 3 for p in keys + vals):
        raise GeometryError(f"sharing positions must lie in 0..3, got {pairs}")
    if len(set(keys)) != len(keys) or len(set(vals)) != len(vals):
        raise GeometryError(f"sharing map repeats a position: {pairs}")
    for k, v in pairs:
        if left[k] != right[v]:
            raise GeometryError(
                f"position {k} is declared shared with {v} but palettes differ"
            )
    return dict(pairs)


def propagate_disjointness(quad, quad_prime, shared) -> list:
    """Consistency report for two palette quadruples sharing positions.

    ``shared`` maps positions of ``quad`` to equal-palette positions of
    ``quad_prime``.  When both quadruples classify as TYPE_A or TYPE_B,
    two rules apply: the kinds must agree, and with exactly three
    shared positions the unshared palette's disjointness from each
    shared palette must match on the two sides.  Returns the violation
    records; an empty list is a clean report.
    """
    left = tuple(as_palette(c) for c in quad)
    right = tuple(as_palette(c) for c in quad_prime)
    pairs = _check_sharing(shared, left, right)

    records = []
    cl = _classify_or_none(left)
    cr = _classify_or_none(right)
    in_scope = (
        cl is not None
        and cr is not None
        and cl.kind in (TYPE_A, TYPE_B)
        and cr.kind in (TYPE_A, TYPE_B)
    )
    if not in_scope:
        return records
    if cl.kind != cr.kind:
        records.append(
            {"rule": "same_type", "left_kind": cl.kind, "right_kind": cr.kind}
        )
    if len(pairs) == 3:
        free = next(p for p in range(4) if p not in pairs)
        free_r = next(p for p in range(4) if p not in pairs.values())
        for k, v in pairs.items():
            l_disjoint = not left[free] & left[k]
            r_disjoint = not right[free_r] & right[v]
            if l_disjoint != r_disjoint:
                records.append(
                    {
                        "rule": "type_b_biconditional",
                        "position": k,
                        "position_prime": v,
                        "left_disjoint": l_disjoint,
                        "right_disjoint": r_disjoint,
                    }
                )
    return records
