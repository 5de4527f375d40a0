"""Squares of crossing cuts, set-family structure, and decompositions.

Two proper node sets A, B with all four corner sets
``C1 = A&B, C2 = A-B, C3 = V-(A|B), C4 = B-A`` non-empty contract to a
four-node capacitated "square": side capacities ``z = C1C2, y = C2C3,
w = C3C4, x = C4C1`` and diagonals ``a = C2C4, b = C1C3``.  With
``alpha = dA + d1 - d2`` the capacities satisfy, in every labeling::

    x = alpha/2 - b          y = d2 - d1 - a + alpha/2
    z = d1 - alpha/2         w = dB - d1 - a - b + alpha/2
    d1 + d3 = dA + dB - 2a   d2 + d4 = dA + dB - 2b

Squares are normalized so that d1 is a minimum corner degree, d2 <= d4,
and a >= b when d1 == d2; all claims about near-minimum cuts are stated
against that labeling.  For cut values restricted to {lam, lam+1} the
capacity patterns fall into a short, exhaustive case list.

A :class:`SetFamily` is an immutable tuple of node-set bitmasks (Python
ints).  The predicates here (laminar / uncrossable / symmetric proper
crossing) quantify over strongly crossing pairs, since pairs with an
empty corner satisfy them for free.  Each is a pair loop over the
members, with the corners computed inline as bitmask operations and
membership looked up in a set cached on the family: the set of members
for the symmetric test, the set of canonical masks (membership up to
complement) for the others.  A family of ``_KERNEL_MIN_MEMBERS`` or more
members on at most :data:`~nearcut.multigraph.EXHAUSTIVE_LIMIT` nodes is
scanned for uncrossability by a numpy kernel instead, in row blocks of
the pair matrix, with the same verdict and witness; it looks members up
in a table of one bit per canonical mask.  Below that size the loop
costs less.  A family already found laminar is uncrossable without a
scan, since no two of its members cross strongly.  A family never
changes, so each verdict and its witness (the first failing pair in
member order) is computed once and cached on the family; a caller's
assertion and a solver's precondition check of the same family share
one pass.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import InputError, InvariantError, PreconditionError
from .multigraph import (
    EXHAUSTIVE_LIMIT,
    DisjointSets,
    Multigraph,
    as_int,
    canonical_mask,
    cut_masks,
    cut_value_array,
    edge_crosses,
    full_mask,
    mask_from_nodes,
    min_cut_value,
    nodes_from_mask,
    subgraph,
)

# ---------------------------------------------------------------------------
# Numpy pair kernels

# A family with at least this many members, on a ground set whose masks
# fit int64, goes to the numpy kernels; a smaller one stays on the Python
# loops.  The crossover is measured: on {lam, lam+1}-cut families the scan
# loop was about 15% faster at 42 members and the kernel about 25% faster
# at 53 (2 vCPUs, Python 3.11, numpy 2.4).  The uncrossable scan takes
# its kernel only up to EXHAUSTIVE_LIMIT nodes, where its bit table over
# the canonical masks is at most 1 MiB.
_KERNEL_MIN_MEMBERS = 48
_KERNEL_MAX_N = 62
# Pair matrices are cut into row blocks of about this many entries (one
# row when a family is larger), so no kernel allocates an F x F array.
_KERNEL_BLOCK = 1 << 13


def _kernel_sized(n: int, count: int) -> bool:
    return count >= _KERNEL_MIN_MEMBERS and n <= _KERNEL_MAX_N


# ---------------------------------------------------------------------------
# Crossing predicates


def corner_masks(a: int, b: int, n: int) -> tuple[int, int, int, int]:
    """(C1, C2, C3, C4) = (A&B, A-B, V-(A|B), B-A).

    A and B must be non-empty proper subsets of a non-empty ground set;
    anything else raises :class:`InputError`.
    """
    if n < 1:
        raise InputError("ground set must be non-empty")
    fm = (1 << n) - 1
    if not (0 < a < fm and 0 < b < fm):
        raise InputError("crossing is defined for non-empty proper subsets")
    return (a & b, a & ~b, fm ^ (a | b), b & ~a)


def crosses_strongly(a: int, b: int, n: int) -> bool:
    """All four corner sets non-empty."""
    return all(corner_masks(a, b, n))


# ---------------------------------------------------------------------------
# Set families


@dataclass(frozen=True)
class SetFamily:
    """Explicit list of node subsets over a ground set of size n.

    Members are stored as given (an orientation-sensitive family keeps
    both sides).  Two sets are cached on first use: :attr:`member_set`
    (the members) and :attr:`canonical_set` (each member's side avoiding
    node 0); `canonical()` and `symmetric_closure()` are read off them.
    """

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise InputError(f"ground set size must be an integer >= 1, got {self.n!r}")
        members = tuple(self.members)
        if not all(type(m) is int for m in members):
            members = tuple(as_int(m, "family member") for m in members)
        object.__setattr__(self, "members", members)
        fm = full_mask(self.n)
        seen = set()
        for m in members:
            if not 0 < m < fm:
                raise InputError(f"family member {m:#x} not a non-empty proper subset")
            if m in seen:
                raise InputError(f"duplicate family member {m:#x}")
            seen.add(m)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(n, tuple(mask_from_nodes(s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def canonical_set(self) -> frozenset:
        """Members mapped to the side avoiding node 0."""
        fm = full_mask(self.n)
        return frozenset(m ^ fm if m & 1 else m for m in self.members)

    @cached_property
    def _verdicts(self) -> dict:
        return {}

    def contains_cut(self, mask: int) -> bool:
        """Membership up to complement (a cut equals its complement)."""
        return canonical_mask(mask, self.n) in self.canonical_set

    def canonical(self) -> "SetFamily":
        """One side avoiding node 0 per complement pair: :attr:`canonical_set`, sorted."""
        return SetFamily(self.n, tuple(sorted(self.canonical_set)))

    def symmetric_closure(self) -> "SetFamily":
        """The members, then in member order each complement not in :attr:`member_set`."""
        fm = full_mask(self.n)
        return SetFamily(self.n, self.members + tuple(
            m ^ fm for m in self.members if m ^ fm not in self.member_set))


def _once(fam: SetFamily, key: str, scan) -> tuple:
    """``scan(fam)``, computed once per family object."""
    verdicts = fam._verdicts
    if key not in verdicts:
        verdicts[key] = scan(fam)
    return verdicts[key]


def is_laminar(fam: SetFamily) -> tuple[bool, Optional[tuple[int, int]]]:
    """No two members overlap without nesting; witness pair on failure."""
    return _once(fam, "laminar", _scan_laminar)


def is_uncrossable(fam: SetFamily) -> tuple[bool, Optional[tuple[int, int]]]:
    """Every strongly crossing pair keeps (A&B, A|B) or (A-B, B-A) in the family.

    Membership is up to complement; pairs with an empty corner satisfy
    the condition automatically and are skipped.
    """
    return _once(fam, "uncrossable", _scan_uncrossable)


def is_symmetric_proper_crossing(fam: SetFamily) -> tuple[bool, Optional[tuple]]:
    """Symmetric family, closed under crossing intersections/unions, and the
    symmetric difference of a strongly crossing pair is never a member."""
    return _once(fam, "symmetric_proper_crossing", _scan_symmetric_proper_crossing)


def _scan_laminar(fam: SetFamily) -> tuple[bool, Optional[tuple[int, int]]]:
    ms = fam.members
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            c1 = a & b
            if c1 and c1 != a and c1 != b:
                return False, (a, b)
    return True, None


def _scan_uncrossable(fam: SetFamily) -> tuple[bool, Optional[tuple[int, int]]]:
    # in a laminar family no pair crosses strongly
    if fam._verdicts.get("laminar") == (True, None):
        return True, None
    if _kernel_sized(fam.n, len(fam)) and fam.n <= EXHAUSTIVE_LIMIT:
        return _uncrossable_kernel(fam)
    return _uncrossable_loop(fam)


def _uncrossable_loop(fam: SetFamily) -> tuple[bool, Optional[tuple[int, int]]]:
    ms = fam.members
    fm = full_mask(fam.n)
    canon = fam.canonical_set
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            # strongly crossing: A&B, A-B, B-A and V-(A|B) all non-empty
            c1 = a & b
            if not c1 or c1 == a or c1 == b:
                continue
            union = a | b
            if union == fm:
                continue
            if ((c1 ^ fm if c1 & 1 else c1) in canon
                    and (union ^ fm if union & 1 else union) in canon):
                continue
            c2, c4 = a ^ c1, b ^ c1
            if ((c2 ^ fm if c2 & 1 else c2) in canon
                    and (c4 ^ fm if c4 & 1 else c4) in canon):
                continue
            return False, (a, b)
    return True, None


def _uncrossable_kernel(fam: SetFamily) -> tuple[bool, Optional[tuple[int, int]]]:
    """The loop's verdict and witness, one block of rows at a time.

    A pair's verdict does not change when either member is replaced by
    its complement (the four corners only permute), so the kernel works
    on canonical members.  Their corners C1, C2, C4 and their union (the
    complement of C3) all avoid node 0, so each is looked up as it is,
    and no union is the whole ground set.  The lookup reads a table of
    one bit per canonical mask x (x is even): bit ``(x >> 1) & 7`` of byte
    ``x >> 4``, ``2^(n-4)`` bytes in all (one byte below n = 4, 1 MiB at
    n = 24).  Row i of a block meets the members from i + 1 on.
    A pair below the block's diagonal repeats a pair of an earlier row,
    which row-major order reaches first, so the first failure found is
    the loop's witness.
    """
    fm = full_mask(fam.n)
    ms = np.array([m ^ fm if m & 1 else m for m in fam.members], dtype=np.int64)
    table = np.zeros(1 << max(fam.n - 4, 0), dtype=np.uint8)
    np.bitwise_or.at(table, ms >> 4, np.left_shift(1, (ms >> 1) & 7).astype(np.uint8))

    def present(x: np.ndarray) -> np.ndarray:
        return (table[x >> 4] >> ((x >> 1) & 7)) & 1

    count = len(ms)
    rows = max(1, _KERNEL_BLOCK // max(count, 1))
    for i0 in range(0, count - 1, rows):
        a = ms[i0:i0 + rows, None]
        b = ms[None, i0 + 1:]
        c1 = a & b
        strong = (c1 != 0) & (c1 != a) & (c1 != b)
        idx = np.flatnonzero(strong)
        if not len(idx):
            continue
        meet = c1.ravel()[idx]
        fail = (present(meet) & present((a | b).ravel()[idx])) == 0
        if not fail.any():
            continue
        idx, meet = idx[fail], meet[fail]
        r, c = np.divmod(idx, b.shape[1])
        fail = (present(a[r, 0] ^ meet) & present(b[0, c] ^ meet)) == 0
        if fail.any():
            k = int(np.argmax(fail))
            return False, (fam.members[i0 + int(r[k])], fam.members[i0 + 1 + int(c[k])])
    return True, None


def _scan_symmetric_proper_crossing(fam: SetFamily) -> tuple[bool, Optional[tuple]]:
    ms = fam.members
    fm = full_mask(fam.n)
    present = fam.member_set
    for m in ms:
        if m ^ fm not in present:
            return False, (m,)
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            c1 = a & b
            if not c1 or c1 == a or c1 == b:
                continue
            union = a | b
            if union == fm:
                continue
            if c1 not in present or union not in present or a ^ b in present:
                return False, (a, b)
    return True, None


# ---------------------------------------------------------------------------
# Squares


class SquareCase(enum.Enum):
    MIN_MIN = "MinMin"
    MIN_PLUS_ODD = "MinPlusOdd"
    MIN_PLUS_EVEN = "MinPlusEven"
    PP_A = "PP_a"
    PP_B = "PP_b"
    PP_C = "PP_c"
    PP_D = "PP_d"
    PP_E = "PP_e"
    PP_F = "PP_f"
    OTHER = "Other"


@dataclass(frozen=True)
class Square:
    """Normalized square of two strongly crossing cuts.

    ``corners`` are the masks of C1..C4; ``degrees`` their cut values;
    side capacities follow the fixed naming x=C4C1, y=C2C3, z=C1C2,
    w=C3C4; diagonals a=C2C4, b=C1C3.  ``da``/``db`` are the values of
    the two generating cuts C1|C2 and C1|C4, and ``lam`` the base
    connectivity used when classifying.
    """

    corners: tuple[int, int, int, int]
    degrees: tuple[int, int, int, int]
    x: int
    y: int
    z: int
    w: int
    a: int
    b: int
    da: int
    db: int
    alpha: int
    lam: int

    @property
    def sides(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.z, self.w)

    def formula_residuals(self) -> tuple[int, int, int, int]:
        """Deviation of the four solved side capacities from their formulas.

        All four are zero for every square; evaluated in doubled form so
        no fractional intermediate appears.
        """
        d1, d2, _, _ = self.degrees
        return (
            2 * self.x - (self.alpha - 2 * self.b),
            2 * self.y - (2 * (d2 - d1 - self.a) + self.alpha),
            2 * self.z - (2 * d1 - self.alpha),
            2 * self.w - (2 * (self.db - d1 - self.a - self.b) + self.alpha),
        )

    def counting_residuals(self) -> tuple[int, int]:
        """Deviation from d1+d3 = dA+dB-2a and d2+d4 = dA+dB-2b."""
        d1, d2, d3, d4 = self.degrees
        return (
            d1 + d3 - (self.da + self.db - 2 * self.a),
            d2 + d4 - (self.da + self.db - 2 * self.b),
        )


# Corner orderings that preserve the side/diagonal structure: the square's
# cycle C1-C2-C3-C4 admits four rotations and four reflections.
_DIHEDRAL = (
    (0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
    (0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3), (3, 2, 1, 0),
)


# The two labelings that start at each corner, one per direction around
# the cycle.  Only a labeling that starts at a minimum-degree corner can
# satisfy d1 <= d2, d3, d4, so build_square tries no other.
_LABELINGS_FROM = tuple(tuple(p for p in _DIHEDRAL if p[0] == c) for c in range(4))


def build_square(g: Multigraph, a_mask: int, b_mask: int,
                 lam: Optional[int] = None) -> Square:
    """Build the normalized square of two strongly crossing cuts.

    Capacities are edge counts, read from the graph's cut table as
    e(Ci, Cj) = (d(Ci) + d(Cj) - d(Ci | Cj)) / 2, so a graph above
    :data:`~nearcut.multigraph.EXHAUSTIVE_LIMIT` nodes raises
    :class:`~nearcut.errors.LimitError`, even when ``lam`` is given.
    Normalization picks, among the eight structure-preserving corner
    labelings, those satisfying d1 <= d2,d3,d4, d2 <= d4 and (a >= b
    when d1 == d2), breaking ties by the smallest (degrees, diagonals,
    sides, corners) tuple.
    """
    corners = corner_masks(a_mask, b_mask, g.n)
    if not all(corners):
        raise InputError("build_square requires strongly crossing sets")
    c1, c2, c3, c4 = corners
    c13 = c1 | c3
    item = cut_value_array(g).item
    fm = (1 << g.n) - 1
    # d(C1..C4), then d(C1|C2) = dA, d(C1|C4) = dB and d(C1|C3), each at
    # its canonical index; the other three unions are their complements
    d1 = item((c1 ^ fm if c1 & 1 else c1) >> 1)
    d2 = item((c2 ^ fm if c2 & 1 else c2) >> 1)
    d3 = item((c3 ^ fm if c3 & 1 else c3) >> 1)
    d4 = item((c4 ^ fm if c4 & 1 else c4) >> 1)
    d12 = item((a_mask ^ fm if a_mask & 1 else a_mask) >> 1)
    d14 = item((b_mask ^ fm if b_mask & 1 else b_mask) >> 1)
    d13 = item((c13 ^ fm if c13 & 1 else c13) >> 1)
    e12, e13, e14 = (d1 + d2 - d12) >> 1, (d1 + d3 - d13) >> 1, (d1 + d4 - d14) >> 1
    e23, e24, e34 = (d2 + d3 - d14) >> 1, (d2 + d4 - d13) >> 1, (d3 + d4 - d12) >> 1
    mat = ((0, e12, e13, e14), (e12, 0, e23, e24),
           (e13, e23, 0, e34), (e14, e24, e34, 0))
    deg = (d1, d2, d3, d4)

    low = min(deg)
    best = None
    for c in range(4):
        if deg[c] != low:
            continue
        for p0, p1, p2, p3 in _LABELINGS_FROM[c]:
            if deg[p1] > deg[p3]:
                continue
            diag_a = mat[p1][p3]
            diag_b = mat[p0][p2]
            if low == deg[p1] and diag_a < diag_b:
                continue
            key = ((low, deg[p1], deg[p2], deg[p3]), (diag_a, diag_b),
                   (mat[p3][p0], mat[p1][p2], mat[p0][p1], mat[p2][p3]),
                   (corners[p0], corners[p1], corners[p2], corners[p3]))
            if best is None or key < best:
                best = key
    if best is None:
        raise InvariantError("no corner labeling satisfies the normalization rules")
    d, (diag_a, diag_b), (sx, sy, sz, sw), labeled = best
    da = sx + sy + diag_a + diag_b
    db = sz + sw + diag_a + diag_b
    alpha = da + d[0] - d[1]
    if alpha % 2:
        raise InvariantError(f"alpha = {alpha} is odd; counting identity violated")
    if lam is None:
        lam = min_cut_value(g)
    return Square(corners=labeled, degrees=d,
                  x=sx, y=sy, z=sz, w=sw, a=diag_a, b=diag_b,
                  da=da, db=db, alpha=alpha, lam=lam)


# The case list, keyed by (lam mod 2, sorted cut values - lam, (a, b),
# sides (x, y, z, w) - floor(lam / 2)).
_SQUARE_CASES = {
    (0, (0, 0), (0, 0), (0, 0, 0, 0)): SquareCase.MIN_MIN,
    (0, (0, 1), (0, 0), (0, 0, 0, 1)): SquareCase.MIN_PLUS_EVEN,
    (0, (1, 1), (0, 0), (0, 1, 0, 1)): SquareCase.PP_A,
    (0, (1, 1), (1, 0), (0, 0, 0, 0)): SquareCase.PP_B,
    (1, (0, 1), (0, 0), (1, 1, 0, 1)): SquareCase.MIN_PLUS_ODD,
    (1, (1, 1), (0, 0), (1, 1, 0, 2)): SquareCase.PP_C,
    (1, (1, 1), (1, 0), (1, 0, 0, 1)): SquareCase.PP_D,
    (1, (1, 1), (1, 1), (0, 0, 0, 0)): SquareCase.PP_E,
    (1, (1, 1), (0, 0), (1, 1, 1, 1)): SquareCase.PP_F,
}


def classify_square(sq: Square) -> SquareCase:
    """Match a square of {lam, lam+1}-valued cuts against the case list."""
    lam = sq.lam
    vals = tuple(sorted((sq.da, sq.db)))
    offsets = (vals[0] - lam, vals[1] - lam)
    if offsets not in ((0, 0), (0, 1), (1, 1)):
        raise InputError(
            f"classification needs cut values in {{{lam}, {lam + 1}}}, got {vals}")
    h = lam // 2
    key = (lam % 2, offsets, (sq.a, sq.b), (sq.x - h, sq.y - h, sq.z - h, sq.w - h))
    return _SQUARE_CASES.get(key, SquareCase.OTHER)


# ---------------------------------------------------------------------------
# Family quotients


@dataclass(frozen=True)
class QuotientResult:
    """Contraction of a graph by a node partition.

    ``sides`` lists each pair of classes that edges join, as ``(a, b)``
    with ``a < b`` and in sorted order; ``edge_count`` counts the
    original edges behind each side and ``unsafe_tally`` the unsafe ones
    among them.
    """

    classes: tuple[int, ...]            # class index -> node mask
    sides: tuple[tuple[int, int], ...]
    edge_count: tuple[int, ...]         # per side
    unsafe_tally: tuple[int, ...]       # per side

    def crossing_tallies(self, mask: int) -> tuple[int, ...]:
        """``unsafe_tally`` of each side crossing a node mask that splits
        no class; :class:`InputError` when it splits one."""
        cm = 0
        for ci, nodes in enumerate(self.classes):
            inter = mask & nodes
            if inter:
                if inter != nodes:
                    raise InputError("mask splits a quotient class")
                cm |= 1 << ci
        return tuple(t for (a, b), t in zip(self.sides, self.unsafe_tally)
                     if edge_crosses(a, b, cm))


def _classes(members: Iterable[int], n: int) -> list[int]:
    """The node masks that no member separates, in order of their lowest
    node: each member splits every class it cuts in two."""
    classes = [(1 << n) - 1]
    for m in members:
        if len(classes) == n:
            break
        out = []
        for c in classes:
            inter = c & m
            if inter and inter != c:
                out += (inter, c ^ inter)
            else:
                out.append(c)
        classes = out
    return sorted(classes, key=lambda c: c & -c)


def family_quotient(g: Multigraph, fam: SetFamily) -> QuotientResult:
    """Quotient of g by the classes no member of the family separates.

    Nodes that every member puts on the same side share a class, and
    classes are numbered in order of their first node.  ``edge_count``
    counts the original edges behind each side and ``unsafe_tally`` the
    unsafe ones among them, which :func:`decompose_F2_odd` reads as red
    (two or more), blue (one) or black (none).
    """
    if len(fam) == 0:
        raise InputError("family_quotient needs a non-empty family")
    if fam.n != g.n:
        raise InputError("family ground set does not match the graph")
    classes = _classes(fam.members, g.n)
    class_of = [0] * g.n
    for ci, c in enumerate(classes):
        while c:
            low = c & -c
            class_of[low.bit_length() - 1] = ci
            c ^= low
    merged: dict[tuple[int, int], list[int]] = {}
    for e in g.edges:
        a, b = class_of[e.u], class_of[e.v]
        if a != b:
            acc = merged.setdefault((a, b) if a < b else (b, a), [0, 0])  # count, unsafe
            acc[0] += 1
            acc[1] += e.unsafe
    sides = tuple(sorted(merged))
    return QuotientResult(classes=tuple(classes), sides=sides,
                          edge_count=tuple(merged[s][0] for s in sides),
                          unsafe_tally=tuple(merged[s][1] for s in sides))


# ---------------------------------------------------------------------------
# Part shapes


class PartShape(enum.Enum):
    CYCLE_UNIFORM = "CycleUniform"
    CYCLE_ONE_LIGHT = "CycleOneLight"
    CUBE = "Cube"
    OTHER = "Other"


def _is_single_cycle(qr: QuotientResult) -> bool:
    n = len(qr.classes)
    if len(qr.sides) != n or n < 3:
        return False
    deg = [0] * n
    sets = DisjointSets(n)
    merges = 0
    for a, b in qr.sides:
        deg[a] += 1
        deg[b] += 1
        merges += sets.union(a, b)
    # connected + all degrees 2 + |E| = |V|  =>  one cycle
    return all(d == 2 for d in deg) and merges == n - 1


def _is_cube(qr: QuotientResult) -> bool:
    """Whether the quotient is the 3-cube: eight classes, twelve edges of
    multiplicity one, every degree 3, and bipartite.  A cubic bipartite
    component has at least six nodes, so the 2-colouring from class 0
    reaches all eight; sides of 4 make the graph K4,4 minus a perfect
    matching, which is the cube."""
    if len(qr.classes) != 8 or len(qr.sides) != 12:
        return False
    if any(c != 1 for c in qr.edge_count):
        return False
    adj = [set() for _ in range(8)]
    for a, b in qr.sides:
        adj[a].add(b)
        adj[b].add(a)
    if any(len(s) != 3 for s in adj):
        return False
    side = [0] + [-1] * 7
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if side[v] < 0:
                side[v] = 1 - side[u]
                stack.append(v)
            elif side[v] == side[u]:
                return False
    return True


def verify_part_shape(qr: QuotientResult, lam: int) -> PartShape:
    """Match a part quotient against the admissible shapes for odd lam.

    Side sizes are edge counts (``qr.edge_count``).  A two-class
    quotient is the degenerate length-2 cycle whose two cycle sides
    merged into one side of lam+1 edges; it is reported as
    CycleUniform.
    """
    if lam < 1 or lam % 2 == 0:
        raise InputError(f"part shapes are defined for odd lam >= 1, got {lam}")
    if len(qr.classes) == 2:
        if len(qr.sides) == 1 and qr.edge_count[0] == lam + 1:
            return PartShape.CYCLE_UNIFORM
        return PartShape.OTHER
    if _is_single_cycle(qr):
        caps = sorted(qr.edge_count)
        uniform = (lam + 1) // 2
        if all(c == uniform for c in caps):
            return PartShape.CYCLE_UNIFORM
        light, heavy = (lam - 1) // 2, (lam + 3) // 2
        if (light >= 1 and caps[0] == light
                and all(c == heavy for c in caps[1:])):
            return PartShape.CYCLE_ONE_LIGHT
        return PartShape.OTHER
    if lam == 3 and _is_cube(qr):
        return PartShape.CUBE
    return PartShape.OTHER


# ---------------------------------------------------------------------------
# Decomposition of (lam+1)-cuts, lam odd


@dataclass(frozen=True)
class CutPart:
    """One part: its (lam+1)-cut members, the quotient they are all
    compatible with, and the verified shape of that quotient."""

    members: SetFamily
    quotient: QuotientResult
    shape: PartShape


@dataclass(frozen=True)
class DecompositionResult:
    lam: int
    parts: tuple[CutPart, ...]
    diagnostics: tuple[str, ...]

    def coverage(self) -> dict[int, int]:
        return Counter(m for part in self.parts for m in part.members.members)


def _holders(masks: tuple[int, ...], n: int) -> list[int]:
    """``out[v]`` is the bitset of the masks holding node v (bit j for
    ``masks[j]``)."""
    out = [0] * n
    for j, m in enumerate(masks):
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= 1 << j
            m ^= low
    return out


def _component_split(masks: tuple[int, ...], inside: list[int]) -> list[list[int]]:
    """Connected components of the strong-crossing graph on the masks.

    ``inside`` is ``_holders(masks, n)``: ``inside[v]`` is the bitset of
    the masks holding node v.  Mask B strongly crosses A when it meets A,
    leaves A, and neither holds all of A nor all of V - A, so the masks
    crossing A come from 2n bitset operations, and a breadth-first search
    over them finds each component.
    """
    everyone = (1 << len(masks)) - 1

    def crossing(a: int) -> int:
        meets = leaves = 0
        holds_a = holds_rest = everyone
        for v, held in enumerate(inside):
            if a >> v & 1:
                meets |= held
                holds_a &= held
            else:
                leaves |= held
                holds_rest &= held
        return meets & leaves & ~(holds_a | holds_rest)

    groups = []
    left = everyone
    while left:
        comp = frontier = left & -left
        group = []
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            a = masks[low.bit_length() - 1]
            group.append(a)
            new = crossing(a) & ~comp
            comp |= new
            frontier |= new
        left &= ~comp
        groups.append(sorted(group))
    return sorted(groups, key=min)


def decompose_plus_cuts(g: Multigraph, lam: int) -> DecompositionResult:
    """Group the (lam+1)-cuts into shape-verified parts.

    Grouping is the transitive closure of strong crossing; each group's
    part is then widened to every (lam+1)-cut compatible with the group
    quotient, and parts subsumed by a larger part are dropped.  Shape
    verification failures are reported as diagnostics, never raised.

    Widening needs only the group's classes: a cut is compatible when
    for every class it holds all of it or none, read off the per-node
    bitsets of the (lam+1)-cuts.  The quotient itself is built for the
    parts kept.
    """
    if lam < 1 or lam % 2 == 0:
        raise InputError(f"decomposition is defined for odd lam >= 1, got {lam}")
    if min_cut_value(g) < lam:
        raise PreconditionError(f"graph is not {lam}-edge-connected")
    vals = cut_value_array(g)
    plus = cut_masks(vals == lam + 1)
    if not plus:
        return DecompositionResult(lam=lam, parts=(), diagnostics=())

    inside = _holders(plus, g.n)
    everyone = (1 << len(plus)) - 1
    raw: list[tuple[tuple[int, ...], int]] = []
    for group in _component_split(plus, inside):
        # a cut splits a class when some node of it holds the cut and
        # another does not
        split = 0
        for c in _classes(group, g.n):
            first = inside[(c & -c).bit_length() - 1]
            while c:
                low = c & -c
                split |= inside[low.bit_length() - 1] ^ first
                c ^= low
        bits = compatible = everyone & ~split
        widened = []
        while bits:
            low = bits & -bits
            widened.append(plus[low.bit_length() - 1])
            bits ^= low
        raw.append((tuple(widened), compatible))

    # Absorb parts whose member set is contained in a larger part.  A
    # part's members split no class of its group, so they have the
    # group's quotient.
    raw.sort(key=lambda item: (-len(item[0]), item[0]))
    kept_bits: list[int] = []
    diagnostics: list[str] = []
    parts = []
    for members, bits in raw:
        if any(not bits & ~other for other in kept_bits):
            continue
        kept_bits.append(bits)
        fam = SetFamily(g.n, members)
        qr = family_quotient(g, fam)
        shape = verify_part_shape(qr, lam)
        if shape is PartShape.OTHER:
            diagnostics.append(
                f"part with {len(members)} members has unrecognized quotient shape "
                f"({len(qr.classes)} classes, {len(qr.sides)} edges)")
        parts.append(CutPart(members=fam, quotient=qr, shape=shape))

    result = DecompositionResult(lam=lam, parts=tuple(parts), diagnostics=())
    for mask, count in result.coverage().items():
        if count > 2:
            diagnostics.append(
                f"cut {nodes_from_mask(mask)} appears in {count} parts (> 2)")
    return replace(result, diagnostics=tuple(diagnostics))


# ---------------------------------------------------------------------------
# Flex cut rules, read here and by nearcut.fgc


def _flex_arrays(h: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """The tables d(S) of H and d_U(S) of its unsafe edges."""
    return cut_value_array(h), cut_value_array(h.unsafe_graph)


def _first_bad_cut(d_arr: np.ndarray, u_arr: np.ndarray, k: int,
                   q: int) -> Optional[int]:
    """First canonical cut with d(S) < k + min(d_U(S), q), or None.

    Written as d(S) - d_U(S) < k and d(S) < k + q so that k and q meet the
    table only in comparisons, which are exact for any Python int."""
    bad = cut_masks((d_arr - u_arr < k) & (d_arr < k + q))
    return bad[0] if bad else None


def _blocking_cuts(d_arr: np.ndarray, u_arr: np.ndarray, k: int,
                   q: int) -> tuple[int, ...]:
    """Cuts blocking level q: d(S) = k+q-1 and d_U(S) >= q."""
    return cut_masks((d_arr == k + q - 1) & (u_arr >= q))


# ---------------------------------------------------------------------------
# F2 split for odd k


@dataclass(frozen=True)
class F2Decomposition:
    f_prime: SetFamily        # uncrossable side
    f_dprime: SetFamily       # symmetric proper crossing side (closed)
    decomposition: DecompositionResult
    diagnostics: tuple[str, ...]


def decompose_F2_odd(g: Multigraph, h_edges: Iterable[int], k: int) -> F2Decomposition:
    """Split the (k+1)-cuts carrying >= 2 unsafe edges, k odd.

    A member goes to the uncrossable side when some containing part
    (with a non-degenerate quotient) has a red side across it, one
    whose ``unsafe_tally`` is two or more, or when it strongly crosses no
    (k+1)-cut at all; the rest, closed under complement, form the
    symmetric proper crossing side.  A member of that side is expected to
    cross exactly two blue sides (tally one) in some part;
    otherwise a diagnostic names it.  Deciding each member on its own can
    leave the meet or join of a strongly crossing symmetric-side pair on
    the uncrossable side; while the symmetric check fails on such a pair,
    that member moves over, and the check runs again.  Both structure
    predicates are verified before returning.
    """
    if k < 1 or k % 2 == 0:
        raise InputError(f"this decomposition needs odd k >= 1, got {k}")
    h = subgraph(g, h_edges)
    if min_cut_value(h) < k:
        raise PreconditionError(f"subgraph is not {k}-edge-connected")
    d_arr, u_arr = _flex_arrays(h)
    # H is k-edge-connected, so a cut failing the (k,1) rule is a k-cut
    # with an unsafe edge
    bad = _first_bad_cut(d_arr, u_arr, k, 1)
    if bad is not None:
        raise PreconditionError(
            "subgraph has a k-cut with an unsafe edge (not (k,1)-flex-connected)",
            witness=bad)
    f2 = _blocking_cuts(d_arr, u_arr, k, 2)

    decomp = decompose_plus_cuts(h, k)
    diagnostics = list(decomp.diagnostics)

    prime = []
    rest = []
    for mask in f2:
        containing = [p for p in decomp.parts if mask in p.members.member_set]
        informative = [p for p in containing if len(p.quotient.classes) >= 3]
        if not informative:
            # strongly crosses nothing: safe on the uncrossable side
            prime.append(mask)
            continue
        red = False
        blue_profile_ok = False
        for p in informative:
            tallies = p.quotient.crossing_tallies(mask)
            if any(t >= 2 for t in tallies):
                red = True
                break
            if tallies.count(1) == 2:
                blue_profile_ok = True
        if red:
            prime.append(mask)
        else:
            if not blue_profile_ok:
                diagnostics.append(
                    f"cut {nodes_from_mask(mask)} has neither a red merged edge nor "
                    f"an exactly-two-blue crossing profile")
            rest.append(mask)

    while True:
        f_prime = SetFamily(g.n, tuple(sorted(prime)))
        f_dprime = SetFamily(g.n, tuple(sorted(rest))).symmetric_closure()
        ok, wit = is_symmetric_proper_crossing(f_dprime)
        if ok:
            break
        # each pass moves at least one member, so the loop ends
        moved = set()
        if len(wit) == 2:
            a, b = wit
            moved = {canonical_mask(c, g.n) for c in (a & b, a | b)} & set(prime)
        if not moved:
            raise InvariantError(
                "symmetric proper crossing side failed its structure check",
                witness=wit)
        prime = [m for m in prime if m not in moved]
        rest += moved

    ok, wit = is_uncrossable(f_prime)
    if not ok:
        raise InvariantError("uncrossable side failed its structure check", witness=wit)
    # the symmetric side is closed under complement (asserted above)
    covered = f_prime.member_set | f_dprime.member_set
    for mask in f2:
        if mask not in covered:
            raise InvariantError("decomposition lost a family member",
                                 witness=mask)
    return F2Decomposition(f_prime=f_prime, f_dprime=f_dprime,
                           decomposition=decomp, diagnostics=tuple(diagnostics))
