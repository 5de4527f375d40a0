"""One corner computation against the crossing helpers it replaced.

``corner_masks`` now validates its pair and is the only place corners are
computed: ``crosses_strongly``, ``build_square`` and the pair loops read
it.  The earlier bodies, which validated through a separate
ground-set check and computed the corners of every square twice, are
copied here verbatim as references (renamed ``reference_*``).  Every
verdict, corner tuple and ``Square`` must equal theirs, and wherever they
raised ``InputError`` the library must raise ``InputError`` too.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

import nearcut.cut_structure as cut_structure
from nearcut import InputError, InvariantError, Multigraph, level_family
from nearcut.cut_structure import (
    _DIHEDRAL,
    Square,
    build_square,
    corner_masks,
    crosses_strongly,
)
from nearcut.harness import _SUITE_DEFAULTS, _corpus_graph, _near_min_squares, run_suite
from nearcut.multigraph import (
    DisjointSets,
    cut_masks,
    cut_value_array,
    full_mask,
    min_cut_value,
    nodes_from_mask,
)

from conftest import random_multigraph


# ---------------------------------------------------------------------------
# References: the earlier bodies, verbatim apart from their names


def is_proper_subset(mask: int, n: int) -> bool:
    return 0 < mask < full_mask(n)


def reference_check_ground(a: int, b: int, n: int) -> None:
    if not (0 < n):
        raise InputError("ground set must be non-empty")
    fm = full_mask(n)
    if a & ~fm or b & ~fm:
        raise InputError("set mask outside the ground set")
    if not is_proper_subset(a, n) or not is_proper_subset(b, n):
        raise InputError("crossing is defined for non-empty proper subsets")


def reference_crosses_strongly(a: int, b: int, n: int) -> bool:
    """All four corner sets non-empty."""
    reference_check_ground(a, b, n)
    return ((a & b) != 0 and (a & ~b) != 0 and (b & ~a) != 0
            and (a | b) != full_mask(n))


def reference_corner_masks(a: int, b: int, n: int) -> tuple[int, int, int, int]:
    """(C1, C2, C3, C4) = (A&B, A-B, V-(A|B), B-A)."""
    fm = full_mask(n)
    return (a & b, a & ~b & fm, ~(a | b) & fm, b & ~a & fm)


def reference_build_square(g: Multigraph, a_mask: int, b_mask: int,
                           lam: Optional[int] = None) -> Square:
    if not reference_crosses_strongly(a_mask, b_mask, g.n):
        raise InputError("build_square requires strongly crossing sets")
    corners = reference_corner_masks(a_mask, b_mask, g.n)
    where = [0] * g.n
    for ci, cm in enumerate(corners):
        for v in nodes_from_mask(cm):
            where[v] = ci
    mat = [[0] * 4 for _ in range(4)]
    for e in g.edges:
        cu, cv = where[e.u], where[e.v]
        if cu == cv:
            continue
        mat[cu][cv] += 1
        mat[cv][cu] += 1
    deg = [sum(mat[i]) for i in range(4)]

    best = None
    for p in _DIHEDRAL:
        d = (deg[p[0]], deg[p[1]], deg[p[2]], deg[p[3]])
        if not (d[0] <= d[1] and d[0] <= d[2] and d[0] <= d[3] and d[1] <= d[3]):
            continue
        diag_a = mat[p[1]][p[3]]
        diag_b = mat[p[0]][p[2]]
        if d[0] == d[1] and diag_a < diag_b:
            continue
        sz = mat[p[0]][p[1]]
        sy = mat[p[1]][p[2]]
        sw = mat[p[2]][p[3]]
        sx = mat[p[3]][p[0]]
        key = (d, (diag_a, diag_b), (sx, sy, sz, sw),
               tuple(corners[p[i]] for i in range(4)))
        if best is None or key < best[0]:
            best = (key, p, d, diag_a, diag_b, sx, sy, sz, sw)
    if best is None:
        raise InvariantError("no corner labeling satisfies the normalization rules")
    _, p, d, diag_a, diag_b, sx, sy, sz, sw = best
    da = sx + sy + diag_a + diag_b
    db = sz + sw + diag_a + diag_b
    alpha = da + d[0] - d[1]
    if alpha % 2:
        raise InvariantError(f"alpha = {alpha} is odd; counting identity violated")
    if lam is None:
        lam = min_cut_value(g)
    return Square(corners=tuple(corners[p[i]] for i in range(4)), degrees=d,
                  x=sx, y=sy, z=sz, w=sw, a=diag_a, b=diag_b,
                  da=da, db=db, alpha=alpha, lam=lam)


def reference_component_split(masks: tuple[int, ...], n: int) -> list[list[int]]:
    """Connected components of the strong-crossing graph on the masks."""
    sets = DisjointSets(len(masks))
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if reference_crosses_strongly(masks[i], masks[j], n):
                sets.union(i, j)
    groups: dict[int, list[int]] = {}
    for i, m in enumerate(masks):
        groups.setdefault(sets.find(i), []).append(m)
    return [sorted(g) for g in sorted(groups.values(), key=lambda g: min(g))]


def reference_near_min_masks(g: Multigraph, lam: int) -> tuple[int, ...]:
    """Canonical masks of the cuts of value lam or lam + 1."""
    vals = cut_value_array(g)
    return cut_masks((vals == lam) | (vals == lam + 1))


def reference_near_min_pairs(g: Multigraph):
    """Yield (lam, A, B) for strongly crossing near-minimum cut pairs."""
    lam = min_cut_value(g)
    near = reference_near_min_masks(g, lam)
    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            if reference_crosses_strongly(near[i], near[j], g.n):
                yield lam, near[i], near[j]


def reference_corners(a: int, b: int, n: int) -> tuple[int, int, int, int]:
    """The earlier corner_masks behind the earlier ground-set check."""
    reference_check_ground(a, b, n)
    return reference_corner_masks(a, b, n)


# ---------------------------------------------------------------------------
# Comparison


def outcome(fn, *args):
    """``fn(*args)``, or the marker that it raised InputError."""
    try:
        return fn(*args)
    except InputError:
        return InputError


def assert_pair_matches(g: Optional[Multigraph], a: int, b: int, n: int, lam) -> None:
    for got_fn, want_fn in ((crosses_strongly, reference_crosses_strongly),
                            (corner_masks, reference_corners)):
        assert outcome(got_fn, a, b, n) == outcome(want_fn, a, b, n), (got_fn, a, b, n)
    if g is not None:
        assert (outcome(build_square, g, a, b, lam)
                == outcome(reference_build_square, g, a, b, lam)), (a, b, n)


def test_every_pair_matches_the_references_up_to_n_6():
    # n = -1 and 0 included: an empty ground set raises InputError, never
    # the ValueError of a negative shift
    rng = random.Random(9)
    for n in range(-1, 7):
        g = random_multigraph(rng, n, extra=2 * n) if n >= 1 else None
        for a in range(-1, (1 << max(n, 0)) + 1):
            for b in range(-1, (1 << max(n, 0)) + 1):
                assert_pair_matches(g, a, b, n, None if (a + b) % 2 else 3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_pairs_match_the_references(data):
    n = data.draw(st.integers(-1, 12), label="n")
    top = (1 << max(n, 0)) + 1
    a = data.draw(st.integers(-2, top), label="a")
    b = data.draw(st.integers(-2, top), label="b")
    g = None
    if n >= 1:
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n), label="edges")
        g = Multigraph.from_edges(n, [(u, v) for u, v in pairs if u != v])
    lam = None if n >= 2 and data.draw(st.booleans(), label="table lam") else 5
    assert_pair_matches(g, a, b, n, lam)


@st.composite
def corner_graphs(draw):
    """A multigraph on 4..9 nodes and two strongly crossing sets of it.

    Each node lies in one of four corners, each corner holding at least
    one node, and each pair of corners is joined by a drawn number of
    parallel edges between one node of each.  In a tied draw all four
    sides get one count and both diagonals another, so every corner has
    the same degree, a == b, and only the corner tuple picks the
    labeling.  Extra edges come in parallel pairs, and in a tied draw
    stay inside a corner.
    """
    n = draw(st.integers(4, 9), label="n")
    order = draw(st.permutations(range(n)), label="order")
    rest = draw(st.lists(st.integers(0, 3), min_size=n - 4, max_size=n - 4),
                label="corner of the other nodes")
    corner_of = dict(zip(order, [0, 1, 2, 3] + rest))
    nodes = [[v for v in range(n) if corner_of[v] == c] for c in range(4)]
    tied = draw(st.booleans(), label="tied")
    if tied:
        side = draw(st.integers(1, 3), label="side")
        diag = draw(st.integers(0, 3), label="diagonal")
        counts = {(0, 1): side, (1, 2): side, (2, 3): side, (0, 3): side,
                  (0, 2): diag, (1, 3): diag}
    else:
        counts = {pair: draw(st.integers(0, 3), label=f"count {pair}")
                  for pair in itertools.combinations(range(4), 2)}
    pairs = []
    for (i, j), count in counts.items():
        u = draw(st.sampled_from(nodes[i]))
        v = draw(st.sampled_from(nodes[j]))
        pairs += [(u, v)] * count
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n), label="extra")
    pairs += [(u, v) for u, v in extra
              if u != v and not (tied and corner_of[u] != corner_of[v])] * 2
    g = Multigraph.from_edges(n, pairs)
    a = sum(1 << v for v in nodes[0] + nodes[1])
    b = sum(1 << v for v in nodes[0] + nodes[3])
    fm = full_mask(n)
    a, b = draw(st.sampled_from([(a, b), (b, a), (fm ^ a, b), (a, fm ^ b)]),
                label="pair")
    lam = draw(st.sampled_from([None, 0, 3]), label="lam")
    return g, a, b, lam


@settings(max_examples=400, deadline=None)
@given(corner_graphs())
def test_property_square_labeling_matches_the_reference(case):
    """The square read from the cut table, labeled from a minimum-degree
    corner, equals the edge walk over all eight labelings."""
    g, a, b, lam = case
    assert build_square(g, a, b, lam) == reference_build_square(g, a, b, lam)


def test_component_split_matches_the_reference_on_the_decompose_suite(monkeypatch):
    split = cut_structure._component_split
    seen = []

    def checked(masks, inside):
        # the caller's per-node bitsets are the holders of these masks
        assert inside == cut_structure._holders(masks, len(inside))
        got = split(masks, inside)
        assert got == reference_component_split(masks, len(inside))
        seen.append(len(got))
        return got

    monkeypatch.setattr(cut_structure, "_component_split", checked)
    assert run_suite("decompose")["pass"]
    assert len(seen) > 30 and max(seen) > 1


def test_near_min_squares_walk_the_reference_pairs():
    cfg = dict(_SUITE_DEFAULTS["squares"], graphs=40)
    rng = random.Random(cfg["seed"])
    want = []
    for gi in range(cfg["graphs"]):
        g = _corpus_graph(rng, cfg["n_min"], cfg["n_max"], cfg["m_factor"])
        for lam, a, b in reference_near_min_pairs(g):
            want.append((gi, a, b, reference_build_square(g, a, b, lam=lam)))
    got = [(gi, a, b, sq) for gi, _g, a, b, sq in _near_min_squares(cfg)]
    assert got == want and len(want) > 100


def test_level_family_equals_the_near_min_masks_on_suite_corpora():
    for name in ("squares", "uncrossable"):
        cfg = _SUITE_DEFAULTS[name]
        rng = random.Random(cfg["seed"])
        for _ in range(100):
            g = _corpus_graph(rng, cfg["n_min"], cfg["n_max"], cfg["m_factor"])
            lam = min_cut_value(g)
            assert level_family(g, lam).members == reference_near_min_masks(g, lam)
