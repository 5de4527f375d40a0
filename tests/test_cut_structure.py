import dataclasses
import random
import re

import numpy as np
import pytest

from nearcut import (
    InputError,
    PartShape,
    PreconditionError,
    SetFamily,
    SquareCase,
    build_square,
    classify_square,
    crosses_strongly,
    decompose_F2_odd,
    decompose_plus_cuts,
    enumerate_Fq,
    enumerate_cuts_at_most,
    family_quotient,
    is_laminar,
    is_symmetric_proper_crossing,
    is_uncrossable,
    mask_from_nodes,
    min_cut_value,
    nodes_from_mask,
    verify_part_shape,
)
from nearcut.harness import make_flex_corpus
from nearcut.multigraph import canonical_mask, cut_value_array

from conftest import c4, canonical_subsets, g_from, k4, random_multigraph, singleton_quotient


def m(*nodes):
    return mask_from_nodes(nodes)


# ---------------------------------------------------------------------------
# crossing predicates


def test_crossing_examples():
    # {0,1} and {1,2} cross with all four corners non-empty
    assert crosses_strongly(m(0, 1), m(1, 2), 4)
    # one set inside the other: never strongly crossing
    assert not crosses_strongly(m(0), m(0, 1), 4)
    # disjoint sets covering everything: not crossing
    assert not crosses_strongly(m(0, 1), m(2, 3), 4)


def test_crossing_rejects_bad_input():
    with pytest.raises(InputError):
        crosses_strongly(0, m(1), 4)
    with pytest.raises(InputError):
        crosses_strongly(m(0, 1), m(0, 1, 2, 3), 4)


# ---------------------------------------------------------------------------
# squares


def five_edge_graph():
    # unit edges p1p2, p2p3, p3p4, p4p1, p2p4 with p1.. mapped to 0..
    return g_from(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])


def test_build_square_five_edge_example():
    sq = build_square(five_edge_graph(), m(0, 1), m(0, 3))
    assert sq.sides == (1, 1, 1, 1)
    assert (sq.a, sq.b) == (1, 0)
    assert sq.alpha == 2
    assert (sq.da, sq.db) == (3, 3)
    assert sq.degrees == (2, 3, 2, 3)
    assert sq.formula_residuals() == (0, 0, 0, 0)
    assert sq.counting_residuals() == (0, 0)


def test_build_square_doubled_side_example():
    g = g_from(4, [(0, 1), (1, 2), (2, 3), (2, 3), (3, 0)])
    sq = build_square(g, m(0, 1), m(0, 3))
    assert sq.sides == (1, 1, 1, 2)
    assert (sq.a, sq.b) == (0, 0)
    assert sorted((sq.da, sq.db)) == [2, 3]


def test_build_square_rejects_non_crossing():
    with pytest.raises(InputError):
        build_square(c4(), m(1), m(1, 2))


def test_square_identities_random():
    rng = random.Random(5)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(4, 8), extra=8)
        subs = [mask_from_nodes(s) for s in canonical_subsets(g.n)]
        pairs = 0
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                if not crosses_strongly(subs[i], subs[j], g.n):
                    continue
                sq = build_square(g, subs[i], subs[j], lam=1)
                assert sq.alpha % 2 == 0
                assert sq.formula_residuals() == (0, 0, 0, 0)
                assert sq.counting_residuals() == (0, 0)
                d1, d2, d3, d4 = sq.degrees
                assert d1 <= d2 and d1 <= d3 and d1 <= d4 and d2 <= d4
                if d1 == d2:
                    assert sq.a >= sq.b
                # all six capacities equal direct edge counts between corners
                corner_sets = [set(nodes_from_mask(c)) for c in sq.corners]

                def between(ca, cb):
                    return sum(1 for e in g.edges
                               if (e.u in corner_sets[ca]) != (e.v in corner_sets[ca])
                               and {e.u, e.v} <= corner_sets[ca] | corner_sets[cb])

                assert (sq.z, sq.y, sq.w, sq.x) == \
                    (between(0, 1), between(1, 2), between(2, 3), between(3, 0))
                assert (sq.a, sq.b) == (between(1, 3), between(0, 2))
                pairs += 1
                if pairs > 40:
                    break
            if pairs > 40:
                break


def test_classify_examples():
    sq = build_square(five_edge_graph(), m(0, 1), m(0, 3))
    assert classify_square(sq) is SquareCase.PP_B

    g = g_from(4, [(0, 1), (1, 2), (2, 3), (2, 3), (3, 0)])
    sq = build_square(g, m(0, 1), m(0, 3))
    assert classify_square(sq) is SquareCase.MIN_PLUS_EVEN

    pairs = [(i, (i + 1) % 5) for i in range(5)]
    g = g_from(5, pairs + pairs[1:])  # doubled C5 minus one parallel: lam = 3
    assert min_cut_value(g) == 3
    sq = build_square(g, m(2, 3), m(3, 4))
    assert sq.degrees == (4, 4, 4, 4) and sq.sides == (2, 2, 2, 2)
    assert classify_square(sq) is SquareCase.PP_F


def test_classify_min_min_and_pp_e():
    sq = build_square(c4(), m(1, 2), m(2, 3))
    assert classify_square(sq) is SquareCase.MIN_MIN
    assert sq.sides == (1, 1, 1, 1) and (sq.a, sq.b) == (0, 0)

    sq = build_square(k4(), m(0, 1), m(0, 3))
    assert classify_square(sq) is SquareCase.PP_E


def test_classify_min_plus_odd():
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    g = g_from(5, pairs + pairs[1:])
    # {1,2} is a 3-cut (uses the light bundle), {2,3} a 4-cut
    sq = build_square(g, m(1, 2), m(2, 3))
    assert classify_square(sq) is SquareCase.MIN_PLUS_ODD
    light = (sq.lam - 1) // 2
    assert sorted(sq.sides) == [light, light + 1, light + 1, light + 1]


def test_classify_rejects_far_values():
    g = c4()
    sq = build_square(g, m(1, 2), m(2, 3), lam=4)  # claims lam=4, cuts are 2
    with pytest.raises(InputError):
        classify_square(sq)


# ---------------------------------------------------------------------------
# family predicates


def test_is_laminar_examples():
    assert is_laminar(SetFamily.from_sets(4, [[1], [1, 2]]))[0]
    ok, wit = is_laminar(SetFamily.from_sets(4, [[0, 1], [1, 2]]))
    assert not ok and set(wit) == {m(0, 1), m(1, 2)}
    assert is_laminar(SetFamily(4, ()))[0]


def test_is_uncrossable_examples():
    g = c4()
    fam = SetFamily(4, tuple(r.mask for r in enumerate_cuts_at_most(g, 3)))
    assert is_uncrossable(fam)[0]

    ok, wit = is_uncrossable(SetFamily.from_sets(4, [[0, 1], [1, 2]]))
    assert not ok and wit is not None

    assert is_uncrossable(SetFamily.from_sets(4, [[1], [1, 2]]))[0]


def test_is_symmetric_proper_crossing_examples():
    # all 12 oriented arcs of the 4-cycle
    arcs = [[0], [1], [2], [3], [0, 1], [1, 2], [2, 3], [3, 0],
            [1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    fam = SetFamily.from_sets(4, arcs)
    assert is_symmetric_proper_crossing(fam)[0]

    ok, wit = is_symmetric_proper_crossing(SetFamily.from_sets(4, [[1], [1, 2]]))
    assert not ok  # fails symmetry

    assert is_symmetric_proper_crossing(SetFamily(4, ()))[0]


def test_symmetric_closure_and_canonical():
    fam = SetFamily.from_sets(4, [[1, 2]])
    closed = fam.symmetric_closure()
    assert set(closed.members) == {m(1, 2), m(0, 3)}
    assert closed.canonical().members == (m(1, 2),)


@pytest.mark.parametrize("bad", [3.7, True, "6", None, np.True_, 6.0])
def test_set_family_refuses_members_that_are_not_integers(bad):
    with pytest.raises(InputError, match=f"family member {re.escape(repr(bad))} "
                                         f"is not an integer"):
        SetFamily(4, (bad, 6))


def test_set_family_takes_numpy_integers_as_python_ints():
    fam = SetFamily(4, (np.int64(3), np.uint8(6)))
    assert fam.members == (3, 6)
    assert all(type(x) is int for x in fam.members)


# ---------------------------------------------------------------------------
# quotients and shapes


def test_family_quotient_examples():
    g = c4()
    fam = SetFamily(4, tuple(r.mask for r in enumerate_cuts_at_most(g, 2)))
    qr = family_quotient(g, fam)
    assert len(qr.classes) == 4  # every node pair separated by some 2-cut
    assert list(zip(qr.sides, qr.edge_count)) == \
        [((0, 1), 1), ((0, 3), 1), ((1, 2), 1), ((2, 3), 1)]

    qr = family_quotient(g, SetFamily.from_sets(4, [[3]]))
    assert len(qr.classes) == 2
    assert list(zip(qr.sides, qr.edge_count, qr.unsafe_tally)) == [((0, 1), 2, 0)]

    with pytest.raises(InputError):
        family_quotient(g, SetFamily(4, ()))


def cycle_quotient(caps):
    """Cycle quotient whose i-th side merges caps[i] parallel edges."""
    n = len(caps)
    return singleton_quotient(
        g_from(n, [(i, (i + 1) % n) for i in range(n) for _ in range(caps[i])]))


def test_verify_part_shape_examples():
    assert verify_part_shape(cycle_quotient([2] * 5), 3) is PartShape.CYCLE_UNIFORM
    assert verify_part_shape(cycle_quotient([1, 3, 3, 3]), 3) is PartShape.CYCLE_ONE_LIGHT
    assert verify_part_shape(cycle_quotient([1, 1, 1]), 3) is PartShape.OTHER
    with pytest.raises(InputError):
        verify_part_shape(cycle_quotient([2] * 4), 2)


def test_verify_part_shape_cube():
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)
             if (i ^ j).bit_count() == 1]
    g = g_from(8, edges)
    fam = SetFamily(8, tuple(r.mask for r in enumerate_cuts_at_most(g, 4)
                             if r.size == 4))
    qr = family_quotient(g, fam)
    assert verify_part_shape(qr, 3) is PartShape.CUBE
    assert verify_part_shape(qr, 5) is PartShape.OTHER
    # the same sides, one of them two parallel edges: not the cube
    heavy = dataclasses.replace(qr, edge_count=(2,) + qr.edge_count[1:])
    assert verify_part_shape(heavy, 3) is PartShape.OTHER


def test_two_class_quotient_needs_a_side_of_lam_plus_one_edges():
    qr = family_quotient(c4(), SetFamily.from_sets(4, [[3]]))
    assert len(qr.classes) == 2 and qr.edge_count == (2,)
    assert verify_part_shape(qr, 1) is PartShape.CYCLE_UNIFORM
    assert verify_part_shape(qr, 3) is PartShape.OTHER


def reference_is_cube(qr) -> bool:
    """The backtracking cube check that a bipartiteness test replaced,
    verbatim but for reading the quotient's ``sides`` where it read the
    edges of a merged graph."""
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
    target = [set(j for j in range(8) if (i ^ j).bit_count() == 1) for i in range(8)]

    mapping = [-1] * 8
    used = [False] * 8

    def extend(i: int) -> bool:
        if i == 8:
            return True
        for t in range(8):
            if used[t]:
                continue
            if any((t in target[mapping[j]]) != (j in adj[i]) for j in range(i)):
                continue
            mapping[i] = t
            used[t] = True
            if extend(i + 1):
                return True
            mapping[i] = -1
            used[t] = False
        return False

    return extend(0)


def test_cube_check_matches_the_backtracking_reference():
    nx = pytest.importorskip("networkx")
    from nearcut.cut_structure import _is_cube

    def nx_quotient(graph):
        return singleton_quotient(g_from(8, sorted(tuple(sorted(e)) for e in graph.edges)))

    graphs = [nx.random_regular_graph(3, 8, seed=s) for s in range(400)]
    graphs += [nx.gnm_random_graph(8, 12, seed=s) for s in range(100)]
    verdicts = []
    for graph in graphs:
        qr = nx_quotient(graph)
        verdicts.append(_is_cube(qr))
        assert verdicts[-1] == reference_is_cube(qr), sorted(graph.edges)
    assert 0 < sum(verdicts) < len(verdicts)
    wagner = nx_quotient(nx.circulant_graph(8, [1, 4]))
    assert not _is_cube(wagner) and not reference_is_cube(wagner)
    assert verify_part_shape(wagner, 3) is PartShape.OTHER
    cube = nx_quotient(nx.convert_node_labels_to_integers(nx.hypercube_graph(3)))
    assert _is_cube(cube) and verify_part_shape(cube, 3) is PartShape.CUBE


# ---------------------------------------------------------------------------
# decompositions


def test_decompose_plus_cuts_doubled_c5():
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    g = g_from(5, pairs + pairs[1:])
    res = decompose_plus_cuts(g, 3)
    assert len(res.parts) == 1
    part = res.parts[0]
    assert part.shape in (PartShape.CYCLE_UNIFORM, PartShape.CYCLE_ONE_LIGHT)
    assert len(part.members) == 6
    assert res.diagnostics == ()
    assert set(res.coverage().values()) == {1}


def test_decompose_plus_cuts_no_plus_cuts():
    g = g_from(2, [(0, 1), (0, 1), (0, 1)])  # single 3-cut, no 4-cuts
    res = decompose_plus_cuts(g, 3)
    assert res.parts == ()
    with pytest.raises(PreconditionError):
        decompose_plus_cuts(g, 5)


def test_decompose_plus_cuts_membership_bound():
    rng = random.Random(23)
    done = 0
    while done < 12:
        g = random_multigraph(rng, rng.randint(4, 8), extra=6)
        lam = min_cut_value(g)
        if lam % 2 == 0 or lam == 0:
            continue
        done += 1
        res = decompose_plus_cuts(g, lam)
        vals = cut_value_array(g)
        plus = {i << 1 for i in range(1, len(vals)) if int(vals[i]) == lam + 1}
        cov = res.coverage()
        for mask in plus:
            assert 1 <= cov.get(mask, 0) <= 2


def test_decompose_f2_examples():
    # no unsafe edges: both sides empty
    d = decompose_F2_odd(c4(), range(4), 1)
    assert len(d.f_prime) == 0 and len(d.f_dprime) == 0

    # opposite unsafe edges on the 4-cycle: a pure symmetric crossing side
    g = g_from(4, [(0, 1, 0, 1, True), (1, 2), (2, 3, 0, 1, True), (3, 0)])
    d = decompose_F2_odd(g, range(4), 1)
    assert d.f_prime.members == ()
    assert set(d.f_dprime.members) == {m(1, 2), m(0, 3)}
    assert is_symmetric_proper_crossing(d.f_dprime)[0]

    # doubled unsafe pendant: both unsafe edges merge into one red edge
    g = g_from(4, [(0, 1), (1, 2), (2, 0), (0, 3, 0, 1, True), (0, 3, 0, 1, True)])
    d = decompose_F2_odd(g, range(5), 1)
    assert d.f_prime.members == (m(3),)
    assert d.f_dprime.members == ()
    assert is_uncrossable(d.f_prime)[0]


def test_decompose_f2_precondition():
    # an unsafe bridge makes a k-cut unsafe: precondition must fail
    g = g_from(3, [(0, 1, 0, 1, True), (1, 2)])
    with pytest.raises(PreconditionError):
        decompose_F2_odd(g, range(2), 1)
    with pytest.raises(InputError):
        decompose_F2_odd(c4(), range(4), 2)  # even k rejected


def _check_f2_split(g, k):
    """The split of F2 on H = g: a partition of F2 (up to complement) into
    an uncrossable side and a symmetric proper crossing side, each checked
    again on a fresh family."""
    d = decompose_F2_odd(g, range(g.m), k)
    f2 = set(enumerate_Fq(g, range(g.m), k, 2).members)
    prime = set(d.f_prime.members)
    dprime = {canonical_mask(x, g.n) for x in d.f_dprime.members}
    assert prime | dprime == f2 and not prime & dprime
    assert is_uncrossable(SetFamily(g.n, d.f_prime.members))[0]
    assert is_symmetric_proper_crossing(SetFamily(g.n, d.f_dprime.members))[0]
    return d


@pytest.mark.parametrize("spec, gid", [
    ((150, 20260806, 3), "flex-k3-0137"),
    ((150, 20260803, 3), "flex-k3-0046"),
    ((100, 20260809, 3, 8, 12), "flex-k3-0064"),
])
def test_f2_split_moves_a_meet_or_join_to_the_symmetric_side(spec, gid):
    """Deciding each member alone put a meet or join of a strongly crossing
    symmetric-side pair on the uncrossable side, and the symmetric check
    failed on these (3,1)-flex graphs."""
    g = dict(make_flex_corpus(*spec))[gid]
    d = _check_f2_split(g, 3)
    if gid == "flex-k3-0137":
        # A = {1,3,4,5}, B = {0,1,4,5}: their meet {1,4,5} sits with them
        assert {m(1, 3, 4, 5), m(0, 1, 4, 5), m(1, 4, 5)} <= set(d.f_dprime.members)
        assert m(1, 4, 5) not in d.f_prime.members


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_f2_split_sweep(k):
    for seed in range(20260800, 20260808):
        for gid, g in make_flex_corpus(150, seed, k):
            _check_f2_split(g, k)
