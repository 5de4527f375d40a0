"""The bitset family layer against its first versions.

The three family predicates, the primal-dual cover, ``covers``,
``minimal_cover`` and the crossing build of ``exact_min_cover`` now run
on bitsets, and each predicate's verdict is cached on its family.  Their
first versions, which tested every pair and every edge with
``crosses_strongly``, ``contains_cut`` and ``edge_crosses``, are copied
here verbatim as slow references (``contains_cut`` and
``_crossing_candidates`` with them, since the library no longer has
those bodies).  Every verdict, witness, solution (duals and
``nodes_explored`` included) and error must equal theirs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearcut.cut_structure as cut_structure
from nearcut import (
    CoverInstance,
    CoverSolution,
    FlexInstance,
    InfeasibleError,
    InvariantError,
    NearcutError,
    PreconditionError,
    SetFamily,
    cover_symmetric_crossing,
    covers,
    decompose_F2_odd,
    deficient_family,
    exact_min_cover,
    is_laminar,
    is_symmetric_proper_crossing,
    is_uncrossable,
    level_family,
    minimal_cover,
    near_min_cuts_cover,
    primal_dual_uncrossable_cover,
    solve_fgc,
)
from nearcut.cut_structure import corner_masks, crosses_strongly
from nearcut.family_cover import Candidate, certify_primal_dual
import nearcut.family_cover as family_cover
from nearcut.harness import (
    make_augment_corpus,
    make_fgc_corpus,
    make_flex_corpus,
    make_uncrossable_cover_corpus,
)
from nearcut.multigraph import (
    DisjointSets,
    canonical_mask,
    complement_mask,
    cut_masks,
    cut_value_array,
    edge_crosses,
)


# ---------------------------------------------------------------------------
# Slow references (verbatim bodies)


def reference_contains_cut(fam: SetFamily, mask: int) -> bool:
    return mask in fam.member_set or complement_mask(mask, fam.n) in fam.member_set


def reference_is_laminar(fam: SetFamily) -> tuple[bool, Optional[tuple[int, int]]]:
    ms = fam.members
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            a, b = ms[i], ms[j]
            if a & b and a & ~b and b & ~a:
                return False, (a, b)
    return True, None


def reference_is_uncrossable(fam: SetFamily) -> tuple[bool, Optional[tuple[int, int]]]:
    ms = fam.members
    n = fam.n
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            a, b = ms[i], ms[j]
            if not crosses_strongly(a, b, n):
                continue
            c1, c2, c3, c4 = corner_masks(a, b, n)
            union = a | b
            if reference_contains_cut(fam, c1) and reference_contains_cut(fam, union):
                continue
            if reference_contains_cut(fam, c2) and reference_contains_cut(fam, c4):
                continue
            return False, (a, b)
    return True, None


def reference_is_symmetric_proper_crossing(fam: SetFamily) -> tuple[bool, Optional[tuple]]:
    ms = fam.members
    n = fam.n
    for m in ms:
        if complement_mask(m, n) not in fam.member_set:
            return False, (m,)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            a, b = ms[i], ms[j]
            if not crosses_strongly(a, b, n):
                continue
            if (a & b) not in fam.member_set or (a | b) not in fam.member_set:
                return False, (a, b)
            if (a ^ b) in fam.member_set:
                return False, (a, b)
    return True, None


def _crossing_candidates(cands: Sequence[Candidate], mask: int) -> list[int]:
    return [i for i, c in enumerate(cands) if edge_crosses(c.u, c.v, mask)]


def reference_covers(candidates: Iterable, family: SetFamily) -> tuple[bool, Optional[int]]:
    pairs = []
    for c in candidates:
        if isinstance(c, Candidate):
            pairs.append((c.u, c.v))
        else:
            pairs.append((c[0], c[1]))
    for mask in family.members:
        if not any(edge_crosses(u, v, mask) for u, v in pairs):
            return False, mask
    return True, None


def reference_exact_cross(inst: CoverInstance) -> list[int]:
    """The crossing build at the top of the first ``exact_min_cover``."""
    cands = inst.candidates
    members = inst.family.members
    cross: list[int] = []  # member -> candidate-position bitmask
    for mask in members:
        bits = 0
        for pos in _crossing_candidates(cands, mask):
            bits |= 1 << pos
        if bits == 0:
            raise InfeasibleError("family member crossed by no candidate",
                                  witness=mask)
        cross.append(bits)
    return cross


def reference_primal_dual_uncrossable_cover(inst: CoverInstance) -> CoverSolution:
    ok, wit = reference_is_uncrossable(inst.family)
    if not ok:
        raise PreconditionError("family is not uncrossable", witness=wit)
    cands = inst.candidates
    members = inst.family.members
    for mask in members:
        if not _crossing_candidates(cands, mask):
            raise InfeasibleError("family member crossed by no candidate",
                                  witness=mask)

    duals: dict[int, Fraction] = {}
    chosen_order: list[int] = []  # candidate positions in addition order
    chosen_set: set[int] = set()

    def covered(mask: int) -> bool:
        return any(edge_crosses(cands[p].u, cands[p].v, mask) for p in chosen_set)

    while True:
        uncovered = [m for m in members if not covered(m)]
        if not uncovered:
            break
        minimal = []
        for m in uncovered:
            if not any(o != m and (o & ~m) == 0 for o in uncovered):
                minimal.append(m)
        # uniform growth: find the candidate whose slack/(active sets crossed)
        # is smallest, with ident as tie-break
        best = None  # (delta, ident, pos, crossing count)
        for pos, c in enumerate(cands):
            if pos in chosen_set:
                continue
            active = [m for m in minimal if edge_crosses(c.u, c.v, m)]
            if not active:
                continue
            paid = sum((d for m, d in duals.items()
                        if edge_crosses(c.u, c.v, m)), Fraction(0))
            slack = Fraction(c.cost) - paid
            if slack < 0:
                raise InvariantError("negative slack during dual growth")
            delta = slack / len(active)
            key = (delta, c.ident)
            if best is None or key < best[0]:
                best = (key, pos, len(active))
        if best is None:
            raise InfeasibleError("no candidate crosses an active set",
                                  witness=minimal[0])
        (delta, _), pos, _cnt = best
        for m in minimal:
            duals[m] = duals.get(m, Fraction(0)) + delta
        chosen_set.add(pos)
        chosen_order.append(pos)

    # reverse delete
    for pos in reversed(chosen_order):
        trial = chosen_set - {pos}
        if all(any(edge_crosses(cands[p].u, cands[p].v, m) for p in trial)
               for m in members):
            chosen_set = trial

    chosen_ids = tuple(sorted(cands[p].ident for p in chosen_set))
    cost = sum(cands[p].cost for p in chosen_set)
    dual_items = tuple(sorted(duals.items()))
    return CoverSolution(chosen=chosen_ids, cost=cost, method="primal-dual",
                         guarantee=Fraction(2), duals=dual_items)


def reference_minimal_cover(edges: Sequence, family: SetFamily) -> list:
    pairs = []
    for c in edges:
        if isinstance(c, Candidate):
            pairs.append((c.u, c.v))
        else:
            pairs.append((c[0], c[1]))
    for u, v in pairs:
        if not (0 <= u < family.n and 0 <= v < family.n):
            raise PreconditionError("edge endpoint outside the ground set",
                                    witness=(u, v))
    ok, wit = reference_covers(pairs, family)
    if not ok:
        raise PreconditionError("edge set does not cover the family", witness=wit)

    members = family.members
    cover_count = [0] * len(members)
    crossing = []  # per edge, indices of members it crosses
    for (u, v) in pairs:
        hits = [mi for mi, m in enumerate(members) if edge_crosses(u, v, m)]
        crossing.append(hits)
        for mi in hits:
            cover_count[mi] += 1
    keep = [True] * len(pairs)
    for idx in range(len(pairs) - 1, -1, -1):
        if all(cover_count[mi] >= 2 for mi in crossing[idx]):
            keep[idx] = False
            for mi in crossing[idx]:
                cover_count[mi] -= 1
    result = [edges[i] for i in range(len(edges)) if keep[i]]

    sets = DisjointSets(family.n)
    for i, kept in enumerate(keep):
        if kept and not sets.union(*pairs[i]):
            raise InvariantError("minimal cover contains a cycle", witness=pairs[i])
    return result


# ---------------------------------------------------------------------------
# Comparison helpers


def outcome(fn, *args):
    """The result, or the error type with its witness."""
    try:
        return "ok", fn(*args)
    except NearcutError as exc:
        return type(exc).__name__, getattr(exc, "witness", None)


def fresh(fam: SetFamily) -> SetFamily:
    """An equal family without cached verdicts."""
    return SetFamily(fam.n, fam.members)


def assert_predicates_match(fam: SetFamily) -> None:
    assert is_laminar(fresh(fam)) == reference_is_laminar(fam)
    assert is_uncrossable(fresh(fam)) == reference_is_uncrossable(fam)
    assert is_symmetric_proper_crossing(fresh(fam)) == \
        reference_is_symmetric_proper_crossing(fam)


def assert_covers_match(inst: CoverInstance) -> None:
    fam = inst.family
    unscanned = CoverInstance(inst.n, inst.candidates, fresh(fam))
    # pd2 covers an uncrossable family over its rooted members, the side
    # of each that avoids node 0; the verbatim reference grew duals on the
    # members as given, which can break its own certificate
    rooted = inst
    if any(m & 1 for m in fam.members) and reference_is_uncrossable(fam)[0]:
        rooted = CoverInstance(inst.n, inst.candidates, fam.canonical())
    assert outcome(primal_dual_uncrossable_cover, unscanned) == \
        outcome(reference_primal_dual_uncrossable_cover, rooted)
    ref = outcome(reference_exact_cross, inst)
    if ref[0] == "ok":
        assert inst.crossings.member_bits == ref[1]
    else:
        assert outcome(exact_min_cover, inst) == ref
    pairs = [(c.u, c.v) for c in inst.candidates]
    assert covers(inst.candidates, fam) == reference_covers(inst.candidates, fam)
    assert covers(pairs[: len(pairs) // 2], fam) == \
        reference_covers(pairs[: len(pairs) // 2], fam)
    assert outcome(minimal_cover, inst.candidates, fam) == \
        outcome(reference_minimal_cover, inst.candidates, fam)
    assert outcome(minimal_cover, pairs, fam) == \
        outcome(reference_minimal_cover, pairs, fam)


def shuffled(fam: SetFamily, rng: random.Random) -> SetFamily:
    members = list(fam.members)
    rng.shuffle(members)
    return SetFamily(fam.n, tuple(members))


def with_node0_sides(fam: SetFamily, rng: random.Random) -> SetFamily:
    """Each member flipped to its complement (the side with node 0) at random."""
    out = []
    for m in fam.members:
        c = complement_mask(m, fam.n)
        out.append(c if rng.random() < 0.5 and c not in fam.member_set else m)
    if len(set(out)) != len(out):
        return fam
    return SetFamily(fam.n, tuple(out))


def variants(fam: SetFamily, rng: random.Random) -> list[SetFamily]:
    return [fam, shuffled(fam, rng), with_node0_sides(fam, rng),
            fam.symmetric_closure(), shuffled(fam.symmetric_closure(), rng)]


# ---------------------------------------------------------------------------
# Corpora


def seeded_cover_instances() -> list[CoverInstance]:
    out = [inst for _, inst in make_uncrossable_cover_corpus(30, 4101)]
    for _, inst in make_augment_corpus(20, 4102):
        cands = tuple(Candidate(i, inst.graph.edges[i].u, inst.graph.edges[i].v,
                                inst.graph.edges[i].cost)
                      for i in inst.candidate_ids)
        g = inst.current_graph(set())
        fams = [deficient_family(g, inst.k), level_family(g, inst.lam0),
                SetFamily(g.n, cut_masks(cut_value_array(g) == inst.lam0))]
        out += [CoverInstance(g.n, cands, f) for f in fams if len(f)]
    return out


def seeded_families() -> list[SetFamily]:
    fams = [inst.family for inst in seeded_cover_instances()]
    for k in (1, 3):
        for _, g in make_flex_corpus(6, 4200 + k, k, n_min=4, n_max=7):
            if k == 3:
                split = decompose_F2_odd(g, range(g.m), k)
                fams += [split.f_prime, split.f_dprime]
    rng = random.Random(4103)
    for _ in range(60):
        n = rng.randint(3, 7)
        size = rng.randint(0, min(12, (1 << n) - 2))
        masks = rng.sample(range(1, (1 << n) - 1), size)
        fams.append(SetFamily(n, tuple(masks)))
    return fams


# ---------------------------------------------------------------------------
# Predicates


def test_predicates_match_reference_on_seeded_families():
    rng = random.Random(11)
    checked = 0
    for fam in seeded_families():
        for var in variants(fam, rng):
            assert_predicates_match(var)
            checked += 1
    assert checked > 300


def test_predicates_match_on_failing_families():
    # A crossing pair with neither corner pair present fails all three.
    fam = SetFamily.from_sets(5, [[0, 1], [1, 2], [3]])
    assert_predicates_match(fam)
    assert not is_uncrossable(fresh(fam))[0]
    assert not is_laminar(fresh(fam))[0]
    sym = fam.symmetric_closure()
    assert_predicates_match(sym)
    assert not is_symmetric_proper_crossing(sym)[0]


def test_pairs_whose_union_is_the_ground_set_do_not_cross():
    # A | B = V leaves the outer corner empty: no strong crossing.
    for fam in (SetFamily.from_sets(4, [[0, 1, 2], [1, 2, 3]]),
                SetFamily.from_sets(5, [[0, 1, 2, 3], [2, 3, 4], [1]]),
                SetFamily.from_sets(3, [[0, 1], [1, 2]])):
        assert_predicates_match(fam)
        assert is_uncrossable(fresh(fam)) == (True, None)
        assert_predicates_match(fam.symmetric_closure())


def test_contains_cut_matches_reference():
    rng = random.Random(12)
    for fam in seeded_families()[:80]:
        for mask in range(0, 1 << fam.n):
            assert fam.contains_cut(mask) == reference_contains_cut(fam, mask)
        assert fam.contains_cut(rng.getrandbits(12) << fam.n) is False


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, (1 << n) - 2), max_size=14, unique=True))))
def test_predicates_match_reference_hypothesis(data):
    n, masks = data
    fam = SetFamily(n, tuple(masks))
    assert_predicates_match(fam)
    assert_predicates_match(fam.symmetric_closure())
    assert_predicates_match(fam.canonical())


def reference_canonical(fam: SetFamily) -> SetFamily:
    out = []
    seen = set()
    for m in fam.members:
        c = canonical_mask(m, fam.n)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return SetFamily(fam.n, tuple(sorted(out)))


def reference_symmetric_closure(fam: SetFamily) -> SetFamily:
    out = list(fam.members)
    seen = set(out)
    for m in fam.members:
        c = complement_mask(m, fam.n)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return SetFamily(fam.n, tuple(out))


@st.composite
def families_with_complement_pairs(draw) -> SetFamily:
    """Random members (about half hold node 0), then the complements of
    some of them, each placed at a random position."""
    n = draw(st.integers(2, 7))
    fm = (1 << n) - 1
    masks = draw(st.lists(st.integers(1, fm - 1), max_size=12, unique=True))
    picked = draw(st.lists(st.sampled_from(masks), unique=True)) if masks else []
    for m in picked:
        if m ^ fm not in masks:
            masks.insert(draw(st.integers(0, len(masks))), m ^ fm)
    return SetFamily(n, tuple(masks))


@settings(max_examples=200, deadline=None)
@given(families_with_complement_pairs())
def test_canonical_and_closure_match_their_loops(fam):
    assert fam.canonical().members == reference_canonical(fam).members
    assert fam.symmetric_closure().members == reference_symmetric_closure(fam).members


def test_verdict_is_cached_per_family():
    fam = SetFamily.from_sets(5, [[1, 2], [2, 3], [2], [1, 2, 3]])
    first = is_uncrossable(fam)
    assert is_uncrossable(fam) is first
    assert is_laminar(fam) == reference_is_laminar(fam)


# ---------------------------------------------------------------------------
# Covers


def test_covers_match_reference_on_seeded_instances():
    rng = random.Random(13)
    checked = 0
    for inst in seeded_cover_instances():
        for fam in variants(inst.family, rng):
            assert_covers_match(CoverInstance(inst.n, inst.candidates, fam))
            checked += 1
    assert checked > 100


def test_covers_match_on_infeasible_and_failing_instances():
    rng = random.Random(14)
    cases = 0
    for inst in seeded_cover_instances()[:30]:
        # drop candidates until some member is uncovered: InfeasibleError
        cands = inst.candidates[: max(1, len(inst.candidates) // 3)]
        assert_covers_match(CoverInstance(inst.n, cands, inst.family))
        cases += 1
    for _ in range(40):
        n = rng.randint(4, 7)
        masks = rng.sample(range(1, (1 << n) - 1), rng.randint(1, 10))
        fam = SetFamily(n, tuple(masks))
        pairs = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 5))
                 for _ in range(rng.randint(1, 8))]
        pairs = [(u, v, c) for u, v, c in pairs if u != v]
        assert_covers_match(CoverInstance.build(n, pairs, fam))
        cases += 1
    assert cases == 70


@settings(max_examples=120, deadline=None)
@given(st.integers(4, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, (1 << n) - 2), min_size=1, max_size=10, unique=True),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.integers(0, 6)), max_size=10))))
def test_covers_match_reference_hypothesis(data):
    n, masks, triples = data
    pairs = [(u, v, c) for u, v, c in triples if u != v]
    assert_covers_match(CoverInstance.build(n, pairs, SetFamily(n, tuple(masks))))


def test_covers_rejects_endpoints_outside_the_ground_set():
    fam = SetFamily.from_sets(4, [[1], [1, 2]])
    for edges, bad in (([(1, 2), (1, 9), (2, 7)], (1, 9)), ([(9, 8)], (9, 8)),
                       ([(-1, 2)], (-1, 2)), ([(0, 4)], (0, 4)),
                       ([Candidate(0, 3, 4, 1)], (3, 4))):
        for check in (covers, minimal_cover):
            with pytest.raises(PreconditionError) as err:
                check(edges, fam)
            assert err.value.witness == bad
    for edges in ([(0, 2)], [(1, 3)], [(3, 3), (2, 0)]):
        assert covers(edges, fam) == reference_covers(edges, fam)


def test_symmetric_cover_matches_on_flex_splits():
    for _, g in make_flex_corpus(8, 4300, 3, n_min=5, n_max=7):
        split = decompose_F2_odd(g, range(g.m), 3)
        cands = tuple(Candidate(i, e.u, e.v, 1 + i % 4) for i, e in enumerate(g.edges))
        for fam in (split.f_prime, split.f_dprime):
            inst = CoverInstance(g.n, cands, fam)
            assert_covers_match(inst)
        sym = CoverInstance(g.n, cands, split.f_dprime)
        got = cover_symmetric_crossing(sym)
        want = reference_primal_dual_uncrossable_cover(
            CoverInstance(g.n, cands, split.f_dprime.canonical()))
        if len(split.f_dprime):
            assert (got.chosen, got.cost, got.duals) == (want.chosen, want.cost, want.duals)


# ---------------------------------------------------------------------------
# Dual certificate


def chord_instance() -> CoverInstance:
    fam = SetFamily.from_sets(4, [[1], [2], [3], [1, 2], [2, 3]])
    return CoverInstance.build(4, [(0, 2, 1), (1, 3, 1), (0, 1, 3), (2, 3, 2)], fam)


def test_certificate_accepts_every_seeded_pd_solution():
    for inst in seeded_cover_instances():
        if is_uncrossable(inst.family)[0]:
            certify_primal_dual(inst, primal_dual_uncrossable_cover(inst))


def test_corrupted_dual_fails_the_certificate():
    inst = chord_instance()
    sol = primal_dual_uncrossable_cover(inst)
    certify_primal_dual(inst, sol)
    (mask, y), *rest = sol.duals
    bumped = CoverSolution(sol.chosen, sol.cost, sol.method, sol.guarantee,
                           ((mask, y + 5), *rest))
    with pytest.raises(InvariantError) as err:
        certify_primal_dual(inst, bumped)
    assert isinstance(err.value.witness, tuple) and len(err.value.witness) == 2
    shrunk = CoverSolution(sol.chosen, sol.cost + 100, sol.method, sol.guarantee,
                           sol.duals)
    with pytest.raises(InvariantError, match="twice the dual sum"):
        certify_primal_dual(inst, shrunk)
    stray = CoverSolution(sol.chosen, sol.cost, sol.method, sol.guarantee,
                          sol.duals + ((0b1110, Fraction(0)),))
    with pytest.raises(InvariantError, match="outside the family"):
        certify_primal_dual(inst, stray)


def test_pd_runs_the_certificate(monkeypatch):
    seen = []
    monkeypatch.setattr(family_cover, "certify_primal_dual",
                        lambda inst, sol: seen.append(sol))
    sol = primal_dual_uncrossable_cover(chord_instance())
    assert seen == [sol]


# ---------------------------------------------------------------------------
# One predicate pass per family


@pytest.fixture
def scan_counts(monkeypatch):
    counts: dict[tuple[str, int], int] = {}
    alive = []  # keeps scanned families alive, so ids stay unique

    def counting(key, scan):
        def wrapped(fam):
            alive.append(fam)
            counts[key, id(fam)] = counts.get((key, id(fam)), 0) + 1
            return scan(fam)
        return wrapped

    for name in ("_scan_laminar", "_scan_uncrossable",
                 "_scan_symmetric_proper_crossing"):
        monkeypatch.setattr(cut_structure, name,
                            counting(name, getattr(cut_structure, name)))
    return counts


def test_each_family_is_scanned_once_in_near_min_cuts_cover(scan_counts):
    for _, inst in make_augment_corpus(14, 4400):
        near_min_cuts_cover(inst)
    assert any(key == "_scan_uncrossable" for key, _ in scan_counts)
    assert set(scan_counts.values()) == {1}


def test_each_family_is_scanned_once_in_weighted_solve_fgc(scan_counts):
    solved = 0
    for _, inst in make_fgc_corpus(24, 4401):
        if inst.k % 2 == 0 and inst.q >= 1:
            solve_fgc(FlexInstance(inst.graph, inst.k, inst.q))
            solved += 1
    assert solved
    assert any(key == "_scan_uncrossable" for key, _ in scan_counts)
    assert set(scan_counts.values()) == {1}
