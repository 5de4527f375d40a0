"""The numpy pair kernels against the Python loops they stand in for.

A family with at least ``cut_structure._KERNEL_MIN_MEMBERS`` members, on
a ground set whose masks fit int64, takes a numpy kernel in two places:
the uncrossable scan (only up to the 24-node exhaustive limit, where its
bit table stays small) and the crossing bitsets of a cover instance.
Each kernel must give exactly what the loop gives: the same verdict and
witness, the same bits, the same ``CoverSolution``, the same error.  The
primal-dual cover's scan for minimal uncovered members is checked
against the strict-subset table it replaced.
"""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nearcut.cut_structure as cut_structure
import nearcut.family_cover as family_cover
from nearcut import (
    CoverInstance,
    CoverSolution,
    EdgeRecord,
    InfeasibleError,
    InvariantError,
    Multigraph,
    NearcutError,
    PreconditionError,
    SetFamily,
    is_laminar,
    is_uncrossable,
    level_family,
    min_cut_value,
    primal_dual_uncrossable_cover,
)
from nearcut.cut_structure import _kernel_sized, _uncrossable_kernel, _uncrossable_loop
from nearcut.family_cover import (
    Candidate,
    _crossing_bits,
    _reverse_delete,
    certify_primal_dual,
    cover_symmetric_crossing,
    covers,
)
from nearcut.harness import make_uncrossable_cover_corpus

THRESHOLD = cut_structure._KERNEL_MIN_MEMBERS
NEVER = 10 ** 9


@contextmanager
def kernel_threshold(value: int):
    """Run the block with the member-count threshold set to ``value``."""
    saved = cut_structure._KERNEL_MIN_MEMBERS
    cut_structure._KERNEL_MIN_MEMBERS = value
    try:
        yield
    finally:
        cut_structure._KERNEL_MIN_MEMBERS = saved


def near_min_family(n: int, rng: random.Random, chords: int, offset: int) -> SetFamily:
    """The {lam, lam+1}-cuts of a cycle plus chords, lam = min cut + offset:
    uncrossable at even lam, so mostly passing at offset 0."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    for _ in range(chords):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((u, v))
    g = Multigraph(n, tuple(EdgeRecord(u, v, 1, 1, False, False) for u, v in pairs))
    return level_family(g, min_cut_value(g) + offset)


def random_family(n: int, rng: random.Random, size: int) -> SetFamily:
    """Random masks: almost always failing, often at a late pair."""
    size = min(size, (1 << n) - 2)
    return SetFamily(n, tuple(rng.sample(range(1, (1 << n) - 1), size)))


def variant(fam: SetFamily, rng: random.Random, flip: float, drop: bool) -> SetFamily:
    """The members in a shuffled order, some replaced by their complement
    (so they hold node 0), and one dropped when ``drop`` is set."""
    fm = (1 << fam.n) - 1
    out, seen = [], set()
    for m in fam.members:
        m = m ^ fm if rng.random() < flip else m
        if m not in seen:
            seen.add(m)
            out.append(m)
    rng.shuffle(out)
    if drop and out:
        out.pop(rng.randrange(len(out)))
    return SetFamily(fam.n, tuple(out))


@st.composite
def kernel_families(draw) -> SetFamily:
    """Families of ``THRESHOLD`` to about 300 members on n <= 24."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        fam = near_min_family(draw(st.integers(11, 20)), rng,
                              draw(st.integers(0, 3)), draw(st.integers(0, 1)))
    else:
        fam = random_family(draw(st.integers(8, 24)), rng,
                            draw(st.integers(THRESHOLD, 300)))
    fam = variant(fam, rng, draw(st.sampled_from((0.0, 0.3, 1.0))), draw(st.booleans()))
    assume(len(fam) >= THRESHOLD)
    return fam


def random_edges(n: int, rng: random.Random, count: int) -> list[tuple[int, int]]:
    """Endpoint pairs in range(n), loops included."""
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


# ---------------------------------------------------------------------------
# The uncrossable scan


@settings(max_examples=80, deadline=None)
@given(kernel_families())
def test_scan_kernel_matches_the_loop(fam):
    assert _uncrossable_kernel(fam) == _uncrossable_loop(fam)


def test_scan_kernel_meets_passing_and_failing_families():
    rng = random.Random(17)
    verdicts = []
    for n in (11, 14, 17, 20):
        for offset in (0, 1):
            fam = near_min_family(n, rng, 2, offset)
            for flip in (0.0, 0.5):
                for drop in (False, True):
                    fam_v = variant(fam, rng, flip, drop)
                    if len(fam_v) >= THRESHOLD:
                        got = _uncrossable_kernel(fam_v)
                        assert got == _uncrossable_loop(fam_v)
                        verdicts.append(got[0])
    assert True in verdicts and False in verdicts


def test_large_families_take_the_kernel(monkeypatch):
    calls = []

    def counted(fam):
        calls.append(len(fam))
        return kernel(fam)

    kernel = cut_structure._uncrossable_kernel
    monkeypatch.setattr(cut_structure, "_uncrossable_kernel", counted)
    small = near_min_family(8, random.Random(1), 0, 0)        # 28 members
    large = near_min_family(16, random.Random(1), 0, 0)       # 120 members
    assert len(small) < THRESHOLD <= len(large)
    assert is_uncrossable(small) == is_uncrossable(large) == (True, None)
    assert calls == [len(large)]


def test_families_past_int64_masks_stay_on_the_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("a numpy kernel ran")

    monkeypatch.setattr(cut_structure, "_uncrossable_kernel", refuse)
    monkeypatch.setattr(family_cover, "_crossing_kernel", refuse)
    assert _kernel_sized(62, THRESHOLD) and not _kernel_sized(62, THRESHOLD - 1)
    for n in (63, 64, 70):
        assert not _kernel_sized(n, 10 ** 4)
        # a nested chain {1}, {1, 2}, ..., so laminar and uncrossable, whose
        # top masks do not fit int64 at n = 64 and 70
        chain = tuple((1 << (i + 1)) - 2 for i in range(1, n - 1))
        fam = SetFamily(n, chain)
        assert len(fam) >= THRESHOLD
        assert is_uncrossable(fam) == (True, None)
        path = tuple(Candidate(i, i, i + 1, 1 + i % 3) for i in range(n - 1))
        sol = primal_dual_uncrossable_cover(CoverInstance(n, path, fam))
        assert sol.chosen == (0,)     # edge (0, 1) crosses every member


def test_kernel_temporaries_stay_within_a_block():
    # every non-empty proper subset up to complement: uncrossable, and the
    # kernel scans all 2,096,128 pairs; one F x F int64 array is 32 MiB
    n = 12
    full = SetFamily(n, tuple(range(2, (1 << n) - 1, 2)))
    # 10^4 random masks, failing: an F x F int64 array would be 763 MiB
    wide = random_family(24, random.Random(2), 10 ** 4)
    for fam, verdict in ((full, True), (wide, False)):
        tracemalloc.start()
        try:
            got = _uncrossable_kernel(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] is verdict
        assert peak < 4 << 20, peak
    assert _uncrossable_loop(wide) == _uncrossable_kernel(wide)


def intervals(n: int) -> SetFamily:
    """Every run of consecutive nodes in 1..n-1: uncrossable, since two
    strongly crossing runs meet in a run and join in one."""
    return SetFamily(n, tuple(((1 << (j + 1)) - 1) ^ ((1 << i) - 1)
                              for i in range(1, n) for j in range(i, n)))


def test_scan_kernel_reads_the_top_canonical_mask_at_24_nodes():
    # the top canonical mask (1 << 24) - 2, node 0's complement, sits in
    # the last bit of the table's last byte
    top = (1 << 24) - 2
    rng = random.Random(24)
    runs = intervals(24)
    assert top in runs.members
    families = [runs, variant(runs, rng, 0.3, False)]
    families += [variant(runs, rng, 0.0, True) for _ in range(3)]
    families += [SetFamily(24, random_family(24, rng, 200).members + (side,))
                 for side in (top, 1)]
    verdicts = []
    for fam in families:
        assert fam.contains_cut(top)
        got = _uncrossable_kernel(fam)
        assert got == _uncrossable_loop(fam)
        verdicts.append(got[0])
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scan_kernel_on_one_byte_tables(n):
    # below five nodes the canonical masks all fit one byte of the table
    canon = range(2, 1 << n, 2)
    fm = (1 << n) - 1
    verdicts = set()
    for pick in range(1, 1 << len(canon)):
        members = [m for i, m in enumerate(canon) if pick >> i & 1]
        for flip in (0, pick):
            fam = SetFamily(n, tuple(m ^ fm if flip >> i & 1 else m
                                     for i, m in enumerate(members)))
            got = _uncrossable_kernel(fam)
            assert got == _uncrossable_loop(fam)
            verdicts.add(got[0])
    assert verdicts == ({True, False} if n == 4 else {True})


def test_scan_kernel_stops_at_the_exhaustive_limit(monkeypatch):
    def refuse(*args):
        raise AssertionError("the uncrossable kernel ran")

    for n in (25, 40, 62):
        runs = intervals(n)
        # without {1} and {2}, the runs {1, 2} and {2, 3} keep neither
        # their meet nor {1}
        failing = variant(SetFamily(n, tuple(m for m in runs.members if m not in (2, 4))),
                          random.Random(n), 0.3, False)
        expected = [_uncrossable_loop(runs), _uncrossable_loop(failing)]
        monkeypatch.setattr(cut_structure, "_uncrossable_kernel", refuse)
        assert len(failing) >= THRESHOLD and _kernel_sized(n, len(failing))
        assert [is_uncrossable(runs), is_uncrossable(failing)] == expected
        assert expected[0] == (True, None) and not expected[1][0]
        monkeypatch.undo()


def test_laminar_families_are_uncrossable_without_a_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("an uncrossable scan ran")

    chain = SetFamily(20, tuple((1 << (i + 1)) - 2 for i in range(1, 19)))
    # 29 singletons and 27 nested runs from node 1: laminar, past the
    # kernel size
    wide = SetFamily(30, tuple(1 << v for v in range(1, 30))
                     + tuple((1 << (i + 1)) - 2 for i in range(2, 29)))
    crossing = intervals(8)
    assert len(wide) >= THRESHOLD
    for fam in (chain, wide, crossing):
        is_laminar(fam)
    monkeypatch.setattr(cut_structure, "_uncrossable_loop", refuse)
    monkeypatch.setattr(cut_structure, "_uncrossable_kernel", refuse)
    assert is_uncrossable(chain) == is_uncrossable(wide) == (True, None)
    with pytest.raises(AssertionError, match="an uncrossable scan ran"):
        is_uncrossable(crossing)     # not laminar: scanned


# ---------------------------------------------------------------------------
# Crossing bitsets


@settings(max_examples=80, deadline=None)
@given(kernel_families(), st.integers(0, 2 ** 32), st.integers(0, 60))
def test_crossing_kernel_matches_the_loop_bit_for_bit(fam, seed, count):
    edges = random_edges(fam.n, random.Random(seed), count)
    with kernel_threshold(NEVER):
        loop = _crossing_bits(fam.n, fam.members, edges)
    kernel = family_cover._crossing_kernel(fam.n, fam.members, edges)
    assert kernel == loop


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9])
def test_crossing_kernel_on_tiny_and_empty_input(size):
    rng = random.Random(size)
    fam = random_family(6, rng, size)
    for edges in ([], random_edges(6, rng, 9)):
        with kernel_threshold(NEVER):
            loop = _crossing_bits(6, fam.members, edges)
        with kernel_threshold(0):
            assert _crossing_bits(6, fam.members, edges) == loop


# ---------------------------------------------------------------------------
# The primal-dual cover


def _solve(n: int, members: tuple[int, ...], cands: tuple[Candidate, ...], threshold: int):
    """pd2 on a fresh family and instance (no cached verdict or bitsets)."""
    with kernel_threshold(threshold):
        try:
            return primal_dual_uncrossable_cover(
                CoverInstance(n, cands, SetFamily(n, members)))
        except NearcutError as exc:
            return type(exc), str(exc), exc.witness


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(5, 18), st.integers(0, 3),
       st.sampled_from((0.0, 0.3)), st.booleans(), st.booleans())
@example(seed=84973262, n=5, chords=0, flip=0.3, drop=False, spanning=True)
def test_pd2_solution_does_not_depend_on_the_threshold(seed, n, chords, flip, drop,
                                                       spanning):
    rng = random.Random(seed)
    fam = variant(near_min_family(n, rng, chords, 0), rng, flip, drop)
    pairs = random_edges(n, rng, n) if not spanning else []
    if spanning:
        perm = list(range(n))
        rng.shuffle(perm)
        pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)] + random_edges(n, rng, n)
    cands = tuple(Candidate(i, u, v, rng.randint(0, 9))
                  for i, (u, v) in enumerate(pairs) if u != v)
    loop = _solve(n, fam.members, cands, NEVER)
    assert _solve(n, fam.members, cands, 0) == loop
    if spanning and not drop:
        assert not isinstance(loop, tuple)   # a real solution was compared


def rooting_instance() -> CoverInstance:
    """Uncrossable up to complement, with members on node 0's side."""
    fam = SetFamily(5, (14, 23, 22, 20, 25, 27, 16, 10, 30, 2))
    cands = tuple(Candidate(*c) for c in (
        (0, 4, 1, 9), (1, 1, 3, 6), (2, 3, 0, 7), (3, 0, 2, 9), (4, 2, 4, 8),
        (5, 2, 4, 6), (6, 0, 1, 4), (8, 0, 4, 6), (9, 3, 0, 3)))
    return CoverInstance(5, cands, fam)


def test_pd2_roots_members_that_hold_node_0():
    # growing duals on the members as given ends at cost 25 over a dual
    # sum of 12
    inst = rooting_instance()
    cands, fam = inst.candidates, inst.family
    assert is_uncrossable(fam)[0]
    assert any(m & 1 for m in fam.members)
    sol = primal_dual_uncrossable_cover(CoverInstance(5, cands, fam))
    rooted = fam.canonical()
    assert all(not mask & 1 for mask, _ in sol.duals)
    certify_primal_dual(CoverInstance(5, cands, rooted), sol)
    chosen = [c for c in cands if c.ident in sol.chosen]
    assert covers(chosen, fam) == (True, None)
    assert sol == primal_dual_uncrossable_cover(CoverInstance(5, cands, rooted))


def test_certificates_hold_against_the_instance_passed_in():
    # an edge crosses a set exactly when it crosses the complement, so the
    # rooted duals certify against the family as given
    inst = rooting_instance()
    sol = primal_dual_uncrossable_cover(inst)
    assert any(m & 1 for m in inst.family.members)
    assert not set(mask for mask, _ in sol.duals) <= set(inst.family.members)
    certify_primal_dual(inst, sol)
    cycle = Multigraph(5, tuple(EdgeRecord(v, (v + 1) % 5, 1, 1, False)
                                for v in range(5)))
    sym = CoverInstance(5, inst.candidates, level_family(cycle, 2).symmetric_closure())
    assert len(sym.family) and any(m & 1 for m in sym.family.members)
    certify_primal_dual(sym, cover_symmetric_crossing(sym))
    # a dual on a set that is no member, on either side, is still refused
    stray = 0b01100
    assert not inst.family.contains_cut(stray)
    bad = dataclasses.replace(sol, duals=sol.duals + ((stray, Fraction(0)),))
    with pytest.raises(InvariantError, match="outside the family") as err:
        certify_primal_dual(inst, bad)
    assert err.value.witness == stray


# ---------------------------------------------------------------------------
# The minimal-member scan against the strict-subset table


def strict_subset_pd2(inst: CoverInstance) -> CoverSolution:
    """pd2 with its former minimality test: member j is minimal among the
    uncovered members when no member strictly inside it is uncovered,
    read off a table of the members strictly inside each member."""
    if not inst.family.members:
        return CoverSolution(chosen=(), cost=0, method="primal-dual", guarantee=Fraction(2))
    ok, wit = family_cover.is_uncrossable(inst.family)
    if not ok:
        raise PreconditionError("family is not uncrossable", witness=wit)
    if any(m & 1 for m in inst.family.members):
        inst = CoverInstance(inst.n, inst.candidates, inst.family.canonical())
    cands = inst.candidates
    members = inst.family.members
    cand_bits, member_bits = inst.crossings
    for mask, bits in zip(members, member_bits):
        if not bits:
            raise InfeasibleError("family member crossed by no candidate", witness=mask)
    everyone = (1 << len(members)) - 1
    strict_subsets = [sum(1 << i for i, b in enumerate(members) if b != m and not b & ~m)
                      for m in members]
    costs = [c.cost for c in cands]
    idents = [c.ident for c in cands]
    denom = 1
    duals: dict[int, int] = {}
    paid = [0] * len(cands)
    chosen_order: list[int] = []
    covered = 0
    while uncovered := everyone & ~covered:
        minimal = [j for j in range(len(members))
                   if (uncovered >> j) & 1 and not strict_subsets[j] & uncovered]
        minimal_bits = sum(1 << j for j in minimal)
        pos = -1
        slack_b = active_b = ident_b = 0
        growing = []
        for p, bits in enumerate(cand_bits):
            hit = bits & minimal_bits
            if not hit:
                continue
            active = hit.bit_count()
            slack = costs[p] * denom - paid[p]
            if slack < 0:
                raise InvariantError("negative slack during dual growth")
            growing.append((p, active))
            if pos < 0 or (slack * active_b, idents[p]) < (slack_b * active, ident_b):
                pos, slack_b, active_b, ident_b = p, slack, active, idents[p]
        if pos < 0:
            raise InfeasibleError("no candidate crosses an active set",
                                  witness=members[minimal[0]])
        g = math.gcd(slack_b, active_b)
        scale = active_b // g
        if scale > 1:
            denom *= scale
            paid = [x * scale for x in paid]
            duals = {j: y * scale for j, y in duals.items()}
        delta = slack_b // g
        for j in minimal:
            duals[j] = duals.get(j, 0) + delta
        for p, active in growing:
            paid[p] += delta * active
        chosen_order.append(pos)
        covered |= cand_bits[pos]
    kept = list(compress(chosen_order, _reverse_delete(
        [cand_bits[p] for p in chosen_order],
        [(cands[p].u, cands[p].v) for p in chosen_order], inst.n)))
    sol = CoverSolution(
        chosen=tuple(sorted(cands[p].ident for p in kept)),
        cost=sum(cands[p].cost for p in kept), method="primal-dual",
        guarantee=Fraction(2),
        duals=tuple(sorted((members[j], Fraction(y, denom)) for j, y in duals.items())))
    certify_primal_dual(inst, sol)
    return sol


def outcome(solve, inst: CoverInstance):
    """The solution, or the error as (type, message, witness), on a fresh
    instance (no cached bitsets)."""
    try:
        return solve(CoverInstance(inst.n, inst.candidates, inst.family))
    except NearcutError as exc:
        return type(exc), str(exc), exc.witness


def cycle_candidates(n: int, rng: random.Random) -> tuple[Candidate, ...]:
    """A spanning cycle, which crosses every cut, plus up to n random
    edges, at random costs."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[i], perm[(i + 1) % n]) for i in range(n)] + random_edges(n, rng, n)
    return tuple(Candidate(i, u, v, rng.randint(0, 9))
                 for i, (u, v) in enumerate(pairs) if u != v)


@st.composite
def small_families(draw) -> SetFamily:
    """{lam, lam+1}-cut families below the kernel size."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    fam = near_min_family(draw(st.integers(4, 9)), rng, draw(st.integers(0, 3)), 0)
    fam = variant(fam, rng, draw(st.sampled_from((0.0, 0.3))), draw(st.booleans()))
    assume(0 < len(fam) < THRESHOLD)
    return fam


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_families(), kernel_families()), st.integers(0, 2 ** 32))
def test_pd2_scan_matches_the_strict_subset_table(fam, seed):
    inst = CoverInstance(fam.n, cycle_candidates(fam.n, random.Random(seed)), fam)
    assert outcome(primal_dual_uncrossable_cover, inst) == outcome(strict_subset_pd2, inst)


def test_pd2_scan_matches_the_table_on_both_sides_of_the_kernel_size():
    rng = random.Random(33)
    sizes = []
    for n in range(5, 21):
        fam = variant(near_min_family(n, rng, rng.randint(0, 2), 0), rng, 0.3, False)
        inst = CoverInstance(n, cycle_candidates(n, rng), fam)
        got = outcome(primal_dual_uncrossable_cover, inst)
        assert got == outcome(strict_subset_pd2, inst)
        if isinstance(got, CoverSolution):
            sizes.append(len(fam))
    assert min(sizes) < THRESHOLD <= max(sizes)


def test_pd2_scan_matches_the_table_on_the_uncrossable_corpus():
    for _, inst in make_uncrossable_cover_corpus(60, 3303):
        got = outcome(primal_dual_uncrossable_cover, inst)
        assert isinstance(got, CoverSolution)
        assert got == outcome(strict_subset_pd2, inst)


def test_overlapping_minimal_members_are_an_invariant_error(monkeypatch):
    # {1, 2} and {2, 3} cross strongly, so no uncrossable family holds both
    # without their meet or differences; let the family past the check
    monkeypatch.setattr(family_cover, "is_uncrossable", lambda fam: (True, None))
    cands = (Candidate(0, 0, 1, 1), Candidate(1, 0, 3, 1))
    crossing = CoverInstance(4, cands, SetFamily(4, (0b0110, 0b1100)))
    with pytest.raises(InvariantError, match="overlap") as err:
        primal_dual_uncrossable_cover(crossing)
    assert err.value.witness == 0b1100
    # {2, 3, 4} meets the minimal {1, 2} without holding it: the family is
    # not uncrossable, and pd2 refuses it even though {2, 3, 4} holds the
    # minimal {4} as well
    fam = SetFamily(5, (0b10000, 0b00110, 0b11100))
    inst = CoverInstance(5, tuple(Candidate(v, 0, v, 1) for v in range(1, 5)), fam)
    with pytest.raises(InvariantError, match="overlap") as err:
        primal_dual_uncrossable_cover(inst)
    assert err.value.witness == 0b11100
