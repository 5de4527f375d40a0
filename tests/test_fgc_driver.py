"""The FGC entry point against the four solver loops it replaced.

``iterative_cover``, ``solve_k1``, ``solve_k2``, ``solve_unit_cost`` and
``solve_fgc`` once each ran their own copy of the seed / enumerate /
check / cover / re-check loop.  ``solve_fgc`` is now the only entry
point, and one structure table picks the handler of each level.  The
first versions are copied here verbatim (only the names carry a
``reference_`` prefix, and a guarantee is read from the solution or,
for an empty family, from what the slot's solver reports on it, since
slots no longer state one; they take no kecss mode, since the spanning
step has one; and the dispatch picks the unit-cost solver whenever every
edge costs 1, as the structure table does) and every solution, each phase log included,
must equal theirs; so must the error and witness of a phase that fails
to clear its family.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from typing import Iterable

import pytest

import nearcut.family_cover as family_cover
import nearcut.fgc as fgc
from nearcut import (
    CoverInstance,
    CoverSolution,
    EdgeRecord,
    FlexInstance,
    InputError,
    InvariantError,
    Multigraph,
    PreconditionError,
    SetFamily,
    SolverSlot,
    cover_symmetric_crossing,
    decompose_F2_odd,
    enumerate_Fq,
    is_flex_connected,
    is_laminar,
    is_uncrossable,
    kecss,
    minimal_cover,
    solve_fgc,
)
from nearcut.family_cover import SOLVER_SLOTS, Candidate
from nearcut.fgc import FlexSolution, PhaseLog


# ---------------------------------------------------------------------------
# References (verbatim bodies)


def _candidates_outside(g: Multigraph, h_ids: set[int]) -> tuple[Candidate, ...]:
    return tuple(Candidate(i, e.u, e.v, e.cost) for i, e in enumerate(g.edges)
                 if i not in h_ids)


def _added_cost(g: Multigraph, new_ids: Iterable[int]) -> int:
    return sum(g.edges[i].cost for i in new_ids)


def _cover_with(slot: SolverSlot, g: Multigraph, h_ids: set[int],
                fam: SetFamily) -> CoverSolution:
    inst = CoverInstance(g.n, _candidates_outside(g, h_ids), fam)
    return slot.solve(inst)


def _reported(slot: SolverSlot, g: Multigraph, fam: SetFamily) -> Fraction:
    """The guarantee ``slot`` reports for an empty family."""
    return slot.solve(CoverInstance(g.n, (), fam)).guarantee


def reference_iterative_cover(inst: FlexInstance,
                              cover_slot: str = "pd2") -> FlexSolution:
    """Seed with a k-edge-connected subgraph, then cover each blocking
    family in turn.  The cover solver falls back to the exact oracle
    when a phase family is not uncrossable."""
    g, k, q = inst.graph, inst.k, inst.q
    slot = SOLVER_SLOTS[cover_slot]
    base = kecss(g, k)
    h: set[int] = set(base.added)
    phases = [PhaseLog(0, "kecss", 0, base.solver, base.cost, base.guarantee,
                       base.added)]
    for level in range(1, q + 1):
        fam = enumerate_Fq(g, h, k, level)
        if len(fam) == 0:
            phases.append(PhaseLog(level, f"F{level}", 0, "none", 0,
                                   _reported(slot, g, fam), ()))
            continue
        ok, _ = is_uncrossable(fam)
        use = slot if ok else SOLVER_SLOTS["exact"]
        sol = _cover_with(use, g, h, fam)
        new_ids = tuple(i for i in sol.chosen if i not in h)
        h.update(new_ids)
        phases.append(PhaseLog(level, f"F{level}", len(fam),
                               sol.method if ok else "exact-fallback",
                               _added_cost(g, new_ids), sol.guarantee, new_ids))
        left = enumerate_Fq(g, h, k, level)
        if len(left):
            raise InvariantError(f"phase {level} did not clear its blocking family",
                                 witness=left.members[0])
    ok, wit = is_flex_connected(g, h, k, q)
    if not ok:
        raise InvariantError("iterative cover finished infeasible", witness=wit)
    ids = tuple(sorted(h))
    return FlexSolution(edge_ids=ids, cost=_added_cost(g, ids), phases=tuple(phases),
                        guarantee=sum((p.guarantee for p in phases), Fraction(0)))


def reference_solve_k1(inst: FlexInstance,
                       single_slot: SolverSlot | None = None) -> FlexSolution:
    """One cover phase after the spanning step; q must be 1.

    The blocking family is asserted laminar for odd k and uncrossable
    for even k before the cover runs.
    """
    from nearcut.family_cover import ring_cover_solver
    if inst.q != 1:
        raise InputError(f"solve_k1 needs q = 1, got q = {inst.q}")
    g, k = inst.graph, inst.k
    slot = single_slot if single_slot is not None else ring_cover_solver
    base = kecss(g, k)
    h: set[int] = set(base.added)
    phases = [PhaseLog(0, "kecss", 0, base.solver, base.cost, base.guarantee,
                       base.added)]
    fam = enumerate_Fq(g, h, k, 1)
    if k % 2 == 1:
        ok, wit = is_laminar(fam)
        if not ok:
            raise InvariantError("level-1 family is not laminar for odd k",
                                 witness=wit)
        use = slot
    else:
        ok, wit = is_uncrossable(fam)
        if not ok:
            raise InvariantError("level-1 family is not uncrossable for even k",
                                 witness=wit)
        use = SOLVER_SLOTS["pd2"]
    if len(fam):
        sol = _cover_with(use, g, h, fam)
        new_ids = tuple(i for i in sol.chosen if i not in h)
        h.update(new_ids)
        phases.append(PhaseLog(1, "F1", len(fam), sol.method,
                               _added_cost(g, new_ids), sol.guarantee, new_ids))
    else:
        phases.append(PhaseLog(1, "F1", 0, "none", 0, _reported(use, g, fam), ()))
    ok, wit = is_flex_connected(g, h, k, 1)
    if not ok:
        raise InvariantError("solve_k1 produced an infeasible subgraph", witness=wit)
    ids = tuple(sorted(h))
    return FlexSolution(ids, _added_cost(g, ids), tuple(phases),
                        sum((p.guarantee for p in phases), Fraction(0)))


def reference_solve_k2(inst: FlexInstance) -> FlexSolution:
    """Two cover phases; q must be 2.

    For even k both blocking families are uncrossable.  For odd k the
    level-2 family splits into an uncrossable part (primal-dual) and a
    symmetric proper crossing part (rooted cover); the two covers are
    computed against the same candidate pool and their union is added.
    """
    from nearcut.family_cover import ring_cover_solver
    if inst.q != 2:
        raise InputError(f"solve_k2 needs q = 2, got q = {inst.q}")
    g, k = inst.graph, inst.k
    pd = SOLVER_SLOTS["pd2"]
    base = kecss(g, k)
    h: set[int] = set(base.added)
    phases = [PhaseLog(0, "kecss", 0, base.solver, base.cost, base.guarantee,
                       base.added)]

    fam1 = enumerate_Fq(g, h, k, 1)
    slot1 = ring_cover_solver if k % 2 == 1 else pd
    if k % 2 == 1:
        ok, wit = is_laminar(fam1)
        if not ok:
            raise InvariantError("level-1 family is not laminar for odd k", witness=wit)
    else:
        ok, wit = is_uncrossable(fam1)
        if not ok:
            raise InvariantError("level-1 family is not uncrossable for even k",
                                 witness=wit)
    if len(fam1):
        sol = _cover_with(slot1, g, h, fam1)
        new_ids = tuple(i for i in sol.chosen if i not in h)
        h.update(new_ids)
        phases.append(PhaseLog(1, "F1", len(fam1), sol.method,
                               _added_cost(g, new_ids), sol.guarantee, new_ids))
    else:
        phases.append(PhaseLog(1, "F1", 0, "none", 0, _reported(slot1, g, fam1), ()))

    ok, wit = is_flex_connected(g, h, k, 1)
    if not ok:
        raise InvariantError("subgraph not (k,1)-flex-connected after level 1",
                             witness=wit)

    fam2 = enumerate_Fq(g, h, k, 2)
    if k % 2 == 0:
        ok, wit = is_uncrossable(fam2)
        if not ok:
            raise InvariantError("level-2 family is not uncrossable for even k",
                                 witness=wit)
        if len(fam2):
            sol = _cover_with(pd, g, h, fam2)
            new_ids = tuple(i for i in sol.chosen if i not in h)
            h.update(new_ids)
            phases.append(PhaseLog(2, "F2", len(fam2), sol.method,
                                   _added_cost(g, new_ids), sol.guarantee, new_ids))
        else:
            phases.append(PhaseLog(2, "F2", 0, "none", 0, _reported(pd, g, fam2), ()))
    else:
        if len(fam2) == 0:
            phases.append(PhaseLog(2, "F2-uncrossable", 0, "none", 0,
                                   _reported(pd, g, fam2), ()))
            phases.append(PhaseLog(2, "F2-symmetric", 0, "none", 0, Fraction(2), ()))
        else:
            split = decompose_F2_odd(g, h, k)
            pool_h = set(h)
            if len(split.f_prime):
                sol_p = _cover_with(pd, g, pool_h, split.f_prime)
                new_p = tuple(i for i in sol_p.chosen if i not in h)
                guarantee_p = sol_p.guarantee
            else:
                sol_p, new_p = None, ()
                guarantee_p = _reported(pd, g, split.f_prime)
            h.update(new_p)
            phases.append(PhaseLog(2, "F2-uncrossable", len(split.f_prime),
                                   sol_p.method if sol_p else "none",
                                   _added_cost(g, new_p), guarantee_p, new_p))
            if len(split.f_dprime):
                inst2 = CoverInstance(g.n, _candidates_outside(g, pool_h),
                                      split.f_dprime)
                sol_s = cover_symmetric_crossing(inst2)
                new_s = tuple(i for i in sol_s.chosen if i not in h)
            else:
                sol_s, new_s = None, ()
            h.update(new_s)
            phases.append(PhaseLog(2, "F2-symmetric", len(split.f_dprime),
                                   sol_s.method if sol_s else "none",
                                   _added_cost(g, new_s), Fraction(2), new_s))

    ok, wit = is_flex_connected(g, h, k, 2)
    if not ok:
        raise InvariantError("solve_k2 produced an infeasible subgraph", witness=wit)
    ids = tuple(sorted(h))
    return FlexSolution(ids, _added_cost(g, ids), tuple(phases),
                        sum((p.guarantee for p in phases), Fraction(0)))


def reference_solve_unit_cost(inst: FlexInstance) -> FlexSolution:
    """Unit costs: min-size spanning step, then inclusion-minimal covers.

    Each phase prunes an arbitrary feasible cover down to a forest, so
    it adds at most n-1 edges; with opt >= kn/2 that is a 2/k fraction
    of the optimum per phase, giving guarantee kecss + 2q/k.
    """
    g, k, q = inst.graph, inst.k, inst.q
    if not inst.unit_cost:
        raise InputError("solve_unit_cost requires every edge cost to be 1")
    base = kecss(g, k)
    h: set[int] = set(base.added)
    phases = [PhaseLog(0, "kecss", 0, base.solver, base.cost, base.guarantee,
                       base.added)]
    phase_guarantee = Fraction(2, k)
    for level in range(1, q + 1):
        fam = enumerate_Fq(g, h, k, level)
        if len(fam) == 0:
            phases.append(PhaseLog(level, f"F{level}", 0, "none", 0, phase_guarantee, ()))
            continue
        cands = _candidates_outside(g, h)
        pruned = minimal_cover(cands, fam)
        new_ids = tuple(sorted(c.ident for c in pruned))
        if len(new_ids) > g.n - 1:
            raise InvariantError(
                f"phase {level} added {len(new_ids)} edges > n - 1 = {g.n - 1}")
        h.update(new_ids)
        phases.append(PhaseLog(level, f"F{level}", len(fam), "minimal-cover",
                               len(new_ids), phase_guarantee, new_ids))
        left = enumerate_Fq(g, h, k, level)
        if len(left):
            raise InvariantError(f"phase {level} did not clear its blocking family",
                                 witness=left.members[0])
    ok, wit = is_flex_connected(g, h, k, q)
    if not ok:
        raise InvariantError("unit-cost solve produced an infeasible subgraph",
                             witness=wit)
    ids = tuple(sorted(h))
    return FlexSolution(ids, len(ids), tuple(phases),
                        base.guarantee + Fraction(2 * q, k))


def reference_solve_fgc(inst: FlexInstance, unit_cost: bool = False) -> FlexSolution:
    """Dispatch: q = 0 is the spanning step alone, q = 1 and q = 2 use the
    structure-aware solvers, anything else the generic iteration."""
    if unit_cost or inst.unit_cost:
        return reference_solve_unit_cost(inst)
    if inst.q == 0:
        base = kecss(inst.graph, inst.k)
        phase = PhaseLog(0, "kecss", 0, base.solver, base.cost, base.guarantee,
                         base.added)
        return FlexSolution(tuple(sorted(base.added)), base.cost, (phase,),
                            base.guarantee)
    if inst.q == 1:
        return reference_solve_k1(inst)
    if inst.q == 2:
        return reference_solve_k2(inst)
    return reference_iterative_cover(inst)


# ---------------------------------------------------------------------------
# Seeded corpus: k 1..4 x q 0..3 x n 5..7, weighted and unit cost


def random_cycle(rng: random.Random, n: int) -> list[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


def flex_graph(rng: random.Random, n: int, k: int, q: int, unit: bool) -> Multigraph:
    """(k + q + 1) // 2 random spanning cycles plus up to three extra edges,
    so the graph itself is (k, q)-flex-connected."""
    pairs = []
    for _ in range((k + q + 1) // 2):
        pairs += random_cycle(rng, n)
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2)
        pairs.append((u, v))
    return Multigraph(n, tuple(
        EdgeRecord(u, v, 1 if unit else rng.randint(1, 9), 1, rng.random() < 0.35)
        for u, v in pairs))


CELLS = [(k, q, n, unit) for k in (1, 2, 3, 4) for q in (0, 1, 2, 3)
         for n in (5, 6, 7) for unit in (False, True)]


def outcome(solve, *args, **kwargs):
    """The solution, or the error type, message-free, with its witness."""
    try:
        return solve(*args, **kwargs)
    except InvariantError as exc:
        return ("InvariantError", exc.witness)


def solver_pairs(unit: bool):
    """(name, new solver, reference solver, kwargs) for every cost model
    that accepts the instance."""
    pairs = [("solve_fgc", solve_fgc, reference_solve_fgc, {})]
    if unit:
        pairs.append(("solve_fgc unit", solve_fgc, reference_solve_fgc,
                      {"unit_cost": True}))
    return pairs


@pytest.fixture
def memo_search(monkeypatch):
    """One kecss search per graph, shared by the driver and the references:
    the seed step is not what differs between them, and
    its branch and bound has its own reference test in
    ``test_flex_bnb.py``."""
    memo = {}
    search = fgc.minimum_flex_subgraph

    def cached(g, k, q):
        if (g, k, q) not in memo:
            memo[g, k, q] = search(g, k, q)
        return memo[g, k, q]
    monkeypatch.setattr(fgc, "minimum_flex_subgraph", cached)


def test_driver_matches_reference_on_seeded_corpus(memo_search):
    rng = random.Random(4101)
    compared = set()
    for k, q, n, unit in CELLS:
        inst = FlexInstance(flex_graph(rng, n, k, q, unit), k, q)
        for name, new, ref, kwargs in solver_pairs(unit):
            got = outcome(new, inst, **kwargs)
            assert isinstance(got, FlexSolution), (name, k, q, n, unit)
            assert got == outcome(ref, inst, **kwargs), (name, k, q, n, unit)
            compared.add((name, q))
    # both cost models ran at every level count
    assert len(compared) == 2 * 4


def test_phase_logs_follow_the_structure_table():
    rng = random.Random(4102)
    names = {}
    for k, q, n, unit in CELLS:
        if unit or q == 0:
            continue
        sol = solve_fgc(FlexInstance(flex_graph(rng, n, k, q, unit), k, q))
        names[k % 2, min(q, 3)] = [p.name for p in sol.phases]
    assert names[0, 2] == ["kecss", "F1", "F2"]
    assert names[1, 2] == ["kecss", "F1", "F2-uncrossable", "F2-symmetric"]
    assert names[0, 3] == names[1, 3] == ["kecss", "F1", "F2", "F3"]


# ---------------------------------------------------------------------------
# Forced fallback and uncleared families


def nonempty_level1_instance(q: int) -> FlexInstance:
    """A weighted instance whose level-1 family is not empty after kecss."""
    rng = random.Random(4103)
    while True:
        g = flex_graph(rng, 6, 2, q, False)
        h = kecss(g, 2).added
        if len(enumerate_Fq(g, h, 2, 1)):
            return FlexInstance(g, 2, q)


def test_forced_fallback_labels_exact(monkeypatch):
    inst = nonempty_level1_instance(3)
    never = lambda fam: (False, None)  # noqa: E731
    monkeypatch.setattr(fgc, "is_uncrossable", never)
    monkeypatch.setattr(sys.modules[__name__], "is_uncrossable", never)
    sol = solve_fgc(inst)
    assert sol.phases[1].name == "F1"
    assert sol.phases[1].solver == "exact-fallback"
    assert sol.phases[1].guarantee == Fraction(1)
    assert sol == reference_solve_fgc(inst)


def test_ring_slot_is_read_at_call_time(monkeypatch):
    rng = random.Random(4104)
    while True:
        g = flex_graph(rng, 6, 1, 1, False)
        if len(enumerate_Fq(g, kecss(g, 1).added, 1, 1)):
            break
    inst = FlexInstance(g, 1, 1)
    def three_halves(ci: CoverInstance) -> CoverSolution:
        sol = family_cover.exact_min_cover(ci)
        return CoverSolution(sol.chosen, sol.cost, sol.method, Fraction(3, 2))
    plugged = SolverSlot("ring", three_halves)
    monkeypatch.setattr(family_cover, "ring_cover_solver", plugged)
    sol = solve_fgc(inst)
    assert sol.phases[1].guarantee == Fraction(3, 2)
    assert sol == reference_solve_fgc(inst)


@pytest.mark.parametrize("q", [1, 2, 3], ids=lambda q: f"solve_fgc-{q}")
def test_uncleared_family_reports_its_first_member(monkeypatch, q):
    inst = nonempty_level1_instance(q)
    h = kecss(inst.graph, inst.k).added
    first = enumerate_Fq(inst.graph, h, inst.k, 1).members[0]
    idle = SolverSlot("pd2", lambda ci: CoverSolution((), 0, "idle", Fraction(2)))
    monkeypatch.setattr(fgc, "PD2_SLOT", idle)
    monkeypatch.setitem(family_cover.SOLVER_SLOTS, "pd2", idle)
    with pytest.raises(InvariantError) as err:
        solve_fgc(inst)
    assert err.value.witness == first
    with pytest.raises(InvariantError) as ref_err:
        reference_solve_fgc(inst)
    assert ref_err.value.witness == first


def test_seed_that_is_not_k_connected_raises_like_the_reference(monkeypatch):
    insts = [nonempty_level1_instance(q) for q in (2, 3)]
    empty = PhaseLog(0, "kecss", 0, "approx2", 0, Fraction(2), ())
    monkeypatch.setattr(fgc, "kecss", lambda g, k: empty)
    monkeypatch.setattr(sys.modules[__name__], "kecss", fgc.kecss)
    for inst in insts:
        # the seed is phase 0: its leftover cut is an uncleared family
        # member, where the reference let enumerate_Fq's error through
        with pytest.raises(InvariantError,
                           match="phase 0 did not clear its blocking family") as err:
            solve_fgc(inst)
        with pytest.raises(PreconditionError) as ref_err:
            reference_solve_fgc(inst)
        assert err.value.witness == ref_err.value.witness is not None


def test_weighted_unit_cost_solve_is_refused_like_the_reference():
    inst = nonempty_level1_instance(2)
    with pytest.raises(InputError) as err:
        solve_fgc(inst, unit_cost=True)
    with pytest.raises(InputError):
        reference_solve_fgc(inst, unit_cost=True)
    # the message names the keyword; the reference named its own function,
    # which no longer exists
    assert str(err.value) == "unit_cost requires every edge cost to be 1"
