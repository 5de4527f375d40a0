import random
from fractions import Fraction

import pytest

import nearcut.family_cover as family_cover
from nearcut import (
    CoverInstance,
    CoverSolution,
    InfeasibleError,
    InvariantError,
    PreconditionError,
    SetFamily,
    cover_symmetric_crossing,
    covers,
    enumerate_cuts_at_most,
    exact_min_cover,
    mask_from_nodes,
    minimal_cover,
    primal_dual_uncrossable_cover,
)
from nearcut.errors import BudgetError
from nearcut.family_cover import EXACT_SLOT, PD2_SLOT, SOLVER_SLOTS
from nearcut.multigraph import edge_crosses

from conftest import c4, canonical_subsets, random_multigraph


def m(*nodes):
    return mask_from_nodes(nodes)


def c4_two_cut_family():
    return SetFamily(4, tuple(r.mask for r in enumerate_cuts_at_most(c4(), 2)))


def chord_instance(family=None):
    fam = family if family is not None else c4_two_cut_family()
    return CoverInstance.build(4, [(0, 2, 1), (1, 3, 1)], fam)


# ---------------------------------------------------------------------------
# covers


def test_covers_both_chords():
    ok, wit = covers([(0, 2), (1, 3)], c4_two_cut_family())
    assert ok and wit is None


def test_covers_single_chord_fails():
    fam = c4_two_cut_family()
    ok, wit = covers([(0, 2)], fam)
    assert not ok
    # the chord lies inside {0,1,2}, so the cut {3} is uncovered
    assert not edge_crosses(0, 2, m(3))
    uncovered = {mm for mm in fam.members
                 if not edge_crosses(0, 2, mm)}
    assert wit in uncovered and m(3) in uncovered


def test_covers_empty_family():
    assert covers([], SetFamily(4, ()))[0]


# ---------------------------------------------------------------------------
# exact solver


def test_exact_chords():
    sol = exact_min_cover(chord_instance())
    assert sol.cost == 2 and sol.chosen == (0, 1)


def test_exact_single_member_picks_cheapest():
    fam = SetFamily.from_sets(3, [[1]])
    inst = CoverInstance.build(3, [(0, 1, 5), (1, 2, 3)], fam)
    sol = exact_min_cover(inst)
    assert sol.cost == 3 and sol.chosen == (1,)


def test_exact_infeasible_witness():
    fam = SetFamily.from_sets(3, [[1]])
    inst = CoverInstance.build(3, [(0, 2, 1)], fam)
    with pytest.raises(InfeasibleError) as err:
        exact_min_cover(inst)
    assert err.value.witness == m(1)


def test_exact_budget_error(monkeypatch):
    monkeypatch.setattr(family_cover, "DEFAULT_NODE_BUDGET", 3)
    rng = random.Random(3)
    g = random_multigraph(rng, 7, extra=8)
    fam = SetFamily(7, tuple(mask_from_nodes(s) for s in canonical_subsets(7)
                             if len(s) <= 2))
    pairs = [(u, v, rng.randint(1, 9)) for u in range(7) for v in range(u + 1, 7)]
    with pytest.raises(BudgetError):
        exact_min_cover(CoverInstance.build(7, pairs, fam))


def test_exact_matches_brute_force():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(4, 6)
        size = rng.randint(1, 6)
        members = set()
        while len(members) < size:
            members.add(rng.randint(1, (1 << (n - 1)) - 1) << 1)
        fam = SetFamily(n, tuple(sorted(members)))
        pairs = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.7:
                    pairs.append((u, v, rng.randint(1, 9)))
        for mask in fam.members:
            if not any(edge_crosses(u, v, mask) for (u, v, _) in pairs):
                # canonical masks exclude node 0, so 0 -> first inside node crosses
                inside = next(w for w in range(n) if (mask >> w) & 1)
                pairs.append((0, inside, rng.randint(1, 9)))
        inst = CoverInstance.build(n, pairs, fam)
        sol = exact_min_cover(inst)
        # brute force over all candidate subsets
        best = None
        for bits in range(1 << len(pairs)):
            subset = [(pairs[i][0], pairs[i][1]) for i in range(len(pairs))
                      if (bits >> i) & 1]
            if covers(subset, fam)[0]:
                cost = sum(pairs[i][2] for i in range(len(pairs)) if (bits >> i) & 1)
                if best is None or cost < best:
                    best = cost
        assert sol.cost == best
        chosen_pairs = [(inst.candidates[i].u, inst.candidates[i].v)
                        for i in sol.chosen]
        assert covers(chosen_pairs, fam)[0]


# ---------------------------------------------------------------------------
# primal-dual


def test_pd_chords_cost_two():
    sol = primal_dual_uncrossable_cover(chord_instance())
    assert sol.cost == 2
    assert sol.guarantee == Fraction(2)


def test_pd_dual_feasibility():
    sol = primal_dual_uncrossable_cover(chord_instance())
    duals = dict(sol.duals)
    inst = chord_instance()
    for c in inst.candidates:
        load = sum(y for mask, y in duals.items() if edge_crosses(c.u, c.v, mask))
        assert load <= c.cost


def test_pd_laminar_path_instance():
    fam = SetFamily.from_sets(4, [[1], [1, 2]])
    inst = CoverInstance.build(4, [(0, 2, 1), (1, 3, 1), (0, 3, 3)], fam)
    opt = exact_min_cover(inst)
    assert opt.cost == 1  # the single edge 1-3 crosses both members
    sol = primal_dual_uncrossable_cover(inst)
    chosen_pairs = [(inst.candidates[i].u, inst.candidates[i].v) for i in sol.chosen]
    assert covers(chosen_pairs, fam)[0]
    assert sol.cost <= 2 * opt.cost


def test_pd_empty_family():
    sol = primal_dual_uncrossable_cover(CoverInstance.build(4, [(0, 1, 1)],
                                                            SetFamily(4, ())))
    assert sol.cost == 0 and sol.chosen == ()


def test_empty_family_returns_before_any_crossing_bits(monkeypatch):
    """An empty family costs nothing: pd2 and the exact cover return the
    empty cover without an uncrossable scan or crossing bits."""
    def fail(*args):
        raise AssertionError("empty family reached a crossing scan")

    monkeypatch.setattr(family_cover, "_crossing_bits", fail)
    monkeypatch.setattr(family_cover, "is_uncrossable", fail)
    for inst in (CoverInstance(18, (), SetFamily(18, ())),
                 CoverInstance.build(4, [(0, 1, 1), (2, 3, 5)], SetFamily(4, ()))):
        assert primal_dual_uncrossable_cover(inst) == \
            CoverSolution((), 0, "primal-dual", Fraction(2))
        assert exact_min_cover(inst) == CoverSolution((), 0, "exact", Fraction(1))
        assert "crossings" not in vars(inst)


def test_pd_rejects_crossing_family():
    fam = SetFamily.from_sets(4, [[0, 1], [1, 2]])
    with pytest.raises(PreconditionError) as err:
        primal_dual_uncrossable_cover(CoverInstance.build(4, [(0, 1, 1)], fam))
    assert err.value.witness is not None


def test_pd_two_approx_random():
    rng = random.Random(29)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(4, 7), extra=6)
        from nearcut import min_cut_value
        lam = min_cut_value(g)
        if lam == 0 or lam % 2:
            continue
        fam = SetFamily(g.n, tuple(r.mask for r in enumerate_cuts_at_most(g, lam + 1)))
        pairs = [(u, v, rng.randint(1, 9)) for u in range(g.n)
                 for v in range(u + 1, g.n)]
        inst = CoverInstance.build(g.n, pairs, fam)
        pd = primal_dual_uncrossable_cover(inst)
        opt = exact_min_cover(inst)
        assert pd.cost <= 2 * opt.cost


def test_pd_deterministic():
    a = primal_dual_uncrossable_cover(chord_instance())
    b = primal_dual_uncrossable_cover(chord_instance())
    assert a == b


def test_exact_deterministic():
    fam = c4_two_cut_family()
    inst = CoverInstance.build(4, [(0, 2, 2), (1, 3, 2), (0, 2, 2), (1, 3, 2)], fam)
    assert exact_min_cover(inst) == exact_min_cover(inst)


# ---------------------------------------------------------------------------
# symmetric proper crossing cover


def test_symmetric_cover_c4():
    fam = c4_two_cut_family().symmetric_closure()
    inst = CoverInstance.build(4, [(0, 2, 1), (1, 3, 1)], fam)
    sol = cover_symmetric_crossing(inst)
    assert sol.cost == 2
    assert sol.method.startswith("symmetric-crossing")


def test_symmetric_cover_empty():
    sol = cover_symmetric_crossing(CoverInstance.build(4, [(0, 1, 1)],
                                                       SetFamily(4, ())))
    assert sol.cost == 0


def test_symmetric_cover_rejects_improper():
    # symmetric and crossing-closed, but the symmetric difference of the
    # crossing pair {0,1}, {1,2} (= {0,2}) is itself a member
    sets = [[0, 1], [1, 2], [1], [0, 1, 2], [2, 3], [0, 3], [0, 2, 3], [3],
            [0, 2], [1, 3]]
    fam = SetFamily.from_sets(4, sets)
    assert not is_improper_ok(fam)
    with pytest.raises(PreconditionError):
        cover_symmetric_crossing(CoverInstance.build(4, [(0, 1, 1)], fam))


def test_symmetric_cover_asserts_the_rooted_family_uncrossable(monkeypatch):
    # the rooted family of a symmetric proper crossing family is uncrossable
    # (a theorem); a patched predicate stands in for a counterexample
    fam = c4_two_cut_family().symmetric_closure()
    inst = CoverInstance.build(4, [(0, 2, 1), (1, 3, 1)], fam)
    witness = fam.canonical().members[:2]
    monkeypatch.setattr(family_cover, "is_uncrossable", lambda f: (False, witness))
    with pytest.raises(InvariantError) as err:
        cover_symmetric_crossing(inst)
    assert err.value.witness == witness


def is_improper_ok(fam):
    from nearcut import is_symmetric_proper_crossing
    return is_symmetric_proper_crossing(fam)[0]


# ---------------------------------------------------------------------------
# minimal covers


def test_minimal_cover_drops_redundant_edge():
    fam = c4_two_cut_family()
    pruned = minimal_cover([(0, 2), (1, 3), (0, 1)], fam)
    assert pruned == [(0, 2), (1, 3)]


def test_minimal_cover_fixed_point():
    fam = c4_two_cut_family()
    pruned = minimal_cover([(0, 2), (1, 3)], fam)
    assert pruned == [(0, 2), (1, 3)]


def test_minimal_cover_requires_cover():
    with pytest.raises(PreconditionError):
        minimal_cover([(0, 2)], c4_two_cut_family())


def test_minimal_cover_rejects_edges_off_the_ground_set():
    with pytest.raises(PreconditionError) as err:
        minimal_cover([(0, 2), (1, 3), (0, 9)], c4_two_cut_family())
    assert err.value.witness == (0, 9)


def test_minimal_cover_random_forest_property():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(4, 7)
        size = rng.randint(1, min(8, (1 << (n - 1)) - 1))
        members = set()
        while len(members) < size:
            members.add(rng.randint(1, (1 << (n - 1)) - 1) << 1)
        fam = SetFamily(n, tuple(sorted(members)))
        pairs = []
        for _ in range(rng.randint(n, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                pairs.append((min(u, v), max(u, v)))
        for mask in fam.members:
            inside = next(w for w in range(n) if (mask >> w) & 1)
            outside = next(w for w in range(n) if not (mask >> w) & 1)
            pairs.append((min(inside, outside), max(inside, outside)))
        pruned = minimal_cover(pairs, fam)  # raises InvariantError on a cycle
        assert covers(pruned, fam)[0]
        # inclusion-minimality: dropping any edge uncovers something
        for i in range(len(pruned)):
            rest = pruned[:i] + pruned[i + 1:]
            assert not covers(rest, fam)[0]


@pytest.mark.parametrize("u, v, cost", [(0, 2, 1.5), (0, 2, 1.0), (0, 2, True),
                                        (0, 2, "1"), (0.0, 2, 1), (0, True, 1)])
def test_cover_instance_refuses_non_integers(u, v, cost):
    # a float cost once reached exact_min_cover (cost 1.5) and made
    # primal_dual_uncrossable_cover raise a bare TypeError
    with pytest.raises(PreconditionError, match="non-integer candidate"):
        CoverInstance.build(4, [(1, 3, 1), (u, v, cost)], c4_two_cut_family())


def test_solver_slots():
    assert SOLVER_SLOTS == {"pd2": PD2_SLOT, "exact": EXACT_SLOT}
    for family in (None, SetFamily(4, ())):
        inst = chord_instance(family)
        assert SOLVER_SLOTS["pd2"].solve(inst).guarantee == Fraction(2)
        assert SOLVER_SLOTS["exact"].solve(inst).guarantee == Fraction(1)
