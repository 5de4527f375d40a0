import random
from fractions import Fraction

import pytest

from nearcut import (
    AugmentInstance,
    InfeasibleError,
    InputError,
    LimitError,
    Multigraph,
    deficient_family,
    implemented_ratio_bound,
    level_family,
    mask_from_nodes,
    min_cut_value,
    near_min_cuts_cover,
)
from nearcut import augment, family_cover
from nearcut.augment import _stages
from nearcut.family_cover import EXACT_SLOT, SolverSlot
from nearcut.harness import exact_augment, make_augment_corpus

from conftest import by_capacity, c4, g_from


def m(*nodes):
    return mask_from_nodes(nodes)


def c4_chords_instance(k=4):
    edges = [(0, 1, 0, 1, 0, 1), (1, 2, 0, 1, 0, 1), (2, 3, 0, 1, 0, 1),
             (3, 0, 0, 1, 0, 1),
             (0, 2, 1, max(k - 2, 1), 0, 0), (1, 3, 1, max(k - 2, 1), 0, 0)]
    return AugmentInstance(Multigraph.from_edges(4, edges), k)


# ---------------------------------------------------------------------------
# families


def test_deficient_family_c4_k4():
    fam = deficient_family(c4(), 4)
    assert set(fam.members) == {m(1), m(2), m(3), m(1, 2), m(2, 3), m(1, 2, 3)}


def test_deficient_family_already_connected():
    g = g_from(4, [(0, 1, 0, 2), (1, 2, 0, 2), (2, 3, 0, 2), (3, 0, 0, 2)])
    assert len(deficient_family(by_capacity(g), 4)) == 0


def test_deficient_family_chord_capacity_two():
    g = g_from(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2, 0, 2)])
    fam = deficient_family(by_capacity(g), 4)
    # the capacity-2 chord lifts every cut it crosses to 4; {1} and {3} stay at 2
    assert set(fam.members) == {m(1), m(3)}


def test_level_family_c4():
    fam = level_family(c4(), 2)
    assert len(fam) == 6
    # at level 3 the only {3,4}-valued cut of the 4-cycle is the opposite
    # pair {1,3}, whose cut value is 4
    fam3 = level_family(c4(), 3)
    assert set(fam3.members) == {m(1, 3)}


def test_disconnected_base_rejected():
    edges = [(0, 1, 0, 1, 0, 1), (2, 3, 0, 1, 0, 1), (0, 2, 1, 2, 0, 0)]
    inst = AugmentInstance(Multigraph.from_edges(4, edges), 2)
    with pytest.raises(InputError):
        near_min_cuts_cover(inst)


# ---------------------------------------------------------------------------
# schedule and bound


def test_stage_plan_parities():
    assert list(_stages(2, 4)) == [(2, "pair")]
    assert list(_stages(3, 4)) == [(3, "single")]
    assert list(_stages(2, 5)) == [(2, "pair"), (4, "single")]
    assert list(_stages(3, 5)) == [(3, "single"), (4, "single")]
    assert list(_stages(3, 7)) == [(3, "single"), (4, "pair"), (6, "single")]
    assert list(_stages(4, 4)) == []


def test_implemented_ratio_bound_defaults():
    assert implemented_ratio_bound(2, 4) == 2
    assert implemented_ratio_bound(3, 4) == 2
    assert implemented_ratio_bound(3, 5) == 4
    assert implemented_ratio_bound(2, 6) == 4          # k - lam0, both even
    assert implemented_ratio_bound(2, 5) == 4          # k - lam0 + 1, mixed
    assert implemented_ratio_bound(1, 5) == 6          # k - lam0 + 2, both odd
    assert implemented_ratio_bound(3, 4, g_single=Fraction(3, 2)) == Fraction(3, 2)


@pytest.mark.parametrize("g_single", [Fraction(2), Fraction(3, 2)])
def test_implemented_ratio_bound_counts_the_stages(g_single):
    for k in range(1, 41):
        for lam0 in range(k + 3):  # lam0 >= k: no stage at all
            walked = sum((Fraction(2) if kind == "pair" else g_single
                          for _, kind in _stages(lam0, k)), Fraction(0))
            assert implemented_ratio_bound(lam0, k, g_single) == walked, (lam0, k)


def test_implemented_ratio_bound_never_walks_the_stages(monkeypatch):
    def no_walk(lam0, k):
        raise AssertionError("stages walked")
    monkeypatch.setattr(augment, "_stages", no_walk)
    big = 2 ** 62
    assert implemented_ratio_bound(1, big) == big
    assert implemented_ratio_bound(0, big, Fraction(3, 2)) == big
    assert implemented_ratio_bound(1, big + 1, Fraction(3, 2)) == big - 2 + 3
    assert implemented_ratio_bound(big, big) == 0


def test_bound_matches_parity_formula():
    for lam0 in range(1, 5):
        for k in range(lam0 + 1, lam0 + 5):
            bound = implemented_ratio_bound(lam0, k)
            if lam0 % 2 == 0 and k % 2 == 0:
                assert bound == k - lam0
            elif lam0 % 2 != k % 2:
                assert bound == k - lam0 + 1
            else:
                assert bound == k - lam0 + 2


# ---------------------------------------------------------------------------
# the algorithm


def test_cover_c4_to_four():
    inst = c4_chords_instance(4)
    res = near_min_cuts_cover(inst)
    assert res.chosen == (4, 5)
    assert res.cost == 2
    assert res.bound == 2
    final = inst.current_graph(set(res.chosen))
    assert min_cut_value(final) >= 4
    oracle = exact_augment(inst)
    assert oracle.cost == 2
    assert Fraction(res.cost, oracle.cost) <= res.bound


def test_nothing_to_do_when_lam0_at_target():
    inst = c4_chords_instance(2)
    res = near_min_cuts_cover(inst)
    assert res.chosen == () and res.cost == 0


def test_stage_costs_sum_to_total():
    rng = random.Random(41)
    for _, inst in make_augment_corpus(12, 99):
        res = near_min_cuts_cover(inst)
        assert sum(s.cost for s in res.stages) == res.cost
        assert res.bound == implemented_ratio_bound(res.lam0, inst.k)


def test_connectivity_reaches_each_stage_target():
    for _, inst in make_augment_corpus(8, 7):
        res = near_min_cuts_cover(inst)
        chosen: set = set()
        for log in res.stages:
            chosen.update(log.added)
            reach = min(log.level + (2 if log.name == "pair" else 1), inst.k)
            conn = min_cut_value(inst.current_graph(chosen))
            assert conn >= reach
        final = inst.current_graph(set(res.chosen))
        assert min_cut_value(final) >= inst.k


def test_current_graph_reads_the_certified_connectivity():
    """Each chosen candidate counts k - lam0 times in the current graph's
    cut table, so after every stage its min cut reaches the stage target
    (capped at k), and k at the end."""
    stages = 0
    for iid, inst in make_augment_corpus(40, 20260806):
        res = near_min_cuts_cover(inst)
        chosen: set = set()
        for log in res.stages:
            chosen.update(log.added)
            target = log.level + (2 if log.name == "pair" else 1)
            assert min_cut_value(inst.current_graph(chosen)) >= min(target, inst.k), iid
            stages += 1
        assert chosen == set(res.chosen)
        assert min_cut_value(inst.current_graph(chosen)) >= inst.k, iid
    assert stages


def test_current_graph_lists_a_bought_edge_k_minus_lam0_times():
    inst = c4_chords_instance(4)
    g = inst.current_graph({4})
    assert g.m == 4 + 2 and all(e.capacity == 1 for e in g.edges)
    assert [(e.u, e.v) for e in g.edges[4:]] == [(0, 2)] * 2


def test_current_graph_refuses_more_edges_than_the_limit():
    # two bought edges at k - lam0 = 10^6 would list 2,000,004 edges
    inst = c4_chords_instance(10 ** 6 + 2)
    assert inst.lam0 == 2
    with pytest.raises(LimitError, match="lists 2000004 edges, over the limit of 1000000"):
        inst.current_graph({4, 5})
    with pytest.raises(LimitError, match="lists 1000004 edges"):
        inst.current_graph({5})
    assert inst.current_graph({0, 1}).m == 4    # base ids buy nothing


def test_infeasible_instance_reports_witness():
    # base path 0-1-2, lone candidate 0-1 cannot fix the cut {2}
    edges = [(0, 1, 0, 1, 0, 1), (1, 2, 0, 1, 0, 1), (0, 1, 1, 1, 0, 0)]
    inst = AugmentInstance(Multigraph.from_edges(3, edges), 2)
    with pytest.raises(InfeasibleError) as err:
        near_min_cuts_cover(inst)
    assert err.value.witness == m(2)


# base path 0-1-2-3 (lam0 = 1), k = 3; the lone candidate 0-2 crosses
# neither {1} nor {3}, and {1} is the first of them
PATH_AUGMENT_TEXT = ("4 4 3 0\n0 1 0 1 0 1\n1 2 0 1 0 1\n2 3 0 1 0 1\n"
                     "0 2 5 2 0 0\n")


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_infeasible_stage_reports_the_oracle_witness(command, tmp_path, capsys):
    """The first stage's first uncrossed member is {3}, but the staged
    cover names the first deficient cut no candidate crosses, as the
    oracle does."""
    from nearcut.cli import main

    path = tmp_path / "path.txt"
    path.write_text(PATH_AUGMENT_TEXT)
    assert main([command, "augment", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: family member crossed by no candidate "
                            "(witness cut nodes [1])\n")


def test_validation_errors():
    # non-unit base capacity
    edges = [(0, 1, 0, 2, 0, 1), (1, 2, 0, 1, 0, 1), (0, 2, 1, 1, 0, 0)]
    inst = AugmentInstance(Multigraph.from_edges(3, edges), 2)
    with pytest.raises(InputError):
        near_min_cuts_cover(inst)
    # candidate capacity below k - lam0
    edges = [(0, 1, 0, 1, 0, 1), (1, 2, 0, 1, 0, 1), (2, 0, 0, 1, 0, 1),
             (0, 2, 1, 1, 0, 0)]
    inst = AugmentInstance(Multigraph.from_edges(3, edges), 4)
    with pytest.raises(InputError):
        near_min_cuts_cover(inst)
    with pytest.raises(InputError):
        AugmentInstance(c4(), 2)  # no base edges at all


# ---------------------------------------------------------------------------
# oracle


def test_single_level_solver_slot_changes_bound(monkeypatch):
    edges = [(0, 1, 0, 1, 0, 1), (1, 2, 0, 1, 0, 1),
             (0, 2, 5, 1, 0, 0), (0, 1, 2, 1, 0, 0), (1, 2, 3, 1, 0, 0)]
    inst = AugmentInstance(Multigraph.from_edges(3, edges), 2)
    pd = near_min_cuts_cover(inst)
    monkeypatch.setattr(family_cover, "ring_cover_solver", EXACT_SLOT)
    ex = near_min_cuts_cover(inst)
    assert pd.bound == Fraction(2) and ex.bound == Fraction(1)
    assert ex.cost <= pd.cost
    assert exact_augment(inst).cost == ex.cost


def test_exact_augment_examples():
    inst = c4_chords_instance(4)
    assert exact_augment(inst).cost == 2
    assert exact_augment(c4_chords_instance(2)).cost == 0
    edges = [(0, 1, 0, 1, 0, 1), (0, 1, 7, 1, 0, 0)]
    inst = AugmentInstance(Multigraph.from_edges(2, edges), 2)
    sol = exact_augment(inst)
    assert sol.chosen == (1,) and sol.cost == 7


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
def test_target_must_be_an_integer(k):
    with pytest.raises(InputError, match="target connectivity must be an integer"):
        AugmentInstance(c4_chords_instance().graph, k)


def test_stage_error_stands_when_no_deficient_cut_is_stranded(monkeypatch):
    """When every deficient cut has a crossing candidate, a stage's
    InfeasibleError is not the oracle's answer: it is re-raised unchanged."""
    inst = next(inst for _iid, inst in make_augment_corpus(24, 20261020)
                if any(kind == "pair" for _, kind in _stages(inst.lam0, inst.k)))
    err = InfeasibleError("synthetic refusal", witness=6)

    def refuse(ci):
        raise err

    monkeypatch.setattr(augment, "PD2_SLOT", SolverSlot("pd2", refuse))
    with pytest.raises(InfeasibleError) as info:
        near_min_cuts_cover(inst)
    assert info.value is err
