"""Solver outputs on random feasible instances: feasible, and within the
guarantee each solver logs.

Feasibility is checked without the solvers' own per-cut test: a flex
solution by removing every set of at most q unsafe edges
(``flex_connected_by_removal``), an augmentation by counting the edges
of base plus chosen across every subset of nodes, each chosen candidate
at capacity k - lam0.  Costs are held against the branch-and-bound
optimum times the logged guarantee, in exact ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nearcut import (
    AugmentInstance,
    EdgeRecord,
    FlexInstance,
    Multigraph,
    exact_augment,
    exact_fgc,
    flex_connected_by_removal,
    near_min_cuts_cover,
    solve_fgc,
)

from conftest import canonical_subsets


def cycle(order) -> list[tuple[int, int]]:
    n = len(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


def pairs(n: int, max_size: int):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    return st.lists(pair, max_size=max_size)


@st.composite
def flex_instances(draw, unit: bool, qs=st.integers(0, 2)) -> FlexInstance:
    """n = 3..7, k = 1..3, q from ``qs``: ceil((k + q) / 2) random spanning
    cycles (so every cut holds k + q edges and the instance is feasible)
    plus up to three random edges, with random unsafe flags and costs
    1..9 (all 1 when ``unit``).  At q = 3 that is at most 24 edges, within
    the oracle's limit."""
    n = draw(st.integers(3, 7))
    k = draw(st.integers(1, 3))
    q = draw(qs)
    ends = []
    for _ in range((k + q + 1) // 2):
        ends += cycle(draw(st.permutations(range(n))))
    ends += draw(pairs(n, 3))
    cost = st.just(1) if unit else st.integers(1, 9)
    edges = tuple(EdgeRecord(u, v, draw(cost), 1, draw(st.booleans()), False)
                  for u, v in ends)
    return FlexInstance(Multigraph(n, edges), k, q)


@st.composite
def augment_instances(draw) -> AugmentInstance:
    """A base of connectivity lam0 = 1..4 (tree, cycle, cycle doubled but
    for one edge, doubled cycle) on n = 3..7 nodes, k = lam0 + 1..lam0 + 4,
    so all four parities of (lam0, k), and candidates of cost 1..9 and
    capacity k - lam0 or one more: a spanning cycle (so the instance is
    feasible) and up to six random edges."""
    n = draw(st.integers(3, 7))
    lam0 = draw(st.integers(1, 4))
    k = lam0 + draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    if lam0 == 1:
        base = [(order[v], order[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    else:
        ring = cycle(order)
        base = {2: ring, 3: ring + ring[1:], 4: ring + ring}[lam0]
    cands = cycle(draw(st.permutations(range(n)))) + draw(pairs(n, 6))
    edges = [EdgeRecord(u, v, 0, 1, False, True) for u, v in base]
    edges += [EdgeRecord(u, v, draw(st.integers(1, 9)), k - lam0 + draw(st.integers(0, 1)),
                         False, False) for u, v in cands]
    return AugmentInstance(Multigraph(n, tuple(edges)), k)


def assert_flex_solution(inst: FlexInstance, unit: bool):
    g, k, q = inst.graph, inst.k, inst.q
    sol = solve_fgc(inst, unit_cost=unit)
    assert flex_connected_by_removal(g, sol.edge_ids, k, q), (g, k, q)
    assert sol.cost == sum(g.edges[i].cost for i in sol.edge_ids)
    assert sol.guarantee == sum((p.guarantee for p in sol.phases), Fraction(0))
    opt = exact_fgc(inst).cost
    assert Fraction(sol.cost) <= sol.guarantee * opt, (g, k, q, sol, opt)


@settings(max_examples=200, deadline=None)
@given(flex_instances(unit=False))
def test_property_weighted_fgc_is_feasible_within_its_guarantee(inst):
    assert_flex_solution(inst, unit=False)


@settings(max_examples=100, deadline=None)
@given(flex_instances(unit=True))
def test_property_unit_cost_fgc_is_feasible_within_its_guarantee(inst):
    assert_flex_solution(inst, unit=True)


# q = 3 takes the generic plan (pd2, or the exact fallback on a family
# that is not uncrossable); its exact optimum costs more, so fewer examples.
@settings(max_examples=80, deadline=None)
@given(flex_instances(unit=False, qs=st.just(3)))
def test_property_weighted_fgc_at_q3_is_feasible_within_its_guarantee(inst):
    assert_flex_solution(inst, unit=False)


@settings(max_examples=50, deadline=None)
@given(flex_instances(unit=True, qs=st.just(3)))
def test_property_unit_cost_fgc_at_q3_is_feasible_within_its_guarantee(inst):
    assert_flex_solution(inst, unit=True)


@settings(max_examples=200, deadline=None)
@given(augment_instances())
def test_property_augmentation_is_feasible_within_its_guarantee(inst):
    g, k = inst.graph, inst.k
    res = near_min_cuts_cover(inst)
    gap = k - inst.lam0
    chosen = set(res.chosen)
    assert all(not g.edges[i].base for i in chosen)
    for side in canonical_subsets(g.n):
        value = sum(1 if e.base else gap for i, e in enumerate(g.edges)
                    if (e.base or i in chosen) and (e.u in side) != (e.v in side))
        assert value >= k, (g, k, sorted(side))
    assert res.cost == sum(g.edges[i].cost for i in chosen)
    assert res.bound == sum((s.guarantee for s in res.stages), Fraction(0))
    opt = exact_augment(inst).cost
    assert Fraction(res.cost) <= res.bound * opt, (g, k, res, opt)
