"""Flexible connectivity: feasibility, blocking families, and solvers.

A subgraph H is (k, q)-flex-connected when every cut keeps k safe edges
or k + q edges in total, i.e. ``d(S) >= k + min(d_U(S), q)``.  When H is
already (k, q-1)-flex-connected, exactly the cuts with ``d(S) = k+q-1``
and ``d_U(S) >= q`` block the next level, and covering that family is
the whole step - which is what the iterative solvers do after seeding H
with a k-edge-connected spanning subgraph.

Structure drives the solver choice: the blocking family at level 1 is
laminar for odd k and uncrossable for even k; at level 2 it is
uncrossable for even k, while for odd k it splits into an uncrossable
part and a symmetric proper crossing part (see
:func:`nearcut.cut_structure.decompose_F2_odd`).  Guarantees compose
additively and every structural claim is asserted at runtime.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import (
    BudgetError,
    InfeasibleError,
    InputError,
    InvariantError,
    PreconditionError,
)
from .cut_structure import (
    SetFamily,
    decompose_F2_odd,
    is_laminar,
    is_uncrossable,
)
from .family_cover import (
    Candidate,
    CoverInstance,
    CoverSolution,
    SolverSlot,
    cover_symmetric_crossing,
    minimal_cover,
    resolve_slot,
)
from .multigraph import (
    Multigraph,
    cut_masks,
    cut_value_array,
    min_cut_value,
    subgraph,
)

logger = logging.getLogger(__name__)

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class FlexInstance:
    graph: Multigraph
    k: int
    q: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.q < 0:
            raise InputError(f"q must be >= 0, got {self.q}")

    @property
    def unit_cost(self) -> bool:
        return all(e.cost == 1 for e in self.graph.edges)


@dataclass(frozen=True)
class PhaseLog:
    name: str
    family_size: int
    solver: str
    cost: int
    guarantee: Fraction
    added: tuple[int, ...]


@dataclass(frozen=True)
class FlexSolution:
    edge_ids: tuple[int, ...]
    cost: int
    phases: tuple[PhaseLog, ...]
    guarantee: Fraction


# ---------------------------------------------------------------------------
# Feasibility


def _flex_arrays(g: Multigraph, edge_ids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    h = subgraph(g, edge_ids)
    return cut_value_array(h, "all"), cut_value_array(h, "unsafe")


def _first_bad_cut(d_arr: np.ndarray, u_arr: np.ndarray, k: int,
                   q: int) -> Optional[int]:
    """First canonical cut with d(S) < k + min(d_U(S), q), or None."""
    bad = cut_masks(d_arr < k + np.minimum(u_arr, q))
    return bad[0] if bad else None


def is_flex_connected(g: Multigraph, edge_ids: Iterable[int], k: int,
                      q: int) -> tuple[bool, Optional[int]]:
    """Per-cut check of d(S) >= k + min(d_U(S), q); witness = first bad cut."""
    if g.n < 2:
        return True, None
    wit = _first_bad_cut(*_flex_arrays(g, edge_ids), k, q)
    return (True, None) if wit is None else (False, wit)


def flex_connected_by_removal(g: Multigraph, edge_ids: Iterable[int], k: int,
                              q: int) -> bool:
    """Independent formulation: H minus any <= q unsafe edges stays
    k-edge-connected.  Kept separate from the per-cut check so the two
    can be compared against each other."""
    ids = sorted(set(edge_ids))
    h = subgraph(g, ids)
    if h.n < 2:
        return True
    unsafe_pos = [i for i, e in enumerate(h.edges) if e.unsafe]
    for r in range(0, q + 1):
        for drop in itertools.combinations(unsafe_pos, r):
            keep = [i for i in range(h.m) if i not in drop]
            if min_cut_value(subgraph(h, keep)) < k:
                return False
    return True


def enumerate_Fq(g: Multigraph, edge_ids: Iterable[int], k: int,
                 q: int) -> SetFamily:
    """Cuts blocking level q: d(S) = k+q-1 and d_U(S) >= q.

    Requires H to be (k, q-1)-flex-connected already.
    """
    if q < 1:
        raise InputError(f"blocking families are defined for q >= 1, got {q}")
    d_arr, u_arr = _flex_arrays(g, edge_ids)
    wit = _first_bad_cut(d_arr, u_arr, k, q - 1)
    if wit is not None:
        raise PreconditionError(
            f"subgraph is not (k={k}, q={q - 1})-flex-connected", witness=wit)
    fam = SetFamily(g.n, cut_masks((d_arr == k + q - 1) & (u_arr >= q)))
    logger.debug("blocking family at level %d: %d members (n^4 = %d)",
                 q, len(fam), g.n ** 4)
    return fam


# ---------------------------------------------------------------------------
# Exact minimum flex-connected subgraph (branch and bound)


@dataclass(frozen=True)
class ExactSubgraphResult:
    edge_ids: tuple[int, ...]
    cost: int
    nodes_explored: int


def minimum_flex_subgraph(g: Multigraph, k: int, q: int,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> ExactSubgraphResult:
    """Provably minimum-cost edge set whose subgraph is (k, q)-flex-connected.

    Feasibility is monotone under edge addition, so a subtree dies as
    soon as even taking every undecided edge fails.  Branching picks a
    violated cut and tries each undecided crossing edge as the first
    chosen one; the bound adds, over violated cuts with disjoint
    undecided support, the cheapest completions of their deficits.

    Edge sets are bitsets over edge positions (Python ints, so there is
    no edge-count limit).  ``cross[i]`` holds the edges crossing the
    canonical cut ``i << 1``.  Per node, one scan lists the cuts that
    the included edges violate, with their deficits; the deficit never
    grows as edges are added, so the scan only visits the parent's
    violated cuts.  That one list serves the whole node: a cut whose
    deficit exceeds its undecided crossing edges kills the subtree (the
    included edges sit inside the available ones, so a cut they satisfy
    needs no check), the cut with the fewest undecided crossing edges
    becomes the branching target, and the bound takes the ``need``
    cheapest undecided crossing edges of each cut by walking the edges
    in cost order, stopping as soon as the node is pruned.
    """
    if g.n < 2:
        return ExactSubgraphResult((), 0, 0)
    m = g.m
    # adding node v to a side toggles exactly the edges incident to v
    incident = [0] * g.n
    for pos, e in enumerate(g.edges):
        incident[e.u] |= 1 << pos
        incident[e.v] |= 1 << pos
    cross = [0]
    for v in range(1, g.n):
        inc = incident[v]
        cross += [c ^ inc for c in cross]
    unsafe_bits = sum(1 << pos for pos, e in enumerate(g.edges) if e.unsafe)
    ucross = [c & unsafe_bits for c in cross]
    costs = [e.cost for e in g.edges]
    all_bits = (1 << m) - 1

    def deficit(i: int, bits: int) -> int:
        need = k - (cross[i] & bits).bit_count()
        if q:
            need += min((ucross[i] & bits).bit_count(), q)
        return need

    def violated(cuts: Iterable[int], bits: int) -> list[tuple[int, int]]:
        """(cut, deficit) of every listed cut that ``bits`` violates."""
        if q == 0:
            return [(i, need) for i in cuts
                    if (need := k - (cross[i] & bits).bit_count()) > 0]
        return [(i, need) for i in cuts if (need := deficit(i, bits)) > 0]

    def first_violated(bits: int) -> Optional[int]:
        return next((i for i in range(1, len(cross)) if deficit(i, bits) > 0), None)

    first_bad = first_violated(all_bits)
    if first_bad is not None:
        raise InfeasibleError(
            "graph itself is not flex-connected at the requested level",
            witness=first_bad << 1)

    # deterministic greedy upper bound: strip expensive edges first
    best_bits = all_bits
    for pos in sorted(range(m), key=lambda p: (-costs[p], -p)):
        trial = best_bits & ~(1 << pos)
        if first_violated(trial) is None:
            best_bits = trial
    best_cost = sum(costs[p] for p in range(m) if (best_bits >> p) & 1)
    best = [best_cost, best_bits]
    explored = [0]

    sorted_by_cost = sorted(range(m), key=lambda p: (costs[p], p))

    def pruned(viol: list[tuple[int, int]], free: int, slack: int) -> bool:
        """Whether the lower bound on the remaining cost reaches ``slack``."""
        lb = 0
        used = 0
        for i, need in viol:
            opts = cross[i] & free
            if opts & used:
                continue
            used |= opts
            for pos in sorted_by_cost:
                if (opts >> pos) & 1:
                    lb += costs[pos]
                    need -= 1
                    if not need:
                        break
            if lb >= slack:
                return True
        return False

    def search(included: int, excluded: int, cost_now: int, cuts: Iterable[int]):
        explored[0] += 1
        if explored[0] > node_budget:
            raise BudgetError(f"exact search exceeded {node_budget} nodes")
        avail = all_bits & ~excluded
        free = avail & ~included
        viol = violated(cuts, included)
        target = None
        best_fanout = None
        for i, need in viol:
            fanout = (cross[i] & free).bit_count()
            short = need - fanout if q == 0 else deficit(i, avail)
            if short > 0:
                return
            if best_fanout is None or fanout < best_fanout:
                best_fanout, target = fanout, i
        if target is None:
            if cost_now < best[0]:
                best[0], best[1] = cost_now, included
            return
        if pruned(viol, free, best[0] - cost_now):
            return
        opts = cross[target] & free
        child_cuts = [i for i, _ in viol]
        tried = 0
        for pos in sorted_by_cost:
            if not (opts >> pos) & 1:
                continue
            search(included | (1 << pos), excluded | tried, cost_now + costs[pos],
                   child_cuts)
            tried |= 1 << pos

    search(0, 0, 0, range(1, len(cross)))
    ids = tuple(p for p in range(m) if (best[1] >> p) & 1)
    return ExactSubgraphResult(edge_ids=ids, cost=best[0], nodes_explored=explored[0])


@dataclass(frozen=True)
class KecssResult:
    edge_ids: tuple[int, ...]
    cost: int
    guarantee: Fraction
    mode: str
    nodes_explored: int


def kecss(g: Multigraph, k: int, mode: str = "approx2",
          node_budget: int = DEFAULT_NODE_BUDGET) -> KecssResult:
    """k-edge-connected spanning subgraph.

    Both modes run the exact engine at desk scale; ``approx2`` merely
    accounts for it with the conservative factor-2 guarantee so that
    downstream ratio bounds stay honest when a true 2-approximation is
    plugged in instead.
    """
    if mode not in ("exact", "approx2"):
        raise InputError(f"unknown kecss mode {mode!r}")
    res = minimum_flex_subgraph(g, k, 0, node_budget)
    guarantee = Fraction(1) if mode == "exact" else Fraction(2)
    return KecssResult(edge_ids=res.edge_ids, cost=res.cost, guarantee=guarantee,
                       mode=mode, nodes_explored=res.nodes_explored)


# ---------------------------------------------------------------------------
# Cover phases


def _candidates_outside(g: Multigraph, h_ids: set[int]) -> tuple[Candidate, ...]:
    return tuple(Candidate(i, e.u, e.v, e.cost) for i, e in enumerate(g.edges)
                 if i not in h_ids)


def _added_cost(g: Multigraph, new_ids: Iterable[int]) -> int:
    return sum(g.edges[i].cost for i in new_ids)


def _cover_with(slot: SolverSlot, g: Multigraph, h_ids: set[int],
                fam: SetFamily) -> CoverSolution:
    inst = CoverInstance(g.n, _candidates_outside(g, h_ids), fam)
    return slot.solve(inst)


def iterative_cover(inst: FlexInstance, kecss_mode: str = "approx2",
                    cover_slot: SolverSlot | str = "pd2") -> FlexSolution:
    """Seed with a k-edge-connected subgraph, then cover each blocking
    family in turn.  The cover solver falls back to the exact oracle
    when a phase family is not uncrossable."""
    g, k, q = inst.graph, inst.k, inst.q
    slot = resolve_slot(cover_slot)
    base = kecss(g, k, kecss_mode)
    h: set[int] = set(base.edge_ids)
    phases = [PhaseLog("kecss", 0, base.mode, base.cost, base.guarantee,
                       base.edge_ids)]
    for level in range(1, q + 1):
        fam = enumerate_Fq(g, h, k, level)
        if len(fam) == 0:
            phases.append(PhaseLog(f"F{level}", 0, "none", 0, slot.guarantee, ()))
            continue
        ok, _ = is_uncrossable(fam)
        use = slot if ok else resolve_slot("exact")
        sol = _cover_with(use, g, h, fam)
        new_ids = tuple(i for i in sol.chosen if i not in h)
        h.update(new_ids)
        phases.append(PhaseLog(f"F{level}", len(fam),
                               sol.method if ok else "exact-fallback",
                               _added_cost(g, new_ids), use.guarantee, new_ids))
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


def solve_k1(inst: FlexInstance, kecss_mode: str = "approx2",
             single_slot: SolverSlot | str | None = None) -> FlexSolution:
    """One cover phase after the spanning step; q must be 1.

    The blocking family is asserted laminar for odd k and uncrossable
    for even k before the cover runs.
    """
    from .family_cover import ring_cover_solver
    if inst.q != 1:
        raise InputError(f"solve_k1 needs q = 1, got q = {inst.q}")
    g, k = inst.graph, inst.k
    slot = resolve_slot(single_slot) if single_slot is not None else ring_cover_solver
    base = kecss(g, k, kecss_mode)
    h: set[int] = set(base.edge_ids)
    phases = [PhaseLog("kecss", 0, base.mode, base.cost, base.guarantee,
                       base.edge_ids)]
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
        use = resolve_slot("pd2")
    if len(fam):
        sol = _cover_with(use, g, h, fam)
        new_ids = tuple(i for i in sol.chosen if i not in h)
        h.update(new_ids)
        phases.append(PhaseLog("F1", len(fam), sol.method,
                               _added_cost(g, new_ids), use.guarantee, new_ids))
    else:
        phases.append(PhaseLog("F1", 0, "none", 0, use.guarantee, ()))
    ok, wit = is_flex_connected(g, h, k, 1)
    if not ok:
        raise InvariantError("solve_k1 produced an infeasible subgraph", witness=wit)
    ids = tuple(sorted(h))
    return FlexSolution(ids, _added_cost(g, ids), tuple(phases),
                        sum((p.guarantee for p in phases), Fraction(0)))


def solve_k2(inst: FlexInstance, kecss_mode: str = "approx2") -> FlexSolution:
    """Two cover phases; q must be 2.

    For even k both blocking families are uncrossable.  For odd k the
    level-2 family splits into an uncrossable part (primal-dual) and a
    symmetric proper crossing part (rooted cover); the two covers are
    computed against the same candidate pool and their union is added.
    """
    from .family_cover import ring_cover_solver
    if inst.q != 2:
        raise InputError(f"solve_k2 needs q = 2, got q = {inst.q}")
    g, k = inst.graph, inst.k
    pd = resolve_slot("pd2")
    base = kecss(g, k, kecss_mode)
    h: set[int] = set(base.edge_ids)
    phases = [PhaseLog("kecss", 0, base.mode, base.cost, base.guarantee,
                       base.edge_ids)]

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
        phases.append(PhaseLog("F1", len(fam1), sol.method,
                               _added_cost(g, new_ids), slot1.guarantee, new_ids))
    else:
        phases.append(PhaseLog("F1", 0, "none", 0, slot1.guarantee, ()))

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
            phases.append(PhaseLog("F2", len(fam2), sol.method,
                                   _added_cost(g, new_ids), pd.guarantee, new_ids))
        else:
            phases.append(PhaseLog("F2", 0, "none", 0, pd.guarantee, ()))
    else:
        if len(fam2) == 0:
            phases.append(PhaseLog("F2-uncrossable", 0, "none", 0, pd.guarantee, ()))
            phases.append(PhaseLog("F2-symmetric", 0, "none", 0, Fraction(2), ()))
        else:
            split = decompose_F2_odd(g, h, k)
            pool_h = set(h)
            if len(split.f_prime):
                sol_p = _cover_with(pd, g, pool_h, split.f_prime)
                new_p = tuple(i for i in sol_p.chosen if i not in h)
            else:
                sol_p, new_p = None, ()
            h.update(new_p)
            phases.append(PhaseLog("F2-uncrossable", len(split.f_prime),
                                   sol_p.method if sol_p else "none",
                                   _added_cost(g, new_p), pd.guarantee, new_p))
            if len(split.f_dprime):
                inst2 = CoverInstance(g.n, _candidates_outside(g, pool_h),
                                      split.f_dprime)
                sol_s = cover_symmetric_crossing(inst2)
                new_s = tuple(i for i in sol_s.chosen if i not in h)
            else:
                sol_s, new_s = None, ()
            h.update(new_s)
            phases.append(PhaseLog("F2-symmetric", len(split.f_dprime),
                                   sol_s.method if sol_s else "none",
                                   _added_cost(g, new_s), Fraction(2), new_s))

    ok, wit = is_flex_connected(g, h, k, 2)
    if not ok:
        raise InvariantError("solve_k2 produced an infeasible subgraph", witness=wit)
    ids = tuple(sorted(h))
    return FlexSolution(ids, _added_cost(g, ids), tuple(phases),
                        sum((p.guarantee for p in phases), Fraction(0)))


def solve_unit_cost(inst: FlexInstance, kecss_mode: str = "approx2") -> FlexSolution:
    """Unit costs: min-size spanning step, then inclusion-minimal covers.

    Each phase prunes an arbitrary feasible cover down to a forest, so
    it adds at most n-1 edges; with opt >= kn/2 that is a 2/k fraction
    of the optimum per phase, giving guarantee kecss + 2q/k.
    """
    g, k, q = inst.graph, inst.k, inst.q
    if not inst.unit_cost:
        raise InputError("solve_unit_cost requires every edge cost to be 1")
    base = kecss(g, k, kecss_mode)
    h: set[int] = set(base.edge_ids)
    phases = [PhaseLog("kecss", 0, base.mode, base.cost, base.guarantee,
                       base.edge_ids)]
    phase_guarantee = Fraction(2, k)
    for level in range(1, q + 1):
        fam = enumerate_Fq(g, h, k, level)
        if len(fam) == 0:
            phases.append(PhaseLog(f"F{level}", 0, "none", 0, phase_guarantee, ()))
            continue
        cands = _candidates_outside(g, h)
        pruned = minimal_cover(cands, fam)
        new_ids = tuple(sorted(c.ident for c in pruned))
        if len(new_ids) > g.n - 1:
            raise InvariantError(
                f"phase {level} added {len(new_ids)} edges > n - 1 = {g.n - 1}")
        h.update(new_ids)
        phases.append(PhaseLog(f"F{level}", len(fam), "minimal-cover",
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


def solve_fgc(inst: FlexInstance, kecss_mode: str = "approx2",
              unit_cost: bool = False) -> FlexSolution:
    """Dispatch: q = 0 is the spanning step alone, q = 1 and q = 2 use the
    structure-aware solvers, anything else the generic iteration."""
    if unit_cost:
        return solve_unit_cost(inst, kecss_mode)
    if inst.q == 0:
        base = kecss(inst.graph, inst.k, kecss_mode)
        phase = PhaseLog("kecss", 0, base.mode, base.cost, base.guarantee,
                         base.edge_ids)
        return FlexSolution(tuple(sorted(base.edge_ids)), base.cost, (phase,),
                            base.guarantee)
    if inst.q == 1:
        return solve_k1(inst, kecss_mode)
    if inst.q == 2:
        return solve_k2(inst, kecss_mode)
    return iterative_cover(inst, kecss_mode)
