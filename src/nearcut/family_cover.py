"""Min-cost covering of explicit set families by candidate edges.

An edge covers a set when exactly one endpoint lies inside it.  Three
solvers share the :class:`CoverInstance` surface:

* :func:`exact_min_cover` - branch-and-bound oracle, provably optimal,
  used as the denominator of every measured ratio;
* :func:`primal_dual_uncrossable_cover` - the classic 2-approximation
  for uncrossable families (uniform dual growth on inclusion-minimal
  violated members, tight-edge additions, reverse delete);
* :func:`cover_symmetric_crossing` - covers a symmetric proper crossing
  family by rooting it away from node 0 and handing the rooted family,
  which is then uncrossable, to the primal-dual solver.

Families are explicit member lists, so "minimal violated members" is a
direct scan and every precondition is checkable at runtime.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import BudgetError, InfeasibleError, InvariantError, PreconditionError
from .cut_structure import SetFamily, is_symmetric_proper_crossing, is_uncrossable
from .multigraph import DisjointSets, edge_crosses

logger = logging.getLogger(__name__)

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class Candidate:
    """A purchasable edge: stable identifier, endpoints, non-negative cost."""

    ident: int
    u: int
    v: int
    cost: int


@dataclass(frozen=True)
class CoverInstance:
    n: int
    candidates: tuple[Candidate, ...]
    family: SetFamily

    def __post_init__(self):
        if self.family.n != self.n:
            raise PreconditionError("family ground set does not match instance")
        for c in self.candidates:
            if not (0 <= c.u < self.n and 0 <= c.v < self.n) or c.u == c.v:
                raise PreconditionError(f"bad candidate endpoints: {c}")
            if c.cost < 0:
                raise PreconditionError(f"negative candidate cost: {c}")
        idents = [c.ident for c in self.candidates]
        if len(set(idents)) != len(idents):
            raise PreconditionError("candidate identifiers must be unique")

    @classmethod
    def build(cls, n: int, pairs: Iterable, family: SetFamily) -> "CoverInstance":
        """Candidates from (u, v, cost) triples; idents are positions."""
        cands = tuple(Candidate(i, u, v, cost) for i, (u, v, cost) in enumerate(pairs))
        return cls(n, cands, family)


@dataclass(frozen=True)
class CoverSolution:
    chosen: tuple[int, ...]          # candidate idents, ascending
    cost: int
    method: str
    guarantee: Fraction
    duals: tuple[tuple[int, Fraction], ...] = ()
    nodes_explored: int = 0


def _crossing_candidates(cands: Sequence[Candidate], mask: int) -> list[int]:
    return [i for i, c in enumerate(cands) if edge_crosses(c.u, c.v, mask)]


def covers(candidates: Iterable, family: SetFamily) -> tuple[bool, Optional[int]]:
    """Does every member have a crossing edge?  Witness = first uncovered mask.

    Accepts Candidate objects or plain (u, v[, ...]) tuples.
    """
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


# ---------------------------------------------------------------------------
# Exact branch-and-bound


def exact_min_cover(inst: CoverInstance,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> CoverSolution:
    """Provably optimal cover via element branching.

    Branches on the first uncovered member: some crossing candidate must
    be chosen, and the subtrees are disjoint by excluding earlier-tried
    candidates.  The lower bound sums, over greedily chosen members with
    disjoint candidate sets, the cheapest crossing candidate.  Candidate
    exploration order is fixed, so equal-cost optima resolve
    deterministically.
    """
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
    if not members:
        return CoverSolution(chosen=(), cost=0, method="exact", guarantee=Fraction(1))

    costs = [c.cost for c in cands]
    all_bits = (1 << len(cands)) - 1

    def greedy_upper() -> tuple[int, int]:
        chosen = 0
        uncovered = list(range(len(members)))
        while uncovered:
            best_pos, best_gain = -1, (-1, 0, 0)
            for pos in range(len(cands)):
                if (chosen >> pos) & 1:
                    continue
                gain = sum(1 for mi in uncovered if (cross[mi] >> pos) & 1)
                if gain == 0:
                    continue
                key = (gain, -costs[pos], -pos)
                if key > best_gain:
                    best_gain, best_pos = key, pos
            chosen |= 1 << best_pos
            uncovered = [mi for mi in uncovered if not (cross[mi] >> best_pos) & 1]
        # prune to a minimal cover, most expensive first
        for pos in sorted(range(len(cands)), key=lambda p: (-costs[p], -p)):
            if not (chosen >> pos) & 1:
                continue
            trial = chosen & ~(1 << pos)
            if all(cross[mi] & trial for mi in range(len(members))):
                chosen = trial
        return chosen, sum(costs[p] for p in range(len(cands)) if (chosen >> p) & 1)

    best_bits, best_cost = greedy_upper()
    explored = 0
    sorted_by_cost = sorted(range(len(cands)), key=lambda p: (costs[p], p))

    def lower_bound(chosen: int, avail: int) -> int:
        used = 0
        lb = 0
        for mi in range(len(members)):
            if cross[mi] & chosen:
                continue
            opts = cross[mi] & avail
            if opts & used:
                continue
            lb += next(costs[p] for p in sorted_by_cost if (opts >> p) & 1)
            used |= opts
        return lb

    def search(chosen: int, excluded: int, cost_now: int):
        nonlocal best_bits, best_cost, explored
        explored += 1
        if explored > node_budget:
            raise BudgetError(f"exact cover exceeded {node_budget} nodes")
        avail = all_bits & ~excluded
        target = None
        for mi in range(len(members)):
            if cross[mi] & chosen:
                continue
            if not cross[mi] & avail:
                return  # member can no longer be covered in this subtree
            if target is None:
                target = mi
        if target is None:
            if cost_now < best_cost:
                best_cost, best_bits = cost_now, chosen
            return
        if cost_now + lower_bound(chosen, avail) >= best_cost:
            return
        opts = cross[target] & avail
        tried = 0
        pos = 0
        rem = opts
        while rem:
            if rem & 1:
                search(chosen | (1 << pos), excluded | tried, cost_now + costs[pos])
                tried |= 1 << pos
            rem >>= 1
            pos += 1

    search(0, 0, 0)
    chosen_ids = tuple(sorted(cands[p].ident for p in range(len(cands))
                              if (best_bits >> p) & 1))
    return CoverSolution(chosen=chosen_ids, cost=best_cost, method="exact",
                         guarantee=Fraction(1), nodes_explored=explored)


# ---------------------------------------------------------------------------
# Primal-dual 2-approximation for uncrossable families


def primal_dual_uncrossable_cover(inst: CoverInstance) -> CoverSolution:
    """Uniform dual growth on minimal violated members + reverse delete.

    Requires an uncrossable family (checked, witness reported).  Duals
    are exact rationals; the returned guarantee is 2.
    """
    ok, wit = is_uncrossable(inst.family)
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


# ---------------------------------------------------------------------------
# Symmetric proper crossing families


def cover_symmetric_crossing(inst: CoverInstance) -> CoverSolution:
    """Cover a symmetric proper crossing family at guarantee 2.

    Members are normalized to the side avoiding node 0, which turns a
    genuine symmetric proper crossing family into an uncrossable one
    (verified at runtime, not assumed); covering the rooted family is
    equivalent because coverage ignores orientation.  If the rooted
    family unexpectedly fails the uncrossability check, the exact solver
    takes over and the downgrade is logged.
    """
    ok, wit = is_symmetric_proper_crossing(inst.family)
    if not ok:
        raise PreconditionError("family is not symmetric proper crossing",
                                witness=wit)
    rooted = inst.family.canonical()
    rooted_inst = CoverInstance(inst.n, inst.candidates, rooted)
    ok, wit = is_uncrossable(rooted)
    if ok:
        sol = primal_dual_uncrossable_cover(rooted_inst)
        return CoverSolution(chosen=sol.chosen, cost=sol.cost,
                             method="symmetric-crossing/primal-dual",
                             guarantee=Fraction(2), duals=sol.duals)
    logger.warning("rooted family not uncrossable (witness %s); exact fallback", wit)
    sol = exact_min_cover(rooted_inst)
    return CoverSolution(chosen=sol.chosen, cost=sol.cost,
                         method="symmetric-crossing/exact-fallback",
                         guarantee=Fraction(2), nodes_explored=sol.nodes_explored)


# ---------------------------------------------------------------------------
# Inclusion-minimal covers


def minimal_cover(edges: Sequence, family: SetFamily) -> list:
    """Prune a cover to an inclusion-minimal one (drops later edges first).

    The result still covers the family, removing any remaining edge
    uncovers some member, and it is always a forest; the forest property
    is asserted because it is a theorem, not a heuristic.
    """
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
    ok, wit = covers(pairs, family)
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
# Pluggable solver slots


@dataclass(frozen=True)
class SolverSlot:
    """A cover solver with its advertised guarantee; ratio accounting
    always reads the guarantee from the slot actually plugged in."""

    name: str
    guarantee: Fraction
    solve: Callable[[CoverInstance], CoverSolution] = field(compare=False)


PD2_SLOT = SolverSlot("pd2", Fraction(2), primal_dual_uncrossable_cover)
EXACT_SLOT = SolverSlot("exact", Fraction(1), exact_min_cover)

SOLVER_SLOTS: dict[str, SolverSlot] = {s.name: s for s in (PD2_SLOT, EXACT_SLOT)}

# Default slot for single-level (laminar / ring-like) families.  A sharper
# solver can be plugged here; everything downstream picks up its guarantee.
ring_cover_solver: SolverSlot = PD2_SLOT


def resolve_slot(slot) -> SolverSlot:
    if isinstance(slot, SolverSlot):
        return slot
    try:
        return SOLVER_SLOTS[slot]
    except KeyError:
        raise PreconditionError(f"unknown solver slot {slot!r}; known: {sorted(SOLVER_SLOTS)}")
