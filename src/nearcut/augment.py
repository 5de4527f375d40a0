"""Near-minimum-cut covering: raise base connectivity lam0 up to k.

The base subgraph has unit capacities and connectivity lam0; every
purchasable candidate counts with capacity k - lam0 once added, so each
deficient cut (base value < k) needs at least one chosen candidate and
feasibility is exactly a set-cover condition.

The schedule walks connectivity levels with parity-aware boundaries:

* lam0 odd: first cover the lam0-cuts alone (a laminar family), which
  raises connectivity to lam0 + 1;
* main loop: for even lam from there up to k - 2, cover all
  {lam, lam+1}-cuts (an uncrossable family since lam is even), raising
  connectivity by 2 per stage;
* k odd: one last stage covers the (k-1)-cuts alone.

Pair stages go to the primal-dual cover (pd2, guarantee 2) and
single-level stages to a pluggable cover-solver slot; the end-to-end
bound is the sum of the stage guarantees, reproduced symbolically by
:func:`implemented_ratio_bound`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InputError, InvariantError
from .cut_structure import SetFamily, is_laminar, is_uncrossable
from .family_cover import (
    Candidate,
    CoverInstance,
    SolverSlot,
    resolve_slot,
)
from .multigraph import (
    EdgeRecord,
    Multigraph,
    cut_masks,
    cut_value_array,
    is_k_edge_connected,
    min_cut_value,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AugmentInstance:
    """Base edges are flagged ``base`` (unit capacity, cost ignored);
    the remaining edges are candidates with their costs."""

    graph: Multigraph
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"target connectivity must be >= 1, got {self.k}")
        if not any(e.base for e in self.graph.edges):
            raise InputError("instance has no base edges")

    @cached_property
    def base_graph(self) -> Multigraph:
        """The base edges alone: the current graph before any candidate is
        chosen.  Its cached cut table serves ``lam0`` and the first stage."""
        return Multigraph(self.graph.n, tuple(e for e in self.graph.edges if e.base))

    @cached_property
    def lam0(self) -> int:
        return min_cut_value(self.base_graph, "all", weighted=True)

    @property
    def candidate_ids(self) -> tuple[int, ...]:
        return self.graph.edge_ids("nonbase")

    def validate(self) -> None:
        for i, e in enumerate(self.graph.edges):
            if e.base and e.capacity != 1:
                raise InputError(
                    f"base edge {i} has capacity {e.capacity}; only unit base "
                    f"capacities are supported")
        if self.lam0 < 1:
            raise InputError("base subgraph is disconnected")
        gap = self.k - self.lam0
        if gap > 0:
            for i in self.candidate_ids:
                e = self.graph.edges[i]
                if e.capacity < gap:
                    raise InputError(
                        f"candidate edge {i} has capacity {e.capacity} < k - lam0 = {gap}")

    def current_graph(self, chosen: set[int] | frozenset[int]) -> Multigraph:
        """Base edges plus chosen candidates at capacity k - lam0."""
        gap = max(self.k - self.lam0, 1)
        edges = []
        for i, e in enumerate(self.graph.edges):
            if e.base:
                edges.append(e)
            elif i in chosen:
                edges.append(EdgeRecord(e.u, e.v, e.cost, gap, e.unsafe, False))
        return Multigraph(self.graph.n, tuple(edges))


@dataclass(frozen=True)
class StageLog:
    level: int
    kind: str            # "single" or "pair"
    family_size: int
    solver: str
    cost: int
    guarantee: Fraction
    added: tuple[int, ...] = ()


@dataclass(frozen=True)
class AugmentResult:
    chosen: tuple[int, ...]      # edge ids into the instance graph
    cost: int
    stages: tuple[StageLog, ...]
    bound: Fraction
    lam0: int


def deficient_family(g_current: Multigraph, k: int) -> SetFamily:
    """Canonical cuts of capacity-weighted value < k."""
    vals = cut_value_array(g_current, "all", weighted=True)
    return SetFamily(g_current.n, cut_masks(vals < k))


def level_family(g_current: Multigraph, lam: int,
                 include_plus_one: bool = True) -> SetFamily:
    """Canonical cuts of capacity-weighted value lam (and lam+1 by default)."""
    top = lam + 1 if include_plus_one else lam
    vals = cut_value_array(g_current, "all", weighted=True)
    return SetFamily(g_current.n, cut_masks((vals >= lam) & (vals <= top)))


def _stage_plan(lam0: int, k: int) -> list[tuple[int, str]]:
    """(level, kind) stages in execution order."""
    plan: list[tuple[int, str]] = []
    if lam0 >= k:
        return plan
    cur = lam0
    if cur % 2 == 1:
        plan.append((cur, "single"))
        cur += 1
    while cur <= k - 2:
        plan.append((cur, "pair"))
        cur += 2
    if cur < k:
        plan.append((cur, "single"))
        cur += 1
    return plan


def implemented_ratio_bound(lam0: int, k: int,
                            g_single: Fraction = Fraction(2)) -> Fraction:
    """End-to-end guarantee: 2 per pair stage (pd2) plus ``g_single`` per
    single-level stage.

    With the default ``g_single`` = 2 this is k-lam0 for even/even
    parities, k-lam0+1 for mixed and k-lam0+2 for odd/odd.
    """
    total = Fraction(0)
    for _level, kind in _stage_plan(lam0, k):
        total += Fraction(2) if kind == "pair" else g_single
    return total


def near_min_cuts_cover(inst: AugmentInstance,
                        single_solver: SolverSlot | str = "pd2") -> AugmentResult:
    """Run the staged cover; the result is verified k-connected.

    Single-level stages (parity boundaries) go to ``single_solver``,
    {lam, lam+1} stages to pd2.  Laminarity of odd boundary families and
    uncrossability of pair families are asserted, not assumed.
    """
    inst.validate()
    single = resolve_slot(single_solver)
    pair = resolve_slot("pd2")
    lam0 = inst.lam0
    k = inst.k
    plan = _stage_plan(lam0, k)
    chosen: set[int] = set()
    stages: list[StageLog] = []
    bound = Fraction(0)
    # The graph built for each stage's connectivity check is the next
    # stage's input, so its cached cut table is read once per stage; the
    # first stage reads the table that gave lam0.
    g_cur = inst.base_graph

    for level, kind in plan:
        fam = level_family(g_cur, level, include_plus_one=(kind == "pair"))
        slot = pair if kind == "pair" else single
        bound += slot.guarantee
        if kind == "single" and level == lam0 and lam0 % 2 == 1 and len(fam):
            ok, wit = is_laminar(fam)
            if not ok:
                raise InvariantError(
                    "odd-boundary minimum-cut family is not laminar", witness=wit)
        if kind == "pair" and len(fam):
            ok, wit = is_uncrossable(fam)
            if not ok:
                raise InvariantError(
                    "paired-level family is not uncrossable", witness=wit)
        if len(fam) == 0:
            stages.append(StageLog(level, kind, 0, "none", 0, slot.guarantee))
            continue
        cands = tuple(Candidate(i, inst.graph.edges[i].u, inst.graph.edges[i].v,
                                inst.graph.edges[i].cost)
                      for i in inst.candidate_ids if i not in chosen)
        sol = slot.solve(CoverInstance(inst.graph.n, cands, fam))
        chosen.update(sol.chosen)
        stages.append(StageLog(level, kind, len(fam), sol.method, sol.cost,
                               slot.guarantee, tuple(sorted(sol.chosen))))
        target = level + (2 if kind == "pair" else 1)
        g_cur = inst.current_graph(chosen)
        new_conn = min_cut_value(g_cur, "all", weighted=True)
        if new_conn < min(target, k):
            raise InvariantError(
                f"stage at level {level} left connectivity {new_conn} < {target}")

    if plan and not is_k_edge_connected(g_cur, k, "all", weighted=True):
        raise InvariantError("cover finished but the graph is not k-connected")
    cost = sum(inst.graph.edges[i].cost for i in chosen)
    expected = implemented_ratio_bound(lam0, k, single.guarantee)
    if bound != expected:
        raise InvariantError(f"stage accounting drifted: {bound} != {expected}")
    return AugmentResult(chosen=tuple(sorted(chosen)), cost=cost,
                         stages=tuple(stages), bound=bound, lam0=lam0)
