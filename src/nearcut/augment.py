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

Every stage reads the base graph's one cut table.  A chosen candidate
lifts any cut it crosses from at least lam0 to at least k, so a cut's
current value is below k only while no chosen candidate crosses it, and
then it is still its base value.  The staged cover therefore takes the
deficient cuts once, drops those each stage's candidates cross, and reads
each stage's family, its connectivity check and the final k-check from
the cuts left.

Pair stages go to the primal-dual cover (pd2, guarantee 2), single-level
stages to ``family_cover.ring_cover_solver`` as it is at call time, and
every stage runs FGC's cover step.  A stage that finds no cover raises
its :class:`InfeasibleError` with the exact oracle's witness, the first
deficient cut of the base graph that no candidate crosses.  Each stage
logs the guarantee its cover solution reports; the end-to-end bound is
their sum, checked against :func:`implemented_ratio_bound`.  A walk of
more than :data:`MAX_STAGES` stages is refused with :class:`LimitError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from . import family_cover
from .errors import InfeasibleError, InputError, InvariantError, LimitError
from .cut_structure import SetFamily, is_laminar, is_uncrossable
from .family_cover import PD2_SLOT, PhaseLog, _added_cost, _cover_phase
from .multigraph import (
    MAX_GENERATED_EDGES,
    EdgeRecord,
    Multigraph,
    cut_masks,
    cut_value_array,
    min_cut_value,
)

# Most stages one augmentation may walk, two levels each: past it a huge k
# would walk for minutes after the last deficient cut is covered.  A fixed
# constant, not a setting.
MAX_STAGES = 10_000


@dataclass(frozen=True)
class AugmentInstance:
    """Base edges are flagged ``base`` (unit capacity, cost ignored);
    the remaining edges are candidates with their costs."""

    graph: Multigraph
    k: int

    def __post_init__(self):
        if type(self.k) is not int:
            raise InputError(f"target connectivity must be an integer, got {self.k!r}")
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
        return min_cut_value(self.base_graph)

    @property
    def base_ids(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.graph.edges) if e.base)

    @property
    def candidate_ids(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.graph.edges) if not e.base)

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
        """Base edges plus each chosen candidate as k - lam0 parallel unit
        edges, the lift the staged cover counts it as: its cut table gives
        the connectivity the cover certifies.  A graph of more than
        :data:`~nearcut.multigraph.MAX_GENERATED_EDGES` edges is refused
        with :class:`LimitError` before any edge is listed."""
        gap = max(self.k - self.lam0, 1)
        bought = sum(1 for i in self.candidate_ids if i in chosen)
        count = len(self.base_ids) + gap * bought
        if count > MAX_GENERATED_EDGES:
            raise LimitError(
                f"current graph with {bought} bought edges at k - lam0 = {gap} "
                f"lists {count} edges, over the limit of {MAX_GENERATED_EDGES}")
        edges = []
        for i, e in enumerate(self.graph.edges):
            if e.base:
                edges.append(e)
            elif i in chosen:
                edges += [EdgeRecord(e.u, e.v, e.cost, 1, e.unsafe, False)] * gap
        return Multigraph(self.graph.n, tuple(edges))


@dataclass(frozen=True)
class AugmentResult:
    chosen: tuple[int, ...]      # edge ids into the instance graph
    cost: int
    stages: tuple[PhaseLog, ...]   # named "single" or "pair"
    bound: Fraction
    lam0: int


def deficient_family(g_current: Multigraph, k: int) -> SetFamily:
    """Canonical cuts crossed by fewer than k edges."""
    vals = cut_value_array(g_current)
    return SetFamily(g_current.n, cut_masks(vals < k))


def level_family(g_current: Multigraph, lam: int) -> SetFamily:
    """Canonical cuts crossed by lam or lam+1 edges."""
    vals = cut_value_array(g_current)
    return SetFamily(g_current.n, cut_masks((vals >= lam) & (vals <= lam + 1)))


def _stages(lam0: int, k: int) -> Iterator[tuple[int, str]]:
    """(level, kind) stages in execution order, one at a time: a huge k
    costs nothing until its stages are reached."""
    if lam0 >= k:
        return
    cur = lam0
    if cur % 2 == 1:
        yield cur, "single"
        cur += 1
    while cur <= k - 2:
        yield cur, "pair"
        cur += 2
    if cur < k:
        yield cur, "single"


def implemented_ratio_bound(lam0: int, k: int,
                            g_single: Fraction = Fraction(2)) -> Fraction:
    """End-to-end guarantee: 2 per pair stage (pd2) plus ``g_single`` per
    single-level stage.

    With the default ``g_single`` = 2 this is k-lam0 for even/even
    parities, k-lam0+1 for mixed and k-lam0+2 for odd/odd.
    """
    if lam0 >= k:
        return Fraction(0)
    # the stages of _stages, counted: an odd lam0 opens with a single
    # stage, pairs follow, and one level left over closes with a single
    pairs, tail = divmod(k - lam0 - lam0 % 2, 2)
    return Fraction(2 * pairs) + (lam0 % 2 + tail) * g_single


def _uncrossed(g: Multigraph, added: Iterable[int], masks: np.ndarray,
               values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cut masks (and their values) that no edge in ``added`` crosses;
    order is kept."""
    crossed = np.zeros_like(masks)
    for i in added:
        e = g.edges[i]
        crossed |= (masks >> e.u) ^ (masks >> e.v)
    keep = (crossed & 1) == 0
    return masks[keep], values[keep]


def near_min_cuts_cover(inst: AugmentInstance) -> AugmentResult:
    """Run the staged cover; the result is verified k-connected.

    Single-level stages (parity boundaries) go to the slot
    ``family_cover.ring_cover_solver`` as it is at call time, {lam, lam+1}
    stages to pd2.  Laminarity of odd boundary families and
    uncrossability of pair families are asserted, not assumed.  Each
    stage logs the guarantee its solution reports.

    The only cut table read is the base graph's, the one that gave lam0
    (see the module docstring for why that suffices).
    """
    inst.validate()
    single = family_cover.ring_cover_solver
    lam0 = inst.lam0
    k = inst.k
    g = inst.graph
    base_ids = set(inst.base_ids)
    h = set(base_ids)
    stages: list[PhaseLog] = []
    # The deficient cuts no chosen candidate crosses yet, with their base
    # values, which are also their current values.
    vals = cut_value_array(inst.base_graph)
    idx = np.flatnonzero(vals[1:] < k) + 1   # index 0, the empty set, is no cut
    masks, values = idx << 1, vals[idx]
    deficient = masks, values

    for count, (level, kind) in enumerate(_stages(lam0, k), 1):
        if count > MAX_STAGES:
            raise LimitError(f"raising connectivity from {lam0} to k = {k} walks more "
                             f"than {MAX_STAGES} stages")
        top = level + 1 if kind == "pair" else level
        fam = SetFamily(g.n, masks[(values >= level) & (values <= top)].tolist())
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
        try:
            stage = _cover_phase(level, kind, g, h, fam,
                                 (PD2_SLOT if kind == "pair" else single).solve)
        except InfeasibleError as exc:
            # the stage's first uncrossed member need not be the first
            # deficient cut that no candidate crosses, the oracle's witness
            stranded = _uncrossed(g, inst.candidate_ids, *deficient)[0]
            if not len(stranded):
                raise
            raise InfeasibleError(str(exc), witness=int(stranded[0])) from exc
        stages.append(stage)
        if not len(fam):
            continue
        target = top + 1
        masks, values = _uncrossed(g, stage.added, masks, values)
        # every cut outside the deficient ones left has value >= k
        conn = int(values.min()) if len(values) else k
        if conn < min(target, k):
            raise InvariantError(
                f"stage at level {level} left connectivity {conn} < {target}")

    if len(masks):
        raise InvariantError("cover finished but the graph is not k-connected")
    chosen = tuple(sorted(h - base_ids))
    bound = sum((s.guarantee for s in stages), Fraction(0))
    # single stages may report different guarantees: their mean keeps the count checked
    singles = [s.guarantee for s in stages if s.name == "single"] or [Fraction(2)]
    expected = implemented_ratio_bound(lam0, k, sum(singles) / len(singles))
    if bound != expected:
        raise InvariantError(f"stage accounting drifted: {bound} != {expected}")
    return AugmentResult(chosen=chosen, cost=_added_cost(g, chosen),
                         stages=tuple(stages), bound=bound, lam0=lam0)
