"""Flexible connectivity: feasibility, blocking families, and solvers.

A subgraph H is (k, q)-flex-connected when every cut keeps k safe edges
or k + q edges in total, i.e. ``d(S) >= k + min(d_U(S), q)``.  When H is
already (k, q-1)-flex-connected, exactly the cuts with ``d(S) = k+q-1``
and ``d_U(S) >= q`` block the next level, and covering that family is
the whole step.

Every solve goes through :func:`solve_fgc`: seed H with a k-edge-
connected spanning subgraph (phase ``kecss``), then for each level
L = 1..q enumerate F_L (which first checks that phase L-1 cleared its
family), check the structure the table names, cover F_L from the edges
outside H, and finally check (k, q)-flex-connectivity.  The structure
table, one row per ``(costs, q, level)`` as :func:`_level_handler`
reads it:

    costs     q     level  check                  cover -> phase
    all 1     any   any    none                   minimal cover, <= n-1 edges,
                                                  guarantee 2/k -> F{L}
    other     1, 2  1      laminar (odd k),       ring_cover_solver (odd k),
                           uncrossable (even k)   pd2 (even k) -> F1
    other     2     2      uncrossable (even k)   pd2 -> F2
    other     2     2      decompose_F2_odd       pd2 -> F2-uncrossable, then the
                           (odd k; skipped when   symmetric crossing cover,
                           F2 is empty)           guarantee 2 -> F2-symmetric;
                                                  both from the edges outside
                                                  H before the phase
    other     >= 3  any    uncrossable decides    pd2, else exact
                                                  ("exact-fallback") -> F{L}

A solve at q = 0 is the spanning step alone, at unit and weighted cost
alike, and any solve at q above :data:`MAX_LEVELS` is refused with
:class:`LimitError`.  Each solve has one failure boundary around the
spanning step and every level: when one of them finds no cover, the solve
raises what the exact oracle raises, :data:`NOT_FLEX_CONNECTED` with G's
first cut that breaks the (k, q) rule.  Each cover phase logs the
guarantee its solution reports, guarantees compose additively, and every
structural claim is asserted at runtime.  A solve reads nothing but its
instance: the spanning step always logs solver ``approx2`` with
guarantee 2 (:func:`kecss`), the edge costs pick the table's rows, and
each search reads its module's ``DEFAULT_NODE_BUDGET`` at call time.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional

from .errors import (
    InfeasibleError,
    InputError,
    InvariantError,
    LimitError,
    PreconditionError,
)
from .cut_structure import (
    SetFamily,
    _blocking_cuts,
    _first_bad_cut,
    _flex_arrays,
    decompose_F2_odd,
    is_laminar,
    is_uncrossable,
)
from . import family_cover
from .family_cover import (
    CoverInstance,
    CoverSolution,
    PD2_SLOT,
    PhaseLog,
    _added_cost,
    _branch_and_bound,
    _cover_phase,
    cover_symmetric_crossing,
    exact_min_cover,
    minimal_cover,
)
from .multigraph import (
    Multigraph,
    check_exhaustive_build,
    min_cut_value,
    subgraph,
)

logger = logging.getLogger(__name__)

# Most levels one solve may walk: each level is one phase, so a huge q
# would walk for hours.  A fixed constant, not a setting, equal to
# ``augment.MAX_STAGES``.
MAX_LEVELS = 10_000

DEFAULT_NODE_BUDGET = 5_000_000
# What the oracle and the solver both say when G itself fails the level.
NOT_FLEX_CONNECTED = "graph itself is not flex-connected at the requested level"


def _check_rule(k: int, q: int) -> None:
    """Refuse a (k, q) for which the flex rule is not defined."""
    if type(k) is not int or type(q) is not int:
        raise InputError(f"k and q must be integers, got k = {k!r}, q = {q!r}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if q < 0:
        raise InputError(f"q must be >= 0, got {q}")


@dataclass(frozen=True)
class FlexInstance:
    graph: Multigraph
    k: int
    q: int

    def __post_init__(self):
        _check_rule(self.k, self.q)
        # the flex rule counts edges: a capacity or a base flag would be
        # read by nothing, so it is refused rather than ignored
        for i, e in enumerate(self.graph.edges):
            if e.capacity != 1:
                raise InputError(f"edge {i} has capacity {e.capacity}; flex "
                                 "connectivity takes unit capacities only")
            if e.base:
                raise InputError(f"edge {i} is a base edge; base edges belong "
                                 "to augmentation instances")

    @property
    def unit_cost(self) -> bool:
        return all(e.cost == 1 for e in self.graph.edges)


@dataclass(frozen=True)
class FlexSolution:
    edge_ids: tuple[int, ...]
    cost: int
    phases: tuple[PhaseLog, ...]
    guarantee: Fraction


# ---------------------------------------------------------------------------
# Feasibility


def is_flex_connected(g: Multigraph, edge_ids: Iterable[int], k: int,
                      q: int) -> tuple[bool, Optional[int]]:
    """Per-cut check of d(S) >= k + min(d_U(S), q); witness = first bad cut."""
    _check_rule(k, q)
    wit = _first_bad_cut(*_flex_arrays(subgraph(g, edge_ids)), k, q)
    return (True, None) if wit is None else (False, wit)


def flex_connected_by_removal(g: Multigraph, edge_ids: Iterable[int], k: int,
                              q: int) -> bool:
    """Independent formulation: H minus any <= q unsafe edges stays
    k-edge-connected.  Kept separate from the per-cut check so the two
    can be compared against each other."""
    _check_rule(k, q)
    h = subgraph(g, edge_ids)
    if h.n < 2:
        return True
    unsafe_pos = [i for i, e in enumerate(h.edges) if e.unsafe]
    for r in range(min(q, len(unsafe_pos)) + 1):
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
    _check_rule(k, q)
    if q < 1:
        raise InputError(f"blocking families are defined for q >= 1, got {q}")
    d_arr, u_arr = _flex_arrays(subgraph(g, edge_ids))
    wit = _first_bad_cut(d_arr, u_arr, k, q - 1)
    if wit is not None:
        raise PreconditionError(
            f"subgraph is not (k={k}, q={q - 1})-flex-connected", witness=wit)
    fam = SetFamily(g.n, _blocking_cuts(d_arr, u_arr, k, q))
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


def minimum_flex_subgraph(g: Multigraph, k: int, q: int) -> ExactSubgraphResult:
    """Provably minimum-cost edge set whose subgraph is (k, q)-flex-connected:
    :func:`~nearcut.family_cover._branch_and_bound` over one row per
    canonical cut, from the whole edge set, branching on the cut with the
    fewest undecided edges and trying them cheapest first.

    Row i holds the edges crossing the canonical cut ``(i + 1) << 1``, and
    its unsafe row the unsafe ones among them.  The n singleton cuts {v}
    feed the degree bound: an edge has two endpoints, so the edges added
    pay each singleton's share at most twice.

    Like a cut table, the rows are refused before they are built above the
    node limit or the table memory budget
    (:func:`~nearcut.multigraph.check_exhaustive_build`).
    """
    _check_rule(k, q)
    if g.n < 2:
        return ExactSubgraphResult((), 0, 0)
    m = g.m
    # cross and ucross: 2^(n-1) ints of about m bits each, 8 bytes of
    # list slot plus 24 + 4 * ceil(m / 30) bytes of int object; ucross is
    # built only at q > 0, but the estimate counts it at every q
    check_exhaustive_build(g.n, (64 + 8 * -(-m // 30)) << (g.n - 1),
                           "exact flex search")
    # adding node v to a side toggles exactly the edges incident to v
    incident = [0] * g.n
    for pos, e in enumerate(g.edges):
        incident[e.u] |= 1 << pos
        incident[e.v] |= 1 << pos
    cross = [0]
    for v in range(1, g.n):
        inc = incident[v]
        cross += [c ^ inc for c in cross]
    del cross[0]  # row i is the cut (i + 1) << 1
    ucross = []
    if q:
        unsafe_bits = sum(1 << pos for pos, e in enumerate(g.edges) if e.unsafe)
        ucross = [c & unsafe_bits for c in cross]
    # rows of the singleton cuts: {0} is the complement of the last row,
    # and {v} is the cut 1 << v
    singles = [len(cross) - 1] + [(1 << (v - 1)) - 1 for v in range(1, g.n)]

    def not_flex(i: int) -> InfeasibleError:
        return InfeasibleError(NOT_FLEX_CONNECTED, witness=(i + 1) << 1)

    bits, cost, explored = _branch_and_bound(
        cross, ucross, k, q, [e.cost for e in g.edges], DEFAULT_NODE_BUDGET,
        "exact search", not_flex, fewest=True, cheapest_first=True, singles=singles)
    ids = tuple(p for p in range(m) if (bits >> p) & 1)
    return ExactSubgraphResult(edge_ids=ids, cost=cost, nodes_explored=explored)


def kecss(g: Multigraph, k: int) -> PhaseLog:
    """k-edge-connected spanning subgraph, logged as phase 0 ("kecss")
    with solver ``"approx2"``, guarantee 2 and ``added`` the chosen edge
    ids.

    The step runs the exact search at desk scale and accounts for it with
    the factor 2 of a 2-approximation, so the ratio bounds downstream stay
    the ones a polynomial kecss step would give.
    """
    res = minimum_flex_subgraph(g, k, 0)
    return PhaseLog(0, "kecss", 0, "approx2", res.cost, Fraction(2), res.edge_ids,
                    res.nodes_explored)


# ---------------------------------------------------------------------------
# Cover phases: one entry point, one table row per level


def _minimal_level(g: Multigraph, h: set[int], fam: SetFamily, k: int,
                   level: int) -> list[PhaseLog]:
    """Unit cost: an inclusion-minimal cover is a forest (asserted by
    :func:`~nearcut.family_cover.minimal_cover`), so at most n-1 edges
    against opt >= kn/2, a 2/k fraction of the optimum."""
    def solve(inst: CoverInstance) -> CoverSolution:
        ids = tuple(sorted(c.ident for c in minimal_cover(inst.candidates, inst.family)))
        return CoverSolution(ids, len(ids), "minimal-cover", Fraction(2, k))
    return [_cover_phase(level, f"F{level}", g, h, fam, solve)]


def _structured_level(g: Multigraph, h: set[int], fam: SetFamily, k: int,
                      level: int) -> list[PhaseLog]:
    """Laminar for odd k (level 1 only), uncrossable for even k."""
    if k % 2:
        solve = family_cover.ring_cover_solver.solve  # pluggable: read now
        ok, wit = is_laminar(fam)
        shape = "laminar for odd k"
    else:
        solve = PD2_SLOT.solve
        ok, wit = is_uncrossable(fam)
        shape = "uncrossable for even k"
    if not ok:
        raise InvariantError(f"level-{level} family is not {shape}", witness=wit)
    return [_cover_phase(level, f"F{level}", g, h, fam, solve)]


def _split_level(g: Multigraph, h: set[int], fam: SetFamily, k: int,
                 level: int) -> list[PhaseLog]:
    """Odd k, level 2: both parts are covered from the edges outside H as
    it was before the phase, and their union is added."""
    parts = (fam, fam)
    if len(fam):
        split = decompose_F2_odd(g, h, k)
        for note in split.diagnostics:
            logger.debug("F2 split at level %d: %s", level, note)
        parts = (split.f_prime, split.f_dprime)
    pool = set(h)
    return [_cover_phase(level, "F2-uncrossable", g, h, parts[0], PD2_SLOT.solve, pool),
            _cover_phase(level, "F2-symmetric", g, h, parts[1], cover_symmetric_crossing,
                         pool)]


def _fallback_level(g: Multigraph, h: set[int], fam: SetFamily, k: int,
                    level: int) -> list[PhaseLog]:
    if len(fam) and not is_uncrossable(fam)[0]:
        return [_cover_phase(level, f"F{level}", g, h, fam, lambda ci: replace(
            exact_min_cover(ci), method="exact-fallback"))]
    return [_cover_phase(level, f"F{level}", g, h, fam, PD2_SLOT.solve)]


def _level_handler(unit_cost: bool, k: int, q: int, level: int):
    """The structure table: which check and which cover serve ``level``."""
    if unit_cost:
        return _minimal_level
    if q >= 3:
        return _fallback_level
    return _split_level if k % 2 and level == 2 else _structured_level


# ``unit_cost`` selects nothing: the edge costs pick the rows.  It stays
# because ``perfbench/workloads.py`` (the ratio-small op) passes it.
def solve_fgc(inst: FlexInstance, unit_cost: bool = False) -> FlexSolution:
    """Seed H with a k-edge-connected spanning subgraph, then cover the
    blocking family of each level in turn, as the structure table says:
    the minimal-cover rows exactly when every edge costs 1.  A true
    ``unit_cost`` only checks that claim, with :class:`InputError`.

    ``enumerate_Fq`` at level L first checks that H is (k, L-1)-flex-
    connected, which is exactly "phase L-1 cleared its family" (the
    first bad cut is the first member left over; phase 0 is the kecss
    seed); the final check does the same for the last level.  A solve at
    q = 0, unit or weighted, is the spanning step alone and skips that
    check: the seed is k-edge-connected by construction, and the check
    would cost about half of such a solve.

    One handler encloses the spanning step and the whole level walk.  A
    step that finds no cover (:class:`InfeasibleError` or
    :class:`PreconditionError`) makes it read G's first cut that breaks
    the (k, q) rule, and raise the oracle's error with that cut as the
    witness; when G itself passes, the original error stands.  G's tables
    are built only then.  A q above :data:`MAX_LEVELS` is refused with
    :class:`LimitError` before the spanning step.
    """
    g, k, q, unit = inst.graph, inst.k, inst.q, inst.unit_cost
    if unit_cost and not unit:
        raise InputError("unit_cost requires every edge cost to be 1")
    if q > MAX_LEVELS:
        raise LimitError(f"q = {q} walks more than {MAX_LEVELS} levels")
    try:
        phases = [kecss(g, k)]
        h = set(phases[0].added)
        for level in range(1, q + 1):
            try:
                fam = enumerate_Fq(g, h, k, level)
            except PreconditionError as exc:
                raise InvariantError(
                    f"phase {level - 1} did not clear its blocking family",
                    witness=exc.witness) from exc
            phases += _level_handler(unit, k, q, level)(g, h, fam, k, level)
    except (InfeasibleError, PreconditionError) as exc:
        wit = _first_bad_cut(*_flex_arrays(g), k, q)
        if wit is None:
            raise
        raise InfeasibleError(NOT_FLEX_CONNECTED, witness=wit) from exc
    if q:
        ok, wit = is_flex_connected(g, h, k, q)
        if not ok:
            raise InvariantError(f"subgraph is not (k={k}, q={q})-flex-connected "
                                 "after the last phase", witness=wit)
    ids = tuple(sorted(h))
    return FlexSolution(ids, _added_cost(g, ids), tuple(phases),
                        sum((p.guarantee for p in phases), Fraction(0)))
