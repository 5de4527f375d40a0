"""Min-cost covering of explicit set families by candidate edges.

An edge covers a set when exactly one endpoint lies inside it.  Three
solvers share the :class:`CoverInstance` surface:

* :func:`exact_min_cover` - branch-and-bound oracle, provably optimal,
  used as the denominator of every measured ratio.  It and
  :func:`~nearcut.fgc.minimum_flex_subgraph` are thin callers of the one
  exact search, :func:`_branch_and_bound`, over bitset requirement rows;
* :func:`primal_dual_uncrossable_cover` - the classic 2-approximation
  for uncrossable families (uniform dual growth on inclusion-minimal
  violated members, tight-edge additions, reverse delete), which checks
  its own dual certificate before returning; its reverse delete is
  :func:`minimal_cover`'s, one linear pass over the chosen edges whose
  output is asserted a forest;
* :func:`cover_symmetric_crossing` - covers a symmetric proper crossing
  family by rooting it away from node 0 and handing the rooted family,
  which is then uncrossable (asserted), to the primal-dual solver.

Every crossing test is a bitset operation.  :func:`_crossing_bits` turns
the members and the edges into per-node incidence bitsets (Python ints):
an edge (u, v) crosses the members ``inside[u] ^ inside[v]``, and the
edges crossing a member are the XOR of the incidences of its nodes,
since an edge with both ends inside toggles twice.  The solvers,
:func:`covers` and :func:`minimal_cover` read these bitsets, so
"minimal violated members", slacks and coverage are a few integer
operations per member or candidate, and every precondition is still
checkable at runtime.  For a family at or above the kernel size of
:mod:`~nearcut.cut_structure`, the same bitsets are packed from numpy
bit matrices instead of built bit by bit in Python loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BudgetError, InfeasibleError, InvariantError, PreconditionError
from .cut_structure import (
    SetFamily,
    _kernel_sized,
    is_symmetric_proper_crossing,
    is_uncrossable,
)
from .multigraph import DisjointSets, Multigraph, full_mask

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
            if not all(type(x) is int for x in (c.u, c.v, c.cost)):
                raise PreconditionError(f"non-integer candidate endpoint or cost: {c}")
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

    @cached_property
    def crossings(self) -> "Crossings":
        return _crossing_bits(self.n, self.family.members,
                              [(c.u, c.v) for c in self.candidates])


@dataclass(frozen=True)
class CoverSolution:
    chosen: tuple[int, ...]          # candidate idents, ascending
    cost: int
    method: str
    guarantee: Fraction
    duals: tuple[tuple[int, Fraction], ...] = ()
    nodes_explored: int = 0


class Crossings(NamedTuple):
    """Crossing bitsets of one family and one edge list (positions)."""

    edge_bits: list[int]     # edge -> members it crosses
    member_bits: list[int]   # member -> edges crossing it


def _crossing_bits(n: int, members: Sequence[int],
                   edges: Sequence[tuple[int, int]]) -> Crossings:
    """Both directions of the edge x member crossing relation.

    Every endpoint lies in ``range(n)`` (callers check); a loop (u == u)
    toggles its own incidence twice and so crosses nothing.
    """
    if _kernel_sized(n, len(members)):
        return _crossing_kernel(n, members, edges)
    incident = [0] * n
    for pos, (u, v) in enumerate(edges):
        incident[u] ^= 1 << pos
        incident[v] ^= 1 << pos
    inside = [0] * n
    member_bits = []
    for j, m in enumerate(members):
        bit = 1 << j
        acc = 0
        while m:
            low = m & -m
            v = low.bit_length() - 1
            inside[v] |= bit
            acc ^= incident[v]
            m ^= low
        member_bits.append(acc)
    edge_bits = [inside[u] ^ inside[v] for u, v in edges]
    return Crossings(edge_bits, member_bits)


def _crossing_kernel(n: int, members: Sequence[int],
                     edges: Sequence[tuple[int, int]]) -> Crossings:
    """The loop's bitsets, read off one member x node bit matrix: its
    columns are ``inside``, and column e of ``held[:, u] ^ held[:, v]``,
    over the edges (u, v), marks the members edge e crosses, so its rows
    are ``member_bits``."""
    ms = np.array(members, dtype="<i8")
    held = np.unpackbits(ms.view(np.uint8).reshape(-1, 8), axis=1, count=n,
                         bitorder="little")
    inside = _bit_rows(held.T)
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    member_bits = _bit_rows(held[:, ends[:, 0]] ^ held[:, ends[:, 1]])
    edge_bits = [inside[u] ^ inside[v] for u, v in edges]
    return Crossings(edge_bits, member_bits)


def _bit_rows(bits: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array as a Python int (column c is bit c)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    rows, width = packed.shape
    if width <= 8:
        # at most 64 columns: each row is one little-endian uint64
        words = np.zeros((rows, 8), dtype=np.uint8)
        words[:, :width] = packed
        return words.view("<u8").ravel().tolist()
    buf = packed.tobytes()
    return [int.from_bytes(buf[i:i + width], "little")
            for i in range(0, len(buf), width)]


def _pairs(edges: Iterable, n: int) -> list[tuple[int, int]]:
    """Endpoints of Candidate objects or plain (u, v[, ...]) tuples, each
    checked to lie in the ground set ``range(n)``."""
    pairs = [(c.u, c.v) if isinstance(c, Candidate) else (c[0], c[1]) for c in edges]
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError("edge endpoint outside the ground set",
                                    witness=(u, v))
    return pairs


def _first_uncovered(edge_bits: Iterable[int], count: int) -> Optional[int]:
    """Position of the first of ``count`` members no edge crosses."""
    covered = 0
    for bits in edge_bits:
        covered |= bits
    left = ~covered & ((1 << count) - 1)
    return (left & -left).bit_length() - 1 if left else None


def covers(candidates: Iterable, family: SetFamily) -> tuple[bool, Optional[int]]:
    """Does every member have a crossing edge?  Witness = first uncovered mask.

    Accepts Candidate objects or plain (u, v[, ...]) tuples; an endpoint
    outside the ground set raises :class:`PreconditionError` naming the edge.
    """
    members = family.members
    xs = _crossing_bits(family.n, members, _pairs(candidates, family.n))
    j = _first_uncovered(xs.edge_bits, len(members))
    return (True, None) if j is None else (False, members[j])


# ---------------------------------------------------------------------------
# Exact branch-and-bound


def _branch_and_bound(rows: Sequence[int], urows: Sequence[int], k: int, q: int,
                      costs: Sequence[int], node_budget: int, what: str,
                      unmet: Callable[[int], Exception],
                      start: Optional[Callable[[], int]] = None, *,
                      fewest: bool = False, cheapest_first: bool = False,
                      singles: Sequence[int] = ()) -> tuple[int, int, int]:
    """The one exact search: a cheapest set of columns meeting every
    requirement row, as ``(bitset, cost, nodes explored)``.

    Columns are positions into ``costs`` (non-negative integers), and
    column sets are bitsets (Python ints, so there is no column limit).
    A set X meets row i when ``|rows[i] & X| >= k + min(|urows[i] & X|,
    q)``; ``urows`` is read only at q > 0.  A cover is k = 1, q = 0 with
    one row per member.  Meeting a row is monotone under adding columns,
    and the *deficit* ``k + min(|urows[i] & X|, q) - |rows[i] & X|`` of a
    row never grows as X does.

    * When even every column leaves a row unmet, ``unmet(i)`` of the
      first such row is raised.
    * The incumbent is ``start()`` (default: every column), stripped
      most expensive column first while it stays feasible; a stripped
      column can only break the rows that hold it, so only those are
      rechecked.
    * Per node, one pass over the parent's list of unmet rows finds each
      row's deficit, tests the kill and keeps the branching row, and
      lists the indices of the rows the included columns leave unmet; the
      children take that list.  A row whose deficit exceeds its undecided
      columns kills the subtree (the included columns sit inside the
      available ones).  The branching row is the first listed, or with
      ``fewest`` the first with the fewest undecided columns.  Each
      undecided column of that row is tried in turn as the first chosen
      one, in position order or with ``cheapest_first`` in cost order,
      and each child excludes the columns tried before it, so the
      subtrees are disjoint.
    * A node is pruned when a lower bound on the cost still to add
      reaches the incumbent's margin.  The *disjoint-support bound* adds,
      over listed rows whose undecided columns are disjoint from those of
      the rows already counted, the ``deficit`` cheapest of them.  Given
      ``singles``, rows such that every column lies in at most two of
      them (the singleton cuts of a graph, whose columns are edges), the
      *degree bound* sums their cheapest completions and halves the sum,
      rounded up since costs are integers.  Both bounds walk the columns
      in cost order and stop as soon as the node is pruned.  The disjoint
      bound finds the deficit of only the rows it counts, and stops once
      their columns cover every undecided one: each later row would meet
      them, so it adds nothing.

    Neither bound changes the answer.  The children of a node, their
    order and the columns each excludes do not depend on pruning, and a
    valid bound never cuts off the first optimal leaf in search order
    while the incumbent is still worse, so that leaf (or the start, when
    it is already optimal) is returned either way; a stronger bound only
    lowers the node count.  Past ``node_budget`` nodes the search raises
    :class:`BudgetError`, naming ``what``.
    """
    m = len(costs)
    all_bits = (1 << m) - 1
    everyone = range(len(rows))

    def deficit(i: int, bits: int) -> int:
        need = k - (rows[i] & bits).bit_count()
        if q:
            need += min((urows[i] & bits).bit_count(), q)
        return need

    for i in everyone:
        if deficit(i, all_bits) > 0:
            raise unmet(i)

    def breaks(bits: int, col: int) -> bool:
        """Whether ``bits`` leaves unmet a row that holds the column bit ``col``."""
        if q == 0:
            return any((r & bits).bit_count() < k for r in rows if r & col)
        return any((r & bits).bit_count() < k + min((u & bits).bit_count(), q)
                   for r, u in zip(rows, urows) if r & col)

    best_bits = all_bits if start is None else start()
    for pos in sorted(range(m), key=lambda p: (-costs[p], -p)):
        trial = best_bits & ~(1 << pos)
        if trial != best_bits and not breaks(trial, 1 << pos):
            best_bits = trial
    best = [sum(costs[p] for p in range(m) if (best_bits >> p) & 1), best_bits]
    explored = [0]

    # columns as (bit, cost) pairs: in cost order, and in branching order
    by_cost = [(1 << p, costs[p]) for p in sorted(range(m), key=lambda p: (costs[p], p))]
    order = by_cost if cheapest_first else [(1 << p, costs[p]) for p in range(m)]
    degree = [(rows[i], urows[i] if q else 0,
               [(bit, c) for bit, c in by_cost if rows[i] & bit]) for i in singles]

    def pruned(viol: list[int], included: int, free: int, slack: int) -> bool:
        """Whether a lower bound on the remaining cost reaches ``slack``."""
        tot = 0
        for r, u, cols in degree:
            need = k - (r & included).bit_count()
            if q:
                need += min((u & included).bit_count(), q)
            if need <= 0:
                continue
            for bit, c in cols:
                if free & bit:
                    tot += c
                    need -= 1
                    if not need:
                        break
            if tot >= 2 * slack - 1:
                return True
        lb = 0
        used = 0
        for i in viol:
            opts = rows[i] & free
            if opts & used:
                continue
            used |= opts
            need = deficit(i, included)
            for bit, c in by_cost:
                if opts & bit:
                    lb += c
                    need -= 1
                    if not need:
                        break
            if lb >= slack:
                return True
            if used == free:
                # every later row meets ``used`` (none is empty: it would
                # have killed the node), so none adds to the bound
                return False
        return False

    def search(included: int, excluded: int, cost_now: int, among: Iterable[int]):
        explored[0] += 1
        if explored[0] > node_budget:
            raise BudgetError(f"{what} exceeded {node_budget} nodes")
        avail = all_bits & ~excluded
        free = avail & ~included
        viol = []
        target = None
        best_fanout = m + 1
        for i in among:
            r = rows[i]
            need = k - (r & included).bit_count()
            if q:
                u = urows[i]
                need += min((u & included).bit_count(), q)
                if need <= 0:
                    continue
                if k + min((u & avail).bit_count(), q) > (r & avail).bit_count():
                    return
                fanout = (r & free).bit_count()
            else:
                if need <= 0:
                    continue
                fanout = (r & free).bit_count()
                if need > fanout:
                    return
            if target is None or (fewest and fanout < best_fanout):
                best_fanout, target = fanout, i
            viol.append(i)
        if target is None:
            if cost_now < best[0]:
                best[0], best[1] = cost_now, included
            return
        if pruned(viol, included, free, best[0] - cost_now):
            return
        opts = rows[target] & free
        tried = 0
        for bit, c in order:
            if opts & bit:
                search(included | bit, excluded | tried, cost_now + c, viol)
                tried |= bit

    search(0, 0, 0, everyone)
    return best[1], best[0], explored[0]


def exact_min_cover(inst: CoverInstance) -> CoverSolution:
    """Provably optimal cover: :func:`_branch_and_bound` at k = 1, q = 0,
    one row per member (its crossing candidates), starting from a
    gain-greedy cover, within :data:`DEFAULT_NODE_BUDGET` nodes.  It
    branches on the first uncovered member and tries its candidates by
    position, so equal-cost optima resolve deterministically.
    """
    members = inst.family.members
    if not members:
        return CoverSolution(chosen=(), cost=0, method="exact", guarantee=Fraction(1))
    cands = inst.candidates
    cross, edge_bits = inst.crossings.member_bits, inst.crossings.edge_bits
    costs = [c.cost for c in cands]

    def greedy_start() -> int:
        """Add the candidate crossing the most uncovered members (cheapest,
        then first, on ties) until every member is crossed; the search
        calls it only once every member has a crossing candidate."""
        chosen = 0
        uncovered = (1 << len(members)) - 1
        while uncovered:
            pos = max(range(len(cands)), key=lambda p: (
                (edge_bits[p] & uncovered).bit_count(), -costs[p], -p))
            chosen |= 1 << pos
            uncovered &= ~edge_bits[pos]
        return chosen

    def uncrossed(i: int) -> InfeasibleError:
        return InfeasibleError("family member crossed by no candidate", witness=members[i])

    bits, cost, explored = _branch_and_bound(
        cross, (), 1, 0, costs, DEFAULT_NODE_BUDGET, "exact cover", uncrossed, greedy_start)
    chosen_ids = tuple(sorted(cands[p].ident for p in range(len(cands)) if (bits >> p) & 1))
    return CoverSolution(chosen=chosen_ids, cost=cost, method="exact",
                         guarantee=Fraction(1), nodes_explored=explored)


# ---------------------------------------------------------------------------
# Primal-dual 2-approximation for uncrossable families


def primal_dual_uncrossable_cover(inst: CoverInstance) -> CoverSolution:
    """Uniform dual growth on minimal violated members + reverse delete.

    Requires an uncrossable family (checked, witness reported).  Duals
    are exact rationals; the returned guarantee is 2, and the dual
    certificate behind it is checked by :func:`certify_primal_dual`
    before the solution is returned.  A family with a member that holds
    node 0 is solved over its ``canonical()`` form, which is uncrossable
    exactly when it is, so the duals sit on the rooted members.

    Member and candidate sets are bitsets over their positions.  The
    uncovered members are kept in (size, position) order, and one scan
    per step finds the minimal ones: a member is minimal when it meets
    none met before it; one that meets one must hold it (asserted,
    witness: the member).  Else it and that minimal f, both avoiding node
    0, cross strongly, and uncrossability puts f & m or f - m in the
    family: an uncovered member strictly inside f, so f was not minimal.
    So the minimal members are pairwise disjoint, and each is crossed by
    a candidate (asserted).  Each candidate's ``paid`` (the duals of
    the members it crosses) is kept up to date as the duals grow.  The
    chosen edges are pruned in reverse order of addition by
    :func:`minimal_cover`'s pass, :func:`_reverse_delete`, so the cover
    returned is a forest (asserted).  An empty family returns the empty
    cover at once.
    """
    if not inst.family.members:
        return CoverSolution(chosen=(), cost=0, method="primal-dual", guarantee=Fraction(2))
    ok, wit = is_uncrossable(inst.family)
    if not ok:
        raise PreconditionError("family is not uncrossable", witness=wit)
    if any(m & 1 for m in inst.family.members):
        inst = CoverInstance(inst.n, inst.candidates, inst.family.canonical())
    cands = inst.candidates
    members = inst.family.members
    cand_bits, member_bits = inst.crossings
    for mask, bits in zip(members, member_bits):
        if not bits:
            raise InfeasibleError("family member crossed by no candidate",
                                  witness=mask)

    costs = [c.cost for c in cands]
    idents = [c.ident for c in cands]

    # Duals and payments are exact rationals kept as integers over one
    # shared denominator, which grows only when a step needs it.
    denom = 1
    duals: dict[int, int] = {}    # member position -> dual * denom
    paid = [0] * len(cands)       # candidate position -> paid * denom
    chosen_order: list[int] = []  # candidate positions in addition order
    holder = [0] * inst.n         # node -> the minimal member holding it
    # the uncovered members as (position, mask), smallest first; the sort
    # is stable, so equal sizes stay in position order
    uncovered = sorted(enumerate(members), key=lambda jm: jm[1].bit_count())

    while uncovered:
        minimal = []
        union = 0
        for j, m in uncovered:
            if overlap := m & union:
                # in an uncrossable family every minimal member m meets
                # lies inside m: checked on the holder of one shared node
                first = holder[(overlap & -overlap).bit_length() - 1]
                if first & ~m:
                    raise InvariantError("minimal uncovered members of an uncrossable "
                                         "family overlap", witness=m)
                continue
            minimal.append(j)
            union |= m
            rest = m
            while rest:
                low = rest & -rest
                holder[low.bit_length() - 1] = m
                rest ^= low
        minimal_bits = sum(1 << j for j in minimal)
        # uniform growth: find the candidate whose slack/(active sets crossed)
        # is smallest, with ident as tie-break; slack_b / active_b is the
        # best delta so far, compared by cross-multiplication
        pos = -1
        slack_b = active_b = ident_b = 0
        growing = []  # (pos, active sets crossed)
        for p, bits in enumerate(cand_bits):
            # a chosen candidate crosses no uncovered member: never active
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
            raise InvariantError("no candidate crosses a minimal uncovered member",
                                 witness=members[minimal[0]])
        g = math.gcd(slack_b, active_b)
        scale = active_b // g
        if scale > 1:
            denom *= scale
            paid = [x * scale for x in paid]
            duals = {j: y * scale for j, y in duals.items()}
        delta = slack_b // g   # slack_b / active_b, over the new denom
        for j in minimal:
            duals[j] = duals.get(j, 0) + delta
        if delta:
            for p, active in growing:
                paid[p] += delta * active
        chosen_order.append(pos)
        crossed = cand_bits[pos]
        uncovered = [(j, m) for j, m in uncovered if not crossed >> j & 1]

    kept = list(compress(chosen_order, _reverse_delete(
        [cand_bits[p] for p in chosen_order],
        [(cands[p].u, cands[p].v) for p in chosen_order], inst.n)))
    chosen_ids = tuple(sorted(cands[p].ident for p in kept))
    cost = sum(cands[p].cost for p in kept)
    dual_items = tuple(sorted((members[j], Fraction(y, denom))
                              for j, y in duals.items()))
    sol = CoverSolution(chosen=chosen_ids, cost=cost, method="primal-dual",
                        guarantee=Fraction(2), duals=dual_items)
    certify_primal_dual(inst, sol)
    return sol


def certify_primal_dual(inst: CoverInstance, sol: CoverSolution) -> None:
    """Check the dual certificate of a primal-dual cover, in exact rationals.

    Raises :class:`InvariantError` unless every dual sits on a family
    member or its complement, every candidate pays at most its cost for
    the duals of the members it crosses (witness: its endpoints), and
    ``cost <= 2 * sum of duals`` (witness: the two sides), which is the
    factor-2 bound of Williamson, Goemans, Mihail and Vazirani
    (Combinatorica 1995).  An edge crosses a set exactly when it crosses
    the complement, so members are looked up by canonical mask, and a
    certificate on ``inst.family.canonical()`` (pd2's duals) also
    certifies against ``inst``.
    """
    fm = full_mask(inst.n)
    position = {m ^ fm if m & 1 else m: j for j, m in enumerate(inst.family.members)}
    denom = math.lcm(*(y.denominator for _, y in sol.duals))
    scaled: dict[int, int] = {}  # member position -> dual * denom (an integer)
    for mask, y in sol.duals:
        j = position.get(mask ^ fm if mask & 1 else mask)
        if j is None:
            raise InvariantError("dual on a set outside the family", witness=mask)
        scaled[j] = scaled.get(j, 0) + y.numerator * (denom // y.denominator)
    dual_mask = sum(1 << j for j in scaled)
    cand_bits = inst.crossings.edge_bits
    for c, bits in zip(inst.candidates, cand_bits):
        # only the members with a dual that the candidate crosses
        paid = 0
        rest = bits & dual_mask
        while rest:
            low = rest & -rest
            paid += scaled[low.bit_length() - 1]
            rest ^= low
        if paid > c.cost * denom:
            raise InvariantError(
                f"candidate {c.ident} pays {Fraction(paid, denom)} > cost {c.cost}",
                witness=(c.u, c.v))
    total = Fraction(sum(scaled.values()), denom)
    if sol.cost > 2 * total:
        raise InvariantError(f"cost {sol.cost} exceeds twice the dual sum {total}",
                             witness=(sol.cost, 2 * total))


# ---------------------------------------------------------------------------
# Symmetric proper crossing families


def cover_symmetric_crossing(inst: CoverInstance) -> CoverSolution:
    """Cover a symmetric proper crossing family at guarantee 2.

    Members are normalized to the side avoiding node 0, and the rooted
    family goes to the primal-dual solver; covering it is equivalent
    because coverage ignores orientation.  The rooted family is
    uncrossable: for a strongly crossing pair of rooted sets, the family
    holds their meet and join, and both avoid node 0, so both are rooted
    members.  That theorem is asserted (:class:`InvariantError` with the
    witness pair), not assumed.
    """
    ok, wit = is_symmetric_proper_crossing(inst.family)
    if not ok:
        raise PreconditionError("family is not symmetric proper crossing",
                                witness=wit)
    rooted = inst.family.canonical()
    ok, wit = is_uncrossable(rooted)
    if not ok:
        raise InvariantError("rooted symmetric proper crossing family is not "
                             "uncrossable", witness=wit)
    sol = primal_dual_uncrossable_cover(CoverInstance(inst.n, inst.candidates, rooted))
    return replace(sol, method="symmetric-crossing/primal-dual")


# ---------------------------------------------------------------------------
# Inclusion-minimal covers


def minimal_cover(edges: Sequence, family: SetFamily) -> list:
    """Prune a cover to an inclusion-minimal one (drops later edges first).

    The result still covers the family, removing any remaining edge
    uncovers some member, and it is always a forest; the prune is
    :func:`_reverse_delete`, the primal-dual cover's too, which asserts
    the forest property because it is a theorem, not a heuristic.
    """
    pairs = _pairs(edges, family.n)
    members = family.members
    crossing = _crossing_bits(family.n, members, pairs).edge_bits
    j = _first_uncovered(crossing, len(members))
    if j is not None:
        raise PreconditionError("edge set does not cover the family",
                                witness=members[j])

    return list(compress(edges, _reverse_delete(crossing, pairs, family.n)))


def _reverse_delete(crossing: Sequence[int], pairs: Sequence[tuple[int, int]],
                    n: int) -> list[bool]:
    """Which edges of a cover an inclusion-minimal subcover keeps, trying
    the last edge first; ``crossing`` holds each edge's member bitset.

    One pass: an edge goes when every member it crosses has another kept
    edge, among the edges before it (all still kept) or the kept ones
    after it.  Each kept edge then crosses a member no other kept edge
    crosses, and a cycle crosses every set an even number of times, so
    the kept edges form a forest; that theorem is asserted.
    """
    before = [0]
    for bits in crossing:
        before.append(before[-1] | bits)
    kept_after = 0
    keep = [True] * len(pairs)
    for idx in range(len(pairs) - 1, -1, -1):
        if crossing[idx] & ~(before[idx] | kept_after):
            kept_after |= crossing[idx]
        else:
            keep[idx] = False
    sets = DisjointSets(n)
    for i, kept in enumerate(keep):
        if kept and not sets.union(*pairs[i]):
            raise InvariantError("minimal cover contains a cycle", witness=pairs[i])
    return keep


# ---------------------------------------------------------------------------
# Pluggable solver slots


@dataclass(frozen=True)
class SolverSlot:
    """A named cover solver.  Its guarantee is the one each of its
    solutions reports."""

    name: str
    solve: Callable[[CoverInstance], CoverSolution] = field(compare=False)


# The named slots.  No solve picks a slot by name: each family's structure
# fixes its cover.  ``perfbench/tracing.py`` (``SLOT_NAMES``) swaps each
# slot for a traced twin, and ``tests/test_benchmark_names.py`` checks
# that these names resolve.
PD2_SLOT = SolverSlot("pd2", primal_dual_uncrossable_cover)
EXACT_SLOT = SolverSlot("exact", exact_min_cover)

SOLVER_SLOTS: dict[str, SolverSlot] = {s.name: s for s in (PD2_SLOT, EXACT_SLOT)}

# The one pluggable slot: single-level (laminar / ring-like) families,
# read at call time by both staged solvers.  A sharper solver can be
# plugged here; the guarantee its solutions report reaches every phase
# log and bound downstream.
ring_cover_solver: SolverSlot = PD2_SLOT


# ---------------------------------------------------------------------------
# The cover step of both staged solvers


@dataclass(frozen=True)
class PhaseLog:
    """One stage of a staged solver: the level it covers, what it covered,
    which solver, and the edges it added.  ``nodes_explored`` counts work,
    so two logs of the same answer compare equal whatever it reads."""

    level: int
    name: str
    family_size: int
    solver: str
    cost: int
    guarantee: Fraction
    added: tuple[int, ...]
    nodes_explored: int = field(default=0, compare=False)


def _candidates_outside(g: Multigraph, h_ids: set[int]) -> tuple[Candidate, ...]:
    return tuple(Candidate(i, e.u, e.v, e.cost) for i, e in enumerate(g.edges)
                 if i not in h_ids)


def _added_cost(g: Multigraph, new_ids: Iterable[int]) -> int:
    return sum(g.edges[i].cost for i in new_ids)


def _cover_phase(level: int, name: str, g: Multigraph, h: set[int], fam: SetFamily,
                 solve: Callable[[CoverInstance], CoverSolution],
                 pool: Optional[set[int]] = None) -> PhaseLog:
    """Cover ``fam`` from the edges of ``g`` outside ``pool`` (default: H),
    add the chosen edges H lacks, and log them with the method and the
    guarantee the solution reports.  An empty family needs no candidate:
    its solve is one trivial call, logged as solver ``"none"``."""
    cands = _candidates_outside(g, h if pool is None else pool) if len(fam) else ()
    sol = solve(CoverInstance(g.n, cands, fam))
    new_ids = tuple(i for i in sol.chosen if i not in h)
    h.update(new_ids)
    return PhaseLog(level, name, len(fam), sol.method if len(fam) else "none",
                    _added_cost(g, new_ids), sol.guarantee, new_ids, sol.nodes_explored)
