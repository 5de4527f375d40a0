"""The exact branch and bound engine against earlier versions of itself.

``minimum_flex_subgraph`` (the oracle and the kecss seed) and
``exact_min_cover`` are both thin callers of one engine,
``family_cover._branch_and_bound``: one violated-row list per node,
carried down the tree, and bounds that walk the columns in cost order.
The first versions of both searches are copied here verbatim as slow
references, and so is the flex search as it stood just before it moved
into the engine.

``exact_min_cover`` keeps the first version's search tree: every
result, ``nodes_explored`` included, must equal the reference's.

``minimum_flex_subgraph`` also prunes with a degree bound the first
version lacks.  The tree's shape does not depend on pruning, and a valid
bound never cuts off the first optimal leaf, so the edge set, its cost
and the witness of an infeasible instance must equal the first
version's, while ``nodes_explored`` may only fall.  Where the first
version finishes within a node budget, the search finishes within it
too, with the same answer.  Against the version with the degree bound,
every outcome, ``nodes_explored`` included, must be equal.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearcut.family_cover as family_cover
import nearcut.fgc as fgc
from nearcut import (
    BudgetError,
    CoverInstance,
    CoverSolution,
    EdgeRecord,
    InfeasibleError,
    Multigraph,
    SetFamily,
    deficient_family,
    exact_min_cover,
    minimum_flex_subgraph,
)
from nearcut.family_cover import Candidate
from nearcut.fgc import NOT_FLEX_CONNECTED, ExactSubgraphResult
from nearcut.harness import (
    GenSpec,
    generate,
    make_augment_corpus,
    make_uncrossable_cover_corpus,
)
from nearcut.multigraph import check_exhaustive_build, edge_crosses


# ---------------------------------------------------------------------------
# Slow references (verbatim bodies)


def reference_minimum_flex_subgraph(g: Multigraph, k: int, q: int,
                                    node_budget: int = fgc.DEFAULT_NODE_BUDGET) -> ExactSubgraphResult:
    """The search as first written: three full cut scans per node."""
    if g.n < 2:
        return ExactSubgraphResult((), 0, 0)
    m = g.m
    n_cuts = (1 << (g.n - 1)) - 1
    cross = [0] * (n_cuts + 1)
    ucross = [0] * (n_cuts + 1)
    for pos, e in enumerate(g.edges):
        for i in range(1, n_cuts + 1):
            mask = i << 1
            if edge_crosses(e.u, e.v, mask):
                cross[i] |= 1 << pos
                if e.unsafe:
                    ucross[i] |= 1 << pos
    costs = [e.cost for e in g.edges]
    all_bits = (1 << m) - 1

    def deficit(i: int, bits: int) -> int:
        d = bin(cross[i] & bits).count("1")
        du = bin(ucross[i] & bits).count("1")
        return k + min(du, q) - d

    def feasible(bits: int) -> Optional[int]:
        """Index of the first violated cut, or None."""
        for i in range(1, n_cuts + 1):
            if deficit(i, bits) > 0:
                return i
        return None

    first_bad = feasible(all_bits)
    if first_bad is not None:
        raise InfeasibleError(
            "graph itself is not flex-connected at the requested level",
            witness=first_bad << 1)

    # deterministic greedy upper bound: strip expensive edges first
    best_bits = all_bits
    for pos in sorted(range(m), key=lambda p: (-costs[p], -p)):
        trial = best_bits & ~(1 << pos)
        if feasible(trial) is None:
            best_bits = trial
    best_cost = sum(costs[p] for p in range(m) if (best_bits >> p) & 1)
    best = [best_cost, best_bits]
    explored = [0]

    sorted_by_cost = sorted(range(m), key=lambda p: (costs[p], p))

    def lower_bound(included: int, avail: int) -> int:
        lb = 0
        used = 0
        for i in range(1, n_cuts + 1):
            need = deficit(i, included)
            if need <= 0:
                continue
            opts = cross[i] & avail & ~included
            if opts & used:
                continue
            opt_costs = sorted(costs[p] for p in range(m) if (opts >> p) & 1)
            lb += sum(opt_costs[:need])
            used |= opts
        return lb

    def search(included: int, excluded: int, cost_now: int):
        explored[0] += 1
        if explored[0] > node_budget:
            raise BudgetError(f"exact search exceeded {node_budget} nodes")
        avail = all_bits & ~excluded
        if feasible(avail) is not None:
            return
        target = None
        best_fanout = None
        for i in range(1, n_cuts + 1):
            if deficit(i, included) > 0:
                fanout = bin(cross[i] & avail & ~included).count("1")
                if best_fanout is None or fanout < best_fanout:
                    best_fanout, target = fanout, i
        if target is None:
            if cost_now < best[0]:
                best[0], best[1] = cost_now, included
            return
        if cost_now + lower_bound(included, avail) >= best[0]:
            return
        opts = cross[target] & avail & ~included
        tried = 0
        for pos in sorted_by_cost:
            if not (opts >> pos) & 1:
                continue
            search(included | (1 << pos), excluded | tried, cost_now + costs[pos])
            tried |= 1 << pos

    search(0, 0, 0)
    ids = tuple(p for p in range(m) if (best[1] >> p) & 1)
    return ExactSubgraphResult(edge_ids=ids, cost=best[0], nodes_explored=explored[0])


def reference_degree_bound_flex_subgraph(g: Multigraph, k: int, q: int,
                                         node_budget: int = fgc.DEFAULT_NODE_BUDGET) -> ExactSubgraphResult:
    """The search with the degree bound and the carried violated-cut
    list, as it stood before it became a caller of the shared engine."""
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
    if q:
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
        raise InfeasibleError(NOT_FLEX_CONNECTED, witness=first_bad << 1)

    def breaks(bits: int, edge: int) -> bool:
        """Whether ``bits`` violates a cut that the edge bit ``edge`` crosses."""
        if q == 0:
            return any((c & bits).bit_count() < k for c in cross if c & edge)
        return any((c & bits).bit_count() < k + min((u & bits).bit_count(), q)
                   for c, u in zip(cross, ucross) if c & edge)

    # deterministic greedy upper bound: strip expensive edges first;
    # best_bits stays feasible, so a removal can only break cuts it crosses
    best_bits = all_bits
    for pos in sorted(range(m), key=lambda p: (-costs[p], -p)):
        trial = best_bits & ~(1 << pos)
        if not breaks(trial, 1 << pos):
            best_bits = trial
    best_cost = sum(costs[p] for p in range(m) if (best_bits >> p) & 1)
    best = [best_cost, best_bits]
    explored = [0]

    sorted_by_cost = sorted(range(m), key=lambda p: (costs[p], p))
    # the singleton cuts {v}, canonical index and incident edges cheapest first
    singles = [((1 << (g.n - 1)) - 1 if v == 0 else 1 << (v - 1),
                [p for p in sorted_by_cost if (incident[v] >> p) & 1])
               for v in range(g.n)]

    def pruned(viol: list[tuple[int, int]], included: int, free: int,
               slack: int) -> bool:
        """Whether a lower bound on the remaining cost reaches ``slack``."""
        # degree bound: each new edge serves two singleton cuts, so half
        # of the summed cheapest completions is a bound; costs are integers
        tot = 0
        for i, by_cost in singles:
            need = deficit(i, included)
            if need <= 0:
                continue
            for pos in by_cost:
                if (free >> pos) & 1:
                    tot += costs[pos]
                    need -= 1
                    if not need:
                        break
            if tot >= 2 * slack - 1:
                return True
        # disjoint-cut bound: violated cuts with disjoint undecided support
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
        if pruned(viol, included, free, best[0] - cost_now):
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


def _crossing_candidates(cands, mask: int) -> list[int]:
    return [i for i, c in enumerate(cands) if edge_crosses(c.u, c.v, mask)]


def reference_exact_min_cover(inst: CoverInstance,
                              node_budget: int = family_cover.DEFAULT_NODE_BUDGET) -> CoverSolution:
    """The cover search as first written: ``min`` over every position."""
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

    def lower_bound(chosen: int, avail: int) -> int:
        used = 0
        lb = 0
        for mi in range(len(members)):
            if cross[mi] & chosen:
                continue
            opts = cross[mi] & avail
            if opts & used:
                continue
            cheapest = min(costs[p] for p in range(len(cands)) if (opts >> p) & 1)
            lb += cheapest
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
# Helpers


def outcome(search, *args, **kw):
    """The result, or the error kind with its witness, as one comparable value."""
    try:
        return "ok", search(*args, **kw)
    except InfeasibleError as exc:
        return "infeasible", exc.witness
    except BudgetError:
        return "budget", None


def with_budget(search, nodes: int):
    """``search`` run with its module's node budget constant set to ``nodes``."""
    module = fgc if search is minimum_flex_subgraph else family_cover

    def run(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "DEFAULT_NODE_BUDGET", nodes)
            return search(*args)
    return run


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


FLEX_CELLS = [(k, q, n, unit) for k in (1, 2, 3, 4) for q in (0, 1, 2)
              for n in (5, 6, 7) for unit in (False, True)]


def flex_corpus(seed: int):
    rng = random.Random(seed)
    return [(flex_graph(rng, n, k, q, unit), k, q) for k, q, n, unit in FLEX_CELLS]


# ---------------------------------------------------------------------------
# minimum_flex_subgraph


@pytest.fixture(scope="module")
def flex_reference():
    """The seeded corpus with the reference search's result for each case."""
    return [(g, k, q, reference_minimum_flex_subgraph(g, k, q))
            for g, k, q in flex_corpus(3101)]


def same_answer(got, ref) -> bool:
    """Equal edge set and cost, in no more nodes than the reference."""
    return ((got.edge_ids, got.cost) == (ref.edge_ids, ref.cost)
            and got.nodes_explored <= ref.nodes_explored)


def same_outcome(got, ref) -> bool:
    """:func:`same_answer` where the reference finished, the same witness
    where it found the graph infeasible, anything where it ran out."""
    if ref[0] == "ok":
        return got[0] == "ok" and same_answer(got[1], ref[1])
    return ref[0] == "budget" or got == ref


def test_flex_search_matches_reference_on_seeded_corpus(flex_reference):
    for g, k, q, ref in flex_reference:
        assert same_answer(minimum_flex_subgraph(g, k, q), ref), (g, k, q)
    assert sum(ref.nodes_explored for *_, ref in flex_reference) > 10 * len(FLEX_CELLS)


def test_degree_bound_halves_the_seeded_corpus(flex_reference):
    # 15,838 reference nodes against 7,687 with the degree bound
    ref_nodes = sum(ref.nodes_explored for *_, ref in flex_reference)
    nodes = sum(minimum_flex_subgraph(g, k, q).nodes_explored
                for g, k, q, _ in flex_reference)
    assert 2 * nodes <= ref_nodes, (nodes, ref_nodes)


def test_degree_bound_on_the_sixteen_node_kecss():
    # without the degree bound this k = 2 spanning step took 288,369 nodes
    g = generate(GenSpec(n_min=16, n_max=16, density=0.5, unsafe_p=0.3,
                         cost_min=1, cost_max=9, seed=18))
    res = with_budget(minimum_flex_subgraph, 20_000)(g, 2, 0)
    assert res.cost == 46


def test_flex_search_pins_the_degree_bound_tree_on_seeded_corpus(flex_reference):
    for g, k, q, _ in flex_reference:
        assert minimum_flex_subgraph(g, k, q) == \
            reference_degree_bound_flex_subgraph(g, k, q), (g, k, q)


@st.composite
def flex_cases(draw):
    n = draw(st.integers(2, 6))
    node = st.integers(0, n - 1)
    specs = draw(st.lists(st.tuples(node, node, st.integers(0, 5), st.booleans()),
                          max_size=3 * n))
    g = Multigraph(n, tuple(EdgeRecord(u, v, cost, 1, unsafe)
                            for u, v, cost, unsafe in specs if u != v))
    return g, draw(st.integers(1, 3)), draw(st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(flex_cases())
def test_property_flex_search_matches_reference(case):
    g, k, q = case
    assert same_outcome(outcome(with_budget(minimum_flex_subgraph, 3000), g, k, q),
                        outcome(reference_minimum_flex_subgraph, g, k, q,
                                node_budget=3000))


@settings(max_examples=150, deadline=None)
@given(flex_cases())
def test_property_flex_search_pins_the_degree_bound_tree(case):
    g, k, q = case
    assert outcome(with_budget(minimum_flex_subgraph, 3000), g, k, q) == \
        outcome(reference_degree_bound_flex_subgraph, g, k, q, node_budget=3000)


def test_infeasible_witness_is_the_first_violated_cut():
    rng = random.Random(3102)
    seen = 0
    for _ in range(80):
        n = rng.randint(2, 7)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
        g = Multigraph(n, tuple(EdgeRecord(u, v, rng.randint(1, 5), 1, rng.random() < 0.5)
                                for u, v in pairs))
        for k in (1, 2, 3):
            for q in (0, 1, 2):
                got = outcome(minimum_flex_subgraph, g, k, q)
                assert same_outcome(got, outcome(reference_minimum_flex_subgraph, g, k, q))
                seen += got[0] == "infeasible"
    assert seen > 100


def test_budget_stops_after_the_searchs_own_count(flex_reference, seeded_covers):
    """With its module's budget constant set to N, a search that needs N
    nodes finishes with its answer, and one that needs more raises
    :class:`BudgetError` naming N."""
    cases = [(minimum_flex_subgraph, (g, k, q)) for g, k, q, _ in flex_reference]
    cases += [(exact_min_cover, (inst,)) for inst in seeded_covers]
    picked = {minimum_flex_subgraph: 0, exact_min_cover: 0}
    for search, args in cases:
        got = search(*args)
        n_nodes = got.nodes_explored
        if n_nodes < 2:
            continue
        picked[search] += 1
        assert with_budget(search, n_nodes)(*args) == got
        with pytest.raises(BudgetError, match=f"exceeded {n_nodes - 1} nodes"):
            with_budget(search, n_nodes - 1)(*args)
    assert picked[minimum_flex_subgraph] > len(FLEX_CELLS) // 2
    assert picked[exact_min_cover] > len(seeded_covers) // 2


# ---------------------------------------------------------------------------
# exact_min_cover


def augment_cover(inst) -> CoverInstance:
    """The cover instance exact_augment solves."""
    g = inst.graph
    base = Multigraph(g.n, tuple(e for e in g.edges if e.base))
    cands = tuple(Candidate(i, g.edges[i].u, g.edges[i].v, g.edges[i].cost)
                  for i in inst.candidate_ids)
    return CoverInstance(g.n, cands, deficient_family(base, inst.k))


@pytest.fixture(scope="module")
def seeded_covers() -> list[CoverInstance]:
    """The augment and uncrossable cover corpora."""
    covers = [augment_cover(inst) for _, inst in make_augment_corpus(40, 3104)]
    return covers + [inst for _, inst in make_uncrossable_cover_corpus(30, 3105)]


def test_cover_search_matches_reference_on_seeded_corpora(seeded_covers):
    nodes = 0
    for inst in seeded_covers:
        got = exact_min_cover(inst)
        assert got == reference_exact_min_cover(inst)
        nodes += got.nodes_explored
    assert nodes > 10 * len(seeded_covers)


@st.composite
def cover_cases(draw):
    n = draw(st.integers(3, 7))
    masks = draw(st.sets(st.integers(1, (1 << (n - 1)) - 1), min_size=1, max_size=12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node, st.integers(0, 6)), max_size=12))
    cands = tuple(Candidate(j, u, v, cost) for j, (u, v, cost) in enumerate(pairs)
                  if u != v)
    return CoverInstance(n, cands, SetFamily(n, tuple(sorted(m << 1 for m in masks))))


@settings(max_examples=150, deadline=None)
@given(cover_cases())
def test_property_cover_search_matches_reference(inst):
    assert outcome(with_budget(exact_min_cover, 3000), inst) == \
        outcome(reference_exact_min_cover, inst, node_budget=3000)
