"""Seeded workloads of the nearcut benchmark: generators, ops and checks.

The generators use only ``random`` and produce plain edge tuples, so a
change to ``nearcut.harness.make_*_corpus`` cannot change a workload.
Package objects are built from those tuples outside the timed window,
fresh for every op, so every op pays the same cold caches.

Each workload defines:

* ``generate(seed)`` -> list of instance specs (plain tuples);
* ``prepare(spec)`` -> the package objects one op consumes (untimed);
* ``op(args)`` -> the solver/checker call that is timed;
* ``oracle(args)`` -> the exact oracle, timed separately (ratio-small);
* ``check(spec, out, oracle_out)`` -> list of problems, run untimed;
* ``summary(out, oracle_out)`` -> a small value every repeat must
  reproduce; the run keeps only this of each output;
* ``deferred(spec, summary)`` -> problems found with networkx, run after
  the peak-memory reading so its import is not counted;
* ``cost(summary)`` and ``ratio(summary)`` where the workload has them.

The package is imported lazily (``_nc()``) so that the import is part of
the measured set-up time.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def _nc():
    import nearcut
    return nearcut


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding is hashed with SHA-512, so it is stable across
    # processes and Python versions.
    return random.Random(f"{workload}/{seed}")


def _tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(v), v) for v in range(1, n)]


def _cycle(rng: random.Random, n: int) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i], perm[(i + 1) % n]) for i in range(n)]


def _extra(rng: random.Random, n: int) -> tuple[int, int] | None:
    u, v = rng.randrange(n), rng.randrange(n)
    return (min(u, v), max(u, v)) if u != v else None


def _base_edges(rng: random.Random, n: int, lam0: int) -> list[tuple[int, int]]:
    """Base with exact connectivity lam0: tree, cycle, cycle-and-a-half,
    doubled cycle."""
    if lam0 == 1:
        return _tree(rng, n)
    cyc = _cycle(rng, n)
    if lam0 == 2:
        return cyc
    if lam0 == 3:
        return cyc + cyc[1:]
    if lam0 == 4:
        return cyc + cyc
    raise ValueError(f"no base construction for lam0 = {lam0}")


def _augment_spec(rng: random.Random, n: int, lam0: int, k: int,
                  extras: int) -> tuple:
    """("augment", n, k, lam0, edges) with base edges first.

    Edge tuples are (u, v, cost, capacity, base).  A spanning candidate
    cycle closes every deficient cut, so the instance is feasible.
    """
    gap = k - lam0
    edges = [(u, v, 0, 1, True) for (u, v) in _base_edges(rng, n, lam0)]
    cands = _cycle(rng, n)
    for _ in range(extras):
        e = _extra(rng, n)
        if e is not None:
            cands.append(e)
    edges += [(u, v, rng.randint(1, 9), gap, False) for (u, v) in cands]
    return ("augment", n, k, lam0, tuple(edges))


def _augment_instance(spec: tuple):
    nc = _nc()
    _, n, k, _lam0, edges = spec
    g = nc.Multigraph(n, tuple(nc.EdgeRecord(u, v, c, cap, False, base)
                               for (u, v, c, cap, base) in edges))
    return nc.AugmentInstance(g, k)


def _stoer_wagner(n: int, edges) -> int:
    """Minimum cut by Stoer-Wagner (networkx), parallel capacities summed."""
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(n))
    for u, v, cap in edges:
        if h.has_edge(u, v):
            h[u][v]["weight"] += cap
        else:
            h.add_edge(u, v, weight=cap)
    if not nx.is_connected(h):
        return 0
    value, _ = nx.stoer_wagner(h)
    return int(value)


def _augment_final_edges(spec: tuple, chosen) -> list[tuple[int, int, int]]:
    _, _n, k, lam0, edges = spec
    picked = set(chosen)
    out = []
    for i, (u, v, _c, cap, base) in enumerate(edges):
        if base:
            out.append((u, v, cap))
        elif i in picked:
            out.append((u, v, k - lam0))
    return out


def _augment_cost(spec: tuple, chosen) -> int:
    edges = spec[4]
    return sum(edges[i][2] for i in chosen)


def _check_augment(spec: tuple, res) -> list[str]:
    nc = _nc()
    _, _n, k, lam0, edges = spec
    bad = []
    if res.lam0 != lam0:
        bad.append(f"lam0 {res.lam0} != constructed {lam0}")
    if res.bound != nc.implemented_ratio_bound(lam0, k):
        bad.append(f"bound {res.bound} != implemented_ratio_bound({lam0}, {k})")
    if any(edges[i][4] for i in res.chosen):
        bad.append("a base edge was bought")
    if res.cost != _augment_cost(spec, res.chosen):
        bad.append(f"reported cost {res.cost} != recomputed {_augment_cost(spec, res.chosen)}")
    return bad


def _deferred_augment(spec: tuple, chosen, what: str) -> list[str]:
    n, k = spec[1], spec[2]
    value = _stoer_wagner(n, _augment_final_edges(spec, chosen))
    return [] if value >= k else [f"{what}: Stoer-Wagner min cut {value} < k = {k}"]


# ---------------------------------------------------------------------------
# augment-ladder


# One (lam0, k) pair per parity class and rung; gaps are at most 4 and
# every base construction appears.  n = 19 and 20 carry two parity
# classes each so that one pass stays a few seconds long.
_LADDER = (
    (16, ((4, 8), (2, 5), (1, 4), (3, 5))),
    (17, ((2, 6), (4, 7), (3, 6), (1, 5))),
    (18, ((2, 4), (2, 3), (1, 2), (3, 7))),
    (19, ((4, 5), (3, 4))),
    (20, ((2, 6), (3, 5))),
)


class AugmentLadder:
    name = "augment-ladder"
    why = ("near_min_cuts_cover at n = 16..20 over all four (lam0, k) parities: "
           "the large cut tables and level scans, no branch and bound")
    has_oracle = False

    def generate(self, seed: int) -> list[tuple]:
        rng = _rng(self.name, seed)
        return [_augment_spec(rng, n, lam0, k, extras=n)
                for n, pairs in _LADDER for (lam0, k) in pairs]

    def prepare(self, spec):
        return _augment_instance(spec)

    def op(self, inst):
        return _nc().near_min_cuts_cover(inst)

    def check(self, spec, res, _oracle) -> list[str]:
        return _check_augment(spec, res)

    def summary(self, res, _oracle):
        return (res.chosen, res.cost, res.bound)

    def deferred(self, spec, summary) -> list[str]:
        return _deferred_augment(spec, summary[0], "algorithm")

    def cost(self, summary) -> int:
        return summary[1]


# ---------------------------------------------------------------------------
# ratio-small


# The tier-1 ratio corpora: all four (lam0, k) parity classes with gap
# <= 4 for augmentation, every (k, q) with k in 1..4 and q in 0..2 for
# flexible connectivity, weighted and unit cost.  Solve times spread over
# three orders of magnitude, and the node count explains much of it, so
# every (combo, n) cell is drawn once and seeds differ only in the graphs
# drawn; weighted flex cells, where branch and bound varies most, twice.
# Unit cost is the slowest corpus; each (k, q) gets one n, and
# the assignment keeps all three sizes, the slowest cell (3, 2) at n = 7
# included.
_AUG_COMBOS = ((2, 4), (4, 6), (2, 6), (4, 8), (2, 3), (4, 5), (2, 5),
               (1, 2), (3, 4), (1, 4), (1, 3), (3, 5), (1, 5), (3, 7))
_FGC_COMBOS = tuple((k, q) for k in (1, 2, 3, 4) for q in (0, 1, 2))
_AUG_CELLS = tuple((lam0, k, n) for (lam0, k) in _AUG_COMBOS for n in (5, 6, 7, 8))
_FGC_CELLS = tuple((k, q, n) for (k, q) in _FGC_COMBOS for n in (5, 6, 7))
_UNIT_CELLS = tuple((k, q, 5 + (k + q) % 3) for (k, q) in _FGC_COMBOS)


def _fgc_spec(rng: random.Random, k: int, q: int, n: int, unit: bool) -> tuple:
    """("fgc"|"unit", n, k, q, edges) with edge tuples (u, v, cost, unsafe).

    (k + q + 1) // 2 random spanning cycles give min cut >= k + q, so the
    whole graph is (k, q)-flex-connected and both solver and oracle
    succeed.  At most 22 edges keeps the oracle under its edge limit.
    """
    pairs: list[tuple[int, int]] = []
    for _ in range((k + q + 1) // 2):
        pairs.extend(_cycle(rng, n))
    for _ in range(rng.randint(0, max(0, min(3, 22 - len(pairs))))):
        e = _extra(rng, n)
        if e is not None:
            pairs.append(e)
    edges = tuple((u, v, 1 if unit else rng.randint(1, 9), rng.random() < 0.35)
                  for (u, v) in pairs)
    return ("unit" if unit else "fgc", n, k, q, edges)


def _flex_instance(spec: tuple):
    nc = _nc()
    _, n, k, q, edges = spec
    g = nc.Multigraph(n, tuple(nc.EdgeRecord(u, v, c, 1, unsafe, False)
                               for (u, v, c, unsafe) in edges))
    return nc.FlexInstance(g, k, q)


class RatioSmall:
    name = "ratio-small"
    why = ("tier-1 ratio corpora at n = 5..8: solver and exact oracle timed "
           "apart; branch and bound dominates, cut tables are tiny")
    has_oracle = True

    def generate(self, seed: int) -> list[tuple]:
        rng = _rng(self.name, seed)
        out = [_augment_spec(rng, n, lam0, k, extras=rng.randint(0, min(8, 20 - n)))
               for (lam0, k, n) in _AUG_CELLS]
        out += [_fgc_spec(rng, *cell, unit=False) for _ in range(2) for cell in _FGC_CELLS]
        out += [_fgc_spec(rng, *cell, unit=True) for cell in _UNIT_CELLS]
        return out

    def prepare(self, spec):
        if spec[0] == "augment":
            return spec[0], _augment_instance(spec)
        return spec[0], _flex_instance(spec)

    def op(self, args):
        kind, inst = args
        nc = _nc()
        if kind == "augment":
            return nc.near_min_cuts_cover(inst)
        return nc.solve_fgc(inst, unit_cost=(kind == "unit"))

    def oracle(self, args):
        kind, inst = args
        nc = _nc()
        if kind == "augment":
            return nc.exact_augment(inst)
        return nc.exact_fgc(inst)

    def check(self, spec, out, oracle) -> list[str]:
        if spec[0] == "augment":
            bad = _check_augment(spec, out)
            bound = out.bound
            if oracle.cost != _augment_cost(spec, oracle.chosen):
                bad.append("oracle cost does not match its chosen edges")
        else:
            bad = self._check_fgc(spec, out, oracle)
            bound = out.guarantee
        if oracle.cost > out.cost:
            bad.append(f"oracle cost {oracle.cost} > algorithm cost {out.cost}")
        if oracle.cost <= 0:
            bad.append(f"oracle cost {oracle.cost} is not positive")
        elif Fraction(out.cost, oracle.cost) > bound:
            bad.append(f"ratio {Fraction(out.cost, oracle.cost)} > logged bound {bound}")
        return bad

    @staticmethod
    def _check_fgc(spec, sol, oracle) -> list[str]:
        nc = _nc()
        _, _n, k, q, edges = spec
        g = _flex_instance(spec).graph
        bad = []
        if not nc.flex_connected_by_removal(g, sol.edge_ids, k, q):
            bad.append(f"solver output is not ({k}, {q})-flex-connected")
        if not nc.flex_connected_by_removal(g, oracle.edge_ids, k, q):
            bad.append(f"oracle output is not ({k}, {q})-flex-connected")
        if sol.cost != sum(edges[i][2] for i in sol.edge_ids):
            bad.append("solver cost does not match its edges")
        if oracle.cost != sum(edges[i][2] for i in oracle.edge_ids):
            bad.append("oracle cost does not match its edges")
        return bad

    def summary(self, out, oracle):
        """(chosen ids, cost, oracle ids, oracle cost)."""
        if hasattr(out, "edge_ids"):
            return (out.edge_ids, out.cost, oracle.edge_ids, oracle.cost)
        return (out.chosen, out.cost, oracle.chosen, oracle.cost)

    def deferred(self, spec, summary) -> list[str]:
        if spec[0] != "augment":
            return []
        return (_deferred_augment(spec, summary[0], "algorithm")
                + _deferred_augment(spec, summary[2], "oracle"))

    def cost(self, summary) -> int:
        return summary[1]

    def ratio(self, summary) -> Fraction:
        return Fraction(summary[1], summary[3])


# ---------------------------------------------------------------------------
# structure-mid


# Every (n, skeleton, density band) cell gets the same number of graphs,
# and every (n, k) cell of flex graphs likewise, so that seeds differ in
# the graphs drawn but not in the mix of sizes.
_NODES = (12, 13, 14, 15, 16)
_SQUARE_CELLS = tuple((n, tree, band) for n in _NODES for tree in (True, False)
                      for band in range(3))
_FLEX_CELLS = tuple((n, k) for n in _NODES for k in (1, 3))
_SQUARE_REPS = 3
_FLEX_REPS = 3


def _square_spec(rng: random.Random, n: int, tree: bool, band: int) -> tuple:
    """Tree or cycle skeleton plus extras; ``band`` 0..2 picks the third of
    [skeleton size, 3n] the edge count is drawn from."""
    skeleton = _tree(rng, n) if tree else _cycle(rng, n)
    lo = len(skeleton)
    step = (3 * n - lo) / 3
    m = rng.randint(lo + round(band * step), lo + round((band + 1) * step))
    pairs = list(skeleton)
    while len(pairs) < m:
        e = _extra(rng, n)
        if e is not None:
            pairs.append(e)
    return ("squares", n, tuple((u, v, False) for (u, v) in pairs))


def _flex_graph_spec(rng: random.Random, n: int, k: int) -> tuple:
    """A cycle (k = 1) or doubled cycle (k = 3): every cut has >= k + 1
    edges, so the graph is (k, 1)-flex-connected whatever is unsafe."""
    pairs = _cycle(rng, n) if k == 1 else _cycle(rng, n) + _cycle(rng, n)
    for _ in range(rng.randint(0, 2)):
        e = _extra(rng, n)
        if e is not None:
            pairs.append(e)
    p = rng.choice((0.45, 0.65, 0.9))
    return (f"flex-k{k}", n, tuple((u, v, rng.random() < p) for (u, v) in pairs))


def _crossing_count(mask: int, edges, unsafe_only: bool = False) -> int:
    return sum(1 for (u, v, unsafe) in edges
               if ((mask >> u) & 1) != ((mask >> v) & 1)
               and (unsafe or not unsafe_only))


class StructureMid:
    name = "structure-mid"
    why = ("shipped checkers at n = 12..16: squares of near-minimum cuts and "
           "the level-2 flex split; many small cut tables under all filters")
    has_oracle = False

    def generate(self, seed: int) -> list[tuple]:
        rng = _rng(self.name, seed)
        out = [_square_spec(rng, *cell)
               for _ in range(_SQUARE_REPS) for cell in _SQUARE_CELLS]
        out += [_flex_graph_spec(rng, *cell)
                for _ in range(_FLEX_REPS) for cell in _FLEX_CELLS]
        return out

    def prepare(self, spec):
        nc = _nc()
        kind, n, edges = spec
        g = nc.Multigraph(n, tuple(nc.EdgeRecord(u, v, 0, 1, unsafe, False)
                                   for (u, v, unsafe) in edges))
        return kind, g

    def op(self, args):
        kind, g = args
        nc = _nc()
        if kind == "squares":
            lam = nc.min_cut_value(g)
            cuts = nc.enumerate_cuts_at_most(g, lam + 1)
            masks = [c.mask for c in cuts]
            squares = []
            for a, b in itertools.combinations(masks, 2):
                if nc.crosses_strongly(a, b, g.n):
                    sq = nc.build_square(g, a, b, lam=lam)
                    squares.append((a, b, sq, nc.classify_square(sq)))
            uncrossable = None
            if lam % 2 == 0:
                uncrossable, _ = nc.is_uncrossable(nc.SetFamily(g.n, tuple(masks)))
            return lam, cuts, squares, uncrossable
        k = int(kind[len("flex-k"):])
        ids = range(g.m)
        fam = nc.enumerate_Fq(g, ids, k, 2)
        split = nc.decompose_F2_odd(g, ids, k)
        return fam, split

    def check(self, spec, out, _oracle) -> list[str]:
        kind, n, edges = spec
        if kind == "squares":
            return self._check_squares(n, edges, out)
        return self._check_flex(n, edges, int(kind[len("flex-k"):]), out)

    @staticmethod
    def _check_squares(n, edges, out) -> list[str]:
        nc = _nc()
        lam, cuts, squares, uncrossable = out
        bad = []
        value = {}
        for c in cuts:
            d = _crossing_count(c.mask, edges)
            value[c.mask] = d
            if d != c.size or d > lam + 1 or d < lam:
                bad.append(f"cut {c.mask:#x}: recounted {d}, reported {c.size}")
        for a, b, sq, case in squares:
            if any(sq.formula_residuals()) or any(sq.counting_residuals()):
                bad.append(f"square {a:#x}/{b:#x} has non-zero residuals")
            if case is nc.SquareCase.OTHER:
                bad.append(f"square {a:#x}/{b:#x} is unclassified")
            if sorted((sq.da, sq.db)) != sorted((value[a], value[b])):
                bad.append(f"square {a:#x}/{b:#x} sides disagree with cut values")
        if lam % 2 == 0 and uncrossable is not True:
            bad.append(f"{{lam, lam+1}}-cuts at even lam = {lam} not uncrossable")
        return bad

    @staticmethod
    def _check_flex(n, edges, k, out) -> list[str]:
        nc = _nc()
        fam, split = out
        bad = []
        full = (1 << n) - 1
        for mask in fam.members:
            if (_crossing_count(mask, edges) != k + 1
                    or _crossing_count(mask, edges, unsafe_only=True) < 2):
                bad.append(f"F2 member {mask:#x} has the wrong counts")
        dprime = set(split.f_dprime.members)
        placed = set(split.f_prime.members) | dprime | {m ^ full for m in dprime}
        if not set(fam.members) <= placed:
            bad.append("decomposition lost a level-2 member")
        if not nc.is_uncrossable(split.f_prime)[0]:
            bad.append("uncrossable side is not uncrossable")
        if not nc.is_symmetric_proper_crossing(split.f_dprime)[0]:
            bad.append("symmetric side is not symmetric proper crossing")
        return bad

    def summary(self, out, _oracle):
        if len(out) == 4:
            lam, cuts, squares, uncrossable = out
            return (lam, tuple(c.mask for c in cuts),
                    tuple(case for *_, case in squares), uncrossable)
        fam, split = out
        return (fam.members, split.f_prime.members, split.f_dprime.members)

    def deferred(self, spec, summary) -> list[str]:
        kind, n, edges = spec
        if kind != "squares":
            return []
        value = _stoer_wagner(n, [(u, v, 1) for (u, v, _) in edges])
        lam = summary[0]
        return [] if value == lam else [f"min cut {lam} != Stoer-Wagner {value}"]


WORKLOADS = {w.name: w for w in (AugmentLadder(), RatioSmall(), StructureMid())}
