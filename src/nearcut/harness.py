"""Instance generation, exact oracles, verification suites, benchmarking.

Every suite is seeded and deterministic; reports are plain JSON-able
dicts with exact rational ratios (serialized as [numerator,
denominator] pairs) so pass/fail never touches floating point.  Wall
times are the only nondeterministic fields and are kept separable.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import InputError, LimitError, NearcutError
from .augment import (
    AugmentInstance,
    deficient_family,
    level_family,
    near_min_cuts_cover,
)
from .cut_structure import (
    SetFamily,
    build_square,
    classify_square,
    crosses_strongly,
    decompose_F2_odd,
    decompose_plus_cuts,
    is_uncrossable,
    SquareCase,
)
from .family_cover import (
    Candidate,
    CoverInstance,
    _candidates_outside,
    covers,
    exact_min_cover,
    minimal_cover,
    primal_dual_uncrossable_cover,
)
from .fgc import (
    ExactSubgraphResult,
    FlexInstance,
    enumerate_Fq,
    is_flex_connected,
    minimum_flex_subgraph,
    solve_fgc,
)
from .multigraph import (
    EXHAUSTIVE_LIMIT,
    MAX_GENERATED_EDGES,
    EdgeRecord,
    Multigraph,
    canonical_mask,
    cut_masks,
    cut_value_array,
    is_connected,
    min_cut_value,
    nodes_from_mask,
)

DEFAULT_ORACLE_EDGE_LIMIT = 24


# ---------------------------------------------------------------------------
# Random instance generation


@dataclass(frozen=True)
class GenSpec:
    """Knobs for the seeded generator; identical specs give identical bytes."""

    n_min: int = 6
    n_max: int = 10
    density: float = 0.5
    unsafe_p: float = 0.0
    cost_min: int = 1
    cost_max: int = 1
    cap_min: int = 1
    cap_max: int = 1
    seed: int = 0


def generate(spec: GenSpec) -> Multigraph:
    """Seeded random multigraph, retried until connected.

    Every range is checked before the first draw, and ``n_max`` may not
    exceed :data:`~nearcut.multigraph.EXHAUSTIVE_LIMIT`.
    """
    if not (1 <= spec.n_min <= spec.n_max):
        raise InputError("bad node count range")
    if not (0 <= spec.cost_min <= spec.cost_max):
        raise InputError("bad cost range")
    if not (1 <= spec.cap_min <= spec.cap_max):
        raise InputError("bad capacity range")
    if not (math.isfinite(spec.density) and spec.density >= 0):
        raise InputError(f"density must be finite and >= 0, got {spec.density}")
    if not (0 <= spec.unsafe_p <= 1):
        raise InputError(f"unsafe probability must lie in [0, 1], got {spec.unsafe_p}")
    worst = math.comb(spec.n_max, 2) * math.ceil(spec.density)
    if worst > MAX_GENERATED_EDGES:
        raise LimitError(
            f"up to {worst} edges at n = {spec.n_max} and density {spec.density}, "
            f"over the limit of {MAX_GENERATED_EDGES}")
    if spec.n_max > EXHAUSTIVE_LIMIT:
        # no solver or oracle takes such a graph, and a sparse one can take
        # minutes of retries to come out connected
        raise LimitError(
            f"generated graphs are limited to n <= {EXHAUSTIVE_LIMIT} nodes, "
            f"got n_max = {spec.n_max}")
    rng = random.Random(spec.seed)
    whole = int(spec.density)
    frac = spec.density - whole
    for _attempt in range(200):
        n = rng.randint(spec.n_min, spec.n_max)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                copies = whole + (1 if frac > 0 and rng.random() < frac else 0)
                for _ in range(copies):
                    cost = rng.randint(spec.cost_min, spec.cost_max)
                    cap = rng.randint(spec.cap_min, spec.cap_max)
                    unsafe = rng.random() < spec.unsafe_p
                    edges.append(EdgeRecord(u, v, cost, cap, unsafe, False))
        g = Multigraph(n, tuple(edges))
        if is_connected(g):
            return g
    raise InputError("generator failed to produce a connected graph in 200 tries")


def _random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(rng.randrange(v), v) for v in range(1, n)]


def _random_cycle_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i], perm[(i + 1) % n]) for i in range(n)]


def _random_pairs(rng: random.Random, n: int, draws: int) -> list[tuple[int, int]]:
    """``draws`` random node pairs as (min, max); a draw of a loop is skipped."""
    pairs = []
    for _ in range(draws):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    return pairs


def _corpus_graph(rng: random.Random, n_min: int, n_max: int,
                  m_factor: int) -> Multigraph:
    """Connected random multigraph: tree or cycle skeleton plus extras."""
    n = rng.randint(n_min, n_max)
    skeleton = _random_tree_edges(rng, n) if rng.random() < 0.5 \
        else _random_cycle_edges(rng, n)
    m = rng.randint(len(skeleton), m_factor * n)
    edges = list(skeleton)
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return Multigraph.from_edges(n, [(u, v, 0, 1) for (u, v) in edges])


# ---------------------------------------------------------------------------
# Oracles


def exact_fgc(inst: FlexInstance) -> ExactSubgraphResult:
    """Minimum-cost flex-connected subgraph by branch and bound."""
    if inst.graph.m > DEFAULT_ORACLE_EDGE_LIMIT:
        raise LimitError(f"oracle limited to {DEFAULT_ORACLE_EDGE_LIMIT} edges, "
                         f"instance has {inst.graph.m}")
    return minimum_flex_subgraph(inst.graph, inst.k, inst.q)


def exact_augment(inst: AugmentInstance):
    """Optimal candidate set: covering the base graph's deficient cuts is
    exactly feasibility, since each candidate closes any single deficit."""
    inst.validate()
    fam = deficient_family(inst.base_graph, inst.k)
    cands = _candidates_outside(inst.graph, set(inst.base_ids))
    return exact_min_cover(CoverInstance(inst.graph.n, cands, fam))


# ---------------------------------------------------------------------------
# Report plumbing


def _frac(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _mask_nodes(mask: int) -> list[int]:
    return list(nodes_from_mask(mask))


def _json_value(x):
    if isinstance(x, Fraction):
        return _frac(x)
    return list(x) if isinstance(x, tuple) else x


@dataclass(frozen=True)
class RatioReport:
    instance_id: str
    kind: str
    n: int
    m: int
    k: int
    q: int
    lam0: Optional[int]
    algorithm_cost: int
    oracle_cost: int
    ratio: Fraction
    bound: Fraction
    kecss_ratio: Optional[Fraction]
    feasible: bool
    stage_costs: tuple[int, ...]
    oracle_nodes: int
    wall_ms: int

    @property
    def violation(self) -> Optional[str]:
        """Why this record breaks its guarantee, or None."""
        if not self.feasible:
            return "infeasible output"
        if self.oracle_cost == 0 < self.algorithm_cost:
            # ratio reads 0 against a zero-cost optimum, so any cost above
            # it is a violation of its own
            return f"cost {self.algorithm_cost} against a zero-cost optimum"
        if self.ratio > self.bound:
            return f"ratio {self.ratio} exceeds bound {self.bound}"
        return None

    @property
    def violated(self) -> bool:
        return self.violation is not None

    def to_json_obj(self) -> dict:
        """Every field by name: Fractions as [num, den], tuples as lists."""
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def strip_wall_times(obj):
    """Copy of a report with every wall_ms zeroed (for byte comparisons)."""
    if isinstance(obj, dict):
        return {k: (0 if k == "wall_ms" else strip_wall_times(v))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [strip_wall_times(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Corpus builders


def make_augment_corpus(count: int, seed: int) -> list[tuple[str, AugmentInstance]]:
    """Instances spanning all four (lam0, k) parity combinations.

    Base graphs with exact connectivity: tree (1), cycle (2), doubled
    cycle minus one parallel edge (3), doubled cycle (4).  Candidates
    always include a random spanning cycle, so adding everything closes
    every deficit and the instance is feasible by construction.
    """
    rng = random.Random(seed)
    out = []
    # all four (lam0, k) parity combinations, gap <= 4
    combos = [(2, 4), (4, 6), (2, 6), (4, 8),      # even / even
              (2, 3), (4, 5), (2, 5),              # even / odd
              (1, 2), (3, 4), (1, 4),              # odd / even
              (1, 3), (3, 5), (1, 5), (3, 7)]      # odd / odd
    i = 0
    while len(out) < count:
        lam0, k = combos[i % len(combos)]
        i += 1
        n = rng.randint(5, 8)
        if lam0 == 1:
            base = _random_tree_edges(rng, n)
        elif lam0 == 2:
            base = _random_cycle_edges(rng, n)
        elif lam0 == 3:
            cyc = _random_cycle_edges(rng, n)
            base = cyc + cyc[1:]
        else:
            cyc = _random_cycle_edges(rng, n)
            base = cyc + cyc
        gap = max(k - lam0, 1)
        edges = [EdgeRecord(u, v, 0, 1, False, True) for (u, v) in base]
        cand_pairs = _random_cycle_edges(rng, n)
        cand_pairs += _random_pairs(rng, n, rng.randint(0, min(8, 20 - len(cand_pairs))))
        for (u, v) in cand_pairs:
            edges.append(EdgeRecord(u, v, rng.randint(1, 9), gap, False, False))
        inst = AugmentInstance(Multigraph(n, tuple(edges)), k)
        if inst.lam0 != lam0:
            continue
        out.append((f"aug-{len(out):04d}", inst))
    return out


def make_fgc_corpus(count: int, seed: int, n_min: int = 5, n_max: int = 7,
                    unit_cost: bool = False) -> list[tuple[str, FlexInstance]]:
    """(k, q) instances feasible by construction: min cut >= k + q."""
    rng = random.Random(seed)
    combos = [(k, q) for k in (1, 2, 3, 4) for q in (0, 1, 2)]
    out = []
    i = 0
    while len(out) < count:
        k, q = combos[i % len(combos)]
        i += 1
        n = rng.randint(n_min, n_max)
        copies = (k + q + 1) // 2
        pairs: list[tuple[int, int]] = []
        for _ in range(copies):
            pairs.extend(_random_cycle_edges(rng, n))
        pairs += _random_pairs(rng, n, rng.randint(0, max(0, min(3, 22 - len(pairs)))))
        edges = []
        for (u, v) in pairs:
            cost = 1 if unit_cost else rng.randint(1, 9)
            edges.append(EdgeRecord(u, v, cost, 1, rng.random() < 0.35, False))
        g = Multigraph(n, tuple(edges))
        if min_cut_value(g) < k + q:
            continue
        out.append((f"fgc-{len(out):04d}", FlexInstance(g, k, q)))
    return out


def make_uncrossable_cover_corpus(count: int, seed: int) -> list[tuple[str, CoverInstance]]:
    """Uncrossable families ({lam, lam+1}-cuts at even lam) with feasible
    candidate pools (a spanning cycle crosses every cut)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(5, 8)
        pairs = _random_cycle_edges(rng, n)
        if rng.random() < 0.5:
            pairs = pairs + pairs[: rng.randint(0, n)]
        pairs += _random_pairs(rng, n, rng.randint(0, 3))
        g = Multigraph.from_edges(n, [(u, v, 0, 1) for (u, v) in pairs])
        lam = min_cut_value(g)
        if lam < 2 or lam % 2:
            continue
        fam = level_family(g, lam)
        if len(fam) == 0:
            continue
        ok, _ = is_uncrossable(fam)
        if not ok:
            continue
        cand_pairs = _random_cycle_edges(rng, n)
        cand_pairs += _random_pairs(rng, n, rng.randint(0, 6))
        cands = tuple(Candidate(j, u, v, rng.randint(1, 9))
                      for j, (u, v) in enumerate(cand_pairs))
        out.append((f"unc-{len(out):04d}", CoverInstance(n, cands, fam)))
    return out


def make_flex_corpus(count: int, per_k_seed: int, k: int, n_min: int = 4,
                     n_max: int = 8) -> list[tuple[str, Multigraph]]:
    """Corpus of (k,1)-flex-connected multigraphs with rich level-2 families.

    Skeletons keep min cut just above k so the (k+1)-cuts are plentiful
    arc cuts: a cycle for k = 1, a cycle-and-a-half for k = 2, a doubled
    cycle for k = 3 and 4, and ceil((k+1)/2) random cycles (min cut at
    least k + 1) for k >= 5.  Occasional extra edges perturb the
    structure; the flex check filters anything the unsafe flags break.
    """
    rng = random.Random(per_k_seed)
    out = []
    tries = 0
    while len(out) < count and tries < count * 400:
        tries += 1
        n = rng.randint(n_min, n_max)
        cyc = _random_cycle_edges(rng, n)
        if k == 1:
            pairs = list(cyc)
        elif k == 2:
            pairs = cyc + cyc[1:]
        elif k <= 4:
            pairs = cyc + list(_random_cycle_edges(rng, n))
        else:
            pairs = list(cyc)
            for _ in range((k + 2) // 2 - 1):
                pairs += _random_cycle_edges(rng, n)
        if rng.random() < 0.4:
            pairs += _random_pairs(rng, n, rng.randint(1, 2))
        p = rng.choice((0.45, 0.65, 0.9))
        edges = [EdgeRecord(u, v, 0, 1, rng.random() < p, False)
                 for (u, v) in pairs]
        g = Multigraph(n, tuple(edges))
        ok, _ = is_flex_connected(g, range(g.m), k, 1)
        if not ok:
            continue
        out.append((f"flex-k{k}-{len(out):04d}", g))
    if len(out) < count:
        raise InputError(f"could not build {count} (k={k},1)-flex graphs")
    return out


# ---------------------------------------------------------------------------
# Suites


def _suite_report(name: str, cfg: dict, counts: dict, violations: list[str],
                  **extra) -> dict:
    """The report every suite returns; ``extra`` goes between counts and
    violations (histogram, diagnostics, records)."""
    return {
        "suite": name,
        "config": dict(cfg),
        "counts": counts,
        **extra,
        "violations": violations[:10],
        "first_counterexample": violations[0] if violations else None,
        "pass": not violations,
    }


def _near_min_squares(cfg: dict):
    """Yield (graph index, graph, A, B, square) for every strongly crossing
    pair of near-minimum cuts over the seeded corpus of ``cfg``."""
    rng = random.Random(cfg["seed"])
    for gi in range(cfg["graphs"]):
        g = _corpus_graph(rng, cfg["n_min"], cfg["n_max"], cfg["m_factor"])
        lam = min_cut_value(g)
        for a, b in combinations(level_family(g, lam).members, 2):
            if crosses_strongly(a, b, g.n):
                yield gi, g, a, b, build_square(g, a, b, lam=lam)


def _suite_squares(cfg: dict) -> dict:
    pairs_checked = 0
    violations: list[str] = []
    for gi, g, a, b, sq in _near_min_squares(cfg):
        pairs_checked += 1
        bad = []
        if sq.alpha % 2:
            bad.append(f"alpha={sq.alpha} odd")
        if any(sq.formula_residuals()):
            bad.append(f"solution residuals {sq.formula_residuals()}")
        if any(sq.counting_residuals()):
            bad.append(f"counting residuals {sq.counting_residuals()}")
        vals = cut_value_array(g)
        da_expect = {int(vals[(a >> 1)]), int(vals[(b >> 1)])}
        if {sq.da, sq.db} != da_expect:
            bad.append(f"cut values drifted: {{{sq.da},{sq.db}}} != {da_expect}")
        if bad:
            violations.append(
                f"graph {gi}: cuts {_mask_nodes(a)}/{_mask_nodes(b)}: " + "; ".join(bad))
    return _suite_report("squares", cfg,
                         {"graphs": cfg["graphs"], "pairs_checked": pairs_checked},
                         violations)


def _suite_classify(cfg: dict) -> dict:
    histogram: dict[str, int] = {}
    violations: list[str] = []
    pairs_checked = 0
    for gi, _g, a, b, sq in _near_min_squares(cfg):
        lam = sq.lam
        case = classify_square(sq)
        histogram[case.value] = histogram.get(case.value, 0) + 1
        pairs_checked += 1
        if case is SquareCase.OTHER:
            violations.append(
                f"graph {gi}: unclassifiable square for cuts "
                f"{_mask_nodes(a)}/{_mask_nodes(b)} (lam={lam})")
            continue
        if sq.da == lam and sq.db == lam:
            half = lam // 2
            if lam % 2 or (sq.a, sq.b) != (0, 0) or sq.sides != (half,) * 4:
                violations.append(
                    f"graph {gi}: min-min square violates the even-lam pattern")
    return _suite_report("classify", cfg,
                         {"graphs": cfg["graphs"], "pairs_checked": pairs_checked},
                         violations, histogram=dict(sorted(histogram.items())))


def _suite_uncrossable(cfg: dict) -> dict:
    rng = random.Random(cfg["seed"])
    graphs = cfg["graphs"]
    checked = 0
    skipped_odd = 0
    violations: list[str] = []
    for gi in range(graphs):
        g = _corpus_graph(rng, cfg["n_min"], cfg["n_max"], cfg["m_factor"])
        lam = min_cut_value(g)
        if lam % 2:
            skipped_odd += 1
            continue
        fam = level_family(g, lam)
        checked += 1
        ok, wit = is_uncrossable(fam)
        if not ok:
            violations.append(
                f"graph {gi} (lam={lam}): witness "
                f"{_mask_nodes(wit[0])}/{_mask_nodes(wit[1])}")
    return _suite_report("uncrossable", cfg,
                         {"graphs": graphs, "even_lam_checked": checked,
                          "odd_lam_skipped": skipped_odd}, violations)


def _suite_c1(cfg: dict) -> dict:
    q = 2
    violations: list[str] = []
    pairs_checked = 0
    graphs_checked = 0
    decompositions = 0
    for k in cfg["k_values"]:
        corpus = make_flex_corpus(cfg["per_k"], cfg["seed"] + k, k,
                                  cfg["n_min"], cfg["n_max"])
        for gid, g in corpus:
            graphs_checked += 1
            fam2 = enumerate_Fq(g, range(g.m), k, 2)
            u_arr = cut_value_array(g.unsafe_graph)
            for a, b in combinations(fam2.members, 2):
                if not crosses_strongly(a, b, g.n):
                    continue
                pairs_checked += 1
                sq = build_square(g, a, b, lam=k)
                c1, c2, _c3, c4 = sq.corners
                if u_arr[canonical_mask(c1, g.n) >> 1] >= 1:
                    d12 = sq.degrees[0] + sq.degrees[1]  # d(C1) + d(C2)
                    if d12 < 2 * k + q:
                        violations.append(
                            f"{gid}: crossing pair {_mask_nodes(a)}/{_mask_nodes(b)} "
                            f"has unsafe corner but d(C1)+d(C2) = {d12} "
                            f"< {2 * k + q}")
                else:
                    if not (fam2.contains_cut(c2) and fam2.contains_cut(c4)):
                        violations.append(
                            f"{gid}: safe-corner pair {_mask_nodes(a)}/{_mask_nodes(b)} "
                            f"is missing a side corner from the family")
            if k % 2 == 0:
                ok, wit = is_uncrossable(fam2)
                if not ok:
                    violations.append(
                        f"{gid}: level-2 family not uncrossable, witness "
                        f"{_mask_nodes(wit[0])}/{_mask_nodes(wit[1])}")
            else:
                try:
                    decompose_F2_odd(g, range(g.m), k)
                    decompositions += 1
                except NearcutError as exc:
                    violations.append(f"{gid}: decomposition failed: {exc}")
    return _suite_report("c1", cfg,
                         {"graphs": graphs_checked, "crossing_pairs": pairs_checked,
                          "odd_k_decompositions": decompositions}, violations)


def _suite_decompose(cfg: dict) -> dict:
    rng = random.Random(cfg["seed"])
    shape_hist: dict[str, int] = {}
    diagnostics: list[str] = []
    violations: list[str] = []
    graphs_checked = 0
    tries = 0
    while graphs_checked < cfg["graphs"] and tries < cfg["graphs"] * 60:
        tries += 1
        style = rng.randrange(3)
        n = rng.randint(cfg["n_min"], cfg["n_max"])
        if style == 0:
            pairs = _random_tree_edges(rng, n)  # lam = 1
        elif style == 1:
            cyc = _random_cycle_edges(rng, n)   # lam = 3
            pairs = cyc + cyc[1:]
        else:
            pairs = _random_tree_edges(rng, n)
            pairs += _random_pairs(rng, n, rng.randint(0, n))
        g = Multigraph.from_edges(n, [(u, v, 0, 1) for (u, v) in pairs])
        lam = min_cut_value(g)
        if lam % 2 == 0:
            continue
        graphs_checked += 1
        res = decompose_plus_cuts(g, lam)
        diagnostics.extend(res.diagnostics)
        for part in res.parts:
            shape_hist[part.shape.value] = shape_hist.get(part.shape.value, 0) + 1
        coverage = res.coverage()
        for mask in cut_masks(cut_value_array(g) == lam + 1):
            if coverage.get(mask, 0) < 1:
                violations.append(
                    f"graph {graphs_checked}: cut {_mask_nodes(mask)} not in any part")
    # unrecognized shapes are diagnostics (open heuristic), not failures
    return _suite_report("decompose", cfg, {"graphs": graphs_checked}, violations,
                         histogram=dict(sorted(shape_hist.items())),
                         diagnostics=diagnostics[:20])


def _suite_forest(cfg: dict) -> dict:
    rng = random.Random(cfg["seed"])
    violations: list[str] = []
    checked = 0
    for _case in range(cfg["pairs"]):
        n = rng.randint(4, 7)
        size = rng.randint(2, min(10, (1 << (n - 1)) - 1))
        masks = set()
        while len(masks) < size:
            m = rng.randint(1, (1 << (n - 1)) - 1) << 1
            masks.add(m)
        fam = SetFamily(n, tuple(sorted(masks)))
        pairs = _random_pairs(rng, n, rng.randint(n - 1, 2 * n))
        for mask in fam.members:
            inside = nodes_from_mask(mask)[0]
            outside = nodes_from_mask(((1 << n) - 1) ^ mask)[0]
            pairs.append((min(inside, outside), max(inside, outside)))
        checked += 1
        pruned = minimal_cover(pairs, fam)  # raises if cyclic
        ok, wit = covers(pruned, fam)
        if not ok:
            violations.append(f"case {_case}: pruned cover lost member {_mask_nodes(wit)}")
    return _suite_report("forest", cfg, {"pairs": checked}, violations)


def _ratio_record(iid: str, kind: str, g: Multigraph, k: int, q: int, solve, oracle,
                  describe) -> RatioReport:
    """Run ``solve()`` and then ``oracle()``, timed together, and rate the
    solution's cost against the optimum's; a zero-cost optimum rates 0.
    ``describe(solution)`` gives the fields that depend on the problem:
    ``lam0``, ``bound``, ``kecss_ratio``, ``feasible`` and ``stage_costs``."""
    t0 = time.perf_counter()
    sol = solve()
    opt = oracle()
    wall = int((time.perf_counter() - t0) * 1000)
    ratio = Fraction(sol.cost, opt.cost) if opt.cost else Fraction(0)
    return RatioReport(
        instance_id=iid, kind=kind, n=g.n, m=g.m, k=k, q=q,
        algorithm_cost=sol.cost, oracle_cost=opt.cost, ratio=ratio,
        oracle_nodes=opt.nodes_explored, wall_ms=wall, **describe(sol))


def augment_record(iid: str, inst: AugmentInstance) -> RatioReport:
    """Solve one augmentation instance and rate it against the oracle."""
    return _ratio_record(
        iid, "augment", inst.graph, inst.k, 0, lambda: near_min_cuts_cover(inst),
        lambda: exact_augment(inst),
        lambda res: dict(lam0=res.lam0, bound=res.bound, kecss_ratio=None,
                         feasible=True, stage_costs=tuple(s.cost for s in res.stages)))


def fgc_record(iid: str, inst: FlexInstance) -> RatioReport:
    """Solve one flex instance and rate it against the oracle."""
    return _ratio_record(
        iid, "fgc-unit" if inst.unit_cost else "fgc", inst.graph, inst.k, inst.q,
        lambda: solve_fgc(inst), lambda: exact_fgc(inst),
        lambda sol: dict(
            lam0=None, bound=sol.guarantee, kecss_ratio=sol.phases[0].guarantee,
            feasible=is_flex_connected(inst.graph, sol.edge_ids, inst.k, inst.q)[0],
            stage_costs=tuple(p.cost for p in sol.phases)))


def _run_augment_records(count: int, seed: int) -> list[RatioReport]:
    return [augment_record(iid, inst) for iid, inst in make_augment_corpus(count, seed)]


def _run_fgc_records(count: int, seed: int, unit: bool) -> list[RatioReport]:
    return [fgc_record(iid, inst)
            for iid, inst in make_fgc_corpus(count, seed, unit_cost=unit)]


def _suite_ratios(cfg: dict) -> dict:
    kind = cfg.get("kind", "all")
    records: list[RatioReport] = []
    violations: list[str] = []
    extra_checks = {"pd_checked": 0, "unit_checked": 0}

    if kind in ("all", "augment"):
        records.extend(_run_augment_records(cfg["augment_count"], cfg["seed"]))
    if kind in ("all", "fgc"):
        records.extend(_run_fgc_records(cfg["fgc_count"], cfg["seed"] + 1, unit=False))
    if kind in ("all", "unit"):
        unit_records = _run_fgc_records(cfg["unit_count"], cfg["seed"] + 2, unit=True)
        for rec in unit_records:
            if rec.oracle_cost * 2 < rec.k * rec.n:
                violations.append(
                    f"{rec.instance_id}: oracle size {rec.oracle_cost} below kn/2")
            extra_checks["unit_checked"] += 1
        records.extend(unit_records)
    if kind in ("all", "pd"):
        for iid, cover_inst in make_uncrossable_cover_corpus(cfg["pd_count"],
                                                             cfg["seed"] + 3):
            pd = primal_dual_uncrossable_cover(cover_inst)
            opt = exact_min_cover(cover_inst)
            extra_checks["pd_checked"] += 1
            if pd.cost > 2 * opt.cost:
                violations.append(
                    f"{iid}: primal-dual cost {pd.cost} exceeds 2 x opt = {2 * opt.cost}")
            ok, wit = covers([cover_inst.candidates[i] for i in pd.chosen],
                             cover_inst.family)
            if not ok:
                violations.append(f"{iid}: primal-dual output is not a cover")

    violations += [f"{rec.instance_id}: {rec.violation}"
                   for rec in records if rec.violated]
    return _suite_report("ratios", cfg, {"records": len(records), **extra_checks},
                         violations, records=[r.to_json_obj() for r in records])


_SUITE_DEFAULTS: dict[str, dict] = {
    "squares": {"graphs": 1000, "n_min": 6, "n_max": 12, "m_factor": 3,
                "seed": 20260801},
    "classify": {"graphs": 1000, "n_min": 6, "n_max": 12, "m_factor": 3,
                 "seed": 20260801},
    "uncrossable": {"graphs": 400, "n_min": 6, "n_max": 12, "m_factor": 3,
                    "seed": 20260802},
    "c1": {"per_k": 40, "k_values": [1, 2, 3], "n_min": 4, "n_max": 8,
           "seed": 20260803},
    "decompose": {"graphs": 60, "n_min": 4, "n_max": 9, "seed": 20260804},
    "forest": {"pairs": 10000, "seed": 20260805},
    "ratios": {"kind": "all", "augment_count": 40, "fgc_count": 40,
               "unit_count": 24, "pd_count": 40, "seed": 20260806},
}

_SUITES = {
    "squares": _suite_squares,
    "classify": _suite_classify,
    "uncrossable": _suite_uncrossable,
    "c1": _suite_c1,
    "decompose": _suite_decompose,
    "forest": _suite_forest,
    "ratios": _suite_ratios,
}


def run_suite(name: str, config: Optional[dict] = None) -> dict:
    """Run a named verification suite; the report is JSON-able.

    ``config`` overrides the suite's defaults.  Each key must be one of
    them and each value of its default's JSON type (a bool is not an
    integer); anything else raises :class:`InputError`.
    """
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; known: {sorted(_SUITES)}")
    cfg = dict(_SUITE_DEFAULTS[name])
    if config is None:
        config = {}
    if not isinstance(config, dict):
        raise InputError("suite config must be a JSON object, got "
                         + json.dumps(config, default=repr))
    for key, value in config.items():
        if key not in cfg:
            raise InputError(f"unknown config key {key!r} for suite {name!r}; "
                             f"known: {sorted(cfg)}")
        if type(value) is not type(cfg[key]):
            raise InputError(f"config key {key!r} of suite {name!r} takes a value "
                             f"like its default {json.dumps(cfg[key])}, "
                             f"got {json.dumps(value, default=repr)}")
    cfg.update(config)
    _check_suite_ranges(name, cfg)
    return _SUITES[name](cfg)


_RATIO_KINDS = ("all", "augment", "fgc", "unit", "pd")


def _check_suite_ranges(name: str, cfg: dict) -> None:
    """Refuse, naming the key, a well-typed config value out of its range."""
    def bad(key: str, rule: str):
        return InputError(f"config key {key!r} of suite {name!r} must be {rule}, "
                          f"got {json.dumps(cfg[key])}")

    for key, value in cfg.items():
        if (key in ("graphs", "per_k", "pairs") or key.endswith("_count")) and value < 0:
            raise bad(key, ">= 0")
    if "n_min" in cfg:
        if cfg["n_min"] < 2:
            raise bad("n_min", ">= 2")
        if cfg["n_max"] < cfg["n_min"]:
            raise bad("n_max", f">= n_min = {cfg['n_min']}")
    if cfg.get("m_factor", 1) < 1:
        raise bad("m_factor", ">= 1")
    if "k_values" in cfg and not all(type(k) is int and k >= 1 for k in cfg["k_values"]):
        raise bad("k_values", "a list of integers >= 1")
    if cfg.get("kind", "all") not in _RATIO_KINDS:
        raise bad("kind", "one of " + ", ".join(_RATIO_KINDS))
