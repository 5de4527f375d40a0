"""The exact oracles against an independent integer program.

The optima of ``exact_min_cover``, ``exact_augment`` and ``exact_fgc``
are compared with those of 0/1 programs solved by scipy's MILP (HiGHS),
written from the definitions with their own cut loops:

* a cover has one row per family member: some chosen candidate crosses it;
* an augmentation covers every cut where the base edges count fewer than k;
* a (k, q)-flex subgraph keeps, on every canonical cut S, k safe edges or
  k + q edges, written with one binary y_S per cut as
  ``safe(S) >= k * y_S`` and ``all(S) >= (k + q) * (1 - y_S)``.

The solver works in floating point, so every integer answer it gives is
rechecked exactly: its cost is summed from the chosen edges, and its
feasibility is checked with ``covers`` or ``is_flex_connected``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from nearcut import EdgeRecord, FlexInstance, Multigraph, SetFamily, covers, is_flex_connected
from nearcut.family_cover import exact_min_cover
from nearcut.harness import (
    exact_augment,
    exact_fgc,
    make_augment_corpus,
    make_fgc_corpus,
    make_uncrossable_cover_corpus,
)
from nearcut.multigraph import edge_crosses, min_cut_value

optimize = pytest.importorskip("scipy.optimize")


def binary_min(costs, rows, lower) -> list[int]:
    """A 0/1 vector x minimising ``costs . x`` subject to ``rows @ x >= lower``."""
    cons = []
    if rows:
        cons = [optimize.LinearConstraint(np.array(rows, dtype=float),
                                          lb=np.array(lower, dtype=float))]
    res = optimize.milp(np.array(costs, dtype=float), constraints=cons,
                        integrality=np.ones(len(costs)), bounds=optimize.Bounds(0, 1),
                        options={"mip_rel_gap": 0})
    assert res.status == 0, res.message
    x = [int(round(v)) for v in res.x]
    assert max(abs(v - r) for v, r in zip(res.x, x)) < 1e-6
    return x


def canonical_cuts(n: int) -> range:
    """Canonical masks (the side avoiding node 0) of an n-node graph."""
    return range(2, 1 << n, 2)


def cover_rows(members, pairs) -> list[list[int]]:
    return [[int(edge_crosses(u, v, m)) for u, v in pairs] for m in members]


def test_exact_min_cover_matches_the_ilp():
    for iid, inst in make_uncrossable_cover_corpus(40, 11):
        cands = inst.candidates
        x = binary_min([c.cost for c in cands],
                       cover_rows(inst.family.members, [(c.u, c.v) for c in cands]),
                       [1] * len(inst.family))
        chosen = [c for c, xi in zip(cands, x) if xi]
        assert covers(chosen, inst.family) == (True, None), iid
        sol = exact_min_cover(inst)
        picked = [c for c in cands if c.ident in sol.chosen]
        assert covers(picked, inst.family) == (True, None), iid
        assert sol.cost == sum(c.cost for c in picked) == sum(c.cost for c in chosen), iid


def test_exact_augment_matches_the_ilp():
    parities = set()
    for iid, inst in make_augment_corpus(40, 12):
        g, k = inst.graph, inst.k
        base = [e for e in g.edges if e.base]
        deficient = SetFamily(g.n, tuple(
            m for m in canonical_cuts(g.n)
            if sum(edge_crosses(e.u, e.v, m) for e in base) < k))
        ids = inst.candidate_ids
        x = binary_min([g.edges[i].cost for i in ids],
                       cover_rows(deficient.members, [(g.edges[i].u, g.edges[i].v)
                                                      for i in ids]),
                       [1] * len(deficient))
        chosen = [i for i, xi in zip(ids, x) if xi]
        sol = exact_augment(inst)
        for picked in (chosen, sol.chosen):
            assert covers([(g.edges[i].u, g.edges[i].v) for i in picked],
                          deficient) == (True, None), iid
        assert sol.cost == sum(g.edges[i].cost for i in sol.chosen) == \
            sum(g.edges[i].cost for i in chosen), iid
        parities.add((inst.lam0 % 2, k % 2))
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}


def flex_ilp(inst: FlexInstance) -> list[int]:
    """Edge ids of a minimum-cost (k, q)-flex subgraph, by the either/or program."""
    g, k, q = inst.graph, inst.k, inst.q
    cuts = list(canonical_cuts(g.n))
    costs = [e.cost for e in g.edges] + [0] * len(cuts)
    rows, lower = [], []
    for j, m in enumerate(cuts):
        cross = [int(edge_crosses(e.u, e.v, m)) for e in g.edges]
        y = [0] * len(cuts)
        # safe(S) - k * y_S >= 0
        y[j] = -k
        rows.append([c * (not e.unsafe) for c, e in zip(cross, g.edges)] + y)
        lower.append(0)
        # all(S) + (k + q) * y_S >= k + q
        y = [0] * len(cuts)
        y[j] = k + q
        rows.append(cross + y)
        lower.append(k + q)
    x = binary_min(costs, rows, lower)
    return [i for i in range(g.m) if x[i]]


def q3_instances(count: int, seed: int) -> list[tuple[str, FlexInstance]]:
    """(k, 3) instances with min cut >= k + 3: stacked random cycles, a few
    extra edges, random costs and unsafe flags."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k, n = rng.choice((1, 2)), rng.randint(4, 6)
        pairs = []
        for _ in range((k + 4) // 2):   # each cycle crosses every cut twice
            perm = rng.sample(range(n), n)
            pairs += [(perm[i], perm[(i + 1) % n]) for i in range(n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
        g = Multigraph(n, tuple(EdgeRecord(u, v, rng.randint(1, 9), 1, rng.random() < 0.5)
                                for u, v in pairs))
        if min_cut_value(g) >= k + 3:
            out.append((f"q3-{len(out)}", FlexInstance(g, k, 3)))
    return out


def test_exact_fgc_matches_the_ilp():
    corpus = make_fgc_corpus(36, 13) + q3_instances(6, 14)
    assert {inst.q for _, inst in corpus} == {0, 1, 2, 3}
    for iid, inst in corpus:
        g, k, q = inst.graph, inst.k, inst.q
        chosen = flex_ilp(inst)
        res = exact_fgc(inst)
        for picked in (chosen, res.edge_ids):
            assert is_flex_connected(g, picked, k, q) == (True, None), iid
        assert res.cost == sum(g.edges[i].cost for i in res.edge_ids) == \
            sum(g.edges[i].cost for i in chosen), iid
