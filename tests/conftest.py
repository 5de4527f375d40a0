"""Shared builders and independent brute-force oracles.

The oracles here deliberately avoid the library's enumeration engine:
they loop over explicit subsets with itertools so that frozen expected
values in the tests come from an independent computation.
"""

from __future__ import annotations

import itertools
import random

from nearcut import EdgeRecord, Multigraph, SetFamily, family_quotient, subgraph

# The edge filters the cut-table readers once took by name.  A table over
# the edges a filter selects is the table of the graph of those edges.
EDGE_FILTERS = {
    "all": lambda e: True,
    "unsafe": lambda e: e.unsafe,
    "safe": lambda e: not e.unsafe,
    "base": lambda e: e.base,
    "nonbase": lambda e: not e.base,
}


def restrict(g, filt):
    """The graph of the edges ``EDGE_FILTERS[filt]`` selects (``g`` itself
    when that is every edge)."""
    pred = EDGE_FILTERS[filt]
    return subgraph(g, (i for i, e in enumerate(g.edges) if pred(e)))


def g_from(n, pairs):
    """Graph from (u, v[, cost[, cap[, unsafe[, base]]]]) tuples."""
    return Multigraph.from_edges(n, pairs)


def c4():
    return g_from(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def k4():
    return g_from(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def triangle():
    return g_from(3, [(0, 1), (1, 2), (0, 2)])


def singleton_quotient(g):
    """The quotient of ``g`` by its singleton family: class v is node v."""
    return family_quotient(g, SetFamily(g.n, tuple(1 << v for v in range(g.n))))


def proper_subsets(n):
    """Every non-empty proper subset of range(n), as a frozenset."""
    nodes = list(range(n))
    for r in range(1, n):
        for combo in itertools.combinations(nodes, r):
            yield frozenset(combo)


def canonical_subsets(n):
    """One representative per complement pair: the side avoiding node 0."""
    for s in proper_subsets(n):
        if 0 not in s:
            yield s


def brute_cut_value(g, side, pred=lambda e: True, weighted=False):
    """Direct count/sum of crossing edges for a subset given as an iterable."""
    side = set(side)
    total = 0
    for e in g.edges:
        if pred(e) and ((e.u in side) != (e.v in side)):
            total += e.capacity if weighted else 1
    return total


def brute_min_cut(g, pred=lambda e: True, weighted=False):
    return min(brute_cut_value(g, s, pred, weighted) for s in canonical_subsets(g.n))


def by_capacity(g):
    """The same graph with each edge repeated ``capacity`` times, as unit
    capacity copies: its edge-count cut table holds ``g``'s capacitated
    cut values."""
    return Multigraph(g.n, tuple(EdgeRecord(e.u, e.v, e.cost, 1, e.unsafe, e.base)
                                 for e in g.edges for _ in range(e.capacity)))


def random_multigraph(rng: random.Random, n, extra=4, unsafe_p=0.0):
    """Connected random multigraph: random tree plus extra duplicatable pairs."""
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, extra)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    edges = [EdgeRecord(u, v, 0, 1, rng.random() < unsafe_p, False)
             for (u, v) in pairs]
    return Multigraph(n, tuple(edges))
