"""Capacitated multigraph model with exhaustive cut enumeration.

Node sets are plain Python ints used as bitmasks (bit ``i`` set iff node
``i`` is in the set).  All cut bookkeeping works on *canonical* masks: the
side of the cut that does not contain node 0.  A graph on ``n`` nodes has
``2**(n-1) - 1`` canonical cuts, exactly one per complement pair.

Everything here is integer arithmetic; cut values are exact.  The
exhaustive engine is the authoritative source of connectivity answers up
to :data:`EXHAUSTIVE_LIMIT` nodes and refuses to run above it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, LimitError

# Node-count ceiling for exhaustive cut enumeration: every table, flex
# search and generated graph stays at or below it.  A fixed constant, not
# a setting.
EXHAUSTIVE_LIMIT = 24
# Largest cut table one build may allocate: itemsize * 2^(n-1) bytes, so
# an int32 table of 256 MiB at n = 27 fits and one of 512 MiB at n = 28
# does not.  A fixed constant, not a setting.
TABLE_MEMORY_BUDGET = 256 << 20
# Most edges one built graph may list: a generated graph whose worst case,
# C(n_max, 2) * ceil(density), exceeds it is refused, and so is the
# current graph of an augmentation that would list more.  A fixed
# constant, not a setting.
MAX_GENERATED_EDGES = 10 ** 6


def check_exhaustive_build(n: int, estimate: int, what: str) -> None:
    """Refuse, before allocating, a table over the cuts of an ``n``-node
    graph that needs about ``estimate`` bytes: :class:`LimitError` above
    :data:`EXHAUSTIVE_LIMIT` nodes or above :data:`TABLE_MEMORY_BUDGET`."""
    if n > EXHAUSTIVE_LIMIT:
        raise LimitError(
            f"exhaustive enumeration limited to n <= {EXHAUSTIVE_LIMIT} nodes, "
            f"got n = {n}")
    if estimate > TABLE_MEMORY_BUDGET:
        raise LimitError(
            f"{what} for n = {n} needs about {estimate >> 20} MiB, over the "
            f"{TABLE_MEMORY_BUDGET >> 20} MiB table budget")


# ---------------------------------------------------------------------------
# Node-mask helpers


def as_int(x, what: str) -> int:
    """``x`` as a Python int: numpy integers pass, and anything else (a
    bool, a float, a string) raises :class:`InputError` naming ``what``."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise InputError(f"{what} {x!r} is not an integer")


def mask_from_nodes(nodes: Iterable[int]) -> int:
    """Bitmask of a node set; a node that is negative or not an integer
    (see :func:`as_int`) raises :class:`InputError`."""
    m = 0
    for v in nodes:
        v = as_int(v, "node")
        if v < 0:
            raise InputError(f"node {v} is negative")
        m |= 1 << v
    return m


def nodes_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def complement_mask(mask: int, n: int) -> int:
    return mask ^ full_mask(n)


def canonical_mask(mask: int, n: int) -> int:
    """Representative of the complement pair: the side avoiding node 0."""
    return complement_mask(mask, n) if mask & 1 else mask


def edge_crosses(u: int, v: int, mask: int) -> bool:
    return ((mask >> u) & 1) != ((mask >> v) & 1)


# ---------------------------------------------------------------------------
# Graph model


@dataclass(frozen=True)
class EdgeRecord:
    """One edge: endpoints, cost, capacity, and the unsafe/base flags."""

    u: int
    v: int
    cost: int = 0
    capacity: int = 1
    unsafe: bool = False
    base: bool = False


@dataclass(frozen=True)
class Multigraph:
    """Immutable capacitated multigraph; parallel edges allowed.

    Edge identifiers are list positions, which stay stable because the
    value never mutates.  The derived cut-value table is cached, read-only,
    once per graph.  Edges are restricted only by building another
    graph: :func:`subgraph` for an id set, :attr:`unsafe_graph` for the
    unsafe edges.
    """

    n: int
    edges: tuple[EdgeRecord, ...]

    def __post_init__(self):
        # type(x) is int: neither a bool nor a float with an integer value
        if type(self.n) is not int:
            raise InputError(f"node count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise InputError(f"node count must be >= 1, got {self.n}")
        object.__setattr__(self, "edges", tuple(self.edges))
        for i, e in enumerate(self.edges):
            if not isinstance(e, EdgeRecord):
                raise InputError(f"edge {i} is not an EdgeRecord")
            if type(e.u) is not int or type(e.v) is not int:
                raise InputError(f"edge {i} has a non-integer endpoint: {e}")
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise InputError(f"edge {i} endpoint out of range: {e}")
            if e.u == e.v:
                raise InputError(f"edge {i} is a self-loop: {e}")
            if type(e.cost) is not int:
                raise InputError(f"edge {i} has non-integer cost: {e}")
            if e.cost < 0:
                raise InputError(f"edge {i} has negative cost: {e}")
            if type(e.capacity) is not int:
                raise InputError(f"edge {i} has non-integer capacity: {e}")
            if e.capacity < 1:
                raise InputError(f"edge {i} has non-positive capacity: {e}")
            if type(e.unsafe) is not bool or type(e.base) is not bool:
                raise InputError(f"edge {i} has a flag that is not a bool: {e}")

    @classmethod
    def from_edges(cls, n: int, specs: Iterable) -> "Multigraph":
        """Build from (u, v[, cost[, capacity[, unsafe[, base]]]]) tuples; a
        flag must be 0, 1, False or True (:class:`InputError` otherwise)."""
        edges = []
        for i, spec in enumerate(specs):
            if isinstance(spec, EdgeRecord):
                edges.append(spec)
                continue
            u, v, *rest = spec
            cost, cap, unsafe, base = (*rest, *(0, 1, False, False)[len(rest):])[:4]
            if any(type(f) not in (int, bool) or f not in (0, 1) for f in (unsafe, base)):
                raise InputError(f"edge {i} flags must be 0, 1, False or True: {spec!r}")
            edges.append(EdgeRecord(u, v, cost, cap, bool(unsafe), bool(base)))
        return cls(n, tuple(edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _cut_cache(self) -> dict:
        return {}

    @cached_property
    def unsafe_graph(self) -> "Multigraph":
        """The unsafe edges alone, on the same nodes, with their own cached
        tables.  Always a new graph, never ``self``: a graph that held
        itself would be freed only by the cyclic garbage collector."""
        return Multigraph(self.n, tuple(e for e in self.edges if e.unsafe))


def subgraph(g: Multigraph, edge_ids: Iterable[int]) -> Multigraph:
    """Same node set, edges restricted to the given ids (in id order);
    all ids give ``g`` itself, cached cut tables included.  An id must be
    an int or a numpy integer, never a bool."""
    ids = list(edge_ids)
    if any(type(i) is not int for i in ids):
        ids = [as_int(i, "edge id") for i in ids]
    ids = sorted(set(ids))
    for i in ids:
        if not (0 <= i < g.m):
            raise InputError(f"edge id {i} out of range")
    if len(ids) == g.m:
        return g
    return Multigraph(g.n, tuple(g.edges[i] for i in ids))


@dataclass(frozen=True)
class CutRecord:
    """A canonical cut: ``mask`` is the side avoiding node 0, ``size`` the
    number of edges crossing it."""

    mask: int
    size: int

    def nodes(self) -> tuple[int, ...]:
        return nodes_from_mask(self.mask)


# ---------------------------------------------------------------------------
# Cut evaluation


def cut_value_array(g: Multigraph) -> np.ndarray:
    """Cut values for every canonical mask, indexed by ``mask >> 1``.

    Index 0 corresponds to the empty set and is not a cut; callers must
    skip it (:func:`cut_masks` does).  The table is int32, read-only and
    cached on the graph.  The values count the edges of ``g``; capacities
    do not enter.  A table over part of the edges is the table of the
    graph of those edges, such as ``g.unsafe_graph``.

    Built in place by node doubling over the adjacency matrix ``adj``:
    index bit ``j`` stands for node ``j + 1``, and for each node
    ``v`` in turn the upper half of the filled prefix follows from the
    lower one as ``vals[S | {v}] = vals[S] + deg(v) - 2 * w(v, S)``, where
    ``w(v, S) = sum(adj[v][u] for u in S)``.  The upper half itself first
    holds ``deg(v) - 2 * w(v, S)``, doubled out from ``deg(v)`` one node
    ``u`` at a time, and then gets the lower half added to it.  From
    n = 8 on, the steps over the low bits (nodes 1..7) come from one
    ``n x 128`` step table, doubled out for all nodes at once: node
    ``v <= 8`` fills its upper half with a single add, and node ``v > 8``
    copies its row and doubles only over nodes 8..v-1, about
    ``7 + 2n + (n - 8)^2 / 2`` numpy calls in all; below n = 8 the step
    table would cost more calls than it saves.  A graph without edges
    gives a table of zeros, built without doubling (the limits below
    are checked all the same).
    Work is O(2^n + n^2).

    Memory is the table, ``4 * 2^(n-1)`` bytes (32 MiB at n = 24), plus a
    step table of at most 24 x 128 entries.  That estimate is checked
    before anything is allocated: a build above
    :data:`TABLE_MEMORY_BUDGET` (256 MiB, so n <= 27) raises
    :class:`LimitError` naming it, whatever the node limit allows.
    """
    cache = g._cut_cache
    if "table" in cache:
        return cache["table"]
    check_exhaustive_build(g.n, 4 << (g.n - 1), "cut table")
    if not g.edges:
        vals = np.zeros(1 << (g.n - 1), dtype=np.int32)
    else:
        vals = _doubling_table(g.n, g.edges)
    vals.flags.writeable = False
    cache["table"] = vals
    return vals


# Nodes 1.._LOW_NODES index the low bits of every table entry; their steps
# come from one (n x 2^_LOW_NODES) table, not from one doubling per node.
_LOW_NODES = 7


def _doubling_table(n: int, edges: Sequence[EdgeRecord]) -> np.ndarray:
    """The writable table of :func:`cut_value_array` for a non-empty edge list."""
    adj = [[0] * n for _ in range(n)]
    for e in edges:
        adj[e.u][e.v] += 1
        adj[e.v][e.u] += 1
    vals = np.empty(1 << (n - 1), dtype=np.int32)
    vals[0] = 0
    low = _LOW_NODES if n > _LOW_NODES else 0
    if low:
        # step[v, S] = deg(v) - 2 * w(v, S) for S over nodes 1..low, doubled
        # out for all nodes at once
        adjm = np.array(adj, dtype=np.int32)
        twice = adjm * 2
        step = np.empty((n, 1 << low), dtype=np.int32)
        step[:, 0] = adjm.sum(axis=1)
        for u in range(1, low + 1):
            h = 1 << (u - 1)
            np.subtract(step[:, :h], twice[:, u:u + 1], out=step[:, h:2 * h])
        # nodes 1..low + 1 index low bits only: one add each
        for v in range(1, min(n, low + 2)):
            half = 1 << (v - 1)
            np.add(step[v, :half], vals[:half], out=vals[half:2 * half])
    for v in range(low + 2 if low else 1, n):
        half = 1 << (v - 1)
        row = adj[v]
        dst = vals[half:2 * half]
        if low:
            dst[:1 << low] = step[v]
        else:
            dst[0] = sum(row)
        for u in range(low + 1, v):
            h = 1 << (u - 1)
            np.add(dst[:h], -2 * row[u], out=dst[h:2 * h])
        dst += vals[:half]
    return vals


def cut_masks(hit: np.ndarray) -> tuple[int, ...]:
    """Canonical masks of the cuts where a table-shaped boolean array holds.

    ``hit`` is indexed like :func:`cut_value_array`; index 0 (the empty
    set) is skipped and masks come back in ascending order.
    """
    return tuple(((np.flatnonzero(hit[1:]) + 1) << 1).tolist())


def min_cut_value(g: Multigraph) -> int:
    """Global minimum cut value; 0 when the graph is disconnected."""
    if g.n < 2:
        raise InputError("minimum cut needs at least 2 nodes")
    return int(cut_value_array(g)[1:].min())


def enumerate_cuts_at_most(g: Multigraph, threshold: int) -> tuple[CutRecord, ...]:
    """All canonical cuts with value <= threshold.

    One representative per complement pair, sorted by (value, mask); each
    record's ``size`` is its value.
    """
    vals = cut_value_array(g)
    hits = np.flatnonzero(vals[1:] <= threshold) + 1
    # hits ascend, so a stable sort on the values gives (value, mask) order
    hits = hits[np.argsort(vals[hits], kind="stable")]
    return tuple(map(CutRecord, (hits << 1).tolist(), vals[hits].tolist()))


class DisjointSets:
    """Union-find over ``0 .. size-1`` with path halving."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; False if they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def is_connected(g: Multigraph) -> bool:
    if g.n == 1:
        return True
    sets = DisjointSets(g.n)
    merges = sum(sets.union(e.u, e.v) for e in g.edges)
    return merges == g.n - 1
