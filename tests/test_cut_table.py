"""The node-doubling cut table and the numpy family readers.

Each fast path is compared with a slow one: table entries with the
brute-force subset loop in conftest, with the earlier int64 build and
the earlier in-place build (one doubling per node pair) kept here
verbatim, and with networkx's Stoer-Wagner minimum cut; families and
witnesses with plain Python loops over the table (the scans the readers
replaced); ``enumerate_cuts_at_most`` with its earlier body.  The earlier
builds took an edge filter by name; the table they gave for a filter is
compared with the table of the graph of the edges it selects.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearcut import (
    AugmentInstance,
    EdgeRecord,
    InputError,
    LimitError,
    Multigraph,
    PreconditionError,
    decompose_F2_odd,
    deficient_family,
    enumerate_Fq,
    enumerate_cuts_at_most,
    is_flex_connected,
    level_family,
    mask_from_nodes,
    min_cut_value,
    near_min_cuts_cover,
)
from nearcut.harness import exact_augment, make_augment_corpus
from nearcut.multigraph import (
    CutRecord,
    check_exhaustive_build,
    cut_masks,
    cut_value_array,
)

from conftest import EDGE_FILTERS, brute_cut_value, by_capacity, canonical_subsets, restrict

# the filter map and lookup of the earlier builds below
FILTERS = EDGE_FILTERS


def resolve_filter(filt: str):
    return FILTERS[filt]


def random_flagged_multigraph(rng: random.Random, n: int) -> Multigraph:
    """Random pairs (repeats give parallel edges) with random flags and capacities."""
    edges = []
    if n >= 2:
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            edges.append(EdgeRecord(u, v, rng.randint(0, 5), rng.randint(1, 3),
                                    rng.random() < 0.4, rng.random() < 0.5))
        u, v = rng.sample(range(n), 2)
        edges += [EdgeRecord(u, v, 1, 2, True, False)] * 2
    return Multigraph(n, tuple(edges))


def assert_table_matches_brute(g, filt):
    pred = FILTERS[filt]
    vals = cut_value_array(restrict(g, filt))
    assert vals.shape == (1 << (g.n - 1),)
    assert int(vals[0]) == 0
    for side in canonical_subsets(g.n):
        mask = mask_from_nodes(side)
        assert int(vals[mask >> 1]) == brute_cut_value(g, side, pred), (filt, sorted(side))


# ---------------------------------------------------------------------------
# The int64 build with a half-size scratch array, verbatim


def parent_cut_value_array(g: Multigraph, filt: str = "all",
                           weighted: bool = False) -> np.ndarray:
    check_exhaustive_build(g.n, 12 << (g.n - 1), "cut table")
    key = (filt, weighted)
    if key in g._cut_cache:
        return g._cut_cache[key]
    pred = FILTERS[filt]
    adj = [[0] * g.n for _ in range(g.n)]
    for e in g.edges:
        if pred(e):
            w = e.capacity if weighted else 1
            adj[e.u][e.v] += w
            adj[e.v][e.u] += w
    vals = np.zeros(1 << (g.n - 1), dtype=np.int64)
    scratch = np.zeros(len(vals) >> 1, dtype=np.int64)
    for v in range(1, g.n):
        half = 1 << (v - 1)
        row = adj[v]
        # scratch[S] = w(v, S) for S over nodes 1..v-1
        scratch[0] = 0
        for u in range(1, v):
            h = 1 << (u - 1)
            np.add(scratch[:h], row[u], out=scratch[h:2 * h])
        wv = scratch[:half]
        wv *= -2
        wv += sum(row)
        np.add(vals[:half], wv, out=vals[half:2 * half])
    vals.flags.writeable = False
    g._cut_cache[key] = vals
    return vals


# ---------------------------------------------------------------------------
# The in-place build with one scalar doubling per node pair, verbatim


def inplace_cut_value_array(g: Multigraph, filt: str = "all",
                            weighted: bool = False) -> np.ndarray:
    pred = resolve_filter(filt)
    edges = [e for e in g.edges if pred(e)]
    if weighted and all(e.capacity == 1 for e in edges):
        weighted = False
    key = (filt, weighted)
    if key in g._cut_cache:
        return g._cut_cache[key]
    total = sum(e.capacity for e in edges) if weighted else len(edges)
    if total >= 1 << 63:
        raise LimitError(
            f"cut table values need the filtered weight {total} below 2^63")
    dtype = np.dtype(np.int32 if total < 1 << 31 else np.int64)
    check_exhaustive_build(g.n, dtype.itemsize << (g.n - 1), "cut table")
    half_range = 1 << (8 * dtype.itemsize - 1)
    adj = [[0] * g.n for _ in range(g.n)]
    for e in edges:
        w = e.capacity if weighted else 1
        adj[e.u][e.v] += w
        adj[e.v][e.u] += w
    vals = np.empty(1 << (g.n - 1), dtype=dtype)
    vals[0] = 0
    for v in range(1, g.n):
        half = 1 << (v - 1)
        row = adj[v]
        dst = vals[half:2 * half]
        dst[0] = sum(row)
        for u in range(1, v):
            h = 1 << (u - 1)
            step = (half_range - 2 * row[u]) % (2 * half_range) - half_range
            np.add(dst[:h], step, out=dst[h:2 * h])
        dst += vals[:half]
    vals.flags.writeable = False
    g._cut_cache[key] = vals
    return vals


def assert_table_matches_inplace(g, filt):
    """Same values, dtype and read-only flag as the in-place build."""
    vals = cut_value_array(restrict(g, filt))
    ref = inplace_cut_value_array(twin(g), filt)
    assert vals.dtype == ref.dtype, filt
    assert vals.tobytes() == ref.tobytes(), filt
    assert not vals.flags.writeable


def loop_enumerate_cuts_at_most(g: Multigraph, threshold: int) -> tuple[CutRecord, ...]:
    if g.n < 2:
        return ()
    vals = cut_value_array(g)
    size_arr = cut_value_array(g)
    hits = np.nonzero(vals[1:] <= threshold)[0] + 1
    order = sorted(hits.tolist(), key=lambda i: (int(vals[i]), i))
    return tuple(CutRecord(mask=i << 1, size=int(size_arr[i])) for i in order)


def parent_first_bad_cut(d_arr, u_arr, k, q):
    bad = cut_masks(d_arr < k + np.minimum(u_arr, q))
    return bad[0] if bad else None


def twin(g: Multigraph) -> Multigraph:
    """An equal graph with its own table cache."""
    return Multigraph(g.n, g.edges)


def assert_table_matches_parent(g, filt):
    h = restrict(g, filt)
    vals = cut_value_array(h)
    ref = parent_cut_value_array(twin(g), filt)
    assert vals.tolist() == ref.tolist(), filt
    assert vals.dtype == np.int32, filt
    assert not vals.flags.writeable
    assert cut_value_array(h) is vals


# ---------------------------------------------------------------------------
# Python-loop references


def loop_level_family(g, lam):
    wanted = {lam, lam + 1}
    vals = cut_value_array(g)
    return tuple(i << 1 for i in range(1, len(vals)) if int(vals[i]) in wanted)


def loop_deficient_family(g, k):
    vals = cut_value_array(g)
    return tuple(i << 1 for i in range(1, len(vals)) if int(vals[i]) < k)


def loop_flex_arrays(g, ids):
    h = Multigraph(g.n, tuple(g.edges[i] for i in sorted(set(ids))))
    return cut_value_array(h), cut_value_array(restrict(h, "unsafe"))


def loop_flex_witness(g, ids, k, q):
    d_arr, u_arr = loop_flex_arrays(g, ids)
    for i in range(1, len(d_arr)):
        if int(d_arr[i]) < k + min(int(u_arr[i]), q):
            return i << 1
    return None


def loop_Fq(g, ids, k, q):
    d_arr, u_arr = loop_flex_arrays(g, ids)
    return tuple(i << 1 for i in range(1, len(d_arr))
                 if int(d_arr[i]) == k + q - 1 and int(u_arr[i]) >= q)


# ---------------------------------------------------------------------------
# Table build


@pytest.mark.parametrize("n", range(1, 11))
def test_table_equals_brute_force(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        g = random_flagged_multigraph(rng, n)
        for filt in FILTERS:
            assert_table_matches_brute(g, filt)


def random_capacity_multigraph(rng: random.Random, n: int, caps=(1, 5)) -> Multigraph:
    """Random flagged pairs with repeats (parallel edges), capacities in ``caps``."""
    edges = []
    if n >= 2:
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.choice(pairs)
            edges.append(EdgeRecord(u, v, 1, rng.randint(*caps), rng.random() < 0.4,
                                    rng.random() < 0.5))
    return Multigraph(n, tuple(edges))


@pytest.mark.parametrize("n", range(1, 15))
def test_table_equals_parent_build(n):
    rng = random.Random(200 + n)
    graphs = [random_capacity_multigraph(rng, n), random_capacity_multigraph(rng, n),
              random_capacity_multigraph(rng, n, caps=(1, 1))]
    if n >= 2:
        # one capacity at or above 2^31 leaves its tables int32
        heavy = random_capacity_multigraph(rng, n)
        u, v = rng.sample(range(n), 2)
        graphs.append(Multigraph(n, heavy.edges + (EdgeRecord(u, v, 1, 2 ** 31 + 7,
                                                              True, True),)))
    for g in graphs:
        for filt in FILTERS:
            assert_table_matches_parent(g, filt)
    if n >= 2:
        assert cut_value_array(graphs[-1]).dtype == np.int32


@pytest.mark.parametrize("n", range(1, 15))
def test_table_equals_inplace_build(n):
    rng = random.Random(300 + n)
    complete = tuple(EdgeRecord(u, v, 1, rng.randint(1, 9), rng.random() < 0.5,
                                rng.random() < 0.5)
                     for u in range(n) for v in range(u + 1, n))
    graphs = [random_capacity_multigraph(rng, n), random_capacity_multigraph(rng, n),
              random_capacity_multigraph(rng, n, caps=(1, 1)), Multigraph(n, complete)]
    if n >= 2:
        heavy = random_capacity_multigraph(rng, n)
        u, v = rng.sample(range(n), 2)
        graphs.append(Multigraph(n, heavy.edges + (EdgeRecord(u, v, 1, 2 ** 31 + 7,
                                                              True, True),)))
    for g in graphs:
        for filt in FILTERS:
            assert_table_matches_inplace(g, filt)


@pytest.mark.parametrize("n", [4, 7, 8, 9, 12])
@pytest.mark.parametrize("cap", [2 ** 31 - 1, 2 ** 62, 2 ** 63 - 2])
def test_table_dtype_boundary_matches_inplace_build(n, cap):
    # a capacity past the int32 range leaves the table int32: it counts
    # edges.  The heavy edge joins two low-bit nodes, a low-bit and the
    # highest node, or the two highest nodes
    for u, v in ((1, 2), (2, n - 1), (n - 2, n - 1)):
        g = Multigraph.from_edges(n, [(u, v, 1, cap), (0, n - 1, 1, 1)])
        assert cut_value_array(g).dtype == np.int32
        assert_table_matches_inplace(g, "all")
        if n <= 8:
            assert_table_matches_brute(g, "all")


def test_empty_filter_table_is_read_only_zeros(monkeypatch):
    for n in (1, 2, 7, 8, 9, 12):
        g = Multigraph(n, tuple(EdgeRecord(u, u + 1, 1, 3) for u in range(n - 1)))
        h = g.unsafe_graph
        vals = cut_value_array(h)
        assert vals.dtype == np.int32 and vals.shape == (1 << (n - 1),)
        assert not vals.any() and not vals.flags.writeable
        assert cut_value_array(h) is vals
        assert len(h._cut_cache) == 1
        assert not g._cut_cache
        assert_table_matches_inplace(g, "unsafe")
    import nearcut.multigraph as mg
    builds = []
    real = mg.check_exhaustive_build

    def counting(n, estimate, what):
        builds.append((n, estimate, what))
        return real(n, estimate, what)

    monkeypatch.setattr(mg, "check_exhaustive_build", counting)
    monkeypatch.setattr(mg, "EXHAUSTIVE_LIMIT", 8)
    cut_value_array(Multigraph(8, ()))
    assert builds == [(8, 4 << 7, "cut table")]
    g = Multigraph(9, ())
    with pytest.raises(LimitError, match="n <= 8"):
        cut_value_array(g)
    assert not g._cut_cache


def test_base_graph_table_is_the_base_filter_table():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_capacity_multigraph(rng, n)
        base = tuple(EdgeRecord(e.u, e.v, e.cost, 1, e.unsafe, True)
                     for e in g.edges if e.base)
        cands = tuple(e for e in g.edges if not e.base)
        inst = AugmentInstance(Multigraph(n, base + cands + (EdgeRecord(0, 1, base=True),)),
                               rng.randint(1, 4))
        lam0 = inst.lam0
        # lam0 and the staged cover read the one table of the one base graph
        assert inst.base_graph is inst.base_graph
        assert len(inst.base_graph._cut_cache) == 1
        table = cut_value_array(inst.base_graph)
        assert len(inst.base_graph._cut_cache) == 1
        assert table.tolist() == cut_value_array(restrict(inst.graph, "base")).tolist()
        assert table.tolist() == \
            parent_cut_value_array(twin(inst.graph), "base").tolist()
        assert lam0 == int(table[1:].min())


def test_unsafe_graph_table_is_the_unsafe_filter_table():
    """``g.unsafe_graph`` gives the table the "unsafe" filter gave, and
    holds it apart from ``g``'s own tables."""
    rng = random.Random(33)
    for _ in range(40):
        g = random_capacity_multigraph(rng, rng.randint(1, 10))
        vals = cut_value_array(g.unsafe_graph)
        ref = parent_cut_value_array(twin(g), "unsafe")
        assert vals.tolist() == ref.tolist()
        assert vals.dtype == np.int32
        assert len(g.unsafe_graph._cut_cache) == 1
        assert not g._cut_cache


def test_cover_builds_one_cut_table(monkeypatch):
    """One ``near_min_cuts_cover`` call builds one cut table, the base
    graph's, whatever its number of stages, and never builds a current
    graph; the oracle reuses that table."""
    import nearcut.multigraph as mg
    builds = []
    real = mg._doubling_table

    def counting(n, edges):
        builds.append(n)
        return real(n, edges)

    def no_current_graph(self, chosen):
        raise AssertionError("current_graph was called")

    monkeypatch.setattr(mg, "_doubling_table", counting)
    monkeypatch.setattr(AugmentInstance, "current_graph", no_current_graph)
    stages_run = {}
    for _, built in make_augment_corpus(28, 7):
        inst = AugmentInstance(built.graph, built.k)   # no table cached yet
        builds.clear()
        res = near_min_cuts_cover(inst)
        assert builds == [inst.graph.n]
        ran = sum(s.solver != "none" for s in res.stages)
        stages_run.setdefault((res.lam0, inst.k), set()).add(ran)
        exact_augment(inst)
        assert len(builds) == 1
    assert stages_run[(2, 4)] == {1}
    assert stages_run[(1, 4)] == {2}
    assert 3 in stages_run[(1, 5)]


def test_huge_k_and_q_meet_the_table_only_in_comparisons():
    rng = random.Random(37)
    big = 2 ** 40
    for _ in range(40):
        g = random_flagged_multigraph(rng, rng.randint(2, 8))
        ids = [i for i in range(g.m) if rng.random() < 0.8]
        h = Multigraph(g.n, tuple(g.edges[i] for i in sorted(ids)))
        d64 = parent_cut_value_array(twin(h), "all")
        u64 = parent_cut_value_array(twin(h), "unsafe")
        for k, q in ((big, big), (1, big), (big, 1), (2, 2 ** 31), (2 ** 31, 0)):
            wit = parent_first_bad_cut(d64, u64, k, q)
            assert is_flex_connected(g, ids, k, q) == (wit is None, wit)
            if q == 0:
                continue
            pre = parent_first_bad_cut(d64, u64, k, q - 1)
            if pre is None:
                assert enumerate_Fq(g, ids, k, q).members == \
                    cut_masks((d64 == k + q - 1) & (u64 >= q))
            else:
                with pytest.raises(PreconditionError) as err:
                    enumerate_Fq(g, ids, k, q)
                assert err.value.witness == pre
        w64 = parent_cut_value_array(twin(g), "all")
        assert deficient_family(g, big).members == cut_masks(w64 < big)
        for lam in (big, 2 ** 31 - 1):
            assert level_family(g, lam).members == \
                cut_masks((w64 >= lam) & (w64 <= lam + 1))
        with pytest.raises(InputError, match="odd k"):
            decompose_F2_odd(g, ids, big)
        with pytest.raises(PreconditionError, match="not 1099511627777-edge-connected"):
            decompose_F2_odd(g, ids, big + 1)


def test_cached_table_is_read_only():
    g = random_flagged_multigraph(random.Random(3), 6)
    vals = cut_value_array(g)
    assert cut_value_array(g) is vals
    with pytest.raises(ValueError):
        vals[1] = 0
    with pytest.raises(ValueError):
        vals += 1
    assert_table_matches_brute(g, "all")


def test_cut_masks_skips_the_empty_set():
    vals = cut_value_array(Multigraph.from_edges(3, [(0, 1), (1, 2)]))
    assert vals.tolist() == [0, 2, 1, 1]
    assert cut_masks(vals <= 2) == (0b010, 0b100, 0b110)
    assert cut_masks(vals == 1) == (0b100, 0b110)
    assert cut_masks(vals > 2) == ()
    assert all(type(m) is int for m in cut_masks(vals >= 0))


def test_enumerate_cuts_at_most_matches_its_loop():
    rng = random.Random(41)
    seen = 0
    for _ in range(80):
        g = random_capacity_multigraph(rng, rng.randint(1, 11))
        for filt in FILTERS:
            for h in (restrict(g, filt), restrict(by_capacity(g), filt)):
                vals = cut_value_array(h)
                lo, hi = int(vals[1:].min(initial=0)), int(vals.max())
                for threshold in (-1, 0, lo, lo + 1, (lo + hi) // 2, hi, 2 ** 40):
                    recs = enumerate_cuts_at_most(h, threshold)
                    assert recs == loop_enumerate_cuts_at_most(h, threshold)
                    assert all(type(x) is int for r in recs
                               for x in (r.mask, r.size))
                    seen += len(recs)
    assert seen > 10000


def test_min_cut_matches_networkx_stoer_wagner():
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    connected = 0
    for _ in range(120):
        n = rng.randint(2, 12)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        g = Multigraph(n, tuple(EdgeRecord(u, v, 1, rng.randint(1, 9), rng.random() < 0.3,
                                           rng.random() < 0.5) for u, v in pairs))
        for filt, pred in FILTERS.items():
            for weighted in (False, True):
                h = nx.Graph()
                h.add_nodes_from(range(n))
                for e in g.edges:
                    if pred(e):
                        w = e.capacity if weighted else 1
                        old = h.get_edge_data(e.u, e.v, {"weight": 0})["weight"]
                        h.add_edge(e.u, e.v, weight=old + w)
                if nx.is_connected(h):
                    connected += 1
                    expected = nx.stoer_wagner(h)[0]
                else:
                    expected = 0
                graph = by_capacity(g) if weighted else g
                assert min_cut_value(restrict(graph, filt)) == expected, (filt, weighted)
    assert connected > 300


# ---------------------------------------------------------------------------
# Family readers against their loops


def test_level_and_deficient_families_match_loops():
    rng = random.Random(21)
    for _ in range(60):
        g = random_flagged_multigraph(rng, rng.randint(2, 9))
        lam = min_cut_value(g)
        for level in (lam, lam + 1, lam + 3):
            assert level_family(g, level).members == loop_level_family(g, level)
        for k in (lam, lam + 1, lam + 4):
            assert deficient_family(g, k).members == loop_deficient_family(g, k)


def test_flex_witness_and_Fq_match_loops():
    rng = random.Random(22)
    seen = {"feasible": 0, "witness": 0, "Fq": 0}
    for _ in range(150):
        g = random_flagged_multigraph(rng, rng.randint(2, 8))
        ids = [i for i in range(g.m) if rng.random() < 0.8]
        for k in (1, 2):
            for q in (0, 1, 2):
                ok, wit = is_flex_connected(g, ids, k, q)
                ref = loop_flex_witness(g, ids, k, q)
                assert (ok, wit) == (ref is None, ref)
                seen["feasible" if ok else "witness"] += 1
                if q == 0:
                    continue
                if loop_flex_witness(g, ids, k, q - 1) is None:
                    assert enumerate_Fq(g, ids, k, q).members == loop_Fq(g, ids, k, q)
                    seen["Fq"] += 1
                else:
                    with pytest.raises(PreconditionError):
                        enumerate_Fq(g, ids, k, q)
    assert min(seen.values()) > 10, seen


def test_enumerate_Fq_builds_one_subgraph(monkeypatch):
    """One subgraph (so one pair of tables) per call serves both the
    (k, q-1) precondition and the family."""
    import nearcut.fgc as fgc
    calls = []
    real = fgc.subgraph

    def counting(g, ids):
        calls.append(1)
        return real(g, ids)

    monkeypatch.setattr(fgc, "subgraph", counting)
    rng = random.Random(23)
    seen = {"Fq": 0, "witness": 0}
    for _ in range(100):
        g = random_flagged_multigraph(rng, rng.randint(1, 8))
        ids = [i for i in range(g.m) if rng.random() < 0.8]
        for k in (1, 2):
            for q in (1, 2):
                calls.clear()
                wit = loop_flex_witness(g, ids, k, q - 1)
                if wit is None:
                    assert enumerate_Fq(g, iter(ids), k, q).members == loop_Fq(g, ids, k, q)
                    seen["Fq"] += 1
                else:
                    with pytest.raises(PreconditionError) as err:
                        enumerate_Fq(g, iter(ids), k, q)
                    assert err.value.witness == wit
                    seen["witness"] += 1
                assert len(calls) == 1
    assert min(seen.values()) > 10, seen


# ---------------------------------------------------------------------------
# Property over random multigraphs


@st.composite
def multigraphs(draw):
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    specs = draw(st.lists(st.tuples(node, node, st.integers(1, 4), st.booleans(),
                                    st.booleans()), max_size=3 * n))
    return Multigraph(n, tuple(EdgeRecord(u, v, 1, cap, unsafe, base)
                               for u, v, cap, unsafe, base in specs if u != v))


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_property_table_and_level_family(g):
    for filt in FILTERS:
        assert_table_matches_brute(g, filt)
    lam = min_cut_value(g)
    assert level_family(g, lam).members == loop_level_family(g, lam)


@st.composite
def capacity_multigraphs(draw):
    n = draw(st.integers(1, 11))
    node = st.integers(0, n - 1)
    cap = st.one_of(st.integers(1, 5), st.sampled_from([2 ** 29, 2 ** 30, 2 ** 31]))
    specs = draw(st.lists(st.tuples(node, node, cap, st.booleans(), st.booleans()),
                          max_size=4 * n))
    return Multigraph(n, tuple(EdgeRecord(u, v, 1, c, unsafe, base)
                               for u, v, c, unsafe, base in specs if u != v))


@settings(max_examples=80, deadline=None)
@given(capacity_multigraphs())
def test_property_table_matches_parent_build(g):
    for filt in FILTERS:
        assert_table_matches_parent(g, filt)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_property_by_capacity_table_holds_the_capacitated_values(g):
    """The table counts edges; the capacitated values are the table of the
    graph with each edge repeated ``capacity`` times."""
    vals = cut_value_array(by_capacity(g))
    for side in canonical_subsets(g.n):
        assert int(vals[mask_from_nodes(side) >> 1]) == \
            brute_cut_value(g, side, weighted=True), sorted(side)
