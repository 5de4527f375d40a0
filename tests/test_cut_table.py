"""The node-doubling cut table and the numpy family readers.

Each fast path is compared with a slow one: table entries with the
brute-force subset loop in conftest, families and witnesses with plain
Python loops over the table (the scans the readers replaced).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearcut import (
    EdgeRecord,
    Multigraph,
    PreconditionError,
    deficient_family,
    enumerate_Fq,
    is_flex_connected,
    level_family,
    mask_from_nodes,
    min_cut_value,
)
from nearcut.multigraph import FILTERS, cut_masks, cut_value_array

from conftest import brute_cut_value, canonical_subsets


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


def assert_table_matches_brute(g, filt, weighted):
    pred = FILTERS[filt]
    vals = cut_value_array(g, filt, weighted)
    assert vals.shape == (1 << (g.n - 1),)
    assert int(vals[0]) == 0
    for side in canonical_subsets(g.n):
        mask = mask_from_nodes(side)
        assert int(vals[mask >> 1]) == brute_cut_value(g, side, pred, weighted), \
            (filt, weighted, sorted(side))


# ---------------------------------------------------------------------------
# Python-loop references


def loop_level_family(g, lam, include_plus_one=True):
    wanted = {lam, lam + 1} if include_plus_one else {lam}
    vals = cut_value_array(g, "all", weighted=True)
    return tuple(i << 1 for i in range(1, len(vals)) if int(vals[i]) in wanted)


def loop_deficient_family(g, k):
    vals = cut_value_array(g, "all", weighted=True)
    return tuple(i << 1 for i in range(1, len(vals)) if int(vals[i]) < k)


def loop_flex_arrays(g, ids):
    h = Multigraph(g.n, tuple(g.edges[i] for i in sorted(set(ids))))
    return cut_value_array(h, "all"), cut_value_array(h, "unsafe")


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
        for weighted in (False, True):
            for filt in FILTERS:
                assert_table_matches_brute(g, filt, weighted)


def test_cached_table_is_read_only():
    g = random_flagged_multigraph(random.Random(3), 6)
    vals = cut_value_array(g, "all", True)
    assert cut_value_array(g, "all", True) is vals
    with pytest.raises(ValueError):
        vals[1] = 0
    with pytest.raises(ValueError):
        vals += 1
    assert_table_matches_brute(g, "all", True)


def test_cut_masks_skips_the_empty_set():
    vals = cut_value_array(Multigraph.from_edges(3, [(0, 1), (1, 2)]))
    assert vals.tolist() == [0, 2, 1, 1]
    assert cut_masks(vals <= 2) == (0b010, 0b100, 0b110)
    assert cut_masks(vals == 1) == (0b100, 0b110)
    assert cut_masks(vals > 2) == ()
    assert all(type(m) is int for m in cut_masks(vals >= 0))


# ---------------------------------------------------------------------------
# Family readers against their loops


def test_level_and_deficient_families_match_loops():
    rng = random.Random(21)
    for _ in range(60):
        g = random_flagged_multigraph(rng, rng.randint(2, 9))
        lam = min_cut_value(g, "all", weighted=True)
        for level in (lam, lam + 1, lam + 3):
            for plus in (True, False):
                assert level_family(g, level, plus).members == \
                    loop_level_family(g, level, plus)
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
    specs = draw(st.lists(st.tuples(node, node, st.integers(1, 3), st.booleans(),
                                    st.booleans()), max_size=3 * n))
    return Multigraph(n, tuple(EdgeRecord(u, v, 1, cap, unsafe, base)
                               for u, v, cap, unsafe, base in specs if u != v))


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_property_table_and_level_family(g):
    for filt in FILTERS:
        for weighted in (False, True):
            assert_table_matches_brute(g, filt, weighted)
    lam = min_cut_value(g, "all", weighted=True)
    assert level_family(g, lam).members == loop_level_family(g, lam)
