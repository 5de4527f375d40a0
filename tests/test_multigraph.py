import random
from dataclasses import replace

import pytest

from nearcut import (
    EdgeRecord,
    InputError,
    LimitError,
    Multigraph,
    SetFamily,
    canonical_mask,
    enumerate_cuts_at_most,
    family_quotient,
    mask_from_nodes,
    min_cut_value,
    nodes_from_mask,
    subgraph,
)
from nearcut.multigraph import (
    DisjointSets,
    cut_value_array,
    is_connected,
)

from conftest import (
    brute_cut_value,
    brute_min_cut,
    c4,
    canonical_subsets,
    g_from,
    random_multigraph,
    singleton_quotient,
)


def test_mask_helpers_roundtrip():
    m = mask_from_nodes([0, 2, 5])
    assert nodes_from_mask(m) == (0, 2, 5)
    assert canonical_mask(m, 6) == mask_from_nodes([1, 3, 4])
    assert canonical_mask(mask_from_nodes([1, 3]), 6) == mask_from_nodes([1, 3])


def test_edge_validation():
    with pytest.raises(InputError):
        Multigraph.from_edges(3, [(0, 0)])
    with pytest.raises(InputError):
        Multigraph.from_edges(3, [(0, 5)])
    with pytest.raises(InputError):
        Multigraph(3, (EdgeRecord(0, 1, cost=-1),))
    with pytest.raises(InputError):
        Multigraph(3, (EdgeRecord(0, 1, capacity=0),))


@pytest.mark.parametrize("cost", [1.5, 2.0, True, False, "3", None])
def test_edge_cost_must_be_an_integer(cost):
    # the exact searches round bounds up, and ratios take Fraction(cost)
    with pytest.raises(InputError, match="edge 1 has non-integer cost"):
        Multigraph(3, (EdgeRecord(0, 1, 1), EdgeRecord(1, 2, cost), EdgeRecord(0, 2, 1)))


@pytest.mark.parametrize("cap", [1.5, 2.0, True, "3", None])
def test_edge_capacity_must_be_an_integer(cap):
    with pytest.raises(InputError, match="edge 0 has non-integer capacity"):
        Multigraph(3, (EdgeRecord(0, 1, 1, cap), EdgeRecord(1, 2)))


@pytest.mark.parametrize("u, v", [(1.0, 2), (0, 2.0), (True, 2), (0, "2"), (None, 1)])
def test_edge_endpoints_must_be_integers(u, v):
    with pytest.raises(InputError, match="edge 1 has a non-integer endpoint"):
        Multigraph(3, (EdgeRecord(0, 1), EdgeRecord(u, v)))


def test_fractional_capacity_never_reaches_a_cut_table():
    # on the path 0-1-2 the cut {1} weighs 1.5 + 1 = 2.5, which no int
    # table can hold
    with pytest.raises(InputError, match="non-integer capacity"):
        Multigraph(3, (EdgeRecord(0, 1, 1, 1.5), EdgeRecord(1, 2)))


def test_fractional_costs_never_reach_a_solver():
    with pytest.raises(InputError, match="non-integer cost"):
        Multigraph(3, (EdgeRecord(0, 1, 1.5), EdgeRecord(1, 2, 2.5), EdgeRecord(0, 2, 1)))
    g = Multigraph(3, (EdgeRecord(0, 1, 0), EdgeRecord(1, 2, 2**70)))
    assert [e.cost for e in g.edges] == [0, 2**70]


def cut_degree(g, mask):
    """The number of edges crossing the cut, read from the table of ``g``."""
    return int(cut_value_array(g)[canonical_mask(mask, g.n) >> 1])


def test_cut_degree_cycle_node():
    assert cut_degree(c4(), mask_from_nodes([0])) == 2


def test_cut_degree_opposite_pair():
    g = c4()
    s = mask_from_nodes([0, 2])
    expected = brute_cut_value(g, [0, 2])  # all four cycle edges cross
    assert expected == 4
    assert cut_degree(g, s) == expected


def test_cut_degree_unsafe_filter():
    g = g_from(3, [(0, 1, 0, 1, True), (1, 2), (0, 2)])
    assert cut_degree(g.unsafe_graph, mask_from_nodes([0])) == 1


def test_min_cut_c4():
    assert min_cut_value(c4()) == 2


def test_min_cut_c4_with_chords():
    g = g_from(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert brute_min_cut(g) == 3
    assert min_cut_value(g) == 3


def test_min_cut_disconnected_is_zero():
    g = g_from(4, [(0, 1), (2, 3)])
    assert min_cut_value(g) == 0


def test_min_cut_needs_two_nodes():
    with pytest.raises(InputError):
        min_cut_value(Multigraph(1, ()))


def test_one_node_graph_is_connected_and_has_no_cut():
    """A 1-node cut table holds only the empty set, so no guard is needed."""
    g = Multigraph(1, ())
    assert is_connected(g)
    assert enumerate_cuts_at_most(g, 5) == ()


def test_enumerate_cuts_c4():
    recs = enumerate_cuts_at_most(c4(), 2)
    got = {frozenset(r.nodes()) for r in recs}
    assert got == {frozenset(s) for s in
                   [{1}, {2}, {3}, {1, 2}, {2, 3}, {1, 2, 3}]}
    assert all(r.size == 2 for r in recs)
    values = [r.size for r in recs]
    assert values == sorted(values)


def test_enumerate_cuts_below_connectivity():
    assert enumerate_cuts_at_most(c4(), 1) == ()


def test_enumerate_cuts_chord_augmented():
    g = g_from(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    recs = enumerate_cuts_at_most(g, 2)
    brute = {s for s in canonical_subsets(4) if brute_cut_value(g, s) <= 2}
    assert {frozenset(r.nodes()) for r in recs} == brute
    for r in recs:
        assert brute_cut_value(g, r.nodes()) == r.size


def test_cut_record_caches_survive_copy():
    g = g_from(4, [(0, 1), (1, 2, 0, 3, True), (2, 3), (3, 0), (0, 2)])
    recs = enumerate_cuts_at_most(g, 10)
    copy = Multigraph(g.n, tuple(g.edges))
    assert len(recs) == 2 ** (g.n - 1) - 1
    for r in recs:
        assert r.size == cut_degree(copy, r.mask)


def test_quotient_identity_is_isomorphic():
    qr = singleton_quotient(c4())
    assert qr.classes == (1, 2, 4, 8)
    assert list(zip(qr.sides, qr.edge_count)) == \
        [((0, 1), 1), ((0, 3), 1), ((1, 2), 1), ((2, 3), 1)]


def test_quotient_pair_classes():
    qr = family_quotient(c4(), SetFamily(4, (mask_from_nodes([2, 3]),)))
    assert qr.classes == (mask_from_nodes([0, 1]), mask_from_nodes([2, 3]))
    assert qr.sides == ((0, 1),)
    assert qr.edge_count == (2,)
    assert qr.unsafe_tally == (0,)


def test_quotient_capacity_conservation():
    """A cut's value, its edge count whatever the capacities, survives
    the two-class quotient of its side."""
    rng = random.Random(7)
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(4, 8), extra=6)
        g = Multigraph(g.n, tuple(replace(e, capacity=rng.randint(1, 3))
                                  for e in g.edges))
        split = rng.randint(1, (1 << (g.n - 1)) - 1) << 1
        qr = family_quotient(g, SetFamily(g.n, (split,)))
        assert len(qr.classes) == 2
        assert sum(qr.edge_count) == brute_cut_value(g, nodes_from_mask(split))


def test_quotient_conservation_general_partitions():
    rng = random.Random(19)
    checked = 0
    while checked < 20:
        g = random_multigraph(rng, rng.randint(4, 9), extra=8, unsafe_p=0.4)
        labels = [rng.randrange(3) for _ in range(g.n)]
        part = [mask_from_nodes(v for v in range(g.n) if labels[v] == c)
                for c in sorted(set(labels), key=labels.index)]
        if len(part) < 2:
            continue
        checked += 1
        qr = family_quotient(g, SetFamily(g.n, tuple(part)))
        assert qr.classes == tuple(part)
        crossing = [e for e in g.edges if labels[e.u] != labels[e.v]]
        assert sum(qr.edge_count) == len(crossing)
        assert sum(qr.unsafe_tally) == sum(e.unsafe for e in crossing)


def test_is_k_edge_connected_examples():
    assert min_cut_value(c4()) >= 2
    assert min_cut_value(c4()) < 3
    g = g_from(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert min_cut_value(g) >= 3


def test_cut_symmetry_all_subsets():
    rng = random.Random(11)
    for _ in range(12):
        g = random_multigraph(rng, rng.randint(4, 9), extra=8, unsafe_p=0.3)
        vals = cut_value_array(g)
        base = subgraph(g, (i for i, e in enumerate(g.edges) if e.base))
        for s in canonical_subsets(g.n):
            mask = mask_from_nodes(s)
            comp = mask ^ ((1 << g.n) - 1)
            for h in (g, g.unsafe_graph, base):
                assert brute_cut_value(h, s) == brute_cut_value(h, nodes_from_mask(comp))
            assert int(vals[mask >> 1]) == brute_cut_value(g, s)


def test_min_cut_matches_enumeration():
    rng = random.Random(13)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(4, 10), extra=10)
        recs = enumerate_cuts_at_most(g, 10 ** 6)
        assert min_cut_value(g) == min(r.size for r in recs)
        assert min_cut_value(g) == brute_min_cut(g)


def test_exhaustive_limit_enforced(monkeypatch):
    import nearcut.multigraph as mg

    monkeypatch.setattr(mg, "EXHAUSTIVE_LIMIT", 6)
    g = g_from(7, [(i, i + 1) for i in range(6)])
    with pytest.raises(LimitError, match="6"):
        min_cut_value(g)
    monkeypatch.setattr(mg, "EXHAUSTIVE_LIMIT", 8)
    assert min_cut_value(g) == 1


def test_no_module_reads_the_environment():
    """Limits are fixed constants: no environment variable changes a run."""
    import re
    from pathlib import Path

    import nearcut

    package = Path(nearcut.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not re.search(r"\benviron\b|\bgetenv\b", line), \
                f"{path.name}:{number} reads the environment: {line.strip()}"


def test_one_search_raises_the_node_budget():
    """Both exact searches run on one engine: a second hand-copied branch
    and bound would bring a second ``raise BudgetError``."""
    from pathlib import Path

    import nearcut

    package = Path(nearcut.__file__).parent
    raises = [f"{path.name}:{number}"
              for path in sorted(package.glob("*.py"))
              for number, line in enumerate(path.read_text().splitlines(), 1)
              if "raise BudgetError" in line]
    assert len(raises) == 1, raises


def test_table_memory_guard_refuses_before_allocating(monkeypatch, tmp_path, capsys):
    import numpy as np

    import nearcut.multigraph as mg
    from nearcut.cli import main
    from nearcut.io import Instance, save_instance

    def no_allocation(*args, **kw):
        raise AssertionError("cut table allocated past the memory guard")

    monkeypatch.setattr(mg, "EXHAUSTIVE_LIMIT", 30)
    monkeypatch.setattr(np, "zeros", no_allocation)
    monkeypatch.setattr(np, "empty", no_allocation)
    cycle = g_from(30, [(i, (i + 1) % 30) for i in range(30)])
    with pytest.raises(LimitError, match="2048 MiB"):
        cut_value_array(cycle)
    with pytest.raises(LimitError, match="512 MiB"):
        min_cut_value(g_from(28, [(i, (i + 1) % 28) for i in range(28)]))
    # the command line turns the refusal into exit code 2
    base = [(i, (i + 1) % 30, 0, 1, 0, 1) for i in range(30)]
    path = tmp_path / "aug.txt"
    save_instance(Instance(g_from(30, base + [(0, 15, 1, 1, 0, 0)]), 3, 0), path)
    assert main(["solve", "augment", "--input", str(path)]) == 2
    assert "2048 MiB" in capsys.readouterr().err


def test_subgraph_selects_ids():
    g = g_from(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    h = subgraph(g, [0, 2])
    assert [(e.u, e.v) for e in h.edges] == [(0, 1), (2, 3)]
    assert not is_connected(h)


def test_disjoint_sets_merge_once():
    sets = DisjointSets(5)
    assert sets.union(0, 1) and sets.union(3, 4) and sets.union(1, 4)
    assert not sets.union(0, 3)  # already joined through 1 and 4
    assert len({sets.find(x) for x in range(5)}) == 2
    assert sets.find(2) == 2


def test_is_connected_matches_component_count():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 7)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 6))]
        g = g_from(n, pairs)
        reach, todo = {0}, [0]
        while todo:
            x = todo.pop()
            for u, v in pairs:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reach:
                        reach.add(b)
                        todo.append(b)
        assert is_connected(g) == (len(reach) == n)


@pytest.mark.parametrize("n", [3.0, "3", True, None])
def test_node_count_must_be_an_integer(n):
    with pytest.raises(InputError, match="node count must be an integer"):
        Multigraph(n, (EdgeRecord(0, 1), EdgeRecord(1, 2)))


def test_unsafe_graph_is_a_cached_graph_of_the_unsafe_edges():
    g = g_from(4, [(0, 1, 0, 1, True), (1, 2), (2, 3, 0, 1, True), (3, 0)])
    h = g.unsafe_graph
    assert h is g.unsafe_graph
    assert h.n == 4 and h.edges == (g.edges[0], g.edges[2])
    assert cut_value_array(h).tolist() == [0] + [brute_cut_value(h, nodes_from_mask(m << 1))
                                             for m in range(1, 8)]
    # a graph whose edges are all unsafe still gets a graph of its own
    assert h.unsafe_graph is not h and h.unsafe_graph == h
    assert g_from(3, [(0, 1), (1, 2)]).unsafe_graph.m == 0


def test_cut_tables_take_the_graph_alone():
    """A cut table is a function of the graph alone: it counts edges, is
    int32 whatever the capacities, and no flag selects another one."""
    import inspect

    import numpy as np

    assert list(inspect.signature(cut_value_array).parameters) == ["g"]
    assert list(inspect.signature(min_cut_value).parameters) == ["g"]
    assert list(inspect.signature(enumerate_cuts_at_most).parameters) == ["g", "threshold"]
    g = g_from(4, [(0, 1, 0, 2**40), (1, 2, 0, 3), (2, 3), (3, 0)])
    for call in (lambda: cut_value_array(g, weighted=True),
                 lambda: cut_value_array(g, True),
                 lambda: min_cut_value(g, weighted=True),
                 lambda: enumerate_cuts_at_most(g, 2, weighted=True),
                 lambda: is_connected(g, "unsafe")):
        with pytest.raises(TypeError):
            call()
    assert not g._cut_cache
    for h in (g, c4(), g.unsafe_graph, Multigraph(1, ())):
        assert cut_value_array(h).dtype == np.int32
    assert cut_value_array(g).tolist() == cut_value_array(c4()).tolist()
    assert min_cut_value(g) == 2
