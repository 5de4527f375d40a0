import dataclasses
import logging
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearcut import (
    BudgetError,
    EdgeRecord,
    FlexInstance,
    InfeasibleError,
    InputError,
    LimitError,
    Multigraph,
    PreconditionError,
    enumerate_Fq,
    flex_connected_by_removal,
    is_flex_connected,
    kecss,
    mask_from_nodes,
    min_cut_value,
    minimum_flex_subgraph,
    solve_fgc,
    subgraph,
)
from nearcut import fgc as fgc_module
from nearcut.family_cover import SolverSlot
from nearcut.harness import exact_fgc, make_fgc_corpus, make_flex_corpus
from nearcut.multigraph import edge_crosses

from conftest import c4, g_from, k4, random_multigraph, triangle


def m(*nodes):
    return mask_from_nodes(nodes)


def unsafe_triangle():
    return g_from(3, [(0, 1, 1, 1, True), (1, 2, 1), (0, 2, 1)])


# ---------------------------------------------------------------------------
# feasibility


def test_flex_triangle_one_unsafe():
    ok, wit = is_flex_connected(unsafe_triangle(), range(3), 1, 1)
    assert ok and wit is None


def test_flex_tree_with_unsafe_edge_fails():
    g = g_from(3, [(0, 1, 0, 1, True), (1, 2)])
    ok, wit = is_flex_connected(g, range(2), 1, 1)
    assert not ok
    # the witness cut isolates the unsafe bridge
    assert wit == m(1, 2)  # canonical side of the cut {0} | {1,2}


def test_flex_q0_equals_plain_connectivity():
    rng = random.Random(3)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(3, 8), extra=6, unsafe_p=0.5)
        k = rng.randint(1, 3)
        ok, _ = is_flex_connected(g, range(g.m), k, 0)
        assert ok == (min_cut_value(g) >= k)


def test_removal_formulation_agrees():
    rng = random.Random(9)
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(3, 7), extra=6, unsafe_p=0.4)
        ids = [i for i in range(g.m) if rng.random() < 0.8]
        k = rng.randint(1, 3)
        q = rng.randint(0, 2)
        per_cut, _ = is_flex_connected(g, ids, k, q)
        assert per_cut == flex_connected_by_removal(g, ids, k, q)


def test_removal_check_drops_no_more_than_the_unsafe_edges():
    """Past |U| there is nothing more to drop, so a huge q answers at once,
    and as q = |U| does."""
    rng = random.Random(5)
    graphs = [unsafe_triangle()] + [
        random_multigraph(rng, rng.randint(3, 6), extra=5, unsafe_p=0.4)
        for _ in range(10)]
    for g in graphs:
        unsafe = sum(e.unsafe for e in g.edges)
        for k in (1, 2):
            start = time.perf_counter()
            huge = flex_connected_by_removal(g, range(g.m), k, 10 ** 9)
            assert time.perf_counter() - start < 1.0
            assert huge == flex_connected_by_removal(g, range(g.m), k, unsafe)


@st.composite
def flex_cases(draw):
    """A random multigraph on 2..7 nodes (unsafe flags and capacities
    drawn too), a random subset H of its edge ids, k = 1..3, q = 0..2."""
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    specs = draw(st.lists(st.tuples(pair, st.booleans(), st.integers(1, 3)), max_size=16))
    g = Multigraph(n, tuple(EdgeRecord(u, v, 0, cap, unsafe)
                            for (u, v), unsafe, cap in specs))
    ids = draw(st.sets(st.integers(0, g.m - 1))) if g.m else set()
    return g, ids, draw(st.integers(1, 3)), draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(flex_cases())
def test_property_per_cut_check_agrees_with_removal(case):
    g, ids, k, q = case
    ok, wit = is_flex_connected(g, ids, k, q)
    assert ok == flex_connected_by_removal(g, ids, k, q)
    if ok:
        assert wit is None
        return
    # the witness is a canonical cut that violates d(S) >= k + min(d_U(S), q),
    # recounted edge by edge over H
    assert 0 < wit < 1 << g.n and not wit & 1
    crossing = [g.edges[i] for i in ids if edge_crosses(g.edges[i].u, g.edges[i].v, wit)]
    d = len(crossing)
    d_unsafe = sum(e.unsafe for e in crossing)
    assert d < k + min(d_unsafe, q)


# ---------------------------------------------------------------------------
# blocking families


def test_blocking_family_path_example():
    g = g_from(3, [(0, 1, 0, 1, True), (1, 2)])
    fam = enumerate_Fq(g, range(2), 1, 1)
    # the only value-1 cut with an unsafe edge is {0} | {1,2}
    assert fam.members == (m(1, 2),)


def test_blocking_family_no_unsafe():
    fam = enumerate_Fq(c4(), range(4), 1, 1)
    assert len(fam) == 0


def test_blocking_family_empty_when_flex():
    g = unsafe_triangle()
    assert len(enumerate_Fq(g, range(3), 1, 1)) == 0


def test_blocking_family_precondition():
    g = g_from(3, [(0, 1, 0, 1, True), (1, 2)])
    with pytest.raises(PreconditionError):
        enumerate_Fq(g, range(2), 1, 2)  # not (1,1)-flex-connected
    with pytest.raises(InputError):
        enumerate_Fq(g, range(2), 1, 0)


# ---------------------------------------------------------------------------
# spanning subgraphs


def unit_k4():
    return g_from(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])


def test_kecss_k4():
    g = unit_k4()
    res = kecss(g, 2)
    assert res.cost == 4 and len(res.added) == 4
    assert min_cut_value(subgraph(g, res.added)) >= 2
    assert res.solver == "approx2" and res.guarantee == Fraction(2)


def test_kecss_k1_is_spanning_tree():
    rng = random.Random(15)
    for _ in range(10):
        g = random_multigraph(rng, rng.randint(3, 7), extra=5)
        g = g_from(g.n, [(e.u, e.v, 1) for e in g.edges])
        res = kecss(g, 1)
        assert len(res.added) == g.n - 1


def test_kecss_disconnected():
    g = g_from(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(InfeasibleError):
        kecss(g, 1)


def test_minimum_flex_subgraph_triangle():
    res = minimum_flex_subgraph(unsafe_triangle(), 1, 1)
    # dropping the unsafe edge leaves an all-safe spanning tree
    assert res.cost == 2 and res.edge_ids == (1, 2)


def test_minimum_flex_subgraph_budget(monkeypatch):
    # at k = 2 the degree bound closes unit K4 at the root; a spanning
    # tree (k = 1) still needs a search below it
    assert minimum_flex_subgraph(unit_k4(), 1, 0).nodes_explored >= 2
    monkeypatch.setattr(fgc_module, "DEFAULT_NODE_BUDGET", 1)
    with pytest.raises(BudgetError):
        minimum_flex_subgraph(unit_k4(), 1, 0)


def test_exact_fgc_matches_brute_force():
    rng = random.Random(21)
    checked = 0
    while checked < 15:
        g = random_multigraph(rng, rng.randint(3, 5), extra=4, unsafe_p=0.4)
        g = g_from(g.n, [(e.u, e.v, rng.randint(1, 5), 1, e.unsafe) for e in g.edges])
        k = rng.randint(1, 2)
        q = rng.randint(0, 2)
        ok, _ = is_flex_connected(g, range(g.m), k, q)
        if not ok:
            continue
        checked += 1
        res = minimum_flex_subgraph(g, k, q)
        best = None
        for bits in range(1 << g.m):
            ids = [i for i in range(g.m) if (bits >> i) & 1]
            ok2, _ = is_flex_connected(g, ids, k, q)
            if ok2:
                cost = sum(g.edges[i].cost for i in ids)
                best = cost if best is None else min(best, cost)
        assert res.cost == best


def cycle_plus_chord(n):
    return g_from(n, [(i, (i + 1) % n, 1) for i in range(n)] + [(0, n // 2, 1)])


def test_flex_search_obeys_the_node_limit(monkeypatch, tmp_path, capsys):
    import nearcut.multigraph as mg
    from nearcut.cli import main
    from nearcut.io import Instance, save_instance

    g = cycle_plus_chord(8)
    path = tmp_path / "cycle.txt"
    save_instance(Instance(g, 2, 0), path)
    monkeypatch.setattr(mg, "EXHAUSTIVE_LIMIT", 6)
    with pytest.raises(LimitError, match="n <= 6 nodes, got n = 8"):
        kecss(g, 2)
    with pytest.raises(LimitError, match="n <= 6 nodes, got n = 8"):
        exact_fgc(FlexInstance(g, 2, 1))
    assert main(["oracle", "fgc", "--input", str(path)]) == 2
    assert "n <= 6 nodes, got n = 8" in capsys.readouterr().err
    monkeypatch.setattr(mg, "EXHAUSTIVE_LIMIT", 8)
    assert kecss(g, 2).cost == 8


def test_flex_search_obeys_the_table_budget(tmp_path, capsys):
    from nearcut.cli import main
    from nearcut.io import Instance, save_instance

    # two lists of 2^22 ints of at most 30 bits: (64 + 8) << 22 bytes
    g = cycle_plus_chord(23)
    with pytest.raises(LimitError, match="exact flex search for n = 23 needs "
                                         "about 288 MiB, over the 256 MiB"):
        kecss(g, 2)
    path = tmp_path / "cycle.txt"
    save_instance(Instance(g, 2, 1), path)
    assert main(["solve", "fgc", "--input", str(path)]) == 2
    assert "288 MiB" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solvers: every solve goes through solve_fgc; a test named after k1 or
# k2 exercises the q = 1 or q = 2 rows of the structure table


def test_iterative_cover_q0_is_kecss():
    inst = FlexInstance(unit_k4(), 2, 0)
    sol = solve_fgc(inst)
    assert sol.cost == kecss(unit_k4(), 2).cost
    assert [p.name for p in sol.phases] == ["kecss"]


def test_iterative_cover_c4_one_unsafe_with_chord():
    g = g_from(4, [(0, 1, 1, 1, True), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1)])
    sol = solve_fgc(FlexInstance(g, 1, 1))
    ok, _ = is_flex_connected(g, sol.edge_ids, 1, 1)
    assert ok
    # every phase cleared its blocking family
    h = set(sol.phases[0].added)
    for p in sol.phases[1:]:
        level = int(p.name[1:])
        h.update(p.added)
        assert len(enumerate_Fq(g, h, 1, level)) == 0


def test_solve_k1_reduces_to_kecss_without_unsafe():
    g = g_from(4, [(u, v, 2) for u in range(4) for v in range(u + 1, 4)])
    sol = solve_fgc(FlexInstance(g, 2, 1))
    assert sol.cost == kecss(g, 2).cost


def test_solve_k1_bounds_on_corpus():
    corpus = make_flex_corpus(6, 71, 1, n_min=5, n_max=7)
    checked = 0
    for _, g in corpus:
        gc = g_from(g.n, [(e.u, e.v, 2, 1, e.unsafe) for e in g.edges])
        inst = FlexInstance(gc, 1, 1)
        sol = solve_fgc(inst)
        opt = exact_fgc(inst)
        assert Fraction(sol.cost, opt.cost) <= sol.guarantee == Fraction(4)
        checked += 1
    assert checked == 6


def test_solve_k1_even_k_uses_uncrossable_path():
    corpus = make_fgc_corpus(24, 501, n_min=5, n_max=6)
    ran = 0
    for _, inst in corpus:
        if inst.k != 2 or inst.q != 1:
            continue
        sol = solve_fgc(inst)  # asserts the level-1 family is uncrossable
        ok, _ = is_flex_connected(inst.graph, sol.edge_ids, 2, 1)
        assert ok and sol.guarantee == Fraction(4)
        ran += 1
    assert ran >= 2


def test_solve_k2_even_and_odd():
    for k, q_guarantee in ((2, Fraction(6)), (1, Fraction(8)), (3, Fraction(8))):
        corpus = make_fgc_corpus(12, 100 + k, n_min=5, n_max=6)
        ran = 0
        for _, inst in corpus:
            if inst.k != k or inst.q != 2:
                continue
            sol = solve_fgc(inst)
            ok, _ = is_flex_connected(inst.graph, sol.edge_ids, k, 2)
            assert ok
            assert sol.guarantee == q_guarantee
            opt = exact_fgc(inst)
            assert Fraction(sol.cost, opt.cost) <= sol.guarantee
            ran += 1
        assert ran >= 1


def test_solve_k2_exercises_decomposition():
    # 4-cycle with two opposite unsafe edges plus parallel spares: the
    # symmetric-crossing side of the split must actually get covered
    g = g_from(4, [(0, 1, 1, 1, True), (1, 2, 1), (2, 3, 1, 1, True), (3, 0, 1),
                   (0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 0, 3), (0, 2, 3), (1, 3, 3)])
    inst = FlexInstance(g, 1, 2)
    sol = solve_fgc(inst)
    ok, _ = is_flex_connected(g, sol.edge_ids, 1, 2)
    assert ok
    names = [p.name for p in sol.phases]
    assert "F2-uncrossable" in names and "F2-symmetric" in names


def weighted_q3_corpus(count: int, seed: int) -> list[FlexInstance]:
    """Weighted (k, 3) instances, k in {1, 2}, n 4..6, at most 22 edges,
    feasible by construction: min cut >= k + 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k, q = 1 + len(out) % 2, 3
        n = rng.randint(4, 6)
        pairs = []
        for _ in range((k + q + 1) // 2):
            perm = rng.sample(range(n), n)
            pairs += [(perm[i], perm[(i + 1) % n]) for i in range(n)]
        for _ in range(rng.randint(0, min(3, 22 - len(pairs)))):
            u, v = rng.sample(range(n), 2)
            pairs.append((u, v))
        g = g_from(n, [(u, v, rng.randint(1, 9), 1, rng.random() < 0.35)
                       for (u, v) in pairs])
        if min_cut_value(g) >= k + q:
            out.append(FlexInstance(g, k, q))
    return out


def test_weighted_q3_generic_plan_bounds():
    for inst in weighted_q3_corpus(24, 303):
        sol = solve_fgc(inst)
        assert [p.name for p in sol.phases] == ["kecss", "F1", "F2", "F3"]
        assert flex_connected_by_removal(inst.graph, sol.edge_ids, inst.k, inst.q)
        opt = exact_fgc(inst)
        assert Fraction(sol.cost, opt.cost) <= sol.guarantee


def test_solve_unit_cost_bounds():
    corpus = make_fgc_corpus(8, 301, unit_cost=True)
    for _, inst in corpus:
        sol = solve_fgc(inst, unit_cost=True)
        assert sol.guarantee == Fraction(2) + Fraction(2 * inst.q, inst.k)
        for p in sol.phases[1:]:
            assert len(p.added) <= inst.graph.n - 1
        opt = exact_fgc(inst)
        assert 2 * opt.cost >= inst.k * inst.graph.n  # opt >= kn/2
        assert Fraction(sol.cost, opt.cost) <= sol.guarantee


def test_solve_unit_cost_rejects_weighted():
    g = g_from(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)])
    for q in (0, 1):
        with pytest.raises(InputError, match="unit_cost requires every edge cost to be 1"):
            solve_fgc(FlexInstance(g, 1, q), unit_cost=True)


@st.composite
def unit_flex_instances(draw):
    """n = 3..7, k = 1..4, q = 0..3 at all-1 costs: (k + q + 1) // 2 random
    spanning cycles, so G is (k, q)-flex-connected, plus up to two chords."""
    n, k, q = draw(st.integers(3, 7)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    pairs = []
    for _ in range((k + q + 1) // 2):
        order = draw(st.permutations(range(n)))
        pairs += [(order[i], order[(i + 1) % n]) for i in range(n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    pairs += draw(st.lists(pair, max_size=2))
    unsafe = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(EdgeRecord(u, v, 1, 1, flag) for (u, v), flag in zip(pairs, unsafe))
    return FlexInstance(Multigraph(n, edges), k, q), draw(st.integers(0, len(edges) - 1))


@settings(max_examples=40, deadline=None)
@given(unit_flex_instances())
def test_property_edge_costs_pick_the_rows(case):
    """All-1 costs take the minimal-cover rows with or without ``unit_cost``;
    one edge raised to cost 2 takes the weighted rows."""
    inst, raised = case
    sol = solve_fgc(inst)
    assert sol == solve_fgc(inst, unit_cost=True)
    assert {p.solver for p in sol.phases[1:]} <= {"minimal-cover", "none"}
    edges = list(inst.graph.edges)
    edges[raised] = dataclasses.replace(edges[raised], cost=2)
    weighted = FlexInstance(Multigraph(inst.graph.n, tuple(edges)), inst.k, inst.q)
    assert all(p.solver != "minimal-cover" for p in solve_fgc(weighted).phases)


def test_solve_fgc_dispatch():
    """All-1 costs take the minimal-cover rows (2/k a level), any other
    costs the weighted ones (2 a level), with or without ``unit_cost``."""
    g = unit_k4()
    weighted = g_from(4, [(0, 1, 2)] + [(u, v, 1) for u in range(4)
                                        for v in range(u + 1, 4)][1:])
    for graph in (g, weighted):
        assert solve_fgc(FlexInstance(graph, 2, 0)).guarantee == Fraction(2)
        assert solve_fgc(FlexInstance(graph, 1, 1)).guarantee == Fraction(4)
    assert solve_fgc(FlexInstance(g, 2, 2)).guarantee == Fraction(4)
    assert solve_fgc(FlexInstance(weighted, 2, 2)).guarantee == Fraction(6)
    assert solve_fgc(FlexInstance(g, 2, 1)).guarantee == Fraction(3)
    assert solve_fgc(FlexInstance(g, 2, 1), unit_cost=True).guarantee == Fraction(3)


def test_solve_fgc_refuses_q_past_the_level_limit(monkeypatch):
    monkeypatch.setattr(fgc_module, "MAX_LEVELS", 2)
    assert len(solve_fgc(FlexInstance(unit_k4(), 2, 2)).phases) == 3

    def no_kecss(*args, **kw):
        raise AssertionError("the spanning step ran past the level limit")

    monkeypatch.setattr(fgc_module, "kecss", no_kecss)
    for unit_cost in (False, True):
        with pytest.raises(LimitError, match="q = 3 walks more than 2 levels"):
            solve_fgc(FlexInstance(unit_k4(), 2, 3), unit_cost=unit_cost)


def test_cli_refuses_a_huge_q_with_one_error_line(tmp_path, capsys):
    from nearcut.cli import main
    from nearcut.io import Instance, save_instance

    path = tmp_path / "k4.txt"
    save_instance(Instance(unit_k4(), 2, 0), path)
    assert main(["solve", "fgc", "--input", str(path), "--q", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: q = 1000000000 walks more than "
                            f"{fgc_module.MAX_LEVELS} levels\n")


@pytest.mark.parametrize("unit_cost, cause", [(False, InfeasibleError),
                                               (True, PreconditionError)])
def test_infeasible_level_reports_what_the_oracle_reports(unit_cost, cause):
    """When G itself misses level q, the failing cover's error gives way to
    the oracle's, with the same witness cut."""
    seen = 0
    for _, inst in make_fgc_corpus(12, 20261102, unit_cost=unit_cost):
        g, k = inst.graph, inst.k
        if is_flex_connected(g, range(g.m), k, 3)[0]:
            continue
        with pytest.raises(InfeasibleError) as want:
            minimum_flex_subgraph(g, k, 3)
        with pytest.raises(InfeasibleError) as got:
            solve_fgc(FlexInstance(g, k, 3), unit_cost=unit_cost)
        assert (str(got.value), got.value.witness) == \
            (str(want.value), want.value.witness)
        assert type(got.value.__cause__) is cause
        seen += 1
    assert seen >= 5


# node 3 is isolated, and the unsafe edge 0-1 alone crosses the cut {1}
ISOLATED_NODE_TEXT = "4 2 1 1\n0 1 1 1 1 0\n0 2 1 1 0 0\n"


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_infeasible_seed_reports_the_oracle_witness(command, tmp_path, capsys):
    """The spanning step fails on node 3 first, but the solve names G's
    first cut that breaks the (1, 1) rule, as the oracle does."""
    from nearcut.cli import main

    path = tmp_path / "isolated.txt"
    path.write_text(ISOLATED_NODE_TEXT)
    assert main([command, "fgc", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: graph itself is not flex-connected at the "
                            "requested level (witness cut nodes [1])\n")


@st.composite
def sparse_flex_instances(draw):
    """n = 2..6 nodes, some of them possibly isolated, up to 10 random
    edges, k = 1..3 and q = 0..3, at unit or weighted cost."""
    n = draw(st.integers(2, 6))
    unit = draw(st.booleans())
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    specs = draw(st.lists(st.tuples(pair, st.integers(1, 9), st.booleans()),
                          max_size=10))
    g = Multigraph(n, tuple(EdgeRecord(u, v, 1 if unit else cost, 1, unsafe)
                            for (u, v), cost, unsafe in specs))
    return FlexInstance(g, draw(st.integers(1, 3)), draw(st.integers(0, 3))), unit


@settings(max_examples=200, deadline=None)
@given(sparse_flex_instances())
def test_property_solver_fails_like_the_oracle(case):
    """Where the exact search finds G infeasible, the solve raises the same
    message and witness, whichever step failed first; elsewhere it returns
    a (k, q)-flex-connected subgraph."""
    inst, unit = case
    g, k, q = inst.graph, inst.k, inst.q
    try:
        minimum_flex_subgraph(g, k, q)
    except InfeasibleError as want:
        with pytest.raises(InfeasibleError) as got:
            solve_fgc(inst, unit_cost=unit)
        assert (str(got.value), got.value.witness) == (str(want), want.witness)
        return
    sol = solve_fgc(inst, unit_cost=unit)
    assert is_flex_connected(g, sol.edge_ids, k, q)[0]


def test_solve_fgc_has_one_failure_boundary():
    """One ``except`` answers infeasibility in ``solve_fgc``, and its
    ``try`` holds the spanning step; no level-1 fork is left."""
    import ast
    import inspect
    import textwrap

    tree = ast.parse(textwrap.dedent(inspect.getsource(fgc_module.solve_fgc)))
    handlers = [(node, h) for node in ast.walk(tree) if isinstance(node, ast.Try)
                for h in node.handlers
                if h.type is not None and "InfeasibleError" in ast.unparse(h.type)]
    assert len(handlers) == 1, [ast.unparse(h.type) for _, h in handlers]
    guarded = "\n".join(ast.unparse(stmt) for stmt in handlers[0][0].body)
    assert "kecss(" in guarded
    level_one = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, ast.Compare)
                 and ast.unparse(node).replace(" ", "") in ("level==1", "1==level")]
    assert not level_one, level_one


@pytest.mark.parametrize("k, q", [(1.5, 0), (True, 0), (2, 0.5), (2.0, 1), (2, False),
                                  ("2", 0), (2, None)])
def test_k_and_q_must_be_integers(k, q):
    with pytest.raises(InputError, match="k and q must be integers"):
        FlexInstance(triangle(), k, q)


def test_F2_split_diagnostics_reach_the_debug_log(monkeypatch, caplog):
    """Each diagnostic of the odd-k F2 split is logged at debug level from
    the solve, and only there: the solution does not change."""
    split_f2 = fgc_module.decompose_F2_odd
    calls = []

    def noted(g, h, k):
        split = split_f2(g, h, k)
        calls.append(split)
        return dataclasses.replace(split, diagnostics=split.diagnostics + ("synthetic note",))

    insts = [inst for _iid, inst in make_fgc_corpus(12, 20261019)
             if inst.k % 2 and inst.q == 2]
    plain = [solve_fgc(inst) for inst in insts]
    monkeypatch.setattr(fgc_module, "decompose_F2_odd", noted)
    with caplog.at_level(logging.WARNING, logger="nearcut"):
        assert [solve_fgc(inst) for inst in insts] == plain
    assert calls and not caplog.records
    with caplog.at_level(logging.DEBUG, logger="nearcut.fgc"):
        assert solve_fgc(insts[0]) == plain[0]
    notes = [r.getMessage() for r in caplog.records if r.name == "nearcut.fgc"
             and r.getMessage().startswith("F2 split")]
    assert notes == ["F2 split at level 2: synthetic note"]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)


def test_one_node_graph_checks_its_edge_ids():
    """A 1-node graph has no cut, so it is flex-connected, but an edge id
    it lacks is refused as on any other graph."""
    g = Multigraph(1, ())
    assert is_flex_connected(g, [], 1, 0) == (True, None)
    with pytest.raises(InputError, match="edge id 5 out of range"):
        is_flex_connected(g, [5], 1, 0)


def test_failure_boundary_keeps_the_error_when_g_passes(monkeypatch):
    """When G itself meets the (k, q) rule, a level's InfeasibleError is
    not the oracle's answer: it is re-raised unchanged."""
    inst = next(inst for _iid, inst in make_fgc_corpus(24, 20261020)
                if inst.k % 2 == 0 and inst.q >= 1)
    assert is_flex_connected(inst.graph, range(inst.graph.m), inst.k, inst.q)[0]
    err = InfeasibleError("synthetic refusal", witness=6)

    def refuse(ci):
        raise err

    monkeypatch.setattr(fgc_module, "PD2_SLOT", SolverSlot("pd2", refuse))
    with pytest.raises(InfeasibleError) as info:
        solve_fgc(inst)
    assert info.value is err
