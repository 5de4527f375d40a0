"""The one reverse delete of the cover layer, and the exact cover's greedy start.

``family_cover._reverse_delete`` prunes both ``minimal_cover`` and the
primal-dual cover, and ``exact_min_cover``'s greedy start reads the
candidates' crossing bitsets.  The primal-dual cover's first reverse
delete, which re-tested coverage once per chosen edge, and the first
greedy start, which counted gains member by member, are copied here
verbatim as slow references; kept edges and start bitsets must equal
theirs.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nearcut.family_cover as family_cover
import nearcut.fgc as fgc
from nearcut import CoverInstance, SetFamily, exact_min_cover
from nearcut.family_cover import _first_uncovered


def reference_pd2_reverse_delete(cand_bits, chosen_order, members) -> set[int]:
    """The primal-dual cover's first reverse delete, over the positions it
    chose, in the order it chose them."""
    chosen_set = set(chosen_order)
    # reverse delete
    for pos in reversed(chosen_order):
        trial = chosen_set - {pos}
        if _first_uncovered((cand_bits[p] for p in trial), len(members)) is None:
            chosen_set = trial
    return chosen_set


def reference_greedy_start(inst: CoverInstance) -> int:
    """The first ``greedy_start`` of ``exact_min_cover``, with the names it
    read from the enclosing function."""
    members = inst.family.members
    cands = inst.candidates
    cross = inst.crossings.member_bits  # member -> candidate-position bitmask
    costs = [c.cost for c in cands]

    def greedy_start() -> int:
        """Add the candidate crossing the most uncovered members (cheapest,
        then first, on ties) until every member is crossed."""
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
        return chosen

    return greedy_start()


def greedy_start_of(inst: CoverInstance) -> int:
    """The start bitset ``exact_min_cover`` hands its branch and bound."""
    real = family_cover._branch_and_bound
    starts = []

    def spy(*args, **kwargs):
        start = inspect.signature(real).bind(*args, **kwargs).arguments["start"]
        starts.append(start())
        return real(*args, **kwargs)

    with mock.patch.object(family_cover, "_branch_and_bound", spy):
        exact_min_cover(inst)
    assert len(starts) == 1
    return starts[0]


@st.composite
def covering_instances(draw):
    """A family and an edge list (loops, parallel edges, zero costs and
    cost ties included) whose edges cross every member: the members no
    edge crosses are dropped."""
    n = draw(st.integers(2, 7))
    masks = draw(st.lists(st.integers(1, (1 << n) - 2), max_size=12, unique=True))
    triples = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                      st.sampled_from((0, 0, 1, 1, 2, 5))),
                            max_size=12))
    masks = [m for m in masks if any(((m >> u) ^ (m >> v)) & 1 for u, v, _ in triples)]
    return n, SetFamily(n, tuple(masks)), triples


@settings(max_examples=300, deadline=None)
@given(covering_instances(), st.randoms(use_true_random=False))
def test_reverse_delete_matches_the_pd2_loop(case, rng):
    n, fam, triples = case
    pairs = [(u, v) for u, v, _ in triples]
    edge_bits = family_cover._crossing_bits(n, fam.members, pairs).edge_bits
    order = list(range(len(pairs)))
    rng.shuffle(order)
    keep = family_cover._reverse_delete([edge_bits[p] for p in order],
                                        [pairs[p] for p in order], n)
    kept = {p for p, k in zip(order, keep) if k}
    assert kept == reference_pd2_reverse_delete(edge_bits, order, fam.members)
    # the kept edges cover the family, each with a member only it crosses
    assert _first_uncovered((edge_bits[p] for p in kept), len(fam)) is None
    for p in kept:
        others = 0
        for o in kept - {p}:
            others |= edge_bits[o]
        assert edge_bits[p] & ~others


@settings(max_examples=300, deadline=None)
@given(covering_instances())
def test_greedy_start_matches_the_member_loop(case):
    n, fam, triples = case
    assume(len(fam))  # an empty family needs no search
    # a loop crosses nothing, so the candidates still cross every member
    inst = CoverInstance.build(n, [(u, v, c) for u, v, c in triples if u != v], fam)
    start = greedy_start_of(inst)
    assert start == reference_greedy_start(inst)
    assert _first_uncovered((b for p, b in enumerate(inst.crossings.edge_bits)
                             if start >> p & 1), len(fam)) is None


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_cover_layer_has_one_reverse_delete():
    """Only ``_reverse_delete`` walks edges backwards in ``family_cover``;
    pd2 and ``minimal_cover`` both call it, the greedy start reads the
    crossing bitsets, and ``_minimal_level`` leaves the size bound to the
    forest assertion."""
    tree = ast.parse(inspect.getsource(family_cover))
    backwards = set()
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id == "reversed" or (
                    node.func.id == "range" and len(node.args) == 3
                    and ast.unparse(node.args[2]).startswith("-")):
                backwards.add(top.name)
    assert backwards == {"_reverse_delete"}

    def calls(fn: ast.FunctionDef) -> set[str]:
        return {node.func.id for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}

    pd2 = _function(tree, "primal_dual_uncrossable_cover")
    assert "_reverse_delete" in calls(pd2)
    assert "_reverse_delete" in calls(_function(tree, "minimal_cover"))
    assert not [node for node in ast.walk(pd2)
                if isinstance(node, ast.Name) and node.id == "chosen_set"]

    greedy = _function(_function(tree, "exact_min_cover"), "greedy_start")
    assert any(isinstance(node, ast.Name) and node.id == "edge_bits"
               or isinstance(node, ast.Attribute) and node.attr == "edge_bits"
               for node in ast.walk(greedy))

    level = ast.parse(textwrap.dedent(inspect.getsource(fgc._minimal_level)))
    against_n = [ast.unparse(node) for node in ast.walk(level)
                 if isinstance(node, ast.Compare)
                 and "g.n - 1" in ast.unparse(node)]
    assert not against_n, against_n
