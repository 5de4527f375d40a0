"""The staged augmentation cover against its per-stage-table version.

``near_min_cuts_cover`` reads one cut table, the base graph's: it takes
the deficient cuts (base value < k) once and drops, after each stage,
those the stage's added candidates cross.  Its previous version built the
current graph after every stage, read that graph's minimum cut and
rescanned its whole table with ``level_family``; that body is copied here
verbatim as the slow reference.  Results, stage logs, error types, error
text and witnesses must be equal, on generated corpora, on hypothesis
instances over every (lam0, k) parity and under a lossy single-level
solver that leaves its stage short; only an infeasible instance's witness
is the exact oracle's, the first deficient cut that no candidate crosses.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nearcut import family_cover
from nearcut.augment import (
    AugmentInstance,
    AugmentResult,
    _stages,
    implemented_ratio_bound,
    level_family,
    near_min_cuts_cover,
)
from nearcut.cut_structure import SetFamily, is_laminar, is_uncrossable
from nearcut.errors import InfeasibleError, InvariantError, NearcutError
from nearcut.family_cover import (
    EXACT_SLOT,
    PD2_SLOT,
    CoverInstance,
    CoverSolution,
    PhaseLog,
    SolverSlot,
    _added_cost,
    _cover_phase,
    exact_min_cover,
)
from nearcut.harness import exact_augment, make_augment_corpus
from nearcut.multigraph import (
    EdgeRecord,
    Multigraph,
    cut_masks,
    cut_value_array,
    min_cut_value,
)


# ---------------------------------------------------------------------------
# Slow reference (verbatim body, apart from reading the single-level slot
# only from ``family_cover.ring_cover_solver``, handing the cover step a
# slot's solve function, and feeding the drift check the guarantee the
# single stages report, since slots no longer state one)


def reference_near_min_cuts_cover(inst: AugmentInstance) -> AugmentResult:
    """Run the staged cover; the result is verified k-connected.

    Single-level stages (parity boundaries) go to
    ``family_cover.ring_cover_solver`` as it is at call time, {lam, lam+1}
    stages to pd2.  Laminarity of odd boundary families and
    uncrossability of pair families are asserted, not assumed.
    """
    inst.validate()
    single = family_cover.ring_cover_solver
    pair = PD2_SLOT
    lam0 = inst.lam0
    k = inst.k
    base_ids = set(inst.base_ids)
    h = set(base_ids)
    stages: list[PhaseLog] = []
    # The graph built for each stage's connectivity check is the next
    # stage's input, so its cached cut table is read once per stage; the
    # first stage reads the table that gave lam0.
    g_cur = inst.base_graph

    for level, kind in _stages(lam0, k):
        fam = (level_family(g_cur, level) if kind == "pair" else SetFamily(
            g_cur.n, cut_masks(cut_value_array(g_cur) == level)))
        if kind == "single" and level == lam0 and lam0 % 2 == 1 and len(fam):
            ok, wit = is_laminar(fam)
            if not ok:
                raise InvariantError(
                    "odd-boundary minimum-cut family is not laminar", witness=wit)
        if kind == "pair" and len(fam):
            ok, wit = is_uncrossable(fam)
            if not ok:
                raise InvariantError(
                    "paired-level family is not uncrossable", witness=wit)
        stages.append(_cover_phase(level, kind, inst.graph, h, fam,
                                   (pair if kind == "pair" else single).solve))
        if not len(fam):
            continue
        target = level + (2 if kind == "pair" else 1)
        g_cur = inst.current_graph(h)
        new_conn = min_cut_value(g_cur)
        if new_conn < min(target, k):
            raise InvariantError(
                f"stage at level {level} left connectivity {new_conn} < {target}")

    if stages and min_cut_value(g_cur) < k:
        raise InvariantError("cover finished but the graph is not k-connected")
    chosen = tuple(sorted(h - base_ids))
    bound = sum((s.guarantee for s in stages), Fraction(0))
    expected = implemented_ratio_bound(lam0, k, next(
        (s.guarantee for s in stages if s.name == "single"), Fraction(2)))
    if bound != expected:
        raise InvariantError(f"stage accounting drifted: {bound} != {expected}")
    return AugmentResult(chosen=chosen, cost=_added_cost(inst.graph, chosen),
                         stages=tuple(stages), bound=bound, lam0=lam0)


# ---------------------------------------------------------------------------
# Helpers


def fresh(inst: AugmentInstance) -> AugmentInstance:
    """An equal instance whose graphs hold no cached table yet."""
    return AugmentInstance(Multigraph(inst.graph.n, inst.graph.edges), inst.k)


def without_first_candidates(inst: AugmentInstance) -> AugmentInstance:
    """The instance minus the first two candidates, the start of the
    spanning candidate cycle: some of these are infeasible."""
    g = inst.graph
    drop = set(inst.candidate_ids[:2])
    return AugmentInstance(Multigraph(g.n, tuple(e for i, e in enumerate(g.edges)
                                                 if i not in drop)), inst.k)


def outcome(solve, inst: AugmentInstance, single: SolverSlot | None = None):
    """The result, or the error's type, text and witness; ``single``, when
    given, is plugged into ``family_cover.ring_cover_solver`` for the call."""
    saved = family_cover.ring_cover_solver
    if single is not None:
        family_cover.ring_cover_solver = single
    try:
        return solve(fresh(inst))
    except NearcutError as exc:
        return (type(exc), str(exc), exc.witness)
    finally:
        family_cover.ring_cover_solver = saved


def oracle_outcome(inst: AugmentInstance):
    """What ``exact_augment`` gives, in the form of :func:`outcome`."""
    return outcome(exact_augment, inst)


def assert_matches_reference(inst: AugmentInstance, single=None):
    """Equal to the reference, except that an infeasible instance names the
    oracle's witness, where the reference named the failing stage's first
    uncrossed member."""
    got = outcome(near_min_cuts_cover, inst, single)
    want = outcome(reference_near_min_cuts_cover, inst, single)
    if isinstance(want, tuple) and want[0] is InfeasibleError:
        oracle = oracle_outcome(inst)
        assert oracle[:2] == want[:2]
        want = oracle
    assert got == want
    return got


def _drop_last(ci: CoverInstance) -> CoverSolution:
    sol = exact_min_cover(ci)
    return CoverSolution(sol.chosen[:-1], sol.cost, "lossy", Fraction(2))


# A single-level solver that leaves one chosen edge out, at the default
# single guarantee so the bound does not drift first.
LOSSY = SolverSlot("lossy", _drop_last)


# ---------------------------------------------------------------------------
# Corpora


CORPUS = [inst for seed in (1, 99, 2027) for _iid, inst in make_augment_corpus(56, seed)]


def test_corpus_matches_the_reference():
    errors = 0
    for inst in CORPUS:
        for variant in (inst, without_first_candidates(inst)):
            for single in (None, EXACT_SLOT):
                got = assert_matches_reference(variant, single)
                errors += isinstance(got, tuple)
    # the cut variants make some instances infeasible
    assert 0 < errors < len(CORPUS)


def test_lossy_single_stage_raises_the_reference_error():
    texts = set()
    for inst in CORPUS:
        got = assert_matches_reference(inst, LOSSY)
        if isinstance(got, tuple) and got[0] is InvariantError:
            texts.add(got[1].split(" left ")[0])
    # short opening (odd lam0) and closing (odd k) stages were both caught
    assert {f"stage at level {level}" for level in (1, 2, 3, 4)} <= texts


@st.composite
def augment_instances(draw) -> AugmentInstance:
    """A base of connectivity lam0 (tree, cycle, cycle doubled but for one
    edge, doubled cycle) on n = 3..8 nodes, k from lam0 to lam0 + 4, and
    random candidates of capacity at least k - lam0, sometimes with a
    spanning cycle among them."""
    n = draw(st.integers(3, 8))
    lam0 = draw(st.integers(1, 4))
    k = lam0 + draw(st.integers(0, 4))
    order = draw(st.permutations(range(n)))
    if lam0 == 1:
        base = [(order[v], order[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    else:
        cycle = [(order[i], order[(i + 1) % n]) for i in range(n)]
        base = {2: cycle, 3: cycle + cycle[1:], 4: cycle + cycle}[lam0]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    cands = draw(st.lists(pair, max_size=12))
    if draw(st.booleans()):
        cands += [(order[i], order[(i + 1) % n]) for i in range(n)]
    gap = max(k - lam0, 1)
    edges = [EdgeRecord(u, v, 0, 1, False, True) for u, v in base]
    edges += [EdgeRecord(u, v, draw(st.integers(1, 9)), gap + draw(st.integers(0, 2)),
                         False, False) for u, v in cands]
    return AugmentInstance(Multigraph(n, tuple(edges)), k)


@settings(max_examples=300, deadline=None)
@given(augment_instances(), st.sampled_from([None, EXACT_SLOT, LOSSY]))
def test_property_matches_the_reference(inst, single):
    assert_matches_reference(inst, single)


@settings(max_examples=300, deadline=None)
@given(augment_instances())
def test_property_infeasible_cover_fails_like_the_oracle(inst):
    """With the first candidates gone, where the oracle finds no cover the
    staged cover raises the same message and witness; elsewhere it
    succeeds."""
    inst = without_first_candidates(inst)
    want = oracle_outcome(inst)
    got = outcome(near_min_cuts_cover, inst)
    if isinstance(want, tuple):
        assert want[0] is InfeasibleError
        assert got == want
    else:
        assert isinstance(got, AugmentResult)
