"""One cover step and one single-level slot for both staged solvers.

``near_min_cuts_cover`` runs each stage through ``family_cover._cover_phase``,
the step ``solve_fgc`` runs for its phases, and reads
``family_cover.ring_cover_solver`` for its single-level stages at call
time; a test picks another single-level solver by plugging it there.
The staged cover, the cover step and the candidate pool as they stood
before that sharing are kept below verbatim as references; the shared
code must give identical results, stage logs, bounds and errors on the
augmentation corpus.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

import pytest

from nearcut import augment, family_cover, fgc
from nearcut.augment import (
    AugmentInstance,
    AugmentResult,
    _stages,
    deficient_family,
    implemented_ratio_bound,
    level_family,
    near_min_cuts_cover,
)
from nearcut.cut_structure import SetFamily, decompose_F2_odd, is_laminar, is_uncrossable
from nearcut.errors import InputError, InvariantError, LimitError, NearcutError
from nearcut.family_cover import (
    EXACT_SLOT,
    PD2_SLOT,
    SOLVER_SLOTS,
    Candidate,
    CoverInstance,
    CoverSolution,
    PhaseLog,
    SolverSlot,
    exact_min_cover,
    primal_dual_uncrossable_cover,
)
from nearcut.fgc import enumerate_Fq, solve_fgc
from nearcut.harness import make_augment_corpus, make_fgc_corpus, make_flex_corpus
from nearcut.io import parse_instance
from nearcut.multigraph import (
    Multigraph,
    cut_masks,
    cut_value_array,
    min_cut_value,
    subgraph,
)

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# References, verbatim apart from the name of the staged cover and from
# where a guarantee is read: slots no longer state one, so each stage
# takes the guarantee its solver reports, on an empty family too.


def reported(slot: SolverSlot, n: int, fam: SetFamily) -> Fraction:
    """The guarantee ``slot`` reports for an empty family."""
    return slot.solve(CoverInstance(n, (), fam)).guarantee


def reference_near_min_cuts_cover(inst: AugmentInstance,
                                  single_solver: SolverSlot = PD2_SLOT) -> AugmentResult:
    """Run the staged cover; the result is verified k-connected.

    Single-level stages (parity boundaries) go to ``single_solver``,
    {lam, lam+1} stages to pd2.  Laminarity of odd boundary families and
    uncrossability of pair families are asserted, not assumed.
    """
    inst.validate()
    single = single_solver
    pair = SOLVER_SLOTS["pd2"]
    lam0 = inst.lam0
    k = inst.k
    plan = list(_stages(lam0, k))
    chosen: set[int] = set()
    stages: list[PhaseLog] = []
    bound = Fraction(0)
    # The graph built for each stage's connectivity check is the next
    # stage's input, so its cached cut table is read once per stage; the
    # first stage reads the table that gave lam0.
    g_cur = inst.base_graph

    for level, kind in plan:
        fam = (level_family(g_cur, level) if kind == "pair" else SetFamily(
            g_cur.n, cut_masks(cut_value_array(g_cur) == level)))
        slot = pair if kind == "pair" else single
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
        if len(fam) == 0:
            guarantee = reported(slot, inst.graph.n, fam)
            bound += guarantee
            stages.append(PhaseLog(level, kind, 0, "none", 0, guarantee, ()))
            continue
        cands = tuple(Candidate(i, inst.graph.edges[i].u, inst.graph.edges[i].v,
                                inst.graph.edges[i].cost)
                      for i in inst.candidate_ids if i not in chosen)
        sol = slot.solve(CoverInstance(inst.graph.n, cands, fam))
        bound += sol.guarantee
        chosen.update(sol.chosen)
        stages.append(PhaseLog(level, kind, len(fam), sol.method, sol.cost,
                               sol.guarantee, tuple(sorted(sol.chosen))))
        target = level + (2 if kind == "pair" else 1)
        g_cur = inst.current_graph(chosen)
        new_conn = min_cut_value(g_cur)
        if new_conn < min(target, k):
            raise InvariantError(
                f"stage at level {level} left connectivity {new_conn} < {target}")

    if plan and min_cut_value(g_cur) < k:
        raise InvariantError("cover finished but the graph is not k-connected")
    cost = sum(inst.graph.edges[i].cost for i in chosen)
    expected = implemented_ratio_bound(lam0, k, next(
        (s.guarantee for s in stages if s.name == "single"), Fraction(2)))
    if bound != expected:
        raise InvariantError(f"stage accounting drifted: {bound} != {expected}")
    return AugmentResult(chosen=tuple(sorted(chosen)), cost=cost,
                         stages=tuple(stages), bound=bound, lam0=lam0)


def _candidates_outside(g: Multigraph, h_ids: set[int]) -> tuple[Candidate, ...]:
    return tuple(Candidate(i, e.u, e.v, e.cost) for i, e in enumerate(g.edges)
                 if i not in h_ids)


def _added_cost(g: Multigraph, new_ids: Iterable[int]) -> int:
    return sum(g.edges[i].cost for i in new_ids)


def _cover_phase(level: int, name: str, g: Multigraph, h: set[int], fam: SetFamily,
                 slot: SolverSlot, pool: Optional[set[int]] = None,
                 solver: Optional[str] = None) -> PhaseLog:
    """Cover ``fam`` from the edges outside ``pool`` (default: H), add the
    chosen edges H lacks, and log them."""
    if not len(fam):
        return PhaseLog(level, name, 0, "none", 0, reported(slot, g.n, fam), ())
    cands = _candidates_outside(g, h if pool is None else pool)
    sol = slot.solve(CoverInstance(g.n, cands, fam))
    new_ids = tuple(i for i in sol.chosen if i not in h)
    h.update(new_ids)
    return PhaseLog(level, name, len(fam), solver or sol.method, _added_cost(g, new_ids),
                    sol.guarantee, new_ids)


# ---------------------------------------------------------------------------
# Corpus: the generated instances, plus each one without its first two
# candidates (the start of the spanning cycle), which leaves some infeasible


def _without_first_candidates(inst: AugmentInstance) -> AugmentInstance:
    g = inst.graph
    drop = set(inst.candidate_ids[:2])
    return AugmentInstance(Multigraph(g.n, tuple(e for i, e in enumerate(g.edges)
                                                 if i not in drop)), inst.k)


def _corpus() -> list[tuple[str, AugmentInstance]]:
    out = []
    for iid, inst in make_augment_corpus(200, 20261018):
        out += [(iid, inst), (f"{iid}-cut", _without_first_candidates(inst))]
    return out


CORPUS = _corpus()


def _outcome(solve, inst, *args):
    """What a run shows: the result fields, or the error type and witness."""
    try:
        res = solve(inst, *args)
    except NearcutError as exc:
        return ("error", type(exc), exc.witness)
    if isinstance(res, PhaseLog):
        return res
    return (res.stages, res.chosen, res.cost, res.bound, res.lam0)


def test_corpus_covers_every_parity_and_some_failures():
    parities = {(inst.lam0 % 2, inst.k % 2) for _iid, inst in CORPUS}
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}
    errors = [iid for iid, inst in CORPUS
              if _outcome(near_min_cuts_cover, inst)[0] == "error"]
    assert 0 < len(errors) < len(CORPUS) // 2


@pytest.mark.parametrize("single, reference_single", [
    (None, PD2_SLOT), (SOLVER_SLOTS["pd2"], PD2_SLOT),
    (SOLVER_SLOTS["exact"], EXACT_SLOT), (EXACT_SLOT, EXACT_SLOT),
], ids=["default", "pd2", "exact", "exact-slot"])
def test_staged_cover_matches_the_reference(single, reference_single, monkeypatch):
    if single is not None:
        monkeypatch.setattr(family_cover, "ring_cover_solver", single)
    for iid, inst in CORPUS:
        got = _outcome(near_min_cuts_cover, inst)
        assert got == _outcome(reference_near_min_cuts_cover, inst,
                               reference_single), iid


def test_cover_step_and_pool_match_the_reference():
    """The shared step on the base graph's deficient family, with H the
    base edges or the base edges plus a chosen candidate, and with and
    without a separate pool."""
    for iid, inst in CORPUS[:120]:
        g = inst.graph
        fam = deficient_family(inst.base_graph, inst.k)
        base = set(inst.base_ids)
        first = inst.candidate_ids[:1]
        for h_start in (base, base | set(first)):
            for pool in (None, set(base)):
                assert family_cover._candidates_outside(g, h_start) == \
                    _candidates_outside(g, h_start)
                h, ref_h = set(h_start), set(h_start)
                got = _outcome(lambda _i: family_cover._cover_phase(
                    1, "F", g, h, fam, EXACT_SLOT.solve, pool), inst)
                want = _outcome(lambda _i: _cover_phase(
                    1, "F", g, ref_h, fam, EXACT_SLOT, pool), inst)
                assert got == want and h == ref_h, iid


def test_fgc_phases_match_the_reference_step(monkeypatch):
    insts = [inst for _iid, inst in make_fgc_corpus(24, 20261018)]
    want = [solve_fgc(inst) for inst in insts]

    def reference_step(level, name, g, h, fam, solve, pool=None):
        """fgc hands the step a solve function; the reference takes a slot."""
        return _cover_phase(level, name, g, h, fam, SolverSlot("reference", solve), pool)
    monkeypatch.setattr(fgc, "_cover_phase", reference_step)
    assert [solve_fgc(inst) for inst in insts] == want


# ---------------------------------------------------------------------------
# The single-level slot


def test_plugged_ring_slot_reaches_augment_single_stages(monkeypatch):
    def three_halves(ci: CoverInstance) -> CoverSolution:
        sol = exact_min_cover(ci)
        return CoverSolution(sol.chosen, sol.cost, "ring-3/2", Fraction(3, 2))
    plugged = SolverSlot("ring", three_halves)
    monkeypatch.setattr(family_cover, "ring_cover_solver", plugged)
    seen = 0
    for iid, inst in CORPUS[:60:2]:
        res = near_min_cuts_cover(inst)
        assert res.bound == implemented_ratio_bound(res.lam0, inst.k, Fraction(3, 2)), iid
        for s in res.stages:
            if s.name == "single":
                assert s.guarantee == Fraction(3, 2), iid
                assert s.solver in ("ring-3/2", "none"), iid
                seen += s.solver == "ring-3/2"
            else:
                assert s.solver in ("primal-dual", "none"), iid
    assert seen


def test_slot_default_is_read_at_call_time(monkeypatch):
    inst = next(inst for _iid, inst in CORPUS if inst.lam0 == 1 and inst.k == 3)
    default = near_min_cuts_cover(inst)
    assert default == reference_near_min_cuts_cover(inst, PD2_SLOT)
    monkeypatch.setattr(family_cover, "ring_cover_solver", EXACT_SLOT)
    assert near_min_cuts_cover(inst) == reference_near_min_cuts_cover(inst, EXACT_SLOT)
    assert near_min_cuts_cover(inst).bound == 2 < default.bound


def test_single_stages_may_report_different_guarantees(monkeypatch):
    """A solver whose guarantee depends on the run: 1 on its first call,
    2 after.  Both single stages of lam0 = 1, k = 3 count what they
    report, and the drift check still holds."""
    calls = []

    def first_exact(ci: CoverInstance) -> CoverSolution:
        calls.append(ci)
        sol = exact_min_cover(ci)
        return CoverSolution(sol.chosen, sol.cost, "run", Fraction(min(len(calls), 2)))
    inst = next(inst for _iid, inst in CORPUS if inst.lam0 == 1 and inst.k == 3)
    monkeypatch.setattr(family_cover, "ring_cover_solver", SolverSlot("run", first_exact))
    res = near_min_cuts_cover(inst)
    assert [s.guarantee for s in res.stages] == [1, 2]
    assert res.bound == 3 == implemented_ratio_bound(1, 3, Fraction(3, 2))


def test_pair_slot_off_its_accounted_guarantee_is_caught(monkeypatch):
    """The bound sums the stage guarantees; a pd2 whose solutions report
    anything but the 2 that ``implemented_ratio_bound`` assumes drifts."""
    def three(ci: CoverInstance) -> CoverSolution:
        sol = primal_dual_uncrossable_cover(ci)
        return CoverSolution(sol.chosen, sol.cost, sol.method, Fraction(3), sol.duals)
    off = SolverSlot("pd2", three)
    monkeypatch.setattr(augment, "PD2_SLOT", off)
    monkeypatch.setitem(family_cover.SOLVER_SLOTS, "pd2", off)
    inst = next(inst for _iid, inst in CORPUS if inst.lam0 == 2 and inst.k == 4)
    for solve in (near_min_cuts_cover, reference_near_min_cuts_cover):
        with pytest.raises(InvariantError, match="stage accounting drifted: 3 != 2"):
            solve(inst)


def test_cli_single_level_solver_defaults_to_the_slot(monkeypatch, tmp_path, capsys):
    """``solve augment`` has no solver option: its single-level stages run
    the slot plugged at call time."""
    from nearcut.cli import build_parser, main
    args = build_parser().parse_args(["solve", "augment", "--input", "x"])
    assert not hasattr(args, "single_level_solver")
    path = tmp_path / "aug.txt"
    path.write_text("3 5 2 0\n0 1 0 1 0 1\n1 2 0 1 0 1\n"
                    "0 2 5 1 0 0\n0 1 2 1 0 0\n1 2 3 1 0 0\n")
    solvers = {}
    for slot in (PD2_SLOT, EXACT_SLOT):
        monkeypatch.setattr(family_cover, "ring_cover_solver", slot)
        assert main(["solve", "augment", "--input", str(path)]) == 0
        stages = json.loads(capsys.readouterr().out)["stages"]
        solvers[slot.name] = [s["solver"] for s in stages if s["kind"] == "single"]
    assert solvers == {"pd2": ["primal-dual"], "exact": ["exact"]}


# ---------------------------------------------------------------------------
# A huge k: the stages are walked one at a time


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_k_fails_at_the_first_stage(tmp_path):
    """A 4-cycle base with no candidate cannot reach k = 2^62 + 2: the
    first stage raises at once, with no list of every stage built first.
    The child runs under a memory cap so that a regression dies quickly."""
    path = tmp_path / "huge.txt"
    path.write_text(f"4 4 {2 ** 62 + 2} 0\n"
                    + "".join(f"{u} {(u + 1) % 4} 0 1 0 1\n" for u in range(4)))
    proc = subprocess.run(
        [sys.executable, "-m", "nearcut", "solve", "augment", "--input", str(path)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
        env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("error: family member crossed by no candidate "
                           "(witness cut nodes [1])\n")


def _cycle_instance(k: int, cap: int) -> str:
    """A 4-cycle base (lam0 = 2) and a candidate 4-cycle at capacity ``cap``."""
    return (f"4 8 {k} 0\n" + "".join(f"{u} {(u + 1) % 4} 0 1 0 1\n" for u in range(4))
            + "".join(f"{u} {(u + 1) % 4} 1 {cap} 0 0\n" for u in range(4)))


def test_huge_k_walk_is_refused_past_the_stage_limit(tmp_path):
    """The first stage covers every deficient cut of k = 2^62 + 2, which
    leaves about 2^61 empty stages to walk: the walk stops past
    ``MAX_STAGES`` with one error line, under the same memory cap."""
    path = tmp_path / "huge.txt"
    path.write_text(_cycle_instance(2 ** 62 + 2, 2 ** 62))
    proc = subprocess.run(
        [sys.executable, "-m", "nearcut", "solve", "augment", "--input", str(path)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
        env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (f"error: raising connectivity from 2 to k = {2 ** 62 + 2} "
                           f"walks more than {augment.MAX_STAGES} stages\n")


def test_stage_limit_counts_every_stage(monkeypatch):
    monkeypatch.setattr(augment, "MAX_STAGES", 3)
    at_limit = AugmentInstance(parse_instance(_cycle_instance(8, 6)).graph, 8)
    assert len(near_min_cuts_cover(at_limit).stages) == 3
    past = AugmentInstance(parse_instance(_cycle_instance(9, 7)).graph, 9)
    with pytest.raises(LimitError, match="from 2 to k = 9 walks more than 3 stages"):
        near_min_cuts_cover(past)


# ---------------------------------------------------------------------------
# Instance headers: one integer rule for both formats


@pytest.mark.parametrize("k, q", [("2.7", "0"), ("2", "true"), ("2.0", "0")])
def test_bad_header_is_rejected_in_both_formats(k, q):
    text = f"2 1 {k} {q}\n0 1 1 1 0 1\n"
    blob = json.dumps({"n": 2, "m": 1, "k": json.loads(k), "q": json.loads(q),
                       "edges": [{"u": 0, "v": 1, "cost": 1, "capacity": 1,
                                  "unsafe_flag": 0, "base_flag": 1}]})
    with pytest.raises(InputError, match="line 1: non-integer header field"):
        parse_instance(text)
    with pytest.raises(InputError, match="non-integer header field"):
        parse_instance(blob)


# ---------------------------------------------------------------------------
# One table per content for the full edge set


def test_full_edge_subgraph_is_the_graph():
    g = make_flex_corpus(1, 7, 3)[0][1]
    assert subgraph(g, range(g.m)) is g
    assert subgraph(g, list(reversed(range(g.m))) * 2) is g
    assert subgraph(g, range(g.m - 1)) is not g


def test_flex_checks_on_every_edge_share_the_graph_tables(monkeypatch):
    import nearcut.cut_structure as cs
    tables = []

    def recording(h):
        out = cut_value_array(h)
        tables.append(out)
        return out
    monkeypatch.setattr(cs, "cut_value_array", recording)
    g = make_flex_corpus(1, 20260806, 3)[0][1]
    enumerate_Fq(g, range(g.m), 3, 2)
    decompose_F2_odd(g, range(g.m), 3)
    assert {id(t) for t in tables} == \
        {id(cut_value_array(g)), id(cut_value_array(g.unsafe_graph))}


# ---------------------------------------------------------------------------
# One phase log for both staged solvers


def test_phase_logs_that_differ_only_in_work_compare_equal():
    log = PhaseLog(1, "F1", 3, "exact", 7, Fraction(1), (4, 5), nodes_explored=10)
    assert log == PhaseLog(1, "F1", 3, "exact", 7, Fraction(1), (4, 5))
    assert log != PhaseLog(2, "F1", 3, "exact", 7, Fraction(1), (4, 5), 10)


def test_kecss_is_the_level_zero_phase():
    for _iid, inst in make_fgc_corpus(12, 20261019):
        g, k = inst.graph, inst.k
        search = fgc.minimum_flex_subgraph(g, k, 0)
        base = fgc.kecss(g, k)
        assert base == PhaseLog(0, "kecss", 0, "approx2", search.cost, 2,
                                search.edge_ids)
        assert base.nodes_explored == search.nodes_explored > 0
        first = solve_fgc(inst).phases[0]
        assert first == base and first.nodes_explored == base.nodes_explored


def test_stages_carry_the_nodes_of_an_exact_cover(monkeypatch):
    monkeypatch.setattr(family_cover, "ring_cover_solver", EXACT_SLOT)
    seen = 0
    for iid, inst in CORPUS[:80:2]:
        res = _outcome(near_min_cuts_cover, inst)
        if res[0] == "error":
            continue
        for s in res[0]:
            assert isinstance(s, PhaseLog) and s.name in ("single", "pair"), iid
            if s.solver == "exact":
                assert s.nodes_explored > 0, iid
                seen += 1
            else:
                assert s.nodes_explored == 0, iid
    assert seen


def test_one_phase_record():
    import nearcut
    from nearcut import augment
    assert not hasattr(nearcut, "StageLog")
    assert not hasattr(augment, "StageLog") and not hasattr(fgc, "KecssResult")
