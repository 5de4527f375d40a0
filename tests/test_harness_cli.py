import json
import logging
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from nearcut import (
    AugmentInstance,
    AugmentResult,
    FlexInstance,
    GenSpec,
    InfeasibleError,
    InputError,
    Instance,
    LimitError,
    Multigraph,
    generate,
    kecss,
    load_instance,
    run_suite,
    save_instance,
)
from nearcut import harness
from nearcut.cli import main
from nearcut.harness import exact_fgc, strip_wall_times
from nearcut.io import instance_to_text

from conftest import g_from


# ---------------------------------------------------------------------------
# generator


def test_generate_deterministic_bytes():
    spec = GenSpec(n_min=5, n_max=8, density=0.6, unsafe_p=0.3, cost_min=1,
                   cost_max=9, seed=1)
    a = generate(spec)
    b = generate(spec)
    assert instance_to_text(Instance(a, 1, 0)) == instance_to_text(Instance(b, 1, 0))


def test_generate_full_density_is_complete():
    g = generate(GenSpec(n_min=5, n_max=5, density=1.0, seed=3))
    assert g.m == 10
    assert {(e.u, e.v) for e in g.edges} == {(u, v) for u in range(5)
                                             for v in range(u + 1, 5)}


def test_generate_zero_unsafe_probability():
    g = generate(GenSpec(n_min=6, n_max=6, density=0.9, unsafe_p=0.0, seed=4))
    assert not any(e.unsafe for e in g.edges)


def test_generate_bad_capacity_spec():
    with pytest.raises(InputError, match="capacity"):
        generate(GenSpec(cap_min=0))
    with pytest.raises(InputError, match="capacity"):
        generate(GenSpec(cap_min=3, cap_max=2))


# ---------------------------------------------------------------------------
# oracles


def test_exact_fgc_no_unsafe_equals_kecss():
    g = g_from(4, [(u, v, 2) for u in range(4) for v in range(u + 1, 4)])
    assert exact_fgc(FlexInstance(g, 2, 2)).cost == kecss(g, 2).cost


def test_exact_fgc_triangle_frozen():
    g = g_from(3, [(0, 1, 1, 1, True), (1, 2, 1), (0, 2, 1)])
    res = exact_fgc(FlexInstance(g, 1, 1))
    assert res.cost == 2  # the two safe edges form a feasible spanning tree


def test_exact_fgc_infeasible_k():
    g = g_from(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(InfeasibleError):
        exact_fgc(FlexInstance(g, 2, 0))


def test_exact_fgc_edge_limit(monkeypatch):
    g = g_from(4, [(0, 1, 1)] * 5 + [(1, 2, 1)] * 5 + [(2, 3, 1)] * 5
               + [(3, 0, 1)] * 5)
    assert exact_fgc(FlexInstance(g, 2, 0)).cost == 4
    monkeypatch.setattr(harness, "DEFAULT_ORACLE_EDGE_LIMIT", 10)
    with pytest.raises(LimitError, match="oracle limited to 10 edges, instance has 20"):
        exact_fgc(FlexInstance(g, 2, 0))


# ---------------------------------------------------------------------------
# suites


def test_run_suite_unknown_name():
    with pytest.raises(InputError):
        run_suite("nope")


def test_suite_reports_are_deterministic_and_jsonable():
    cfg = {"graphs": 25, "seed": 5}
    a = run_suite("squares", cfg)
    b = run_suite("squares", cfg)
    assert json.dumps(strip_wall_times(a), sort_keys=True) == \
        json.dumps(strip_wall_times(b), sort_keys=True)
    assert a["pass"] is True


def test_ratio_suite_records_are_exact():
    rep = run_suite("ratios", {"kind": "augment", "augment_count": 6, "seed": 2})
    assert rep["pass"]
    for rec in rep["records"]:
        num, den = rec["ratio"]
        bnum, bden = rec["bound"]
        assert num * bden <= bnum * den  # exact rational comparison


def test_one_rule_names_every_ratio_violation():
    iid, inst = harness.make_augment_corpus(1, 7)[0]
    rec = harness.augment_record(iid, inst)
    assert rec.violation is None and not rec.violated
    over = rec.bound + 1
    for change, why in [
            ({"feasible": False}, "infeasible output"),
            ({"algorithm_cost": 3, "oracle_cost": 0, "ratio": Fraction(0)},
             "cost 3 against a zero-cost optimum"),
            ({"ratio": over}, f"ratio {over} exceeds bound {rec.bound}")]:
        bad = replace(rec, **change)
        assert bad.violation == why and bad.violated


def test_paying_against_a_zero_cost_optimum_is_a_violation(tmp_path, monkeypatch,
                                                           capsys):
    """Candidates that cost 0 make the optimum free; a solver that pays 1
    fails the record, the ratio suite and bench, though its ratio reads 0."""
    edges = [(0, 1, 0, 1, 0, 1), (1, 2, 0, 1, 0, 1), (0, 2, 0, 1, 0, 0)]
    inst = AugmentInstance(Multigraph.from_edges(3, edges), 2)
    monkeypatch.setattr(harness, "near_min_cuts_cover", lambda inst: AugmentResult(
        chosen=(2,), cost=1, stages=(), bound=Fraction(1), lam0=1))
    rec = harness.augment_record("free", inst)
    assert rec.oracle_cost == 0 and rec.algorithm_cost == 1 and rec.violated

    monkeypatch.setattr(harness, "make_augment_corpus",
                        lambda count, seed: [("free", inst)])
    rep = run_suite("ratios", {"kind": "augment", "augment_count": 1})
    assert not rep["pass"]
    assert rep["violations"] == ["free: cost 1 against a zero-cost optimum"]

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    save_instance(Instance(inst.graph, 2, 0), corpus / "free.txt")
    assert main(["bench", "--corpus", str(corpus)]) == 1
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary == {"instances": 1, "violations": ["free.txt"]}


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_and_solve_roundtrip(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--out", str(out), "--nodes", "5", "--density", "1.0",
                 "--cost", "1:5", "--seed", "7", "--k", "2", "--q", "1",
                 "--unsafe-p", "0.3"]) == 0
    assert out.exists()

    assert main(["solve", "fgc", "--input", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "fgc" and report["feasible"]

    assert main(["oracle", "fgc", "--input", str(out)]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert oracle["cost"] <= report["cost"]


def test_cli_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["--nodes", "5:7", "--density", "0.8", "--seed", "11"]
    main(["gen", "--out", str(a)] + args)
    main(["gen", "--out", str(b)] + args)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_gen_cap_takes_one_number_like_cost(tmp_path, fmt):
    """``--cap 7`` is ``--cap 7:7``, and ``unit`` is ``1:1``."""
    def gen(name, cap):
        out = tmp_path / f"{name}.{fmt}"
        args = ["--nodes", "5:7", "--density", "0.8", "--seed", "11", "--format", fmt]
        assert main(["gen", "--out", str(out), "--cap", cap] + args) == 0
        return out

    assert gen("one", "7").read_bytes() == gen("range", "7:7").read_bytes()
    assert {e.capacity for e in load_instance(gen("seven", "7")).graph.edges} == {7}
    assert gen("unit", "unit").read_bytes() == gen("ones", "1:1").read_bytes() \
        == gen("one-one", "1").read_bytes()


def test_cli_solve_augment(tmp_path, capsys):
    inst = Instance(g_from(4, [(0, 1, 0, 1, 0, 1), (1, 2, 0, 1, 0, 1),
                               (2, 3, 0, 1, 0, 1), (3, 0, 0, 1, 0, 1),
                               (0, 2, 1, 2, 0, 0), (1, 3, 1, 2, 0, 0)]), 4, 0)
    path = tmp_path / "aug.txt"
    save_instance(inst, path)
    assert main(["solve", "augment", "--input", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cost"] == 2 and rep["bound"] == [2, 1]
    assert main(["oracle", "augment", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == 2


def test_cli_verify_suite(tmp_path):
    out = tmp_path / "forest.json"
    code = main(["verify", "--suite", "forest", "--config",
                 '{"pairs": 200}', "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "forest" and rep["pass"]


def test_cli_bench(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    main(["gen", "--out", str(corpus / "01.txt"), "--nodes", "5",
          "--density", "1.0", "--cost", "1:4", "--seed", "1", "--k", "2",
          "--q", "0"])
    main(["gen", "--out", str(corpus / "02.txt"), "--nodes", "5",
          "--density", "1.0", "--cost", "1:4", "--seed", "2", "--k", "1",
          "--q", "1", "--unsafe-p", "0.4"])
    out = tmp_path / "bench.json"
    assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["summary"]["instances"] == 2 and rep["pass"]


def test_cli_bench_reports_every_instance_past_an_error(tmp_path, capsys):
    # gen2.txt is not (2, 1)-flex-connected, so it cannot be solved; the
    # instances after it are still solved and reported
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    spec = ["--nodes", "5:6", "--density", "0.8", "--cost", "1:9", "--k", "2",
            "--q", "1"]
    main(["gen", "--out", str(corpus / "gen2.txt"), "--unsafe-p", "0.4",
          "--seed", "2"] + spec)
    for seed in (5, 7):
        main(["gen", "--out", str(corpus / f"gen{seed}.txt"), "--unsafe-p", "0.3",
              "--seed", str(seed)] + spec)
    out = tmp_path / "bench.json"
    assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: gen2.txt: graph itself is not flex-connected at the "
                   "requested level (witness cut nodes [4])\n")
    rep = json.loads(out.read_text())
    assert [r["instance_id"] for r in rep["records"]] == ["gen5.txt", "gen7.txt"]
    assert all(r["feasible"] for r in rep["records"])
    assert rep["summary"]["errors"] == [{
        "instance_id": "gen2.txt",
        "error": "graph itself is not flex-connected at the requested level",
        "witness_nodes": [4]}]
    assert rep["summary"]["violations"] == [] and rep["pass"] is False
    # without the bad instance the report has no errors entry and passes
    (corpus / "gen2.txt").unlink()
    assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert "errors" not in rep["summary"] and rep["pass"]


def test_cli_bench_invariant_failure_still_aborts(tmp_path, monkeypatch, capsys):
    import nearcut.cli as cli
    from nearcut import InvariantError

    def broken(iid, inst):
        raise InvariantError("synthetic")

    monkeypatch.setattr(cli, "fgc_record", broken)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    main(["gen", "--out", str(corpus / "01.txt"), "--nodes", "5", "--seed", "1"])
    assert main(["bench", "--corpus", str(corpus)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant failure: synthetic\n"


def test_cli_log_level_debug_writes_to_stderr_only(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    main(["gen", "--out", str(path), "--nodes", "6", "--density", "0.8",
          "--cost", "1:9", "--seed", "5", "--k", "2", "--q", "1",
          "--unsafe-p", "0.3"])
    package_logger = logging.getLogger("nearcut")
    before = (list(package_logger.handlers), package_logger.level)
    assert main(["solve", "fgc", "--input", str(path)]) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert main(["--log-level", "debug", "solve", "fgc", "--input", str(path)]) == 0
    loud = capsys.readouterr()
    assert strip_wall_times(json.loads(loud.out)) == strip_wall_times(json.loads(quiet.out))
    assert "DEBUG nearcut.fgc: blocking family at level 1:" in loud.err
    # the handler and the level go away with the call
    assert (package_logger.handlers, package_logger.level) == before
    assert main(["solve", "fgc", "--input", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_log_level_keeps_stdout_byte_identical(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    suite = ["verify", "--suite", "c1", "--config", '{"k_values": [2], "per_k": 3}']
    runs = {}
    for level in (None, "warning", "info", "debug"):
        argv = [] if level is None else ["--log-level", level]
        runs[level] = subprocess.run(
            [sys.executable, "-m", "nearcut", *argv, *suite],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)))
    assert {r.returncode for r in runs.values()} == {0}
    assert len({r.stdout for r in runs.values()}) == 1
    assert json.loads(runs[None].stdout)["pass"]
    assert runs[None].stderr == runs["warning"].stderr == runs["info"].stderr == ""
    assert runs["debug"].stderr.startswith(
        "DEBUG nearcut.fgc: blocking family at level 2: ")


def test_cli_bench_unit_cost_record_kind(tmp_path):
    # the edge costs pick the record kind: all-1 costs give the same solve
    # as the unit records of ``verify --suite ratios``
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, cost in (("01.txt", "1:1"), ("02.txt", "1:9")):
        main(["gen", "--out", str(corpus / name), "--nodes", "5", "--cost", cost,
              "--density", "1.0", "--seed", "3", "--k", "2", "--q", "1",
              "--unsafe-p", "0.4"])
    out = tmp_path / "bench.json"
    assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert [r["kind"] for r in rep["records"]] == ["fgc-unit", "fgc"]
    inst = load_instance(corpus / "01.txt")
    want = harness.fgc_record("01.txt", FlexInstance(inst.graph, inst.k, inst.q))
    assert strip_wall_times(rep["records"][0]) == strip_wall_times(want.to_json_obj())


def test_cli_missing_file_is_usage_error(capsys):
    assert main(["solve", "fgc", "--input", "/nonexistent/file"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "fgc"], ["oracle", "fgc"],
                                     ["solve", "augment"]])
def test_cli_non_utf8_file_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bytes.txt"
    path.write_bytes(b"\xff\xfe\x00")
    assert main(command + ["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text")
    assert "Traceback" not in err


def test_cli_bench_reports_a_non_utf8_file_and_goes_on(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "00.txt").write_bytes(b"\xff\xfe\x00")
    main(["gen", "--out", str(corpus / "01.txt"), "--nodes", "5",
          "--density", "1.0", "--cost", "1:4", "--seed", "1", "--k", "2", "--q", "0"])
    out = tmp_path / "bench.json"
    assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: 00.txt: cannot read ")
    rep = json.loads(out.read_text())
    assert [r["instance_id"] for r in rep["records"]] == ["01.txt"]
    (entry,) = rep["summary"]["errors"]
    assert entry["instance_id"] == "00.txt"
    assert entry["error"].startswith(f"cannot read {corpus / '00.txt'}: not UTF-8 text")
    assert entry["witness_nodes"] is None


def test_cli_error_names_the_witness_cut(tmp_path, capsys):
    # two triangles joined by one bridge: k = 2 exceeds the min cut, and
    # the bridge cut {3, 4, 5} is the only one below it
    g = g_from(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1),
                   (2, 3, 1)])
    path = tmp_path / "bridge.txt"
    save_instance(Instance(g, 2, 0), path)
    assert main(["oracle", "fgc", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph itself is not flex-connected")
    assert "[3, 4, 5]" in err


def test_cli_gen_json_format(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--out", str(out), "--nodes", "4", "--density", "1.0",
                 "--cost", "1:3", "--seed", "5", "--k", "2", "--format",
                 "json"]) == 0
    assert out.read_text().lstrip().startswith("{")
    assert main(["solve", "fgc", "--input", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"]


def _refused_option(tmp_path, command: list[str], option: list[str]) -> None:
    """``command`` given an option it does not take exits 2 with
    argparse's usage and one error line, and no traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "nearcut", *command, *option],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("usage: nearcut ")
    assert [line for line in lines if "error" in line] == [
        f"nearcut: error: unrecognized arguments: {' '.join(option)}"]
    assert "Traceback" not in proc.stderr


def test_cli_augment_single_level_solver_flag(tmp_path):
    _refused_option(tmp_path, ["solve", "augment", "--input", "x"],
                    ["--single-level-solver", "exact"])


def test_cli_fgc_kecss_flag(tmp_path):
    _refused_option(tmp_path, ["solve", "fgc", "--input", "x"], ["--kecss", "exact"])


def test_cli_fgc_unit_cost_flag(tmp_path):
    _refused_option(tmp_path, ["solve", "fgc", "--input", "x"], ["--unit-cost"])


def test_cli_bench_unit_cost_flag(tmp_path):
    _refused_option(tmp_path, ["bench", "--corpus", "x"], ["--unit-cost"])


def test_no_entry_point_takes_a_search_limit_or_a_row_choice():
    """The search limits are module constants and the edge costs pick the
    unit-cost rows: no callable exported by ``nearcut`` takes
    ``node_budget`` or ``edge_limit``, and no command offers ``--unit-cost``."""
    import argparse
    import inspect

    import nearcut
    from nearcut.cli import build_parser

    checked, takers = set(), []
    for name, obj in vars(nearcut).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        checked.add(name)
        takers += [f"{name}({p})" for p in ("node_budget", "edge_limit") if p in params]
    assert takers == []
    assert {"kecss", "minimum_flex_subgraph", "exact_min_cover", "exact_fgc",
            "exact_augment", "solve_fgc"} <= checked

    def options(parser):
        for action in parser._actions:
            yield from action.option_strings
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from options(sub)

    offered = set(options(build_parser()))
    assert {"--input", "--corpus", "--q"} <= offered
    assert "--unit-cost" not in offered


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    import nearcut.harness as harness
    monkeypatch.setitem(harness._SUITES, "forest",
                        lambda cfg: {"suite": "forest", "pass": False,
                                     "first_counterexample": "synthetic"})
    assert main(["verify", "--suite", "forest"]) == 1
    capsys.readouterr()


def test_c1_suite_reaches_k5():
    # k >= 5 gets a skeleton of ceil((k+1)/2) cycles, min cut at least k+1
    assert main(["verify", "--suite", "c1", "--config",
                 '{"k_values": [5], "per_k": 150}']) == 0
    assert main(["verify", "--suite", "c1", "--config",
                 '{"k_values": [1, 2, 3, 4, 5, 6, 7]}']) == 0


def test_flex_corpus_k5_skeleton_clears_k():
    from nearcut import min_cut_value
    from nearcut.harness import make_flex_corpus
    for _, g in make_flex_corpus(10, 99, 5, n_min=4, n_max=8):
        assert min_cut_value(g) >= 6


def test_python_dash_m_nearcut(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "nearcut", "verify", "--suite", "forest"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"]


def test_every_error_carries_a_witness():
    import nearcut
    from nearcut.cli import _describe

    for name in ("NearcutError", "InputError", "LimitError", "PreconditionError",
                 "InfeasibleError", "BudgetError", "InvariantError"):
        cls = getattr(nearcut, name)
        plain, marked = cls("no witness"), cls("a cut", witness=0b110)
        assert (plain.args, plain.witness) == (("no witness",), None)
        assert (marked.args, marked.witness) == (("a cut",), 0b110)
        assert _describe(plain) == "no witness"
        assert _describe(marked) == "a cut (witness cut nodes [1, 2])"
        assert _describe(cls("a pair", witness=(2, 4))) == "a pair"


# ---------------------------------------------------------------------------
# Outside input: exit 2 with an error line, never a traceback

_MISSING = "{tmp}/no-such-dir/out.json"

OUTSIDE_INPUT = {
    "gen-nodes-not-integer": ["gen", "--out", "{tmp}/g.txt", "--nodes", "x"],
    "gen-cost-reversed": ["gen", "--out", "{tmp}/g.txt", "--cost", "5:1"],
    "gen-cost-negative": ["gen", "--out", "{tmp}/g.txt", "--cost=-1:3"],
    "config-not-json": ["verify", "--suite", "forest", "--config", "not json"],
    "config-not-an-object": ["verify", "--suite", "forest", "--config", "[1]"],
    "config-wrong-type": ["verify", "--suite", "squares", "--config",
                          '{"graphs": "x"}'],
    "config-unknown-key": ["verify", "--suite", "squares", "--config",
                           '{"graph": 5}'],
    "config-bool-for-int": ["verify", "--suite", "forest", "--config",
                            '{"pairs": true}'],
    "out-gen": ["gen", "--out", _MISSING],
    "out-verify": ["verify", "--suite", "forest", "--config", '{"pairs": 3}',
                   "--out", _MISSING],
    "out-solve-fgc": ["solve", "fgc", "--input", "{tmp}/k4.txt", "--out", _MISSING],
    "out-solve-augment": ["solve", "augment", "--input", "{tmp}/aug.txt",
                          "--out", _MISSING],
    "out-oracle": ["oracle", "fgc", "--input", "{tmp}/k4.txt", "--out", _MISSING],
    "out-bench": ["bench", "--corpus", "{tmp}/corpus", "--out", _MISSING],
}


@pytest.mark.parametrize("argv", OUTSIDE_INPUT.values(), ids=OUTSIDE_INPUT.keys())
def test_outside_input_exits_2_without_a_traceback(tmp_path, capsys, argv):
    k4 = g_from(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    save_instance(Instance(k4, 2, 0), tmp_path / "k4.txt")
    # a 4-cycle base (lam0 = 2) and two chords as candidates
    aug = g_from(4, [(u, (u + 1) % 4, 0, 1, False, True) for u in range(4)]
                 + [(0, 2, 3, 1), (1, 3, 4, 1)])
    save_instance(Instance(aug, 3, 0), tmp_path / "aug.txt")
    (tmp_path / "corpus").mkdir()
    save_instance(Instance(k4, 2, 0), tmp_path / "corpus" / "k4.txt")
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert ("cannot write" in err) == (_MISSING in argv)
    assert not (tmp_path / "no-such-dir").exists()


GEN_BAD_NUMBERS = {
    "density-nan": (["--density", "nan"], "density"),
    "density-inf": (["--density", "inf"], "density"),
    "density-negative": (["--density=-0.5"], "density"),
    "density-huge": (["--density", "1e7"], "edges"),
    "nodes-huge": (["--nodes", "2000"], "edges"),
    "unsafe-p-above-one": (["--unsafe-p", "7"], "unsafe probability"),
    "unsafe-p-negative": (["--unsafe-p=-0.1"], "unsafe probability"),
    "unsafe-p-nan": (["--unsafe-p", "nan"], "unsafe probability"),
    # a graph no solver takes; this sparse one once retried for minutes
    "nodes-past-the-exhaustive-limit": (["--nodes", "1400", "--density", "0.001"],
                                        "limited to n <= 24 nodes, got n_max = 1400"),
    # a header no solver takes
    "k-below-one": (["--nodes", "5", "--k", "-3", "--q", "-2"], "got k = -3, q = -2"),
    "q-negative": (["--q=-1"], "got k = 2, q = -1"),
    "cap-below-one": (["--cap", "0:2"], "bad capacity range"),
    "cap-not-a-range": (["--cap", "x"], "--cap takes an integer or lo:hi, got 'x'"),
}


@pytest.mark.parametrize("extra, named", GEN_BAD_NUMBERS.values(), ids=GEN_BAD_NUMBERS.keys())
def test_gen_refuses_bad_numbers_before_any_draw(tmp_path, capsys, monkeypatch, extra, named):
    import nearcut.harness as harness

    def no_draws(seed):
        raise AssertionError("the generator started drawing")

    monkeypatch.setattr(harness, "random", SimpleNamespace(Random=no_draws))
    out = tmp_path / "g.txt"
    assert main(["gen", "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err
    assert not out.exists()


def test_gen_ceiling_is_fixed_at_the_exhaustive_limit(tmp_path, capsys, monkeypatch):
    out = tmp_path / "g.txt"
    argv = ["gen", "--out", str(out), "--nodes", "25:26", "--density", "0.3"]
    assert main(argv) == 2
    assert "n <= 24" in capsys.readouterr().err
    with pytest.raises(LimitError, match="n <= 24 nodes, got n_max = 25"):
        generate(GenSpec(n_min=20, n_max=25))
    # the old environment override no longer lifts the ceiling
    monkeypatch.setenv("NEARCUT_EXHAUSTIVE_LIMIT", "26")
    assert main(argv) == 2
    assert "n <= 24" in capsys.readouterr().err
    with pytest.raises(LimitError, match="n <= 24"):
        generate(GenSpec(n_min=20, n_max=25))
    assert not out.exists()


def test_generated_edge_limit_is_the_worst_case_count(monkeypatch):
    import nearcut.harness as harness

    monkeypatch.setattr(harness, "MAX_GENERATED_EDGES", 45)   # C(10, 2)
    assert generate(GenSpec(n_min=10, n_max=10, density=1.0)).m == 45
    with pytest.raises(LimitError, match="up to 90 edges"):
        generate(GenSpec(n_min=4, n_max=10, density=1.5))
    with pytest.raises(LimitError, match="up to 55 edges"):
        generate(GenSpec(n_min=4, n_max=11, density=0.1))


def test_bench_takes_no_kind(capsys):
    from nearcut.cli import build_parser
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "--corpus", "c", "--kind", "fgc"])
    assert "unrecognized arguments: --kind fgc" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Refused before any work: out-of-range configs and unwritable --out paths

REFUSED_BEFORE_WORK = {
    "squares-range-reversed": (["verify", "--suite", "squares", "--config",
                                '{"graphs": 3, "n_min": 8, "n_max": 5}'], "'n_max'"),
    "squares-m-factor-negative": (["verify", "--suite", "squares", "--config",
                                   '{"graphs": 3, "m_factor": -1}'], "'m_factor'"),
    "classify-m-factor-zero": (["verify", "--suite", "classify", "--config",
                                '{"m_factor": 0}'], "'m_factor'"),
    "uncrossable-n-min-1": (["verify", "--suite", "uncrossable", "--config",
                             '{"n_min": 1}'], "'n_min'"),
    "decompose-graphs-negative": (["verify", "--suite", "decompose", "--config",
                                   '{"graphs": -1}'], "'graphs'"),
    "forest-pairs-negative": (["verify", "--suite", "forest", "--config",
                               '{"pairs": -5}'], "'pairs'"),
    "c1-k-not-an-int": (["verify", "--suite", "c1", "--config",
                         '{"k_values": ["a"], "per_k": 2}'], "'k_values'"),
    "c1-k-a-bool": (["verify", "--suite", "c1", "--config", '{"k_values": [true]}'],
                    "'k_values'"),
    "c1-k-zero": (["verify", "--suite", "c1", "--config", '{"k_values": [1, 0]}'],
                  "'k_values'"),
    "c1-per-k-negative": (["verify", "--suite", "c1", "--config", '{"per_k": -1}'],
                          "'per_k'"),
    "ratios-kind-unknown": (["verify", "--suite", "ratios", "--config", '{"kind": "x"}'],
                            "'kind'"),
    "ratios-count-negative": (["verify", "--suite", "ratios", "--config",
                               '{"unit_count": -2}'], "'unit_count'"),
    "out-verify-missing-dir": (["verify", "--suite", "forest", "--out", _MISSING],
                               "cannot write"),
    "out-verify-a-directory": (["verify", "--suite", "forest", "--out", "{tmp}"],
                               "cannot write {tmp}: it is a directory"),
    "out-gen-a-directory": (["gen", "--out", "{tmp}/corpus"], "cannot write"),
    "out-solve-fgc-a-directory": (["solve", "fgc", "--input", "{tmp}/k4.txt",
                                   "--out", "{tmp}"], "cannot write"),
    "out-solve-augment-missing-dir": (["solve", "augment", "--input", "{tmp}/k4.txt",
                                       "--out", _MISSING], "cannot write"),
    "out-oracle-missing-dir": (["oracle", "augment", "--input", "{tmp}/k4.txt",
                                "--out", _MISSING], "cannot write"),
    "out-bench-missing-dir": (["bench", "--corpus", "{tmp}/corpus", "--out", _MISSING],
                              "cannot write"),
}


@pytest.mark.parametrize("argv, says", REFUSED_BEFORE_WORK.values(),
                         ids=REFUSED_BEFORE_WORK.keys())
def test_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, says):
    import nearcut.cli as cli
    import nearcut.harness as harness

    k4 = g_from(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    save_instance(Instance(k4, 2, 0), tmp_path / "k4.txt")
    (tmp_path / "corpus").mkdir()
    save_instance(Instance(k4, 2, 0), tmp_path / "corpus" / "k4.txt")
    calls = []

    def work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("work ran before the refusal")

    monkeypatch.setattr(harness, "_SUITES", {name: work for name in harness._SUITES})
    for name in ("generate", "near_min_cuts_cover", "solve_fgc", "exact_augment",
                 "exact_fgc", "augment_record", "fgc_record", "load_instance"):
        monkeypatch.setattr(cli, name, work)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert says.replace("{tmp}", str(tmp_path)) in err
    assert calls == []
    assert not (tmp_path / "no-such-dir").exists()
