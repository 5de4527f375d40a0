"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS

run._require_package()

import nearcut  # noqa: E402
import nearcut.family_cover as fc  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]

# Enough of each input set for every predicted span to fire, and small
# enough to keep the tests quick.
SUBSETS = {"augment-ladder": 4, "ratio-small": None, "structure-mid": None}


def _traced(name: str, limit):
    """Layer metrics, calls per span and spans of one traced pass on seed 5,
    after an untraced pass that checks the outputs."""
    w = WORKLOADS[name]
    specs = w.generate(5)[:limit]
    meas = run.Measurement(len(specs))
    run.run_pass(w, specs, meas)
    assert meas.failed == 0, meas.problems
    tracer, _ = run.traced_pass(w, specs, meas.summaries)
    calls: dict[str, int] = {}
    for span in tracer.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    return tracing.layer_metrics(tracer, LAYER_NAMES), calls, tracer.spans


@pytest.fixture(scope="module")
def traced():
    return {name: _traced(name, limit) for name, limit in SUBSETS.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name):
    w = WORKLOADS[name]
    assert w.generate(7) == w.generate(7)
    assert [s[-1] for s in w.generate(7)] != [s[-1] for s in w.generate(8)]


def test_self_time_of_nested_spans():
    # root [0, 100] has children a [10, 40], b [50, 90] and d [55, 70],
    # which cover [10, 40] and [50, 90]; a has a1 [15, 25]; b has c
    # [60, 95], of which only [60, 90] lies inside b.
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("a1", 15, 25, 1, 0),
        ("b", 50, 90, 0, 0),
        ("c", 60, 95, 3, 0),
        ("d", 55, 70, 0, 0),
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 10, 35, 15]


def test_metric_names_are_valid_and_match_the_spec():
    w = WORKLOADS["ratio-small"]
    spec = next(s for s in w.generate(1) if s[0] == "fgc")
    args = w.prepare(spec)
    meas = run.Measurement(100)
    for i in range(100):
        meas.op[i], meas.oracle[i], meas.ref[i] = [0.001 * (i + 1)], [0.002], [0.001]
        meas.summaries[i] = w.summary(w.op(args), w.oracle(args))
    e2e = run.end_to_end(w, meas, 0.5, 40.0)
    names = (list(e2e) + list(tracing.MOVES)
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names), names
    assert LAYER_NAMES == list(tracing.MOVES)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    assert [w["name"] for w in SPEC["workloads"]] == sorted(WORKLOADS)


def test_every_predicted_span_fires(traced):
    missing = []
    for metric, moves in tracing.MOVES.items():
        span = tracing.span_of(metric)
        for workload in moves:
            layers, calls, _ = traced[workload]
            fired = (layers[metric] if span == "fgc.minimum_flex_subgraph"
                     else calls.get(span, 0))
            if not fired:
                missing.append((metric, workload))
    assert not missing


def test_every_span_lies_under_a_root_span(traced):
    roots = (tracing.OP_SPAN, tracing.ORACLE_SPAN)
    for _layers, _calls, spans in traced.values():
        for name, _start, _end, parent, _op in spans:
            while parent >= 0:
                name, _start, _end, parent, _op = spans[parent]
            assert name in roots


def test_cut_table_hits_are_observed():
    tracer = tracing.Tracer()
    fresh, cached = nearcut.Multigraph(3, ()), nearcut.Multigraph(3, ())
    table = nearcut.multigraph.cut_value_array(cached)
    tracer.begin_op(0)
    for g in (fresh, cached, cached):
        tracer.count("t", tracer.cut_table_counter((g,), {},
                                                   nearcut.multigraph.cut_value_array(g)))
    assert nearcut.multigraph.cut_value_array(cached) is table
    assert tracer.counters["t"] == {"entries": 8, "hits": 1}


def test_counters_repeat_exactly(traced):
    deterministic = ("calls", "entries", "members", "pairs", "nodes")
    first, _, _ = traced["structure-mid"]
    again, _, _ = _traced("structure-mid", SUBSETS["structure-mid"])
    keys = [k for k in first if k.rsplit(".", 1)[1] in deterministic]
    assert keys and {k: first[k] for k in keys} == {k: again[k] for k in keys}


def test_wrappers_are_gone_after_a_traced_run(traced):
    assert tracing.leftover_wrappers() == []
    assert nearcut.augment.cut_value_array is nearcut.multigraph.cut_value_array
    assert not hasattr(nearcut.multigraph.cut_value_array, "perfbench_span")
    assert fc.SOLVER_SLOTS["pd2"] is fc.PD2_SLOT is fc.ring_cover_solver
    assert fc.PD2_SLOT.solve is fc.primal_dual_uncrossable_cover
    assert not hasattr(nearcut.AugmentInstance.current_graph, "perfbench_span")


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ratio-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
