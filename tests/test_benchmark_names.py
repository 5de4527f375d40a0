"""Every package name the benchmark reaches for still exists.

``perfbench/tracing.py`` wraps the functions in ``TARGETS``, the method in
``METHOD_TARGET`` and the solver slots in ``SLOT_NAMES``;
``perfbench/workloads.py`` calls the package as ``nc.<name>``.  Both files
are only read here, so a deletion in the package fails this test instead
of the benchmark.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import nearcut
from nearcut.family_cover import SOLVER_SLOTS, SolverSlot

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def tracing_constants() -> dict[str, ast.expr]:
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    return {node.targets[0].id: node.value for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)}


def test_traced_functions_resolve():
    targets = tracing_constants()["TARGETS"]
    names = [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
             for entry in targets.elts]
    assert len(names) > 20
    for mod_name, attr in names:
        module = importlib.import_module(f"nearcut.{mod_name}")
        assert callable(getattr(module, attr, None)), f"nearcut.{mod_name}.{attr}"


def test_traced_method_and_slots_resolve():
    consts = tracing_constants()
    mod_name, cls_name, meth = ast.literal_eval(consts["METHOD_TARGET"])
    cls = getattr(importlib.import_module(f"nearcut.{mod_name}"), cls_name)
    assert callable(vars(cls).get(meth)), f"{cls_name}.{meth}"
    family_cover = importlib.import_module("nearcut.family_cover")
    for name in ast.literal_eval(consts["SLOT_NAMES"]):
        assert isinstance(getattr(family_cover, name, None), SolverSlot), name
    assert all(isinstance(slot, SolverSlot) for slot in SOLVER_SLOTS.values())


def test_workload_calls_resolve():
    text = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bnc\.([A-Za-z_]\w*)", text))
    names |= set(re.findall(r"\b_nc\(\)\.([A-Za-z_]\w*)", text))
    assert {"solve_fgc", "near_min_cuts_cover", "implemented_ratio_bound"} <= names
    missing = sorted(name for name in names if not hasattr(nearcut, name))
    assert not missing
