"""Span tracing of the nearcut package from outside it.

:func:`install` wraps the package functions named in :data:`TARGETS` and
rebinds every name under which a ``nearcut`` module holds them (the
defining module, each module that imported the name, the package
namespace), plus the method ``AugmentInstance.current_graph`` and the
cover-solver slots, whose ``solve`` was bound when the slot was built.
:meth:`Installed.restore` puts every original object back, so an
untraced run measures the unmodified package.

Each call records a span ``(name, start_ns, end_ns, parent, op)`` in
memory, plus the counters named in :data:`TARGETS`.  A span's self time
is its duration minus the part of it covered by its child spans.
:data:`MOVES` records, for every per-layer metric, the end-to-end metric
it should move on which workload.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from math import comb
from pathlib import Path

AUGMENT, RATIO, STRUCTURE = "augment-ladder", "ratio-small", "structure-mid"


def _returned_len(_args, _kw, out) -> dict:
    return {"members": len(out)}


def _returned_nodes(_args, _kw, out) -> dict:
    return {"nodes": out.nodes_explored}


def _uncrossable_pairs(args, kw, _out) -> dict:
    fam = args[0] if args else kw["fam"]
    return {"pairs": comb(len(fam.members), 2)}


# (module, attribute, counter function or None).  The span name is
# "<module>.<attribute>" without the package prefix.
TARGETS = (
    ("multigraph", "cut_value_array", None),   # see Tracer.cut_table_counter
    ("multigraph", "min_cut_value", None),
    ("multigraph", "enumerate_cuts_at_most", None),
    ("multigraph", "subgraph", None),
    ("augment", "near_min_cuts_cover", None),
    ("augment", "level_family", _returned_len),
    ("cut_structure", "is_uncrossable", _uncrossable_pairs),
    ("cut_structure", "is_laminar", None),
    ("cut_structure", "is_symmetric_proper_crossing", None),
    ("cut_structure", "build_square", None),
    ("cut_structure", "classify_square", None),
    ("cut_structure", "decompose_F2_odd", None),
    ("cut_structure", "decompose_plus_cuts", None),
    ("family_cover", "primal_dual_uncrossable_cover", None),
    ("family_cover", "cover_symmetric_crossing", None),
    ("family_cover", "minimal_cover", None),
    ("family_cover", "exact_min_cover", _returned_nodes),
    ("fgc", "kecss", _returned_nodes),
    ("fgc", "minimum_flex_subgraph", None),
    ("fgc", "enumerate_Fq", _returned_len),
    ("fgc", "is_flex_connected", None),
    ("harness", "exact_fgc", _returned_nodes),
    ("harness", "exact_augment", _returned_nodes),
)
METHOD_TARGET = ("augment", "AugmentInstance", "current_graph")
SLOT_NAMES = ("PD2_SLOT", "EXACT_SLOT", "ring_cover_solver")

# The benchmark's own root spans around each timed call.
OP_SPAN, ORACLE_SPAN = "bench.op", "bench.oracle"


_TABLE = {AUGMENT: ["op_s", "peak_rss_mib"], STRUCTURE: ["op_ms_p50"]}
_SQUARES = {STRUCTURE: ["op_s"]}
_COVER = {AUGMENT: ["op_s"], RATIO: ["op_s"]}
_BNB = {RATIO: ["op_s", "op_ms_p90"]}
_ORACLE = {RATIO: ["oracle_s"]}
_FLEX = {STRUCTURE: ["op_s"], RATIO: ["op_s"]}

# Per-layer metric -> {workload: end-to-end metrics it should move there}.
# Names and units live in BENCHMARK.json; the README table adds the
# workloads each metric should leave flat.  A span fires on each workload
# named here; the tests hold the benchmark to that.
MOVES = {
    "multigraph.cut_value_array.calls": _TABLE,
    "multigraph.cut_value_array.self_ms": _TABLE,
    "multigraph.cut_value_array.entries": _TABLE,
    "multigraph.cut_value_array.cache_hit_ratio": _TABLE,
    "multigraph.min_cut_value.calls": _TABLE,
    "multigraph.enumerate_cuts_at_most.self_ms": {STRUCTURE: ["op_ms_p50"]},
    "multigraph.subgraph.calls": {STRUCTURE: ["op_ms_p50"]},
    "augment.near_min_cuts_cover.self_ms": {AUGMENT: ["op_s"]},
    "augment.level_family.self_ms": {AUGMENT: ["op_s"]},
    "augment.level_family.members": {AUGMENT: ["op_s"]},
    "augment.current_graph.calls": {AUGMENT: ["op_s"]},
    "cut_structure.is_uncrossable.self_ms": {STRUCTURE: ["op_s"], AUGMENT: ["op_s"]},
    "cut_structure.is_uncrossable.pairs": {STRUCTURE: ["op_s"], AUGMENT: ["op_s"]},
    "cut_structure.is_laminar.self_ms": {AUGMENT: ["op_s"]},
    "cut_structure.is_symmetric_proper_crossing.self_ms": _SQUARES,
    "cut_structure.build_square.calls": _SQUARES,
    "cut_structure.build_square.self_ms": _SQUARES,
    "cut_structure.classify_square.self_ms": _SQUARES,
    "cut_structure.decompose_F2_odd.self_ms": _SQUARES,
    "cut_structure.decompose_plus_cuts.self_ms": _SQUARES,
    "family_cover.primal_dual_uncrossable_cover.calls": _COVER,
    "family_cover.primal_dual_uncrossable_cover.self_ms": _COVER,
    "family_cover.cover_symmetric_crossing.self_ms": {RATIO: ["op_s"]},
    "family_cover.minimal_cover.self_ms": {RATIO: ["op_s"]},
    "family_cover.exact_min_cover.self_ms": _ORACLE,
    "family_cover.exact_min_cover.nodes": _ORACLE,
    "fgc.kecss.self_ms": _BNB,
    "fgc.kecss.nodes": _BNB,
    "fgc.minimum_flex_subgraph.solve_ms": _BNB,
    "fgc.minimum_flex_subgraph.oracle_ms": _ORACLE,
    "harness.exact_fgc.nodes": _ORACLE,
    "harness.exact_augment.nodes": _ORACLE,
    "fgc.enumerate_Fq.calls": _FLEX,
    "fgc.enumerate_Fq.self_ms": _FLEX,
    "fgc.enumerate_Fq.members": _FLEX,
    "fgc.is_flex_connected.calls": _FLEX,
    "fgc.is_flex_connected.self_ms": _FLEX,
    "trace.overhead_s": {},
}

# Self time of minimum_flex_subgraph is split by the span that called it.
_MFS = "fgc.minimum_flex_subgraph"
_MFS_SPLIT = {"fgc.kecss": "solve_ms", "harness.exact_fgc": "oracle_ms"}


def span_of(metric: str) -> str:
    """Span name a per-layer metric is read from ("a.b.stat" -> "a.b")."""
    return metric.rsplit(".", 1)[0]


class Tracer:
    """In-memory span and counter store for one traced pass.

    Only calls made inside one of the benchmark's root spans (``bench.op``,
    ``bench.oracle``) are recorded; a wrapped function called anywhere
    else, such as by an output check or while building an op's inputs,
    runs untraced.
    """

    def __init__(self):
        self.spans: list = []      # (name, start_ns, end_ns, parent, op)
        self.counters: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op = -1
        self._tables: list = []    # cut tables returned in the current op

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._tables.clear()

    def count(self, name: str, values: dict) -> None:
        acc = self.counters.setdefault(name, {})
        for key, v in values.items():
            acc[key] = acc.get(key, 0) + v

    def _record(self, name: str, fn, args, kw, counter):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kw)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (name, start, end, parent, self._op)
        if counter is not None:
            self.count(name, counter(args, kw, out))
        return out

    def wrap(self, name: str, fn, counter=None):
        stack = self._stack

        def traced(*args, **kw):
            if not stack:
                return fn(*args, **kw)
            return self._record(name, fn, args, kw, counter)

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a root span of the benchmark's own."""
        return self._record(name, fn, args, {}, None)

    def cut_table_counter(self, _args, _kw, out) -> dict:
        """A table returned earlier in the same op is a cache hit; any
        other adds its size to ``entries``."""
        if any(out is seen for seen in self._tables):
            return {"hits": 1}
        self._tables.append(out)   # kept alive, so identities stay unique
        return {"entries": out.size}

    def dump(self, path: Path) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "op"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh,
                      separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Per span, its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """The per-layer metrics ``names`` except trace.overhead_s, from one pass."""
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    spans = tracer.spans
    for (name, _s, _e, parent, _op), own in zip(spans, self_times(spans)):
        calls[name] = calls.get(name, 0) + 1
        key = name
        if name == _MFS and parent >= 0:
            key = f"{_MFS}.{_MFS_SPLIT.get(spans[parent][0], 'other_ms')}"
        self_ns[key] = self_ns.get(key, 0) + own
    out = {}
    for metric in names:
        if metric == "trace.overhead_s":
            continue
        span, stat = span_of(metric), metric.rsplit(".", 1)[1]
        counters = tracer.counters.get(span, {})
        if stat == "calls":
            out[metric] = calls.get(span, 0)
        elif stat == "self_ms":
            out[metric] = self_ns.get(span, 0) / 1e6
        elif stat in ("solve_ms", "oracle_ms"):
            out[metric] = self_ns.get(metric, 0) / 1e6
        elif stat == "cache_hit_ratio":
            n = calls.get(span, 0)
            out[metric] = counters.get("hits", 0) / n if n else 0.0
        else:
            out[metric] = counters.get(stat, 0)
    return out


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "nearcut" or name.startswith("nearcut."))]


@dataclasses.dataclass
class Installed:
    """Rebindings made by :func:`install`; ``restore`` undoes all of them."""

    rebound: list        # (namespace object, attribute, original)
    slot_maps: list      # (dict, key, original slot)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        for mapping, key, original in self.slot_maps:
            mapping[key] = original
        self.rebound.clear()
        self.slot_maps.clear()


def _rebind_everywhere(original, replacement, rebound: list) -> None:
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                rebound.append((mod, attr, original))


def install(tracer: Tracer) -> Installed:
    """Wrap every target in the loaded ``nearcut`` modules."""
    import nearcut.family_cover as fc
    installed = Installed([], [])
    wrapped_fns = {}
    for mod_name, attr, counter in TARGETS:
        mod = sys.modules[f"nearcut.{mod_name}"]
        original = getattr(mod, attr)
        if attr == "cut_value_array":
            counter = tracer.cut_table_counter
        wrapper = tracer.wrap(f"{mod_name}.{attr}", original, counter)
        wrapped_fns[original] = wrapper
        _rebind_everywhere(original, wrapper, installed.rebound)

    mod_name, cls_name, meth = METHOD_TARGET
    cls = getattr(sys.modules[f"nearcut.{mod_name}"], cls_name)
    original = vars(cls)[meth]
    setattr(cls, meth, tracer.wrap(f"{mod_name}.{meth}", original))
    installed.rebound.append((cls, meth, original))

    # Slots hold the solver bound at construction; give each a twin whose
    # solve is the traced function, and rebind the slot objects too.
    slots = {id(s): s for s in (*fc.SOLVER_SLOTS.values(),
                                *(getattr(fc, n) for n in SLOT_NAMES))}
    for slot in slots.values():
        twin = dataclasses.replace(slot, solve=wrapped_fns.get(slot.solve, slot.solve))
        _rebind_everywhere(slot, twin, installed.rebound)
        for key, value in list(fc.SOLVER_SLOTS.items()):
            if value is slot:
                fc.SOLVER_SLOTS[key] = twin
                installed.slot_maps.append((fc.SOLVER_SLOTS, key, slot))
    return installed


def leftover_wrappers() -> list[str]:
    """Names in the package still bound to a span wrapper (should be [])."""
    import nearcut.family_cover as fc
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, "perfbench_span", None) is not None:
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if getattr(fn, "perfbench_span", None) is not None:
                        found.append(f"{mod.__name__}.{attr}.{meth}")
    for key, slot in fc.SOLVER_SLOTS.items():
        if getattr(slot.solve, "perfbench_span", None) is not None:
            found.append(f"SOLVER_SLOTS[{key!r}]")
    return found
