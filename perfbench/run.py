"""nearcut benchmark: one seeded workload per run, closed loop, one thread.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload augment-ladder --seed 1 --seconds 30 --trace 0

The set-up (import, input generation, one warm-up op) is timed in this
process and in eight fresh ones, and its median is reported.  Then the
fixed input set is run pass after pass until ``--seconds`` have gone by;
every op is timed alone, and each instance contributes the median of its
repeats.  Outputs are checked outside the timed window.  The last line of
standard output is the result; the line before it carries every metric
of the workload with its unit, the sample counts and the provenance.

With ``--trace 1`` the untraced measurement runs as above, then one
traced pass over the same inputs gives the per-layer metrics (see
``tracing.py``) and writes its spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 8
P90_MIN_INSTANCES = 100

import tracing
from workloads import WORKLOADS


def _require_package() -> None:
    if not (SRC / "nearcut" / "__init__.py").is_file():
        sys.exit(f"error: no nearcut package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def setup(workload, seed: int):
    """Import the package, generate the inputs, run one warm-up op."""
    t0 = time.perf_counter()
    import nearcut  # noqa: F401  (the import is part of set-up)
    specs = workload.generate(seed)
    workload.op(workload.prepare(specs[0]))
    return specs, time.perf_counter() - t0


def _probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Measurement:
    """Per-instance op (and oracle) samples plus failures of one run."""

    def __init__(self, count: int):
        self.op = [[] for _ in range(count)]
        self.oracle = [[] for _ in range(count)]
        self.ref = [[] for _ in range(count)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.summaries = [None] * count  # of the first pass
        self.passes = 0

    def fail(self, idx: int, text: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"instance {idx}: {text}")


def reference() -> int:
    """Fixed work in the style of the package's hot loops: bit counts on
    Python ints, small tuples and dicts, exact rationals, numpy passes
    over a small table.  It is timed right before every op; the machine's
    speed swings by up to 2x within seconds and drifts over minutes, and
    an op's time divided by the reference's cancels most of that."""
    import numpy as np
    total = Fraction(0)
    seen = {}
    for i in range(1, 120):
        mask = (i * 2654435761) & 0xFFFFFF
        seen[(mask, i)] = bin(mask).count("1")
        total += Fraction(i, i + 3)
    idx = np.arange(1 << 12, dtype=np.int64)
    vals = np.zeros(1 << 12, dtype=np.int64)
    for b in range(12):
        vals += (idx >> b) & 1
    return len(seen) + int(vals.sum()) + total.numerator % 7


def run_pass(workload, specs, meas: Measurement, tracer=None) -> None:
    clock = time.perf_counter
    for idx, spec in enumerate(specs):
        args = workload.prepare(spec)
        r0 = clock()
        reference()
        ref_s = clock() - r0
        if tracer is not None:
            tracer.begin_op(idx)
        meas.attempted += 1
        try:
            t0 = clock()
            out = (workload.op(args) if tracer is None
                   else tracer.span(tracing.OP_SPAN, workload.op, args))
            t1 = clock()
            orc = None
            if workload.has_oracle:
                orc = (workload.oracle(args) if tracer is None
                       else tracer.span(tracing.ORACLE_SPAN, workload.oracle, args))
                meas.oracle[idx].append(clock() - t1)
        except Exception as exc:  # an op that raises is a failed op
            meas.fail(idx, f"{type(exc).__name__}: {exc}")
            continue
        meas.op[idx].append(t1 - t0)
        meas.ref[idx].append(ref_s)
        summary = workload.summary(out, orc)
        if meas.summaries[idx] is None:
            meas.summaries[idx] = summary
            problems = workload.check(spec, out, orc)
            if problems:
                meas.fail(idx, "; ".join(problems))
        elif summary != meas.summaries[idx]:
            meas.fail(idx, "a repeat gave a different result")
    meas.passes += 1


def measure(workload, specs, seconds: float) -> tuple[Measurement, float]:
    """Whole passes until ``seconds`` have gone by; peak RSS in MiB after."""
    meas = Measurement(len(specs))
    start = time.perf_counter()
    while meas.passes == 0 or time.perf_counter() - start < seconds:
        run_pass(workload, specs, meas)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return meas, peak_mib


def deferred_checks(workload, specs, meas: Measurement) -> None:
    for idx, spec in enumerate(specs):
        if meas.summaries[idx] is None:
            continue
        problems = workload.deferred(spec, meas.summaries[idx])
        if problems:
            # every repeat of this instance produced the same bad output
            meas.failed += len(meas.op[idx]) - 1
            meas.fail(idx, "; ".join(problems))


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload, meas: Measurement, setup_s: float,
               peak_mib: float) -> dict:
    """Every end-to-end metric of the workload: name -> (value, unit)."""
    medians = [statistics.median(s) for s in meas.op if s]
    relative = [statistics.median(o / r for o, r in zip(ops, refs))
                for ops, refs in zip(meas.op, meas.ref) if ops]
    out = {
        "setup_s": (setup_s, "s"),
        "op_s": (sum(medians), "s"),
        "op_ms_p50": (statistics.median(medians) * 1e3, "ms"),
        "op_rel_gmean": (statistics.geometric_mean(relative), "ref"),
        "ref_ms_p50": (statistics.median(r for refs in meas.ref for r in refs) * 1e3,
                       "ms"),
        "failed_frac": (meas.failed / max(meas.attempted, 1), "fraction"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }
    if len(medians) >= P90_MIN_INSTANCES:
        out["op_ms_p90"] = (_percentile(medians, 90) * 1e3, "ms")
    summaries = [s for s in meas.summaries if s is not None]
    if hasattr(workload, "cost"):
        out["cost_total"] = (sum(workload.cost(s) for s in summaries), "cost")
    if workload.has_oracle:
        oracle = [statistics.median(s) for s in meas.oracle if s]
        out["oracle_s"] = (sum(oracle), "s")
        out["oracle_ms_p50"] = (statistics.median(oracle) * 1e3, "ms")
        ratios = [workload.ratio(s) for s in summaries]
        out["ratio_mean"] = (float(sum(ratios, Fraction(0)) / len(ratios)), "ratio")
    return out


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nearcut").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, instances: int) -> dict:
    import networkx
    import numpy
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "instances": instances,
    }


def traced_pass(workload, specs, summaries) -> tuple[tracing.Tracer, float]:
    """One traced pass over the inputs: the tracer and the traced op seconds.

    ``summaries`` are the checked results of the untraced run; the traced
    pass only compares its results with them and runs no output check."""
    tracer = tracing.Tracer()
    meas = Measurement(len(specs))
    meas.summaries = list(summaries)
    installed = tracing.install(tracer)
    try:
        run_pass(workload, specs, meas, tracer)
    finally:
        installed.restore()
    if meas.failed:
        raise RuntimeError(f"traced pass failed: {meas.problems[:3]}")
    return tracer, sum(sum(s) for s in meas.op)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_package()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    specs, setup_main = setup(workload, args.seed)
    if args.setup_probe:
        print(repr(setup_main))
        return 0

    meas, peak_mib = measure(workload, specs, args.seconds)
    deferred_checks(workload, specs, meas)
    setup_samples = [setup_main] + [_probe_setup(workload.name, args.seed)
                                    for _ in range(SETUP_PROBES)]
    e2e = end_to_end(workload, meas, statistics.median(setup_samples), peak_mib)
    detail = {
        "workload": workload.name,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "samples": {"instances": len(specs), "passes": meas.passes,
                    "op_calls": meas.attempted, "setup_runs": len(setup_samples)},
        "problems": meas.problems,
        "provenance": provenance(args.seed, len(specs)),
    }
    if args.trace:
        tracer, traced_op_s = traced_pass(workload, specs, meas.summaries)
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.dump(span_path)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        layers = tracing.layer_metrics(tracer, units)
        layers["trace.overhead_s"] = traced_op_s - e2e["op_s"][0]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        detail["trace"] = {"spans_file": str(span_path.relative_to(ROOT)),
                           "traced_op_s": traced_op_s}
    else:
        metrics = {m["name"]: detail["metrics"][m["name"]]
                   for m in bench["end_to_end"]}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": meas.failed == 0, "attempted": meas.attempted,
                      "failed": meas.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
