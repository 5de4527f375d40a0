"""Command-line interface.

Subcommands: ``gen`` (seeded instance files), ``verify --suite NAME``
(verification suites), ``solve augment|fgc``, ``oracle augment|fgc``,
and ``bench --corpus DIR --out FILE``.  Exit codes: 0 pass, 1 invariant
or suite failure, 2 usage / IO / infeasibility.  ``--log-level`` (before
the subcommand) sends the package loggers to stderr at that level.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

from .errors import InputError, InvariantError, NearcutError
from .augment import AugmentInstance, near_min_cuts_cover
from .fgc import FlexInstance, is_flex_connected, solve_fgc
from .harness import (
    _SUITES,
    GenSpec,
    _frac,
    _mask_nodes,
    augment_record,
    exact_augment,
    exact_fgc,
    fgc_record,
    generate,
    run_suite,
)
from .io import Instance, _check_writable, _write_text, load_instance, save_instance


def _emit(obj: dict, out: str | None) -> None:
    payload = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        _write_text(out, payload)
    else:
        sys.stdout.write(payload)


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return int(lo), int(hi)
        v = int(text)
        return v, v
    except ValueError as exc:
        raise InputError(f"{flag} takes an integer or lo:hi, got {text!r}") from exc


def _cmd_gen(args) -> int:
    if args.k < 1 or args.q < 0:
        raise InputError(f"gen needs k >= 1 and q >= 0, got k = {args.k}, q = {args.q}")
    n_min, n_max = _parse_range(args.nodes, "--nodes")
    c_min, c_max = _parse_range(args.cost, "--cost")
    cap_min, cap_max = _parse_range("1" if args.cap == "unit" else args.cap, "--cap")
    spec = GenSpec(n_min=n_min, n_max=n_max, density=args.density,
                   unsafe_p=args.unsafe_p, cost_min=c_min, cost_max=c_max,
                   cap_min=cap_min, cap_max=cap_max, seed=args.seed)
    g = generate(spec)
    save_instance(Instance(g, args.k, args.q), args.out, fmt=args.format)
    return 0


def _load(args) -> Instance:
    inst = load_instance(args.input)
    k = args.k if args.k is not None else inst.k
    q = args.q if getattr(args, "q", None) is not None else inst.q
    return Instance(inst.graph, k, q)


def _cmd_solve_augment(args) -> int:
    inst = _load(args)
    aug = AugmentInstance(inst.graph, inst.k)
    t0 = time.perf_counter()
    res = near_min_cuts_cover(aug)
    report = {
        "kind": "augment",
        "input": str(args.input),
        "k": inst.k,
        "lam0": res.lam0,
        "chosen": list(res.chosen),
        "cost": res.cost,
        "bound": _frac(res.bound),
        "stages": [
            {"level": p.level, "kind": p.name, "family_size": p.family_size,
             "solver": p.solver, "cost": p.cost, "guarantee": _frac(p.guarantee)}
            for p in res.stages
        ],
        "feasible": True,
        "wall_ms": int((time.perf_counter() - t0) * 1000),
    }
    _emit(report, args.out)
    return 0


def _cmd_solve_fgc(args) -> int:
    inst = _load(args)
    flex = FlexInstance(inst.graph, inst.k, inst.q)
    t0 = time.perf_counter()
    sol = solve_fgc(flex)
    feasible, _ = is_flex_connected(inst.graph, sol.edge_ids, inst.k, inst.q)
    report = {
        "kind": "fgc",
        "input": str(args.input),
        "k": inst.k,
        "q": inst.q,
        "chosen": list(sol.edge_ids),
        "cost": sol.cost,
        "guarantee": _frac(sol.guarantee),
        "phases": [
            {"name": p.name, "family_size": p.family_size, "solver": p.solver,
             "cost": p.cost, "guarantee": _frac(p.guarantee)}
            for p in sol.phases
        ],
        "feasible": feasible,
        "wall_ms": int((time.perf_counter() - t0) * 1000),
    }
    _emit(report, args.out)
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args)
    if args.problem == "augment":
        res = exact_augment(AugmentInstance(inst.graph, inst.k))
        report = {"kind": "augment-oracle", "input": str(args.input),
                  "k": inst.k, "chosen": list(res.chosen), "cost": res.cost,
                  "nodes_explored": res.nodes_explored}
    else:
        res = exact_fgc(FlexInstance(inst.graph, inst.k, inst.q))
        report = {"kind": "fgc-oracle", "input": str(args.input), "k": inst.k,
                  "q": inst.q, "chosen": list(res.edge_ids), "cost": res.cost,
                  "nodes_explored": res.nodes_explored}
    _emit(report, args.out)
    return 0


def _cmd_verify(args) -> int:
    try:
        config = json.loads(args.config) if args.config else None
    except json.JSONDecodeError as exc:
        raise InputError(f"--config is not JSON: {exc}") from exc
    report = run_suite(args.suite, config)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise NearcutError(f"corpus directory not found: {corpus}")
    records = []
    violations = []
    errors = []
    for path in sorted(corpus.iterdir()):
        if path.is_dir() or path.name.startswith("."):
            continue
        try:
            inst = load_instance(path)
            if any(e.base for e in inst.graph.edges):
                rec = augment_record(path.name, AugmentInstance(inst.graph, inst.k))
            else:
                rec = fgc_record(path.name, FlexInstance(inst.graph, inst.k, inst.q))
        except InvariantError:
            raise
        except NearcutError as exc:
            # One bad instance costs its own record, not the whole report.
            print(f"error: {path.name}: {_describe(exc)}", file=sys.stderr)
            errors.append({"instance_id": path.name, "error": str(exc),
                           "witness_nodes": _witness_nodes(exc)})
            continue
        records.append(rec)
        if rec.violated:
            violations.append(rec.instance_id)
    summary = {"instances": len(records), "violations": violations}
    if errors:
        summary["errors"] = errors
    report = {
        "kind": "bench",
        "corpus": str(corpus),
        "records": [r.to_json_obj() for r in records],
        "summary": summary,
        "pass": not violations and not errors,
    }
    _emit(report, args.out)
    if errors:
        return 2
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearcut",
        description="Near-minimum-cut covers and flexible connectivity, verified.")
    parser.add_argument("--log-level", choices=("warning", "info", "debug"),
                        default="warning", dest="log_level",
                        help="level at which the nearcut loggers write to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance file")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--nodes", default="6:10", help="n or lo:hi")
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--unsafe-p", type=float, default=0.0, dest="unsafe_p")
    p_gen.add_argument("--cost", default="1:1", help="c or lo:hi")
    p_gen.add_argument("--cap", default="unit", help="'unit' (1), c or lo:hi")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--k", type=int, default=2)
    p_gen.add_argument("--q", type=int, default=0)
    p_gen.add_argument("--format", choices=("text", "json"), default="text")
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=tuple(_SUITES))
    p_verify.add_argument("--config", help="JSON dict of suite overrides")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)

    p_solve = sub.add_parser("solve", help="run an approximation algorithm")
    solve_sub = p_solve.add_subparsers(dest="problem", required=True)
    p_sa = solve_sub.add_parser("augment")
    p_sa.add_argument("--input", required=True)
    p_sa.add_argument("--k", type=int)
    p_sa.add_argument("--out")
    p_sa.set_defaults(func=_cmd_solve_augment)
    p_sf = solve_sub.add_parser("fgc")
    p_sf.add_argument("--input", required=True)
    p_sf.add_argument("--k", type=int)
    p_sf.add_argument("--q", type=int)
    p_sf.add_argument("--out")
    p_sf.set_defaults(func=_cmd_solve_fgc)

    p_oracle = sub.add_parser("oracle", help="exact optimum by branch and bound")
    oracle_sub = p_oracle.add_subparsers(dest="problem", required=True)
    for name in ("augment", "fgc"):
        p_o = oracle_sub.add_parser(name)
        p_o.add_argument("--input", required=True)
        p_o.add_argument("--k", type=int)
        if name == "fgc":
            p_o.add_argument("--q", type=int)
        p_o.add_argument("--out")
        p_o.set_defaults(func=_cmd_oracle)

    p_bench = sub.add_parser("bench", help="solve + oracle over a corpus dir")
    p_bench.add_argument("--corpus", required=True)
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def _witness_nodes(exc: NearcutError) -> list[int] | None:
    """The node list of a cut-mask witness, or None."""
    return _mask_nodes(exc.witness) if type(exc.witness) is int else None


def _describe(exc: NearcutError) -> str:
    """The message, plus the node list of a cut-mask witness."""
    nodes = _witness_nodes(exc)
    return str(exc) if nodes is None else f"{exc} (witness cut nodes {nodes})"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    package_logger = logging.getLogger("nearcut")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved_level = package_logger.level
    package_logger.addHandler(handler)
    package_logger.setLevel(args.log_level.upper())
    try:
        if getattr(args, "out", None):
            _check_writable(args.out)
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant failure: {_describe(exc)}", file=sys.stderr)
        return 1
    except NearcutError as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 2
    finally:
        package_logger.removeHandler(handler)
        package_logger.setLevel(saved_level)


if __name__ == "__main__":
    sys.exit(main())
