"""Instance file format.

Text form, one instance per file: a header line ``n m k q`` followed by
``m`` edge lines ``u v cost capacity unsafe_flag base_flag`` (flags are
0/1; ``#`` starts a comment).  A JSON object with the same field names
is accepted interchangeably: ``{"n":..,"m":..,"k":..,"q":..,"edges":
[{"u":..,"v":..,"cost":..,"capacity":..,"unsafe_flag":0|1,
"base_flag":0|1},...]}``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError
from .multigraph import EdgeRecord, Multigraph


@dataclass(frozen=True)
class Instance:
    """A graph plus the connectivity targets carried by instance files."""

    graph: Multigraph
    k: int
    q: int


_EDGE_FIELDS = ("u", "v", "cost", "capacity", "unsafe_flag", "base_flag")


def _integers(fields, where: str, what: str) -> list[int]:
    """Text tokens or JSON values alike: each must read as an integer in
    decimal (``2.7``, ``true`` and ``null`` do not)."""
    try:
        return [int(str(x)) for x in fields]
    except ValueError as exc:
        raise InputError(f"{where}: non-integer {what} field") from exc


def _edge_record(fields, where: str) -> EdgeRecord:
    """One edge from its six fields ``u v cost capacity unsafe_flag
    base_flag``, each read by :func:`_integers`; each flag must be 0 or 1."""
    u, v, cost, cap, unsafe, base = _integers(fields, where, "edge")
    if unsafe not in (0, 1) or base not in (0, 1):
        raise InputError(f"{where}: flags must be 0 or 1")
    return EdgeRecord(u, v, cost, cap, bool(unsafe), bool(base))


def parse_instance_text(text: str) -> Instance:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise InputError("empty instance file")
    header = rows[0][1].split()
    if len(header) != 4:
        raise InputError(f"line {rows[0][0]}: header must be 'n m k q'")
    n, m, k, q = _integers(header, f"line {rows[0][0]}", "header")
    if len(rows) - 1 != m:
        raise InputError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 6:
            raise InputError(
                f"line {lineno}: edge line must be 'u v cost capacity unsafe_flag base_flag'")
        edges.append(_edge_record(parts, f"line {lineno}"))
    return Instance(Multigraph(n, tuple(edges)), k, q)


def parse_instance_json(obj: dict) -> Instance:
    try:
        n, m, k, q = _integers([obj[name] for name in ("n", "m", "k", "q")],
                               "bad JSON instance", "header")
        raw_edges = obj["edges"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad JSON instance: {exc}") from exc
    if not isinstance(raw_edges, list):
        raise InputError("bad JSON instance: \"edges\" must be a list")
    if len(raw_edges) != m:
        raise InputError(f"JSON instance: m={m} but {len(raw_edges)} edges present")
    edges = []
    for i, e in enumerate(raw_edges):
        try:
            fields = [e[name] for name in _EDGE_FIELDS]
        except (KeyError, TypeError) as exc:
            raise InputError(f"JSON instance edge {i}: {exc}") from exc
        edges.append(_edge_record(fields, f"JSON instance edge {i}"))
    return Instance(Multigraph(n, tuple(edges)), k, q)


def parse_instance(text: str) -> Instance:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON instance: {exc}") from exc
        return parse_instance_json(obj)
    return parse_instance_text(text)


def load_instance(path) -> Instance:
    """Parse the UTF-8 instance file at ``path``; a file that cannot be
    read or decoded is an :class:`InputError` naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from exc
    return parse_instance(text)


def instance_to_text(inst: Instance) -> str:
    g = inst.graph
    lines = [f"{g.n} {g.m} {inst.k} {inst.q}"]
    for e in g.edges:
        lines.append(f"{e.u} {e.v} {e.cost} {e.capacity} {int(e.unsafe)} {int(e.base)}")
    return "\n".join(lines) + "\n"


def instance_to_json_obj(inst: Instance) -> dict:
    g = inst.graph
    return {
        "n": g.n,
        "m": g.m,
        "k": inst.k,
        "q": inst.q,
        "edges": [
            {"u": e.u, "v": e.v, "cost": e.cost, "capacity": e.capacity,
             "unsafe_flag": int(e.unsafe), "base_flag": int(e.base)}
            for e in g.edges
        ],
    }


def save_instance(inst: Instance, path, fmt: str = "text") -> None:
    if fmt == "text":
        payload = instance_to_text(inst)
    elif fmt == "json":
        payload = json.dumps(instance_to_json_obj(inst), indent=2, sort_keys=True) + "\n"
    else:
        raise InputError(f"unknown instance format {fmt!r}")
    _write_text(path, payload)


def _write_text(path, payload: str) -> None:
    """Write a file; an OS error (say, a missing directory) is an
    :class:`InputError` naming the path."""
    try:
        Path(path).write_text(payload)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _check_writable(path) -> None:
    """Refuse, before any work, an output path that names a directory or
    whose directory is missing or not writable; :func:`_write_text` still
    catches whatever else goes wrong at write time."""
    target = Path(path)
    parent = target.parent
    if target.is_dir():
        reason = "it is a directory"
    elif not parent.is_dir():
        reason = f"no directory {parent}"
    elif not os.access(parent, os.W_OK):
        reason = f"directory {parent} is not writable"
    else:
        return
    raise InputError(f"cannot write {path}: {reason}")
