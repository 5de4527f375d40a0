"""No module-level name in the package is dead.

Every name bound at the top level of a module under ``src/nearcut`` (a
function, a class or an assigned name) must be read: as a loaded name in
its own module, or anywhere in the package or in ``perfbench`` as an
attribute, as a name imported from a module, or as a string (a tracer
names its targets by string, and dotted strings count part by part).  A name nothing reads is
code that nothing runs, so it should go.  Likewise every name a module
imports (the package ``__init__`` aside, whose imports are its exports)
must be read there, as a loaded name or as a string.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nearcut"
READERS = (PACKAGE, ROOT / "perfbench")


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(directory.glob("*.py"))}


def _bound_names(tree: ast.Module) -> list[str]:
    """Functions, classes and assigned names at a module's top level,
    dunder names aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a module loads bare (its own globals), and the names it
    reads in any module: attributes, imported names and strings."""
    loads, anywhere = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute):
            anywhere.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            anywhere.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            anywhere.add(node.value)
            anywhere.update(node.value.split("."))
    return loads, anywhere


def dead_names() -> list[str]:
    package = _trees(PACKAGE)
    loads = {module: _reads(tree)[0] for module, tree in package.items()}
    anywhere = set().union(*(_reads(tree)[1] for d in READERS
                             for tree in _trees(d).values()))
    return [f"{module}.{name}" for module, tree in package.items()
            for name in _bound_names(tree)
            if name not in loads[module] and name not in anywhere]


def _imported_names(tree: ast.Module) -> list[str]:
    """The names a module's import statements bind, ``__future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def unused_imports() -> list[str]:
    """Names a package module imports and never reads, neither as a loaded
    name nor as a string (dotted strings count part by part).  The package
    ``__init__`` is left out: what it imports is what it exports."""
    unused = []
    for module, tree in _trees(PACKAGE).items():
        if module == "__init__":
            continue
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(node.value.split("."))
        unused += [f"{module}.{name}" for name in _imported_names(tree) if name not in read]
    return unused


def test_every_module_level_name_is_read():
    assert dead_names() == []


def test_an_unread_name_is_found(tmp_path, monkeypatch):
    # a copy of the package with one unread constant and one unread helper
    copy = tmp_path / "nearcut"
    copy.mkdir()
    for path in PACKAGE.glob("*.py"):
        (copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(copy / "io.py", "a", encoding="utf-8") as fh:
        fh.write("\nUNREAD_LIMIT = 3\n\n\ndef _unread_helper():\n    return UNREAD_LIMIT\n")
    here = sys.modules[__name__]
    monkeypatch.setattr(here, "PACKAGE", copy)
    monkeypatch.setattr(here, "READERS", (copy, ROOT / "perfbench"))
    assert dead_names() == ["io._unread_helper"]


def test_every_imported_name_is_read():
    assert unused_imports() == []


def test_an_unread_import_is_found(tmp_path, monkeypatch):
    # a copy of the package whose cut_structure imports complement_mask
    # again and reads it nowhere
    copy = tmp_path / "nearcut"
    copy.mkdir()
    for path in PACKAGE.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.stem == "cut_structure":
            assert "    canonical_mask,\n" in text
            text = text.replace("    canonical_mask,\n",
                                "    canonical_mask,\n    complement_mask,\n", 1)
        (copy / path.name).write_text(text, encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", copy)
    assert unused_imports() == ["cut_structure.complement_mask"]
