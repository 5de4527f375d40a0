"""Every command's report, pinned byte for byte after ``strip_wall_times``.

Each case runs ``nearcut`` in-process through ``cli.main`` on instance
files written from the seeded corpora, replaces the temporary directory
in the echoed paths by ``<tmp>``, zeroes every ``wall_ms`` and compares
the result with ``pinned_reports.json`` beside this file.  A change that
is meant to leave every report as it was must pass this test unedited.

To record the expected file again, run this module as a script::

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from nearcut.cli import main
from nearcut.harness import make_augment_corpus, make_fgc_corpus, strip_wall_times
from nearcut.io import Instance, save_instance

PINNED = Path(__file__).resolve().parent / "pinned_reports.json"

# Every (lam0, k) combination of the augmentation corpus once, among them
# the gap-4 ones whose later stages meet empty families, and a 4-cycle
# base with no candidate that cannot reach k = 3.
AUGMENT = [f"aug-{i:04d}.txt" for i in range(14)] + ["aug-none.txt"]
# Every (k, q) of the flex corpus once, weighted and at unit cost.
FGC = [f"fgc-{i:04d}.txt" for i in range(12)]
UNIT = [f"unit-{i:04d}.txt" for i in range(12)]

SUITES = {
    "squares": {"graphs": 30},
    "classify": {"graphs": 30},
    "uncrossable": {"graphs": 30},
    "c1": {"per_k": 4},
    "decompose": {"graphs": 8},
    "forest": {"pairs": 300},
    "ratios": {"augment_count": 8, "fgc_count": 8, "unit_count": 4, "pd_count": 8},
}

GEN = ["gen", "--nodes", "6:8", "--density", "0.6", "--unsafe-p", "0.3",
       "--cost", "1:9", "--seed", "3", "--k", "2", "--q", "1"]


def _cases() -> dict[str, list[list[str]]]:
    """Case name -> the argument lists it runs; ``{root}`` is the
    directory holding the instance files."""
    aug = [f"{{root}}/{name}" for name in AUGMENT]
    fgc = [f"{{root}}/{name}" for name in FGC]
    unit = [f"{{root}}/{name}" for name in UNIT]
    cases = {
        "gen-text": [GEN + ["--out", "{root}/gen.txt"]],
        "gen-json": [GEN + ["--format", "json", "--out", "{root}/gen.json"]],
        "solve-augment": [["solve", "augment", "--input", p] for p in aug],
        "solve-fgc": [["solve", "fgc", "--input", p] for p in fgc],
        "solve-fgc-q3": [["solve", "fgc", "--input", p, "--q", "3"] for p in fgc],
        "solve-fgc-unit-cost": [["solve", "fgc", "--input", p] for p in unit],
        "oracle-augment": [["oracle", "augment", "--input", p] for p in aug],
        "oracle-fgc": [["oracle", "fgc", "--input", p] for p in fgc],
        "bench": [["bench", "--corpus", "{root}/bench"]],
    }
    for suite, config in SUITES.items():
        cases[f"verify-{suite}"] = [["verify", "--suite", suite,
                                     "--config", json.dumps(config)]]
    return cases


CASES = _cases()


def write_instances(root: Path) -> None:
    """The instance files every case reads, and a bench corpus of both kinds."""
    bench = root / "bench"
    bench.mkdir()
    for iid, inst in make_augment_corpus(len(AUGMENT) - 1, 20261101):
        save_instance(Instance(inst.graph, inst.k, 0), root / f"{iid}.txt")
    (root / "aug-none.txt").write_text(
        "4 4 3 0\n" + "".join(f"{u} {(u + 1) % 4} 0 1 0 1\n" for u in range(4)))
    for iid, inst in make_fgc_corpus(len(FGC), 20261102):
        save_instance(Instance(inst.graph, inst.k, inst.q), root / f"{iid}.txt")
    for i, (_iid, inst) in enumerate(make_fgc_corpus(len(UNIT), 20261103,
                                                     unit_cost=True)):
        save_instance(Instance(inst.graph, inst.k, inst.q), root / f"unit-{i:04d}.txt")
    for name in AUGMENT[:7:2] + AUGMENT[-1:] + FGC[1:12:3]:
        (bench / name).write_bytes((root / name).read_bytes())


def run_command(root: Path, argv: list[str]) -> dict:
    """Exit code, stderr and the report (stdout, or the ``--out`` file of
    ``gen``), with ``root`` shown as ``<tmp>`` and wall times zeroed."""
    argv = [a.replace("{root}", str(root)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if argv[0] == "gen" and code == 0:
        text = Path(argv[argv.index("--out") + 1]).read_text()
    text = text.replace(str(root), "<tmp>")
    report = json.loads(text) if text.lstrip().startswith("{") else text
    return {"exit": code, "stderr": err.getvalue().replace(str(root), "<tmp>"),
            "report": strip_wall_times(report)}


def run_case(root: Path, name: str) -> list[dict]:
    return [run_command(root, argv) for argv in CASES[name]]


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("pinned")
    write_instances(path)
    return path


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(root, pinned, name):
    # dumped, not compared as objects, so that 1 and 1.0 differ
    assert json.dumps(run_case(root, name), sort_keys=True) == \
        json.dumps(pinned[name], sort_keys=True)


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_instances(root)
        reports = {name: run_case(root, name) for name in sorted(CASES)}
    PINNED.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
