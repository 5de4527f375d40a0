"""Every input the package refuses is refused with its own error and text.

Each case below calls the refusing code directly and checks the error
type and a fragment of its message.  The command-line cases exit 2 with
one ``error:`` line on stderr, nothing on stdout and no traceback.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from nearcut import (
    AugmentInstance,
    EdgeRecord,
    FlexInstance,
    GenSpec,
    Instance,
    Multigraph,
    SetFamily,
    build_square,
    decompose_plus_cuts,
    enumerate_Fq,
    family_quotient,
    flex_connected_by_removal,
    generate,
    is_flex_connected,
    kecss,
    minimum_flex_subgraph,
    parse_instance,
    save_instance,
    subgraph,
)
from nearcut.cli import main
from nearcut.errors import InputError, LimitError, PreconditionError
from nearcut.multigraph import EXHAUSTIVE_LIMIT
from nearcut.family_cover import Candidate, CoverInstance

from conftest import c4, g_from, triangle

# a 4-cycle in the text format, every edge at cost 1
C4_TEXT = "4 4 2 0\n" + "".join(f"{u} {(u + 1) % 4} 1 1 0 0\n" for u in range(4))


def _cli_refuses(argv, capsys, fragment: str) -> None:
    """``nearcut argv`` exits 2 with one ``error:`` line naming ``fragment``."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# multigraph


def test_graph_needs_a_node():
    with pytest.raises(InputError, match="node count must be >= 1, got 0"):
        Multigraph(0, ())


def test_graph_edges_must_be_edge_records():
    with pytest.raises(InputError, match="edge 1 is not an EdgeRecord"):
        Multigraph(2, (EdgeRecord(0, 1, 1, 1, False, False), (0, 1, 1, 1, False, False)))


@pytest.mark.parametrize("field", ["unsafe", "base"])
@pytest.mark.parametrize("flag", [0, 1, 2, 1.0, "False", None, np.bool_(True)])
def test_graph_edge_flags_must_be_bools(field, flag):
    edge = EdgeRecord(0, 1, 1, 1, **{field: flag})
    with pytest.raises(InputError, match="edge 1 has a flag that is not a bool"):
        Multigraph(2, (EdgeRecord(0, 1), edge))


@pytest.mark.parametrize("flag", [2, -1, 1.0, "False", "1", None, np.int64(1),
                                  np.bool_(True)])
def test_from_edges_flags_must_be_0_1_false_or_true(flag):
    for spec in ((0, 1, 1, 1, flag), (0, 1, 1, 1, False, flag)):
        with pytest.raises(InputError, match="edge 1 flags must be 0, 1, False or True"):
            Multigraph.from_edges(2, [(0, 1), spec])


@pytest.mark.parametrize("spec", [(0, 1, 1, 1, False, False, "junk", 7),
                                  (0, 1, 1, 1, 0, 0, 0)])
def test_from_edges_refuses_a_spec_with_more_than_six_fields(spec):
    with pytest.raises(InputError,
                       match=re.escape(f"edge 1 has more than six fields: {spec!r}")):
        Multigraph.from_edges(2, [(0, 1), spec])
    assert Multigraph.from_edges(2, [spec[:6]]).edges == (EdgeRecord(0, 1, 1, 1),)


def test_from_edges_reads_0_and_1_as_flags():
    g = Multigraph.from_edges(3, [(0, 1, 1, 1, 1, 0), (1, 2, 1, 1, True, 1), (0, 2)])
    assert [(e.unsafe, e.base) for e in g.edges] == [(True, False), (True, True),
                                                     (False, False)]
    assert all(type(f) is bool for e in g.edges for f in (e.unsafe, e.base))


def test_subgraph_edge_id_out_of_range():
    g = c4()
    for bad in (4, -1):
        with pytest.raises(InputError, match=f"edge id {bad} out of range"):
            subgraph(g, [0, bad])


@pytest.mark.parametrize("bad", [1.0, True, False, "1", None, np.bool_(True)])
def test_subgraph_edge_id_must_be_an_integer(bad):
    g = c4()
    for call in (lambda: subgraph(g, [0, bad]),
                 lambda: is_flex_connected(g, [0, bad], 1, 0),
                 lambda: flex_connected_by_removal(g, [0, bad], 1, 0)):
        with pytest.raises(InputError, match=f"edge id {bad!r} is not an integer"):
            call()


def test_subgraph_takes_numpy_integer_ids():
    g = c4()
    ids = np.array([2, 0], dtype=np.int64)
    assert subgraph(g, ids) == subgraph(g, [0, 2])
    assert subgraph(g, [np.int32(3), np.uint8(1)]).edges == (g.edges[1], g.edges[3])
    assert subgraph(g, np.arange(4)) is g


# ---------------------------------------------------------------------------
# cut_structure


@pytest.mark.parametrize("member", [0, 0b1111], ids=["empty", "full"])
def test_family_member_must_be_a_proper_subset(member):
    with pytest.raises(InputError, match="not a non-empty proper subset"):
        SetFamily(4, (0b0010, member))


@pytest.mark.parametrize("n", [-1, 0, 2.0, True, "4"])
def test_family_ground_set_size_must_be_a_positive_int(n):
    with pytest.raises(InputError, match="ground set size must be an integer >= 1, "
                                         f"got {n!r}"):
        SetFamily(n, (1,))


def test_family_from_sets_refuses_a_negative_node():
    with pytest.raises(InputError, match="node -1 is negative"):
        SetFamily.from_sets(4, [[1], [2, -1]])


@pytest.mark.parametrize("node", [3, 5, np.int64(4), 10 ** 12])
def test_family_from_sets_names_a_node_outside_the_ground_set(node):
    with pytest.raises(InputError, match=re.escape(f"node {int(node)} of set 1 lies "
                                                   "outside the ground set range(3)")):
        SetFamily.from_sets(3, [[2], [1, node]])


@pytest.mark.parametrize("node", [True, 1.0, "1", None, np.bool_(False)])
def test_family_from_sets_refuses_a_node_that_is_not_an_integer(node):
    with pytest.raises(InputError, match=re.escape(f"node {node!r} is not an integer")):
        SetFamily.from_sets(4, [[1], [2, node]])


def test_family_from_sets_takes_numpy_integer_nodes():
    fam = SetFamily.from_sets(4, [[np.int64(1), np.uint8(2)], np.array([3])])
    assert fam == SetFamily(4, (0b0110, 0b1000))


def test_family_members_must_be_distinct():
    with pytest.raises(InputError, match="duplicate family member 0x6"):
        SetFamily(4, (0b0110, 0b0010, 0b0110))


def test_family_quotient_ground_set_must_match():
    with pytest.raises(InputError, match="family ground set does not match the graph"):
        family_quotient(c4(), SetFamily(5, (0b00010,)))


@pytest.mark.parametrize("lam", [0, 2, 4])
def test_plus_cut_decomposition_needs_odd_lam(lam):
    with pytest.raises(InputError, match=f"odd lam >= 1, got {lam}"):
        decompose_plus_cuts(c4(), lam)


def test_square_above_the_node_limit():
    """A square's capacities come from the cut table, so a graph above
    the limit is refused even when lam is given."""
    n = EXHAUSTIVE_LIMIT + 1
    g = Multigraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    with pytest.raises(LimitError, match=f"n <= {EXHAUSTIVE_LIMIT} nodes, got n = {n}"):
        build_square(g, 0b0011, 0b0110, lam=2)


# ---------------------------------------------------------------------------
# family_cover.CoverInstance


def test_cover_family_ground_set_must_match():
    with pytest.raises(PreconditionError, match="family ground set does not match instance"):
        CoverInstance(4, (), SetFamily(3, (0b010,)))


@pytest.mark.parametrize("u, v", [(0, 0), (0, 4), (-1, 2)])
def test_cover_candidate_endpoints(u, v):
    with pytest.raises(PreconditionError, match="bad candidate endpoints"):
        CoverInstance(4, (Candidate(0, u, v, 1),), SetFamily(4, (0b0010,)))


def test_cover_candidate_cost_must_not_be_negative():
    with pytest.raises(PreconditionError, match="negative candidate cost"):
        CoverInstance(4, (Candidate(0, 0, 1, -1),), SetFamily(4, (0b0010,)))


def test_cover_candidate_idents_must_be_unique():
    cands = (Candidate(7, 0, 1, 1), Candidate(7, 1, 2, 1))
    with pytest.raises(PreconditionError, match="candidate identifiers must be unique"):
        CoverInstance(4, cands, SetFamily(4, (0b0010,)))


# ---------------------------------------------------------------------------
# fgc and augment


def test_flex_instance_bounds():
    g = triangle()
    with pytest.raises(InputError, match="k must be >= 1, got 0"):
        FlexInstance(g, 0, 0)
    with pytest.raises(InputError, match="q must be >= 0, got -1"):
        FlexInstance(g, 1, -1)


@pytest.mark.parametrize("call, fragment", [
    (lambda g: minimum_flex_subgraph(g, -1, 0), "k must be >= 1, got -1"),
    (lambda g: kecss(g, 0), "k must be >= 1, got 0"),
    (lambda g: is_flex_connected(g, range(g.m), 2, -1), "q must be >= 0, got -1"),
    (lambda g: flex_connected_by_removal(g, range(g.m), 0, 1), "k must be >= 1, got 0"),
    (lambda g: enumerate_Fq(g, range(g.m), 2.0, 1), "k and q must be integers"),
    (lambda g: enumerate_Fq(g, range(g.m), 1, 0), "defined for q >= 1, got 0"),
], ids=["minimum_flex_subgraph", "kecss", "is_flex_connected",
        "flex_connected_by_removal", "enumerate_Fq", "enumerate_Fq-level-0"])
def test_flex_functions_refuse_an_undefined_rule(call, fragment):
    with pytest.raises(InputError, match=fragment):
        call(triangle())


@pytest.mark.parametrize("edge, fragment", [
    (EdgeRecord(0, 2, 1, 3), "edge 3 has capacity 3; flex connectivity takes "
                             "unit capacities only"),
    (EdgeRecord(0, 2, 1, 1, False, True), "edge 3 is a base edge; base edges "
                                          "belong to augmentation instances"),
], ids=["capacity", "base"])
def test_flex_instance_refuses_what_the_flex_rule_ignores(edge, fragment):
    g = Multigraph(3, triangle().edges + (edge,))
    with pytest.raises(InputError, match=fragment):
        FlexInstance(g, 2, 0)


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("edge_line, fragment", [
    ("0 1 1 3 0 0", "edge 0 has capacity 3"),
    ("0 1 1 1 0 1", "edge 0 is a base edge"),
], ids=["capacity", "base"])
def test_cli_fgc_refuses_capacities_and_base_flags(command, edge_line, fragment,
                                                   tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT.replace("0 1 1 1 0 0", edge_line))
    _cli_refuses([command, "fgc", "--input", str(path)], capsys, fragment)


def test_kecss_unknown_mode():
    """kecss takes no mode and no budget: a mode passed as a third
    argument is refused at the call, before any search."""
    for mode in ("greedy", "exact"):
        with pytest.raises(TypeError, match=r"kecss\(\) takes 2 positional "
                                            "arguments but 3 were given"):
            kecss(triangle(), 1, mode)


def test_augment_target_must_be_positive():
    g = g_from(3, [(0, 1, 0, 1, 0, 1), (1, 2, 0, 1, 0, 1)])
    with pytest.raises(InputError, match="target connectivity must be >= 1, got 0"):
        AugmentInstance(g, 0)


def test_cli_unit_cost_refuses_a_weighted_file(tmp_path, capsys):
    """``solve fgc`` has no ``--unit-cost``: the costs pick the rows, so a
    weighted file solves on its own and the option is a usage error."""
    path = tmp_path / "weighted.txt"
    path.write_text(C4_TEXT.replace("0 1 1 1 0 0", "0 1 2 1 0 0"))
    assert main(["solve", "fgc", "--input", str(path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "fgc", "--input", str(path), "--unit-cost"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "nearcut: error: unrecognized arguments: --unit-cost"


# ---------------------------------------------------------------------------
# harness.generate


def test_generate_node_range_must_not_be_empty():
    with pytest.raises(InputError, match="bad node count range"):
        generate(GenSpec(n_min=6, n_max=5))


def test_generate_gives_up_after_its_tries(tmp_path, capsys):
    with pytest.raises(InputError, match="connected graph in 200 tries"):
        generate(GenSpec(n_min=2, n_max=2, density=0))
    _cli_refuses(["gen", "--out", str(tmp_path / "g.txt"), "--nodes", "2",
                  "--density", "0"], capsys, "connected graph in 200 tries")
    assert not (tmp_path / "g.txt").exists()


# ---------------------------------------------------------------------------
# io


def test_edge_line_needs_six_fields(tmp_path, capsys):
    text = "2 1 1 0\n0 1 1 1 0\n"
    with pytest.raises(InputError, match="line 2: edge line must be 'u v cost"):
        parse_instance(text)
    path = tmp_path / "short.txt"
    path.write_text(text)
    _cli_refuses(["solve", "fgc", "--input", str(path)], capsys, "edge line must be")


def _json_instance(**changes) -> dict:
    obj = {"n": 2, "m": 1, "k": 1, "q": 0,
           "edges": [{"u": 0, "v": 1, "cost": 1, "capacity": 1,
                      "unsafe_flag": 0, "base_flag": 0}]}
    obj.update(changes)
    return obj


def test_json_instance_needs_k():
    obj = _json_instance()
    del obj["k"]
    with pytest.raises(InputError, match="bad JSON instance: 'k'"):
        parse_instance(json.dumps(obj))


def test_json_instance_m_must_count_the_edges():
    with pytest.raises(InputError, match="JSON instance: m=2 but 1 edges present"):
        parse_instance(json.dumps(_json_instance(m=2)))


def test_malformed_json_is_refused(tmp_path, capsys):
    text = '{"n": 2, "m": 1,'
    with pytest.raises(InputError, match="bad JSON instance: Expecting"):
        parse_instance(text)
    path = tmp_path / "broken.json"
    path.write_text(text)
    _cli_refuses(["oracle", "fgc", "--input", str(path)], capsys, "bad JSON instance")


def test_save_instance_unknown_format(tmp_path):
    with pytest.raises(InputError, match="unknown instance format 'yaml'"):
        save_instance(Instance(triangle(), 1, 0), tmp_path / "t.yaml", fmt="yaml")
    assert not (tmp_path / "t.yaml").exists()


def test_save_instance_into_a_missing_directory(tmp_path):
    path = tmp_path / "missing" / "t.txt"
    with pytest.raises(InputError, match=f"cannot write {path}"):
        save_instance(Instance(triangle(), 1, 0), path)


# ---------------------------------------------------------------------------
# cli bench


def test_cli_bench_needs_its_corpus(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    _cli_refuses(["bench", "--corpus", str(missing)], capsys,
                 f"corpus directory not found: {missing}")


def test_cli_bench_skips_directories_and_dot_files(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "nested").mkdir(parents=True)
    (corpus / "c4.txt").write_text(C4_TEXT)
    # neither of these would parse as an instance
    (corpus / ".notes").write_text("not an instance\n")
    (corpus / "nested" / "inner.txt").write_text("not an instance\n")
    out = tmp_path / "bench.json"
    assert main(["bench", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_text())
    assert [r["instance_id"] for r in rep["records"]] == ["c4.txt"]
    assert rep["summary"]["instances"] == 1 and rep["pass"]
