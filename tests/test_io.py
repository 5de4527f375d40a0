import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearcut import EdgeRecord, InputError, Instance, Multigraph, parse_instance
from nearcut.cli import main
from nearcut.io import (
    instance_to_json_obj,
    instance_to_text,
    load_instance,
    save_instance,
)

from conftest import g_from

SAMPLE = """\
# a comment line
3 3 2 1
0 1 4 1 1 0   # trailing comments are fine too
1 2 1 1 0 1
0 2 2 2 0 0
"""


def test_parse_text():
    inst = parse_instance(SAMPLE)
    assert (inst.graph.n, inst.graph.m, inst.k, inst.q) == (3, 3, 2, 1)
    e0 = inst.graph.edges[0]
    assert (e0.u, e0.v, e0.cost, e0.capacity, e0.unsafe, e0.base) == (0, 1, 4, 1, True, False)
    assert inst.graph.edges[1].base


def test_text_roundtrip():
    inst = parse_instance(SAMPLE)
    again = parse_instance(instance_to_text(inst))
    assert again == inst


def test_json_roundtrip():
    inst = parse_instance(SAMPLE)
    blob = json.dumps(instance_to_json_obj(inst))
    again = parse_instance(blob)
    assert again == inst


@st.composite
def instances(draw) -> Instance:
    """Any graph on 1..8 nodes with up to 12 edges (parallel ones too),
    costs and capacities up to 2^70, random flags, k = 1..6, q = 0..4."""
    n = draw(st.integers(1, 8))
    big = st.integers(0, 2 ** 70)
    edges = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 12))):
            u, v = draw(st.permutations(range(n)))[:2]
            edges.append(EdgeRecord(u, v, draw(big), 1 + draw(big), draw(st.booleans()),
                                    draw(st.booleans())))
    return Instance(Multigraph(n, tuple(edges)), draw(st.integers(1, 6)),
                    draw(st.integers(0, 4)))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_property_text_and_json_roundtrip(inst):
    blob = json.dumps(instance_to_json_obj(inst), indent=2, sort_keys=True)
    for again in (parse_instance(instance_to_text(inst)), parse_instance(blob)):
        assert again.graph == inst.graph
        assert (again.k, again.q) == (inst.k, inst.q)
        assert all(type(x) is int for e in again.graph.edges
                   for x in (e.u, e.v, e.cost, e.capacity))


def test_parse_errors():
    with pytest.raises(InputError):
        parse_instance("")
    with pytest.raises(InputError):
        parse_instance("3 1 1 0\n0 1 0 1 0 0\n1 2 0 1 0 0\n")  # m mismatch
    with pytest.raises(InputError):
        parse_instance("2 1 1 0\n0 1 0 1 2 0\n")  # bad flag
    with pytest.raises(InputError):
        parse_instance("2 1\n0 1 0 1 0 0\n")  # short header


def test_save_load(tmp_path):
    inst = Instance(g_from(3, [(0, 1, 3), (1, 2, 1)]), 1, 0)
    for fmt in ("text", "json"):
        p = tmp_path / f"inst.{fmt}"
        save_instance(inst, p, fmt=fmt)
        assert load_instance(p) == inst


BAD_ROWS = [
    # (field, bad value): the same row in both formats
    ("unsafe_flag", 5),
    ("base_flag", -1),
    ("cost", 2.7),
    ("capacity", 1.0),
    ("u", True),
    ("v", None),
]


@pytest.mark.parametrize("field, bad", BAD_ROWS)
def test_bad_edge_row_is_rejected_in_both_formats(field, bad):
    good = {"u": 0, "v": 1, "cost": 4, "capacity": 1, "unsafe_flag": 1, "base_flag": 0}
    row = dict(good, **{field: bad})
    text = "2 2 1 0\n0 1 1 1 0 0\n" + " ".join(
        json.dumps(row[name])
        for name in ("u", "v", "cost", "capacity", "unsafe_flag", "base_flag")) + "\n"
    blob = json.dumps({"n": 2, "m": 2, "k": 1, "q": 0,
                       "edges": [dict(good, unsafe_flag=0), row]})
    with pytest.raises(InputError, match="line 3"):
        parse_instance(text)
    with pytest.raises(InputError, match="edge 1"):
        parse_instance(blob)


def test_json_edge_missing_field_names_the_edge():
    blob = json.dumps({"n": 2, "m": 1, "k": 1, "q": 0,
                       "edges": [{"u": 0, "v": 1, "cost": 1, "capacity": 1,
                                  "unsafe_flag": 0}]})
    with pytest.raises(InputError, match="edge 0"):
        parse_instance(blob)


def test_save_load_leaves_good_files_unchanged(tmp_path):
    inst = parse_instance(SAMPLE)
    for fmt in ("text", "json"):
        first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        save_instance(inst, first, fmt=fmt)
        again = load_instance(first)
        assert again == inst
        save_instance(again, second, fmt=fmt)
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("m, edges", [(1, 5), (0, {}), (1, "x"), (0, None)])
def test_json_edges_must_be_a_list(tmp_path, capsys, m, edges):
    blob = json.dumps({"n": 2, "m": m, "k": 2, "q": 0, "edges": edges})
    with pytest.raises(InputError, match='"edges" must be a list'):
        parse_instance(blob)
    path = tmp_path / "inst.json"
    path.write_text(blob)
    assert main(["solve", "fgc", "--input", str(path)]) == 2
    assert '"edges" must be a list' in capsys.readouterr().err
