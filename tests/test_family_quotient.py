"""Family quotients against the private contraction they replaced.

``family_quotient`` once merged edges into its own ``QuotientGraph``;
it now lists the class pairs edges join (``sides``) with their edge
counts and unsafe tallies.  The first version, and the shape checks and
decompositions that read it, are copied here verbatim (only the names
carry a ``reference`` prefix).  Classes and every side (endpoints, edge
count, unsafe tally) must equal theirs, and so must every decomposition
built on them.  The graph's cut values must also agree with the summed
edge counts of the crossing sides on every cut the quotient keeps whole.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearcut import (
    CutPart,
    DecompositionResult,
    EdgeRecord,
    F2Decomposition,
    InputError,
    InvariantError,
    Multigraph,
    PartShape,
    PreconditionError,
    QuotientResult,
    SetFamily,
    complement_mask,
    decompose_F2_odd,
    decompose_plus_cuts,
    family_quotient,
    is_symmetric_proper_crossing,
    is_uncrossable,
    nodes_from_mask,
    subgraph,
)
import nearcut.cut_structure as cut_structure
from nearcut import multigraph
from nearcut.cut_structure import _component_split, _holders
from nearcut.harness import make_flex_corpus
from nearcut.multigraph import cut_masks

from conftest import EDGE_FILTERS, random_multigraph, restrict

EdgeFilter = str  # the first version also took callables; no caller passed one


# The filter lookup and the filtered readers the references call, rebuilt
# on the package's tables of restricted graphs.


def resolve_filter(filt: EdgeFilter):
    return EDGE_FILTERS[filt]


def cut_value_array(g: Multigraph, filt: EdgeFilter = "all"):
    return multigraph.cut_value_array(restrict(g, filt))


def min_cut_value(g: Multigraph, filt: EdgeFilter = "all") -> int:
    return multigraph.min_cut_value(restrict(g, filt))


# ---------------------------------------------------------------------------
# References (verbatim bodies)


@dataclass(frozen=True)
class ReferenceQuotientEdge:
    a: int
    b: int
    capacity: int
    unsafe_tally: int

    @property
    def color(self) -> str:
        if self.unsafe_tally >= 2:
            return "red"
        if self.unsafe_tally == 1:
            return "blue"
        return "black"


@dataclass(frozen=True)
class ReferenceQuotientGraph:
    """Contraction by the 'separated by no family member' equivalence.

    Edge capacity counts merged parallel edges (or sums capacities when
    built weighted); ``unsafe_tally`` counts merged unsafe edges, which
    drives the red/blue/black coloring.
    """

    n_classes: int
    classes: tuple[int, ...]     # class index -> node mask
    class_of: tuple[int, ...]    # node -> class index
    edges: tuple[ReferenceQuotientEdge, ...]

    def compatible(self, mask: int) -> bool:
        """True when the cut does not split any class."""
        for cm in self.classes:
            inter = mask & cm
            if inter and inter != cm:
                return False
        return True

    def class_mask(self, mask: int) -> int:
        """Class-index bitmask of a compatible node mask."""
        out = 0
        for ci, cm in enumerate(self.classes):
            if mask & cm:
                if (mask & cm) != cm:
                    raise InputError("mask splits a quotient class")
                out |= 1 << ci
        return out

    def crossing_edges(self, mask: int) -> tuple[ReferenceQuotientEdge, ...]:
        cm = self.class_mask(mask)
        return tuple(e for e in self.edges
                     if ((cm >> e.a) & 1) != ((cm >> e.b) & 1))

    def cut_value(self, class_bits: int) -> int:
        return sum(e.capacity for e in self.edges
                   if ((class_bits >> e.a) & 1) != ((class_bits >> e.b) & 1))


@dataclass(frozen=True)
class ReferenceCutPart:
    """The first ``CutPart``; ``lambda_members`` has since been dropped,
    since nothing read it."""

    members: SetFamily
    lambda_members: SetFamily
    quotient: ReferenceQuotientGraph
    shape: PartShape


def reference_family_quotient(g: Multigraph, fam: SetFamily, filt: EdgeFilter = "all",
                    weighted: bool = False) -> ReferenceQuotientGraph:
    """Quotient of g by the classes no member of the family separates."""
    if len(fam) == 0:
        raise InputError("family_quotient needs a non-empty family")
    if fam.n != g.n:
        raise InputError("family ground set does not match the graph")
    sig_to_class: dict[tuple, int] = {}
    class_of = []
    members = fam.members
    for v in range(g.n):
        sig = tuple((m >> v) & 1 for m in members)
        if sig not in sig_to_class:
            sig_to_class[sig] = len(sig_to_class)
        class_of.append(sig_to_class[sig])
    k = len(sig_to_class)
    class_masks = [0] * k
    for v, ci in enumerate(class_of):
        class_masks[ci] |= 1 << v
    pred = resolve_filter(filt)
    merged: dict[tuple[int, int], list[int]] = {}
    for e in g.edges:
        ca, cb = class_of[e.u], class_of[e.v]
        if ca == cb:
            continue
        key = (min(ca, cb), max(ca, cb))
        acc = merged.setdefault(key, [0, 0])
        if pred(e):
            acc[0] += e.capacity if weighted else 1
        acc[1] += 1 if e.unsafe else 0
    edges = tuple(ReferenceQuotientEdge(a, b, merged[(a, b)][0], merged[(a, b)][1])
                  for (a, b) in sorted(merged))
    return ReferenceQuotientGraph(n_classes=k, classes=tuple(class_masks),
                         class_of=tuple(class_of), edges=edges)


# ---------------------------------------------------------------------------


def reference_is_single_cycle(qg: ReferenceQuotientGraph) -> bool:
    c = qg.n_classes
    if len(qg.edges) != c or c < 3:
        return False
    deg = [0] * c
    for e in qg.edges:
        deg[e.a] += 1
        deg[e.b] += 1
    if any(d != 2 for d in deg):
        return False
    # connected + all degrees 2 + |E| = |V|  =>  one cycle
    seen = {0}
    frontier = [0]
    adj = [[] for _ in range(c)]
    for e in qg.edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == c


def reference_is_cube(qg: ReferenceQuotientGraph) -> bool:
    if qg.n_classes != 8 or len(qg.edges) != 12:
        return False
    if any(e.capacity != 1 for e in qg.edges):
        return False
    adj = [set() for _ in range(8)]
    for e in qg.edges:
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    if any(len(s) != 3 for s in adj):
        return False
    target = [set(j for j in range(8) if (i ^ j).bit_count() == 1) for i in range(8)]

    mapping = [-1] * 8
    used = [False] * 8

    def extend(i: int) -> bool:
        if i == 8:
            return True
        for t in range(8):
            if used[t]:
                continue
            if any((t in target[mapping[j]]) != (j in adj[i]) for j in range(i)):
                continue
            mapping[i] = t
            used[t] = True
            if extend(i + 1):
                return True
            mapping[i] = -1
            used[t] = False
        return False

    return extend(0)


def reference_verify_part_shape(qg: ReferenceQuotientGraph, lam: int) -> PartShape:
    """Match a part quotient against the admissible shapes for odd lam.

    A two-class quotient is the degenerate length-2 cycle whose parallel
    side edges merged into one capacitated edge of total lam+1; it is
    reported as CycleUniform.
    """
    if lam < 1 or lam % 2 == 0:
        raise InputError(f"part shapes are defined for odd lam >= 1, got {lam}")
    if qg.n_classes == 2:
        if len(qg.edges) == 1 and qg.edges[0].capacity == lam + 1:
            return PartShape.CYCLE_UNIFORM
        return PartShape.OTHER
    if reference_is_single_cycle(qg):
        caps = sorted(e.capacity for e in qg.edges)
        uniform = (lam + 1) // 2
        if all(c == uniform for c in caps):
            return PartShape.CYCLE_UNIFORM
        light, heavy = (lam - 1) // 2, (lam + 3) // 2
        if (light >= 1 and caps[0] == light
                and all(c == heavy for c in caps[1:])):
            return PartShape.CYCLE_ONE_LIGHT
        return PartShape.OTHER
    if lam == 3 and reference_is_cube(qg):
        return PartShape.CUBE
    return PartShape.OTHER


def reference_decompose_plus_cuts(g: Multigraph, lam: int,
                        filt: EdgeFilter = "all") -> DecompositionResult:
    """Group the (lam+1)-cuts into shape-verified parts.

    Grouping is the transitive closure of strong crossing; each group's
    part is then widened to every (lam+1)-cut compatible with the group
    quotient, and parts subsumed by a larger part are dropped.  lam-cuts
    compatible with a part's quotient are attached as lambda_members.
    Shape verification failures are reported as diagnostics, never
    raised.
    """
    if lam < 1 or lam % 2 == 0:
        raise InputError(f"decomposition is defined for odd lam >= 1, got {lam}")
    if min_cut_value(g, filt) < lam:
        raise PreconditionError(f"graph is not {lam}-edge-connected")
    vals = cut_value_array(g, filt)
    plus = cut_masks(vals == lam + 1)
    lam_cuts = cut_masks(vals == lam)
    if not plus:
        return DecompositionResult(lam=lam, parts=(), diagnostics=())

    groups = _component_split(plus, _holders(plus, g.n))
    raw: list[tuple[tuple[int, ...], ReferenceQuotientGraph]] = []
    for group in groups:
        qg = reference_family_quotient(g, SetFamily(g.n, tuple(group)), filt)
        widened = tuple(m for m in plus if qg.compatible(m))
        raw.append((widened, qg))

    # Absorb parts whose member set is contained in a larger part.
    raw.sort(key=lambda item: (-len(item[0]), item[0]))
    kept: list[tuple[tuple[int, ...], ReferenceQuotientGraph]] = []
    kept_sets: list[frozenset] = []
    for members, qg in raw:
        mset = frozenset(members)
        if any(mset <= other for other in kept_sets):
            continue
        kept.append((members, qg))
        kept_sets.append(mset)

    diagnostics: list[str] = []
    parts = []
    for members, qg in kept:
        shape = reference_verify_part_shape(qg, lam)
        if shape is PartShape.OTHER:
            diagnostics.append(
                f"part with {len(members)} members has unrecognized quotient shape "
                f"({qg.n_classes} classes, {len(qg.edges)} edges)")
        attached = tuple(m for m in lam_cuts if qg.compatible(m))
        parts.append(ReferenceCutPart(
            members=SetFamily(g.n, members),
            lambda_members=SetFamily(g.n, attached),
            quotient=qg,
            shape=shape))

    result = DecompositionResult(lam=lam, parts=tuple(parts),
                                 diagnostics=tuple(diagnostics))
    for mask, count in result.coverage().items():
        if count > 2:
            diagnostics.append(
                f"cut {nodes_from_mask(mask)} appears in {count} parts (> 2)")
    return DecompositionResult(lam=lam, parts=tuple(parts),
                               diagnostics=tuple(diagnostics))


def reference_decompose_F2_odd(g: Multigraph, h_edges: Iterable[int], k: int) -> F2Decomposition:
    """Split the (k+1)-cuts carrying >= 2 unsafe edges, k odd.

    A member goes to the uncrossable side when some containing part
    (with a non-degenerate quotient) shows a red merged edge across it,
    or when it strongly crosses no (k+1)-cut at all; the rest, closed
    under complement, form the symmetric proper crossing side.  Both
    structure predicates are verified before returning.
    """
    if k < 1 or k % 2 == 0:
        raise InputError(f"this decomposition needs odd k >= 1, got {k}")
    h = subgraph(g, h_edges)
    if min_cut_value(h) < k:
        raise PreconditionError(f"subgraph is not {k}-edge-connected")
    d_arr = cut_value_array(h, "all")
    u_arr = cut_value_array(h, "unsafe")
    bad = cut_masks((d_arr == k) & (u_arr >= 1))
    if bad:
        raise PreconditionError(
            "subgraph has a k-cut with an unsafe edge (not (k,1)-flex-connected)",
            witness=bad[0])
    f2 = cut_masks((d_arr == k + 1) & (u_arr >= 2))

    decomp = reference_decompose_plus_cuts(h, k)
    diagnostics = list(decomp.diagnostics)

    part_members = [frozenset(p.members.members) for p in decomp.parts]
    prime = []
    rest = []
    for mask in f2:
        containing = [p for p, ms in zip(decomp.parts, part_members) if mask in ms]
        informative = [p for p in containing if p.quotient.n_classes >= 3]
        if not informative:
            # strongly crosses nothing: safe on the uncrossable side
            prime.append(mask)
            continue
        red = False
        blue_profile_ok = False
        for p in informative:
            crossing = p.quotient.crossing_edges(mask)
            if any(e.unsafe_tally >= 2 for e in crossing):
                red = True
                break
            blues = [e for e in crossing if e.unsafe_tally == 1]
            if len(blues) == 2:
                blue_profile_ok = True
        if red:
            prime.append(mask)
        else:
            if not blue_profile_ok:
                diagnostics.append(
                    f"cut {nodes_from_mask(mask)} has neither a red merged edge nor "
                    f"an exactly-two-blue crossing profile")
            rest.append(mask)

    f_prime = SetFamily(g.n, tuple(sorted(prime)))
    f_dprime = SetFamily(g.n, tuple(sorted(rest))).symmetric_closure()

    ok, wit = is_uncrossable(f_prime)
    if not ok:
        raise InvariantError("uncrossable side failed its structure check", witness=wit)
    ok, wit = is_symmetric_proper_crossing(f_dprime)
    if not ok:
        raise InvariantError("symmetric proper crossing side failed its structure check",
                             witness=wit)
    covered = set(f_prime.members)
    for m in f_dprime.members:
        covered.add(m)
        covered.add(complement_mask(m, g.n))
    for mask in f2:
        if mask not in covered:
            raise InvariantError("decomposition lost a family member",
                                 witness=mask)
    return F2Decomposition(f_prime=f_prime, f_dprime=f_dprime,
                           decomposition=decomp, diagnostics=tuple(diagnostics))


# ---------------------------------------------------------------------------
# Comparisons


def compatible(qr: QuotientResult, mask: int) -> bool:
    """True when the node mask splits no class of ``qr``."""
    return all(mask & nodes in (0, nodes) for nodes in qr.classes)


def assert_same_quotient(qr, ref):
    assert type(qr) is QuotientResult
    assert qr.classes == ref.classes
    assert len(qr.classes) == ref.n_classes
    assert qr.sides == tuple((e.a, e.b) for e in ref.edges)
    assert qr.edge_count == tuple(e.capacity for e in ref.edges)
    assert qr.unsafe_tally == tuple(e.unsafe_tally for e in ref.edges)
    for mask in range(2, 1 << len(ref.class_of), 2):  # canonical masks
        ok = ref.compatible(mask)
        assert compatible(qr, mask) == ok
        if ok:
            assert qr.crossing_tallies(mask) == \
                tuple(e.unsafe_tally for e in ref.crossing_edges(mask))


def assert_cut_values_survive(g, qr):
    """On every cut the quotient keeps whole, the graph's table (which
    counts edges, whatever their capacities) holds the summed
    ``edge_count`` of the sides crossing it."""
    vals = cut_value_array(g)
    for mask in range(2, 1 << g.n, 2):
        if compatible(qr, mask):
            cm = sum(1 << ci for ci, nodes in enumerate(qr.classes) if mask & nodes)
            assert int(vals[mask >> 1]) == sum(
                count for (a, b), count in zip(qr.sides, qr.edge_count)
                if (cm >> a ^ cm >> b) & 1)


def assert_same_decomposition(res, ref):
    assert res.lam == ref.lam
    assert res.diagnostics == ref.diagnostics
    assert len(res.parts) == len(ref.parts)
    for part, ref_part in zip(res.parts, ref.parts):
        assert type(part) is CutPart
        assert [f.name for f in fields(part)] == ["members", "quotient", "shape"]
        assert part.members == ref_part.members
        assert part.shape is ref_part.shape
        assert_same_quotient(part.quotient, ref_part.quotient)


def outcome(fn, *args):
    """The result, or the type and witness of the error raised."""
    try:
        return fn(*args)
    except (InputError, InvariantError, PreconditionError) as exc:
        return type(exc), getattr(exc, "witness", None)


def flagged_graph(rng: random.Random, n: int) -> Multigraph:
    """Random pairs (repeats give parallel edges), unsafe flags and capacities."""
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        edges.append(EdgeRecord(u, v, rng.randint(0, 5), rng.randint(1, 3),
                                rng.random() < 0.5, False))
    return Multigraph(n, tuple(edges))


def random_family(rng: random.Random, n: int) -> SetFamily:
    """Members of either orientation: any non-empty proper subsets."""
    size = rng.randint(1, min(6, (1 << n) - 2))
    return SetFamily(n, tuple(rng.sample(range(1, (1 << n) - 1), size)))


# ---------------------------------------------------------------------------
# Quotients


def test_family_quotient_matches_reference_on_seeded_corpus():
    rng = random.Random(20261018)
    for n in range(2, 9):
        for _ in range(25):
            g, fam = flagged_graph(rng, n), random_family(rng, n)
            qr = family_quotient(g, fam)
            assert_same_quotient(qr, reference_family_quotient(g, fam))
            assert_cut_values_survive(g, qr)


@st.composite
def graphs_with_families(draw):
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    specs = draw(st.lists(st.tuples(pair, st.integers(1, 3), st.booleans()),
                          max_size=3 * n))
    members = draw(st.lists(st.integers(1, (1 << n) - 2), min_size=1, max_size=6,
                            unique=True))
    g = Multigraph(n, tuple(EdgeRecord(u, v, 0, cap, unsafe, False)
                            for (u, v), cap, unsafe in specs))
    return g, SetFamily(n, tuple(members))


@settings(max_examples=150, deadline=None)
@given(graphs_with_families())
def test_family_quotient_matches_reference_property(case):
    g, fam = case
    qr = family_quotient(g, fam)
    assert_same_quotient(qr, reference_family_quotient(g, fam))
    assert_cut_values_survive(g, qr)


def test_crossing_tallies_rejects_a_split_class():
    g = Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    qr = family_quotient(g, SetFamily(4, (0b0110,)))
    assert not compatible(qr, 0b0010)
    with pytest.raises(InputError, match="mask splits a quotient class"):
        qr.crossing_tallies(0b0010)


def test_family_quotient_is_the_only_quotient():
    """One quotient: ``multigraph`` builds none, a ``QuotientResult`` holds
    classes and sides and no merged graph, and ``family_quotient`` is the
    only function in the package that constructs one."""
    import ast
    from pathlib import Path

    import nearcut

    assert not hasattr(multigraph, "quotient")
    assert [f.name for f in fields(QuotientResult)] == \
        ["classes", "sides", "edge_count", "unsafe_tally"]
    builders = []
    for path in sorted(Path(nearcut.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                builders += [f"{path.stem}.{fn.name}" for call in ast.walk(fn)
                             if isinstance(call, ast.Call)
                             and getattr(call.func, "id", None) == "QuotientResult"]
    assert builders == ["cut_structure.family_quotient"], builders


# ---------------------------------------------------------------------------
# Decompositions


def odd_k_flex_graphs() -> list[tuple[int, Multigraph]]:
    """(k, graph) for k in {1, 3}; each graph also comes with random
    capacities, which the split must ignore (it counts edges)."""
    rng = random.Random(7)
    out = []
    for k in (1, 3):
        for _, g in make_flex_corpus(20, 600 + k, k, n_min=4, n_max=8):
            out.append((k, g))
            out.append((k, Multigraph(g.n, tuple(replace(e, capacity=rng.randint(1, 3))
                                                 for e in g.edges))))
    return out


def test_f2_split_matches_reference_on_odd_k_flex_graphs():
    sides = {"prime": 0, "dprime": 0, "parts": 0}
    for k, g in odd_k_flex_graphs():
        ids = range(g.m)
        got = decompose_F2_odd(g, ids, k)
        ref = reference_decompose_F2_odd(g, ids, k)
        assert got.f_prime == ref.f_prime
        assert got.f_dprime == ref.f_dprime
        assert got.diagnostics == ref.diagnostics
        assert_same_decomposition(got.decomposition, ref.decomposition)
        sides["prime"] += len(got.f_prime)
        sides["dprime"] += len(got.f_dprime)
        sides["parts"] += sum(len(p.quotient.classes) >= 3 for p in got.decomposition.parts)
    assert all(sides.values()), sides  # both sides and real parts were exercised


def test_plus_cut_decomposition_matches_reference():
    cube = Multigraph.from_edges(8, [(i, j) for i in range(8) for j in range(i + 1, 8)
                                     if (i ^ j).bit_count() == 1])
    got = decompose_plus_cuts(cube, 3)
    assert_same_decomposition(got, reference_decompose_plus_cuts(cube, 3))
    assert [p.shape for p in got.parts] == [PartShape.CUBE]
    rng = random.Random(41)
    shapes = set()
    checked = 0
    while checked < 60:
        g = random_multigraph(rng, rng.randint(3, 9), extra=rng.randint(0, 12),
                              unsafe_p=0.4)
        lam = min_cut_value(g)
        for odd in (lam, lam - 1):
            if odd < 1 or odd % 2 == 0:
                continue
            got = decompose_plus_cuts(g, odd)
            assert_same_decomposition(got, reference_decompose_plus_cuts(g, odd))
            shapes.update(p.shape for p in got.parts)
            checked += 1
        got = outcome(decompose_F2_odd, g, range(g.m), 1)
        ref = outcome(reference_decompose_F2_odd, g, range(g.m), 1)
        if isinstance(got, F2Decomposition):
            assert got.f_prime == ref.f_prime and got.f_dprime == ref.f_dprime
            assert got.diagnostics == ref.diagnostics
            assert_same_decomposition(got.decomposition, ref.decomposition)
        else:
            assert got == ref
    assert {PartShape.CYCLE_UNIFORM, PartShape.OTHER} <= shapes, shapes


@st.composite
def odd_lam_graphs(draw):
    """(lam, g) for lam in {1, 3}: a cycle on 3..9 nodes whose edges come
    in (lam + 1) / 2 or (lam + 3) / 2 parallel copies, so that its
    (lam + 1)-cuts include pairs of its lightest edges, plus random chords,
    some of them unsafe."""
    lam = draw(st.sampled_from([1, 3]), label="lam")
    n = draw(st.integers(3, 9), label="n")
    order = draw(st.permutations(range(n)), label="cycle")
    copies = draw(st.lists(st.integers((lam + 1) // 2, (lam + 3) // 2),
                          min_size=n, max_size=n),
                  label="copies")
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n) for _ in range(copies[i])]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=n // 2), label="chords")
    pairs += [(u, v) for u, v in chords if u != v]
    unsafe = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)),
                  label="unsafe")
    return lam, Multigraph(n, tuple(EdgeRecord(u, v, 0, 1, bad, False)
                                    for (u, v), bad in zip(pairs, unsafe)))


@settings(max_examples=200, deadline=None)
@given(odd_lam_graphs())
def test_property_plus_cut_decomposition_matches_reference(case):
    """Widening on per-node bitsets, with quotients built only for the
    parts kept, equals the reference's quotient per group."""
    lam, g = case
    got = outcome(decompose_plus_cuts, g, lam)
    ref = outcome(reference_decompose_plus_cuts, g, lam)
    if isinstance(got, DecompositionResult):
        assert_same_decomposition(got, ref)
    else:
        assert got == ref


def test_decomposition_builds_one_quotient_per_part(monkeypatch):
    """A group absorbed into a larger part costs no quotient."""
    built = []
    real = cut_structure.family_quotient

    def counted(g, fam):
        built.append(fam)
        return real(g, fam)

    monkeypatch.setattr(cut_structure, "family_quotient", counted)
    groups = parts = 0
    for k, g in odd_k_flex_graphs():
        built.clear()
        res = decompose_plus_cuts(g, k)
        assert built == [p.members for p in res.parts]
        plus = cut_masks(multigraph.cut_value_array(g) == k + 1)
        groups += len(_component_split(plus, _holders(plus, g.n))) if plus else 0
        parts += len(res.parts)
    assert groups > parts > 0, (groups, parts)  # some groups were absorbed
