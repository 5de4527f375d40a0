"""The square-case table against the case scan it replaced.

``classify_square`` once rebuilt the case list for its square's lam and
scanned it in order; it is now one lookup in a fixed table.  The list
builder and the scan are copied here verbatim (only the names carry a
``reference`` prefix), and both must give the same case, or raise the
same error, on every square of the ``classify`` suite corpus and on a
synthetic sweep over lam = 0..10 that also holds squares no graph has.
"""

from __future__ import annotations

import itertools

import pytest

from nearcut import InputError, SquareCase, classify_square
from nearcut.cut_structure import Square
from nearcut.harness import _SUITE_DEFAULTS, _near_min_squares


def reference_expected_cases(lam: int) -> tuple[tuple[SquareCase, tuple, int, int, tuple], ...]:
    """(case, sorted cut values, a, b, sides) patterns for connectivity lam."""
    out = []
    if lam % 2 == 0:
        h = lam // 2
        out.append((SquareCase.MIN_MIN, (lam, lam), 0, 0, (h, h, h, h)))
        out.append((SquareCase.MIN_PLUS_EVEN, (lam, lam + 1), 0, 0, (h, h, h, h + 1)))
        out.append((SquareCase.PP_A, (lam + 1, lam + 1), 0, 0, (h, h + 1, h, h + 1)))
        out.append((SquareCase.PP_B, (lam + 1, lam + 1), 1, 0, (h, h, h, h)))
    else:
        lo, hi = (lam - 1) // 2, (lam + 1) // 2
        top = (lam + 3) // 2
        out.append((SquareCase.MIN_PLUS_ODD, (lam, lam + 1), 0, 0, (hi, hi, lo, hi)))
        out.append((SquareCase.PP_C, (lam + 1, lam + 1), 0, 0, (hi, hi, lo, top)))
        out.append((SquareCase.PP_D, (lam + 1, lam + 1), 1, 0, (hi, lo, lo, hi)))
        out.append((SquareCase.PP_E, (lam + 1, lam + 1), 1, 1, (lo, lo, lo, lo)))
        out.append((SquareCase.PP_F, (lam + 1, lam + 1), 0, 0, (hi, hi, hi, hi)))
    return tuple(out)


def reference_classify_square(sq: Square) -> SquareCase:
    """Match a square of {lam, lam+1}-valued cuts against the case list."""
    lam = sq.lam
    vals = tuple(sorted((sq.da, sq.db)))
    allowed = {(lam, lam), (lam, lam + 1), (lam + 1, lam + 1)}
    if vals not in allowed:
        raise InputError(
            f"classification needs cut values in {{{lam}, {lam + 1}}}, got {vals}")
    for case, want_vals, wa, wb, sides in reference_expected_cases(lam):
        if vals == want_vals and (sq.a, sq.b) == (wa, wb) and sq.sides == sides:
            return case
    return SquareCase.OTHER


def outcome(fn, sq):
    """The case, or the type and text of the error raised."""
    try:
        return fn(sq)
    except InputError as exc:
        return type(exc), str(exc)


def synthetic_square(lam, da, db, a, b, sides) -> Square:
    """A square with the fields classification reads; the rest are filler."""
    x, y, z, w = sides
    return Square(corners=(1, 2, 4, 8), degrees=(lam, lam, lam, lam),
                  x=x, y=y, z=z, w=w, a=a, b=b, da=da, db=db, alpha=0, lam=lam)


def test_table_matches_the_scan_on_the_classify_corpus():
    seen: dict[SquareCase, int] = {}
    for _gi, _g, _a, _b, sq in _near_min_squares(_SUITE_DEFAULTS["classify"]):
        case = classify_square(sq)
        assert case is reference_classify_square(sq), sq
        seen[case] = seen.get(case, 0) + 1
    # the corpus reaches every named case of both parities
    assert set(seen) == set(SquareCase) - {SquareCase.OTHER}
    assert sum(seen.values()) > 10000


def test_table_matches_the_scan_on_a_synthetic_sweep():
    """Every (da, db) pair from lam - 1 to lam + 2, diagonals 0..2 and sides
    from floor(lam / 2) - 1 to floor(lam / 2) + 2, over lam = 0..10."""
    hits: dict = {}
    squares = 0
    for lam in range(11):
        h = lam // 2
        values = range(lam - 1, lam + 3)
        side_range = range(h - 1, h + 3)
        for da, db in itertools.product(values, repeat=2):
            for a, b in itertools.product(range(3), repeat=2):
                for sides in itertools.product(side_range, repeat=4):
                    sq = synthetic_square(lam, da, db, a, b, sides)
                    got = outcome(classify_square, sq)
                    assert got == outcome(reference_classify_square, sq), sq
                    key = got if isinstance(got, SquareCase) else "error"
                    hits[key] = hits.get(key, 0) + 1
                    squares += 1
    assert squares == 11 * 16 * 9 * 256
    assert set(hits) == set(SquareCase) | {"error"}
    # each named case is one pattern per lam of its parity, reached from
    # both orders of (da, db) unless the two values are equal
    for case, count in hits.items():
        if case == "error" or case is SquareCase.OTHER:
            continue
        lams = 6 if case in (SquareCase.MIN_MIN, SquareCase.MIN_PLUS_EVEN,
                             SquareCase.PP_A, SquareCase.PP_B) else 5
        orders = 2 if case in (SquareCase.MIN_PLUS_EVEN, SquareCase.MIN_PLUS_ODD) else 1
        assert count == lams * orders, case


@pytest.mark.parametrize("lam", [-3, -2, -1, 11, 12, 101])
def test_table_matches_the_scan_beyond_the_sweep(lam):
    for case, vals, a, b, sides in reference_expected_cases(lam):
        sq = synthetic_square(lam, vals[1], vals[0], a, b, sides)
        assert classify_square(sq) is case is reference_classify_square(sq)
