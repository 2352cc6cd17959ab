"""Brute-force counting oracles."""

import re
from itertools import combinations, product

import pytest

from asmlab import (
    BottomRowSpec,
    GammaSpec,
    IndexTuplePair,
    MonotoneTriangle,
    count_trapezoids,
    count_triangles,
    enumerate_triangles,
    gamma_count,
    refined_counts,
    special_point,
    validate,
)
from asmlab.enumeration import _successor_rows, index_tuples

# every strictly increasing row with entries in 0..7 and at most five entries
SMALL_ROWS = [row for length in range(1, 6) for row in combinations(range(8), length)]

# number of complete triangles of order n = number of n x n alternating sign
# matrices, n = 1..7
TOTALS = [1, 2, 7, 42, 429, 7436, 218348]


@pytest.mark.parametrize("n", range(1, 6))
def test_complete_totals_small(n):
    assert count_triangles(tuple(range(1, n + 1))) == TOTALS[n - 1]


def test_enumeration_agrees_with_count():
    for bottom in [(1, 2, 3), (1, 3, 5), (2, 4, 5, 7), (1, 2, 4, 6)]:
        triangles = list(enumerate_triangles(bottom))
        assert len(triangles) == count_triangles(bottom)
        assert len(set(t.rows for t in triangles)) == len(triangles)
        for t in triangles:
            assert validate(t)
            assert t.rows[0] == bottom
            # built without the constructor, yet the same object it builds
            rebuilt = MonotoneTriangle(t.rows)
            assert t == rebuilt and hash(t) == hash(rebuilt)
            assert type(t.rows) is tuple
            assert all(type(row) is tuple and all(type(x) is int for x in row) for row in t.rows)


def test_enumeration_lexicographic():
    rows_seen = [sum(t.rows, ()) for t in enumerate_triangles((1, 3, 4))]
    assert rows_seen == sorted(rows_seen)


def test_bottom_row_validation():
    with pytest.raises(ValueError):
        BottomRowSpec(())
    with pytest.raises(ValueError):
        BottomRowSpec((1, 1, 2))
    with pytest.raises(ValueError):
        BottomRowSpec((2, 1), weak_bottom=True)
    assert BottomRowSpec((1, 1, 2), weak_bottom=True).entries == (1, 1, 2)


def test_weak_bottom_degenerate_row_counts_zero():
    # a repeated value forces an impossible strict row above
    assert count_triangles(BottomRowSpec((1, 1, 1), weak_bottom=True)) == 0


def test_trapezoid_count_specializes_to_triangle_count():
    for n in range(1, 6):
        assert count_trapezoids(n, (), ()) == TOTALS[n - 1]


def test_trapezoid_count_small_cases():
    # order 3, drop bottom entry 2, prescribe top row (1, 3):
    # the single remaining shape is rows (1,3) over (1,3)
    assert count_trapezoids(3, (2,), (1, 3)) == 1
    # top rows are exactly the strict rows interlacing the bottom row
    assert count_trapezoids(3, (2,), (2, 3)) == 0
    assert sum(count_trapezoids(3, (2,), (i1, i2)) for i1 in range(1, 4) for i2 in range(i1 + 1, 4)) == 1


def test_trapezoid_count_fully_removed_bottom():
    # removing the entire bottom row leaves the empty trapezoid, counted once
    assert count_trapezoids(2, (1, 2), ()) == 1


def test_trapezoid_validation():
    with pytest.raises(ValueError):
        count_trapezoids(4, (2, 2), ())
    with pytest.raises(ValueError):
        count_trapezoids(4, (5,), ())
    with pytest.raises(ValueError):
        count_trapezoids(3, (1,), (1, 2, 3))


@pytest.mark.parametrize("n", range(1, 6))
def test_refined_counts_consistency(n):
    rc = refined_counts(n)
    assert rc.total == TOTALS[n - 1]
    assert sum(rc.top) == rc.total
    assert sum(rc.top_bottom.values()) == rc.total
    # refined counts are mirror symmetric
    assert rc.top == tuple(reversed(rc.top))


def test_refined_counts_match_trapezoid_oracle():
    # classifying by the missing element of the second row equals the
    # one-removal trapezoid count summed over top rows
    n = 4
    rc = refined_counts(n)
    for i in range(1, n + 1):
        by_bottom = sum(v for (bi, _), v in rc.top_bottom.items() if bi == i)
        assert by_bottom == count_triangles(tuple(x for x in range(1, n + 1) if x != i))


def test_gamma_spec_validation():
    with pytest.raises(ValueError):
        GammaSpec(3, (1, 2))  # wrong k length
    with pytest.raises(ValueError):
        GammaSpec(3, (1, 2, 3), (2, 1))  # s not weakly increasing
    with pytest.raises(ValueError):
        GammaSpec(2, (1, 2), (1, 1), (1,))  # c + d > n


def test_gamma_without_truncation_is_triangle_count():
    for bottom in [(1, 2, 3), (1, 3, 4), (1, 2, 3, 4)]:
        spec = GammaSpec(len(bottom), bottom)
        assert gamma_count(spec) == count_triangles(bottom)


@pytest.mark.parametrize("n", range(2, 6))
def test_gamma_at_special_point_matches_trapezoids(n):
    for c in range(0, n + 1):
        for d in range(0, n - c + 1):
            point = special_point(n, c, d)
            from itertools import combinations

            for s in combinations(range(1, n + 1), c):
                for i in combinations(range(1, n + 1), d):
                    spec = GammaSpec(n, point, s, i)
                    assert gamma_count(spec) == count_trapezoids(n, s, i), (
                        n,
                        c,
                        d,
                        s,
                        i,
                    )


def _classify_by_enumeration(n):
    """(total, top, top_bottom) of order n, one triangle at a time."""
    top = [0] * n
    top_bottom = {}
    total = 0
    for triangle in enumerate_triangles(tuple(range(1, n + 1))):
        total += 1
        j = triangle.rows[-1][0]
        i = 1 if n == 1 else next(x for x in range(1, n + 1) if x not in triangle.rows[1])
        top[j - 1] += 1
        top_bottom[(i, j)] = top_bottom.get((i, j), 0) + 1
    return total, tuple(top), top_bottom


@pytest.mark.parametrize("n", range(1, 7))
def test_refined_counts_equal_exhaustive_classification(n):
    rc = refined_counts(n)
    assert (rc.total, rc.top, rc.top_bottom) == _classify_by_enumeration(n)


def test_refined_counts_read_no_closed_form(monkeypatch):
    from asmlab import closed_forms

    def forbidden(*args):
        raise AssertionError("refined_counts read a closed form")

    for name in ("asm_total", "a_nk", "stroganov_b", "a_nij", "_a_row", "_s_table"):
        monkeypatch.setattr(closed_forms, name, forbidden)
    assert refined_counts(6).total == TOTALS[5]


def test_refined_counts_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        refined_counts(0)


def test_index_tuples_orderings():
    assert index_tuples(4, [2, 1], (3,)) == ((2, 1), (3,))
    assert index_tuples(4, (1, 1), (), order="weak") == ((1, 1), ())
    cases = [
        ((0, (), ()), None, "n must be positive"),
        ((-3, (), ()), "strict", "n must be positive"),
        ((2, (1, 2), (1,)), None, "need c + d <= n"),
        ((3, (4,), ()), "weak", "s entries must lie in [1, 3]"),
        ((3, (), (0,)), None, "i entries must lie in [1, 3]"),
        ((4, (2, 2), ()), "strict", "s must be strictly increasing"),
        ((4, (), (3, 1)), "weak", "i must be weakly increasing"),
    ]
    for args, order, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            index_tuples(*args, order=order)


@pytest.mark.parametrize(
    "call, args",
    [
        (count_triangles, ([1.5, 2.7, 3.2],)),
        (count_trapezoids, (4, [1.9], [2.5])),
        (BottomRowSpec, (["1", "2"],)),
        (GammaSpec, (3, [1.0, 2, 3])),
        (GammaSpec, (3.0, [1, 2, 3])),
        (index_tuples, (4, ["2", 1], (3,))),
        (index_tuples, (4.0, (), ())),
        (IndexTuplePair, (3, [1.0])),
        (IndexTuplePair, (3.0, [1])),
    ],
)
def test_non_integer_input_is_rejected_not_truncated(call, args):
    with pytest.raises(TypeError):
        call(*args)


def test_trapezoid_count_rejects_nonpositive_order():
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be positive"):
            count_trapezoids(n, (), ())


@pytest.mark.parametrize("length", range(1, 6))
def test_successor_rows_are_the_interlacing_rows_in_order(length):
    for row in (r for r in SMALL_ROWS if len(r) == length):
        ranges = [range(row[j], row[j + 1] + 1) for j in range(length - 1)]
        expected = [l for l in product(*ranges) if all(a < b for a, b in zip(l, l[1:]))]
        assert list(_successor_rows(row)) == expected, row


def test_count_equals_enumeration_over_small_rows():
    weak = [(1, 1, 2), (0, 2, 2, 5), (1, 1, 3, 3), (2, 3, 3, 4, 6)]
    for row in SMALL_ROWS:
        assert count_triangles(row) == sum(1 for _ in enumerate_triangles(row)), row
    for row in weak:
        spec = BottomRowSpec(row, weak_bottom=True)
        assert count_triangles(spec) == sum(1 for _ in enumerate_triangles(spec)), row
