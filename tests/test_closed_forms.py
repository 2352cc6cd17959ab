"""Product and summation closed forms against the brute-force oracles."""

import importlib
import pkgutil
import random

import pytest

import asmlab
from asmlab import (
    IndexTuplePair,
    a_nij,
    a_nij_direct,
    a_nk,
    asm_total,
    check_circuit,
    check_near_symmetry,
    count_trapezoids,
    extract_coefficient,
    refined_counts,
    stroganov_b,
)


@pytest.mark.parametrize("n", range(1, 7))
def test_total_matches_enumeration(n):
    assert asm_total(n) == refined_counts(n).total


def test_total_known_values():
    assert [asm_total(n) for n in range(1, 8)] == [1, 2, 7, 42, 429, 7436, 218348]


@pytest.mark.parametrize("n", range(1, 7))
def test_singly_refined_matches_enumeration(n):
    rc = refined_counts(n)
    for k in range(1, n + 1):
        assert a_nk(n, k) == rc.top[k - 1]


def test_singly_refined_out_of_range_is_zero():
    assert a_nk(5, 0) == 0 and a_nk(5, 6) == 0 and a_nk(5, -2) == 0


def test_singly_refined_symmetry():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert a_nk(n, k) == a_nk(n, n + 1 - k)


def test_singly_refined_sums_to_total():
    for n in range(1, 11):
        assert sum(a_nk(n, k) for k in range(1, n + 1)) == asm_total(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_doubly_refined_matches_enumeration(n):
    rc = refined_counts(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert stroganov_b(n, i, j) == rc.top_bottom.get((i, j), 0), (n, i, j)


def test_doubly_refined_boundary_row():
    # fixing the bottom 1 in the first column reduces the order by one
    for n in range(2, 9):
        for j in range(2, n + 1):
            assert stroganov_b(n, 1, j) == a_nk(n - 1, j - 1)
        assert stroganov_b(n, 1, 1) == 0 if n > 1 else True


@pytest.mark.parametrize("n", range(2, 14))
def test_two_row_closed_form_matches_counts(n):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert a_nij(n, i, j) == count_trapezoids(n, (i, j), ()), (n, i, j)


@pytest.mark.parametrize("n", range(2, 6))
def test_two_row_closed_form_matches_extraction_everywhere(n):
    # including the weakly ordered / reversed index pairs, where the
    # polynomial coefficient can be zero or negative
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert a_nij(n, i, j) == extract_coefficient(IndexTuplePair(n, (i, j))), (n, i, j)


@pytest.mark.parametrize("n", range(2, 13))
def test_direct_form_agrees(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert a_nij_direct(n, i, j) == a_nij(n, i, j), (n, i, j)


def test_direct_form_agrees_on_a_sample_at_sixty():
    rng = random.Random(60)
    for _ in range(40):
        i, j = rng.randint(1, 60), rng.randint(1, 60)
        assert a_nij_direct(60, i, j) == a_nij(60, i, j), (i, j)


def unscaled_stroganov_table(n):
    """Stroganov's prefix sums over the a_nk rows themselves, each cell
    divided by A_{n-1}: the reference for the table built from u rows."""
    from asmlab.closed_forms import _a_row, _padded

    cur, prev = _padded(_a_row(n)), _padded(_a_row(n - 1))
    p = n - 1
    table = [[None] * n for _ in range(n)]
    for delta in range(1 - n, n):
        partial = 0
        for i in range(1, min(n, n - delta) + 1):
            partial += (
                prev[i - 1 + p] * (cur[delta + i + n] - cur[delta + i - 1 + n])
                + prev[delta + i - 1 + p] * (cur[i + n] - cur[i - 1 + n])
            )
            if i + delta >= 1:
                quotient, remainder = divmod(partial, asm_total(n - 1))
                assert remainder == 0, (n, i, i + delta)
                table[i - 1][i + delta - 1] = quotient
    return table


@pytest.mark.parametrize("n", [*range(2, 41), 60])
def test_scaled_table_matches_the_unscaled_prefix_sums(n):
    reference = unscaled_stroganov_table(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert stroganov_b(n, i, j) == reference[i - 1][j - 1], (n, i, j)


@pytest.mark.parametrize("n", [*range(2, 21), 60])
def test_two_row_form_over_small_numerators_equals_its_sum_over_b(n):
    from asmlab.closed_forms import _a_weights

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            weights = _a_weights(n)[j - 1]
            expected = sum(w * stroganov_b(n, i, k) for w, k in zip(weights, range(j, n + 1)))
            assert a_nij(n, i, j) == expected, (n, i, j)


def test_stroganov_b_scales_and_divides_its_own_cell(monkeypatch):
    # B is symmetric in i and j, so only a planted table tells the cells apart
    from asmlab import closed_forms

    planted = tuple(tuple(3 * (10 * i + j) for j in range(1, 5)) for i in range(1, 5))
    monkeypatch.setattr(closed_forms, "_s_table", lambda n: (planted, 2, 3))
    for i in range(1, 5):
        for j in range(1, 5):
            assert stroganov_b(4, i, j) == 2 * (10 * i + j), (i, j)


@pytest.mark.parametrize("n", range(2, 6))
def test_relation_identity(n):
    # the two-row relation is the circuit relation at (c, d, t) = (2, 0, 1)
    assert check_circuit(n, 2, 0, 1).passed()


@pytest.mark.parametrize("n", range(3, 7))
def test_near_symmetry_identity(n):
    assert check_near_symmetry(n).passed()


def test_input_validation():
    with pytest.raises(ValueError):
        asm_total(0)
    with pytest.raises(ValueError):
        stroganov_b(1, 1, 1)
    with pytest.raises(ValueError):
        a_nij(4, 0, 2)


@pytest.mark.parametrize("n", range(7, 11))
def test_refined_counts_beyond_enumeration_reach(n):
    rc = refined_counts(n)
    assert rc.total == asm_total(n)
    assert rc.top == tuple(a_nk(n, k) for k in range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert stroganov_b(n, i, j) == rc.top_bottom.get((i, j), 0), (n, i, j)


def test_division_is_checked():
    from asmlab.closed_forms import _exact_div

    assert _exact_div(12, 4, "twelve quarters") == 3
    with pytest.raises(ArithmeticError, match="seven halves not integral"):
        _exact_div(7, 2, "seven halves")
    # operands past the 4,300-digit limit of str() still give an ArithmeticError
    with pytest.raises(ArithmeticError, match="huge not integral: 1000"):
        _exact_div(10**5000 + 1, 10**10, "huge")


def test_no_module_uses_fractions():
    for info in pkgutil.iter_modules(asmlab.__path__):
        module = importlib.import_module(f"asmlab.{info.name}")
        assert "Fraction" not in vars(module), info.name
        assert "fractions" not in vars(module), info.name


def test_closed_forms_read_no_extraction():
    from asmlab import closed_forms

    for name in ("extract_coefficient", "IndexTuplePair", "coefficients"):
        assert name not in vars(closed_forms)


def test_total_steps_from_the_largest_known_order(monkeypatch):
    from asmlab import closed_forms

    monkeypatch.setattr(closed_forms, "_totals", {})
    asm_total(199)
    calls = []
    factorial = closed_forms.factorial
    monkeypatch.setattr(closed_forms, "factorial", lambda x: calls.append(x) or factorial(x))
    value = asm_total(200)
    # one step A_199 -> A_200 takes (3m+1)!, m!, (2m)! and (2m+1)! at m = 199
    assert sorted(calls) == [199, 398, 399, 598]
    numerator = denominator = 1
    for j in range(200):
        numerator *= factorial(3 * j + 1)
        denominator *= factorial(200 + j)
    assert numerator % denominator == 0 and value == numerator // denominator


def test_direct_form_reads_no_b_table():
    from asmlab import closed_forms

    closed_forms._s_table.cache_clear()
    closed_forms._a_weights.cache_clear()
    a_nij_direct(9, 4, 6)
    assert closed_forms._s_table.cache_info().currsize == 0
    assert closed_forms._a_weights.cache_info().currsize == 0
    assert a_nij_direct(9, 4, 6) == a_nij(9, 4, 6)
