"""Sparse exact polynomial engine and the triangle-counting polynomial."""

import sys
import traceback
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, inf, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from asmlab import (
    BinomialPoly,
    TermCapExceeded,
    alpha_via_operator,
    alpha_via_recursion,
    apply_sigma,
    count_triangles,
    summation_operator,
    vandermonde,
)
from asmlab import coefficients, polynomials
from asmlab.polynomials import TERM_CAP_ENV, _difference_row, _substitution_row, _translation_row, check_order


@lru_cache(maxsize=4096)
def scalar_binomial(x, e):
    """C(x, e) = x(x-1)...(x-e+1) / e! for any integer x, from `math` alone."""
    return prod(range(x - e + 1, x + 1)) // factorial(e) if e >= 0 else 0


def value_at(poly, point):
    """The BinomialPoly at an integer point, term by term with scalar_binomial:
    an oracle that shares no kernel with the package's evaluation."""
    return sum(
        coef * prod(scalar_binomial(x, e) for x, e in zip(point, exps))
        for exps, coef in poly.exponent_terms().items()
    )


def grid(arity, size):
    """{0..size-1}^arity: a polynomial of degree below size in each variable
    is determined by its values there."""
    return product(range(size), repeat=arity)


@st.composite
def small_binomial_polys(draw, arity=3, max_deg=4):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_deg)) for _ in range(arity))
        terms[exps] = draw(st.integers(-9, 9))
    return BinomialPoly(arity, terms)


# ---------------------------------------------------------------------------
# arithmetic and substitution
# ---------------------------------------------------------------------------


def test_zero_terms_are_dropped():
    x = BinomialPoly(1, {(1,): 3, (0,): 0})
    assert x.exponent_terms() == {(1,): 3}
    assert not x.scale(0).terms


@given(small_binomial_polys(), st.integers(-5, 5))
def test_shift_inverse_pair(b, a):
    assert b.shift(2, a).shift(2, -a) == b


def test_difference_of_binomials():
    # Pascal's rule through shifts: C(k+1, 2) = C(k, 2) + C(k, 1), C(k-1, 1) = C(k, 1) - 1
    assert BinomialPoly(1, {(2,): 1}).shift(1, 1) == BinomialPoly(1, {(2,): 1, (1,): 1})
    assert BinomialPoly(1, {(1,): 1}).shift(1, -1) == BinomialPoly(1, {(1,): 1, (0,): -1})


def test_permute_and_negate():
    p = BinomialPoly(3, {(2, 1, 0): 1})
    q = p.permute_positions([2, 3, 1])  # variable v moves to the given slot
    assert q == BinomialPoly(3, {(0, 2, 1): 1}) and q != p
    r = p.negate_variables()
    assert r.evaluate([1, 2, 3]) == p.evaluate([-1, -2, -3])
    # a polynomial never compares equal to a bare int, not even the zero polynomial
    assert BinomialPoly(2) != 0


def test_substitute_and_specialize():
    p = BinomialPoly(2, {(1, 1): 1})
    assert p.shift(1, 5).evaluate([0, 3]) == 15  # (k_1 + 5) k_2
    assert p.evaluate([4, 6]) == 24


@pytest.mark.parametrize("n", range(1, 6))
def test_vandermonde_keeps_its_full_denominator(n):
    # D V = prod_{i<j} (k_j - k_i) with D = prod_{i<j} (j - i); V has degree
    # n - 1 in each variable, so the grid {0..n-1}^n decides it
    denominator = prod(j - i for i, j in combinations(range(n), 2))
    poly = vandermonde(n)
    assert poly.max_degree() <= n - 1
    for x in grid(n, n):
        assert denominator * value_at(poly, x) == prod(x[j] - x[i] for i, j in combinations(range(n), 2))


def permutation_sign(sigma):
    """(-1)^(n - number of cycles)."""
    seen, cycles = set(), 0
    for start in range(len(sigma)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = sigma[start]
    return (-1) ** (len(sigma) - cycles)


@pytest.mark.parametrize("n", range(1, 7))
def test_vandermonde_is_a_signed_permutation_sum(n):
    # det[C(k_i, j - 1)]: one term C(k_1, sigma_1) ... C(k_n, sigma_n) per
    # permutation, with its sign
    expected = {sigma: permutation_sign(sigma) for sigma in permutations(range(n))}
    assert vandermonde(n).exponent_terms() == expected


def test_term_cap_fails_the_vandermonde_before_any_permutation(monkeypatch):
    # the cap sees all 9! terms at once, not a count reached while building
    monkeypatch.setenv(TERM_CAP_ENV, "1000")
    with pytest.raises(TermCapExceeded) as exc:
        vandermonde(9)
    assert (exc.value.terms, exc.value.construction, exc.value.n) == (factorial(9), "vandermonde", 9)


@pytest.mark.parametrize("terms", [{(-1,): 1}, {(1, 0): 1}])
def test_exponents_must_be_nonnegative_and_match_the_arity(terms):
    with pytest.raises(ValueError, match=r"is not 1 nonnegative integers"):
        BinomialPoly(1, terms)


@pytest.mark.parametrize("cls", [BinomialPoly])
@pytest.mark.parametrize("terms", [{(256, 0): 1}, {(0, 300): 1}, {(1, 256): 0}])
def test_exponents_above_255_are_rejected(cls, terms):
    # each exponent is one byte of the packed key; a zero coefficient is
    # checked all the same
    with pytest.raises(ValueError, match="above 255"):
        cls(2, terms)


@pytest.mark.parametrize(
    "arity, terms",
    [
        (3, {}),
        (0, {(): 4}),
        (3, {(0, 0, 0): 5}),
        (3, {(255, 0, 1): -3, (0, 255, 255): 7, (1, 2, 3): 1}),
        (3, {(3, 0, 0): 0, (0, 0, 3): 2}),
    ],
)
def test_tuple_keyed_terms_round_trip_through_the_accessor(arity, terms):
    nonzero = {e: c for e, c in terms.items() if c}
    assert BinomialPoly(arity, terms).exponent_terms() == nonzero


@given(small_binomial_polys(), st.integers(3, 6))
def test_extend_arity_keeps_the_keys(b, arity):
    wider = b.extend_arity(arity)
    assert wider.terms == b.terms
    pad = (0,) * (arity - 3)
    assert wider.exponent_terms() == {e + pad: c for e, c in b.exponent_terms().items()}


def test_products_and_substitutions_past_255_raise_instead_of_wrapping():
    # a shift keeps every exponent, so even 255 shifts
    assert BinomialPoly(1, {(255,): 1}).shift(1, 2).max_degree() == 255
    assert BinomialPoly(2, {(255, 1): 1}).shift(1, -3).max_degree() == 255
    with pytest.raises(ValueError, match="above 255"):
        BinomialPoly(2, {(1, 0): 1}).reexpand({2: lambda e: [0] * 256 + [1]})
    with pytest.raises(ValueError, match="above 255"):
        vandermonde(257)


@pytest.mark.parametrize("coef", [Fraction(1, 2), Fraction(2), 0.5])
def test_numerators_must_be_ints(coef):
    with pytest.raises(TypeError, match="expected int coefficient"):
        BinomialPoly(1, {(1,): coef})


# ---------------------------------------------------------------------------
# changes of variable against the pointwise oracle
# ---------------------------------------------------------------------------


@given(small_binomial_polys(), st.integers(1, 3), st.integers(-6, 6))
def test_binomial_shift(b, var, h):
    # degree at most 4 in each variable, so the grid {0..4}^3 decides it
    for x in grid(3, 5):
        moved = list(x)
        moved[var - 1] += h
        assert value_at(b.shift(var, h), x) == value_at(b, moved)


@given(
    b=small_binomial_polys(),
    var=st.integers(1, 3),
    h=st.integers(-6, 6),
    point=st.lists(st.integers(-7, 7), min_size=3, max_size=3),
)
def test_shift_evaluates_at_the_shifted_point(b, var, h, point):
    # E_var^h p at x is p at x + h e_var, evaluated without any shift row
    moved = list(point)
    moved[var - 1] += h
    assert b.shift(var, h).evaluate(point) == b.evaluate(moved)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(-6, 6))
def test_substitution_row_is_a_product_of_binomials(a, b, h):
    # the row apply_sigma substitutes: C(y + h, a) C(y, b) in the basis C(y, j);
    # both sides have degree a + b in y, so a + b + 1 points decide it
    row = _substitution_row(a, b, h)
    for y in range(a + b + 1):
        expected = scalar_binomial(y + h, a) * scalar_binomial(y, b)
        assert sum(coef * scalar_binomial(y, j) for j, coef in row) == expected


@given(st.integers(0, 8), st.integers(-6, 6), st.integers(-9, 9))
def test_operator_rows_are_the_difference_and_the_shift(e, h, x):
    # the two rows of each pair factor of alpha_via_operator, in the basis C(x, j)
    delta = _difference_row(e)
    assert sum(f * scalar_binomial(x, j) for j, f in enumerate(delta)) == (
        scalar_binomial(x + 1, e) - scalar_binomial(x, e)
    )
    shift = _translation_row(e, h)
    assert sum(f * scalar_binomial(x, j) for j, f in enumerate(shift)) == scalar_binomial(x + h, e)


@given(small_binomial_polys())
def test_binomial_negation(b):
    negated = b.negate_variables()
    for x in grid(3, 5):
        assert value_at(negated, x) == value_at(b, [-v for v in x])


def strict_rows(bounds):
    """The strictly increasing rows l with bounds[j] <= l_j <= bounds[j+1]."""
    rows = [()]
    for lower, upper in zip(bounds, bounds[1:]):
        rows = [r + (x,) for r in rows for x in range(lower, upper + 1) if not r or r[-1] < x]
    return rows


@st.composite
def sigma_cases(draw):
    """A small BinomialPoly, a slot range lo..hi whose slot hi the operand
    leaves unused when hi > lo, and a point increasing strictly on lo..hi."""
    arity = draw(st.integers(1, 5))
    lo = draw(st.integers(1, arity))
    hi = draw(st.integers(lo, arity))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = [draw(st.integers(0, 3)) for _ in range(arity)]
        if hi > lo:
            exps[hi - 1] = 0
        terms[tuple(exps)] = draw(st.integers(-9, 9))
    point = [draw(st.integers(-4, 4)) for _ in range(arity)]
    for slot in range(lo, hi):
        point[slot] = point[slot - 1] + draw(st.integers(1, 3))
    return BinomialPoly(arity, terms), lo, hi, point


@given(sigma_cases())
# total degree 253 plus two raising steps reaches exponent 255, the top of a byte
@example((BinomialPoly(3, {(250, 3, 0): 1, (0, 1, 0): -2}), 1, 3, [300, 304, 308]))
@example((BinomialPoly(4, {(0, 0, 254, 0): 1, (0, 7, 0, 0): 3}), 3, 4, [0, 5, 260, 263]))
def test_apply_sigma_sums_over_strict_interlacing_rows(case):
    poly, lo, hi, point = case
    expected = sum(
        poly.evaluate(point[: lo - 1] + list(row) + point[hi - 1 :])
        for row in strict_rows(point[lo - 1 : hi])
    )
    assert apply_sigma(poly, lo, hi).evaluate(point) == expected


@pytest.mark.parametrize("lo, hi", [(0, 2), (2, 4)])
def test_apply_sigma_rejects_slots_outside_the_ring(lo, hi):
    with pytest.raises(ValueError, match="out of range"):
        apply_sigma(BinomialPoly(3, {(1, 0, 0): 1}), lo, hi)


@pytest.mark.parametrize("terms, lo, hi", [({(251, 3, 0): 1}, 1, 3), ({(0, 255, 0): 1}, 2, 3)])
def test_apply_sigma_refuses_to_raise_an_exponent_past_255(terms, lo, hi):
    with pytest.raises(ValueError, match="above 255"):
        apply_sigma(BinomialPoly(3, terms), lo, hi)


@pytest.mark.parametrize("lo, hi", [(2, 1), (5, 4)])
def test_apply_sigma_over_no_slot_is_zero(lo, hi):
    assert not apply_sigma(BinomialPoly(3, {(1, 0, 0): 1}), lo, hi).terms


@given(
    small_binomial_polys(),
    st.integers(1, 3),
    st.integers(-7, 7),
    st.lists(st.integers(-7, 7), min_size=2, max_size=2),
)
def test_binomial_specialize(b, var, value, rest):
    # the pinned variable is removed and the others keep their order
    point = list(rest)
    point.insert(var - 1, value)
    pinned = b.specialize({var: value})
    assert pinned.arity == 2
    assert pinned.evaluate(rest) == value_at(b, point)


@given(small_binomial_polys(), st.lists(st.integers(-7, 7), min_size=3, max_size=3))
def test_pinning_every_variable_leaves_the_value(b, point):
    constant = b.specialize(dict(enumerate(point, 1)))
    assert constant.arity == 0
    assert constant.evaluate([]) == b.evaluate(point)


@given(
    small_binomial_polys(),
    st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True),
    st.lists(st.integers(-7, 7), min_size=2, max_size=2),
)
def test_pinning_two_variables_at_once_is_pinning_them_in_turn(b, variables, values):
    (u, v), (a, h) = variables, values
    # once u is gone, a variable v above it is variable v - 1
    in_turn = b.specialize({u: a}).specialize({v - (v > u): h})
    assert b.specialize({u: a, v: h}) == in_turn


@given(small_binomial_polys(), st.permutations([1, 2, 3]))
def test_binomial_permute_positions(b, perm):
    # variable v of b becomes variable perm[v-1]
    permuted = b.permute_positions(perm)
    for x in grid(3, 5):
        assert value_at(permuted, x) == value_at(b, [x[slot - 1] for slot in perm])


@given(small_binomial_polys(), st.lists(st.integers(-7, 7), min_size=3, max_size=3))
def test_binomial_evaluation_at_negative_points(b, point):
    assert b.evaluate(point) == value_at(b, point)


def test_term_cap_names_construction(monkeypatch):
    monkeypatch.setenv(TERM_CAP_ENV, "2")
    with pytest.raises(TermCapExceeded) as exc:
        alpha_via_operator(3)
    assert (exc.value.construction, exc.value.n) == ("alpha_via_operator", 3)
    with pytest.raises(TermCapExceeded) as exc:
        vandermonde(3)
    assert "vandermonde(n=3)" in str(exc.value)


def test_term_cap_inside_the_operator_product(monkeypatch):
    # vandermonde(3) has 6 terms and fits a cap of 10, but the operator
    # product is held to its 3^3 grid before the Vandermonde product is built
    monkeypatch.setenv(TERM_CAP_ENV, "10")
    assert len(vandermonde(3).terms) == 6
    with pytest.raises(TermCapExceeded) as exc:
        alpha_via_operator(3)
    assert (exc.value.construction, exc.value.n) == ("alpha_via_operator", 3)


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_malformed_term_cap_raises_value_error(monkeypatch, raw):
    monkeypatch.setenv(TERM_CAP_ENV, raw)
    with pytest.raises(ValueError):
        check_order(2)


def test_order_eight_needs_its_whole_grid_under_the_cap(monkeypatch):
    # decided from 8^8 = 16,777,216 alone: check_order builds nothing
    monkeypatch.setattr(polynomials, "summation_operator", None)
    monkeypatch.setenv(TERM_CAP_ENV, "16777216")
    check_order(8)
    monkeypatch.setenv(TERM_CAP_ENV, "16777215")
    with pytest.raises(TermCapExceeded) as exc:
        check_order(8)
    assert (exc.value.construction, exc.value.n, exc.value.terms) == ("alpha_via_recursion", 8, 8**8)


# ---------------------------------------------------------------------------
# the counting polynomial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_alpha_matches_brute_force_on_strict_rows(n):
    from itertools import combinations

    alpha = alpha_via_recursion(n)
    for bottom in combinations(range(1, n + 3), n):
        assert alpha.evaluate(list(bottom)) == count_triangles(bottom)


def test_alpha_7_matches_brute_force_on_strict_rows():
    from itertools import combinations

    alpha = alpha_via_recursion(7)
    for bottom in combinations(range(1, 10), 7):
        assert alpha.evaluate(list(bottom)) == count_triangles(bottom)


@pytest.mark.parametrize(
    "n, terms", [(1, 1), (2, 3), (3, 15), (4, 111), (5, 1105), (6, 14172), (7, 222642)]
)
def test_alpha_term_counts(n, terms):
    assert len(alpha_via_recursion(n).terms) == terms


def test_term_cap_inside_the_summation_operator(monkeypatch):
    # alpha_5 (1,105 terms) is built and cached first; alpha_6's 6^6 grid
    # is refused before apply_sigma sums it up, though alpha_6 has 14,172 terms
    alpha_via_recursion(5)
    monkeypatch.setenv(TERM_CAP_ENV, "2000")
    with pytest.raises(TermCapExceeded) as exc:
        alpha_via_recursion.__wrapped__(6)
    assert (exc.value.construction, exc.value.n) == ("alpha_via_recursion", 6)


def test_term_cap_stops_a_large_order_before_any_deep_recursion(monkeypatch):
    # alpha_256 is the largest order the packed keys hold.  A recursion one
    # order per level nests two frames per order, about 512 here, and would
    # pass a limit 200 frames above this test; the order is refused first.
    monkeypatch.setenv(TERM_CAP_ENV, "1000")
    before = alpha_via_recursion.cache_info()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 200)
    try:
        with pytest.raises(TermCapExceeded) as exc:
            alpha_via_recursion(256)
    finally:
        sys.setrecursionlimit(limit)
    assert (exc.value.construction, exc.value.n) == ("alpha_via_recursion", 256)
    # the refused call is the one miss: no lower order was requested
    after = alpha_via_recursion.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses + 1, before.currsize)


def test_term_cap_boundary_at_a_real_build(monkeypatch):
    # alpha_5 has 1,105 terms; its 5^5 = 3,125 grid decides whether it is built
    alpha_via_recursion(4)
    monkeypatch.setenv(TERM_CAP_ENV, "3125")
    assert len(alpha_via_recursion.__wrapped__(5).terms) == 1105
    monkeypatch.setenv(TERM_CAP_ENV, "3124")
    monkeypatch.setattr(polynomials, "summation_operator", None)  # any call would fail
    with pytest.raises(TermCapExceeded) as exc:
        alpha_via_recursion.__wrapped__(5)
    assert (exc.value.construction, exc.value.n, exc.value.terms) == ("alpha_via_recursion", 5, 3125)


@pytest.mark.parametrize("n", range(2, 7))
def test_every_pending_level_fits_the_grid_of_its_order(monkeypatch, n):
    # the levels reach exponent 2n - 3, outside the n^n grid that check_order
    # holds against the cap; the check rests on their term counts staying within it
    largest = []
    step = polynomials._sigma_step

    def counted(q, *args):
        largest.append(len(q))
        return step(q, *args)

    monkeypatch.setattr(polynomials, "_sigma_step", counted)
    alpha_via_recursion.cache_clear()
    try:
        alpha_via_recursion(n)
    finally:
        alpha_via_recursion.cache_clear()
    assert largest and max(largest) <= n**n


def test_classes_and_tables_read_no_term_cap(monkeypatch):
    # with alpha_6 built, the order check is the only reader of the cap, so
    # no class, table or cell of n = 6 reads it again
    alpha_via_recursion(6)
    calls = []
    monkeypatch.setattr(polynomials, "term_cap", lambda: calls.append(1) or 1)
    coefficients._specialized_alpha.cache_clear()
    try:
        for c in range(7):
            for d in range(7 - c):
                coefficients.coefficient_table(6, c, d)
        coefficients.extract_coefficient(coefficients.IndexTuplePair(6, (1, 2), (3,)))
    finally:
        coefficients._specialized_alpha.cache_clear()
    assert calls == []


def test_an_order_past_the_exponent_limit_requests_no_lower_order():
    before = alpha_via_recursion.cache_info()
    with pytest.raises(ValueError, match=r"alpha_via_recursion\(257\) could raise an exponent to 256, above 255"):
        alpha_via_recursion(257)
    after = alpha_via_recursion.cache_info()
    # the refused call is the one miss; a lower order would be a hit or a miss
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)


def test_alpha_at_degenerate_point_is_zero():
    # (1,1,1) admits no strict middle row, and the polynomial agrees
    assert alpha_via_recursion(3).evaluate([1, 1, 1]) == 0


def test_alpha_small_values():
    alpha2 = alpha_via_recursion(2)
    assert alpha2.evaluate([1, 2]) == 2
    assert alpha2.evaluate([1, 3]) == 3  # k2 - k1 + 1


def test_summation_operator_builds_alpha():
    # alpha_{n}(k) = sum over strict interlacing rows of alpha_{n-1}
    alpha3 = alpha_via_recursion(3)
    assert summation_operator(alpha_via_recursion(2)) == alpha3


#: the pair factors printed for Fischer's operator formula, as
#: {(shift of k_p, shift of k_q): coefficient}.  `alpha_via_operator` applies
#: pair_minus_Ep; the other two are the rejected readings, and this pointwise
#: product is the reference that selects among them.
PRINTED_PAIR_FACTORS = {
    "printed": {(0, 0): 1, (1, 1): 1, (0, 1): -1},  # id + E_p E_q - E_q
    "pair_minus_Ep": {(0, 0): 1, (1, 1): 1, (1, 0): -1},  # id + E_p E_q - E_p
    "inverse_form": {(0, 0): 1, (-1, 1): 1, (-1, 0): -1},  # id + E_q E_p^-1 - E_p^-1
}

#: the order from which a rejected factor's product is no longer alpha_n
FIRST_WRONG_ORDER = {"printed": 2, "inverse_form": 3}


def operator_product(variant, n):
    """The product of the variant's pair factors over p < q, expanded as
    {shift vector: coefficient}: the operator sum of coefficient times E^shift."""
    total = {(0,) * n: 1}
    for p, q in combinations(range(n), 2):
        step = {}
        for shift, coef in total.items():
            for (dp, dq), factor in PRINTED_PAIR_FACTORS[variant].items():
                moved = list(shift)
                moved[p] += dp
                moved[q] += dq
                step[tuple(moved)] = step.get(tuple(moved), 0) + coef * factor
        total = {shift: coef for shift, coef in step.items() if coef}
    return total


def normalized_vandermonde(x):
    """prod_{i<j} (x_j - x_i) / (j - i), an integer at every integer point."""
    pairs = list(combinations(range(len(x)), 2))
    return prod(x[j] - x[i] for i, j in pairs) // prod(j - i for i, j in pairs)


def is_printed_product(poly, variant):
    """Whether poly is the variant's operator product applied to the
    normalized Vandermonde product.  Shifts keep degrees, so that product has
    degree at most n - 1 in each variable; poly must too, and the grid
    {0..n-1}^n then decides equality."""
    n = poly.arity
    assert poly.max_degree() <= n - 1
    operator = operator_product(variant, n)
    return all(
        value_at(poly, x)
        == sum(coef * normalized_vandermonde([v + d for v, d in zip(x, shift)]) for shift, coef in operator.items())
        for x in grid(n, n)
    )


@pytest.mark.parametrize("variant", PRINTED_PAIR_FACTORS)
@pytest.mark.parametrize("n", range(1, 5))  # n = 5 takes about 35 s pointwise
def test_operator_variant_is_its_printed_formula(variant, n):
    # alpha_via_operator is the pair_minus_Ep product at every order; a
    # rejected factor's product agrees with it only below its first wrong order
    agrees = is_printed_product(alpha_via_operator(n), variant)
    assert agrees == (n < FIRST_WRONG_ORDER.get(variant, inf))


def test_production_variant_agrees_with_recursion():
    for n in range(1, 7):
        assert alpha_via_operator(n) == alpha_via_recursion(n)


def test_printed_variant_fails_at_order_two():
    # the rejected operator gives k2 - k1 - 1, which is 0 at (1, 2), where
    # alpha_2 = k2 - k1 + 1 counts 2 triangles
    printed = operator_product("printed", 2)
    assert sum(coef * normalized_vandermonde([1 + dp, 2 + dq]) for (dp, dq), coef in printed.items()) == 0
    assert alpha_via_operator(2).evaluate([1, 2]) == 2


def test_vandermonde_normalization():
    v = vandermonde(3)
    assert v.evaluate([1, 2, 3]) == 1
    assert v.evaluate([1, 1, 2]) == 0
