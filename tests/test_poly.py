"""Sparse exact polynomial engine and the triangle-counting polynomial."""

import os
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from asmlab import (
    ALPHA_VARIANTS,
    PRODUCTION_ALPHA_VARIANT,
    BinomialPoly,
    MultiPoly,
    TermCapExceeded,
    alpha_via_operator,
    alpha_via_recursion,
    apply_sigma,
    binomial_in_var,
    count_triangles,
    select_operator_variants,
    summation_operator,
    vandermonde,
)
from asmlab.polynomials import TERM_CAP_ENV, _substitution_row, binom


def poly_of(arity, terms):
    """MultiPoly from int or Fraction coefficients, as numerators over their
    least common denominator."""
    denominator = lcm(*(Fraction(c).denominator for c in terms.values()))
    return MultiPoly(arity, {e: int(c * denominator) for e, c in terms.items()}, denominator)


def mono(arity, exps, coef=1):
    return poly_of(arity, {tuple(exps): coef})


@st.composite
def small_polys(draw, arity=3, max_deg=3):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, max_deg)) for _ in range(arity))
        terms[exps] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    return poly_of(arity, terms)


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


def test_ring_basics():
    x = mono(2, (1, 0))
    y = mono(2, (0, 1))
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.evaluate([3, 2]) == 5


def test_zero_terms_are_dropped():
    x = mono(1, (1,))
    assert not (x - x).terms


@given(small_polys(), small_polys())
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(
    small_binomial_polys().map(BinomialPoly.to_multipoly),
    small_binomial_polys().map(BinomialPoly.to_multipoly),
)
def test_multiplication_evaluates_pointwise(p, q):
    point = [2, -1, 3]
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


@given(small_polys(), st.integers(-5, 5))
def test_shift_inverse_pair(p, a):
    assert p.shift(2, a).shift(2, -a) == p


def test_difference_of_binomials():
    # Pascal's rule through shifts: C(k+1, 2) - C(k, 2) = C(k, 1), C(k, 1) - C(k-1, 1) = 1
    c2 = binomial_in_var(1, 1, 0, 2)
    c1 = binomial_in_var(1, 1, 0, 1)
    assert c2.shift(1, 1) - c2 == c1
    assert c1 - c1.shift(1, -1) == MultiPoly.constant(1, 1)


def test_permute_and_negate():
    p = poly_of(3, {(2, 1, 0): Fraction(1)})
    q = p.permute_positions([2, 3, 1])  # variable v moves to the given slot
    assert q == poly_of(3, {(0, 2, 1): Fraction(1)})
    r = p.negate_variables()
    assert r.evaluate([1, 2, 3]) == p.evaluate([-1, -2, -3])


def test_substitute_and_specialize():
    p = poly_of(2, {(1, 1): Fraction(1)})
    assert p.shift(1, 5).evaluate([0, 3]) == 15  # (k_1 + 5) k_2
    assert p.evaluate_int([4, 6]) == 24
    with pytest.raises((AssertionError, ArithmeticError, ValueError)):
        poly_of(1, {(1,): Fraction(1, 2)}).evaluate_int([1])


def test_terms_are_normalized_to_lowest_terms():
    p = MultiPoly(1, {(1,): 2, (0,): 4}, 6)
    q = MultiPoly(1, {(1,): 1, (0,): 2}, 3)
    assert (p.terms, p.denominator) == (q.terms, q.denominator)
    assert p.denominator == 3
    assert MultiPoly(2, {}, 12).denominator == 1
    half = mono(1, (1,), Fraction(1, 2))
    assert half.denominator == 2 and (half - half).denominator == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_vandermonde_keeps_its_full_denominator(n):
    # every monomial of prod_{i<j} (k_j - k_i) has coefficient +-1
    assert vandermonde(n).denominator == prod(j - i for i in range(n) for j in range(i + 1, n))


@pytest.mark.parametrize("terms", [{(-1,): 1}, {(1, 0): 1}])
def test_exponents_must_be_nonnegative_and_match_the_arity(terms):
    with pytest.raises(ValueError, match=r"is not 1 nonnegative integers"):
        MultiPoly(1, terms)


@pytest.mark.parametrize("cls", [MultiPoly, BinomialPoly])
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
    assert MultiPoly(arity, terms).exponent_terms() == nonzero


@given(small_binomial_polys(), st.integers(3, 6))
def test_extend_arity_keeps_the_keys(b, arity):
    wider = b.extend_arity(arity)
    assert wider.terms == b.terms
    pad = (0,) * (arity - 3)
    assert wider.exponent_terms() == {e + pad: c for e, c in b.exponent_terms().items()}


def test_products_and_substitutions_past_255_raise_instead_of_wrapping():
    x200, x55 = mono(2, (200, 0)), mono(2, (55, 0))
    assert (x200 * x55).exponent_terms() == {(255, 0): 1}
    with pytest.raises(ValueError, match="above 255"):
        x200 * mono(2, (56, 0))
    # a shift keeps every exponent, so even 255 shifts
    assert BinomialPoly(1, {(255,): 1}).shift(1, 2).max_degree() == 255
    assert mono(2, (255, 1)).shift(1, -3).max_degree() == 255
    with pytest.raises(ValueError, match="above 255"):
        BinomialPoly(2, {(1, 0): 1}).reexpand({2: lambda e: [0] * 256 + [1]})
    with pytest.raises(ValueError, match="above 255"):
        vandermonde(257)


@pytest.mark.parametrize("coef", [Fraction(1, 2), Fraction(2), 0.5])
def test_numerators_must_be_ints(coef):
    with pytest.raises(TypeError, match="expected int coefficient"):
        MultiPoly(1, {(1,): coef})


@pytest.mark.parametrize("denominator", [0, -2])
def test_denominator_must_be_positive(denominator):
    with pytest.raises(ValueError, match="denominator must be positive"):
        MultiPoly(1, {(1,): 1}, denominator)


def test_term_cap_env(monkeypatch):
    monkeypatch.setenv(TERM_CAP_ENV, "3")
    dense = poly_of(1, {(0,): Fraction(1), (1,): Fraction(1)})
    with pytest.raises(TermCapExceeded):
        big = dense
        for _ in range(4):
            big = big * dense


# ---------------------------------------------------------------------------
# the integer binomial basis against the power basis
# ---------------------------------------------------------------------------


@given(small_binomial_polys())
def test_binomial_roundtrip_through_power_basis(b):
    m = b.to_multipoly()
    assert b == m and m == b
    assert not (b != m) and not (m != b)


def expand_by_linear_factors(b):
    """b in the power basis, each C(k_v, e) expanded by binomial_in_var as a
    product of linear factors, with no Stirling row."""
    total = MultiPoly.zero(b.arity)
    for exps, coef in b.exponent_terms().items():
        term = MultiPoly.constant(b.arity, coef)
        for var, e in enumerate(exps, start=1):
            term = term * binomial_in_var(b.arity, var, 0, e)
        total = total + term
    return total


@given(small_binomial_polys(max_deg=7))
@example(BinomialPoly(3, {(7, 0, 3): 1}))
@example(BinomialPoly(3, {(0, 7, 0): -2, (1, 0, 6): 5}))
@example(BinomialPoly(3, {(7, 2, 5): 3, (2, 5, 1): -4, (0, 0, 0): 9, (6, 6, 0): 1}))
def test_to_multipoly_matches_linear_factor_expansion(b):
    assert b.to_multipoly().terms == expand_by_linear_factors(b).terms


def test_binomial_in_var_matches_binomial_basis():
    # C(k + h, m) = sum_j C(h, m - j) C(k, j) by Vandermonde's convolution
    for m in range(6):
        for h in range(-6, 7):
            expected = BinomialPoly(1, {(j,): binom(h, m - j) for j in range(m + 1)})
            assert binomial_in_var(1, 1, h, m) == expected, (m, h)


def test_cross_basis_inequality():
    b = BinomialPoly(2, {(1, 0): 1})
    assert b != mono(2, (0, 1)) and mono(2, (0, 1)) != b
    assert b != BinomialPoly(2, {(0, 1): 1})
    # neither basis compares equal to a bare int, not even the zero polynomial
    assert MultiPoly(2) != 0 and BinomialPoly(2) != 0


@given(small_binomial_polys(), st.integers(1, 3), st.integers(-6, 6))
def test_binomial_shift(b, var, h):
    assert b.shift(var, h) == b.to_multipoly().shift(var, h)


@pytest.mark.parametrize("power", [False, True], ids=["binomial", "power"])
@given(
    b=small_binomial_polys(),
    var=st.integers(1, 3),
    h=st.integers(-6, 6),
    point=st.lists(st.integers(-7, 7), min_size=3, max_size=3),
)
def test_shift_evaluates_at_the_shifted_point(power, b, var, h, point):
    # E_var^h p at x is p at x + h e_var, evaluated without any shift row
    p = b.to_multipoly() if power else b
    moved = list(point)
    moved[var - 1] += h
    assert p.shift(var, h).evaluate(point) == p.evaluate(moved)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(-6, 6))
def test_substitution_row_is_a_product_of_binomials(a, b, h):
    # the row apply_sigma substitutes: C(y + h, a) C(y, b) in the basis C(y, j)
    row = BinomialPoly(1, {(j,): c for j, c in _substitution_row(a, b, h)})
    assert row == binomial_in_var(1, 1, h, a) * binomial_in_var(1, 1, 0, b)


@given(small_binomial_polys())
def test_binomial_negation(b):
    assert b.negate_variables() == b.to_multipoly().negate_variables()


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
    st.lists(st.integers(-7, 7), min_size=3, max_size=3),
)
def test_binomial_specialize(b, var, value, point):
    pinned = list(point)
    pinned[var - 1] = value
    assert b.specialize({var: value}).evaluate(point) == b.evaluate(pinned)


@given(small_binomial_polys(), st.permutations([1, 2, 3]))
def test_binomial_permute_positions(b, perm):
    assert b.permute_positions(perm) == b.to_multipoly().permute_positions(perm)


@given(small_binomial_polys(), st.lists(st.integers(-7, 7), min_size=3, max_size=3))
def test_binomial_evaluation_at_negative_points(b, point):
    assert b.evaluate(point) == b.to_multipoly().evaluate(point)


def test_binomial_term_cap(monkeypatch):
    b = BinomialPoly(2, {(2, 2): 1})
    monkeypatch.setenv(TERM_CAP_ENV, "3")
    with pytest.raises(TermCapExceeded):
        b.shift(1, 1).shift(2, 1)


def test_term_cap_names_construction(monkeypatch):
    monkeypatch.setenv(TERM_CAP_ENV, "2")
    with pytest.raises(TermCapExceeded) as exc:
        alpha_via_operator(3)
    assert (exc.value.construction, exc.value.n) == ("vandermonde", 3)
    assert "vandermonde(n=3)" in str(exc.value)


def test_term_cap_inside_the_operator_product(monkeypatch):
    # vandermonde(3) has 6 terms, so a cap of 10 is hit by a pair factor
    monkeypatch.setenv(TERM_CAP_ENV, "10")
    assert len(vandermonde(3).terms) == 6
    with pytest.raises(TermCapExceeded) as exc:
        alpha_via_operator(3)
    assert (exc.value.construction, exc.value.n) == ("alpha_via_operator", 3)


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_malformed_term_cap_raises_value_error(monkeypatch, raw):
    monkeypatch.setenv(TERM_CAP_ENV, raw)
    with pytest.raises(ValueError):
        MultiPoly.constant(1, 1)


# ---------------------------------------------------------------------------
# the counting polynomial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_alpha_matches_brute_force_on_strict_rows(n):
    from itertools import combinations

    alpha = alpha_via_recursion(n)
    for bottom in combinations(range(1, n + 3), n):
        assert alpha.evaluate_int(list(bottom)) == count_triangles(bottom)


def test_alpha_7_matches_brute_force_on_strict_rows():
    from itertools import combinations

    alpha = alpha_via_recursion(7)
    for bottom in combinations(range(1, 10), 7):
        assert alpha.evaluate_int(list(bottom)) == count_triangles(bottom)


@pytest.mark.parametrize(
    "n, terms", [(1, 1), (2, 3), (3, 15), (4, 111), (5, 1105), (6, 14172), (7, 222642)]
)
def test_alpha_term_counts(n, terms):
    assert len(alpha_via_recursion(n).terms) == terms


def test_term_cap_inside_the_summation_operator(monkeypatch):
    # alpha_5 (1,105 terms) is built and cached first; summing it up to
    # alpha_6 (14,172 terms) hits the cap inside apply_sigma
    alpha_via_recursion(5)
    monkeypatch.setenv(TERM_CAP_ENV, "2000")
    with pytest.raises(TermCapExceeded) as exc:
        alpha_via_recursion.__wrapped__(6)
    assert (exc.value.construction, exc.value.n) == ("alpha_via_recursion", 6)


def test_alpha_at_degenerate_point_is_zero():
    # (1,1,1) admits no strict middle row, and the polynomial agrees
    assert alpha_via_recursion(3).evaluate_int([1, 1, 1]) == 0


def test_alpha_small_values():
    alpha2 = alpha_via_recursion(2)
    assert alpha2.evaluate_int([1, 2]) == 2
    assert alpha2.evaluate_int([1, 3]) == 3  # k2 - k1 + 1


def test_summation_operator_builds_alpha():
    # alpha_{n}(k) = sum over strict interlacing rows of alpha_{n-1}
    alpha3 = alpha_via_recursion(3)
    assert summation_operator(alpha_via_recursion(2)) == alpha3


#: each variant's pair factor as printed next to ALPHA_VARIANTS, applied with
#: MultiPoly shifts
PRINTED_PAIR_FACTORS = {
    "printed": lambda P, p, q: P + P.shift(p, 1).shift(q, 1) - P.shift(q, 1),
    "pair_minus_Ep": lambda P, p, q: P + P.shift(p, 1).shift(q, 1) - P.shift(p, 1),
    "inverse_form": lambda P, p, q: P + P.shift(q, 1).shift(p, -1) - P.shift(p, -1),
}


@pytest.mark.parametrize("variant", ALPHA_VARIANTS)
@pytest.mark.parametrize("n", range(1, 5))
def test_operator_variant_is_its_printed_formula(variant, n):
    poly = vandermonde(n)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            poly = PRINTED_PAIR_FACTORS[variant](poly, p, q)
    assert alpha_via_operator(n, variant).terms == poly.terms


@pytest.mark.parametrize("variant", ALPHA_VARIANTS)
def test_operator_variants_defined(variant):
    poly = alpha_via_operator(2, variant)
    assert poly.arity == 2


def test_variant_selection_is_unique():
    assert select_operator_variants(5) == [PRODUCTION_ALPHA_VARIANT]


def test_production_variant_agrees_with_recursion():
    for n in range(1, 6):
        assert alpha_via_operator(n) == alpha_via_recursion(n)


def test_printed_variant_fails_at_order_two():
    # the rejected operator gives k2 - k1 - 1, which is 0 at (1, 2)
    poly = alpha_via_operator(2, "printed")
    assert poly.evaluate_int([1, 2]) == 0


def test_vandermonde_normalization():
    v = vandermonde(3)
    assert v.evaluate([1, 2, 3]) == 1
    assert v.evaluate([1, 1, 2]) == 0
