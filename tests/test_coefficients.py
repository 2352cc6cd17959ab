"""Coefficient extraction, tables, and polynomial identities."""

import random
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from asmlab import (
    CoefficientTable,
    GammaSpec,
    IndexTuplePair,
    check_circuit,
    check_cyclic,
    check_gamma_formula,
    check_reflection_translation,
    check_remark_symmetry,
    check_system,
    coefficient_table,
    count_trapezoids,
    count_triangles,
    extract_coefficient,
    gamma_count,
    gamma_formula_value,
    reconstruct_expansion,
    special_point,
    verify_theorem7,
)
from asmlab import coefficients
from asmlab.coefficients import _specialized_alpha


def test_index_pair_validation():
    with pytest.raises(ValueError):
        IndexTuplePair(3, (1, 2), (1, 2))  # c + d > n
    with pytest.raises(ValueError):
        IndexTuplePair(3, (4,))
    pair = IndexTuplePair(4, (1, 3), (2,))
    assert (pair.n, pair.s, pair.i) == (4, (1, 3), (2,))


def test_extract_no_indices_recovers_total():
    # with c = d = 0 extraction evaluates alpha at (1..n)
    assert extract_coefficient(IndexTuplePair(4)) == 42
    assert extract_coefficient(IndexTuplePair(5)) == 429


def test_extract_matches_brute_force_spot_checks():
    for n, s, i in [
        (4, (2,), ()),
        (4, (2,), (3,)),
        (5, (1, 3), (2,)),
        (5, (2,), (2, 4)),
        (6, (4,), (2, 3, 5)),
    ]:
        assert extract_coefficient(IndexTuplePair(n, s, i)) == count_trapezoids(n, s, i)


@pytest.mark.parametrize("n", range(1, 5))
def test_theorem7_small(n):
    for c in range(0, n + 1):
        for d in range(0, n - c + 1):
            report = verify_theorem7(n, c, d)
            assert report.passed(), report.to_json()


def test_specializing_no_variable_keeps_alpha():
    from asmlab.coefficients import _specialized_alpha
    from asmlab.polynomials import alpha_via_recursion

    for n in range(1, 6):
        for c in range(n + 1):
            assert _specialized_alpha(n, c, n - c) is alpha_via_recursion(n)


def test_specialized_alpha_pins_the_middle_variables():
    from asmlab.polynomials import alpha_via_recursion

    for n in range(1, 7):
        alpha = alpha_via_recursion(n)
        for c in range(n + 1):
            for d in range(n + 1 - c):
                direct = alpha.specialize({v: v for v in range(c + 1, n - d + 1)})
                assert _specialized_alpha(n, c, d).arity == c + d, (n, c, d)
                assert _specialized_alpha(n, c, d).terms == direct.terms, (n, c, d)


def test_class_polynomials_count_triangles():
    # the (c, d) class at (x; y) is the number of monotone triangles with
    # bottom row (x, c+1, ..., n-d, y), read off by the row recursion alone
    rng = random.Random(22)
    for n in range(1, 6):
        for c in range(n + 1):
            for d in range(n + 1 - c):
                poly = _specialized_alpha(n, c, d)
                assert poly.arity == c + d, (n, c, d)
                middle = tuple(range(c + 1, n - d + 1))
                for _ in range(3):
                    x = tuple(sorted(rng.sample(range(c - 4, c + 1), c)))
                    y = tuple(sorted(rng.sample(range(n - d + 1, n - d + 6), d)))
                    expected = count_triangles(x + middle + y)
                    assert poly.evaluate(x + y) == expected, (n, c, d, x, y)


def test_specialized_alpha_builds_each_class_from_its_neighbour():
    _specialized_alpha.cache_clear()
    _specialized_alpha(6, 0, 1)
    # the chain (5, 1) -> (4, 1) -> ... -> (0, 1), one entry per class
    assert _specialized_alpha.cache_info().currsize == 6
    before = _specialized_alpha.cache_info()
    for c in range(6):
        _specialized_alpha(6, c, 1)
    after = _specialized_alpha.cache_info()
    assert (after.hits - before.hits, after.misses, after.currsize) == (6, before.misses, 6)


def test_coefficient_table_matches_pointwise_extraction():
    # every cell, strict or not: the identity checks read non-strict cells too
    for n in range(1, 6):
        for c in range(n + 1):
            for d in range(n + 1 - c):
                table = coefficient_table(n, c, d)
                assert len(table.values) == n ** (c + d), (n, c, d)
                if n > 4:
                    continue
                for (s, i), value in table.values.items():
                    assert value == extract_coefficient(IndexTuplePair(n, s, i)), (n, s, i)
    # every strict cell that criterion 03 once extracted cell by cell
    for n in range(1, 7):
        most = 3 if n == 6 else n  # c + d <= most
        for c in range(most + 1):
            for d in range(most + 1 - c):
                table = coefficient_table(n, c, d)
                for s in combinations(range(1, n + 1), c):
                    for i in combinations(range(1, n + 1), d):
                        pair = IndexTuplePair(n, s, i)
                        assert table[(s, i)] == extract_coefficient(pair), (n, s, i)


def test_coefficient_table_rejects_negative_sizes():
    for c, d in [(-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match="need c >= 0 and d >= 0"):
            coefficient_table(4, c, d)
    with pytest.raises(ValueError, match="need c >= 0 and d >= 0"):
        verify_theorem7(4, -1, 2)
    with pytest.raises(ValueError, match=r"need c \+ d <= n"):
        verify_theorem7(4, 3, 2)


def _one_cell_off(monkeypatch, key, cell):
    """Make coefficient_table(*key) return its table with `cell` raised by one."""
    real = coefficients.coefficient_table

    def perturbed(n, c, d):
        table = real(n, c, d)
        if (n, c, d) == key:
            table.values[cell] += 1
        return table

    monkeypatch.setattr(coefficients, "coefficient_table", perturbed)


def test_table_checks_read_every_cell_they_compare(monkeypatch):
    # (check, table it reads, one cell of that table the check compares)
    for check, key, cell in [
        (lambda: verify_theorem7(4, 1, 2), (4, 1, 2), ((2,), (1, 3))),
        (lambda: check_circuit(4, 1, 1, 1), (4, 1, 1), ((2,), (1,))),
        (lambda: check_circuit(4, 1, 1, 1), (4, 0, 2), ((), (1, 3))),
        (lambda: check_system(4, 2), (4, 0, 2), ((), (3, 1))),
        (lambda: check_remark_symmetry(4, 1, 2), (4, 1, 2), ((2,), (1, 3))),
        (lambda: check_remark_symmetry(4, 1, 2), (4, 2, 1), ((1, 3), (2,))),
        (lambda: check_remark_symmetry(4, 1, 1), (4, 1, 1), ((1,), (3,))),
        (lambda: check_circuit(4, 2, 0, 1), (4, 2, 0), ((1, 3), ())),
        (lambda: check_circuit(4, 2, 0, 1), (4, 1, 1), ((1,), (3,))),
    ]:
        assert check().passed()
        with monkeypatch.context() as patch:
            _one_cell_off(patch, key, cell)
            report = check()
        assert report.status == "fail" and report.counterexamples, (key, cell)
    for n in range(1, 6):
        for c in range(n + 1):
            for d in range(n + 1 - c):
                strict = comb(n, c) * comb(n, d)
                assert verify_theorem7(n, c, d).cases == strict
                assert check_remark_symmetry(n, c, d).cases == strict
                for t in range(c + 1):
                    assert check_circuit(n, c, d, t).cases == strict
        for d in range(1, n + 1):
            assert check_system(n, d).cases == n**d


@pytest.mark.parametrize("c,d,builds", [(1, 1, 1), (1, 2, 2), (2, 1, 2)])
def test_symmetry_builds_one_table_per_class(monkeypatch, c, d, builds):
    real, calls = coefficients.coefficient_table, []

    def counted(*key):
        calls.append(key)
        return real(*key)

    monkeypatch.setattr(coefficients, "coefficient_table", counted)
    assert check_remark_symmetry(4, c, d).passed()
    assert len(calls) == builds, calls


@pytest.mark.parametrize("n,c,d", [(2, 1, 1), (3, 1, 1), (4, 2, 1), (4, 0, 2)])
def test_reconstruction_small(n, c, d):
    assert reconstruct_expansion(coefficient_table(n, c, d)).passed()


@pytest.mark.parametrize("n", range(1, 5))
def test_cyclic_identity(n):
    assert check_cyclic(n).passed()


def test_whole_polynomial_checks_count_their_cases():
    cyclic = check_cyclic(3)
    assert cyclic.passed() and cyclic.cases == 1
    assert check_reflection_translation(3, 5).cases == 2
    # one case per binomial-basis term of the specialized alpha_4
    reconstruction = reconstruct_expansion(coefficient_table(4, 1, 1))
    assert reconstruction.passed()
    assert reconstruction.cases == len(_specialized_alpha(4, 1, 1).terms)


@pytest.mark.parametrize("n,c,d", [(2, 1, 1), (3, 0, 3), (3, 2, 1), (4, 0, 2), (4, 1, 1)])
def test_reconstruction_fails_on_a_table_with_one_cell_off(n, c, d):
    # the basis polynomials are independent, so no single cell can move unseen
    table = coefficient_table(n, c, d)
    for cell in table.values:
        changed = dict(table.values)
        changed[cell] += 1
        report = reconstruct_expansion(CoefficientTable(n, c, d, changed))
        assert report.status == "fail" and report.counterexamples, cell


@pytest.mark.parametrize("z", [-3, 1, 5])
def test_reflection_translation_identity(z):
    for n in range(1, 5):
        assert check_reflection_translation(n, z).passed()


def test_circuit_relation():
    for n in range(2, 5):
        for c, d in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            if c + d > n:
                continue
            for t in range(0, c + 1):
                assert check_circuit(n, c, d, t).passed(), (n, c, d, t)


def test_linear_system():
    for n in range(1, 5):
        assert check_system(n, 1).passed()
    assert check_system(4, 2).passed()


def test_remark_symmetry():
    for n in range(1, 5):
        for c in range(0, n + 1):
            for d in range(0, n + 1 - c):
                assert check_remark_symmetry(n, c, d).passed()


def test_gamma_formula_at_special_points():
    for n in range(2, 5):
        for c in range(0, n + 1):
            for d in range(0, n - c + 1):
                point = special_point(n, c, d)
                for s in combinations(range(1, n + 1), c):
                    for i in combinations(range(1, n + 1), d):
                        spec = GammaSpec(n, point, s, i)
                        assert check_gamma_formula(spec).passed(), spec


def _gamma_domain_ok(n, s, i):
    """Truncations stay on their diagonals and the two families are disjoint."""
    c, d = len(s), len(i)
    # NE diagonal l has n - l + 1 cells; SE diagonal at column j has j cells
    if any(s[c - l] > n - l + 1 for l in range(1, c + 1)):
        return False
    if any(i[l - 1] > n - d + l for l in range(1, d + 1)):
        return False
    # cell (r, j) is truncated by NE diagonal l = j - r + 1 when r <= s_{c+1-l}
    # and by SE column j when r <= i_{j-n+d}; forbid any shared cell
    for l in range(1, c + 1):
        for j in range(n - d + 1, n + 1):
            r = j - l + 1
            if 1 <= r <= min(s[c - l], i[j - (n - d) - 1]):
                return False
    return True


def _random_gamma_spec(rng, n):
    """A spec in the identity's domain: weakly increasing k plus the
    truncation-shape conditions above."""
    while True:
        c = rng.randint(0, n)
        d = rng.randint(0, n - c)
        s = tuple(sorted(rng.randint(1, n) for _ in range(c)))
        i = tuple(sorted(rng.randint(1, n) for _ in range(d)))
        if not _gamma_domain_ok(n, s, i):
            continue
        k = tuple(sorted(rng.randint(1, n + 2) for _ in range(n)))
        return GammaSpec(n, k, s, i)


def test_gamma_formula_random_weakly_increasing():
    rng = random.Random(20240817)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 4)
        spec = _random_gamma_spec(rng, n)
        assert gamma_count(spec) == gamma_formula_value(spec), spec
        checked += 1
    # every in-domain spec with n <= 3 and k weakly increasing in 1..n+2
    checked = 0
    for n in range(1, 4):
        for c in range(n + 1):
            for d in range(n - c + 1):
                for s in combinations_with_replacement(range(1, n + 1), c):
                    for i in combinations_with_replacement(range(1, n + 1), d):
                        if not _gamma_domain_ok(n, s, i):
                            continue
                        for k in combinations_with_replacement(range(1, n + 3), n):
                            spec = GammaSpec(n, k, s, i)
                            assert gamma_count(spec) == gamma_formula_value(spec), spec
                            checked += 1
    assert checked == 2054
