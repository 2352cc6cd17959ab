"""Acceptance suite: ten criteria, one pass/fail line each.

Each test prints "criterion N: PASS" on success; a failure raises with the
offending case, so the pytest line for the test doubles as the fail record.
"""

import random
import sys
import time
from itertools import combinations

import pytest

from asmlab import (
    GammaSpec,
    IndexTuplePair,
    a_nij,
    a_nij_direct,
    a_nk,
    alpha_via_operator,
    alpha_via_recursion,
    asm_reflect_antidiagonal,
    asm_reflect_horizontal,
    asm_rotate_90,
    asm_total,
    check_circuit,
    check_cyclic,
    check_near_symmetry,
    check_reflection_translation,
    check_remark_symmetry,
    check_system,
    coefficient_table,
    count_trapezoids,
    count_triangles,
    enumerate_triangles,
    extract_coefficient,
    gamma_count,
    gamma_formula_value,
    reconstruct_expansion,
    refined_counts,
    reflect_antidiagonal,
    reflect_horizontal,
    rotate_90,
    special_point,
    stroganov_b,
    triangle_to_asm,
    validate,
    verify_theorem7,
)
from test_poly import PRINTED_PAIR_FACTORS, is_printed_product

TOTALS = [1, 2, 7, 42, 429, 7436, 218348]


def report(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS", flush=True)
    print(f"criterion {number} ({label}): PASS", file=sys.stderr, flush=True)


def test_criterion_01_totals():
    start = time.monotonic()
    for n in range(1, 8):
        assert count_triangles(tuple(range(1, n + 1))) == TOTALS[n - 1], n
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"totals took {elapsed:.1f}s"
    report(1, "complete-triangle totals n<=7")


def test_criterion_02_singly_refined():
    for n in range(1, 7):
        rc = refined_counts(n)
        for k in range(1, n + 1):
            assert a_nk(n, k) == rc.top[k - 1], (n, k)
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert a_nk(n, k) == a_nk(n, n + 1 - k), (n, k)
        assert sum(a_nk(n, k) for k in range(1, n + 1)) == asm_total(n), n
    report(2, "singly refined counts")


def test_criterion_03_coefficient_extraction():
    start = time.monotonic()
    for n in range(1, 6):
        for c in range(0, n + 1):
            for d in range(0, n - c + 1):
                rep = verify_theorem7(n, c, d)
                assert rep.passed(), rep.to_json()
    for c in range(0, 4):
        for d in range(0, 4 - c):
            rep = verify_theorem7(6, c, d)
            assert rep.passed(), rep.to_json()
    elapsed = time.monotonic() - start
    assert elapsed < 900, f"extraction checks took {elapsed:.1f}s"
    report(3, "coefficients equal trapezoid counts")


def test_theorem7_full_sweep_n6():
    for c in range(0, 7):
        for d in range(0, 7 - c):
            rep = verify_theorem7(6, c, d)
            assert rep.passed(), rep.to_json()


def test_criterion_04_expansion_reconstruction():
    for n in range(1, 6):
        for c in range(0, n + 1):
            for d in range(0, n - c + 1):
                rep = reconstruct_expansion(coefficient_table(n, c, d))
                assert rep.passed(), rep.to_json()
    report(4, "expansion reconstruction n<=5")


def test_criterion_05_operator_variant_selection():
    # of the printed pair factors, only id + E_p E_q - E_p gives alpha_n at
    # every order; the pointwise reference settles n <= 4
    first_wrong = {
        variant: next((n for n in range(1, 5) if not is_printed_product(alpha_via_recursion(n), variant)), None)
        for variant in PRINTED_PAIR_FACTORS
    }
    assert first_wrong == {"printed": 2, "pair_minus_Ep": None, "inverse_form": 3}, first_wrong
    # alpha_via_operator applies that factor and equals the recursion term for term
    for n in range(1, 6):
        assert alpha_via_operator(n) == alpha_via_recursion(n)
    report(5, "unique surviving operator variant")


def test_criterion_06_doubly_refined():
    for n in range(2, 7):
        rc = refined_counts(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert stroganov_b(n, i, j) == rc.top_bottom.get((i, j), 0), (n, i, j)
    for n in range(2, 9):
        for j in range(2, n + 1):
            assert stroganov_b(n, 1, j) == a_nk(n - 1, j - 1), (n, j)
    report(6, "doubly refined counts")


def test_criterion_07_two_row_closed_form():
    for n in range(2, 8):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert a_nij(n, i, j) == count_trapezoids(n, (i, j), ()), (n, i, j)
    for n in range(2, 7):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert a_nij(n, i, j) == extract_coefficient(
                    IndexTuplePair(n, (i, j))
                ), (n, i, j)
                assert a_nij_direct(n, i, j) == a_nij(n, i, j), (n, i, j)
    report(7, "two-row closed form")


def test_criterion_08_identity_suite():
    for n in range(1, 6):
        assert check_cyclic(n).passed(), n
        for z in (-3, 1, 5):
            assert check_reflection_translation(n, z).passed(), (n, z)
        for c in range(0, n + 1):
            for d in range(0, n - c + 1):
                if 1 <= c + d <= 3:
                    for t in range(0, c + 1):
                        assert check_circuit(n, c, d, t).passed(), (n, c, d, t)
                assert check_remark_symmetry(n, c, d).passed(), (n, c, d)
    for n in range(1, 7):
        for d in (1, 2):
            if d <= n:
                assert check_system(n, d).passed(), (n, d)
    for n in range(2, 7):
        assert check_circuit(n, 2, 0, 1).passed(), n
    for n in range(3, 7):
        assert check_near_symmetry(n).passed(), n
    report(8, "polynomial identity suite")


def test_criterion_09_symmetry_maps():
    for n in range(1, 6):
        for tri in enumerate_triangles(tuple(range(1, n + 1))):
            ad = reflect_antidiagonal(tri)
            rot = rotate_90(tri)
            href = reflect_horizontal(tri)
            for image in (ad, rot, href):
                assert validate(image), tri
            assert reflect_antidiagonal(ad) == tri
            assert ad == reflect_horizontal(rot)
            m = triangle_to_asm(tri)
            assert triangle_to_asm(ad) == asm_reflect_antidiagonal(m)
            assert triangle_to_asm(rot) == asm_rotate_90(m)
            assert triangle_to_asm(href) == asm_reflect_horizontal(m)
            # row-i diagonal statistic: the SE-diagonal counts of entries >= i
            # and NE-diagonal counts of entries <= i-1 together exhaust 1..n
            for i in range(1, n + 1):
                stats = [
                    sum(1 for x in tri.se_diagonal(j) if x >= i)
                    for j in range(i, n + 1)
                ]
                stats += [
                    sum(1 for x in tri.ne_diagonal(j) if x <= i - 1)
                    for j in range(1, i)
                ]
                assert sorted(stats) == list(range(1, n + 1)), (tri, i, stats)
    report(9, "symmetry maps and diagonal statistics")


def _gamma_domain_ok(n, s, i):
    c, d = len(s), len(i)
    if any(s[c - l] > n - l + 1 for l in range(1, c + 1)):
        return False
    if any(i[l - 1] > n - d + l for l in range(1, d + 1)):
        return False
    for l in range(1, c + 1):
        for j in range(n - d + 1, n + 1):
            r = j - l + 1
            if 1 <= r <= min(s[c - l], i[j - (n - d) - 1]):
                return False
    return True


def test_criterion_10_anchored_partial_counts():
    rng = random.Random(987654321)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 4)
        c = rng.randint(0, n)
        d = rng.randint(0, n - c)
        s = tuple(sorted(rng.randint(1, n) for _ in range(c)))
        i = tuple(sorted(rng.randint(1, n) for _ in range(d)))
        if not _gamma_domain_ok(n, s, i):
            continue
        k = tuple(sorted(rng.randint(1, n + 2) for _ in range(n)))
        spec = GammaSpec(n, k, s, i)
        assert gamma_count(spec) == gamma_formula_value(spec), spec
        checked += 1
    for n in range(2, 6):
        for c in range(0, n + 1):
            for d in range(0, n - c + 1):
                point = special_point(n, c, d)
                for s in combinations(range(1, n + 1), c):
                    for i in combinations(range(1, n + 1), d):
                        spec = GammaSpec(n, point, s, i)
                        assert gamma_count(spec) == count_trapezoids(n, s, i), spec
    report(10, "anchored partial-triangle counts")
