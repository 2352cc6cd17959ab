"""Exact closed-form evaluators for the refined ASM counting numbers.

Covers the total count, the singly refined counts, the top/bottom doubly
refined counts (Stroganov), and the two-row refined numbers obtained by
composing the alternating-sum relation with Stroganov's formula.

All arithmetic is on Python integers.  Every division goes through
`_exact_div`, which raises ArithmeticError on a nonzero remainder, so a
formula that stops being integral fails loudly instead of rounding.

Each object is computed once per order n, in a bounded per-n memo: A_n, one
step up from the largest order known; the row a_nk(n, 1..n); the n x n table
of Stroganov's B(n; i, j), from one O(n^2) pass of prefix sums along each
diagonal j - i; and the signed binomial weights of `a_nij`, one row per j.
`a_nij` reads the B table; `a_nij_direct` is its own double sum over a_nk and
never touches the B table, so it stays a cross-check.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from operator import mul

from .reports import VerificationReport, decimal


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{what} not integral: {decimal(numerator)}/{decimal(denominator)}")
    return quotient


_TOTALS_KEPT = 256  # orders kept in _totals, {n: A_n}; the oldest goes first
_totals: dict[int, int] = {}


def asm_total(n: int) -> int:
    """Product formula A_n = prod_{j<n} (3j+1)!/(n+j)!, one order at a time from
    the largest known order up to n: A_{m+1} = A_m (3m+1)! m! / ((2m)! (2m+1)!)."""
    if n < 1:
        raise ValueError("n must be positive")
    start = max((m for m in _totals if m <= n), default=1)
    total = _totals.get(start, 1)
    for m in range(start, n):
        total = _exact_div(
            total * factorial(3 * m + 1) * factorial(m),
            factorial(2 * m) * factorial(2 * m + 1),
            f"total count for n={m + 1}",
        )
    _totals[n] = total
    if len(_totals) > _TOTALS_KEPT:
        del _totals[next(iter(_totals))]
    return total


@lru_cache(maxsize=256)
def _a_row(n: int) -> tuple[int, ...]:
    """(a_nk(n, 1), ..., a_nk(n, n)), by the refined product formula
    a_nk = A_{n-1} C(n+k-2, k-1) C(2n-k-1, n-k) / C(2n-2, n-1)."""
    smaller = asm_total(n - 1) if n > 1 else 1
    divisor = comb(2 * n - 2, n - 1)
    return tuple(
        _exact_div(
            smaller * comb(n + k - 2, k - 1) * comb(2 * n - k - 1, n - k),
            divisor,
            f"refined count for n={n}, k={k}",
        )
        for k in range(1, n + 1)
    )


def a_nk(n: int, k: int) -> int:
    """Matrices with the top-row 1 in column k; zero outside 1 <= k <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        return 0
    return _a_row(n)[k - 1]


def _padded_row(m: int) -> list[int]:
    """a_nk(m, k) at index k + m for -m <= k <= 2m + 1, zero outside 1..m,
    so the sums below index it without range tests."""
    return [0] * (m + 1) + list(_a_row(m)) + [0] * (m + 2)


@lru_cache(maxsize=64)
def _b_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Stroganov's B(n; i, j) for 1 <= i, j <= n, row i at index i - 1.

    B(n; i, i+delta) = (1/A_{n-1}) sum_{l=1}^{i} term(l, delta) with
    term(l, delta) = a(n-1, l-1) (a(n, delta+l) - a(n, delta+l-1))
                   + a(n-1, delta+l-1) (a(n, l) - a(n, l-1)),
    so along each diagonal of fixed delta the numerators are prefix sums.
    """
    cur, prev = _padded_row(n), _padded_row(n - 1)
    p = n - 1  # a(n, k) = cur[k + n], a(n-1, k) = prev[k + p]
    divisor = asm_total(n - 1)
    table = [[0] * n for _ in range(n)]
    for delta in range(1 - n, n):
        partial = 0
        for i in range(1, min(n, n - delta) + 1):
            partial += (
                prev[i - 1 + p] * (cur[delta + i + n] - cur[delta + i - 1 + n])
                + prev[delta + i - 1 + p] * (cur[i + n] - cur[i - 1 + n])
            )
            if i + delta >= 1:
                table[i - 1][i + delta - 1] = _exact_div(partial, divisor, f"B({n},{i},{i + delta})")
    return tuple(tuple(row) for row in table)


def _check_pair(n: int, i: int, j: int) -> None:
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices must lie in [1, n]")


def stroganov_b(n: int, i: int, j: int) -> int:
    """Matrices with the bottom-row 1 in column i and top-row 1 in column j,
    by summing Stroganov's difference formula from the boundary case."""
    _check_pair(n, i, j)
    return _b_table(n)[i - 1][j - 1]


@lru_cache(maxsize=64)
def _a_weights(n: int) -> tuple[tuple[int, ...], ...]:
    """Row j - 1: the signed weights (-1)^(n+k) C(2n-2-j, k-j) for k = j..n,
    which do not depend on i."""
    return tuple(
        tuple((-1) ** ((n + k) % 2) * comb(2 * n - 2 - j, k - j) for k in range(j, n + 1))
        for j in range(1, n + 1)
    )


def a_nij(n: int, i: int, j: int) -> int:
    """Triangles missing i and j from the bottom row (i < j); defined for all
    index pairs through the alternating sum over Stroganov's numbers."""
    _check_pair(n, i, j)
    return sum(map(mul, _a_weights(n)[j - 1], _b_table(n)[i - 1][j - 1 :]))


def a_nij_direct(n: int, i: int, j: int) -> int:
    """Single-formula version of a_nij with the summation indices untangled;
    must agree with the composition and is used as a cross-check.  Reads
    only a_nk, never the B table."""
    _check_pair(n, i, j)
    cur, prev = _padded_row(n), _padded_row(n - 1)
    p = n - 1  # a(n, k) = cur[k + n], a(n-1, k) = prev[k + p]
    total = 0
    for l in range(1, i + 1):
        for k in range(l - i + j, l - i + n + 1):
            sign = -1 if (n + i + k + l) % 2 else 1
            weight = comb(2 * n - 2 - j, k - l + i - j)
            total += sign * weight * (
                prev[l - 1 + p] * (cur[k + n] - cur[k - 1 + n])
                + prev[k - 1 + p] * (cur[l + n] - cur[l - 1 + n])
            )
    return _exact_div(total, asm_total(n - 1), f"A({n};{i},{j})")


def check_near_symmetry(n: int) -> VerificationReport:
    """a_nij(i, j) = a_nij(n+1-j, n+1-i) away from the two exceptional index
    pairs, which instead satisfy a fixed offset by the smaller total count."""
    if n < 3:
        raise ValueError("n must be at least 3")
    report = VerificationReport("near-symmetry", f"n={n}")
    exceptional = {(n - 1, 1), (n, 2)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) in exceptional:
                continue
            report.record(
                {"i": i, "j": j}, a_nij(n, i, j), a_nij(n, n + 1 - j, n + 1 - i)
            )
    report.record(
        {"pair": "exceptional"}, a_nij(n, n - 1, 1) - asm_total(n - 1), a_nij(n, n, 2)
    )
    return report
