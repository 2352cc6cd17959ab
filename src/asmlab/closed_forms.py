"""Exact closed-form evaluators for the refined ASM counting numbers.

Covers the total count, the singly refined counts, the top/bottom doubly
refined counts (Stroganov), and the two-row refined numbers obtained by
composing the alternating-sum relation with Stroganov's formula.

All arithmetic is on Python integers.  Every division goes through
`_exact_div`, which raises ArithmeticError on a nonzero remainder, so a
formula that stops being integral fails loudly instead of rounding.

Each object is computed once per order n, in a bounded per-n memo: A_n, one
step up from the largest order known; the row a_nk(n, 1..n), which is A_{n-1}
times the small row u(n, k) = C(n+k-2, k-1) C(2n-k-1, n-k) over
C(2n-2, n-1); the n x n table S of small numerators of Stroganov's B(n; i, j),
from one O(n^2) pass of prefix sums along each diagonal j - i over the u rows
of orders n and n - 1, with B = A_{n-2} S / D for one divisor D per order; the
B table, which scales and divides every cell of S; and the signed binomial
weights of `a_nij`, one row per j.  `a_nij` takes its dot product over the
small numerators and scales and divides once per cell, so it never multiplies
the large B cells; `a_nij_direct` is its own sum over a_nk, one pair of dot
products with one signed weight row per l, and never touches S, the B table or
those weights, so it stays a cross-check.
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


def _u_row(n: int) -> tuple[int, ...]:
    """u(n, k) = C(n+k-2, k-1) C(2n-k-1, n-k) for k = 1..n, so that
    a_nk(n, k) = A_{n-1} u(n, k) / C(2n-2, n-1)."""
    return tuple(comb(n + k - 2, k - 1) * comb(2 * n - k - 1, n - k) for k in range(1, n + 1))


@lru_cache(maxsize=256)
def _a_row(n: int) -> tuple[int, ...]:
    """(a_nk(n, 1), ..., a_nk(n, n)), by the refined product formula
    a_nk = A_{n-1} u(n, k) / C(2n-2, n-1)."""
    smaller = asm_total(n - 1) if n > 1 else 1
    divisor = comb(2 * n - 2, n - 1)
    return tuple(
        _exact_div(smaller * u, divisor, f"refined count for n={n}, k={k}")
        for k, u in enumerate(_u_row(n), 1)
    )


def a_nk(n: int, k: int) -> int:
    """Matrices with the top-row 1 in column k; zero outside 1 <= k <= n."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        return 0
    return _a_row(n)[k - 1]


def _padded(row: tuple[int, ...]) -> list[int]:
    """A row of order m = len(row), entry k at index k + m for
    -m <= k <= 2m + 1, zero outside 1..m, so the sums below index it without
    range tests."""
    m = len(row)
    return [0] * (m + 1) + list(row) + [0] * (m + 2)


def _padded_row(m: int) -> list[int]:
    """a_nk(m, k) at index k + m, padded as by `_padded`."""
    return _padded(_a_row(m))


@lru_cache(maxsize=64)
def _s_table(n: int) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """(S, scale, divisor) with Stroganov's B(n; i, j) = scale S[i-1][j-1] /
    divisor for 1 <= i, j <= n.

    B(n; i, i+delta) = (1/A_{n-1}) sum_{l=1}^{i} term(l, delta) with
    term(l, delta) = a(n-1, l-1) (a(n, delta+l) - a(n, delta+l-1))
                   + a(n-1, delta+l-1) (a(n, l) - a(n, l-1)),
    so along each diagonal of fixed delta the numerators are prefix sums.
    Each term is a(n-1, .) times a difference of a(n, .), and
    a(m, k) = A_{m-1} u(m, k) / C(2m-2, m-1), so the sums S run over the
    small u rows and B = A_{n-2} S / (C(2n-2, n-1) C(2n-4, n-2)), A_0 = 1.
    """
    cur, prev = _padded(_u_row(n)), _padded(_u_row(n - 1))
    p = n - 1  # u(n, k) = cur[k + n], u(n-1, k) = prev[k + p]
    scale = asm_total(n - 2) if n > 2 else 1
    divisor = comb(2 * n - 2, n - 1) * comb(2 * n - 4, n - 2)
    sums = [[0] * n for _ in range(n)]
    for delta in range(1 - n, n):
        partial = 0
        for i in range(1, min(n, n - delta) + 1):
            partial += (
                prev[i - 1 + p] * (cur[delta + i + n] - cur[delta + i - 1 + n])
                + prev[delta + i - 1 + p] * (cur[i + n] - cur[i - 1 + n])
            )
            if i + delta >= 1:
                sums[i - 1][i + delta - 1] = partial
    return tuple(tuple(row) for row in sums), scale, divisor


@lru_cache(maxsize=64)
def _b_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Stroganov's B(n; i, j) for 1 <= i, j <= n, row i at index i - 1; the
    full numerator is divided exactly in every cell."""
    sums, scale, divisor = _s_table(n)
    return tuple(
        tuple(_exact_div(scale * s, divisor, f"B({n},{i},{j})") for j, s in enumerate(row, 1))
        for i, row in enumerate(sums, 1)
    )


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
    index pairs through the alternating sum over Stroganov's numbers.

    B = scale S / divisor in every cell, so the sum is taken over the small
    numerators S and scaled and divided once; the division is exact because
    each scale S / divisor is."""
    _check_pair(n, i, j)
    sums, scale, divisor = _s_table(n)
    total = sum(map(mul, _a_weights(n)[j - 1], sums[i - 1][j - 1 :]))
    return _exact_div(scale * total, divisor, f"A({n};{i},{j})")


def a_nij_direct(n: int, i: int, j: int) -> int:
    """Single-formula version of a_nij with the summation indices untangled;
    must agree with the composition and is used as a cross-check.  Reads
    only a_nk, never the B table or the weights of `a_nij`.

    With k = l - i + j + t the double sum over l and k has the weight
    (-1)^(n+j+t) C(2n-2-j, t), independent of l, so each l takes two dot
    products of that one weight row: with the differences of a(n, .) and with
    a(n-1, .), both read from k = l - i + j on."""
    _check_pair(n, i, j)
    cur, prev = _padded_row(n), _padded_row(n - 1)
    p = n - 1  # a(n, k) = cur[k + n], a(n-1, k) = prev[k + p]
    diff = [0] + [b - a for a, b in zip(cur, cur[1:])]  # a(n, k) - a(n, k-1) at k + n
    weights = [(-1) ** ((n + j + t) % 2) * comb(2 * n - 2 - j, t) for t in range(n - j + 1)]
    total = 0
    for l in range(1, i + 1):
        k = l - i + j
        over_cur = sum(map(mul, weights, diff[k + n :]))
        over_prev = sum(map(mul, weights, prev[k - 1 + p :]))
        total += prev[l - 1 + p] * over_cur + diff[l + n] * over_prev
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
