"""Expansion coefficients of the specialized triangle-counting polynomial.

The coefficients A(n; s_1..s_c; i_1..i_d) are extracted from alpha_n by
finite differences at the anchored evaluation point, tabulated, checked
against the brute-force trapezoid counts, and run through the polynomial
identities relating them (cyclic rotation, reflection/translation, the
circuit relation, the linear system, and the s/i symmetry).

alpha_n is held in the binomial basis, where the differences are index
moves: Delta^m C(x, e) = C(x, e - m) and nabla^m C(x, e) = C(x - m, e - m).
A coefficient is then one pass over the terms, and a coefficient table one
basis change per axis.  The identity checks read whole tables; the single
cell serves `asmlab coeff`.  The re-expansion check stays in the same basis:
it rebuilds alpha_n from a table through the paper's basis polynomials,
re-expanded by Vandermonde's convolution, so it shares no row with the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from math import comb
from operator import index
from typing import Sequence

from .enumeration import (
    GammaSpec,
    count_trapezoids,
    gamma_count,
    index_tuples,
    special_point,
)
from .polynomials import BinomialPoly, alpha_via_recursion, binom
from .reports import VerificationReport


@dataclass(frozen=True)
class IndexTuplePair:
    """Index tuples (s_1..s_c; i_1..i_d) of one expansion coefficient."""

    n: int
    s: tuple[int, ...]
    i: tuple[int, ...]

    def __init__(self, n: int, s: Sequence[int] = (), i: Sequence[int] = ()):
        s, i = index_tuples(n, s, i)
        object.__setattr__(self, "n", index(n))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "i", i)


@dataclass
class CoefficientTable:
    """Dense table of A(n; s; i) over all tuples in [1,n]^c x [1,n]^d."""

    n: int
    c: int
    d: int
    values: dict = field(default_factory=dict)  # (s, i) -> int

    def __getitem__(self, key) -> int:
        s, i = key
        return self.values[(tuple(s), tuple(i))]


@lru_cache(maxsize=128)
def _specialized_alpha(n: int, c: int, d: int) -> BinomialPoly:
    """alpha_n with the middle variables pinned to (c+1, ..., n-d).

    Built from its neighbour: the (c, d) class is the (c+1, d) class with
    variable c+1 pinned to c+1, and c + d >= n pins nothing.  The classes of
    one d thus form one chain from alpha_n through this cache, and each step
    pins one variable of an already smaller polynomial.
    """
    if c + d >= n:
        return alpha_via_recursion(n)
    return _specialized_alpha(n, c + 1, d).specialize({c + 1: c + 1})


def _difference_value(poly: BinomialPoly, s: tuple[int, ...], i: tuple[int, ...], point) -> int:
    """(-1)^(|s|-c) times Delta^{s_c-1}_1 ... Delta^{s_1-1}_c
    nabla^{i_1-1}_{n-d+1} ... nabla^{i_d-1}_n poly, evaluated at `point`.

    `poly` is alpha_n or a specialization of it, so no exponent reaches n.
    """
    n, c, d = poly.arity, len(s), len(i)
    lowered = [0] * n  # Delta^m or nabla^m lowers the exponent by m ...
    moved = [0] * n  # ... and nabla^m also moves the argument down by m
    for var in range(1, c + 1):
        lowered[var - 1] = s[c - var] - 1
    for l in range(1, d + 1):
        lowered[n - d + l - 1] = moved[n - d + l - 1] = i[l - 1] - 1
    tables = [
        [binom(x - mv, e - m) for e in range(n)] for x, m, mv in zip(point, lowered, moved)
    ]
    sign = -1 if (sum(s) - c) % 2 else 1
    return sign * poly.contract(tables)


def extract_coefficient(pair: IndexTuplePair) -> int:
    """One A(n; s; i) by finite differences of alpha_n at the anchored point."""
    n, c, d = pair.n, len(pair.s), len(pair.i)
    return _difference_value(_specialized_alpha(n, c, d), pair.s, pair.i, special_point(n, c, d))


def coefficient_table(n: int, c: int, d: int) -> CoefficientTable:
    """All A(n; s; i) for (s, i) in [1,n]^c x [1,n]^d.

    Variable c+1-j carries s_j and variable n-d+l carries i_l; the middle
    variables are pinned.  One basis change per differenced axis takes
    exponent e to the entry m + 1 with weight (-1)^m Delta^m C(x, e) =
    (-1)^m C(x, e - m) on an s-axis, or nabla^m C(x, e) = C(x - m, e - m) on
    an i-axis, at the anchored point.  A grid key is then (s reversed, 0..0, i).
    """
    if c < 0 or d < 0:
        raise ValueError("need c >= 0 and d >= 0")
    if c + d > n:
        raise ValueError("need c + d <= n")
    point = special_point(n, c, d)
    rows = {}
    for axis in [*range(c), *range(n - d, n)]:
        x = point[axis]
        if axis < c:
            table = [[0] + [(-1) ** m * binom(x, e - m) for m in range(n)] for e in range(n)]
        else:
            table = [[0] + [binom(x - m, e - m) for m in range(n)] for e in range(n)]
        rows[axis + 1] = table.__getitem__
    grid = _specialized_alpha(n, c, d).reexpand(rows).exponent_terms()
    cells = range(1, n + 1)
    values = dict.fromkeys(product(product(cells, repeat=c), product(cells, repeat=d)), 0)
    for key, value in grid.items():
        values[key[:c][::-1], key[n - d :]] = value
    return CoefficientTable(n, c, d, values)


def reconstruct_expansion(table: CoefficientTable) -> VerificationReport:
    """Reassemble the specialized alpha_n from the table and compare it term
    for term with the one the table was read from.

    Each cell weighs the paper's basis polynomials: (-1)^m C(k - c - 1, m) on
    the axis of an s index, C(k - n + d - 1 + m, m) on the axis of an i index,
    with m one less than the index.  Vandermonde's convolution re-expands
    them in C(k, t): (-1)^m C(k - c - 1, m) = (-1)^m sum_t C(-c - 1, m - t)
    C(k, t), and C(k - n + d - 1 + m, m) = sum_t C(m - n + d - 1, m - t) C(k, t).
    """
    n, c, d = table.n, table.c, table.d
    report = VerificationReport("expansion-reconstruction", f"n={n}, c={c}, d={d}")
    # entry j on a differenced axis is the index m + 1; the pinned middle
    # variables keep exponent 0
    middle = (0,) * (n - c - d)
    grid = {s[::-1] + middle + i: value for (s, i), value in table.values.items() if value}
    rows = {}
    for var in range(1, c + 1):
        rows[var] = lambda j: [(-1) ** (j - 1) * binom(-c - 1, j - 1 - t) for t in range(j)]
    for var in range(n - d + 1, n + 1):
        rows[var] = lambda j: [binom(j - n + d - 2, j - 1 - t) for t in range(j)]
    total = BinomialPoly(n, grid).reexpand(rows).exponent_terms()
    target = _specialized_alpha(n, c, d).exponent_terms()
    for exps in sorted(target.keys() | total.keys()):
        report.record(f"term {exps}", target.get(exps, 0), total.get(exps, 0))
    return report


def verify_theorem7(n: int, c: int, d: int) -> VerificationReport:
    """The (n, c, d) coefficient table against brute-force trapezoid counts,
    over all strictly increasing index tuples."""
    table = coefficient_table(n, c, d)
    report = VerificationReport("coefficient-equals-trapezoid-count", f"n={n}, c={c}, d={d}")
    for s in combinations(range(1, n + 1), c):
        for i in combinations(range(1, n + 1), d):
            report.record({"s": s, "i": i}, count_trapezoids(n, s, i), table[(s, i)])
    return report


def check_cyclic(n: int) -> VerificationReport:
    """alpha(n; k_1..k_n) = (-1)^{n-1} alpha(n; k_2..k_n, k_1 - n) as a
    term-level identity."""
    report = VerificationReport("cyclic-rotation", f"n={n}")
    alpha = alpha_via_recursion(n)
    # argument j of alpha becomes k_{j+1}, the last argument becomes k_1 - n
    rotated = alpha.permute_positions(list(range(2, n + 1)) + [1]).shift(1, -n)
    rhs = rotated.scale((-1) ** (n - 1))
    report.record("polynomial identity", "equal", "equal" if alpha == rhs else "different")
    return report


@lru_cache(maxsize=16)
def _reversal_negation_invariant(n: int) -> bool:
    """Whether alpha_n(-k_n, ..., -k_1) equals alpha_n(k_1, ..., k_n); it does
    not depend on any translation, so it is compared once per n."""
    alpha = alpha_via_recursion(n)
    return alpha == alpha.permute_positions(list(range(n, 0, -1))).negate_variables()


def check_reflection_translation(n: int, z: int) -> VerificationReport:
    """alpha is invariant under reversal-negation of its arguments and under
    translation by z."""
    report = VerificationReport("reflection-and-translation", f"n={n}, z={z}")
    alpha = alpha_via_recursion(n)
    invariant = "equal" if _reversal_negation_invariant(n) else "different"
    report.record("reversal-negation", "equal", invariant)
    translated = alpha
    for var in range(1, n + 1):
        translated = translated.shift(var, z)
    report.record(f"translation z={z}", "equal", "equal" if alpha == translated else "different")
    return report


def check_circuit(n: int, c: int, d: int, t: int) -> VerificationReport:
    """The relation trading the t largest s-indices for extra i-indices; the
    two sides read the (n, c, d) and (n, c - t, d + t) tables."""
    if not 0 <= t <= c:
        raise ValueError("need 0 <= t <= c")
    table, traded = coefficient_table(n, c, d), coefficient_table(n, c - t, d + t)
    report = VerificationReport("circuit-relation", f"n={n}, c={c}, d={d}, t={t}")
    for s in combinations(range(1, n + 1), c):
        for i in combinations(range(1, n + 1), d):
            lhs = table[(s, i)]
            rhs = 0
            ranges = [range(s[c - 1 - l], n + 1) for l in range(t)]
            for extra in product(*ranges):
                coeff = traded[(s[: c - t], i + extra)]
                if coeff == 0:
                    continue
                sign = -1 if (sum(extra) + t * n) % 2 else 1
                weight = 1
                for l in range(1, t + 1):
                    base = s[c - l]  # s_{c+1-l}
                    weight *= comb(2 * n - c - d - base, extra[l - 1] - base)
                rhs += sign * coeff * weight
            report.record({"s": s, "i": i}, lhs, rhs)
    return report


def check_system(n: int, d: int) -> VerificationReport:
    """The n^d linear equations satisfied by the c=0 coefficients."""
    if d < 1:
        raise ValueError("need d >= 1")
    report = VerificationReport("linear-system", f"n={n}, d={d}")
    table = coefficient_table(n, 0, d)
    for i in product(range(1, n + 1), repeat=d):
        lhs = table[((), i)]
        rhs = 0
        for j in product(*[range(i[l], n + 1) for l in range(d)]):
            sign = -1 if (d * n + sum(j)) % 2 else 1
            weight = 1
            for l in range(d):
                weight *= comb(2 * n - i[l] - d, j[l] - i[l])
            rhs += sign * table[((), tuple(reversed(j)))] * weight
        report.record({"i": i}, lhs, rhs)
    return report


def check_remark_symmetry(n: int, c: int, d: int) -> VerificationReport:
    """A(n; s; i) = A(n; i; s) for strictly increasing tuples, the left side
    read from the (n, c, d) table and the right from the (n, d, c) table."""
    table, swapped = coefficient_table(n, c, d), coefficient_table(n, d, c)
    report = VerificationReport("s-i-symmetry", f"n={n}, c={c}, d={d}")
    for s in combinations(range(1, n + 1), c):
        for i in combinations(range(1, n + 1), d):
            report.record({"s": s, "i": i}, table[(s, i)], swapped[(i, s)])
    return report


def check_relation(n: int) -> VerificationReport:
    """A(n; s_1, s_2; -) as an alternating sum of A(n; s_1; i): the circuit
    relation with (c, d, t) = (2, 0, 1), reading the (n, 2, 0) and (n, 1, 1)
    tables."""
    if n < 2:
        raise ValueError("n must be at least 2")
    report = check_circuit(n, 2, 0, 1)
    report.identity, report.parameter_range = "two-row-from-doubly-refined", f"n={n}"
    return report


def gamma_formula_value(spec: GammaSpec) -> int:
    """The finite-difference side of the anchored-count identity, evaluated
    at spec.k."""
    return _difference_value(alpha_via_recursion(spec.n), spec.s, spec.i, spec.k)


def check_gamma_formula(spec: GammaSpec) -> VerificationReport:
    """Brute-force anchored partial-triangle count against the
    finite-difference formula."""
    report = VerificationReport(
        "gamma-finite-difference",
        f"n={spec.n}, k={spec.k}, s={spec.s}, i={spec.i}",
    )
    report.record(
        {"k": spec.k, "s": spec.s, "i": spec.i},
        gamma_count(spec),
        gamma_formula_value(spec),
    )
    return report
