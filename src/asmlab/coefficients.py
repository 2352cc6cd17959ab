"""Expansion coefficients of the specialized triangle-counting polynomial.

The coefficients A(n; s_1..s_c; i_1..i_d) are finite differences of the
(c, d) class polynomial: alpha_n with its middle arguments pinned to
(c+1, ..., n-d) and removed, in the c + d variables (x_1..x_c, y_1..y_d).
They are tabulated, checked against the brute-force trapezoid counts, and
run through the polynomial identities relating them: cyclic rotation,
reflection/translation, s/i symmetry, and the circuit relation, which trades
s indices for extra i indices.  The linear system is the circuit relation
with every s index traded, read on all of [1, n]^d.  The two-row relation,
from which the paper builds a_nij, is the circuit relation at (c, d, t) =
(2, 0, 1).  The s/i symmetry check of (c, d) makes the comparisons of
(d, c) with each side swapped, so one check covers the unordered {c, d}.

In the binomial basis the differences are index moves: Delta^m C(x, e) =
C(x, e - m) and nabla^m C(x, e) = C(x - m, e - m).  One difference weight
serves a single cell (one pass over the terms), a table (one basis change
per variable) and the gamma formula on alpha_n.  The re-expansion check
rebuilds the class polynomial from a table through the paper's basis
polynomials by Vandermonde's convolution, so it shares no row with the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod
from operator import index
from typing import Sequence

from .enumeration import GammaSpec, count_trapezoids, gamma_count, index_tuples
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
    """The (c, d) class polynomial, of arity c + d (module docstring): the
    (c+1, d) class with variable c+1 pinned to c+1; c + d >= n pins nothing.

    The classes of one d form one chain from alpha_n through this cache.  The
    classes above the neighbour are requested first, from alpha_n down, so
    each is a hit or one pin; while the chain fits the cache, no call nests
    deeper than one class.
    """
    if c + d >= n:
        return alpha_via_recursion(n)
    for top in range(n - d - 1, c + 1, -1):
        _specialized_alpha(n, top, d)
    return _specialized_alpha(n, c + 1, d).specialize({c + 1: c + 1})


def _difference_weights(x: int, m: int, on_i: bool, n: int) -> list[int]:
    """For e in 0..n-1: (-1)^m Delta^m C(x, e) = (-1)^m C(x, e - m) for an s
    index m + 1, or nabla^m C(x, e) = C(x - m, e - m) for an i index m + 1."""
    if on_i:
        return [binom(x - m, e - m) for e in range(n)]
    return [(-1) ** m * binom(x, e - m) for e in range(n)]


def _difference_value(poly: BinomialPoly, n: int, s: tuple[int, ...], i: tuple[int, ...], point) -> int:
    """poly differenced by s on its first c variables (s_c on the first) and
    by i on its last d, at `point`; variables between them are evaluated.
    poly is alpha_n or a class polynomial, so no exponent reaches n."""
    c, middle = len(s), poly.arity - len(s) - len(i)
    orders = [m - 1 for m in reversed(s)] + [0] * middle + [m - 1 for m in i]
    tables = [_difference_weights(x, m, v >= c + middle, n) for v, (x, m) in enumerate(zip(point, orders))]
    return poly.contract(tables)


def extract_coefficient(pair: IndexTuplePair) -> int:
    """One A(n; s; i) by finite differences of the class polynomial at
    ((c+1)^c, (n-d)^d)."""
    n, c, d = pair.n, len(pair.s), len(pair.i)
    point = (c + 1,) * c + (n - d,) * d
    return _difference_value(_specialized_alpha(n, c, d), n, pair.s, pair.i, point)


def coefficient_table(n: int, c: int, d: int) -> CoefficientTable:
    """All A(n; s; i) for (s, i) in [1,n]^c x [1,n]^d.

    The class polynomial's variable c+1-j carries s_j and is read at c + 1;
    its variable c+l carries i_l and is read at n - d.  One basis change per
    variable takes exponent e to the entry m + 1 with the difference weight
    of order m.  A grid key is then (s reversed, i).
    """
    if c < 0 or d < 0:
        raise ValueError("need c >= 0 and d >= 0")
    if c + d > n:
        raise ValueError("need c + d <= n")
    rows = {}
    for axis in range(c + d):
        x = c + 1 if axis < c else n - d
        columns = [_difference_weights(x, m, axis >= c, n) for m in range(n)]
        rows[axis + 1] = [[0, *weights] for weights in zip(*columns)].__getitem__
    grid = _specialized_alpha(n, c, d).reexpand(rows).exponent_terms()
    cells = range(1, n + 1)
    values = dict.fromkeys(product(product(cells, repeat=c), product(cells, repeat=d)), 0)
    for key, value in grid.items():
        values[key[:c][::-1], key[c:]] = value
    return CoefficientTable(n, c, d, values)


def reconstruct_expansion(table: CoefficientTable) -> VerificationReport:
    """Reassemble the class polynomial from the table and compare it term for
    term with the one the table was read from.

    Each cell weighs the paper's basis polynomials: (-1)^m C(k - c - 1, m) on
    the variable of an s index, C(k - n + d - 1 + m, m) on that of an i index,
    with m one less than the index.  Vandermonde's convolution re-expands
    them in C(k, t): (-1)^m C(k - c - 1, m) = (-1)^m sum_t C(-c - 1, m - t)
    C(k, t), and C(k - n + d - 1 + m, m) = sum_t C(m - n + d - 1, m - t) C(k, t).
    """
    n, c, d = table.n, table.c, table.d
    report = VerificationReport("expansion-reconstruction", f"n={n}, c={c}, d={d}")
    # entry j on a variable is the index m + 1
    grid = {s[::-1] + i: value for (s, i), value in table.values.items() if value}
    rows = {}
    for var in range(1, c + 1):
        rows[var] = lambda j: [(-1) ** (j - 1) * binom(-c - 1, j - 1 - t) for t in range(j)]
    for var in range(c + 1, c + d + 1):
        rows[var] = lambda j: [binom(j - n + d - 2, j - 1 - t) for t in range(j)]
    total = BinomialPoly(c + d, grid).reexpand(rows).exponent_terms()
    target = _specialized_alpha(n, c, d).exponent_terms()
    for exps in sorted(target.keys() | total.keys()):
        report.record(f"term {exps}", target.get(exps, 0), total.get(exps, 0))
    return report


def _strict_cells(n: int, c: int, d: int):
    """Every (s, i) of strictly increasing c- and d-tuples in [1, n]."""
    return product(combinations(range(1, n + 1), c), combinations(range(1, n + 1), d))


def verify_theorem7(n: int, c: int, d: int) -> VerificationReport:
    """The (n, c, d) coefficient table against brute-force trapezoid counts,
    over all strictly increasing index tuples."""
    table = coefficient_table(n, c, d)
    report = VerificationReport("coefficient-equals-trapezoid-count", f"n={n}, c={c}, d={d}")
    for s, i in _strict_cells(n, c, d):
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


def _traded_sum(table: CoefficientTable, n: int, bases: tuple, s: tuple, i: tuple) -> int:
    """The traded side of the circuit relation: the sum over extra_l in
    [bases_l, n] of (-1)^(sum(extra) + t n) prod_l C(2n - k - bases_l,
    extra_l - bases_l) table[(s, i + extra)], where t = len(bases) and
    k = len(s) + len(i) + t."""
    t, k = len(bases), len(s) + len(i) + len(bases)
    total = 0
    for extra in product(*[range(base, n + 1) for base in bases]):
        coeff = table[(s, i + extra)]
        if coeff:
            weight = prod(comb(2 * n - k - b, e - b) for b, e in zip(bases, extra))
            total += (-1) ** (sum(extra) + t * n) * weight * coeff
    return total


def check_circuit(n: int, c: int, d: int, t: int) -> VerificationReport:
    """The relation trading the t largest s-indices for extra i-indices; the
    two sides read the (n, c, d) and (n, c - t, d + t) tables."""
    if not 0 <= t <= c:
        raise ValueError("need 0 <= t <= c")
    table, traded = coefficient_table(n, c, d), coefficient_table(n, c - t, d + t)
    report = VerificationReport("circuit-relation", f"n={n}, c={c}, d={d}, t={t}")
    for s, i in _strict_cells(n, c, d):
        report.record({"s": s, "i": i}, table[(s, i)], _traded_sum(traded, n, s[::-1][:t], s[: c - t], i))
    return report


def check_system(n: int, d: int) -> VerificationReport:
    """The n^d linear equations of the c = 0 coefficients: the circuit
    relation with every s index traded, read on all of [1, n]^d."""
    if d < 1:
        raise ValueError("need d >= 1")
    report = VerificationReport("linear-system", f"n={n}, d={d}")
    table = coefficient_table(n, 0, d)
    for i in product(range(1, n + 1), repeat=d):
        report.record({"i": i}, table[((), i)], _traded_sum(table, n, i[::-1], (), ()))
    return report


def check_remark_symmetry(n: int, c: int, d: int) -> VerificationReport:
    """A(n; s; i) = A(n; i; s) for strictly increasing tuples, the left side
    read from the (n, c, d) table and the right from the (n, d, c) table,
    which is the same table when c = d.  The (n, d, c) check makes the same
    comparisons with each side swapped, so `verify` runs only c <= d."""
    table = coefficient_table(n, c, d)
    swapped = table if c == d else coefficient_table(n, d, c)
    report = VerificationReport("s-i-symmetry", f"n={n}, c={c}, d={d}")
    for s, i in _strict_cells(n, c, d):
        report.record({"s": s, "i": i}, table[(s, i)], swapped[(i, s)])
    return report


def gamma_formula_value(spec: GammaSpec) -> int:
    """The finite-difference side of the anchored-count identity, evaluated
    at spec.k."""
    return _difference_value(alpha_via_recursion(spec.n), spec.n, spec.s, spec.i, spec.k)


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
