"""Sparse exact multivariate polynomials in the integer binomial basis.

`BinomialPoly` stores an integer-valued polynomial in k_1, ..., k_n as
sum_e a_e prod_v C(k_v, e_v) with `int` coefficients.  In that basis the
forward difference Delta_v lowers e_v by one, a shift E_v^h re-expands
C(k_v + h, e) = sum_j C(h, e - j) C(k_v, j) by Vandermonde's convolution, and
the antidifference raises e_v by one, so the calculus needs no denominator.
The representation is unique, so two polynomials are equal exactly when their
terms are.

The triangle-counting polynomial alpha_n(k_1, ..., k_n) is built two
independent ways: by the summation-operator recursion (authoritative) and by
Fischer's operator formula, prod_{p<q} (id + E_p Delta_q) applied to the
Vandermonde product prod_{i<j} (k_j - k_i) / (j - i) = det[C(k_i, j - 1)]
(cross-check).  The two share the basis and the axis kernel, not a
construction, and compare term for term.

Variables are 1-based throughout (k_1 is variable 1).  No zero coefficient is
ever stored.

Exponent keys.  A term is keyed by its exponent vector (e_1, ..., e_n)
packed into one `int`, int.from_bytes(bytes(e), "little"): byte v-1 holds e_v,
so every exponent lies in 0..MAX_EXPONENT = 255, and key.to_bytes(n, "little")
unpacks it.  The kernels do digit arithmetic on keys: pinning k_v removes
byte v-1, a shift or a basis change on one axis adds j << 8(v-1) to the
rest of the key, and `extend_arity` keeps every key.
The constructor takes {exponent tuple: coefficient}, packs it, and rejects a
wrong length or an exponent outside 0..255 with ValueError; `exponent_terms()`
reads the terms back as tuples.  The encoding stays inside this module.

The carry guard: an exponent above 255 would carry into its neighbour's byte.
So every kernel that raises exponents (`apply_sigma` and a re-expansion row
past index 255) first checks the bound from a degree it already knows and
raises ValueError; it never wraps silently.  A shift is a re-expansion whose
row for exponent e ends at index e, and a difference lowers an exponent, so
neither raises one.

The order check.  alpha_n has degree at most n - 1 in each variable, so it
fits the n^n exponent grid, and whether an order may be built is known before
any work.  `check_order` makes that whole decision once, before a build of
alpha_n or of the Vandermonde product starts: n >= 1, exponents up to n - 1
within 255, and the build's size bound (n^n, or n! terms for the Vandermonde
product) within the term cap ASMLAB_TERM_CAP.  No kernel reads the cap, so a
polynomial a caller builds or transforms directly is not capped.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from itertools import combinations, permutations
from math import comb, factorial, prod
from operator import getitem, itemgetter
from typing import Callable, Mapping, Sequence

#: largest exponent of one variable: each exponent is one byte of its key
MAX_EXPONENT = 255

DEFAULT_TERM_CAP = 2_000_000
TERM_CAP_ENV = "ASMLAB_TERM_CAP"


class TermCapExceeded(RuntimeError):
    """Raised by `check_order` when the build `construction` of order n
    could reach `terms` terms, more than the term cap `cap`."""

    def __init__(self, construction: str, n: int, terms: int, cap: int):
        super().__init__(construction, n, terms, cap)
        self.construction, self.n, self.terms, self.cap = construction, n, terms, cap

    def __str__(self) -> str:
        return (
            f"{self.construction}(n={self.n}) may need up to {self.terms} terms, above the cap"
            f" {self.cap} (raise it with {TERM_CAP_ENV})"
        )


def term_cap() -> int:
    """Maximum number of stored terms, overridable via ASMLAB_TERM_CAP.

    Raises ValueError unless the variable, when set, is a positive integer.
    """
    raw = os.environ.get(TERM_CAP_ENV)
    if not raw:
        return DEFAULT_TERM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{TERM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


def check_order(
    n: int, construction: str = "alpha_via_recursion", size: Callable[[int], int] = lambda n: n**n
) -> None:
    """Refuse order n of `construction` before it is built (module docstring):
    n < 1 or an exponent n - 1 past MAX_EXPONENT raises ValueError before
    size(n) is computed, and more than the term cap of size(n) terms raises
    TermCapExceeded.  The default size is alpha_n's n^n exponent grid."""
    if n < 1:
        raise ValueError("n must be positive")
    _raised_past_limit(n - 1, f"{construction}({n})")
    terms, cap = size(n), term_cap()
    if terms > cap:
        raise TermCapExceeded(construction, n, terms, cap)


def _packed_terms(arity: int, terms: Mapping[tuple[int, ...], int] | None) -> dict[int, int]:
    """A checked copy of {exponent tuple: int} keyed by packed exponents,
    without zero coefficients."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    clean: dict[int, int] = {}
    for exps, coef in (terms or {}).items():
        if not isinstance(coef, int):
            raise TypeError(f"expected int coefficient, got {type(coef).__name__}")
        if len(exps) != arity or min(exps, default=0) < 0:
            raise ValueError(f"exponent vector {exps} is not {arity} nonnegative integers")
        if max(exps, default=0) > MAX_EXPONENT:
            raise ValueError(f"exponent vector {exps} has an exponent above {MAX_EXPONENT}")
        if coef:
            clean[int.from_bytes(bytes(exps), "little")] = coef
    return clean


def _raised_past_limit(top: int, what: str) -> None:
    """The carry guard: refuse a kernel that could raise an exponent to `top`."""
    if top > MAX_EXPONENT:
        raise ValueError(f"{what} could raise an exponent to {top}, above {MAX_EXPONENT}")


def axis_transform(terms: Mapping[int, int], axis: int, row: Callable[[int], Sequence[int]]) -> dict:
    """Re-expand one axis of a sparse tensor {packed index key: coefficient}.

    An entry with index e on `axis` (0-based: byte `axis` of the key)
    contributes coefficient * row(e)[j] to the entry with index j there;
    `row` is called once per index e.  Basis changes, negation and
    coefficient tables are one pass per axis.  Zero coefficients may remain.
    A row with a nonzero entry past index 255 raises ValueError.
    """
    shift = 8 * axis
    out: dict[int, int] = {}
    moves: dict[int, list[tuple[int, int]]] = {}  # e -> (j << shift, row(e)[j]) for nonzero factors
    for key, coef in terms.items():
        e = (key >> shift) & 255
        steps = moves.get(e)
        if steps is None:
            pairs = [(j, factor) for j, factor in enumerate(row(e)) if factor]
            _raised_past_limit(max((j for j, _ in pairs), default=0), "a re-expansion row")
            steps = moves[e] = [(j << shift, factor) for j, factor in pairs]
        rest = key - (e << shift)
        for step, factor in steps:
            new = rest + step
            out[new] = out.get(new, 0) + coef * factor
    return out


def _pin(terms: Mapping[int, int], axis: int, table) -> dict[int, int]:
    """Each term times table[e], e its exponent on `axis`, whose byte it removes."""
    shift, above = 8 * axis, 8 * axis + 8
    mask = (1 << shift) - 1
    out: dict[int, int] = {}
    for key, coef in terms.items():
        new = (key & mask) | (key >> above << shift)
        out[new] = out.get(new, 0) + coef * table[(key >> shift) & 255]
    return out


def _contract(terms: Mapping[int, int], tables: Sequence) -> int:
    """sum_e terms[e] prod_v tables[v][e_v] over packed keys of arity
    len(tables).

    Each pass pins the upper half of the remaining variables at once: the
    key's top digits are one group, whose product of table entries is taken
    once per distinct group, and the terms sum into a dict keyed by the
    lower digits.  alpha_7's 222,642 terms fall to 315 after one pass.
    """
    arity = len(tables)
    while arity:
        low = arity // 2
        shift = 8 * low
        mask = (1 << shift) - 1
        group, width = tables[low:arity], arity - low
        products: dict[int, int] = {}
        out: dict[int, int] = {}
        for key, coef in terms.items():
            high = key >> shift
            f = products.get(high)
            if f is None:
                f = products[high] = prod(map(getitem, group, high.to_bytes(width, "little")))
            rest = key & mask
            out[rest] = out.get(rest, 0) + coef * f
        terms, arity = out, low
    return terms.get(0, 0)


class _LazyRow(dict):
    """A table whose entry e is value(e), computed on first use, for kernels
    that do not know the largest exponent ahead of a pass."""

    def __init__(self, value: Callable[[int], int]):
        super().__init__()
        self.value = value

    def __missing__(self, e: int) -> int:
        self[e] = entry = self.value(e)
        return entry


def _index(var: int, arity: int) -> int:
    if not 1 <= var <= arity:
        raise ValueError(f"variable {var} out of range 1..{arity}")
    return var - 1


def binom(x: int, e: int) -> int:
    """C(x, e) = x(x-1)...(x-e+1) / e! for any integer x; 0 for e < 0."""
    if e < 0:
        return 0
    if x >= 0:
        return comb(x, e)
    value = comb(e - x - 1, e)  # C(-y, e) = (-1)^e C(y + e - 1, e)
    return -value if e % 2 else value


def _difference_row(e: int) -> list[int]:
    """Delta C(x, e) = C(x, e - 1): entry e - 1 is 1; Delta C(x, 0) = 0."""
    return [0] * (e - 1) + [1] if e else []


def _translation_row(e: int, h: int) -> list[int]:
    """C(x + h, e) = sum_j row[j] C(x, j), row[j] = C(h, e - j), by Vandermonde."""
    return [binom(h, e - j) for j in range(e + 1)]


@lru_cache(maxsize=64)
def _negation_row(e: int) -> tuple[int, ...]:
    """C(-x, e) = (-1)^e C(x + e - 1, e) = sum_j row[j] C(x, j), by Vandermonde."""
    sign = -1 if e % 2 else 1
    return tuple(sign * binom(e - 1, e - j) for j in range(e + 1))


@lru_cache(maxsize=4096)
def _substitution_row(a: int, b: int, h: int) -> tuple[tuple[int, int], ...]:
    """C(y + h, a) C(y, b) = sum_j coef_j C(y, j), as ((j, coef_j), ...).

    Vandermonde's convolution gives C(y + h, a) = sum_m C(h, a - m) C(y, m),
    and C(y, m) C(y, b) = sum_j C(j, m) C(m, j - b) C(y, j).
    """
    row: dict[int, int] = {}
    for m in range(a + 1):
        factor = binom(h, a - m)
        if factor:
            for j in range(max(m, b), m + b + 1):
                row[j] = row.get(j, 0) + factor * comb(j, m) * comb(m, j - b)
    return tuple((j, c) for j, c in sorted(row.items()) if c)


class BinomialPoly:
    """Integer-valued polynomial sum_e a_e prod_v C(k_v, e_v) in
    k_1..k_arity, stored as {packed exponent key: int} (see the module
    docstring)."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.terms = _packed_terms(arity, terms)
        self.arity = arity

    @classmethod
    def _of(cls, arity: int, terms: dict[int, int]) -> "BinomialPoly":
        """Wrap a packed term dict built by a kernel of this module, dropping zeros."""
        poly = cls.__new__(cls)
        poly.arity = arity
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    def exponent_terms(self) -> dict[tuple[int, ...], int]:
        """The coefficients as {exponent tuple: int}."""
        arity = self.arity
        return {tuple(key.to_bytes(arity, "little")): coef for key, coef in self.terms.items()}

    # -- ring operations ------------------------------------------------------

    def scale(self, factor: int) -> "BinomialPoly":
        return BinomialPoly._of(self.arity, {e: c * factor for e, c in self.terms.items()})

    # -- structure --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinomialPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def max_degree(self) -> int:
        """Largest exponent of any variable; 0 for constants and zero."""
        return max(b"".join(key.to_bytes(self.arity, "little") for key in self.terms), default=0)

    def __repr__(self):
        return f"BinomialPoly(arity={self.arity}, nterms={len(self.terms)})"

    # -- changes of variable and evaluation -----------------------------------

    def shift(self, var: int, h: int) -> "BinomialPoly":
        """Shift operator E_var^h: substitutes k_var -> k_var + h, re-expanding
        C(k_var + h, e) = sum_j C(h, e - j) C(k_var, j) by Vandermonde."""
        if h == 0:
            return self
        return self.reexpand({var: partial(_translation_row, h=h)})

    def specialize(self, assignment: Mapping[int, int]) -> "BinomialPoly":
        """Substitute the given variables by integer values and remove them,
        the others keeping their order; with no variable to pin, self."""
        if not assignment:
            return self
        terms = self.terms
        for var in sorted(assignment, reverse=True):  # the highest first keeps lower indices
            terms = _pin(terms, _index(var, self.arity), _LazyRow(partial(binom, assignment[var])))
        return BinomialPoly._of(self.arity - len(assignment), terms)

    def contract(self, tables: Sequence[Sequence[int]]) -> int:
        """sum_e a_e prod_v tables[v][e_v]: the polynomial with each C(k_v, e)
        replaced by tables[v][e].  A table must cover every exponent of its
        variable."""
        if len(tables) != self.arity:
            raise ValueError("one table per variable is needed")
        return _contract(self.terms, tables)

    def evaluate(self, values: Sequence[int]) -> int:
        """Exact value at the integer point values[v-1] = k_v."""
        if len(values) != self.arity:
            raise ValueError("assignment length does not match arity")
        return _contract(self.terms, [_LazyRow(partial(binom, x)) for x in values])

    def permute_positions(self, new_position: Sequence[int]) -> "BinomialPoly":
        """Move the exponent of variable v to variable new_position[v-1]."""
        arity = self.arity
        if sorted(new_position) != list(range(1, arity + 1)):
            raise ValueError("not a permutation of 1..arity")
        if arity < 2:
            return self
        pick = itemgetter(*sorted(range(arity), key=lambda v: new_position[v]))
        return BinomialPoly._of(
            arity,
            {
                int.from_bytes(bytes(pick(key.to_bytes(arity, "little"))), "little"): coef
                for key, coef in self.terms.items()
            },
        )

    def negate_variables(self) -> "BinomialPoly":
        """Substitute k_v -> -k_v for every variable."""
        return self.reexpand(dict.fromkeys(range(1, self.arity + 1), _negation_row))

    def reexpand(self, rows: Mapping[int, Callable[[int], Sequence[int]]]) -> "BinomialPoly":
        """Re-expand the coefficients on each variable v of `rows`: a term
        with exponent e on v moves to exponent j with factor rows[v](e)[j]."""
        terms = self.terms
        for var, row in rows.items():
            terms = axis_transform(terms, _index(var, self.arity), row)
        return BinomialPoly._of(self.arity, terms)

    def extend_arity(self, arity: int) -> "BinomialPoly":
        """Reinterpret in a larger ring; new trailing variables are unused, so
        every key stays as it is."""
        if arity < self.arity:
            raise ValueError("cannot shrink arity")
        return BinomialPoly._of(arity, self.terms)


def vandermonde(n: int) -> BinomialPoly:
    """The normalized Vandermonde product prod_{i<j} (k_j - k_i) / (j - i).

    It is det[C(k_i, j - 1)]: column operations reduce column j to
    k_i^(j-1) / (j-1)!, and prod_j (j-1)! = prod_{i<j} (j - i).  So it has one
    term per permutation sigma of 0..n-1, C(k_1, sigma_1) ... C(k_n, sigma_n)
    with the sign of sigma.  `check_order` holds its n! terms against the
    term cap before any permutation is enumerated.
    """
    check_order(n, "vandermonde", factorial)
    terms = {}
    for sigma in permutations(range(n)):
        inversions = sum(a > b for a, b in combinations(sigma, 2))
        terms[int.from_bytes(bytes(sigma), "little")] = -1 if inversions % 2 else 1
    return BinomialPoly._of(n, terms)


def apply_sigma(poly: BinomialPoly, lo: int, hi: int) -> BinomialPoly:
    """Summation operator over variable slots lo..hi.

    The operand sums over slots lo..hi-1 and leaves slot hi unused.  Where
    k_lo < ... < k_hi the result is its sum over the strictly increasing rows
    l with k_j <= l_j <= k_{j+1} in slots lo..hi-1, other slots held fixed.

    With S_h the operator over slots lo..h, S_lo = id and S_{lo-1} = 0,
        S_h q = S_{h-1}(T_h q) - S_{h-2}(C_h q),
    where T_h sums slot h-1 from k_{h-1} to k_h (C(k_{h-1}, e) raised to
    C(k_{h-1}, e + 1), at k_{h-1} = k_h + 1 minus the raised term) and C_h
    pins slot h-2 to slot h-1, removing the rows with l_{h-2} = l_{h-1}.  S is
    linear, so one pending term dict per level suffices: for h = hi down to
    lo + 1, pop level h and add T_h of it into level h-1 and -C_h of it into
    level h-2.  Level lo is the result.

    Every level is keyed by the operand's packed exponent keys.  T_h and C_h
    read the two adjacent bytes of slots h-1 and h (or h-2 and h-1) of a key
    as one 16-bit digit pair and add the new exponents back as digits.  Each
    T_h raises the total degree by at most one, so no exponent of the result
    exceeds the operand's total degree plus hi - lo; past 255 that raises
    ValueError before any term is built.
    """
    arity = poly.arity
    if hi < lo:
        return BinomialPoly(arity)
    if lo < 1 or hi > arity:
        raise ValueError(f"slots {lo}..{hi} out of range 1..{arity}")
    degree = max((sum(e.to_bytes(arity, "little")) for e in poly.terms), default=0)
    _raised_past_limit(degree + hi - lo, f"summing over slots {lo}..{hi}")
    level = {hi: poly.terms}
    for h in range(hi, lo, -1):
        q = {e: c for e, c in level.pop(h).items() if c}
        _sigma_step(q, level.setdefault(h - 1, {}), 8 * (h - 2), True)
        if h - 2 >= lo:
            _sigma_step(q, level.setdefault(h - 2, {}), 8 * (h - 3), False)
    return BinomialPoly._of(arity, level[lo])


def _sigma_step(q: Mapping[int, int], out: dict[int, int], shift: int, summed: bool) -> None:
    """Add T q (summed) or -C q (not summed) into out, where x and y are the
    slots of bytes shift/8 and shift/8 + 1 of each key.

    T takes C(k_x, a) C(k_y, b) to C(k_y + 1, a + 1) C(k_y, b), re-expanded
    in C(k_y, j), minus C(k_x, a + 1) C(k_y, b).  -C takes it to
    -C(k_y, a) C(k_y, b), re-expanded in C(k_y, j).
    """
    moves: dict[int, list[tuple[int, int]]] = {}  # digit pair a + 256 b -> (key step, factor)
    for e, c in q.items():
        pair = (e >> shift) & 0xFFFF
        steps = moves.get(pair)
        if steps is None:
            a, b = pair & 255, pair >> 8
            if summed:
                row = _substitution_row(a + 1, b, 1)
                steps = [(j << (shift + 8), factor) for j, factor in row] + [((pair + 1) << shift, -1)]
            else:
                steps = [(j << (shift + 8), -factor) for j, factor in _substitution_row(a, b, 0)]
            moves[pair] = steps
        rest = e - (pair << shift)
        for step, factor in steps:
            key = rest + step
            out[key] = out.get(key, 0) + c * factor


def summation_operator(poly: BinomialPoly) -> BinomialPoly:
    """Lift an (n-1)-variable polynomial to n variables by the summation
    operator; applied to alpha_{n-1} this yields alpha_n."""
    n = poly.arity + 1
    if n < 2:
        raise ValueError("operand must have at least one variable slot")
    return apply_sigma(poly.extend_arity(n), 1, n)


@lru_cache(maxsize=8)
def alpha_via_recursion(n: int) -> BinomialPoly:
    """The monotone-triangle counting polynomial alpha_n in the binomial
    basis, by the summation-operator recursion.  `check_order(n)` refuses an
    order too large before any lower order is requested.  The pending levels
    of `apply_sigma` reach exponent 2n - 3, outside the n^n grid, but for
    n <= 8 none holds more terms than alpha_n.  The lower orders are
    requested upward only to bound the recursion depth: each is a hit or one
    summation step, and while they fit the cache no call nests deeper than
    one order."""
    check_order(n)
    if n == 1:
        return BinomialPoly(1, {(0,): 1})
    for m in range(2, n - 1):
        alpha_via_recursion(m)
    return summation_operator(alpha_via_recursion(n - 1))


def alpha_via_operator(n: int) -> BinomialPoly:
    """alpha_n from Fischer's operator formula applied to vandermonde(n).

    Each pair factor p < q is id + E_p Delta_q: one pass lowers axis q by
    the difference row, one re-expands axis p by the h = 1 shift row, and
    the operand is added back.  The factors commute, so the application
    order over pairs is irrelevant.  No pass raises an exponent, so every
    intermediate fits the n^n grid that `check_order` holds against the cap.
    """
    check_order(n, "alpha_via_operator")
    terms = vandermonde(n).terms
    for p, q in combinations(range(n), 2):  # 0-based axes
        diff = axis_transform(terms, q, _difference_row)
        step = axis_transform(diff, p, partial(_translation_row, h=1))
        for e, c in terms.items():
            step[e] = step.get(e, 0) + c
        terms = {e: c for e, c in step.items() if c}
    return BinomialPoly._of(n, terms)
