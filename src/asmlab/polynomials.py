"""Sparse exact multivariate polynomials in two bases.

`MultiPoly` stores a polynomial in k_1, ..., k_n in the power basis
prod_v k_v^e_v as `int` numerators over one positive `int` denominator, in
lowest terms.  `BinomialPoly` stores an integer-valued polynomial in the
binomial basis prod_v C(k_v, e_v) with `int` coefficients.  In that basis the
forward difference Delta_v lowers e_v by one and the antidifference raises it
by one, so the summation calculus needs no denominator at all.

The triangle-counting polynomial alpha_n(k_1, ..., k_n) is built two
independent ways: by the summation-operator recursion in the binomial basis
(authoritative) and by applying a product of shift-operator factors to a
normalized Vandermonde product in the power basis (cross-check).  The two
compare across bases: `BinomialPoly == MultiPoly` converts to the power basis.
The Vandermonde product, the operator product and that conversion compute on
integer numerators over one known denominator, and hand both to `MultiPoly`.

Variables are 1-based throughout (k_1 is variable 1).  No zero coefficient is
ever stored.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial, wraps
from math import comb, factorial, gcd, lcm, prod
from operator import getitem, mul
from typing import Callable, Mapping, Sequence

DEFAULT_TERM_CAP = 2_000_000
TERM_CAP_ENV = "ASMLAB_TERM_CAP"

#: shift-operator product variants for `alpha_via_operator`; the factor applied
#: over all pairs p < q is, respectively,
#:   printed       : id + E_p E_q - E_q
#:   pair_minus_Ep : id + E_p E_q - E_p
#:   inverse_form  : id + E_q E_p^{-1} - E_p^{-1}
ALPHA_VARIANTS = ("printed", "pair_minus_Ep", "inverse_form")

#: variant pinned for production use, selected by term-identity with the
#: summation-operator recursion for all n <= 5 (see select_operator_variants).
PRODUCTION_ALPHA_VARIANT = "pair_minus_Ep"


class TermCapExceeded(RuntimeError):
    """Raised when a polynomial would exceed the configured term cap.

    `construction` and `n` name the build of alpha_n (or of the Vandermonde
    product) during which the cap was hit; both are None outside one.
    """

    def __init__(self, terms: int, cap: int):
        super().__init__(terms, cap)
        self.terms = terms
        self.cap = cap
        self.construction: str | None = None
        self.n: int | None = None

    def __str__(self) -> str:
        where = f"{self.construction}(n={self.n}): " if self.construction else ""
        return f"{where}{self.terms} terms exceeds cap {self.cap} (raise it with {TERM_CAP_ENV})"


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


def _check_cap(terms: int) -> None:
    cap = term_cap()
    if terms > cap:
        raise TermCapExceeded(terms, cap)


def _names_cap_hits(build, name: str | None = None):
    """Tag a TermCapExceeded raised inside build(n, ...) with `name` (by
    default the build's own name) and n; the innermost tagged build wins."""

    @wraps(build)
    def wrapper(n, *args, **kwargs):
        try:
            return build(n, *args, **kwargs)
        except TermCapExceeded as exc:
            if exc.construction is None:
                exc.construction, exc.n = name or build.__name__, n
            raise

    return wrapper


def _int_terms(arity: int, terms: Mapping[tuple[int, ...], int] | None) -> dict:
    """A checked copy of {exponent tuple: int} without zero coefficients."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    clean: dict[tuple[int, ...], int] = {}
    for exps, coef in (terms or {}).items():
        if not isinstance(coef, int):
            raise TypeError(f"expected int coefficient, got {type(coef).__name__}")
        if len(exps) != arity or min(exps, default=0) < 0:
            raise ValueError(f"exponent vector {exps} is not {arity} nonnegative integers")
        if coef:
            clean[tuple(exps)] = coef
    _check_cap(len(clean))
    return clean


class MultiPoly:
    """Polynomial (sum_e terms[e] prod_v k_v^e_v) / denominator in
    k_1..k_arity: `int` numerators over one positive `int` denominator, in
    lowest terms, so equal polynomials have equal terms and denominator."""

    __slots__ = ("arity", "terms", "denominator")

    def __init__(
        self, arity: int, terms: Mapping[tuple[int, ...], int] | None = None, denominator: int = 1
    ):
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        clean = _int_terms(arity, terms)
        common = gcd(denominator, *clean.values())
        if common > 1:
            clean = {e: c // common for e, c in clean.items()}
        self.arity = arity
        self.terms = clean
        self.denominator = denominator // common

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value: int) -> "MultiPoly":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, var: int) -> "MultiPoly":
        exps = [0] * arity
        exps[_index(var, arity)] = 1
        return cls(arity, {tuple(exps): 1})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        denominator = lcm(self.denominator, other.denominator)
        mine, theirs = denominator // self.denominator, denominator // other.denominator
        terms = {e: c * mine for e, c in self.terms.items()}
        for exps, coef in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coef * theirs
        return MultiPoly(self.arity, terms, denominator)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return self.scale(-1)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            return self.scale(other)
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return MultiPoly(self.arity, terms, self.denominator * other.denominator)

    __rmul__ = __mul__

    def scale(self, factor: int) -> "MultiPoly":
        return MultiPoly(self.arity, {e: c * factor for e, c in self.terms.items()}, self.denominator)

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(self.arity, other)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.constant(self.arity, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.arity, self.denominator, self.terms) == (other.arity, other.denominator, other.terms)

    def __repr__(self):
        return f"MultiPoly(arity={self.arity}, nterms={len(self.terms)}, denominator={self.denominator})"

    # -- substitution and evaluation ----------------------------------------

    def substitute_affine(self, var: int, target: int, offset: int) -> "MultiPoly":
        """Substitute k_var -> k_target + offset; target may equal var."""
        idx = _index(var, self.arity)
        tidx = _index(target, self.arity)
        terms: dict[tuple[int, ...], int] = {}
        for exps, coef in self.terms.items():
            e = exps[idx]
            if e == 0:
                terms[exps] = terms.get(exps, 0) + coef
                continue
            base = list(exps)
            base[idx] = 0
            # (k_target + offset)^e by the binomial theorem
            for m in range(e + 1):
                part = coef * comb(e, m) * offset ** (e - m)
                if part == 0:
                    continue
                key = list(base)
                key[tidx] += m
                key = tuple(key)
                terms[key] = terms.get(key, 0) + part
        return MultiPoly(self.arity, terms, self.denominator)

    def shift(self, var: int, h: int) -> "MultiPoly":
        """Shift operator E_var^h: substitutes k_var -> k_var + h."""
        if h == 0:
            return self
        return self.substitute_affine(var, var, h)

    def evaluate(self, values: Sequence[int]) -> int:
        """Exact value at the integer point values[v-1] = k_v; raises
        ArithmeticError when the value is not an integer."""
        if len(values) != self.arity:
            raise ValueError("assignment length does not match arity")
        total = sum(coef * prod(map(pow, values, exps)) for exps, coef in self.terms.items())
        value, rest = divmod(total, self.denominator)
        if rest:
            raise ArithmeticError(f"expected integer value, got {total}/{self.denominator}")
        return value

    evaluate_int = evaluate

    def permute_positions(self, new_position: Sequence[int]) -> "MultiPoly":
        """Move the exponent of variable v to variable new_position[v-1]."""
        if sorted(new_position) != list(range(1, self.arity + 1)):
            raise ValueError("not a permutation of 1..arity")
        terms = {}
        for exps, coef in self.terms.items():
            key = [0] * self.arity
            for i, e in enumerate(exps):
                key[new_position[i] - 1] = e
            terms[tuple(key)] = coef
        return MultiPoly(self.arity, terms, self.denominator)

    def negate_variables(self) -> "MultiPoly":
        """Substitute k_v -> -k_v for every variable."""
        return MultiPoly(
            self.arity,
            {e: c * (-1) ** (sum(e) % 2) for e, c in self.terms.items()},
            self.denominator,
        )


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


def axis_transform(terms: Mapping, axis: int, row: Callable[[int], Sequence]) -> dict:
    """Re-expand one axis of a sparse tensor {index tuple: coefficient}.

    An entry with index e on `axis` contributes coefficient * row(e)[j] to the
    entry with index j there; `row` is called once per index e.  Basis
    changes, negation, specialization and coefficient tables are one pass
    per axis.  Zero coefficients may remain.
    """
    out: dict = {}
    rows: dict = {}  # e -> the pairs ((j,), row(e)[j]) with a nonzero factor
    for key, coef in terms.items():
        e = key[axis]
        if e not in rows:
            rows[e] = [((j,), factor) for j, factor in enumerate(row(e)) if factor]
        head, tail = key[:axis], key[axis + 1 :]
        for j, factor in rows[e]:
            new = head + j + tail
            out[new] = out.get(new, 0) + coef * factor
    return out


@lru_cache(maxsize=64)
def _falling_factorial_row(e: int) -> tuple[int, ...]:
    """e! C(x, e) = x(x-1)...(x-e+1) = sum_p row[p] x^p; the row holds the
    signed Stirling numbers of the first kind s(e, p)."""
    coeffs = [1]
    for t in range(e):
        coeffs = [a - t * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


@lru_cache(maxsize=256)
def _shift_row(e: int, h: int) -> tuple[int, ...]:
    """(x + h)^e = sum_m row[m] x^m, with row[m] = C(e, m) h^(e - m)."""
    return tuple(comb(e, m) * h ** (e - m) for m in range(e + 1))


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
    k_1..k_arity, stored as {exponent tuple: int}."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.terms = _int_terms(arity, terms)
        self.arity = arity

    @classmethod
    def _of(cls, arity: int, terms: dict) -> "BinomialPoly":
        """Wrap a term dict built by a kernel of this class, dropping zeros."""
        poly = cls.__new__(cls)
        poly.arity = arity
        poly.terms = {e: c for e, c in terms.items() if c}
        _check_cap(len(poly.terms))
        return poly

    # -- conversion to the power basis ----------------------------------------

    def to_multipoly(self) -> MultiPoly:
        """The same polynomial in the power basis.  C(x, e) = (top! / e!)
        e! C(x, e) / top!: integer rows on every axis over one denominator
        top!^arity."""
        top = factorial(self.max_degree())

        def row(e: int) -> list[int]:
            weight = top // factorial(e)
            return [weight * s for s in _falling_factorial_row(e)]

        terms = self.terms
        for idx in range(self.arity):
            terms = axis_transform(terms, idx, row)
        return MultiPoly(self.arity, terms, top**self.arity)

    # -- ring operations ------------------------------------------------------

    def scale(self, factor: int) -> "BinomialPoly":
        return BinomialPoly._of(self.arity, {e: c * factor for e, c in self.terms.items()})

    # -- structure --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, BinomialPoly):
            return self.arity == other.arity and self.terms == other.terms
        if isinstance(other, MultiPoly):
            return self.to_multipoly() == other
        return NotImplemented

    def max_degree(self) -> int:
        """Largest exponent of any variable; 0 for constants and zero."""
        return max(map(max, self.terms), default=0) if self.arity else 0

    def __repr__(self):
        return f"BinomialPoly(arity={self.arity}, nterms={len(self.terms)})"

    # -- substitution and evaluation ------------------------------------------

    def substitute_affine(self, var: int, target: int, offset: int) -> "BinomialPoly":
        """Substitute k_var -> k_target + offset; target may equal var."""
        idx = _index(var, self.arity)
        tidx = _index(target, self.arity)
        terms: dict[tuple[int, ...], int] = {}
        for exps, coef in self.terms.items():
            key = list(exps)
            a = key[idx]
            key[idx] = 0
            for j, factor in _substitution_row(a, key[tidx], offset):
                key[tidx] = j
                new = tuple(key)
                terms[new] = terms.get(new, 0) + coef * factor
        return BinomialPoly._of(self.arity, terms)

    def shift(self, var: int, h: int) -> "BinomialPoly":
        """Shift operator E_var^h: substitutes k_var -> k_var + h."""
        if h == 0:
            return self
        return self.substitute_affine(var, var, h)

    def specialize(self, assignment: Mapping[int, int]) -> "BinomialPoly":
        """Substitute the given variables by integer values, keeping the arity;
        with no variable to pin it returns self."""
        if not assignment:
            return self
        terms = self.terms
        for var, value in assignment.items():
            terms = axis_transform(terms, _index(var, self.arity), lambda e, x=value: (binom(x, e),))
        return BinomialPoly._of(self.arity, terms)

    def contract(self, tables: Sequence[Sequence[int]]) -> int:
        """sum_e a_e prod_v tables[v][e_v]: the polynomial with each C(k_v, e)
        replaced by tables[v][e].  A table must cover every exponent of its
        variable."""
        return sum(coef * prod(map(getitem, tables, exps)) for exps, coef in self.terms.items())

    def evaluate(self, values: Sequence[int]) -> int:
        """Exact value at the integer point values[v-1] = k_v."""
        if len(values) != self.arity:
            raise ValueError("assignment length does not match arity")
        width = self.max_degree() + 1
        return self.contract([[binom(x, e) for e in range(width)] for x in values])

    evaluate_int = evaluate

    def permute_positions(self, new_position: Sequence[int]) -> "BinomialPoly":
        """Move the exponent of variable v to variable new_position[v-1]."""
        if sorted(new_position) != list(range(1, self.arity + 1)):
            raise ValueError("not a permutation of 1..arity")
        order = sorted(range(self.arity), key=lambda v: new_position[v])
        return BinomialPoly._of(
            self.arity, {tuple(e[v] for v in order): c for e, c in self.terms.items()}
        )

    def negate_variables(self) -> "BinomialPoly":
        """Substitute k_v -> -k_v for every variable."""
        terms = self.terms
        for idx in range(self.arity):
            terms = axis_transform(terms, idx, _negation_row)
        return BinomialPoly._of(self.arity, terms)

    def extend_arity(self, arity: int) -> "BinomialPoly":
        """Reinterpret in a larger ring; new trailing variables are unused."""
        if arity < self.arity:
            raise ValueError("cannot shrink arity")
        pad = (0,) * (arity - self.arity)
        return BinomialPoly._of(arity, {e + pad: c for e, c in self.terms.items()})


@partial(_names_cap_hits, name="vandermonde")
def _vandermonde_numerators(n: int) -> tuple[dict[tuple[int, ...], int], int]:
    """prod_{i<j} (k_j - k_i) as {exponent tuple: int}, and its normalizing
    denominator D = prod_{i<j} (j - i).  A cap hit is tagged vandermonde(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    terms = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            # times k_j - k_i: raise the exponent of k_j, or of k_i with a minus sign
            step: dict[tuple[int, ...], int] = {}
            for e, c in terms.items():
                for idx, coef in ((j, c), (i, -c)):
                    key = e[:idx] + (e[idx] + 1,) + e[idx + 1 :]
                    step[key] = step.get(key, 0) + coef
            terms = {e: c for e, c in step.items() if c}
            _check_cap(len(terms))
    return terms, prod(j - i for i in range(n) for j in range(i + 1, n))


def vandermonde(n: int) -> MultiPoly:
    """The normalized Vandermonde product over (k_j - k_i) / (j - i)."""
    return MultiPoly(n, *_vandermonde_numerators(n))


def binomial_in_var(arity: int, var: int, offset: int, m: int) -> MultiPoly:
    """C(k_var + offset, m) expanded as a polynomial: the product of the
    linear factors k_var + offset - t over t < m, over m!."""
    if m < 0:
        return MultiPoly.zero(arity)
    poly = MultiPoly.constant(arity, 1)
    x = MultiPoly.variable(arity, var)
    for t in range(m):
        poly = poly * (x + (offset - t))
    return MultiPoly(arity, poly.terms, factorial(m))


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
    """
    arity = poly.arity
    if hi < lo:
        return BinomialPoly(arity)
    if lo < 1 or hi > arity:
        raise ValueError(f"slots {lo}..{hi} out of range 1..{arity}")
    # exponents as digits base `base`: each T_h adds at most 1 to the total degree
    base = max(map(sum, poly.terms), default=0) + hi - lo + 1
    weight = [base**v for v in range(arity)]
    level = {hi: {sum(map(mul, e, weight)): c for e, c in poly.terms.items()}}
    for h in range(hi, lo, -1):
        q = {e: c for e, c in level.pop(h).items() if c}
        _check_cap(len(q))
        wx, wy = weight[h - 2], weight[h - 1]  # slots h-1 and h
        up = level.setdefault(h - 1, {})
        for e, c in q.items():
            x, y = e // wx % base, e // wy % base
            up[e + wx] = up.get(e + wx, 0) - c
            rest = e - x * wx - y * wy
            for j, factor in _substitution_row(x + 1, y, 1):
                key = rest + j * wy
                up[key] = up.get(key, 0) + c * factor
        if h - 2 >= lo:
            wx, wy = weight[h - 3], weight[h - 2]  # slots h-2 and h-1
            down = level.setdefault(h - 2, {})
            for e, c in q.items():
                x, y = e // wx % base, e // wy % base
                rest = e - x * wx - y * wy
                for j, factor in _substitution_row(x, y, 0):
                    key = rest + j * wy
                    down[key] = down.get(key, 0) - c * factor
    terms = {tuple(e // w % base for w in weight): c for e, c in level[lo].items()}
    return BinomialPoly._of(arity, terms)


def summation_operator(poly: BinomialPoly) -> BinomialPoly:
    """Lift an (n-1)-variable polynomial to n variables by the summation
    operator; applied to alpha_{n-1} this yields alpha_n."""
    n = poly.arity + 1
    if n < 2:
        raise ValueError("operand must have at least one variable slot")
    return apply_sigma(poly.extend_arity(n), 1, n)


@lru_cache(maxsize=8)
@_names_cap_hits
def alpha_via_recursion(n: int) -> BinomialPoly:
    """The monotone-triangle counting polynomial alpha_n, built recursively
    in the binomial basis."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return BinomialPoly(1, {(0,): 1})
    return summation_operator(alpha_via_recursion(n - 1))


@_names_cap_hits
def alpha_via_operator(n: int, variant: str = PRODUCTION_ALPHA_VARIANT) -> MultiPoly:
    """alpha_n from the shift-operator product applied to vandermonde(n).

    Each pair factor is id + E_outer^h (E_inner - id), applied to the
    integer numerators of vandermonde(n) over D = prod_{i<j} (j - i).  The
    factors commute, so the application order over pairs is irrelevant.
    """
    if variant not in ALPHA_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {ALPHA_VARIANTS}")
    terms, denominator = _vandermonde_numerators(n)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            outer, h, inner = {
                "printed": (q, 1, p),
                "pair_minus_Ep": (p, 1, q),
                "inverse_form": (p, -1, q),
            }[variant]
            # (x + 1)^e - x^e drops the last entry of the shift row
            diff = axis_transform(terms, inner - 1, lambda e: _shift_row(e, 1)[:-1])
            step = axis_transform(diff, outer - 1, lambda e: _shift_row(e, h))
            for e, c in terms.items():
                step[e] = step.get(e, 0) + c
            terms = {e: c for e, c in step.items() if c}
            _check_cap(len(terms))
    return MultiPoly(n, terms, denominator)


def select_operator_variants(n_max: int = 5) -> list[str]:
    """Variants that match the recursion term-identically for all n <= n_max."""
    survivors = []
    for variant in ALPHA_VARIANTS:
        if all(alpha_via_operator(n, variant) == alpha_via_recursion(n) for n in range(1, n_max + 1)):
            survivors.append(variant)
    return survivors
