"""Monotone triangles, trapezoids, (partial) alternating sign matrices.

Rows of triangles and trapezoids are stored bottom-up: rows[0] is the bottom
(longest) row.  Matrices are stored top-down as usual.  All objects are
immutable after construction; `validate` returns a verdict instead of raising
so that enumerators can use it as a filter.  Since an object cannot change,
its verdict is computed once and kept on the instance, outside the dataclass
fields, so equality, hashing and repr do not see it.  A triangle handed to a
bijection and then to each symmetry map is checked once.

The public constructors take outside input (user, JSON and test data) and
convert every integer with `operator.index`, so a float or a numeric string
raises TypeError instead of being truncated.  The bijections and symmetry
maps build their images as tuples of int tuples themselves and hand them to
`_built`, which sets the fields without a second conversion;
`enumeration.enumerate_triangles` builds its triangles the same way.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress
from operator import index, ne, sub
from typing import Sequence


@dataclass(frozen=True)
class Verdict:
    """Validation result; `reason` names the first violated invariant."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_VALID = Verdict(True)


def _freeze_rows(rows) -> tuple[tuple[int, ...], ...]:
    return tuple([tuple(map(index, row)) for row in rows])


def _built(cls, *values):
    """An instance of the dataclass `cls` whose fields, every one in
    declaration order, are `values` as given: kernel output, already ints
    and tuples of int tuples, so the constructor's conversion is skipped."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


@dataclass(frozen=True)
class MonotoneTriangle:
    """Triangular integer array, rows bottom-up with lengths n, n-1, ..., 1."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Sequence[Sequence[int]]):
        object.__setattr__(self, "rows", _freeze_rows(rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, r: int, j: int) -> int:
        """a_{r,j} with r the 1-based row from the bottom and j in r..n."""
        return self.rows[r - 1][j - r]

    def is_complete(self) -> bool:
        return bool(self.rows) and self.rows[0] == tuple(range(1, self.n + 1))

    def se_diagonal(self, l: int) -> tuple[int, ...]:
        """The l-th SE-diagonal (a_{l,l}, a_{l-1,l}, ..., a_{1,l})."""
        return tuple(self.rows[r - 1][l - r] for r in range(l, 0, -1))

    def ne_diagonal(self, l: int) -> tuple[int, ...]:
        """The l-th NE-diagonal (a_{1,l}, a_{2,l+1}, ..., a_{n-l+1,n})."""
        return tuple(row[l - 1] for row in self.rows[: self.n - l + 1])

    def to_json_obj(self) -> dict:
        return {
            "kind": "monotone_triangle",
            "n": self.n,
            "rows_bottom_up": [list(row) for row in self.rows],
        }


@dataclass(frozen=True)
class MonotoneTrapezoid:
    """Bottom-up rows of lengths m, m-1, ..., d; a (1,m)-trapezoid is a triangle."""

    d: int
    m: int
    rows: tuple[tuple[int, ...], ...]
    ambient_n: int | None = field(default=None, compare=False)

    def __init__(self, d, m, rows, ambient_n=None):
        object.__setattr__(self, "d", index(d))
        object.__setattr__(self, "m", index(m))
        object.__setattr__(self, "rows", _freeze_rows(rows))
        object.__setattr__(self, "ambient_n", None if ambient_n is None else index(ambient_n))

    def to_json_obj(self) -> dict:
        obj = {
            "kind": "monotone_trapezoid",
            "d": self.d,
            "m": self.m,
            "rows_bottom_up": [list(row) for row in self.rows],
        }
        if self.ambient_n is not None:
            obj["ambient_n"] = self.ambient_n
        return obj


@dataclass(frozen=True)
class Asm:
    """Square matrix over {-1, 0, 1} with alternating nonzero entries."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Sequence[Sequence[int]]):
        object.__setattr__(self, "entries", _freeze_rows(entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    def to_json_obj(self) -> dict:
        return {"kind": "asm", "n": self.n, "rows": [list(r) for r in self.entries]}


@dataclass(frozen=True)
class PartialAsm:
    """t x n matrix with ASM row constraints; column sums unconstrained."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, entries: Sequence[Sequence[int]]):
        object.__setattr__(self, "n", index(n))
        object.__setattr__(self, "entries", _freeze_rows(entries))

    @property
    def t(self) -> int:
        return len(self.entries)

    def to_json_obj(self) -> dict:
        return {
            "kind": "partial_asm",
            "t": self.t,
            "n": self.n,
            "rows": [list(r) for r in self.entries],
        }


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

_ZERO_ONE = frozenset((0, 1))


def _validate_interlacing_rows(rows, m) -> Verdict:
    """Bottom-up rows of lengths m, m-1, ..., each strictly increasing and
    interlacing the row below it."""
    for r, row in enumerate(rows, start=1):
        if len(row) != m - r + 1:
            return Verdict(False, f"row {r} has length {len(row)}, expected {m - r + 1}")
    for r, row in enumerate(rows, start=1):
        for t in range(len(row) - 1):
            if not row[t] < row[t + 1]:
                return Verdict(False, f"row {r} not strictly increasing at position {t + 1}")
    for r in range(len(rows) - 1):
        low, high = rows[r], rows[r + 1]
        for t in range(len(high)):
            if not low[t] <= high[t]:
                return Verdict(False, f"interlacing violated between rows {r + 1},{r + 2} at position {t + 1} (lower bound)")
            if not high[t] <= low[t + 1]:
                return Verdict(False, f"interlacing violated between rows {r + 1},{r + 2} at position {t + 1} (upper bound)")
    return _VALID


def _first_bad_line(lines, name: str, n: int) -> str | None:
    """The first of `lines` (rows or columns, called `name`) that is not an
    ASM row of length n: entries in {-1, 0, 1}, prefix sums in {0, 1}, sum 1."""
    for i, line in enumerate(lines, start=1):
        if len(line) != n:
            return f"{name} {i} has length {len(line)}, expected {n}"
        # prefix sums in {0, 1} make every entry a difference in {-1, 0, 1}
        if _ZERO_ONE.issuperset(accumulate(line)) and sum(line) == 1:
            continue
        prefix = 0
        for x in line:
            if x not in (-1, 0, 1):
                return f"{name} {i}: entry {x} not in {{-1,0,1}}"
            prefix += x
            if prefix not in (0, 1):
                return f"{name} {i}: prefix sum {prefix} outside {{0,1}}"
        return f"{name} {i}: row sum {prefix} != 1"
    return None


#: instance attribute that holds the verdict of `validate`
_VERDICT = "_verdict"


def validate(obj) -> Verdict:
    """Check all type invariants; names the first violation on rejection.
    The first verdict on an object is kept on it and returned after that."""
    verdict = getattr(obj, "__dict__", {}).get(_VERDICT)
    if verdict is None:
        verdict = _check(obj)
        obj.__dict__[_VERDICT] = verdict
    return verdict


def _check(obj) -> Verdict:
    """The verdict of `validate`, computed afresh."""
    if isinstance(obj, MonotoneTriangle):
        if not obj.rows:
            return Verdict(False, "triangle has no rows")
        return _validate_interlacing_rows(obj.rows, obj.n)
    if isinstance(obj, MonotoneTrapezoid):
        if not 1 <= obj.d <= obj.m:
            return Verdict(False, f"need 1 <= d <= m, got d={obj.d}, m={obj.m}")
        expected = obj.m - obj.d + 1
        if len(obj.rows) != expected:
            return Verdict(False, f"expected {expected} rows, got {len(obj.rows)}")
        return _validate_interlacing_rows(obj.rows, obj.m)
    if isinstance(obj, Asm):
        if not obj.entries:
            return Verdict(False, "matrix is empty")
        problem = _first_bad_line(obj.entries, "row", obj.n)
        problem = problem or _first_bad_line(zip(*obj.entries), "column", obj.n)
        return Verdict(False, problem) if problem else _VALID
    if isinstance(obj, PartialAsm):
        problem = _first_bad_line(obj.entries, "row", obj.n)
        if problem:
            return Verdict(False, problem)
        for j, col in enumerate(zip(*obj.entries), start=1):
            signs = [x for x in col if x]
            if not all(map(ne, signs, signs[1:])):
                return Verdict(False, f"column {j}: nonzero entries do not alternate")
        return _VALID
    raise TypeError(f"cannot validate {type(obj).__name__}")


# ---------------------------------------------------------------------------
# bijections
# ---------------------------------------------------------------------------


def _require_valid(obj, name: str) -> None:
    verdict = validate(obj)
    if not verdict:
        raise ValueError(f"invalid {name}: {verdict.reason}")


def _require_complete(triangle: MonotoneTriangle, message: str) -> int:
    """The order of a valid triangle whose bottom row is 1..n; ValueError
    with `message` if it is valid but not complete."""
    _require_valid(triangle, "triangle")
    bottom = triangle.rows[0]
    # a valid bottom row increases strictly, so its two ends pin all of it
    if not (bottom[0] == 1 and bottom[-1] == len(bottom)):
        raise ValueError(message)
    return len(bottom)


def _row_differences(rows, n: int, upper: Sequence[int] = ()) -> tuple[tuple[int, ...], ...]:
    """Top-down matrix rows: the indicator of each bottom-up row minus that
    of the row above it, the topmost row taken against `upper`.  A triangle
    is the (1, n)-trapezoid over an empty row, its ASM that partial ASM."""
    matrix = []
    for lower in reversed(rows):
        row = [0] * n
        for x in lower:
            row[x - 1] = 1
        for x in upper:
            row[x - 1] -= 1
        matrix.append(tuple(row))
        upper = lower
    return tuple(matrix)


def _supports(bottom: tuple[int, ...], entries, n: int) -> tuple[tuple[int, ...], ...]:
    """Bottom-up rows: `bottom`, then the support of its indicator after
    subtracting each matrix row from the last one up, which must leave 0/1."""
    indicator = [0] * n
    for x in bottom:
        indicator[x - 1] = 1
    columns = range(1, n + 1)
    rows = [bottom]
    for row in reversed(entries):
        indicator = list(map(sub, indicator, row))
        if not _ZERO_ONE.issuperset(indicator):
            raise ValueError("reconstruction produced a non-0/1 indicator")
        rows.append(tuple(compress(columns, indicator)))
    return tuple(rows)


def triangle_to_asm(triangle: MonotoneTriangle) -> Asm:
    """Row i of the matrix is the indicator difference of the triangle rows
    with n+1-i and n+2-i entries (counted from the bottom)."""
    n = _require_complete(triangle, "triangle is not complete")
    return _built(Asm, _row_differences(triangle.rows, n))


def asm_to_triangle(matrix: Asm) -> MonotoneTriangle:
    """Triangle row r is the support of the column partial sums of the first
    n+1-r matrix rows."""
    _require_valid(matrix, "alternating sign matrix")
    n = matrix.n
    return _built(MonotoneTriangle, _supports(tuple(range(1, n + 1)), matrix.entries[1:], n))


def trapezoid_to_partial_asm(trapezoid: MonotoneTrapezoid, n: int) -> PartialAsm:
    """Indicator differences of consecutive rows, top-down; yields the
    (m-d, n)-partial alternating sign matrix of the trapezoid."""
    _require_valid(trapezoid, "trapezoid")
    n = index(n)
    rows = trapezoid.rows
    # interlacing keeps every row inside the range of the bottom row
    if not 1 <= rows[0][0] <= rows[0][-1] <= n:
        raise ValueError(f"bottom row {rows[0]} has entries outside [1, {n}]")
    return _built(PartialAsm, n, _row_differences(rows[:-1], n, rows[-1]))


def partial_asm_to_trapezoid(matrix: PartialAsm, bottom: Sequence[int]) -> MonotoneTrapezoid:
    """Inverse of trapezoid_to_partial_asm for the given bottom row."""
    _require_valid(matrix, "partial alternating sign matrix")
    bottom = tuple(map(index, bottom))
    if any(b >= a for a, b in zip(bottom[1:], bottom)):
        raise ValueError("bottom row must be strictly increasing")
    if matrix.t >= len(bottom):
        raise ValueError(f"a partial ASM of {matrix.t} rows needs a bottom row longer than {matrix.t}")
    n = matrix.n
    if not 1 <= bottom[0] <= bottom[-1] <= n:
        raise ValueError(f"bottom row {bottom} has entries outside [1, {n}]")
    rows_bottom_up = _supports(bottom, matrix.entries, n)
    return _built(MonotoneTrapezoid, len(rows_bottom_up[-1]), len(bottom), rows_bottom_up, n)


# ---------------------------------------------------------------------------
# symmetry maps on complete triangles
# ---------------------------------------------------------------------------


_MAP_DOMAIN = "map is defined on complete triangles only"


def reflect_antidiagonal(triangle: MonotoneTriangle) -> MonotoneTriangle:
    """AD: b_{i,j} = #{x in the j-th SE-diagonal with x >= i}; corresponds to
    reflecting the matrix along the antidiagonal."""
    n = _require_complete(triangle, _MAP_DOMAIN)
    # the l-th SE-diagonal (a_{l,l}, ..., a_{1,l}); interlacing makes every
    # SE-diagonal weakly increasing
    rows = triangle.rows
    diagonals = [[rows[r][l - r] for r in range(l, -1, -1)] for l in range(n)]
    images = tuple(
        tuple([len(d) - bisect_left(d, i) for d in diagonals[i - 1 :]]) for i in range(1, n + 1)
    )
    return _built(MonotoneTriangle, images)


def rotate_90(triangle: MonotoneTriangle) -> MonotoneTriangle:
    """R: c_{i,j} = #{x in the (n+1-j)-th NE-diagonal with x <= n+1-i};
    corresponds to rotating the matrix clockwise by 90 degrees."""
    n = _require_complete(triangle, _MAP_DOMAIN)
    # the l-th NE-diagonal (a_{1,l}, ..., a_{n-l+1,n}) is entry l of every
    # row that long; interlacing makes every NE-diagonal weakly increasing
    rows = triangle.rows
    diagonals = [[row[l] for row in rows[: n - l]] for l in range(n)]
    images = tuple(
        tuple([bisect_right(d, top) for d in reversed(diagonals[:top])]) for top in range(n, 0, -1)
    )
    return _built(MonotoneTriangle, images)


def reflect_horizontal(triangle: MonotoneTriangle) -> MonotoneTriangle:
    """H: row r of the image (r >= 2) is the complement in {1..n} of row
    n+2-r of the input; corresponds to reflecting the matrix along the
    horizontal symmetry axis."""
    n = _require_complete(triangle, _MAP_DOMAIN)
    universe = set(range(1, n + 1))
    rows = [tuple(range(1, n + 1))]
    for row in triangle.rows[:0:-1]:
        rows.append(tuple(sorted(universe - set(row))))
    return _built(MonotoneTriangle, tuple(rows))


# matrix-level counterparts, used to check that the triangle maps conjugate
# correctly through the standard bijection; they read square matrices


def asm_reflect_antidiagonal(matrix: Asm) -> Asm:
    # row i is column n-1-i read from the bottom up
    return _built(Asm, tuple(zip(*reversed(matrix.entries)))[::-1])


def asm_rotate_90(matrix: Asm) -> Asm:
    # row i is column i read from the bottom up
    return _built(Asm, tuple(zip(*reversed(matrix.entries))))


def asm_reflect_horizontal(matrix: Asm) -> Asm:
    return _built(Asm, matrix.entries[::-1])


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------

def _int_field(obj: dict, key: str, optional: bool = False) -> int | None:
    value = obj.get(key)
    if value is None and optional:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"field {key!r} must be an integer, got {type(value).__name__}")
    return value


def _rows_field(obj: dict, key: str) -> list:
    rows = obj.get(key)
    if not isinstance(rows, list) or not all(
        isinstance(row, list)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        for row in rows
    ):
        raise ValueError(f"field {key!r} must be a list of lists of integers")
    return rows


_KINDS = {
    "monotone_triangle": lambda obj: MonotoneTriangle(_rows_field(obj, "rows_bottom_up")),
    "monotone_trapezoid": lambda obj: MonotoneTrapezoid(
        _int_field(obj, "d"),
        _int_field(obj, "m"),
        _rows_field(obj, "rows_bottom_up"),
        _int_field(obj, "ambient_n", optional=True),
    ),
    "asm": lambda obj: Asm(_rows_field(obj, "rows")),
    "partial_asm": lambda obj: PartialAsm(_int_field(obj, "n"), _rows_field(obj, "rows")),
}


def from_json_obj(obj: dict):
    """The object a JSON value describes; ValueError if it is not an object,
    names an unknown kind, or has a field that is missing or of the wrong
    shape."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown object kind {kind!r}")
    return _KINDS[kind](obj)


def loads(text: str):
    return from_json_obj(json.loads(text))


def dumps(obj) -> str:
    return json.dumps(obj.to_json_obj())
