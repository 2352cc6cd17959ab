"""Brute-force and memoized exact counting of triangle families.

Everything here is a ground-truth oracle: counts are obtained by dynamic
programming over interlacing rows or by outright enumeration, never from a
formula.  All results are exact Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Iterator, Sequence

from .objects import MonotoneTriangle, _built

#: soft practical bounds; the CLI warns (but does not refuse) beyond these
EXHAUSTIVE_FAMILY_CAP = 7
SINGLE_COUNT_CAP = 8


@dataclass(frozen=True)
class BottomRowSpec:
    """Bottom row for triangle counting; weak_bottom allows equal adjacent
    entries in the bottom row only (the extended-triangle variant)."""

    entries: tuple[int, ...]
    weak_bottom: bool = False

    def __init__(self, entries: Sequence[int], weak_bottom: bool = False):
        entries = tuple(map(index, entries))
        if not entries:
            raise ValueError("bottom row must be nonempty")
        for a, b in zip(entries, entries[1:]):
            if weak_bottom and a > b:
                raise ValueError("bottom row must be weakly increasing")
            if not weak_bottom and a >= b:
                raise ValueError("bottom row must be strictly increasing")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "weak_bottom", weak_bottom)


def index_tuples(
    n: int, s: Sequence[int], i: Sequence[int], order: str | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Check the index tuples s (length c) and i (length d) of order n and
    return them as integer tuples.  Needs n >= 1, c + d <= n and entries in
    [1, n]; order "strict" or "weak" also requires each tuple to increase
    strictly or weakly, None leaves the order free."""
    s = tuple(map(index, s))
    i = tuple(map(index, i))
    if index(n) < 1:
        raise ValueError("n must be positive")
    if len(s) + len(i) > n:
        raise ValueError("need c + d <= n")
    for name, tup in (("s", s), ("i", i)):
        if any(not 1 <= x <= n for x in tup):
            raise ValueError(f"{name} entries must lie in [1, {n}]")
        if order == "strict" and any(a >= b for a, b in zip(tup, tup[1:])):
            raise ValueError(f"{name} must be strictly increasing")
        if order == "weak" and any(a > b for a, b in zip(tup, tup[1:])):
            raise ValueError(f"{name} must be weakly increasing")
    return s, i


@dataclass(frozen=True)
class GammaSpec:
    """Arguments of the anchored partial-triangle count: bottom values k,
    truncation depths s (left/NE side) and i (right/SE side)."""

    n: int
    k: tuple[int, ...]
    s: tuple[int, ...]
    i: tuple[int, ...]

    def __init__(self, n: int, k: Sequence[int], s: Sequence[int] = (), i: Sequence[int] = ()):
        n = index(n)
        k = tuple(map(index, k))
        if len(k) != n:
            raise ValueError(f"k must have length n={n}")
        s, i = index_tuples(n, s, i, order="weak")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "i", i)


def _coerce_spec(spec) -> BottomRowSpec:
    if isinstance(spec, BottomRowSpec):
        return spec
    return BottomRowSpec(spec)


def _extend(prefixes: list[tuple[int, ...]], bounds) -> list[tuple[int, ...]]:
    """Each prefix extended by one entry v per (lo, hi) in `bounds`, with
    lo <= v <= hi and every entry above the one before it; lexicographic
    when the prefixes are."""
    for lo, hi in bounds:
        prefixes = [p + (v,) for p in prefixes for v in range(max(lo, p[-1] + 1), hi + 1)]
    return prefixes


def _successor_rows(row: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Strictly increasing rows l with row[j] <= l[j] <= row[j+1], in
    lexicographic order, built one entry at a time."""
    if len(row) == 1:
        return [()]
    return _extend([(v,) for v in range(row[0], row[1] + 1)], zip(row[1:], row[2:]))


@lru_cache(maxsize=65536)
def _count_over_row(row: tuple[int, ...]) -> int:
    """Number of triangles over `row`, which must start at 0.  The triangles
    over a row and over its translate correspond one to one, so each
    successor is built already moved to start at 0: the successors with
    first entry v as the rows over (0,) bounded by row[1:] - v."""
    if len(row) == 1:
        return 1
    bounds = list(zip(row[1:], row[2:]))
    return sum(
        sum(map(_count_over_row, _extend([(0,)], [(lo - v, hi - v) for lo, hi in bounds])))
        for v in range(row[0], row[1] + 1)
    )


def count_triangles(spec) -> int:
    """Exact number of (extended, if weak_bottom) monotone triangles with the
    given bottom row."""
    spec = _coerce_spec(spec)
    entries = spec.entries
    return _count_over_row(tuple(x - entries[0] for x in entries))


def enumerate_triangles(spec) -> Iterator[MonotoneTriangle]:
    """All triangles over the bottom row, in lexicographic order of the
    concatenated bottom-up rows.  Independent of count_triangles' DP."""
    spec = _coerce_spec(spec)

    def build(rows: list[tuple[int, ...]]) -> Iterator[MonotoneTriangle]:
        if len(rows[-1]) == 1:
            yield _built(MonotoneTriangle, tuple(rows))
            return
        for nxt in _successor_rows(rows[-1]):
            yield from build(rows + [nxt])

    yield from build([spec.entries])


def _complement(n: int, removed: Sequence[int]) -> tuple[int, ...]:
    removed_set = set(removed)
    return tuple(x for x in range(1, n + 1) if x not in removed_set)


@lru_cache(maxsize=65536)
def _top_rows(row: tuple[int, ...], d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(top row, number of trapezoids from `row` up to it) for every row of
    length d that interlacing rows reach from `row`, sorted by top row; tops
    with no trapezoid are left out.  Needs 1 <= d <= len(row)."""
    if len(row) == d:
        return ((row, 1),)
    by_top: dict[tuple[int, ...], int] = {}
    for nxt in _successor_rows(row):
        for top, ways in _top_rows(nxt, d):
            by_top[top] = by_top.get(top, 0) + ways
    return tuple(sorted(by_top.items()))


def count_trapezoids(n: int, s: Sequence[int], i: Sequence[int]) -> int:
    """Number of monotone (d, n-c)-trapezoids with top row i and bottom row
    the increasing arrangement of {1..n} minus {s}."""
    s, i = index_tuples(n, s, i, order="strict")
    d = len(i)
    bottom = _complement(n, s)
    if d == 0:
        # c = n removes the whole bottom row; the empty trapezoid counts once
        return count_triangles(bottom) if bottom else 1
    return dict(_top_rows(bottom, d)).get(i, 0)


@dataclass(frozen=True)
class RefinedCounts:
    """Exhaustive refined ASM counts for one order n."""

    n: int
    total: int
    top: tuple[int, ...]  # top[j-1]: matrices with the top-row 1 in column j
    top_bottom: dict  # (i, j) -> matrices with bottom-row 1 in column i, top-row 1 in column j


def refined_counts(n: int) -> RefinedCounts:
    """Classify every complete triangle of order n by the positions of the 1
    in the top and bottom rows of its alternating sign matrix.

    The triangles with the bottom-row 1 in column i and the top-row 1 in
    column j are the trapezoids from the second row {1..n} minus {i} up to
    the top row (j), so one `_top_rows` lookup per i gives row i of the
    classification without building any triangle.  No closed form is read.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return RefinedCounts(1, 1, (1,), {(1, 1): 1})
    top = [0] * n
    top_bottom: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for (j,), ways in _top_rows(_complement(n, (i,)), 1):
            top[j - 1] += ways
            top_bottom[(i, j)] = ways
    return RefinedCounts(n, sum(top), tuple(top), top_bottom)


# ---------------------------------------------------------------------------
# anchored partial monotone triangles (gamma)
# ---------------------------------------------------------------------------


def gamma_count(spec: GammaSpec) -> int:
    """Number of anchored partial monotone triangles for the given arguments.

    The cell map holds every present cell (r, j), r-th row from the bottom and
    column j, as cells[r, j] = (fixed value or None, ne_anchor, se_anchor).  The
    NE diagonal l = j-r+1 <= c has depth s_{c+1-l} and the SE diagonal of
    column j > n-d has depth i_{j-n+d}; a cell below either depth is absent,
    a cell at a depth is that diagonal's anchor, and a cell anchoring both
    admits no realization, so the count is zero.  An NE anchor holds k_l, an
    SE anchor and the bottom row hold k_j, and every other cell is free.

    The row DP goes up from the bottom, keyed on the tuple of values of one
    row's present cells in column order.  NE/SE (weak) and row (strict)
    constraints hold between present cells, except that an NE anchor drops
    its right-neighbour and below constraints, an SE anchor drops its
    left-neighbour and below-left constraints, and the bottom row carries no
    row constraints at all.
    """
    n, k, s, it = spec.n, spec.k, spec.s, spec.i
    c, d = len(s), len(it)
    cells: dict[tuple[int, int], tuple[int | None, bool, bool]] = {}
    for r in range(1, n + 1):
        for j in range(r, n + 1):
            l = j - r + 1
            ne = s[c - l] if l <= c else 0
            se = it[j - n + d - 1] if j > n - d else 0
            if r < ne or r < se:
                continue
            if r == ne == se:
                return 0
            value = k[l - 1] if r == ne else k[j - 1] if r in (se, 1) else None
            cells[r, j] = (value, r == ne, r == se)

    states: dict[tuple[int, ...], int] = {(): 1}
    below: dict[int, int] = {}  # column -> position in the state of the row below
    for r in range(1, n + 1):
        cols = [j for j in range(r, n + 1) if (r, j) in cells]

        def fill(under: tuple[int, ...], chosen: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
            if len(chosen) == len(cols):
                yield chosen
                return
            j = cols[len(chosen)]
            value, ne_anchor, se_anchor = cells[r, j]
            lo = hi = None
            if not se_anchor and j - 1 in below:
                lo = under[below[j - 1]]
            if r > 1 and (r, j - 1) in cells and not cells[r, j - 1][1] and not se_anchor:
                lo = chosen[-1] + 1 if lo is None else max(lo, chosen[-1] + 1)
            if not ne_anchor and j in below:
                hi = under[below[j]]
            if value is not None:
                if (lo is None or value >= lo) and (hi is None or value <= hi):
                    yield from fill(under, chosen + (value,))
                return
            if lo is None or hi is None:
                raise ValueError("free cell without finite bounds; inconsistent truncation")
            for v in range(lo, hi + 1):
                yield from fill(under, chosen + (v,))

        nxt: dict[tuple[int, ...], int] = {}
        for under, ways in states.items():
            for row in fill(under):
                nxt[row] = nxt.get(row, 0) + ways
        states, below = nxt, {j: p for p, j in enumerate(cols)}
    return sum(states.values())


def special_point(n: int, c: int, d: int) -> tuple[int, ...]:
    """The evaluation point ((c+1)^c, c+1, ..., n-d, (n-d)^d)."""
    return (c + 1,) * c + tuple(range(c + 1, n - d + 1)) + (n - d,) * d
