"""Every memo in asmlab is bounded; the row cache is keyed on translated rows,
and the top-row cache serves every top row over one bottom row."""

import importlib
import pkgutil
from itertools import combinations

import asmlab
from asmlab import closed_forms, count_trapezoids, count_triangles, enumeration


def lru_caches():
    for info in pkgutil.iter_modules(asmlab.__path__):
        module = importlib.import_module(f"asmlab.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj.cache_parameters()["maxsize"]


def test_every_lru_cache_is_bounded():
    caches = dict(lru_caches())
    assert {"enumeration._count_over_row", "enumeration._top_rows"} <= caches.keys()
    unbounded = [name for name, maxsize in caches.items() if maxsize is None]
    assert unbounded == []


def test_row_cache_shares_translated_rows():
    enumeration._count_over_row.cache_clear()
    assert count_triangles((1, 3)) == 3
    # the one-entry rows (1,), (2,) and (3,) over (1, 3) all translate to (0,)
    assert enumeration._count_over_row.cache_info().currsize == 2
    count = count_triangles((1, 2, 4, 7))
    entries = enumeration._count_over_row.cache_info().currsize
    assert count_triangles((-5, -4, -2, 1)) == count_triangles((11, 12, 14, 17)) == count
    assert enumeration._count_over_row.cache_info().currsize == entries


def test_total_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(closed_forms, "_totals", {})
    for n in range(1, closed_forms._TOTALS_KEPT + 50):
        closed_forms.asm_total(n)
    assert len(closed_forms._totals) == closed_forms._TOTALS_KEPT


def test_top_row_cache_serves_every_top_over_a_bottom():
    enumeration._top_rows.cache_clear()
    count_trapezoids(6, (2,), (1, 3))
    entries = enumeration._top_rows.cache_info().currsize
    tops = list(combinations(range(1, 7), 2))
    counts = [count_trapezoids(6, (2,), top) for top in tops]
    assert enumeration._top_rows.cache_info().currsize == entries
    # every triangle over the bottom row passes through one row of length 2
    triangles = count_triangles((1, 3, 4, 5, 6))
    assert sum(ways * count_triangles(top) for ways, top in zip(counts, tops)) == triangles
