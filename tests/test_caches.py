"""Every memo in asmlab is bounded; the row cache is keyed on translated rows."""

import importlib
import pkgutil

import asmlab
from asmlab import count_triangles, enumeration


def lru_caches():
    for info in pkgutil.iter_modules(asmlab.__path__):
        module = importlib.import_module(f"asmlab.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj.cache_parameters()["maxsize"]


def test_every_lru_cache_is_bounded():
    caches = dict(lru_caches())
    assert {"enumeration._count_over_row", "enumeration._count_to_top"} <= caches.keys()
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
