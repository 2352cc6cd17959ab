"""Combinatorial objects: validation, bijections, symmetry maps."""

import json
from dataclasses import fields

import pytest

from asmlab import (
    Asm,
    MonotoneTrapezoid,
    MonotoneTriangle,
    PartialAsm,
    asm_reflect_antidiagonal,
    asm_reflect_horizontal,
    asm_rotate_90,
    asm_to_triangle,
    enumerate_triangles,
    partial_asm_to_trapezoid,
    reflect_antidiagonal,
    reflect_horizontal,
    rotate_90,
    trapezoid_to_partial_asm,
    triangle_to_asm,
    validate,
)
from asmlab import objects

# the worked 5x5 example pair: triangle rows bottom-up and its matrix
EXAMPLE_TRIANGLE = MonotoneTriangle(
    [(1, 2, 3, 4, 5), (1, 2, 4, 5), (1, 3, 5), (2, 4), (3,)]
)
EXAMPLE_ASM = Asm(
    [
        [0, 0, 1, 0, 0],
        [0, 1, -1, 1, 0],
        [1, -1, 1, -1, 1],
        [0, 1, -1, 1, 0],
        [0, 0, 1, 0, 0],
    ]
)


def test_validate_good_triangle():
    assert validate(EXAMPLE_TRIANGLE)


def test_validate_reports_first_violation():
    bad = MonotoneTriangle([(1, 3, 2), (1, 3), (2,)])
    verdict = validate(bad)
    assert not verdict
    assert "increas" in verdict.reason


def test_validate_interlacing_violation():
    bad = MonotoneTriangle([(1, 2, 3), (1, 3), (4,)])
    assert not validate(bad)


def test_entry_and_diagonals():
    t = EXAMPLE_TRIANGLE
    assert t.entry(1, 1) == 1 and t.entry(5, 5) == 3
    assert t.se_diagonal(3) == (1, 2, 3)  # a_{3,3}, a_{2,3}, a_{1,3}
    assert t.ne_diagonal(3) == (3, 4, 5)  # a_{1,3}, a_{2,4}, a_{3,5}


def test_triangle_asm_roundtrip_example():
    assert triangle_to_asm(EXAMPLE_TRIANGLE) == EXAMPLE_ASM
    assert asm_to_triangle(EXAMPLE_ASM) == EXAMPLE_TRIANGLE


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_triangle_asm_bijection_exhaustive(n):
    seen = set()
    for tri in enumerate_triangles(tuple(range(1, n + 1))):
        m = triangle_to_asm(tri)
        assert validate(m)
        assert asm_to_triangle(m) == tri
        seen.add(m.entries)
    # distinct triangles map to distinct matrices
    count = sum(1 for _ in enumerate_triangles(tuple(range(1, n + 1))))
    assert len(seen) == count


def test_trapezoid_partial_asm_roundtrip():
    trap = MonotoneTrapezoid(2, 4, [(1, 3, 4, 6), (2, 4, 5), (3, 4)], ambient_n=6)
    pasm = trapezoid_to_partial_asm(trap, 6)
    assert validate(pasm)
    assert pasm.t == trap.m - trap.d
    back = partial_asm_to_trapezoid(pasm, (1, 3, 4, 6))
    assert back.rows == trap.rows and (back.d, back.m) == (trap.d, trap.m)
    # as many rows as bottom entries would leave an empty top row (d = 0)
    with pytest.raises(ValueError):
        partial_asm_to_trapezoid(PartialAsm(2, [(1, 0), (0, 1)]), (1, 2))


def test_partial_asm_example():
    # a (2,6)-trapezoid inside ambient order 7 and its 5-row partial matrix
    trap = MonotoneTrapezoid(
        2,
        6,
        [(1, 2, 4, 5, 6, 7), (2, 3, 4, 6, 7), (2, 4, 5, 7), (3, 4, 6), (4, 5)],
        ambient_n=7,
    )
    assert validate(trap)
    pasm = trapezoid_to_partial_asm(trap, 7)
    assert pasm.t == 4 and pasm.n == 7
    # each row of a partial matrix alternates and sums to 0 or 1
    for row in pasm.entries:
        nonzero = [x for x in row if x]
        assert all(a == -b for a, b in zip(nonzero, nonzero[1:]))
        assert sum(row) in (0, 1)


def test_antidiagonal_reflection_involution():
    for tri in enumerate_triangles((1, 2, 3, 4)):
        image = reflect_antidiagonal(tri)
        assert validate(image)
        assert reflect_antidiagonal(image) == tri


def test_rotation_order_four():
    for tri in enumerate_triangles((1, 2, 3, 4)):
        image = tri
        for _ in range(4):
            image = rotate_90(image)
        assert image == tri


def test_horizontal_reflection_involution():
    for tri in enumerate_triangles((1, 2, 3)):
        image = reflect_horizontal(tri)
        assert validate(image)
        assert reflect_horizontal(image) == tri


def test_antidiagonal_is_horizontal_after_rotation():
    for tri in enumerate_triangles((1, 2, 3, 4)):
        assert reflect_antidiagonal(tri) == reflect_horizontal(rotate_90(tri))


def canonical(obj):
    """`obj`, after checking that it equals and hashes as the object its
    public constructor builds from its fields, and that its rows are tuples
    of ints; a kernel that skipped the constructor must still yield that."""
    values = [getattr(obj, f.name) for f in fields(obj)]
    rebuilt = type(obj)(*values)
    assert obj == rebuilt and hash(obj) == hash(rebuilt)
    for value in values:
        if isinstance(value, tuple):
            assert all(type(row) is tuple and all(type(x) is int for x in row) for row in value)
        else:
            assert value is None or type(value) is int
    return obj


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetry_maps_conjugate_matrix_maps(n):
    for tri in enumerate_triangles(tuple(range(1, n + 1))):
        m = canonical(triangle_to_asm(tri))
        assert canonical(asm_to_triangle(m)) == tri
        for triangle_map, matrix_map in (
            (reflect_antidiagonal, asm_reflect_antidiagonal),
            (rotate_90, asm_rotate_90),
            (reflect_horizontal, asm_reflect_horizontal),
        ):
            image = canonical(triangle_map(tri))
            assert canonical(triangle_to_asm(image)) == canonical(matrix_map(m))


def test_is_complete_is_a_bool():
    assert EXAMPLE_TRIANGLE.is_complete() is True
    assert MonotoneTriangle([(2, 3, 5), (3, 4), (3,)]).is_complete() is False
    assert MonotoneTriangle([]).is_complete() is False


def test_symmetry_maps_reject_incomplete():
    partial = MonotoneTriangle([(2, 3, 5), (3, 4), (3,)])
    for op in (reflect_antidiagonal, rotate_90, reflect_horizontal):
        with pytest.raises(ValueError):
            op(partial)


def test_json_roundtrip_all_kinds():
    for obj in (
        EXAMPLE_TRIANGLE,
        EXAMPLE_ASM,
        MonotoneTrapezoid(2, 4, [(1, 3, 4, 6), (2, 4, 5), (3, 4)], ambient_n=6),
        PartialAsm(4, [(0, 1, 0, 0), (1, -1, 0, 1)]),
    ):
        text = objects.dumps(obj)
        assert objects.loads(text) == obj
        json.loads(text)  # well-formed JSON


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        objects.from_json_obj({"kind": "mystery"})


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "monotone_triangle", "rows_bottom_up": 5},
        {"kind": "monotone_triangle", "rows_bottom_up": [1, 2]},
        {"kind": "monotone_triangle", "rows_bottom_up": [[1, "2"], [1]]},
        {"kind": "monotone_triangle", "rows_bottom_up": [[1, 2.5], [1]]},
        {"kind": "monotone_triangle"},
        {"kind": "asm", "rows": [[True]]},
        {"kind": "partial_asm", "n": "4", "rows": [[0, 1, 0, 0]]},
        {"kind": "monotone_trapezoid", "d": None, "m": 2, "rows_bottom_up": [[1, 2]]},
        {"kind": "monotone_trapezoid", "d": 1, "m": 2, "rows_bottom_up": [[1, 2]], "ambient_n": [3]},
        {"kind": []},
        {"kind": {"asm": 1}},
    ],
)
def test_json_rejects_malformed_fields(obj):
    with pytest.raises(ValueError):
        objects.from_json_obj(obj)


@pytest.mark.parametrize(
    "obj, reason",
    [
        (MonotoneTriangle([]), "triangle has no rows"),
        (MonotoneTriangle([(1, 2, 3), (1,), (1,)]), "row 2 has length 1, expected 2"),
        (MonotoneTriangle([(1, 3, 2), (1, 3), (2,)]), "row 1 not strictly increasing at position 2"),
        (
            MonotoneTriangle([(2, 3, 4), (1, 3), (2,)]),
            "interlacing violated between rows 1,2 at position 1 (lower bound)",
        ),
        (
            MonotoneTriangle([(1, 2, 3), (1, 3), (4,)]),
            "interlacing violated between rows 2,3 at position 1 (upper bound)",
        ),
        # upper-bound breaks at positions 1 and 3: the first one is named
        (
            MonotoneTriangle([(1, 2, 5, 6), (3, 4, 7), (3, 4), (4,)]),
            "interlacing violated between rows 1,2 at position 1 (upper bound)",
        ),
        (MonotoneTrapezoid(0, 3, [(1, 2, 3)]), "need 1 <= d <= m, got d=0, m=3"),
        (MonotoneTrapezoid(4, 3, [(1, 2, 3)]), "need 1 <= d <= m, got d=4, m=3"),
        (MonotoneTrapezoid(2, 4, [(1, 2, 3, 4)]), "expected 3 rows, got 1"),
        (MonotoneTrapezoid(2, 4, [(1, 2, 3, 4), (1, 2), (1, 2)]), "row 2 has length 2, expected 3"),
        (
            MonotoneTrapezoid(2, 3, [(1, 2, 4), (3, 4)]),
            "interlacing violated between rows 1,2 at position 1 (upper bound)",
        ),
        (Asm([]), "matrix is empty"),
        (Asm([[1, 0], [0]]), "row 2 has length 1, expected 2"),
        (Asm([[0, 2, -1], [1, 0, 0], [0, 0, 1]]), "row 1: entry 2 not in {-1,0,1}"),
        # the prefix sum leaves {0,1} before the bad entry is reached
        (Asm([[1, 1, 5], [1, 0, 0], [0, 0, 1]]), "row 1: prefix sum 2 outside {0,1}"),
        (Asm([[0, 1, 0], [0, -1, 1], [1, 0, 0]]), "row 2: prefix sum -1 outside {0,1}"),
        (Asm([[0, 1, 0], [0, 0, 0], [1, 0, 0]]), "row 2: row sum 0 != 1"),
        (Asm([[1, 0], [1, 0]]), "column 1: prefix sum 2 outside {0,1}"),
        (Asm([[0, 1], [0, 1]]), "column 1: row sum 0 != 1"),
        (Asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]]), None),
        (PartialAsm(3, [(0, 1, 0), (1, 0)]), "row 2 has length 2, expected 3"),
        (PartialAsm(3, [(0, 1, 0), (1, 0, 1)]), "row 2: prefix sum 2 outside {0,1}"),
        (PartialAsm(2, [(1, 0), (1, 0)]), "column 1: nonzero entries do not alternate"),
        (PartialAsm(3, [(0, 1, 0), (1, -1, 1)]), None),
    ],
)
def test_validate_names_the_first_violation(obj, reason):
    verdict = validate(obj)
    assert verdict.ok == (reason is None)
    assert verdict.reason == reason
    assert validate(obj) is verdict  # kept on the object, reason and all


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trapezoids_are_triangles_without_their_top_rows(n):
    # cutting the top d - 1 rows off a triangle leaves a (d, n)-trapezoid,
    # whose partial matrix is the triangle's matrix without its first d rows;
    # the same holds one column to the right, in ambient width n + 1
    for tri in enumerate_triangles(tuple(range(1, n + 1))):
        entries = triangle_to_asm(tri).entries
        for d in range(1, n + 1):
            for shift in (0, 1):
                rows = [[x + shift for x in row] for row in tri.rows[: n - d + 1]]
                trap = MonotoneTrapezoid(d, n, rows)
                pasm = canonical(trapezoid_to_partial_asm(trap, n + shift))
                assert pasm.entries == tuple((0,) * shift + row for row in entries[d:])
                back = canonical(partial_asm_to_trapezoid(pasm, trap.rows[0]))
                assert back == trap and back.ambient_n == n + shift


@pytest.mark.parametrize(
    "trap",
    [
        MonotoneTrapezoid(1, 2, [(0, 2), (1,)]),
        MonotoneTrapezoid(1, 2, [(2, 4), (3,)]),
        MonotoneTrapezoid(2, 3, [(0, 1, 3), (1, 2)]),
        MonotoneTrapezoid(2, 3, [(1, 2, 4), (2, 3)]),
    ],
)
def test_trapezoid_entries_outside_the_ambient_width_are_rejected(trap):
    with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
        trapezoid_to_partial_asm(trap, 3)


@pytest.mark.parametrize(
    "matrix, bottom, message",
    [
        (PartialAsm(3, [(0, 1, 0)]), (2, 1, 3), "strictly increasing"),
        (PartialAsm(3, [(0, 1, 0)]), (1, 1, 3), "strictly increasing"),
        (PartialAsm(3, [(0, 1, 0)]), (0, 2), r"outside \[1, 3\]"),
        (PartialAsm(3, [(0, 1, 0)]), (2, 4), r"outside \[1, 3\]"),
        (PartialAsm(3, [(1, 0, 0)]), (2, 3), "non-0/1"),
        (PartialAsm(3, [(1, -1, 1)]), (2, 3), "non-0/1"),
        # the last row subtracts cleanly, the first one does not
        (PartialAsm(4, [(0, 0, 1, 0), (0, 0, 0, 1)]), (1, 2, 4), "non-0/1"),
    ],
)
def test_partial_asm_reconstruction_errors(matrix, bottom, message):
    with pytest.raises(ValueError, match=message):
        partial_asm_to_trapezoid(matrix, bottom)


@pytest.mark.parametrize(
    "build, args",
    [
        (MonotoneTriangle, ([[1.5, 2.9], [2.2]],)),
        (MonotoneTriangle, ([["1", "2"], ["1"]],)),
        (MonotoneTrapezoid, (1.9, 3, [(1, 2, 3), (1, 2), (1,)])),
        (MonotoneTrapezoid, (1, 3.0, [(1, 2, 3), (1, 2), (1,)])),
        (MonotoneTrapezoid, (1, 3, [(1, 2, 3), (1, 2), (1,)], 3.0)),
        (Asm, ([[1.0]],)),
        (PartialAsm, (2.0, [(0, 1)])),
        (PartialAsm, ("2", [(0, 1)])),
        (partial_asm_to_trapezoid, (PartialAsm(3, [(0, 1, 0)]), (1.0, 2, 3))),
        (trapezoid_to_partial_asm, (MonotoneTrapezoid(1, 2, [(1, 2), (1,)]), 2.0)),
    ],
)
def test_non_integer_input_is_rejected_not_truncated(build, args):
    with pytest.raises(TypeError):
        build(*args)


@pytest.mark.parametrize("value", [42, "x"])
def test_validate_refuses_what_is_no_object(value):
    with pytest.raises(TypeError, match=r"^cannot validate (int|str)$"):
        validate(value)


def test_a_second_validate_runs_no_second_check(monkeypatch):
    calls = []
    check = objects._validate_interlacing_rows
    monkeypatch.setattr(objects, "_validate_interlacing_rows", lambda rows, m: calls.append(m) or check(rows, m))
    triangle = MonotoneTriangle(EXAMPLE_TRIANGLE.rows)
    assert validate(triangle) is validate(triangle)
    assert calls == [5]


def test_a_bijection_then_a_map_validates_the_triangle_once(monkeypatch):
    calls = []
    check = objects._validate_interlacing_rows
    monkeypatch.setattr(objects, "_validate_interlacing_rows", lambda rows, m: calls.append(rows) or check(rows, m))
    triangle = MonotoneTriangle(EXAMPLE_TRIANGLE.rows)
    assert triangle_to_asm(triangle) == EXAMPLE_ASM
    rotate_90(triangle)
    assert calls == [triangle.rows]


def test_each_object_keeps_its_own_verdict():
    good, bad = MonotoneTriangle([(1, 2, 3), (1, 3), (2,)]), MonotoneTriangle([(1, 2, 3), (1, 3), (4,)])
    assert validate(good) and not validate(bad)
    good, bad = MonotoneTriangle(good.rows), MonotoneTriangle(bad.rows)
    assert not validate(bad) and validate(good)


@pytest.mark.parametrize(
    "checked, fresh",
    [
        (MonotoneTriangle(EXAMPLE_TRIANGLE.rows), MonotoneTriangle(EXAMPLE_TRIANGLE.rows)),
        (Asm(EXAMPLE_ASM.entries), Asm(EXAMPLE_ASM.entries)),
        (
            MonotoneTrapezoid(2, 4, [(1, 3, 4, 6), (2, 4, 5), (3, 4)], ambient_n=6),
            MonotoneTrapezoid(2, 4, [(1, 3, 4, 6), (2, 4, 5), (3, 4)]),
        ),
    ],
)
def test_a_kept_verdict_changes_no_equality_hash_or_repr(checked, fresh):
    assert validate(checked)
    assert checked == fresh and hash(checked) == hash(fresh)
    assert repr(checked).replace("ambient_n=6", "ambient_n=None") == repr(fresh)
    assert {fresh: "fresh"}[checked] == "fresh"


@pytest.mark.parametrize(
    "rows",
    [
        [(2, 3, 5), (3, 4), (3,)],
        # one end of the bottom row is right, the other is not
        [(1, 2, 4), (2, 3), (3,)],
        [(0, 2, 3), (1, 3), (2,)],
    ],
)
def test_incomplete_triangles_are_refused_with_the_same_text(rows):
    partial = MonotoneTriangle(rows)
    assert validate(partial) and not partial.is_complete()
    for _ in range(2):  # before and after its verdict is kept
        with pytest.raises(ValueError, match=r"^triangle is not complete$"):
            triangle_to_asm(partial)
        for op in (reflect_antidiagonal, rotate_90, reflect_horizontal):
            with pytest.raises(ValueError, match=r"^map is defined on complete triangles only$"):
                op(partial)
