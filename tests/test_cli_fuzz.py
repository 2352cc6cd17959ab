"""Fuzz of the CLI contract: every command line and every JSON input ends in
exit 0, 1 or 2 with no traceback; exit 3 would be a fault of the program.

Inputs stay small (orders n <= 6 for coeff and count, n <= 15 for table,
verify --n-max <= 3, --jobs 1 or 2) so that each example runs in
milliseconds.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from asmlab.cli import main

SMALL = st.integers(-3, 12)
INT_LISTS = st.lists(SMALL, max_size=6).map(lambda xs: ",".join(map(str, xs)))
TERM_CAPS = st.sampled_from([None, "", "abc", "0", "-5", "1.5", " 7", "40", "2000000"])
FUZZ = settings(max_examples=100, deadline=None)


def assert_contract(argv, term_cap=None):
    """One in-process CLI call exits 0, 1 or 2 and prints no traceback."""
    err = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        os.environ.pop("ASMLAB_TERM_CAP", None)
        if term_cap is not None:
            os.environ["ASMLAB_TERM_CAP"] = term_cap
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, term_cap, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def option(draw, flag, values):
    return [flag, str(draw(values))] if draw(st.booleans()) else []


@st.composite
def command_lines(draw):
    argv = option(draw, "--jobs", st.sampled_from([1, 2]))
    if draw(st.booleans()):
        argv.append("--quiet")
    command = draw(st.sampled_from(["count", "coeff", "table", "verify"]))
    argv.append(command)
    if command == "count":
        argv.append(draw(st.sampled_from(["triangles", "trapezoids"])))
        argv += option(draw, "--bottom", INT_LISTS)
        if draw(st.booleans()):
            argv.append("--weak")
        argv += option(draw, "--n", st.integers(-3, 6))
        argv += option(draw, "--removed", INT_LISTS)
        argv += option(draw, "--top", INT_LISTS)
    elif command == "coeff":
        argv += ["--n", str(draw(st.integers(-3, 6)))]
        argv += option(draw, "--s", INT_LISTS)
        argv += option(draw, "--i", INT_LISTS)
        argv += option(draw, "--method", st.sampled_from(["extract", "brute", "both"]))
    elif command == "table":
        argv += ["--which", draw(st.sampled_from(["a_nk", "b_nij", "a_nij", "asm_total"]))]
        argv += ["--n", str(draw(st.integers(-3, 15)))]
        argv += option(draw, "--format", st.sampled_from(["csv", "json"]))
    else:
        argv += option(draw, "--suite", st.sampled_from(["theorem7", "identities", "all"]))
        argv += option(draw, "--n-max", st.integers(-3, 3))
    return argv


@FUZZ
@given(command_lines(), TERM_CAPS)
def test_fuzzed_command_lines_keep_the_exit_contract(argv, term_cap):
    assert_contract(argv, term_cap)


@st.composite
def interlaced_rows(draw, values=SMALL):
    """Bottom-up rows, each entry between its two neighbours below; often a
    valid monotone triangle, sometimes not."""
    row = sorted(draw(st.sets(values, max_size=6)))
    rows = [row]
    while len(row) > 1:
        row = [draw(st.integers(a, b)) for a, b in zip(row, row[1:])]
        rows.append(row)
    return rows


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL | st.text(max_size=4),
    lambda children: st.lists(children, max_size=6) | st.dictionaries(st.text(max_size=4), children, max_size=6),
    max_leaves=20,
)
ROWS = (
    interlaced_rows()
    | st.lists(st.lists(st.sampled_from([-1, 0, 1]), max_size=6), max_size=6)
    | st.lists(st.lists(SMALL, max_size=6), max_size=6)
    | JSON_VALUES
)
OBJECTS = JSON_VALUES | st.fixed_dictionaries(
    {"kind": st.sampled_from(["monotone_triangle", "monotone_trapezoid", "asm", "partial_asm"]) | JSON_VALUES},
    optional={
        "rows_bottom_up": ROWS,
        "rows": ROWS,
        "n": SMALL | JSON_VALUES,
        "d": SMALL | JSON_VALUES,
        "m": SMALL | JSON_VALUES,
        "ambient_n": SMALL | JSON_VALUES,
    },
)


@st.composite
def object_commands(draw):
    if draw(st.booleans()):
        return ["transform", "--op", draw(st.sampled_from(["ad", "rot90", "hrefl"]))]
    argv = ["convert", "--to", draw(st.sampled_from(["asm", "triangle", "partial_asm", "trapezoid"]))]
    argv += option(draw, "--n", SMALL)
    argv += option(draw, "--bottom", INT_LISTS)
    return argv


@st.composite
def conversions(draw):
    """(JSON value, convert argv) that reach the trapezoid bijection: a
    trapezoid whose d and m fit its interlaced rows, or the indicator
    differences of its rows as a partial ASM; entries, --n and --bottom are
    sometimes out of range."""
    n = draw(st.integers(0, 9))
    rows = draw(interlaced_rows(st.integers(0, 8)))
    m = len(rows[0])
    d = draw(st.integers(1, max(m, 1)))
    rows = rows[: max(m - d + 1, 1)]
    if draw(st.booleans()):
        value = {"kind": "monotone_trapezoid", "d": d, "m": m, "rows_bottom_up": rows, "ambient_n": n}
        return value, ["convert", "--to", "partial_asm", *option(draw, "--n", SMALL)]
    matrix = [
        [(j in lower) - (j in upper) for j in range(1, n + 1)]
        for upper, lower in zip(rows[::-1], rows[-2::-1])
    ]
    bottom = rows[0]
    if draw(st.booleans()):
        bottom = sorted(draw(st.sets(st.integers(0, n + 1), min_size=1, max_size=n + 1)))
    value = {"kind": "partial_asm", "n": n, "rows": matrix}
    return value, ["convert", "--to", "trapezoid", "--bottom", ",".join(map(str, bottom))]


@FUZZ
@given(st.tuples(OBJECTS, object_commands()) | conversions())
def test_fuzzed_json_input_keeps_the_exit_contract(case):
    value, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as handle:
            json.dump(value, handle)
        assert_contract([*argv, "--in", path])
