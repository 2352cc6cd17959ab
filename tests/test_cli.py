"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import asmlab
from asmlab import cli, enumeration
from asmlab.cli import main
from asmlab.reports import decimal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_triangles(capsys):
    code, out, _ = run(capsys, "count", "triangles", "--bottom", "1,2,3")
    assert code == 0 and out.strip() == "7"


def test_count_triangles_weak(capsys):
    code, out, _ = run(capsys, "count", "triangles", "--bottom", "1,1,2", "--weak")
    assert code == 0 and out.strip().isdigit()


def test_count_trapezoids(capsys):
    code, out, _ = run(capsys, "count", "trapezoids", "--n", "4", "--removed", "", "--top", "")
    assert code == 0 and out.strip() == "42"


def test_count_bad_bottom_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "triangles", "--bottom", "3,1")
    assert code == 2 and "error" in err


def test_count_bad_integers_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "triangles", "--bottom", "1,x")
    assert code == 2


def test_coeff_methods_agree(capsys):
    code_e, out_e, _ = run(capsys, "coeff", "--n", "4", "--s", "2", "--i", "3", "--method", "extract")
    code_b, out_b, _ = run(capsys, "coeff", "--n", "4", "--s", "2", "--i", "3", "--method", "brute")
    assert code_e == code_b == 0
    assert out_e == out_b
    code, out, _ = run(capsys, "coeff", "--n", "4", "--s", "2", "--i", "3", "--method", "both")
    assert code == 0 and "match" in out


def test_unexpected_error_exits_three(capsys, monkeypatch):
    from asmlab import closed_forms

    def broken(n):
        raise ArithmeticError("total count for n=2 not integral: 7/2")

    monkeypatch.setattr(closed_forms, "asm_total", broken)
    code, out, err = run(capsys, "table", "--which", "asm_total", "--n", "3")
    assert code == 3 and out == ""
    assert err == "error: ArithmeticError: total count for n=2 not integral: 7/2\n"


def test_table_csv_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--which", "b_nij", "--n", "4")
    _, second, _ = run(capsys, "table", "--which", "b_nij", "--n", "4")
    assert first == second
    assert first.splitlines()[0] == "1,1,0"


def test_table_counts_are_strings_in_json(capsys):
    code, out, _ = run(capsys, "table", "--which", "asm_total", "--n", "25", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(isinstance(v, str) for row in rows for v in row)
    assert int(rows[-1][1]) > 10**50  # huge counts survive exactly


def test_table_jobs_matches_serial(capsys):
    _, serial, _ = run(capsys, "table", "--which", "a_nij", "--n", "4")
    _, parallel, _ = run(capsys, "--jobs", "2", "table", "--which", "a_nij", "--n", "4")
    assert serial == parallel


def test_table_jobs_starts_no_process(capsys, monkeypatch):
    import multiprocessing.process

    def refuse(*args):
        raise AssertionError("asmlab table started a process")

    _, serial, _ = run(capsys, "table", "--which", "a_nij", "--n", "5")
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    code, out, err = run(capsys, "--jobs", "4", "table", "--which", "a_nij", "--n", "5")
    assert code == 0, err
    assert out == serial


def test_cli_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(asmlab.__file__)))
    code = "import sys, asmlab.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--n-max", "3")
    assert code == 0
    assert "fail" not in out


def test_verify_theorem7_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem7", "--n-max", "3")
    assert code == 0
    assert all(line.endswith("pass") for line in out.strip().splitlines())


def test_verify_all_to_five_prints_the_recorded_lines(capsys):
    # every line and its order; a deliberate change to verify's stdout
    # records new constants here
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "5")
    assert code == 0
    assert len(out.splitlines()) == 150
    assert "t=0" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "67bd4dd78af70f4d360704da7b8e155481fc6976f70da948916d48b05bd2443d"
    )


def test_verify_lists_each_comparison_once():
    # only the listing: no check runs
    for n_max in range(1, 8):
        cases = list(cli._verify_cases("all", n_max))
        labels = [label for label, _, _ in cases]
        assert not any(label.startswith("relation") for label in labels)
        symmetry = [args for label, _, args in cases if label.startswith("symmetry ")]
        assert all(c <= d and c + d >= 1 for _, c, d in symmetry)
        for n in range(1, n_max + 1):
            unordered = [(c, d) for c in range(n + 1) for d in range(c, n + 1 - c) if c + d >= 1]
            assert sorted((c, d) for m, c, d in symmetry if m == n) == unordered, n
            # the two-row relation
            assert (f"circuit n={n} c=2 d=0 t=1" in labels) == (n >= 2), n


def test_transform_roundtrip(tmp_path, capsys):
    tri = {"kind": "monotone_triangle", "n": 3, "rows_bottom_up": [[1, 2, 3], [1, 3], [2]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(tri))
    code, out, _ = run(capsys, "transform", "--op", "ad", "--in", str(path))
    assert code == 0
    once = json.loads(out)
    path.write_text(out)
    code, out, _ = run(capsys, "transform", "--op", "ad", "--in", str(path))
    assert code == 0
    assert json.loads(out)["rows_bottom_up"] == tri["rows_bottom_up"]


def test_transform_rejects_incomplete(tmp_path, capsys):
    tri = {"kind": "monotone_triangle", "rows_bottom_up": [[2, 3, 5], [3, 4], [3]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(tri))
    code, _, err = run(capsys, "transform", "--op", "rot90", "--in", str(path))
    assert code == 2 and "error" in err


def test_convert_triangle_asm_roundtrip(tmp_path, capsys):
    tri = {"kind": "monotone_triangle", "rows_bottom_up": [[1, 2, 3], [1, 3], [2]]}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(tri))
    code, out, _ = run(capsys, "convert", "--in", str(path), "--to", "asm")
    assert code == 0
    assert json.loads(out)["rows"] == [[0, 1, 0], [1, -1, 1], [0, 1, 0]]
    back = tmp_path / "asm.json"
    back.write_text(out)
    code, out, _ = run(capsys, "convert", "--in", str(back), "--to", "triangle")
    assert code == 0
    assert json.loads(out)["rows_bottom_up"] == tri["rows_bottom_up"]


def test_convert_trapezoid_roundtrip(tmp_path, capsys):
    trap = {
        "kind": "monotone_trapezoid",
        "d": 2,
        "m": 4,
        "rows_bottom_up": [[1, 3, 4, 6], [2, 4, 5], [3, 4]],
        "ambient_n": 6,
    }
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(trap))
    code, out, _ = run(capsys, "convert", "--in", str(path), "--to", "partial_asm")
    assert code == 0
    back = tmp_path / "pasm.json"
    back.write_text(out)
    code, out, _ = run(
        capsys, "convert", "--in", str(back), "--to", "trapezoid", "--bottom", "1,3,4,6"
    )
    assert code == 0
    assert json.loads(out)["rows_bottom_up"] == trap["rows_bottom_up"]


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "transform", "--op", "ad", "--in", "/nonexistent.json")
    assert code == 2 and "error" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# usage errors in a fresh process: exit 2, one error line, no traceback
# ---------------------------------------------------------------------------


def run_process(*argv, env=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE, recursion_limit=None, **options):
    src = os.path.dirname(os.path.dirname(os.path.abspath(asmlab.__file__)))
    full_env = dict(os.environ, PYTHONPATH=src, **(env or {}))
    launch = ["-m", "asmlab.cli"]
    if recursion_limit is not None:
        script = f"import sys; sys.setrecursionlimit({recursion_limit}); from asmlab.cli import main; sys.exit(main())"
        launch = ["-c", script]
    proc = subprocess.run(
        [sys.executable, *launch, *argv],
        env=full_env,
        stdout=stdout,
        stderr=stderr,
        text=True,
        timeout=120,
        **options,
    )
    return proc.returncode, proc.stdout, proc.stderr


def assert_usage_error(code, err):
    assert code == 2, err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_coeff_zero_order_is_usage_error():
    code, _, err = run_process("coeff", "--n", "0")
    assert_usage_error(code, err)


def test_malformed_term_cap_is_usage_error():
    code, _, err = run_process("coeff", "--n", "3", env={"ASMLAB_TERM_CAP": "abc"})
    assert_usage_error(code, err)
    assert "ASMLAB_TERM_CAP" in err


def test_term_cap_hit_names_the_construction():
    code, _, err = run_process("coeff", "--n", "5", env={"ASMLAB_TERM_CAP": "40"})
    assert_usage_error(code, err)
    assert "alpha_via_recursion(n=" in err


def test_term_cap_hit_at_a_large_order_is_usage_error():
    # alpha_256, the largest order the packed keys hold, is built upward, so
    # the cap stops it at a small order; a recursion 256 orders deep, two
    # frames per order, would pass the limit of 300 first
    code, _, err = run_process(
        "coeff", "--n", "256", "--s", "1", env={"ASMLAB_TERM_CAP": "1000"}, recursion_limit=300
    )
    assert_usage_error(code, err)
    assert len(err.splitlines()) == 1
    assert "alpha_via_recursion(n=" in err


def test_order_past_the_exponent_limit_is_usage_error_at_once():
    # alpha_300 has exponents up to 299, past the 255 a key byte holds, so no
    # term cap can help; it is refused before any lower order is built
    start = time.monotonic()
    code, _, err = run_process("coeff", "--n", "300", "--s", "1")
    assert time.monotonic() - start < 10
    assert_usage_error(code, err)
    assert len(err.splitlines()) == 1
    assert "alpha_via_recursion(300) could raise an exponent to 299, above 255" in err


# an empty PYTHONUNBUFFERED buffers stdout: count's one line fails only at the
# flush, table's 19 KB already while printing
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [("count", "triangles", "--bottom", "1,2,4"), ("table", "--which", "a_nij", "--n", "20")],
    ids=["count", "table"],
)
def test_closed_stdout_is_usage_error(argv, unbuffered):
    # a pipe whose reader is gone, as after `| head -1`: every write fails
    r, w = os.pipe()
    os.close(r)
    try:
        code, _, err = run_process(*argv, env={"PYTHONUNBUFFERED": unbuffered}, stdout=w)
    finally:
        os.close(w)
    assert_usage_error(code, err)
    assert len(err.splitlines()) == 1
    assert "Exception ignored" not in err


def run_without_stderr(*argv):
    """Exit status and stdout of a process started with fd 2 closed, as by `2>&-`."""
    code, out, _ = run_process(*argv, stderr=None, preexec_fn=lambda: os.close(2))
    return code, out


def test_closed_stderr_keeps_the_usage_error_status():
    assert run_without_stderr("count", "triangles", "--bottom", "1,x") == (2, "")


def test_closed_stderr_drops_the_warning_and_counts():
    # nine entries are past SINGLE_COUNT_CAP, so a warning goes to the closed stderr
    assert run_without_stderr("count", "triangles", "--bottom", "1,2,3,4,5,6,7,8,9") == (0, "911835460\n")


BRUTE_FORCE_PAST_THE_CAP = {
    # n = 9 is past SINGLE_COUNT_CAP, and one top row makes both counts cheap
    "count": ("count", "trapezoids", "--n", "9", "--removed", "1", "--top", "2,3,4,5,6,7,8,9"),
    "coeff": ("coeff", "--method", "brute", "--n", "9", "--s", "1", "--i", "2,3,4,5,6,7,8,9"),
}


@pytest.mark.parametrize("command", sorted(BRUTE_FORCE_PAST_THE_CAP))
def test_brute_force_past_the_cap_warns(command):
    argv = BRUTE_FORCE_PAST_THE_CAP[command]
    code, out, err = run_process(*argv)
    assert (code, out) == (0, "1\n")
    assert err.startswith("warning: ") and len(err.splitlines()) == 1, err
    assert run_process("--quiet", *argv) == (0, "1\n", "")


def test_brute_force_within_the_cap_does_not_warn():
    code, out, err = run_process("count", "trapezoids", "--n", "8", "--removed", "1", "--top", "2,3,4,5,6,7,8")
    assert (code, out, err) == (0, "1\n", "")


class ClosedStream:
    """A stderr whose every write fails, as on a closed fd 2."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")

    def flush(self):
        raise OSError(9, "Bad file descriptor")


def test_verify_warning_on_a_closed_stderr_does_not_stop_the_run(capsys, monkeypatch):
    monkeypatch.setattr(enumeration, "EXHAUSTIVE_FAMILY_CAP", 1)
    monkeypatch.setattr(sys, "stderr", ClosedStream())
    code = main(["verify", "--suite", "theorem7", "--n-max", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "theorem7 n=1 c=0 d=0: pass" and len(lines) == 3 + 6


def test_no_stdout_at_all_keeps_the_exit_status():
    # started with fd 1 closed, as by `>&-`: Python sets sys.stdout to None and
    # print writes nothing
    code, _, err = run_process(
        "count", "triangles", "--bottom", "1,2,4", stdout=None, preexec_fn=lambda: os.close(1)
    )
    assert (code, err) == (0, "")


def test_table_order_below_formula_range_is_usage_error():
    code, _, err = run_process("table", "--which", "b_nij", "--n", "1")
    assert_usage_error(code, err)


def test_non_object_json_is_usage_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    for argv in (("transform", "--op", "ad"), ("convert", "--to", "asm")):
        code, _, err = run_process(*argv, "--in", str(path))
        assert_usage_error(code, err)


def test_deeply_nested_json_is_usage_error(tmp_path):
    # deeper than the JSON decoder's recursion limit
    deep_list = tmp_path / "deep_list.json"
    deep_list.write_text("[" * 100_000 + "]" * 100_000)
    deep_rows = tmp_path / "deep_rows.json"
    deep_rows.write_text('{"kind": "asm", "rows": ' + "[" * 5_000 + "]" * 5_000 + "}")
    for path, argv in ((deep_list, ("transform", "--op", "ad")), (deep_rows, ("convert", "--to", "asm"))):
        code, out, err = run_process(*argv, "--in", str(path))
        assert_usage_error(code, err)
        assert out == "" and len(err.splitlines()) == 1


def test_verify_zero_cases_is_usage_error():
    code, out, err = run_process("verify", "--n-max", "0")
    assert_usage_error(code, err)
    assert out == ""


def test_malformed_json_field_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "monotone_triangle", "rows_bottom_up": 5}))
    for argv in (("transform", "--op", "ad"), ("convert", "--to", "asm")):
        code, _, err = run_process(*argv, "--in", str(path))
        assert_usage_error(code, err)
        assert "rows_bottom_up" in err


def test_count_trapezoids_nonpositive_order_is_usage_error():
    for n in ("0", "-3"):
        code, out, err = run_process("count", "trapezoids", "--n", n)
        assert_usage_error(code, err)
        assert out == ""


def test_nonpositive_jobs_is_usage_error():
    for jobs in ("0", "-3"):
        code, out, err = run_process("--jobs", jobs, "table", "--which", "a_nk", "--n", "3")
        assert_usage_error(code, err)
        assert "--jobs" in err and out == ""


def test_convert_zero_width_is_usage_error(tmp_path):
    trap = {
        "kind": "monotone_trapezoid",
        "d": 2,
        "m": 4,
        "rows_bottom_up": [[1, 3, 4, 6], [2, 4, 5], [3, 4]],
        "ambient_n": 6,
    }
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(trap))
    code, out, err = run_process("convert", "--in", str(path), "--to", "partial_asm", "--n", "0")
    assert_usage_error(code, err)
    assert "--n must be positive" in err and out == ""


def test_convert_to_empty_top_row_is_usage_error(tmp_path):
    path = tmp_path / "pasm.json"
    path.write_text(json.dumps({"kind": "partial_asm", "n": 2, "rows": [[1, 0], [0, 1]]}))
    code, out, err = run_process("convert", "--in", str(path), "--to", "trapezoid", "--bottom", "1,2")
    assert_usage_error(code, err)
    assert out == "" and len(err.splitlines()) == 1


@pytest.mark.parametrize("which", ["a_nij", "b_nij"])
def test_table_rows_over_jobs_are_byte_identical(which):
    code_s, serial, _ = run_process("table", "--which", which, "--n", "30")
    code_p, parallel, _ = run_process("--jobs", "2", "table", "--which", which, "--n", "30")
    assert code_s == code_p == 0
    assert serial == parallel
    assert len(serial.splitlines()) == 30 * 30


def test_table_beyond_the_int_str_digit_limit():
    # A_200 has 4,545 digits; str() refuses more than 4,300 by default
    code_s, serial, err_s = run_process("table", "--which", "asm_total", "--n", "200")
    code_p, parallel, err_p = run_process("--jobs", "2", "table", "--which", "asm_total", "--n", "200")
    assert code_s == code_p == 0 and err_s == err_p == ""
    assert serial == parallel
    lines = serial.splitlines()
    assert len(lines) == 200
    assert lines[-1] == f"200,{decimal(asmlab.asm_total(200))}"
    assert len(lines[-1]) == len("200,") + 4545


OBJECTS_BY_KIND = {
    "monotone_triangle": {"kind": "monotone_triangle", "rows_bottom_up": [[1, 2, 3], [1, 3], [2]]},
    "asm": {"kind": "asm", "rows": [[0, 1, 0], [1, -1, 1], [0, 1, 0]]},
    "monotone_trapezoid": {
        "kind": "monotone_trapezoid",
        "d": 2,
        "m": 3,
        "rows_bottom_up": [[1, 2, 3], [1, 3]],
        "ambient_n": 3,
    },
    "partial_asm": {"kind": "partial_asm", "n": 3, "rows": [[0, 1, 0]]},
}
CONVERT_SOURCES = {
    "asm": "monotone_triangle",
    "triangle": "asm",
    "partial_asm": "monotone_trapezoid",
    "trapezoid": "partial_asm",
}


@pytest.mark.parametrize(
    "to, kind",
    [(to, kind) for to, source in CONVERT_SOURCES.items() for kind in OBJECTS_BY_KIND if kind != source],
)
def test_convert_names_the_expected_kind(tmp_path, capsys, to, kind):
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(OBJECTS_BY_KIND[kind]))
    code, out, err = run(capsys, "convert", "--in", str(path), "--to", to, "--n", "3", "--bottom", "1,2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"expects a {CONVERT_SOURCES[to]} object" in err
    assert "attribute" not in err


def test_convert_fault_exits_three(tmp_path, capsys, monkeypatch):
    from asmlab import objects

    def broken(triangle):
        raise AttributeError("planted fault")

    monkeypatch.setattr(objects, "triangle_to_asm", broken)
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(OBJECTS_BY_KIND["monotone_triangle"]))
    code, out, err = run(capsys, "convert", "--in", str(path), "--to", "asm")
    assert code == 3 and out == ""
    assert err == "error: AttributeError: planted fault\n"
