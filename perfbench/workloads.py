"""The benchmark's workloads, built from four stages.

Each stage has two halves: `*_inputs(rng)` draws the seeded inputs (part of
set-up), and the stage function makes every layer call through the recorder
and checks every case it examines against a source independent of the code
path being timed:

- extract-n6  coefficient extraction from alpha_6 vs brute-force trapezoid
              counts; the operator-product alpha_5 vs the recursion.
- expand-n5   dense coefficient tables vs trapezoid counts and vs their own
              binomial re-expansion; the gamma finite-difference formula vs
              the anchored partial-triangle count.
- oracle-n7   exhaustive refined counts vs the closed forms; triangle
              symmetry maps vs their matrix counterparts; the row DP vs its
              reversal-negated image; the a_nij table vs a_nij_direct.
- cli-batch   one fresh `asmlab` process per command, its output checked
              against library oracles computed in the benchmark process.

The benchmark runs them as two workloads of two stages each (WORKLOADS at
the end): the polynomial side and the oracle-plus-CLI side.  Each stage
alone is too short to time steadily on a host whose speed drifts by 20-40 %
over tens of seconds; two workloads leave room for runs twice as long.

Layer calls are made one at a time (no `verify_theorem7`, no hidden alpha
build inside the first extraction) so that each layer's time lands on it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import combinations

from asmlab import coefficients, enumeration, objects
from asmlab.closed_forms import a_nij, a_nij_direct, a_nk, asm_total, stroganov_b
from asmlab.coefficients import (
    IndexTuplePair,
    coefficient_table,
    extract_coefficient,
    gamma_formula_value,
    reconstruct_expansion,
)
from asmlab.enumeration import (
    GammaSpec,
    count_trapezoids,
    count_triangles,
    enumerate_triangles,
    gamma_count,
    refined_counts,
    special_point,
)
from asmlab.objects import (
    MonotoneTriangle,
    asm_reflect_antidiagonal,
    asm_reflect_horizontal,
    asm_rotate_90,
    asm_to_triangle,
    reflect_antidiagonal,
    reflect_horizontal,
    rotate_90,
    triangle_to_asm,
)
from asmlab.polynomials import alpha_via_operator, alpha_via_recursion

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch and trace output of the benchmark, inside the checkout
OUT_DIR = os.path.join(ROOT, ".perfbench")


def strict_pairs(n: int, c: int, d: int) -> list:
    """All (s, i) with strictly increasing s in [1,n]^c and i in [1,n]^d."""
    return [
        (s, i)
        for s in combinations(range(1, n + 1), c)
        for i in combinations(range(1, n + 1), d)
    ]


def gamma_domain_ok(n: int, s: tuple, i: tuple) -> bool:
    """Domain of the gamma identity: outside it gamma_formula_value and
    gamma_count disagree by design.  Same predicate as the acceptance test
    of the anchored partial-triangle identity, kept here so the benchmark
    does not import the test suite."""
    c, d = len(s), len(i)
    if any(s[c - l] > n - l + 1 for l in range(1, c + 1)):
        return False
    if any(i[l - 1] > n - d + l for l in range(1, d + 1)):
        return False
    for l in range(1, c + 1):
        for j in range(n - d + 1, n + 1):
            r = j - l + 1
            if 1 <= r <= min(s[c - l], i[j - (n - d) - 1]):
                return False
    return True


def cache_stats() -> dict:
    """Hit ratio and entry counts of the caches the metrics follow.

    A cache that no longer exists (or is no longer an lru_cache) is left
    out, so its metrics are absent rather than zero.  A cache with no
    lookups in this workload reports a ratio of 0.
    """
    stats = {}
    for prefix, fn in (
        ("coefficients.specialize_cache", getattr(coefficients, "_specialized_alpha", None)),
        ("enumeration.row_cache", getattr(enumeration, "_count_over_row", None)),
    ):
        info = getattr(fn, "cache_info", None)
        if info is None:
            continue
        info = info()
        lookups = info.hits + info.misses
        stats[prefix + "_hit_ratio"] = info.hits / lookups if lookups else 0.0
        stats[prefix + "_entries"] = info.currsize
    return stats


# ---------------------------------------------------------------------------
# extract-n6: read side of the polynomial calculus
# ---------------------------------------------------------------------------

EXTRACT_N = 6
#: seeded cells drawn from each (c, d) class with c + d = 3 ...
EXTRACT_SAMPLE_3 = 10
#: ... and with c + d = 4; every cell with c + d <= 2 is always examined
EXTRACT_SAMPLE_4 = 1


def extract_inputs(rng) -> dict:
    n = EXTRACT_N
    cells = []
    for c in range(0, 5):
        for d in range(0, 5 - c):
            pairs = strict_pairs(n, c, d)
            if c + d == 3:
                pairs = sorted(rng.sample(pairs, EXTRACT_SAMPLE_3))
            elif c + d == 4:
                pairs = sorted(rng.sample(pairs, EXTRACT_SAMPLE_4))
            cells.extend(pairs)
    return {"cells": cells}


def operator_check(rec, n: int) -> None:
    def build_and_compare():
        with rec.span("polynomials.operator_check"):
            return alpha_via_recursion(n), alpha_via_operator(n)

    rec.case(f"alpha_via_operator({n}) == alpha_via_recursion({n})", build_and_compare)


def extraction_cells(rec, n: int, cells) -> None:
    for s, i in cells:
        def one(s=s, i=i):
            expected = rec.call("enumeration.trapezoid", count_trapezoids, n, s, i)
            rec.count("enumeration.trapezoid_calls", 1)
            actual = rec.call(
                "coefficients.extract", lambda: extract_coefficient(IndexTuplePair(n, s, i))
            )
            rec.count("coefficients.extract_calls", 1)
            return expected, actual

        rec.case(f"A({n}; {s}; {i})", one)


def extract_n6(rec, inputs) -> None:
    alpha = rec.call("polynomials.alpha_build", alpha_via_recursion, EXTRACT_N)
    rec.count("polynomials.alpha_terms", len(alpha.terms))
    operator_check(rec, EXTRACT_N - 1)
    extraction_cells(rec, EXTRACT_N, inputs["cells"])


# ---------------------------------------------------------------------------
# expand-n5: write side (tables, re-expansion, gamma formula)
# ---------------------------------------------------------------------------

EXPAND_N = 5
#: every table with c + d = EXPAND_CD is built
EXPAND_CD = 4
#: gamma specs per order n, for n in GAMMA_ORDERS
GAMMA_PER_ORDER = 20
GAMMA_ORDERS = (2, 3, 4, 5)


def expand_inputs(rng) -> dict:
    specs = []
    for n in GAMMA_ORDERS:
        drawn = 0
        while drawn < GAMMA_PER_ORDER:
            c = rng.randint(0, n)
            d = rng.randint(0, n - c)
            s = tuple(sorted(rng.randint(1, n) for _ in range(c)))
            i = tuple(sorted(rng.randint(1, n) for _ in range(d)))
            if not gamma_domain_ok(n, s, i):
                continue
            k = tuple(sorted(rng.randint(1, n + 2) for _ in range(n)))
            specs.append((n, k, s, i))
            drawn += 1
    return {"gamma": specs}


def table_and_reconstruct(rec, n: int, c: int, d: int) -> None:
    table = rec.call("coefficients.table", coefficient_table, n, c, d)
    rec.count("coefficients.table_cells", len(table.values))
    rec.check(f"table({n},{c},{d}) size", n ** (c + d), len(table.values))
    report = rec.call("coefficients.reconstruct", reconstruct_expansion, table)
    rec.check(f"reconstruct({n},{c},{d})", [], report.counterexamples)
    for s, i in strict_pairs(n, c, d):
        def one(s=s, i=i):
            expected = rec.call("enumeration.trapezoid", count_trapezoids, n, s, i)
            rec.count("enumeration.trapezoid_calls", 1)
            return expected, table[(s, i)]

        rec.case(f"table A({n}; {s}; {i})", one)


def gamma_cases(rec, specs) -> None:
    for n, k, s, i in specs:
        def one(n=n, k=k, s=s, i=i):
            spec = GammaSpec(n, k, s, i)
            formula = rec.call("coefficients.gamma_formula", gamma_formula_value, spec)
            brute = rec.call("enumeration.gamma_count", gamma_count, spec)
            return brute, formula

        rec.case(f"gamma n={n} k={k} s={s} i={i}", one)


def expand_n5(rec, inputs) -> None:
    """Runs after extract_n6, whose alpha_6 build already made alpha_5 (the
    recursion builds every lower order); alpha_5 costs 0.2 s cold."""
    for c in range(EXPAND_CD + 1):
        table_and_reconstruct(rec, EXPAND_N, c, EXPAND_CD - c)
    gamma_cases(rec, inputs["gamma"])


# ---------------------------------------------------------------------------
# oracle-n7: brute-force side, no polynomials
# ---------------------------------------------------------------------------

REFINED_N = 7
SYMMETRY_N = 6
#: bottom rows of this length, drawn from 1..ROW_MAX.  Wider ranges make the
#: cold cost of one row swing by 7x between seeds, which would swamp timing.
ROW_LEN = 8
ROW_MAX = 14
ROW_COUNT = 6
#: the reversal-negated image k -> IMAGE_SHIFT - k lies far from 1..ROW_MAX,
#: so the DP computes it over keys disjoint from the row's own
IMAGE_SHIFT = 100
CLOSED_N = 60
DIRECT_CELLS = 40


def oracle_inputs(rng) -> dict:
    rows = [tuple(sorted(rng.sample(range(1, ROW_MAX + 1), ROW_LEN))) for _ in range(ROW_COUNT)]
    cells = [(rng.randint(1, CLOSED_N), rng.randint(1, CLOSED_N)) for _ in range(DIRECT_CELLS)]
    return {"rows": rows, "direct_cells": cells}


def refined_vs_closed_forms(rec, n: int) -> None:
    counts = rec.call("enumeration.refined", refined_counts, n)
    rec.count("enumeration.triangles_enumerated", counts.total)
    with rec.span("closed_forms.count_check"):
        total = asm_total(n)
        top = [a_nk(n, k) for k in range(1, n + 1)]
        both = {(i, j): stroganov_b(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    rec.check(f"asm_total({n})", total, counts.total)
    for k in range(1, n + 1):
        rec.check(f"a_nk({n},{k})", top[k - 1], counts.top[k - 1])
    for (i, j), value in both.items():
        rec.check(f"stroganov_b({n},{i},{j})", value, counts.top_bottom.get((i, j), 0))


def symmetry_image(triangle):
    """Each triangle map and bijection, paired with its matrix counterpart."""
    matrix = triangle_to_asm(triangle)
    expected = (
        triangle,
        asm_rotate_90(matrix),
        asm_reflect_antidiagonal(matrix),
        asm_reflect_horizontal(matrix),
    )
    actual = (
        asm_to_triangle(matrix),
        triangle_to_asm(rotate_90(triangle)),
        triangle_to_asm(reflect_antidiagonal(triangle)),
        triangle_to_asm(reflect_horizontal(triangle)),
    )
    return expected, actual


def symmetry_maps(rec, n: int) -> None:
    triangles = rec.call(
        "enumeration.enumerate", lambda: list(enumerate_triangles(tuple(range(1, n + 1))))
    )
    total = rec.call("closed_forms.count_check", asm_total, n)
    rec.check(f"triangles of order {n}", total, len(triangles))
    for triangle in triangles:
        rec.case(
            f"symmetry {triangle.rows}",
            lambda t=triangle: rec.call("objects.symmetry", symmetry_image, t),
        )
        rec.count("objects.triangles_mapped", 1)


def row_dp(rec, rows) -> None:
    for row in rows:
        image = tuple(IMAGE_SHIFT - k for k in reversed(row))

        def one(row=row, image=image):
            return (
                rec.call("enumeration.row_dp", count_triangles, row),
                rec.call("enumeration.row_dp", count_triangles, image),
            )

        rec.case(f"count_triangles{row} vs image", one)


def closed_form_table(rec, n: int, cells) -> None:
    table = rec.call(
        "closed_forms.table",
        lambda: [[a_nij(n, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)],
    )
    rec.count("closed_forms.cells", n * n)
    for i, j in cells:
        rec.case(
            f"a_nij({n},{i},{j})",
            lambda i=i, j=j: (
                rec.call("closed_forms.direct_check", a_nij_direct, n, i, j),
                table[i - 1][j - 1],
            ),
        )


def oracle_n7(rec, inputs) -> None:
    refined_vs_closed_forms(rec, REFINED_N)
    symmetry_maps(rec, SYMMETRY_N)
    row_dp(rec, inputs["rows"])
    closed_form_table(rec, CLOSED_N, inputs["direct_cells"])


# ---------------------------------------------------------------------------
# cli-batch: one fresh asmlab process per command
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 60
CLI_TABLE_N = 60
CLI_TABLE_CELLS = 10
CLI_COEFF_N = 6
CLI_TRAPEZOID_N = 7
CLI_TRIANGLE_N = 6
CLI_ROW_LEN = 7
CLI_ROW_MAX = 12
_MAPS = {
    "ad": asm_reflect_antidiagonal,
    "rot90": asm_rotate_90,
    "hrefl": asm_reflect_horizontal,
}


def random_triangle(rng, n: int) -> tuple:
    """A complete monotone triangle of order n, row by row by rejection."""
    rows = [tuple(range(1, n + 1))]
    while len(rows) < n:
        below = rows[-1]
        while True:
            row = tuple(rng.randint(below[j], below[j + 1]) for j in range(len(below) - 1))
            if all(a < b for a, b in zip(row, row[1:])):
                break
        rows.append(row)
    return tuple(rows)


def _strict(rng, n: int, size: int) -> tuple:
    return tuple(sorted(rng.sample(range(1, n + 1), size)))


def cli_inputs(rng) -> dict:
    c = rng.randint(0, 3)
    d = rng.randint(0, 3 - c)
    tc = rng.randint(1, 2)
    td = rng.randint(1, 2)
    return {
        "table_cells": [
            (rng.randint(1, CLI_TABLE_N), rng.randint(1, CLI_TABLE_N))
            for _ in range(CLI_TABLE_CELLS)
        ],
        "coeff": (_strict(rng, CLI_COEFF_N, c), _strict(rng, CLI_COEFF_N, d)),
        "bottom": _strict(rng, CLI_ROW_MAX, CLI_ROW_LEN),
        "trapezoid": (_strict(rng, CLI_TRAPEZOID_N, tc), _strict(rng, CLI_TRAPEZOID_N, td)),
        "triangle": random_triangle(rng, CLI_TRIANGLE_N),
        "op": rng.choice(sorted(_MAPS)),
    }


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def run_cli(rec, name: str, args):
    """One asmlab process; a non-zero exit is counted and raises, failing the
    case that made the call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = rec.call(
        name,
        subprocess.run,
        [sys.executable, "-m", "asmlab.cli", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        rec.count("cli.nonzero_exits", 1)
        raise RuntimeError(
            f"asmlab {' '.join(args)} exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')[-400:]}"
        )
    return proc.stdout


def _special_count(rec, n: int, s: tuple, i: tuple) -> int:
    """Trapezoid count from the anchored partial-triangle DP at the special
    point, independent of both count_trapezoids and extraction."""
    spec = GammaSpec(n, special_point(n, len(s), len(i)), s, i)
    return rec.call("enumeration.gamma_count", gamma_count, spec)


def cli_batch(rec, inputs) -> None:
    rec.count("cli.nonzero_exits", 0)
    rec.case("asmlab --help", lambda: (True, b"usage: asmlab" in run_cli(rec, "cli.startup", ["--help"])))

    def verify():
        lines = run_cli(
            rec, "cli.verify", ["--jobs", "2", "verify", "--suite", "all", "--n-max", "4"]
        ).decode().splitlines()
        return True, bool(lines) and all(line.endswith(": pass") for line in lines)

    rec.case("verify --n-max 4", verify)

    table_args = ["table", "--which", "a_nij", "--n", str(CLI_TABLE_N)]
    serial = {}

    def table():
        serial["out"] = run_cli(rec, "cli.table", table_args)
        rows = [line.split(",") for line in serial["out"].decode().splitlines()]
        got = {(int(i), int(j)): int(v) for i, j, v in rows}
        expected = {}
        for i, j in inputs["table_cells"]:
            expected[(i, j)] = rec.call("closed_forms.direct_check", a_nij_direct, CLI_TABLE_N, i, j)
        return (CLI_TABLE_N ** 2, expected), (len(got), {key: got.get(key) for key in expected})

    rec.case("table a_nij", table)
    rec.case(
        "table --jobs 2 is byte-identical to serial",
        lambda: (serial.get("out"), run_cli(rec, "cli.table_jobs2", ["--jobs", "2", *table_args])),
    )

    s, i = inputs["coeff"]

    def coeff():
        out = run_cli(
            rec, "cli.coeff", ["coeff", "--n", str(CLI_COEFF_N), "--s", _csv(s), "--i", _csv(i), "--method", "both"]
        ).decode().strip()
        value = _special_count(rec, CLI_COEFF_N, s, i)
        return f"extract={value} brute={value} match", out

    rec.case(f"coeff n={CLI_COEFF_N} s={s} i={i}", coeff)

    bottom = inputs["bottom"]

    def count_triangles_cli():
        out = run_cli(rec, "cli.count", ["count", "triangles", "--bottom", _csv(bottom)])
        image = tuple(IMAGE_SHIFT - k for k in reversed(bottom))
        return rec.call("enumeration.row_dp", count_triangles, image), int(out)

    rec.case(f"count triangles {bottom}", count_triangles_cli)

    ts, ti = inputs["trapezoid"]

    def count_trapezoids_cli():
        out = run_cli(
            rec, "cli.count", ["count", "trapezoids", "--n", str(CLI_TRAPEZOID_N), "--removed", _csv(ts), "--top", _csv(ti)]
        )
        return _special_count(rec, CLI_TRAPEZOID_N, ts, ti), int(out)

    rec.case(f"count trapezoids n={CLI_TRAPEZOID_N} s={ts} i={ti}", count_trapezoids_cli)

    triangle = MonotoneTriangle(inputs["triangle"])
    op = inputs["op"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"triangle-{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump(triangle.to_json_obj(), handle)
    try:
        def transform():
            out = objects.loads(run_cli(rec, "cli.objects", ["transform", "--op", op, "--in", path]))
            with rec.span("objects.symmetry"):
                return _MAPS[op](triangle_to_asm(triangle)), triangle_to_asm(out)

        rec.case(f"transform {op}", transform)

        def convert():
            out = objects.loads(run_cli(rec, "cli.objects", ["convert", "--in", path, "--to", "asm"]))
            with rec.span("objects.symmetry"):
                return triangle, asm_to_triangle(out)

        rec.case("convert to asm", convert)
    finally:
        os.remove(path)


# ---------------------------------------------------------------------------

def stages(*pairs):
    """A workload that runs the given (inputs, run) stages in order."""

    def inputs(rng):
        merged = {}
        for make_inputs, _ in pairs:
            merged.update(make_inputs(rng))
        return merged

    def run(rec, inputs):
        for _, stage in pairs:
            stage(rec, inputs)

    return inputs, run


WORKLOADS = {
    "extract-expand": stages((extract_inputs, extract_n6), (expand_inputs, expand_n5)),
    "oracle-cli": stages((oracle_inputs, oracle_n7), (cli_inputs, cli_batch)),
}
