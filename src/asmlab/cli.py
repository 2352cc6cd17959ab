"""Command-line interface.

Subcommands: count, coeff, table, verify, transform, convert.  All counts are
printed as decimal strings and never as JSON numbers; output is byte-identical
across runs for identical arguments.  Exit status: 0 success / all checks
pass, 1 verification failure, 2 usage error (bad arguments or input files, a
malformed ASMLAB_TERM_CAP, an order whose polynomials could outgrow that cap
or, past 256, have exponents past the 255 their keys hold, both refused before
any work, or a stdout closed before all output was written, as by `| head -1`),
3 any other error; an error prints one `error:` line on stderr and no
traceback.  A closed stderr drops warnings and the `error:` line and changes
no exit status.

Each command imports only the layers it uses, and `--help` loads none.  Every
command loads `polynomials`, which reads ASMLAB_TERM_CAP.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

USAGE_ERROR = 2
VERIFY_FAILURE = 1
INTERNAL_ERROR = 3


class UsageError(Exception):
    pass


def _int_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def _stderr(line: str) -> None:
    """Print one line on stderr.  A closed stderr drops it, so the exit status
    still tells what happened."""
    if sys.stderr is None:  # started with no stderr at all
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _warn(args, message: str) -> None:
    if not args.quiet:
        _stderr(f"warning: {message}")


def _warn_brute_force(args, n) -> None:
    """`count_trapezoids` has no bound in n; warn past the cap that
    `count triangles` applies to its bottom row."""
    from .enumeration import SINGLE_COUNT_CAP

    if n > SINGLE_COUNT_CAP:
        _warn(args, f"brute-force count for n above {SINGLE_COUNT_CAP}; this may take a while")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_count(args) -> int:
    from . import enumeration

    if args.family == "triangles":
        bottom = _int_list(args.bottom)
        if len(bottom) > enumeration.SINGLE_COUNT_CAP:
            _warn(args, f"bottom row longer than {enumeration.SINGLE_COUNT_CAP}; this may take a while")
        try:
            spec = enumeration.BottomRowSpec(bottom, weak_bottom=args.weak)
        except ValueError as exc:
            raise UsageError(str(exc))
        print(enumeration.count_triangles(spec))
    else:
        if args.n is None:
            raise UsageError("count trapezoids requires --n")
        s = _int_list(args.removed)
        i = _int_list(args.top)
        _warn_brute_force(args, args.n)
        try:
            print(enumeration.count_trapezoids(args.n, s, i))
        except ValueError as exc:
            raise UsageError(str(exc))
    return 0


def cmd_coeff(args) -> int:
    from . import coefficients, enumeration

    n = args.n
    s = _int_list(args.s)
    i = _int_list(args.i)
    if args.method in ("brute", "both"):
        _warn_brute_force(args, n)
    try:
        pair = coefficients.IndexTuplePair(n, s, i)
        if args.method in ("extract", "both"):
            # an order whose alpha_n has exponents past 255 raises ValueError too
            extracted = coefficients.extract_coefficient(pair)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.method in ("brute", "both"):
        try:
            brute = enumeration.count_trapezoids(n, s, i)
        except ValueError as exc:
            raise UsageError(f"brute-force counting needs strictly increasing tuples: {exc}")
    if args.method == "extract":
        print(extracted)
    elif args.method == "brute":
        print(brute)
    else:
        match = "match" if extracted == brute else "MISMATCH"
        print(f"extract={extracted} brute={brute} {match}")
        if extracted != brute:
            return VERIFY_FAILURE
    return 0


def _grid_rows(which, n):
    """CSV rows (lists of strings) for one table kind."""
    from . import closed_forms
    from .reports import decimal

    if which == "asm_total":
        return [[str(m), decimal(closed_forms.asm_total(m))] for m in range(1, n + 1)]
    if which == "a_nk":
        return [[str(k), decimal(closed_forms.a_nk(n, k))] for k in range(1, n + 1)]
    fn = closed_forms.stroganov_b if which == "b_nij" else closed_forms.a_nij
    cells = range(1, n + 1)
    return [[str(i), str(j), decimal(fn(n, i, j))] for i in cells for j in cells]


def cmd_table(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be positive")
    try:
        rows = _grid_rows(args.which, args.n)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "csv":
        for row in rows:
            print(",".join(row))
    else:
        print(json.dumps(rows))
    return 0


def _verify_cases(suite: str, n_max: int):
    """Ordered (label, check, args); check(*args) returns a VerificationReport."""
    from . import closed_forms, coefficients

    if suite in ("theorem7", "all"):
        for n in range(1, n_max + 1):
            for c in range(0, n + 1):
                for d in range(0, n - c + 1):
                    yield f"theorem7 n={n} c={c} d={d}", coefficients.verify_theorem7, (n, c, d)
    if suite in ("identities", "all"):
        for n in range(1, n_max + 1):
            yield f"cyclic n={n}", coefficients.check_cyclic, (n,)
            for z in (-3, 1, 5):
                yield f"reflection/translation n={n} z={z}", coefficients.check_reflection_translation, (n, z)
            for c in range(0, n + 1):
                for d in range(0, n + 1 - c):
                    if 1 <= c + d <= 3:
                        # at t = 0 both sides read the same table
                        for t in range(1, c + 1):
                            yield f"circuit n={n} c={c} d={d} t={t}", coefficients.check_circuit, (n, c, d, t)
            for d in (1, 2):
                if d <= n:
                    yield f"system n={n} d={d}", coefficients.check_system, (n, d)
            # one line per unordered {c, d}: (n, d, c) would repeat the
            # equalities of (n, c, d) reversed, and (n, 0, 0) compare its
            # one cell with itself
            for c in range(0, n + 1):
                for d in range(max(c, 1), n + 1 - c):
                    yield f"symmetry n={n} c={c} d={d}", coefficients.check_remark_symmetry, (n, c, d)
            if n >= 3:
                yield f"near-symmetry n={n}", closed_forms.check_near_symmetry, (n,)


def cmd_verify(args) -> int:
    from . import enumeration
    from .polynomials import check_order

    if args.n_max < 1:
        raise UsageError("--n-max must be positive; a check of zero cases is not a pass")
    try:
        check_order(args.n_max)  # before the first line; TermCapExceeded exits 2 in main
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.n_max > enumeration.EXHAUSTIVE_FAMILY_CAP:
        _warn(args, f"exhaustive verification beyond n={enumeration.EXHAUSTIVE_FAMILY_CAP} may be very slow")
    failures = []
    for label, check, check_args in _verify_cases(args.suite, args.n_max):
        report = check(*check_args)
        line = f"{label}: {report.status}"
        print(line)
        if not report.passed():
            failures.append(report)
    if failures:
        for report in failures:
            print(report.to_json())
        return VERIFY_FAILURE
    return 0


def _load_object(args, kind: str):
    """The object in the file of `--in`; a usage error unless it is of `kind`."""
    from . import objects

    try:
        with open(args.infile) as handle:
            value = json.load(handle)
        obj = objects.from_json_obj(value)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read object from {args.infile}: {exc}")
    if value["kind"] != kind:
        raise UsageError(f"{args.command} expects a {kind} object")
    return obj


def cmd_transform(args) -> int:
    from . import objects

    obj = _load_object(args, "monotone_triangle")
    ops = {
        "ad": objects.reflect_antidiagonal,
        "rot90": objects.rotate_90,
        "hrefl": objects.reflect_horizontal,
    }
    try:
        result = ops[args.op](obj)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(objects.dumps(result))
    return 0


def cmd_convert(args) -> int:
    from . import objects

    try:
        if args.to == "asm":
            result = objects.triangle_to_asm(_load_object(args, "monotone_triangle"))
        elif args.to == "triangle":
            result = objects.asm_to_triangle(_load_object(args, "asm"))
        elif args.to == "partial_asm":
            obj = _load_object(args, "monotone_trapezoid")
            n = obj.ambient_n if args.n is None else args.n
            if n is None:
                raise UsageError("converting a trapezoid requires --n (ambient width)")
            if n < 1:
                raise UsageError("--n must be positive")
            result = objects.trapezoid_to_partial_asm(obj, n)
        else:  # trapezoid
            obj = _load_object(args, "partial_asm")
            bottom = _int_list(args.bottom or "")
            if not bottom:
                raise UsageError("converting a partial ASM requires --bottom")
            result = objects.partial_asm_to_trapezoid(obj, bottom)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(objects.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmlab",
        description="Exact enumeration and verification of refined alternating-sign-matrix counts.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress/warnings on stderr")
    parser.add_argument("--jobs", type=int, default=1, help="accepted (N >= 1); runs in one process")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count triangles or trapezoids")
    p.add_argument("family", choices=["triangles", "trapezoids"])
    p.add_argument("--bottom", default="", help="comma-separated bottom row (triangles)")
    p.add_argument("--weak", action="store_true", help="allow weakly increasing bottom row")
    p.add_argument("--n", type=int, help="ambient size (trapezoids)")
    p.add_argument("--removed", default="", help="columns removed from the bottom row")
    p.add_argument("--top", default="", help="prescribed top row")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("coeff", help="one expansion coefficient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", default="")
    p.add_argument("--i", default="")
    p.add_argument("--method", choices=["extract", "brute", "both"], default="extract")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("table", help="closed-form tables")
    p.add_argument("--which", choices=["a_nk", "b_nij", "a_nij", "asm_total"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the verification harness")
    p.add_argument("--suite", choices=["theorem7", "identities", "all"], default="all")
    p.add_argument("--n-max", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="apply a symmetry map to a triangle")
    p.add_argument("--op", choices=["ad", "rot90", "hrefl"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("convert", help="convert between object representations")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--to", choices=["asm", "triangle", "partial_asm", "trapezoid"], required=True)
    p.add_argument("--n", type=int, help="ambient width for trapezoid conversion")
    p.add_argument("--bottom", help="bottom row for partial-ASM reconstruction")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # exits on --help before any layer loads
    from .polynomials import TermCapExceeded

    try:
        if args.jobs < 1:
            raise UsageError("--jobs must be positive")
        _check_term_cap()
        code = args.func(args)
        if sys.stdout is not None:  # None when started with no stdout, as by `>&-`
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; output still buffered goes to devnull, so
        # the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _stderr("error: stdout was closed before all output was written")
        return USAGE_ERROR
    except (UsageError, TermCapExceeded) as exc:
        _stderr(f"error: {exc}")
        return USAGE_ERROR
    except Exception as exc:
        _stderr(f"error: {type(exc).__name__}: {exc}")
        return INTERNAL_ERROR


def _check_term_cap() -> None:
    """Reject a malformed ASMLAB_TERM_CAP before any work starts."""
    from .polynomials import term_cap

    try:
        term_cap()
    except ValueError as exc:
        raise UsageError(str(exc))


if __name__ == "__main__":
    sys.exit(main())
