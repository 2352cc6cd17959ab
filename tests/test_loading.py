"""`import asmlab` loads no layer; each CLI command loads the layers it uses."""

import os
import subprocess
import sys

import pytest

import asmlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(asmlab.__file__)))

#: the public names of the package, as its eager imports listed them
PUBLIC_NAMES = """
Asm BinomialPoly BottomRowSpec CoefficientTable GammaSpec IndexTuplePair
MonotoneTrapezoid MonotoneTriangle PartialAsm RefinedCounts TermCapExceeded
Verdict VerificationReport a_nij a_nij_direct a_nk alpha_via_operator
alpha_via_recursion apply_sigma asm_reflect_antidiagonal asm_reflect_horizontal
asm_rotate_90 asm_to_triangle asm_total check_circuit check_cyclic
check_gamma_formula check_near_symmetry check_reflection_translation
check_remark_symmetry check_system coefficient_table count_trapezoids
count_triangles enumerate_triangles extract_coefficient gamma_count
gamma_formula_value partial_asm_to_trapezoid reconstruct_expansion
refined_counts reflect_antidiagonal reflect_horizontal rotate_90 special_point
stroganov_b summation_operator trapezoid_to_partial_asm triangle_to_asm
validate vandermonde verify_theorem7
""".split()


def loaded_after(code: str) -> list[str]:
    """The asmlab submodules loaded in a fresh interpreter that runs `code`."""
    report = "print(sorted(m[7:] for m in sys.modules if m.startswith('asmlab.')))"
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{report}"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return eval(proc.stdout.splitlines()[-1])


def test_import_asmlab_loads_no_layer():
    assert loaded_after("import asmlab") == []


def test_help_loads_no_layer():
    code = "from asmlab.cli import main\ntry:\n    main(['--help'])\nexcept SystemExit:\n    pass"
    assert loaded_after(code) == ["cli"]


# every command loads `polynomials` to read ASMLAB_TERM_CAP
@pytest.mark.parametrize(
    "argv, layers",
    [
        (["table", "--which", "a_nij", "--n", "4"], ["closed_forms", "polynomials", "reports"]),
        (["count", "triangles", "--bottom", "1,2,4"], ["enumeration", "objects", "polynomials"]),
        (["count", "trapezoids", "--n", "4", "--top", "2"], ["enumeration", "objects", "polynomials"]),
        (["transform", "--op", "rot90", "--in", "{tri}"], ["objects", "polynomials"]),
        (["convert", "--in", "{tri}", "--to", "asm"], ["objects", "polynomials"]),
    ],
    ids=["table", "count-triangles", "count-trapezoids", "transform", "convert"],
)
def test_a_command_loads_only_its_layers(tmp_path, argv, layers):
    tri = tmp_path / "tri.json"
    tri.write_text('{"kind": "monotone_triangle", "rows_bottom_up": [[1, 2], [2]]}')
    argv = [arg.format(tri=tri) for arg in argv]
    code = f"from asmlab.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code) == sorted(["cli", *layers])


def test_public_names_are_unchanged():
    assert asmlab.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(asmlab))


def test_every_public_name_is_the_object_of_its_home_module():
    for name in asmlab.__all__:
        obj = getattr(asmlab, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("asmlab.") and getattr(home, name) is obj, name


def test_star_import_binds_every_public_name():
    code = "namespace = {}\nexec('from asmlab import *', namespace)\nprint(sorted(set(namespace) - {'__builtins__'}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert eval(proc.stdout) == PUBLIC_NAMES


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        asmlab.no_such_name  # noqa: B018
    assert not hasattr(asmlab, "polynomial")
