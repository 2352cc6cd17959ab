"""Exact enumeration, polynomial identities, and closed forms for refined
alternating-sign-matrix counts.

`import asmlab` loads no layer.  Each public name is listed once below, under
the module that defines it, and that module is imported on first access to
one of its names (PEP 562).
"""

from importlib import import_module

_NAMES = {
    "closed_forms": (
        "a_nij",
        "a_nij_direct",
        "a_nk",
        "asm_total",
        "check_near_symmetry",
        "stroganov_b",
    ),
    "coefficients": (
        "CoefficientTable",
        "IndexTuplePair",
        "check_circuit",
        "check_cyclic",
        "check_gamma_formula",
        "check_reflection_translation",
        "check_remark_symmetry",
        "check_system",
        "coefficient_table",
        "extract_coefficient",
        "gamma_formula_value",
        "reconstruct_expansion",
        "verify_theorem7",
    ),
    "enumeration": (
        "BottomRowSpec",
        "GammaSpec",
        "RefinedCounts",
        "count_trapezoids",
        "count_triangles",
        "enumerate_triangles",
        "gamma_count",
        "refined_counts",
        "special_point",
    ),
    "objects": (
        "Asm",
        "MonotoneTrapezoid",
        "MonotoneTriangle",
        "PartialAsm",
        "Verdict",
        "asm_reflect_antidiagonal",
        "asm_reflect_horizontal",
        "asm_rotate_90",
        "asm_to_triangle",
        "partial_asm_to_trapezoid",
        "reflect_antidiagonal",
        "reflect_horizontal",
        "rotate_90",
        "trapezoid_to_partial_asm",
        "triangle_to_asm",
        "validate",
    ),
    "polynomials": (
        "BinomialPoly",
        "TermCapExceeded",
        "alpha_via_operator",
        "alpha_via_recursion",
        "apply_sigma",
        "summation_operator",
        "vandermonde",
    ),
    "reports": ("VerificationReport",),
}

#: public name -> the module that defines it
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
