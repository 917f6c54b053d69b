"""Exact Jordan-Kronecker analysis of skew-symmetric and Poisson pencils.

All arithmetic is over Q (fractions.Fraction); non-rational eigenvalues
are represented by irreducible factors of polynomials over Q.

`import jkpencil` loads the error classes alone.  Every other public name
is bound on first access (a module `__getattr__`, PEP 562), which imports
the one module that defines it: a command-line call, or a user of one
layer, loads only the modules it runs.
"""

from .errors import (
    DegreeJumpError,
    DenominatorVanishesError,
    InfiniteEigenvalueError,
    InternalConsistencyError,
    JKPencilError,
    NonGenericPointError,
    PairingViolationError,
    SingularMatrixError,
    ValidationError,
)

__version__ = "0.1.0"

# The public names bound on first access, by the module that defines them.
_LAZY = {
    "linalg": ("Matrix", "Subspace", "Vector", "kernel_basis", "rank", "subspace_sum"),
    "multipoly": ("MultiPoly", "multi_gcd"),
    "pencil": (
        "INFINITY",
        "CharPoly",
        "JKInvariants",
        "JordanGroup",
        "SkewPencil",
        "canonical_pencil",
        "characteristic_polynomial",
        "congruence_transform",
        "core_subspace",
        "isotropy_certificate",
        "jk_invariants",
        "pencil_rank",
    ),
    "poisson": (
        "COMPLETE",
        "INCOMPLETE",
        "INDETERMINATE",
        "CompletenessReport",
        "FamilyCompleteness",
        "GenericCharPoly",
        "PointAnalysis",
        "PolyPoissonPencil",
        "compatibility_check",
        "completeness_check",
        "eigenvalue_lemma_check",
        "evaluate_at",
        "extended_core",
        "family_completeness",
        "generic_char_poly",
        "involution_check",
        "jacobi_check",
        "sample_generic_point",
    ),
    "structure": ("LieAlgebra", "catalog", "catalog_names", "get_algebra", "validate_lie_algebra"),
    "liealg": (
        "LiePencilSpec",
        "fa_completeness",
        "ftilde_completeness",
        "fundamental_semiinvariant",
        "jk_invariants_generic",
        "lie_pencil",
    ),
    "smith": ("smith_normal_form",),
    "unipoly": ("UniPoly", "poly_gcd", "rational_roots", "squarefree_decompose"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "DegreeJumpError",
    "DenominatorVanishesError",
    "InfiniteEigenvalueError",
    "InternalConsistencyError",
    "JKPencilError",
    "NonGenericPointError",
    "PairingViolationError",
    "SingularMatrixError",
    "ValidationError",
    *_HOME,
]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
