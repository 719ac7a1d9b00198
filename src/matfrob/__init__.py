"""Matrix functions on real Jordan structure, with strong Perron-Frobenius
and eventual-positivity checks.

The public surface is what a caller of the preservation equivalence uses:
the tolerance and the error types callers tell apart (core, funcalc),
planted and extracted real Jordan factors (jordan), the scalar function
nodes and matrix_function (funcalc), and the property checks tying the
scalar conditions to the matrix-level outcome (perron). Block builders,
dense kernels and report classes stay in their submodules.
"""

from .core import (
    MatFrobError,
    PreconditionError,
    Tolerance,
)
from .funcalc import (
    Abs,
    Exp,
    Monomial,
    NonRealResultError,
    NotDefinedOnSpectrumError,
    Polynomial,
    PrincipalRoot,
    ScaledSum,
    SpectralFunction,
    matrix_function,
    taylor_oracle,
)
from .jordan import (
    IllConditionedWarning,
    JordanSpec,
    RealJordanFactors,
    extract_diagonalizable_structure,
    synthesize_matrix,
)
from .perron import (
    eventually_positive_check,
    frobenius_check,
    power_threshold,
    strong_pf_check,
    verify_preservation_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "Tolerance",
    "MatFrobError",
    "PreconditionError",
    "JordanSpec",
    "RealJordanFactors",
    "synthesize_matrix",
    "extract_diagonalizable_structure",
    "IllConditionedWarning",
    "SpectralFunction",
    "Monomial",
    "PrincipalRoot",
    "Abs",
    "Exp",
    "Polynomial",
    "ScaledSum",
    "matrix_function",
    "taylor_oracle",
    "NonRealResultError",
    "NotDefinedOnSpectrumError",
    "strong_pf_check",
    "eventually_positive_check",
    "power_threshold",
    "frobenius_check",
    "verify_preservation_theorem",
]
