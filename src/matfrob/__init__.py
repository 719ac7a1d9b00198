"""Matrix functions on real Jordan structure, with strong Perron-Frobenius
and eventual-positivity checks.

The public surface is what a caller of the preservation equivalence uses:
the tolerance and error types (core), planted and extracted real Jordan
factors (jordan), the scalar function nodes and matrix_function (funcalc),
and the property checks tying the scalar conditions to the matrix-level
outcome (perron). Block builders, dense kernels and report classes stay in
their submodules.
"""

from .core import (
    DimensionMismatchError,
    MatFrobError,
    PreconditionError,
    SingularMatrixError,
    SolverConvergenceError,
    Tolerance,
)
from .funcalc import (
    Abs,
    ConjugateSymmetryError,
    DomainError,
    Exp,
    Monomial,
    NonDifferentiableError,
    NonRealResultError,
    NotDefinedOnSpectrumError,
    NotEntireError,
    Polynomial,
    PrincipalRoot,
    ScaledSum,
    SpectralFunction,
    matrix_function,
    taylor_oracle,
)
from .jordan import (
    DefectiveMatrixError,
    IllConditionedError,
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
    "DimensionMismatchError",
    "SingularMatrixError",
    "SolverConvergenceError",
    "PreconditionError",
    "JordanSpec",
    "RealJordanFactors",
    "synthesize_matrix",
    "extract_diagonalizable_structure",
    "DefectiveMatrixError",
    "IllConditionedError",
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
    "DomainError",
    "NonDifferentiableError",
    "ConjugateSymmetryError",
    "NonRealResultError",
    "NotEntireError",
    "NotDefinedOnSpectrumError",
    "strong_pf_check",
    "eventually_positive_check",
    "power_threshold",
    "frobenius_check",
    "verify_preservation_theorem",
]
