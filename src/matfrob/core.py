"""Dense linear algebra foundation with an explicit tolerance policy.

Matrices are plain 2-d float64 numpy arrays; complex values appear only
in what a decomposition returns. Every function here is pure; arguments
are never mutated. Every threshold is relative (to a value, a norm or a
largest singular value), so none depends on the scale of the input.
Eigen decomposition goes through the real LAPACK path so complex
eigenvalues arrive in exactly conjugate pairs, which the real-Jordan
machinery downstream relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatFrobError",
    "SingularMatrixError",
    "PreconditionError",
    "Tolerance",
    "DEFAULT_TOL",
    "as_real_matrix",
    "require_square",
    "norm_inf",
    "max_abs",
    "mat_inverse",
    "condition_estimate",
    "eigen_decompose",
]


class MatFrobError(Exception):
    """Base class for every error this package raises on purpose, and the
    class of a failure that no caller tells apart from the others."""


class SingularMatrixError(MatFrobError):
    """Matrix is singular to working tolerance."""


class PreconditionError(MatFrobError):
    """A documented caller-side precondition does not hold."""


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance; every check multiplies rel_eps by a scale of its input.

    The Perron checks multiply it by ||A||_inf, and test the Perron vector,
    scaled to largest entry 1, against rel_eps itself. The conjugate-symmetry
    test on f's table multiplies it by the largest |f^(j)| on the spectrum
    at each order j; the scalar conditions by the largest |f| on the
    spectrum and at rho, and rho by 1 - rel_eps for the circle inside it.
    """

    rel_eps: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.rel_eps < float("inf"):
            raise ValueError(f"rel_eps must be finite and >= 0, got {self.rel_eps}")


DEFAULT_TOL = Tolerance()


def as_real_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-d float64 array.

    Complex input is accepted only when its imaginary part is exactly zero.
    Another shape or a non-finite entry raises PreconditionError.
    """
    m = np.asarray(a)
    if np.iscomplexobj(m):
        if np.any(m.imag != 0.0):
            raise ValueError("expected a real matrix, got nonzero imaginary entries")
        m = m.real
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise PreconditionError(f"expected a 2-d matrix, got shape {m.shape}")
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise PreconditionError(
            f"expected a finite matrix, got {m[i, j]} at [{i}, {j}]"
        )
    return m


def require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")


def norm_inf(a) -> float:
    """Induced infinity norm (max absolute row sum); max abs for vectors.

    A row sum beyond the float64 range gives inf, without a warning.
    """
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    if m.ndim == 1:
        return float(np.max(np.abs(m)))
    with np.errstate(over="ignore"):
        return float(np.max(np.sum(np.abs(m), axis=1)))


def _finite_norm(m: np.ndarray) -> float:
    """||m||_inf; a row sum that overflows float64 raises PreconditionError."""
    scale = norm_inf(m)
    if not math.isfinite(scale):
        raise PreconditionError(
            "an absolute row or column sum of the matrix overflows float64 "
            "(norm = inf); scale the matrix down"
        )
    return scale


def max_abs(a) -> float:
    """Largest entry magnitude."""
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def condition_estimate(a) -> float:
    """2-norm condition number of a real matrix; inf when singular."""
    m = as_real_matrix(a)
    require_square(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


def mat_inverse(a) -> np.ndarray:
    """Inverse of a square matrix; singular input raises.

    Singularity is decided by the smallest singular value against
    ``1e-12 * largest singular value``, so "numerically singular" rather
    than exactly so: a condition number of 1e12 or more, at any scale.
    """
    m = np.asarray(a)
    if m.ndim != 2:
        raise PreconditionError(f"expected a 2-d matrix, got shape {m.shape}")
    require_square(m)
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise SingularMatrixError(
            f"matrix is singular to tolerance (smallest singular value {s[-1]:.3e})"
        )
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SingularMatrixError(str(exc)) from exc


def _decomposable(a) -> np.ndarray:
    """`a` as a nonempty square float64 matrix, ready for LAPACK's eigensolver."""
    m = as_real_matrix(a)
    require_square(m)
    if m.shape[0] == 0:
        raise PreconditionError("cannot decompose an empty matrix")
    return m


def eigen_decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors of a square matrix.

    Returns ``(w, v)`` with ``a @ v[:, k] ~= w[k] * v[:, k]``, as LAPACK
    computes them for a real matrix: real eigenvalues with exactly zero
    imaginary part and each complex pair as exact conjugates in adjacent
    slots, positive imaginary part first, with conjugate eigenvectors.
    Eigenvector columns have unit 2-norm.
    """
    m = _decomposable(a)
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise MatFrobError(f"eigenvalue iteration failed: {exc}") from exc
    return np.asarray(w, dtype=complex), np.asarray(v, dtype=complex)


def _eigenvalues(a) -> np.ndarray:
    """The ``w`` of eigen_decompose alone; LAPACK skips the eigenvector pass.

    The same real path, so complex pairs are exact conjugates; the values
    may differ from eigen_decompose's in the last digits.
    """
    m = _decomposable(a)
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise MatFrobError(f"eigenvalue iteration failed: {exc}") from exc
    return np.asarray(w, dtype=complex)
