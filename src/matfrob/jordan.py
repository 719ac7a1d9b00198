"""Real Jordan structure: block builders, synthesis, extraction.

A real matrix is carried around in factored form ``A = R J R^{-1}`` where J
is block diagonal with real Jordan blocks for real eigenvalues and, for each
conjugate eigenvalue pair, a block built from 2x2 rotation-scaling blocks.
Keeping the factors explicit is what lets the function calculus act per
block instead of re-deriving structure from raw entries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    DimensionMismatchError,
    MatFrobError,
    SingularMatrixError,
    Tolerance,
    as_real_matrix,
    eigen_decompose,
    mat_inverse,
    max_abs,
    norm_inf,
    require_square,
)

__all__ = [
    "DefectiveMatrixError",
    "IllConditionedError",
    "IllConditionedWarning",
    "JordanSpec",
    "RealJordanFactors",
    "jordan_block",
    "rotation_block",
    "real_jordan_block",
    "block_diag",
    "assemble_real_jordan",
    "synthesize_matrix",
    "extract_diagonalizable_structure",
]

CONDITION_WARN = 1e6
CONDITION_HARD = 1e8


class DefectiveMatrixError(MatFrobError):
    """Raw-entry extraction hit a (numerically) defective eigenstructure."""


class IllConditionedError(MatFrobError):
    """Transform condition number exceeds the hard limit."""


class IllConditionedWarning(UserWarning):
    """Transform condition number exceeds the warning threshold."""


@dataclass(frozen=True)
class JordanSpec:
    """Prescribed real Jordan structure.

    real_blocks holds (eigenvalue, size) pairs, one per real Jordan block.
    complex_blocks holds (eigenvalue, size) pairs keyed by the representative
    with strictly positive imaginary part; the conjugate partner block is
    implicit. Block order is preserved verbatim by every consumer.
    """

    real_blocks: tuple[tuple[float, int], ...] = ()
    complex_blocks: tuple[tuple[complex, int], ...] = ()

    def __post_init__(self) -> None:
        real = tuple((float(lam), int(n)) for lam, n in self.real_blocks)
        cplx = tuple((complex(lam), int(n)) for lam, n in self.complex_blocks)
        object.__setattr__(self, "real_blocks", real)
        object.__setattr__(self, "complex_blocks", cplx)
        for _, n in real:
            if n < 1:
                raise ValueError(f"block size must be at least 1, got {n}")
        for lam, n in cplx:
            if n < 1:
                raise ValueError(f"block size must be at least 1, got {n}")
            if not lam.imag > 0.0:
                raise ValueError(
                    "complex pair representative must have positive imaginary "
                    f"part, got {lam}"
                )
        if not real and not cplx:
            raise ValueError("spec needs at least one block")

    @property
    def total_dimension(self) -> int:
        return sum(n for _, n in self.real_blocks) + 2 * sum(
            n for _, n in self.complex_blocks
        )

    def eigenvalue_multiset(self) -> list[complex]:
        """All eigenvalues with multiplicity, conjugate partners included."""
        out: list[complex] = []
        for lam, n in self.real_blocks:
            out.extend([complex(lam)] * n)
        for lam, n in self.complex_blocks:
            out.extend([lam] * n)
            out.extend([lam.conjugate()] * n)
        return out

    def distinct_eigenvalues(self) -> list[tuple[complex, int]]:
        """Distinct eigenvalues with their index (largest block size seen).

        Eigenvalues are grouped by exact value, since spec eigenvalues are
        exact data; conjugate partners of the complex blocks appear as
        their own entries.
        """
        index: dict[complex, int] = {}
        for lam, n in self.real_blocks:
            index[complex(lam)] = max(index.get(complex(lam), 0), n)
        for lam, n in self.complex_blocks:
            for z in (lam, lam.conjugate()):
                index[z] = max(index.get(z, 0), n)
        return list(index.items())


def jordan_block(lam: complex, size: int) -> np.ndarray:
    """Upper bidiagonal block: `lam` on the diagonal, ones above it."""
    if size < 1:
        raise ValueError(f"block size must be at least 1, got {size}")
    m = np.zeros((size, size), dtype=complex)
    np.fill_diagonal(m, complex(lam))
    idx = np.arange(size - 1)
    m[idx, idx + 1] = 1.0
    return m


def rotation_block(lam: complex) -> np.ndarray:
    """2x2 real block [[Re, Im], [-Im, Re]] acting as multiplication by lam."""
    lam = complex(lam)
    return np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])


def real_jordan_block(lam: complex, size: int) -> np.ndarray:
    """2*size square real block for the conjugate pair (lam, conj lam).

    Rotation blocks of lam sit on the 2x2 block diagonal with identity
    blocks directly above them, the real analogue of a Jordan block.
    """
    if size < 1:
        raise ValueError(f"block size must be at least 1, got {size}")
    lam = complex(lam)
    m = np.zeros((2 * size, 2 * size))
    rb = rotation_block(lam)
    for i in range(size):
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rb
        if i + 1 < size:
            m[2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4] = np.eye(2)
    return m


def block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Direct sum of square blocks; complex if any block is complex."""
    if not blocks:
        raise ValueError("need at least one block")
    n = sum(b.shape[0] for b in blocks)
    dtype = complex if any(np.iscomplexobj(b) for b in blocks) else float
    out = np.zeros((n, n), dtype=dtype)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def assemble_real_jordan(spec: JordanSpec) -> np.ndarray:
    """Block diagonal real matrix realizing the spec, in spec order."""
    blocks: list[np.ndarray] = []
    for lam, n in spec.real_blocks:
        blocks.append(jordan_block(lam, n).real)
    for lam, n in spec.complex_blocks:
        blocks.append(real_jordan_block(lam, n))
    return block_diag(blocks)


@dataclass(frozen=True)
class RealJordanFactors:
    """Explicit factorization A = transform @ J(spec) @ transform_inverse.

    Arrays are stored read-only; consumers copy before mutating.
    """

    spec: JordanSpec
    transform: np.ndarray
    transform_inverse: np.ndarray

    def __post_init__(self) -> None:
        r = as_real_matrix(self.transform).copy()
        ri = as_real_matrix(self.transform_inverse).copy()
        require_square(r)
        n = self.spec.total_dimension
        if r.shape != (n, n) or ri.shape != (n, n):
            raise DimensionMismatchError(
                f"transform shape {r.shape} does not match spec dimension {n}"
            )
        resid = max_abs(r @ ri - np.eye(n))
        if resid > 1e-6 * max(1.0, max_abs(r) * max_abs(ri)):
            raise ValueError(
                f"transform_inverse is not an inverse (residual {resid:.3e})"
            )
        r.setflags(write=False)
        ri.setflags(write=False)
        object.__setattr__(self, "transform", r)
        object.__setattr__(self, "transform_inverse", ri)

    def reconstruct(self) -> np.ndarray:
        """The real matrix these factors represent."""
        return self.transform @ assemble_real_jordan(self.spec) @ self.transform_inverse


def synthesize_matrix(
    spec: JordanSpec, transform, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, RealJordanFactors]:
    """Build A = R J R^{-1} from a spec and an invertible real transform.

    The transform's condition number is estimated up front: above 1e6 a
    warning is issued, above 1e8 the synthesis is refused since the factored
    structure would be numerically meaningless.
    """
    r = as_real_matrix(transform)
    require_square(r)
    if r.shape[0] != spec.total_dimension:
        raise DimensionMismatchError(
            f"transform is {r.shape[0]}x{r.shape[1]} but the spec has total "
            f"dimension {spec.total_dimension}"
        )
    s = np.linalg.svd(r, compute_uv=False)
    if s[-1] <= tol.abs_eps:
        raise SingularMatrixError(
            f"transform is singular to tolerance (smallest singular value {s[-1]:.3e})"
        )
    cond = float(s[0] / s[-1])
    if cond > CONDITION_HARD:
        raise IllConditionedError(
            f"transform condition estimate {cond:.3e} exceeds {CONDITION_HARD:.0e}"
        )
    if cond > CONDITION_WARN:
        warnings.warn(
            f"transform condition estimate {cond:.3e} exceeds {CONDITION_WARN:.0e}; "
            "results may lose up to that many digits",
            IllConditionedWarning,
            stacklevel=2,
        )
    r_inv = mat_inverse(r, tol)
    a = r @ assemble_real_jordan(spec) @ r_inv
    return a, RealJordanFactors(spec=spec, transform=r, transform_inverse=r_inv)


def _cluster_indices(w: np.ndarray, radius: float) -> list[list[int]]:
    """Single-linkage clusters of eigenvalues at the given radius.

    The close pairs come from one vectorized distance test; only they are
    united.
    """
    n = len(w)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    close = np.triu(np.abs(w[:, None] - w[None, :]) < radius, k=1)
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(close))):
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def extract_diagonalizable_structure(
    a, tol: Tolerance = DEFAULT_TOL
) -> RealJordanFactors:
    """Recover real Jordan factors of a diagonalizable real matrix.

    Only diagonalizable structure is read off raw entries; deciding true
    Jordan structure from floats is ill-posed. Eigenvalues closer than
    1e-6 * ||A||_inf are clustered, and a cluster whose eigenvector block is
    rank deficient (so numerically defective) raises DefectiveMatrixError
    telling the caller to supply explicit factors via synthesize_matrix
    instead. Each conjugate pair is read from its member with positive
    imaginary part, whose eigenvector's real and imaginary parts span the
    pair's real invariant subspace. A pair with imaginary part at most
    1e-12 * max(rho(A), 1) is a real double eigenvalue that rounding split:
    it becomes two real eigenvalues at its real part, with the same two
    spanning columns.
    """
    m = as_real_matrix(a)
    require_square(m)
    w, v = eigen_decompose(m)
    scale = norm_inf(m)
    for idx in _cluster_indices(w, 1e-6 * scale):
        if len(idx) == 1:
            continue
        block = v[:, idx]
        smax = float(np.linalg.svd(block, compute_uv=False)[0])
        rank = int(np.linalg.matrix_rank(block, tol=1e-8 * max(smax, 1.0)))
        if rank < len(idx):
            raise DefectiveMatrixError(
                f"eigenvalue cluster near {w[idx[0]]:.6g} has multiplicity "
                f"{len(idx)} but only {rank} independent eigenvector(s); the "
                "matrix is defective to tolerance. Build it from explicit "
                "factors via synthesize_matrix instead."
            )

    real_lams: list[float] = []
    real_cols: list[np.ndarray] = []
    pair_lams: list[complex] = []
    pair_cols: list[tuple[np.ndarray, np.ndarray]] = []
    split = 1e-12 * max(float(np.max(np.abs(w))), 1.0)
    for i, lam in enumerate(w):
        if lam.imag < 0.0:
            continue  # exact conjugate of the pair member read just before
        col = v[:, i]
        k = int(np.argmax(np.abs(col)))
        col = col / col[k]
        if lam.imag == 0.0:
            real_lams.append(float(lam.real))
            real_cols.append(col.real.copy())
        elif lam.imag <= split:
            # a real semisimple double eigenvalue split by rounding
            real_lams.extend([float(lam.real)] * 2)
            real_cols.extend([col.real.copy(), col.imag.copy()])
        else:
            pair_lams.append(complex(lam))
            pair_cols.append((col.real.copy(), col.imag.copy()))

    spec = JordanSpec(
        real_blocks=tuple((lam, 1) for lam in real_lams),
        complex_blocks=tuple((lam, 1) for lam in pair_lams),
    )
    cols = list(real_cols)
    for re, im in pair_cols:
        cols.append(re)
        cols.append(im)
    r = np.column_stack(cols)
    s = np.linalg.svd(r, compute_uv=False)
    if s[-1] <= max(tol.abs_eps, 1e-12 * s[0]):
        raise DefectiveMatrixError(
            "eigenvector basis is numerically singular; the matrix is "
            "defective to tolerance. Build it from explicit factors via "
            "synthesize_matrix instead."
        )
    r_inv = mat_inverse(r, tol)
    factors = RealJordanFactors(spec=spec, transform=r, transform_inverse=r_inv)
    resid = norm_inf(factors.reconstruct() - m)
    if resid > 1e-6 * max(1.0, scale):
        raise DefectiveMatrixError(
            f"diagonalizable reconstruction residual {resid:.3e} exceeds "
            f"{1e-6 * max(1.0, scale):.3e}; the matrix is too close to "
            "defective. Build it from explicit factors via synthesize_matrix "
            "instead."
        )
    return factors
