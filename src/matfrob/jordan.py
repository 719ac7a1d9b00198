"""Real Jordan structure: block builders, synthesis, extraction.

A real matrix is carried around in factored form ``A = R J R^{-1}`` where J
is block diagonal with real Jordan blocks for real eigenvalues and, for each
conjugate eigenvalue pair, a block built from 2x2 rotation-scaling blocks.
Keeping the factors explicit is what lets the function calculus act per
block instead of re-deriving structure from raw entries.

J and f(J) come from the same block builders, J being f(J) at f(z) = z;
RealJordanFactors.reconstruct alone forms A = R J R^{-1}.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    PreconditionError,
    SingularMatrixError,
    _finite_norm,
    as_real_matrix,
    eigen_decompose,
    mat_inverse,
    max_abs,
    norm_inf,
    require_square,
)

__all__ = [
    "IllConditionedWarning",
    "JordanSpec",
    "RealJordanFactors",
    "rotation_block",
    "block_diag",
    "func_jordan_block",
    "func_real_jordan_block",
    "assemble_real_jordan",
    "synthesize_matrix",
    "extract_diagonalizable_structure",
]

CONDITION_WARN = 1e6
CONDITION_HARD = 1e8


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


def rotation_block(lam: complex) -> np.ndarray:
    """2x2 real block [[Re, Im], [-Im, Re]] acting as multiplication by lam;
    -Im is 0.0 - Im, so a real lam gives lam times the identity exactly."""
    lam = complex(lam)
    return np.array([[lam.real, lam.imag], [0.0 - lam.imag, lam.real]])


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


def _taylor_coefficient(row, k: int) -> complex:
    """row[k] / k! part by part: complex division loses a -0.0 part's sign.
    Past 170!, beyond float64, a finite part is the exact quotient rounded
    once (possibly subnormal or zero); inf and nan stay as they are."""
    z, d = complex(row[k]), math.factorial(k)
    if k <= 170:
        return complex(z.real / d, z.imag / d)
    return complex(*(
        math.copysign(float(Fraction(x) / d), x) if math.isfinite(x) else x
        for x in (z.real, z.imag)
    ))


def func_jordan_block(row, size: int) -> np.ndarray:
    """f applied to a Jordan block of the given size, from row[k] = f^(k)(lam).

    Upper triangular Toeplitz: entry (i, i+k) equals row[k] / k!, or 0 past the row.
    """
    if size < 1:
        raise ValueError(f"block size must be at least 1, got {size}")
    m = np.zeros((size, size), dtype=complex)
    for k in range(min(size, len(row))):
        idx = np.arange(size - k)
        m[idx, idx + k] = _taylor_coefficient(row, k)
    return m


def func_real_jordan_block(row, size: int) -> np.ndarray:
    """f applied to the real block of the pair (lam, conj lam), from f^(k)(lam).

    Block upper triangular Toeplitz with rotation_block(row[k] / k!), where
    row[k] = f^(k)(lam), on the k-th block superdiagonal. This is f's value
    only when f^(k)(conj lam) = conj f^(k)(lam), which the caller tests on
    the table. Block diagonals past the row's end are zero.
    """
    if size < 1:
        raise ValueError(f"block size must be at least 1, got {size}")
    m = np.zeros((2 * size, 2 * size))
    for j in range(min(size, len(row))):
        rb = rotation_block(_taylor_coefficient(row, j))
        for i in range(size - j):
            m[2 * i : 2 * i + 2, 2 * (i + j) : 2 * (i + j) + 2] = rb
    return m


def _assemble_blocks(spec: JordanSpec, row) -> np.ndarray:
    """f(J) in spec order, from row(lam) = (f(lam), f'(lam), ...); a pair
    block reads its representative's row."""
    blocks = [func_jordan_block(row(lam), n).real for lam, n in spec.real_blocks]
    blocks += [func_real_jordan_block(row(lam), n) for lam, n in spec.complex_blocks]
    return block_diag(blocks)


def assemble_real_jordan(spec: JordanSpec) -> np.ndarray:
    """J in spec order: f(J) at f(z) = z, from the rows (lam, 1)."""
    return _assemble_blocks(spec, lambda lam: (lam, 1.0))


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
            raise PreconditionError(
                f"transform shape {r.shape} does not match spec dimension {n}"
            )
        resid = max_abs(r @ ri - np.eye(n))
        if resid > 1e-6 * max_abs(r) * max_abs(ri):
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
    spec: JordanSpec, transform
) -> tuple[np.ndarray, RealJordanFactors]:
    """Build A = R J R^{-1} from a spec and an invertible real transform.

    One SVD of the transform decides singularity (a smallest singular
    value of zero, or subnormal, whose inverse can overflow) and
    conditioning: above 1e6 an IllConditionedWarning is issued, and above
    1e8 the synthesis is refused with PreconditionError, since the factored
    structure would be numerically meaningless. No bound depends on the
    scale of R: cR gives the same A for every c != 0. An A with an entry
    beyond float64 raises PreconditionError too.
    """
    r = as_real_matrix(transform)
    require_square(r)
    if r.shape[0] != spec.total_dimension:
        raise PreconditionError(
            f"transform is {r.shape[0]}x{r.shape[1]} but the spec has total "
            f"dimension {spec.total_dimension}"
        )
    s = np.linalg.svd(r, compute_uv=False)
    if s[-1] < np.finfo(float).tiny:
        raise SingularMatrixError(
            f"transform is singular in float64 (smallest singular value {s[-1]:.3e})"
        )
    cond = float(s[0] / s[-1])
    if cond > CONDITION_HARD:
        raise PreconditionError(
            f"transform condition estimate {cond:.3e} exceeds {CONDITION_HARD:.0e}"
        )
    if cond > CONDITION_WARN:
        warnings.warn(
            f"transform condition estimate {cond:.3e} exceeds {CONDITION_WARN:.0e}; "
            "results may lose up to that many digits",
            IllConditionedWarning,
            stacklevel=2,
        )
    r_inv = np.linalg.inv(r)
    factors = RealJordanFactors(spec=spec, transform=r, transform_inverse=r_inv)
    with np.errstate(over="ignore", invalid="ignore"):
        a = factors.reconstruct()
    if not np.isfinite(a).all():
        raise PreconditionError(
            "A = R J R^-1 overflows float64; scale the eigenvalues or the "
            "transform down"
        )
    return a, factors


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


def extract_diagonalizable_structure(a) -> RealJordanFactors:
    """Recover real Jordan factors of a diagonalizable real matrix.

    Only diagonalizable structure is read off raw entries; deciding true
    Jordan structure from floats is ill-posed. Every threshold is relative,
    so none depends on the scale of A and no tolerance is read; a row sum
    beyond float64, which no threshold could be measured against, raises
    PreconditionError. Eigenvalues closer than 1e-6 * ||A||_inf are
    clustered, and a cluster whose eigenvector block has rank below its
    size (singular values under 1e-8 times the largest) raises
    PreconditionError telling the caller to
    supply explicit factors via synthesize_matrix instead; so do an
    eigenvector basis of condition 1e12 or more and a reconstruction
    residual above 1e-6 * ||A||_inf. Each conjugate pair is read from its
    member with positive imaginary part, whose eigenvector's real and
    imaginary parts span the pair's real invariant subspace. A pair with
    imaginary part at most 1e-12 * rho(A) is a real double eigenvalue that
    rounding split: it becomes two real eigenvalues at its real part, with
    the same two spanning columns.
    """
    m = as_real_matrix(a)
    require_square(m)
    scale = _finite_norm(m)
    w, v = eigen_decompose(m)
    for idx in _cluster_indices(w, 1e-6 * scale):
        if len(idx) == 1:
            continue
        s = np.linalg.svd(v[:, idx], compute_uv=False)
        rank = int(np.count_nonzero(s > 1e-8 * s[0]))
        if rank < len(idx):
            raise PreconditionError(
                f"eigenvalue cluster near {w[idx[0]]:.6g} has multiplicity "
                f"{len(idx)} but only {rank} independent eigenvector(s); the "
                "matrix is defective to tolerance. Build it from explicit "
                "factors via synthesize_matrix instead."
            )

    real_lams: list[float] = []
    real_cols: list[np.ndarray] = []
    pair_lams: list[complex] = []
    pair_cols: list[tuple[np.ndarray, np.ndarray]] = []
    split = 1e-12 * float(np.max(np.abs(w)))
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
    del v, real_cols, pair_cols, cols  # not held through the inverse
    try:
        r_inv = mat_inverse(r)
    except SingularMatrixError as exc:
        raise PreconditionError(
            "eigenvector basis is numerically singular; the matrix is "
            "defective to tolerance. Build it from explicit factors via "
            "synthesize_matrix instead."
        ) from exc
    factors = RealJordanFactors(spec=spec, transform=r, transform_inverse=r_inv)
    resid = norm_inf(factors.reconstruct() - m)
    if resid > 1e-6 * scale:
        raise PreconditionError(
            f"diagonalizable reconstruction residual {resid:.3e} exceeds "
            f"{1e-6 * scale:.3e}; the matrix is too close to "
            "defective. Build it from explicit factors via synthesize_matrix "
            "instead."
        )
    return factors
