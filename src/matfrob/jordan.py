"""Real Jordan structure: block builders, synthesis, extraction.

A real matrix is carried in factored form ``A = R J R^{-1}``, J block
diagonal: a Jordan block per real eigenvalue and, per conjugate pair, its
complex block in real form, entry c as [[Re c, Im c], [-Im c, Re c]] and an
eigenvector u + iv as R's columns u, v. The explicit factors let the
function calculus act per block, not re-derive structure from raw entries.

J and f(J) are laid out by one function, J being f(J) at f(z) = z.
RealJordanFactors.reconstruct alone forms A = R J R^{-1}, and refuses an A
with an entry beyond float64; synthesize_matrix returns the factors only.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    PreconditionError,
    _finite_norm,
    eigen_decompose,
    mat_inverse,
    max_abs,
    norm_inf,
    square_matrix,
)

__all__ = [
    "IllConditionedWarning",
    "JordanSpec",
    "RealJordanFactors",
    "func_jordan_block",
    "func_real_jordan_block",
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
        for lam, n in real + cplx:
            if n < 1:
                raise ValueError(f"block size must be at least 1, got {n}")
            if not cmath.isfinite(lam):
                raise ValueError(f"eigenvalue must be finite, got {lam}")
        for lam, _ in cplx:
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


def _taylor_coefficient(row, k: int) -> complex:
    """row[k] / k! part by part: complex division loses a -0.0 part's sign.
    A finite part is the exact quotient rounded once: float division while
    k! is exact in float64 (k <= 22), a Fraction past it (possibly
    subnormal or zero); inf and nan stay as they are."""
    z, d = complex(row[k]), math.factorial(k)
    if k <= 22:
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

    The real form of func_jordan_block(row, size): each entry c becomes
    [[Re c, Im c], [-Im c, Re c]], with -Im c as 0.0 - Im c, so a real c
    gives c times the identity exactly. The map is a ring homomorphism, so
    this is f's value when f^(k)(conj lam) = conj f^(k)(lam), which the
    caller tests on the table.
    """
    t = func_jordan_block(row, size)
    m = np.empty((2 * size, 2 * size))
    m[0::2, 0::2] = m[1::2, 1::2] = t.real
    m[0::2, 1::2] = t.imag
    m[1::2, 0::2] = 0.0 - t.imag
    return m


def _assemble_blocks(spec: JordanSpec, row) -> np.ndarray:
    """The real f(J), each block at its diagonal offset in spec order, from
    row(lam) = (f(lam), f'(lam), ...); a pair reads its representative's row."""
    blocks = [func_jordan_block(row(lam), n).real for lam, n in spec.real_blocks]
    blocks += [func_real_jordan_block(row(lam), n) for lam, n in spec.complex_blocks]
    out, at = np.zeros((spec.total_dimension,) * 2), 0
    for b in blocks:
        out[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return out


@dataclass(frozen=True)
class RealJordanFactors:
    """Explicit factorization A = transform @ J(spec) @ transform_inverse.

    Arrays are stored read-only; consumers copy before mutating.
    """

    spec: JordanSpec
    transform: np.ndarray
    transform_inverse: np.ndarray

    def __post_init__(self) -> None:
        r = square_matrix(self.transform).copy()
        ri = square_matrix(self.transform_inverse).copy()
        n = self.spec.total_dimension
        for name, m in (("transform", r), ("transform_inverse", ri)):
            if m.shape != (n, n):
                raise PreconditionError(
                    f"{name} shape {m.shape} does not match spec dimension {n}"
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
        """The real matrix these factors represent; an entry beyond float64
        raises PreconditionError."""
        j = _assemble_blocks(self.spec, lambda lam: (lam, 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            a = self.transform @ j @ self.transform_inverse
        if not np.isfinite(a).all():
            raise PreconditionError(
                "A = R J R^-1 overflows float64; scale the eigenvalues or the "
                "transform down"
            )
        return a


def synthesize_matrix(spec: JordanSpec, transform) -> RealJordanFactors:
    """Factors of A = R J R^{-1} from a spec and an invertible real transform.

    One SVD of the transform decides singularity (a smallest singular
    value of zero, or subnormal, whose inverse can overflow) and
    conditioning: above 1e6 an IllConditionedWarning is issued. A singular
    transform, or one above 1e8, is refused with PreconditionError: the
    factored structure would be numerically meaningless. No bound depends on the
    scale of R: cR gives the same A for every c != 0. A itself is not
    formed here: reconstruct() forms it.
    """
    r = square_matrix(transform)
    if r.shape[0] != spec.total_dimension:
        raise PreconditionError(
            f"transform is {r.shape[0]}x{r.shape[1]} but the spec has total "
            f"dimension {spec.total_dimension}"
        )
    s = np.linalg.svd(r, compute_uv=False)
    if s[-1] < np.finfo(float).tiny:
        raise PreconditionError(
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
    return RealJordanFactors(spec=spec, transform=r, transform_inverse=r_inv)


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
    m = square_matrix(a)
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

    split = 1e-12 * float(np.max(np.abs(w)))
    # every eigenvalue with imag >= 0 (one member per pair), its eigenvector
    # divided by its largest-modulus entry; real blocks first, in spec order
    up = np.flatnonzero(w.imag >= 0.0)
    up = up[np.argsort(w.imag[up] > split, kind="stable")]
    w, v = w[up], v[:, up]
    v = v / v[np.argmax(np.abs(v), axis=0), np.arange(len(up))]
    pair, two = w.imag > split, w.imag != 0.0
    spec = JordanSpec(
        real_blocks=tuple((lam, 1) for lam in np.repeat(w.real[~pair], 1 + two[~pair])),
        complex_blocks=tuple((lam, 1) for lam in w[pair]),
    )
    # Re u for a real eigenvalue, Re u then Im u for a pair or a split double
    keep = np.stack((np.ones_like(two), two), axis=1).ravel()
    r = np.stack((v.real, v.imag), axis=2).reshape(len(v), -1)[:, keep]
    del v  # not held through the inverse
    try:
        r_inv = mat_inverse(r)
    except PreconditionError as exc:
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
