"""Seeded random instances: transforms, spectra, strong-PF factored matrices.

Generators take an explicit numpy Generator so every consumer (CLI --seed,
tests, experiment scripts) is reproducible. Spectra are planted with healthy
margins: the dominant eigenvalue rho sits alone, every other eigenvalue has
modulus in [0.05, 0.8] * rho, and distinct eigenvalues are kept pairwise
separated, so tolerance comparisons downstream are never borderline.
"""

from __future__ import annotations

import numpy as np

from .jordan import JordanSpec, RealJordanFactors, synthesize_matrix

__all__ = [
    "random_orthogonal",
    "positive_column_orthogonal",
    "random_pf_spec",
    "random_pf_factors",
]

# rho is drawn from RHO_RANGE; the transform's column scales from SCALE_RANGE
RHO_RANGE = (1.0, 3.0)
SCALE_RANGE = (0.6, 1.8)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with sign canonicalization."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def positive_column_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random orthogonal matrix whose first column is entrywise positive."""
    u = rng.uniform(0.5, 1.5, size=n)
    u = u / np.linalg.norm(u)
    g = np.column_stack([u, rng.standard_normal((n, n - 1))]) if n > 1 else u[:, None]
    q, r = np.linalg.qr(g)
    # QR may flip the leading column's sign; undo so it stays positive
    if q[0, 0] * u[0] < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _separated(value: complex, taken: list[complex], gap: float) -> bool:
    return all(
        abs(value - t) >= gap and abs(value - t.conjugate()) >= gap for t in taken
    )


def random_pf_spec(
    rng: np.random.Generator, max_dim: int = 8, max_block_size: int = 1
) -> JordanSpec:
    """Random spec whose assembled matrix is strong Perron-Frobenius ready.

    One simple real eigenvalue rho dominates; the rest have modulus at most
    0.8 * rho, stay at least 0.03 * rho apart from each other (and from the
    real axis, for complex pairs), and may sit in Jordan blocks up to
    max_block_size.
    """
    rho = float(rng.uniform(*RHO_RANGE))
    target = int(rng.integers(1, max_dim)) if max_dim > 1 else 0
    real_blocks: list[tuple[float, int]] = [(rho, 1)]
    complex_blocks: list[tuple[complex, int]] = []
    taken: list[complex] = [complex(rho)]
    budget = target
    gap = 0.03 * rho
    while budget > 0:
        want_pair = budget >= 2 and rng.random() < 0.5
        max_size = min(max_block_size, budget // 2 if want_pair else budget)
        size = int(rng.integers(1, max_size + 1))
        for _ in range(64):
            r = float(rng.uniform(0.05, 0.8)) * rho
            if want_pair:
                theta = float(rng.uniform(0.2, np.pi - 0.2))
                lam = complex(r * np.cos(theta), r * np.sin(theta))
            else:
                lam = complex(r if rng.random() < 0.5 else -r)
            if _separated(lam, taken, gap):
                break
        else:  # pragma: no cover
            break
        taken.append(lam)
        if want_pair:
            complex_blocks.append((lam, size))
            budget -= 2 * size
        else:
            real_blocks.append((lam.real, size))
            budget -= size
    return JordanSpec(
        real_blocks=tuple(real_blocks), complex_blocks=tuple(complex_blocks)
    )


def random_pf_factors(
    rng: np.random.Generator, max_dim: int = 8, max_block_size: int = 1
) -> RealJordanFactors:
    """Random factored matrix with the strong Perron-Frobenius property.

    The transform is a positive-first-column orthogonal matrix times a mild
    diagonal scaling: the first column (rho's eigenvector) stays entrywise
    positive and the first row of the inverse does too, so the resulting
    matrix and its transpose are both strong Perron-Frobenius, hence the
    matrix is eventually positive. Condition numbers stay below ~10.
    """
    spec = random_pf_spec(rng, max_dim, max_block_size)
    n = spec.total_dimension
    q = positive_column_orthogonal(rng, n)
    d = rng.uniform(*SCALE_RANGE, size=n)
    return synthesize_matrix(spec, q * d)
