"""Scalar function calculus on matrices through explicit Jordan factors.

Functions are small immutable expression trees. Each node says whether it
is defined at a point (``defined_at``; every domain is closed under
conjugation), evaluates with the principal branch wherever a branch choice
exists, and differentiates to arbitrary order through exact closed-form
rules; ``eval`` is the order-0 ``deriv``. Exact rules matter: per-block
evaluation needs f^(j)(lambda) / j! up to the block size, and numerical
differentiation cannot deliver those orders at the accuracy the
reconstruction demands.

The value of f on a matrix in factored form A = R J R^{-1} is
R f(J) R^{-1}. jordan's block builders (re-exported here; J is f(J) at
f(z) = z) lay f(J) out from one table of f^(j)(lambda) on the spectrum,
whose rows come from one walk of it, defined_on_spectrum, which refuses
an f the structure cannot use. A real result needs f^(j)(conj lambda) =
conj f^(j)(lambda); one test on the table decides it, run once per table:
by matrix_function here, or by perron.frobenius_check, whose failures
then form f(A).

taylor_oracle, the one f(A) oracle, uses only power series and matrix
products, so it cross-checks matrix_function for entire f. It alone knows
each entire node's series, so a node's one evaluation hook is _derivative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, MatFrobError, Tolerance, norm_inf, square_matrix
from .jordan import (
    JordanSpec,
    RealJordanFactors,
    _assemble_blocks,
    func_jordan_block,
    func_real_jordan_block,
)

__all__ = [
    "NonRealResultError",
    "NotDefinedOnSpectrumError",
    "SpectralFunction",
    "Monomial",
    "PrincipalRoot",
    "Abs",
    "Exp",
    "Polynomial",
    "ScaledSum",
    "func_jordan_block",
    "func_real_jordan_block",
    "matrix_function",
    "taylor_oracle",
]

ORACLE_TERMS = 80


class NonRealResultError(MatFrobError):
    """f's table fails the conjugate-symmetry test, so f(A) is not real:
    f^(j)(conj lam) != conj f^(j)(lam) at a complex pair, or f^(j) is not
    real at a real eigenvalue."""


class NotDefinedOnSpectrumError(MatFrobError):
    """The Jordan structure needs values or derivatives f cannot provide."""


class SpectralFunction:
    """Base scalar function node.

    Subclasses implement ``_derivative(z, order)``, where order 0 is the
    value, override ``defined_at`` when not defined on all of C, and
    ``max_derivative_order`` when not smooth. Series rules live in
    taylor_oracle, not on the nodes.
    """

    def defined_at(self, z: complex) -> bool:
        """Whether z is in f's domain, which must be closed under conjugation."""
        return True

    def max_derivative_order(self) -> int | None:
        """Largest available derivative order; None means unbounded."""
        return None

    def describe(self) -> str:
        """Expression-language rendering of this node."""
        raise NotImplementedError

    def eval(self, z: complex) -> complex:
        return self.deriv(z, 0)

    def deriv(self, z: complex, order: int) -> complex:
        order = int(order)
        if order < 0:
            raise ValueError(f"derivative order must be nonnegative, got {order}")
        z = complex(z)
        if not self.defined_at(z):
            raise MatFrobError(f"{z} is outside the domain of {self.describe()}")
        cap = self.max_derivative_order()
        if cap is not None and order > cap:
            raise MatFrobError(f"{self.describe()} has no derivative of order {order}")
        return _hook(self, z, order)

    def _derivative(self, z: complex, order: int) -> complex:
        """f^(order)(z), with z in the domain and order within the cap."""
        raise NotImplementedError


def _what(f: SpectralFunction, order: int) -> str:
    """How a message names f^(order)."""
    return f"{f'order-{order} derivative of ' if order else ''}{f.describe()}"


def _hook(f: SpectralFunction, z: complex, order: int) -> complex:
    """f._derivative(z, order); an OverflowError becomes a MatFrobError naming f."""
    try:
        return f._derivative(z, order)
    except OverflowError as exc:
        raise MatFrobError(f"{_what(f, order)} overflows float64 at {z}") from exc


@dataclass(frozen=True)
class Monomial(SpectralFunction):
    """z**power for a positive integer power."""

    power: int

    def __post_init__(self) -> None:
        if int(self.power) < 1:
            raise ValueError(f"power must be a positive integer, got {self.power}")
        object.__setattr__(self, "power", int(self.power))

    def describe(self) -> str:
        return f"pow:{self.power}"

    def _derivative(self, z: complex, order: int) -> complex:
        if not order:
            # bare: 1.0 * w flips the sign of a zero imaginary part of w
            return z ** self.power
        if order > self.power:
            return 0j
        coeff = 1.0
        for i in range(order):
            coeff *= self.power - i
        return coeff * z ** (self.power - order)


@dataclass(frozen=True)
class PrincipalRoot(SpectralFunction):
    """z**(1/degree) on the principal branch, degree >= 2.

    The branch cut sits on the negative real axis with values taken
    continuously from above (argument in (-pi, pi]). Even degrees exclude
    the nonpositive reals outright; odd degrees only the origin, where no
    derivative exists. On negative reals an odd root therefore evaluates to
    a non-real principal value rather than the real root.
    """

    degree: int

    def __post_init__(self) -> None:
        if int(self.degree) < 2:
            raise ValueError(f"degree must be at least 2, got {self.degree}")
        object.__setattr__(self, "degree", int(self.degree))

    def defined_at(self, z: complex) -> bool:
        if self.degree % 2:
            return z != 0
        return not (z.imag == 0.0 and z.real <= 0.0)

    def describe(self) -> str:
        return f"root:{self.degree}"

    @staticmethod
    def _power(z: complex, w: float) -> complex:
        # normalize -0.0 imaginary parts so the cut is approached from above
        if z.imag == 0.0:
            z = complex(z.real, 0.0)
        return z ** w

    def _derivative(self, z: complex, order: int) -> complex:
        e = 1.0 / self.degree
        if not order:
            return self._power(z, e)  # bare, as in Monomial
        coeff = 1.0
        for i in range(order):
            coeff *= e - i
        return coeff * self._power(z, e - order)


@dataclass(frozen=True)
class Abs(SpectralFunction):
    """|z|; defined everywhere, differentiable nowhere."""

    def max_derivative_order(self) -> int | None:
        return 0

    def describe(self) -> str:
        return "abs"

    def _derivative(self, z: complex, order: int) -> complex:
        return complex(abs(z))


@dataclass(frozen=True)
class Exp(SpectralFunction):
    """exp(z)."""

    def describe(self) -> str:
        return "exp"

    def _derivative(self, z: complex, order: int) -> complex:
        return cmath.exp(z)


@dataclass(frozen=True)
class Polynomial(SpectralFunction):
    """sum_k coeffs[k] * z**k with real coefficients."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        for c in coeffs:
            if not math.isfinite(c):
                raise ValueError(f"polynomial coefficients must be finite, got {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def describe(self) -> str:
        return "poly:" + ",".join(repr(c) for c in self.coeffs)

    def _derivative(self, z: complex, order: int) -> complex:
        cs = self.coeffs
        for _ in range(order):
            cs = [k * c for k, c in enumerate(cs)][1:]
            if not cs:
                return 0j
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc


@dataclass(frozen=True)
class ScaledSum(SpectralFunction):
    """sum_k weight_k * f_k with real weights; domain is the intersection."""

    terms: tuple[tuple[float, SpectralFunction], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(w), f) for w, f in self.terms)
        if not terms:
            raise ValueError("scaled sum needs at least one term")
        for w, f in terms:
            if not math.isfinite(w):
                raise ValueError(f"scaled sum weights must be finite, got {w!r}")
            if not isinstance(f, SpectralFunction):
                raise TypeError(f"expected a SpectralFunction term, got {type(f)!r}")
        object.__setattr__(self, "terms", terms)

    def defined_at(self, z: complex) -> bool:
        return all(f.defined_at(z) for _, f in self.terms)

    def max_derivative_order(self) -> int | None:
        caps = [f.max_derivative_order() for _, f in self.terms]
        finite = [c for c in caps if c is not None]
        return min(finite) if finite else None

    def describe(self) -> str:
        return " + ".join(f"{w!r}*{f.describe()}" for w, f in self.terms)

    def _derivative(self, z: complex, order: int) -> complex:
        # deriv has checked every term's domain and the smallest cap; an
        # overflow still names the term
        return sum(w * _hook(f, z, order) for w, f in self.terms)


def defined_on_spectrum(
    f: SpectralFunction, spec: JordanSpec
) -> list[tuple[complex, int]]:
    """spec's distinct eigenvalues with their indices, once f is known to serve them.

    An eigenvalue of index m needs f^(j) for j = 0..m-1. The first one f
    cannot serve raises NotDefinedOnSpectrumError, naming it and the first
    missing order.
    """
    cap = f.max_derivative_order()
    distinct = spec.distinct_eigenvalues()
    for lam, index in distinct:
        if not f.defined_at(lam):
            raise NotDefinedOnSpectrumError(
                f"{lam} is outside the domain of {f.describe()}"
            )
        if cap is not None and index - 1 > cap:
            raise NotDefinedOnSpectrumError(
                f"{f.describe()} has no order-{cap + 1} derivative needed by a "
                f"size-{index} block at {lam}"
            )
    return distinct


def _spectral_table(f: SpectralFunction, spec: JordanSpec) -> dict[complex, list]:
    """f^(j)(lam) for each distinct eigenvalue lam of spec and j below its index.

    Conjugate partners are rows of their own. Each value is computed once,
    order 0 through ``eval`` and higher orders through ``deriv``. Raises
    NotDefinedOnSpectrumError when the structure needs a value or
    derivative f cannot provide.
    """
    return {
        lam: [f.eval(lam), *(f.deriv(lam, j) for j in range(1, index))]
        for lam, index in defined_on_spectrum(f, spec)
    }


def _conjugate_defects(table: dict[complex, list], tol: Tolerance):
    """(lam, j, defect, limit) for each entry f^(j)(lam) of the table.

    The defect is |f^(j)(conj lam) - conj f^(j)(lam)|, which is
    2 |Im f^(j)(lam)| at a real lam; the limit is tol.rel_eps times the
    largest |f^(j)| on the spectrum. A defect above its limit fails.
    """
    for j in range(max(map(len, table.values()))):
        limit = tol.rel_eps * max(abs(row[j]) for row in table.values() if len(row) > j)
        for lam, row in table.items():
            if len(row) > j:
                yield lam, j, abs(table[lam.conjugate()][j] - row[j].conjugate()), limit


def _assemble(
    factors: RealJordanFactors, f: SpectralFunction, table: dict, failed: list
) -> np.ndarray:
    """R f(J) R^{-1} from f's table and its failing _conjugate_defects entries."""
    if failed:
        # min keeps the first failure at a complex pair, if there is one
        lam, j, defect, limit = min(failed, key=lambda d: not d[0].imag)
        message = (
            f"{_what(f, j)} is not conjugate-symmetric at {lam}: |f^({j})(conj "
            f"lam) - conj f^({j})(lam)| = {defect:.3e} (limit {limit:.3e})"
        )
        if not lam.imag:
            message += f"; {f.describe()} is not real-valued on this spectrum"
        raise NonRealResultError(message)
    with np.errstate(over="ignore", invalid="ignore"):
        fj = _assemble_blocks(factors.spec, lambda lam: table[complex(lam)])
        out = factors.transform @ fj @ factors.transform_inverse
    if not math.isfinite(norm_inf(out)):
        raise MatFrobError(f"f(A) overflows float64 for f = {f.describe()}")
    return out


def matrix_function(
    factors: RealJordanFactors, f: SpectralFunction, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Evaluate f on a matrix given in real Jordan factored form.

    Builds f's table on the spectrum, raising NotDefinedOnSpectrumError when
    f lacks a value or derivative the structure needs, and tests it: at
    order j, |f^(j)(conj lam) - conj f^(j)(lam)| may be at most tol.rel_eps
    times the largest |f^(j)| on the spectrum. A failing entry raises
    NonRealResultError, naming a failing complex pair before a failing real
    eigenvalue. Imaginary parts that pass are dropped, so R f(J) R^{-1} is
    one float64 product. A value of f, or a result with a non-finite entry
    or infinity norm, beyond float64 raises MatFrobError.
    """
    table = _spectral_table(f, factors.spec)
    failed = [d for d in _conjugate_defects(table, tol) if d[2] > d[3]]
    return _assemble(factors, f, table, failed)


def taylor_oracle(a, f: SpectralFunction) -> np.ndarray:
    """f(A) from power series and matrix products alone; never the Jordan form.

    Each series is summed by Horner. A ScaledSum is the weighted sum of its
    terms' oracles. Exp scales and squares (Higham, Functions of Matrices,
    2008, sec. 10.3): the ORACLE_TERMS-term series of 1/k! at A / 2^s, with
    ||A||_inf / 2^s <= 1/2, squared s times. Monomial and Polynomial take
    their degree + 1 coefficients, which is exact. Any other node (root,
    abs) is not entire and raises MatFrobError.
    """
    m = square_matrix(a)
    if isinstance(f, ScaledSum):
        return sum(w * taylor_oracle(m, g) for w, g in f.terms)
    squarings = 0
    if isinstance(f, Exp):
        squarings = max(0, math.frexp(norm_inf(m))[1] + 1)
        m = np.ldexp(m, -squarings)
        coeffs = [1.0]
        for k in range(1, ORACLE_TERMS):
            coeffs.append(coeffs[-1] / k)
    elif isinstance(f, Monomial):
        coeffs = [0.0] * f.power + [1.0]
    elif isinstance(f, Polynomial):
        coeffs = f.coeffs
    else:
        raise MatFrobError(
            f"{f.describe()} is not entire; the series oracle does not apply"
        )
    eye = np.eye(m.shape[0])
    out = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        out = m @ out + c * eye
    for _ in range(squarings):
        out = out @ out
    return out
