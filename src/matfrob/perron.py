"""Strong Perron-Frobenius checks, eventual positivity, preservation verdicts.

A real square matrix has the strong Perron-Frobenius property when its
spectral radius rho is a positive, simple, strictly dominant eigenvalue
with an entrywise positive eigenvector. A matrix is eventually positive
(all powers beyond some threshold entrywise positive) exactly when the
matrix and its transpose both have that property.

The scalar-side counterpart: a function f preserves the property iff, on
the relevant spectrum, f is conjugate-symmetric, maps rho to a positive
real, and satisfies |f(lambda)| < f(rho) strictly inside the spectral
circle; on a size-m Jordan block the first covers f^(j) for j < m.
frobenius_check measures them on funcalc's table of f^(j) on the
spectrum, relative to the size of f there, and verify_preservation_theorem
forms f(A) from the same table and compares the two verdicts.

A matrix given by its entries is decomposed once. A matrix given by its
real Jordan factors A = R J R^{-1} is not decomposed at all: its spectrum
is the spec's, exactly, and its eigenvectors are columns of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TOL,
    PreconditionError,
    Tolerance,
    as_real_matrix,
    eigen_decompose,
    max_abs,
    norm_inf,
    require_square,
)
from .funcalc import (
    ConjugateSymmetryError,
    NonRealResultError,
    SpectralFunction,
    _assemble,
    _conjugate_defects,
    _spectral_table,
)
from .jordan import JordanSpec, RealJordanFactors

__all__ = [
    "PerronReport",
    "EventualPositivityReport",
    "FrobeniusVerdict",
    "PreservationResult",
    "strong_pf_check",
    "eventually_positive_check",
    "power_threshold",
    "frobenius_check",
    "verify_preservation_theorem",
]

CONDITION_LABELS = {
    "rho_positive": "spectral radius is positive",
    "rho_in_spectrum": "spectral radius is an eigenvalue",
    "eigvec_positive": "eigenvector at rho is entrywise positive",
    "simple": "rho is a simple eigenvalue",
    "strictly_dominant": "rho strictly dominates all other eigenvalues",
}


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


@dataclass(frozen=True)
class PerronReport:
    """Per-condition verdicts for the strong Perron-Frobenius property."""

    rho: float
    spectrum: tuple[complex, ...]
    rho_positive: bool
    rho_in_spectrum: bool
    eigvec: np.ndarray | None
    eigvec_positive: bool
    simple: bool
    strictly_dominant: bool
    dominance_margin: float | None
    overall: bool

    def condition_verdicts(self) -> dict[str, bool]:
        return {
            "rho_positive": self.rho_positive,
            "rho_in_spectrum": self.rho_in_spectrum,
            "eigvec_positive": self.eigvec_positive,
            "simple": self.simple,
            "strictly_dominant": self.strictly_dominant,
        }

    def failed_conditions(self) -> list[str]:
        return [k for k, ok in self.condition_verdicts().items() if not ok]

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "spectrum": [{"re": z.real, "im": z.imag} for z in self.spectrum],
            "conditions": self.condition_verdicts(),
            "eigvec": None if self.eigvec is None else [float(x) for x in self.eigvec],
            "dominance_margin": self.dominance_margin,
            "overall": self.overall,
        }

    def format_text(self) -> str:
        lines = [f"spectral radius rho = {self.rho:.15g}"]
        for key, ok in self.condition_verdicts().items():
            mark = "pass" if ok else "FAIL"
            extra = ""
            if key == "strictly_dominant" and self.dominance_margin is None:
                extra = " (no eigenvalue outside rho's cluster)"
            elif key == "strictly_dominant":
                extra = f" (margin {self.dominance_margin:.6g})"
            lines.append(f"  [{mark}] {CONDITION_LABELS[key]}{extra}")
        lines.append(
            "strong Perron-Frobenius property: "
            + ("HOLDS" if self.overall else "DOES NOT HOLD")
        )
        return "\n".join(lines)


def _perron_report(w, eigvec_at, scale: float, tol: Tolerance) -> PerronReport:
    """The five conditions on the spectrum w of a matrix with norm `scale`.

    ``eigvec_at(idx)`` returns an eigenvector for w[idx], the eigenvalue
    nearest rho; it is called only when that eigenvalue equals rho. rho, its
    distance to the spectrum and the dominance margin are measured against
    ``tol.rel_eps * scale``, and the eigenvector, scaled to largest entry 1,
    against ``tol.rel_eps``, so these verdicts are invariant under positive
    scaling of the matrix.
    """
    negligible = tol.rel_eps * scale
    rho = float(np.max(np.abs(w)))
    rho_positive = rho > negligible

    dist = np.abs(w - rho)
    idx = int(np.argmin(dist))
    rho_in_spectrum = bool(dist[idx] <= negligible)

    eigvec = None
    eigvec_positive = False
    if rho_in_spectrum:
        col = eigvec_at(idx)
        k = int(np.argmax(np.abs(col)))
        col = col / col[k]
        vec = col.real.copy()
        eigvec = vec
        eigvec_positive = bool(np.all(vec > tol.rel_eps))

    cluster_radius = 1e-6 * scale
    in_cluster = dist <= cluster_radius
    simple = rho_in_spectrum and int(np.sum(in_cluster)) == 1
    others = w[~in_cluster]
    # None when every eigenvalue lies in rho's cluster: no margin to measure
    margin = float(rho - np.max(np.abs(others))) if others.size else None
    strictly_dominant = rho_in_spectrum and (margin is None or margin > negligible)

    overall = (
        rho_positive
        and rho_in_spectrum
        and eigvec_positive
        and simple
        and strictly_dominant
    )
    if eigvec is not None:
        eigvec.setflags(write=False)
    return PerronReport(
        rho=rho,
        spectrum=tuple(complex(z) for z in w),
        rho_positive=rho_positive,
        rho_in_spectrum=rho_in_spectrum,
        eigvec=eigvec,
        eigvec_positive=eigvec_positive,
        simple=simple,
        strictly_dominant=strictly_dominant,
        dominance_margin=margin,
        overall=overall,
    )


def strong_pf_check(a, tol: Tolerance = DEFAULT_TOL) -> PerronReport:
    """Measure the five strong Perron-Frobenius conditions on a real matrix.

    The matrix is given by its entries and decomposed once. Simplicity and
    dominance are decided against the eigenvalue cluster within
    1e-6 * ||A||_inf of rho, so a numerically split multiple eigenvalue is
    still recognized as one. For factored input, verify_preservation_theorem
    builds the same report from the factors without decomposing.
    """
    m = as_real_matrix(a)
    require_square(m)
    scale = _finite_norm(m)
    w, v = eigen_decompose(m)
    return _perron_report(w, lambda idx: v[:, idx], scale, tol)


def _finite_norm(m: np.ndarray) -> float:
    """||m||_inf; a row sum that overflows float64 raises PreconditionError."""
    scale = norm_inf(m)
    if not math.isfinite(scale):
        raise PreconditionError(
            "an absolute row or column sum of the matrix overflows float64 "
            "(norm = inf); scale the matrix down"
        )
    return scale


def _left_perron_vector(m: np.ndarray, rho: float, x: np.ndarray) -> np.ndarray:
    """Left eigenvector of m at rho, given the right eigenvector x.

    Solves the real bordered system [[m^T - rho I, x], [x^T, 0]] [y; mu] =
    [0; 1], which is nonsingular exactly when rho is simple; then mu = 0
    and m^T y = rho y with x^T y = 1. When rho is not simple the report
    fails on that count anyway, so an exactly singular system falls back
    to x.
    """
    n = m.shape[0]
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = m.T
    bordered[range(n), range(n)] -= rho
    bordered[:n, n] = x
    bordered[n, :n] = x
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        return np.linalg.solve(bordered, rhs)[:n]
    except np.linalg.LinAlgError:
        return x


@dataclass(frozen=True)
class EventualPositivityReport:
    """Two-sided strong Perron-Frobenius verdict (matrix and transpose)."""

    overall: bool
    matrix_report: PerronReport
    transpose_report: PerronReport

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "matrix": self.matrix_report.to_dict(),
            "transpose": self.transpose_report.to_dict(),
        }

    def format_text(self) -> str:
        return "\n".join(
            [
                "matrix side:",
                self.matrix_report.format_text(),
                "transpose side:",
                self.transpose_report.format_text(),
                "eventually positive: " + ("YES" if self.overall else "NO"),
            ]
        )


def eventually_positive_check(
    a, tol: Tolerance = DEFAULT_TOL
) -> EventualPositivityReport:
    """Eventual positivity via the two-sided strong Perron-Frobenius test.

    A is eventually positive iff A and A^T are both strong
    Perron-Frobenius. A^T has A's spectrum, so one eigendecomposition of A
    serves both sides; the transpose side reads its vector from the left
    Perron vector (see _left_perron_vector) and keeps its own cluster
    radius, 1e-6 * ||A^T||_inf.
    """
    m = as_real_matrix(a)
    require_square(m)
    scale, scale_t = _finite_norm(m), _finite_norm(m.T)
    w, v = eigen_decompose(m)
    r1 = _perron_report(w, lambda idx: v[:, idx], scale, tol)
    r2 = _perron_report(
        w,
        lambda idx: _left_perron_vector(m, float(w[idx].real), r1.eigvec),
        scale_t,
        tol,
    )
    return EventualPositivityReport(r1.overall and r2.overall, r1, r2)


def _power_of_two_scaled(a: np.ndarray, size: float) -> np.ndarray:
    """a times the power of two that brings `size` into [0.5, 1); exact."""
    return np.ldexp(a, -math.frexp(size)[1])


def power_threshold(a, k_max: int) -> int | None:
    """Brute-force positivity threshold by explicit powers.

    Returns the smallest p such that A^k is entrywise strictly positive for
    every p <= k <= k_max. Returns None unless A^(k_max - 1) and A^k_max
    are both positive (for k_max = 1, unless A is): two consecutive
    positive powers A^p, A^(p+1) prove eventual positivity, since every
    m >= p^2 - p is a sum of copies of p and p + 1, while one positive
    power alone does not (the even powers of -A can all be positive).

    The loop stops early. Products of positive matrices are positive, so
    once A^s, ..., A^(2s-1) are all positive, so is A^k for every k >= s:
    k is a sum of exponents in [s, 2s-1]. The scan therefore returns s as
    soon as it reaches k = 2s - 1 with no nonpositive power since s - 1,
    and gives the same answer as scanning all k_max powers. It forms 2s - 1
    products for a threshold s <= (k_max + 1) / 2, and k_max otherwise,
    in particular when there is no threshold.

    Positivity is scale invariant, so A is scaled once by a power of two
    near ||A||_inf, making ||A^k||_inf non-increasing, and every 8th power
    again against underflow. Powers of two scale exactly, so every sign is
    the sign of the unscaled float64 product.
    """
    m = as_real_matrix(a)
    require_square(m)
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    base = _power_of_two_scaled(m, norm_inf(m))
    power = np.eye(base.shape[0])
    last_nonpositive = 0
    for k in range(1, k_max + 1):
        power = power @ base
        if k % 8 == 0:
            power = _power_of_two_scaled(power, max_abs(power))
        if not (power > 0.0).all():
            last_nonpositive = k
        elif k == 2 * last_nonpositive + 1:
            return last_nonpositive + 1
    if last_nonpositive >= max(k_max - 1, 1):
        return None
    return last_nonpositive + 1


@dataclass(frozen=True)
class FrobeniusVerdict:
    """Verdicts for the three scalar preservation conditions on f's table.

    Witnesses record the worst observed entry: the largest conjugate-symmetry
    defect, a failing one first, with its point and order; the smallest
    domination gap. ``table`` holds f^(j)(lam) on the spectrum for
    verify_preservation_theorem to form f(A); to_dict leaves it out.
    """

    conjugate_symmetry: bool
    conjugate_witness: tuple[complex, int, float]
    modulus_domination: bool
    modulus_marginal: bool
    modulus_witness: tuple[complex, float, float] | None
    positivity_at_rho: bool
    overall: bool
    table: dict[complex, list] = field(repr=False, compare=False)
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        cw = self.conjugate_witness
        mw = self.modulus_witness
        return {
            "conjugate_symmetry": self.conjugate_symmetry,
            "conjugate_witness": {
                "re": cw[0].real, "im": cw[0].imag, "order": cw[1], "defect": cw[2]
            },
            "modulus_domination": self.modulus_domination,
            "modulus_marginal": self.modulus_marginal,
            "modulus_witness": None
            if mw is None
            else {
                "re": mw[0].real,
                "im": mw[0].imag,
                "abs_f": mw[1],
                "f_rho": mw[2],
            },
            "positivity_at_rho": self.positivity_at_rho,
            "overall": self.overall,
            "notes": list(self.notes),
        }

    def format_text(self) -> str:
        lines = []
        mark = lambda ok: "pass" if ok else "FAIL"  # noqa: E731
        lines.append(f"  [{mark(self.conjugate_symmetry)}] conjugate symmetry")
        z, j, d = self.conjugate_witness
        lines.append(f"         worst point {_fmt_complex(z)}, order {j}, defect {d:.3e}")
        dom = f"  [{mark(self.modulus_domination)}] strict modulus domination"
        if self.modulus_marginal:
            dom += " (marginal: gap within tolerance of zero)"
        lines.append(dom)
        if self.modulus_witness is not None:
            z, af, frho = self.modulus_witness
            lines.append(
                f"         tightest point {_fmt_complex(z)}: |f| = {af:.6g} "
                f"vs f(rho) = {frho:.6g}"
            )
        lines.append(f"  [{mark(self.positivity_at_rho)}] f(rho) is a positive real")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(
            "scalar preservation conditions: "
            + ("HOLD" if self.overall else "DO NOT HOLD")
        )
        return "\n".join(lines)


def frobenius_check(
    f: SpectralFunction, spec: JordanSpec, rho: float, tol: Tolerance = DEFAULT_TOL
) -> FrobeniusVerdict:
    """Test the scalar preservation conditions on f's table on spec.

    The table holds f^(j)(lam) for each distinct eigenvalue lam, conjugate
    partners included, and each j below lam's index; f without a value or
    derivative the structure needs raises NotDefinedOnSpectrumError. Checks:
    conj f^(j)(lam) == f^(j)(conj lam), by the test matrix_function applies;
    |f(lam)| < f(rho) for lam strictly inside the circle of radius rho, that
    is |lam| < rho * (1 - tol.rel_eps); and f(rho) a positive real, read
    from the table when rho is an eigenvalue. The last two are measured
    against ``tol.rel_eps * max(|f(rho)|, max |f(lam)|)``, so no threshold
    depends on the absolute size of f or of rho.
    """
    table = _spectral_table(f, spec)
    rho = float(rho)
    notes: list[str] = []
    z_rho = complex(rho)
    f_rho = table[z_rho][0] if z_rho in table else None
    if f_rho is None and f.defined_at(z_rho):  # rho is not an eigenvalue
        f_rho = f.eval(z_rho)
    at_points = [f_rho, *(row[0] for row in table.values())]
    negligible = tol.rel_eps * max(abs(v) for v in at_points if v is not None)
    inside = rho * (1.0 - tol.rel_eps)

    f_rho_real = None
    positivity = False
    if f_rho is None:
        notes.append(f"rho = {rho:.6g} is outside the domain of {f.describe()}")
    else:
        positivity = abs(f_rho.imag) <= negligible and f_rho.real > negligible
        f_rho_real = f_rho.real
        if not positivity:
            notes.append(
                f"f(rho) = {_fmt_complex(f_rho)} is not a positive real"
            )

    defects = list(_conjugate_defects(table, tol))
    conj_ok = not any(defect > limit for _, _, defect, limit in defects)
    lam, j, defect, _ = max(defects, key=lambda d: (d[2] > d[3], d[2]))
    dom_ok = True
    marginal = False
    dom_worst: tuple[complex, float, float] | None = None
    for z, row in table.items():
        if f_rho_real is not None and abs(z) < inside:
            gap = f_rho_real - abs(row[0])
            if dom_worst is None or gap < f_rho_real - dom_worst[1]:
                dom_worst = (z, abs(row[0]), f_rho_real)
            if gap <= negligible:
                dom_ok = False
                if abs(gap) <= negligible:
                    marginal = True

    overall = conj_ok and dom_ok and positivity
    return FrobeniusVerdict(
        conjugate_symmetry=conj_ok,
        conjugate_witness=(lam, j, defect),
        modulus_domination=dom_ok,
        modulus_marginal=marginal,
        modulus_witness=dom_worst,
        positivity_at_rho=positivity,
        overall=overall,
        table=table,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class PreservationResult:
    """Both sides of the preservation equivalence, plus their agreement."""

    f_is_frobenius: bool
    frobenius: FrobeniusVerdict
    matrix_report: PerronReport
    f_of_a: np.ndarray | None
    f_of_a_error: str | None
    fa_strong_pf: bool
    fa_report: PerronReport | None
    theorem_consistent: bool

    def to_dict(self) -> dict:
        return {
            "f_is_frobenius": self.f_is_frobenius,
            "frobenius": self.frobenius.to_dict(),
            "matrix": self.matrix_report.to_dict(),
            "f_of_a_error": self.f_of_a_error,
            "fa_strong_pf": self.fa_strong_pf,
            "fa_report": None if self.fa_report is None else self.fa_report.to_dict(),
            "theorem_consistent": self.theorem_consistent,
        }

    def format_text(self) -> str:
        lines = ["scalar side:"]
        lines.append(self.frobenius.format_text())
        lines.append("matrix side:")
        if self.f_of_a_error is not None:
            lines.append(f"  f(A) could not be formed as a real matrix:")
            lines.append(f"  {self.f_of_a_error}")
            lines.append("  strong Perron-Frobenius property: DOES NOT HOLD")
        else:
            lines.append(self.fa_report.format_text())
        lines.append(
            "scalar and matrix verdicts "
            + ("AGREE" if self.theorem_consistent else "DISAGREE")
        )
        return "\n".join(lines)


def verify_preservation_theorem(
    factors: RealJordanFactors, f: SpectralFunction, tol: Tolerance = DEFAULT_TOL
) -> PreservationResult:
    """Compare the scalar verdict with the matrix-level outcome on f(A).

    A's report is read off its factors, with no eigendecomposition: the
    spectrum is the spec's exact eigenvalue multiset, listed block by block
    in the transform's column order, so the first slot of the block at rho
    indexes its eigenvector, a column of R. Only f(A) is decomposed.

    A must carry the strong Perron-Frobenius property to begin with (the
    equivalence says nothing otherwise); violating that raises
    PreconditionError. f(A) is formed, as in matrix_function, from the table
    frobenius_check built. A conjugate-symmetry or non-real-result failure
    there is the "f(A) is not a real strong Perron-Frobenius matrix"
    outcome, not an error. Other failures (f undefined on the spectrum)
    propagate, since they void the comparison's hypothesis.
    """
    a_report = _perron_report(
        np.array(factors.spec.eigenvalue_multiset()),
        lambda idx: factors.transform[:, idx],
        _finite_norm(factors.reconstruct()),
        tol,
    )
    if not a_report.overall:
        raise PreconditionError(
            "the factored matrix lacks the strong Perron-Frobenius property "
            f"(failed: {', '.join(a_report.failed_conditions())})"
        )
    verdict = frobenius_check(f, factors.spec, a_report.rho, tol)

    f_of_a = None
    fa_error = None
    fa_report = None
    fa_pf = False
    try:
        f_of_a = _assemble(factors, f, verdict.table, tol)
    except (ConjugateSymmetryError, NonRealResultError) as exc:
        fa_error = str(exc)
    else:
        fa_report = strong_pf_check(f_of_a, tol)
        fa_pf = fa_report.overall

    return PreservationResult(
        f_is_frobenius=verdict.overall,
        frobenius=verdict,
        matrix_report=a_report,
        f_of_a=f_of_a,
        f_of_a_error=fa_error,
        fa_strong_pf=fa_pf,
        fa_report=fa_report,
        theorem_consistent=(verdict.overall == fa_pf),
    )
