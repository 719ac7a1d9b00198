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
forms f(A) from the same table and the same conjugate-symmetry failures,
and compares the two verdicts.

Four of the five conditions read the spectrum alone, so each matrix gets
one spectral record that decides them (_spectral_record), and each side
only attaches rho's vector (_attach_vector). A matrix given by its entries
gets its eigenvalues alone from LAPACK, a scale max(||A||_inf, ||A||_1)
that A^T shares, and rho's right and left eigenvectors each from one real
bordered solve; it is fully decomposed only when rho is not simple or a
solve fails its residual test (_perron_vector). A matrix given by its real
Jordan factors A = R J R^{-1} is neither decomposed nor formed: its record
is decided on the spec's eigenvalues at scale rho with no tolerance, and
exactly where a float64 modulus ties with rho, and its vector is R's column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_TOL,
    MatFrobError,
    PreconditionError,
    Tolerance,
    _eigenvalues,
    _finite_norm,
    eigen_decompose,
    max_abs,
    norm_inf,
    square_matrix,
)
from .funcalc import (
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
    cluster_radius: float
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
            "cluster_radius": self.cluster_radius,
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


def _spectral_record(w, scale: float, eps: float) -> tuple[PerronReport, int]:
    """The four conditions that read the spectrum w alone, decided once.

    Returns rho's report without its vector (``overall`` is the AND of the
    four; _attach_vector completes it) and the index of the eigenvalue
    nearest rho. rho, its distance to w and the dominance margin are
    measured against eps * scale, with `scale` the matrix's size, so no
    verdict moves under positive scaling. Simplicity and dominance are
    decided against rho's cluster, every eigenvalue within cluster_radius
    of rho, so a numerically split multiple eigenvalue is still one. With
    eps = 0 (exact input), an eigenvalue whose float64 modulus ties with
    rho is dominated when re^2 + im^2 < rho^2 in rational arithmetic.
    """
    negligible = eps * scale
    rho = float(np.max(np.abs(w)))
    with np.errstate(over="ignore"):  # inf at -rho when 2 rho overflows
        dist = np.abs(w - rho)
    index = int(np.argmin(dist))
    in_spectrum = bool(dist[index] <= negligible)
    cluster_radius = 1e-6 * scale
    in_cluster = dist <= cluster_radius
    others = w[~in_cluster]
    # None when every eigenvalue lies in rho's cluster: no margin to measure
    margin = float(rho - np.max(np.abs(others))) if others.size else None
    dominant = margin is None or margin > negligible
    if not dominant and negligible == 0.0:
        dominant = all(
            Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 < Fraction(rho) ** 2
            for z in others[np.abs(others) >= rho]
        )
    simple = in_spectrum and int(np.sum(in_cluster)) == 1
    record = PerronReport(
        rho=rho,
        spectrum=tuple(complex(z) for z in w),
        rho_positive=rho > negligible,
        rho_in_spectrum=in_spectrum,
        eigvec=None,
        eigvec_positive=False,
        simple=simple,
        strictly_dominant=in_spectrum and dominant,
        dominance_margin=margin,
        cluster_radius=cluster_radius,
        overall=rho > negligible and simple and dominant,
    )
    return record, index


def _attach_vector(record: PerronReport, vector, eps: float) -> PerronReport:
    """The report of a _spectral_record, with `vector` as rho's eigenvector.

    The vector is read only when rho is in the spectrum. Scaled to largest
    entry 1, it is measured against eps, so its verdict does not move under
    positive scaling either. ``eigvec`` is its real part; an imaginary part
    beyond eps fails ``eigvec_positive``.
    """
    if not record.rho_in_spectrum:
        return record
    col = vector / vector[int(np.argmax(np.abs(vector)))]
    eigvec = col.real.copy()
    eigvec.setflags(write=False)
    # a complex vector (of an eigenvalue beside the real axis) is no Perron
    # vector, whatever its real part
    positive = bool(np.all(eigvec > eps) and np.all(np.abs(col.imag) <= eps))
    overall = record.overall and positive
    return replace(record, eigvec=eigvec, eigvec_positive=positive, overall=overall)


def _scale(m: np.ndarray) -> float:
    """max(||m||_inf, ||m||_1), which m^T shares; raises when it overflows."""
    return max(_finite_norm(m), _finite_norm(m.T))


def _matrix_side(record: PerronReport, index: int, m, border, eps: float) -> PerronReport:
    """The report of m (A or A^T) from the record of A, with rho's vector
    from the solve bordered with `border` (see _perron_vector)."""
    if not record.rho_in_spectrum:
        return record
    lam = record.spectrum[index].real
    x = _perron_vector(m, lam, border if record.simple else None)
    return _attach_vector(record, x, eps)


def strong_pf_check(a, tol: Tolerance = DEFAULT_TOL) -> PerronReport:
    """Measure the five strong Perron-Frobenius conditions on a real matrix.

    The matrix is given by its entries. The four spectrum conditions are
    decided on its eigenvalues alone, at the scale max(||A||_inf, ||A||_1)
    that A^T shares, so this report is exactly eventually_positive_check's
    matrix side. rho's eigenvector comes from one real solve bordered with
    the vector of ones (see _perron_vector), so LAPACK computes eigenvectors
    only when rho is not simple or that solve fails its residual test.
    verify_preservation_theorem decides factored input on its factors.
    """
    m = square_matrix(a)
    scale = _scale(m)
    record, index = _spectral_record(_eigenvalues(m), scale, tol.rel_eps)
    return _matrix_side(record, index, m, np.ones(len(m)), tol.rel_eps)


# about a thousand times the backward error of a decomposition's eigenvector
_BORDERED_RESIDUAL_ULPS = 1024


def _perron_vector(m: np.ndarray, lam: float, border: np.ndarray | None) -> np.ndarray:
    """Eigenvector of m at lam, its eigenvalue nearest rho.

    Callers pass a border only when rho is simple, and so real. Then one real
    solve of [[m - lam I, border], [border^T, 0]] [x; mu] = [0; 1], with m and
    lam scaled by the same power of two (which leaves x unchanged), gives
    m x = lam x when lam is simple and its left and right eigenvectors both
    have a nonzero product with `border`. x counts only if it is finite and
    ||m x - lam x||_inf <= _BORDERED_RESIDUAL_ULPS * n * eps * ||m||_inf *
    ||x||_inf, about the accuracy of a decomposition's column; a border nearly
    orthogonal to the left eigenvector makes the system ill-conditioned and
    fails this test. Otherwise, or without a border, m is fully decomposed and
    the vector is the column at the eigenvalue nearest that decomposition's
    own spectral radius.
    """
    if border is not None:
        n = m.shape[0]
        exponent = -math.frexp(norm_inf(m))[1]
        scaled, shift = np.ldexp(m, exponent), math.ldexp(lam, exponent)
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = scaled
        bordered[range(n), range(n)] -= shift
        bordered[:n, n] = border
        bordered[n, :n] = border
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        try:
            x = np.linalg.solve(bordered, rhs)[:n]
        except np.linalg.LinAlgError:
            x = None
        if x is not None and np.isfinite(x).all():
            with np.errstate(over="ignore", invalid="ignore"):
                residual = norm_inf(scaled @ x - shift * x)
            limit = _BORDERED_RESIDUAL_ULPS * n * np.finfo(float).eps
            if residual <= limit * norm_inf(scaled) * norm_inf(x):
                return x
    w, v = eigen_decompose(m)
    return v[:, int(np.argmin(np.abs(w - np.max(np.abs(w)))))]


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
    Perron-Frobenius. A and A^T share their spectrum and the scale
    max(||A||_inf, ||A||_1), so one spectral record decides the four
    spectrum conditions, and rho's cluster radius, for both sides. The
    matrix side, strong_pf_check's report, reads rho's right vector x from
    the solve bordered with ones; the transpose side reads the left vector
    from a second solve, on A^T bordered with x. Where rho is not simple or
    a side's solve fails (see _perron_vector), that side's matrix is fully
    decomposed.
    """
    m = square_matrix(a)
    scale = _scale(m)
    record, index = _spectral_record(_eigenvalues(m), scale, tol.rel_eps)
    r1 = _matrix_side(record, index, m, np.ones(len(m)), tol.rel_eps)
    r2 = _matrix_side(record, index, m.T, r1.eigvec, tol.rel_eps)
    return EventualPositivityReport(r1.overall and r2.overall, r1, r2)


def _power_of_two_scaled(a: np.ndarray, size: float) -> np.ndarray:
    """a times the power of two that brings `size` into [0.5, 1); exact."""
    return np.ldexp(a, -math.frexp(size)[1])


def _rescaled(p: np.ndarray) -> np.ndarray:
    """p scaled exactly, by a power of two, to largest entry in [0.5, 1)."""
    return _power_of_two_scaled(p, max_abs(p))


def power_threshold(a, k_max: int) -> int | None:
    """Brute-force positivity threshold by explicit powers.

    Returns the smallest p such that A^k is entrywise strictly positive for
    every p <= k <= k_max, or None unless A^(k_max - 1) and A^k_max are both
    positive (for k_max = 1, unless A is): two consecutive positive powers
    prove eventual positivity, one alone does not (the even powers of -A can
    all be positive).

    The scan starts at the last non-positive power of two: A is squared while
    the square A^(2t) is not positive and 2t <= k_max, and the scan forms
    A^(t+1), A^(t+2), ... from A^t. A^t is not positive, so the last
    non-positive exponent is at least t and the powers below t decide nothing.

    The scan stops early. Products of positive matrices are positive, so once
    A^s, ..., A^(2s-1) are all positive, so is A^k for every k >= s. The scan
    therefore returns s when it reaches k = 2s - 1 with no non-positive power
    since s - 1. A threshold s costs at most 2s - 1 products, and no
    threshold at most k_max.

    Positivity is scale invariant, so A is scaled by powers of two: to largest
    entry in [0.5, 1), so that no row sum overflows, then to ||.||_inf in
    [0.5, 1), making ||A^k||_inf non-increasing. Each square and every 8th
    scanned power is scaled again against underflow. Powers of two scale
    exactly, so every sign is the sign of the unscaled float64 product.
    """
    m = square_matrix(a)
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    base = _rescaled(m)
    base = _power_of_two_scaled(base, norm_inf(base))
    power, last_nonpositive = np.eye(len(m)), 0
    if not (base > 0.0).all():
        power, last_nonpositive = base, 1
        while 2 * last_nonpositive <= k_max:
            square = _rescaled(power @ power)
            if (square > 0.0).all():
                break
            power, last_nonpositive = square, 2 * last_nonpositive
        if last_nonpositive >= k_max - 1:
            return None
    for k in range(last_nonpositive + 1, k_max + 1):
        power = power @ base
        if k % 8 == 0:
            power = _rescaled(power)
        if not (power > 0.0).all():
            last_nonpositive = k
        elif k == 2 * last_nonpositive + 1:
            return last_nonpositive + 1
    return None if last_nonpositive >= k_max - 1 else last_nonpositive + 1


@dataclass(frozen=True)
class FrobeniusVerdict:
    """Verdicts for the three scalar preservation conditions on f's table.

    Witnesses record the worst observed entry: the largest conjugate-symmetry
    defect, a failing one first, with its point and order; the smallest
    domination gap. ``table`` holds f^(j)(lam) on the spectrum and
    ``conjugate_failures`` the entries failing the conjugate-symmetry test,
    for verify_preservation_theorem to form f(A); to_dict leaves both out.
    """

    conjugate_symmetry: bool
    conjugate_witness: tuple[complex, int, float]
    modulus_domination: bool
    modulus_marginal: bool
    modulus_witness: tuple[complex, float, float] | None
    positivity_at_rho: bool
    overall: bool
    table: dict[complex, list] = field(repr=False, compare=False)
    conjugate_failures: list = field(repr=False, compare=False)
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
    f: SpectralFunction, spec: JordanSpec, tol: Tolerance = DEFAULT_TOL
) -> FrobeniusVerdict:
    """Test the scalar preservation conditions on f's table on spec.

    The table holds f^(j)(lam) for each distinct eigenvalue lam, conjugate
    partners included, and each j below lam's index; f without a value or
    derivative the structure needs raises NotDefinedOnSpectrumError. rho is
    the spec's spectral radius, max |lam|. Checks: conj f^(j)(lam) ==
    f^(j)(conj lam), by the test matrix_function applies; |f(lam)| < f(rho)
    for lam strictly inside the circle of radius rho, that is
    |lam| < rho * (1 - tol.rel_eps); and f(rho) a positive real, read from
    the table when rho is an eigenvalue. The last two are measured against
    ``tol.rel_eps * max(|f(rho)|, max |f(lam)|)``, so no threshold depends
    on the absolute size of f or of rho.
    """
    table = _spectral_table(f, spec)
    rho = max(map(abs, table))
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
    failed = [d for d in defects if d[2] > d[3]]
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

    overall = not failed and dom_ok and positivity
    return FrobeniusVerdict(
        conjugate_symmetry=not failed,
        conjugate_witness=(lam, j, defect),
        modulus_domination=dom_ok,
        modulus_marginal=marginal,
        modulus_witness=dom_worst,
        positivity_at_rho=positivity,
        overall=overall,
        table=table,
        conjugate_failures=failed,
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
            lines.append("  f(A) could not be formed as a real matrix:")
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

    frobenius_check comes first, so an f undefined on the spectrum raises
    NotDefinedOnSpectrumError whatever A is. A's report is read off its
    factors, so A is neither formed nor decomposed and `tol` does not apply
    to it: the spectrum is the spec's eigenvalue multiset, listed block by
    block in the transform's column order, and rho must be one of its
    entries, exactly. Entries within a millionth of rho of rho form rho's
    cluster, so a multiple rho that rounding split in extraction is not
    simple; every entry outside it must have modulus below rho, decided
    exactly where the float64 modulus ties with rho. The first slot k of
    rho's block indexes its eigenvector R[:, k], which, scaled to largest
    entry 1, must be strictly positive. None of this changes under (spec,
    D P R) for a positive diagonal D and a permutation P. Only f(A) is
    decomposed, and `tol` governs f's side and f(A)'s report.

    A must carry the strong Perron-Frobenius property to begin with (the
    equivalence says nothing otherwise); violating that raises
    PreconditionError. f(A) is formed, as in matrix_function, from the table
    and conjugate-symmetry failures frobenius_check found; such a failure is
    the "f(A) is not a real strong Perron-Frobenius matrix" outcome, not an
    error. When f's side holds and f(A)'s report fails, the report is run
    on the exact f(A) as well, with spectrum f(w), f(A)'s scale and A's
    Perron vector; if that fails too, `tol` cannot resolve the comparison
    and MatFrobError is raised instead of a disagreement. Other failures
    propagate.
    """
    verdict = frobenius_check(f, factors.spec, tol)
    w = np.array(factors.spec.eigenvalue_multiset())
    r = factors.transform
    record, k = _spectral_record(w, float(np.max(np.abs(w))), 0.0)
    a_report = _attach_vector(record, r[:, k], 0.0)
    if not a_report.overall:
        raise PreconditionError(
            "the factored matrix lacks the strong Perron-Frobenius property "
            f"(failed: {', '.join(a_report.failed_conditions())})"
        )

    f_of_a = None
    fa_error = None
    fa_report = None
    fa_pf = False
    try:
        f_of_a = _assemble(factors, f, verdict.table, verdict.conjugate_failures)
    except NonRealResultError as exc:
        fa_error = str(exc)
    else:
        fa_report = strong_pf_check(f_of_a, tol)
        fa_pf = fa_report.overall
        if verdict.overall and not fa_pf:
            # the exact f(A): spectrum f(w), and A's Perron vector R[:, k]
            # at rho; a report that fails it cannot tell the two sides apart
            fw = np.array([verdict.table[complex(z)][0] for z in w])
            record, k = _spectral_record(fw, _scale(f_of_a), tol.rel_eps)
            exact = _attach_vector(record, r[:, k], tol.rel_eps)
            if not exact.overall:
                raise MatFrobError(
                    f"the comparison is unresolved at tolerance {tol.rel_eps:g}: "
                    "f(A)'s report fails on its exact spectrum and Perron "
                    f"vector too (failed: {', '.join(exact.failed_conditions())})"
                )

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
