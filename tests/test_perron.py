import itertools
import math

import numpy as np
import pytest

import matfrob.perron
from matfrob import (
    Abs,
    Exp,
    JordanSpec,
    MatFrobError,
    Monomial,
    NonRealResultError,
    NotDefinedOnSpectrumError,
    Polynomial,
    PreconditionError,
    PrincipalRoot,
    RealJordanFactors,
    SpectralFunction,
    Tolerance,
    eventually_positive_check,
    extract_diagonalizable_structure,
    frobenius_check,
    matrix_function,
    power_threshold,
    strong_pf_check,
    synthesize_matrix,
    verify_preservation_theorem,
)
from matfrob.core import DEFAULT_TOL, norm_inf
from matfrob.perron import _perron_report, _perron_vector
from matfrob.sampling import (
    positive_column_orthogonal,
    random_orthogonal,
    random_pf_factors,
    random_pf_spec,
)

from helpers import (
    NEGATE,
    count_calls,
    count_power_products,
    count_scalar_calls,
    differentiable_catalogue,
    full_catalogue,
    spec_at,
)
from test_funcalc import SkewedDerivatives, TiltedSlope


class ShiftedOffAxis(SpectralFunction):
    """f(z) = z on the real axis and z + 1e-10 i off it."""

    def describe(self):
        return "z + 1e-10i off the axis"

    def _derivative(self, z, order):
        if not order:
            return z + 1e-10j if z.imag else z
        return 1.0 if order == 1 else 0j


class PoleAtTwo(SpectralFunction):
    """f(z) = 1 / (2 - z): defined everywhere but at 2."""

    def defined_at(self, z):
        return z != 2

    def describe(self):
        return "1/(2-z)"

    def _derivative(self, z, order):
        return math.factorial(order) / (2 - z) ** (order + 1)


B = np.array([[2.0, 1.0], [2.0, -1.0]])
RHO_B = (1.0 + math.sqrt(17.0)) / 2.0
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
# eigenvalues 1 +- 3.5e-9 i and 0.1: rho lies 3.5e-9 from the spectrum, within
# 1e-9 * ||A^T||_inf = 4.1e-9 but not 1e-9 * ||A||_inf = 3e-9, so only the
# transpose side reads a vector, with no right vector to border with
TRANSPOSE_ONLY_RHO = np.array(
    [[1.0, -3.5e-9, 2.0], [3.5e-9, 1.0, 2.0], [0.0, 0.0, 0.1]]
)
# A^32 and A^36 are not positive, A^37 ... A^64 are: threshold 37 at k_max 64
MID_THRESHOLD = np.array(
    [[0.62, -0.5, 1.14], [0.97, 0.61, 0.01], [-0.47, 1.23, -0.12]]
)


class TestStrongPF:
    def test_golden_holds(self):
        report = strong_pf_check(B)
        assert report.overall
        assert report.failed_conditions() == []
        assert abs(report.rho - RHO_B) < 1e-12
        # the subdominant eigenvalue is (1 - sqrt 17)/2, one unit below rho
        assert abs(report.dominance_margin - 1.0) < 1e-12
        np.testing.assert_allclose(
            report.eigvec, [1.0, (math.sqrt(17.0) - 3.0) / 2.0], atol=1e-12
        )

    def test_swap_fails_dominance_only(self):
        report = strong_pf_check(SWAP)
        assert not report.overall
        assert report.failed_conditions() == ["strictly_dominant"]
        assert np.all(report.eigvec > 0)
        assert abs(report.dominance_margin) < 1e-12

    def test_identity_not_simple(self):
        report = strong_pf_check(np.eye(2))
        assert not report.overall
        assert not report.simple

    def test_shear_not_simple(self):
        report = strong_pf_check(SHEAR)
        assert not report.overall
        assert not report.simple
        assert report.rho_positive

    def test_rotation_radius_not_an_eigenvalue(self):
        report = strong_pf_check(ROTATION)
        assert not report.overall
        assert not report.rho_in_spectrum
        assert not report.strictly_dominant

    def test_zero_matrix(self):
        report = strong_pf_check(np.zeros((3, 3)))
        assert not report.overall
        assert not report.rho_positive
        assert report.rho == 0.0

    @pytest.mark.parametrize("c", [1e-10, 1e-150])
    def test_tiny_scale_golden_holds(self, c):
        # the property is invariant under positive scaling; a bare absolute
        # epsilon failed rho_positive and strictly_dominant here
        report = strong_pf_check(c * B)
        assert report.failed_conditions() == []
        assert abs(report.dominance_margin - c) < 1e-12 * c
        assert eventually_positive_check(c * B).overall

    @pytest.mark.parametrize("c", [1e-10, 1e-150])
    def test_tiny_scale_negated_golden_fails_like_unscaled(self, c):
        # the eigenvalue nearest rho lies rho - |lambda_2| = c away from it
        # and is no eigenvalue at rho, however small c is
        report = strong_pf_check(-c * B)
        assert report.failed_conditions() == strong_pf_check(-B).failed_conditions()
        assert not report.rho_in_spectrum

    def test_verdicts_invariant_under_power_of_two_scaling(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            n = int(rng.integers(2, 7))
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            if trial % 2:
                a = a + rng.uniform(0.0, 1.5)
            base = strong_pf_check(a).failed_conditions()
            for e in (-500, -33, 33, 500):
                assert strong_pf_check(np.ldexp(a, e)).failed_conditions() == base

    def test_nonnegative_eigvec_rejected(self):
        report = strong_pf_check(np.diag([2.0, 1.0]))
        assert report.failed_conditions() == ["eigvec_positive"]

    def test_non_square_rejected(self):
        with pytest.raises(
            PreconditionError, match=r"^expected a square matrix, got shape \(2, 3\)$"
        ):
            strong_pf_check(np.ones((2, 3)))

    def test_report_serialization(self):
        report = strong_pf_check(B)
        d = report.to_dict()
        assert d["overall"] is True
        assert set(d["conditions"]) == {
            "rho_positive",
            "rho_in_spectrum",
            "eigvec_positive",
            "simple",
            "strictly_dominant",
        }
        text = report.format_text()
        assert "HOLDS" in text
        assert "FAIL" not in text

    def test_report_text_on_failure(self):
        text = strong_pf_check(SWAP).format_text()
        assert "DOES NOT HOLD" in text
        assert "FAIL" in text


class TestEventuallyPositive:
    def test_golden(self):
        report = eventually_positive_check(B)
        assert report.overall
        assert report.matrix_report.overall
        assert report.transpose_report.overall
        assert "eventually positive: YES" in report.format_text()

    def test_swap(self):
        assert not eventually_positive_check(SWAP).overall

    def test_one_sided_failure(self):
        # eigenvalues 2 and 1; right Perron vector [1, 1] but the left one
        # is [-1, 2], so only the matrix side passes
        a = np.array([[0.0, 2.0], [-1.0, 3.0]])
        report = eventually_positive_check(a)
        assert report.matrix_report.overall
        assert not report.transpose_report.overall
        assert not report.overall
        assert power_threshold(a, 64) is None

    def test_transpose_side_matches_the_transpose_check(self):
        # the transpose side comes from A's own spectrum and a left Perron
        # vector; every verdict must be the one a check of A^T gives
        rng = np.random.default_rng(31)
        matrices = [B, SWAP, SHEAR, np.eye(3), np.zeros((3, 3)), -B, TRANSPOSE_ONLY_RHO]
        for trial in range(300):
            n = int(rng.integers(2, 7))
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            if trial % 2:
                a = a + rng.uniform(0.3, 1.5)
            matrices.append(a * 10.0 ** int(rng.choice([-8, 0, 8])))
        for _ in range(40):
            matrices.append(random_pf_factors(rng, max_dim=8).reconstruct())
        for a in matrices:
            report = eventually_positive_check(a)
            expected = strong_pf_check(a.T)
            assert report.transpose_report.condition_verdicts() == (
                expected.condition_verdicts()
            ), a
            assert report.matrix_report.condition_verdicts() == (
                strong_pf_check(a).condition_verdicts()
            ), a

    def test_complex_vector_is_not_a_positive_perron_vector(self):
        # the transpose side reads the vector of 1 + 3.5e-9 i, whose real
        # part is positive; its imaginary part fails eigvec_positive
        side = eventually_positive_check(TRANSPOSE_ONLY_RHO).transpose_report
        assert side.rho_in_spectrum and np.all(side.eigvec > 0.0)
        assert not side.eigvec_positive
        assert not side.simple and not side.overall

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, value):
        a = B.copy()
        a[0, 1] = value
        for check in (eventually_positive_check, strong_pf_check):
            with pytest.raises(PreconditionError, match="finite"):
                check(a)
        with pytest.raises(PreconditionError, match="finite"):
            power_threshold(a, 64)

    def test_overflowing_norm_rejected(self):
        a = np.full((2, 2), 1e308)
        for check in (eventually_positive_check, strong_pf_check):
            with pytest.raises(PreconditionError, match="overflows float64"):
                check(a)

    def test_overflowing_column_sum_rejected(self):
        # row sums are finite, so only the transpose side overflows
        a = np.array([[1e308, 0.0], [1e308, 1.0]])
        strong_pf_check(a)
        with pytest.raises(PreconditionError, match="overflows float64"):
            eventually_positive_check(a)

    def test_left_perron_vector(self):
        report = eventually_positive_check(B)
        y = report.transpose_report.eigvec
        np.testing.assert_allclose(B.T @ y, RHO_B * y, atol=1e-12)
        assert np.max(y) == 1.0


def full_scan_thresholds(a, horizons):
    """Reference: power_threshold's answer at each k_max in `horizons`, from
    the loop as it was before the early stop.

    One scan forms every power up to the largest horizon, scaled as A is by a
    power of two near ||A||_inf and every 8th power near its largest entry;
    the answer at k_max reads the last non-positive power up to k_max.
    """
    m = np.asarray(a, dtype=float)
    base = np.ldexp(m, -math.frexp(matfrob.core.norm_inf(m))[1])
    power = np.eye(base.shape[0])
    nonpositive = [0]
    for k in range(1, max(horizons) + 1):
        power = power @ base
        if k % 8 == 0:
            power = np.ldexp(power, -math.frexp(matfrob.core.max_abs(power))[1])
        if not (power > 0.0).all():
            nonpositive.append(k)
    answers = {}
    for k_max in horizons:
        last = max(k for k in nonpositive if k <= k_max)
        answers[k_max] = None if last >= max(k_max - 1, 1) else last + 1
    return answers


def threshold_reference_set():
    """3008 seeded matrices: random, random_pf_factors, and the fixed cases."""
    rng = np.random.default_rng(4242)
    for trial in range(2700):
        n = int(rng.integers(2, 7))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        if trial % 2:
            a = a + rng.uniform(0.3, 1.5)
        yield a * 10.0 ** (-8, 0, 8)[trial % 3]
    for _ in range(300):
        yield random_pf_factors(rng, max_dim=6).reconstruct()
    yield from (B, -B, 1e150 * B, 1e-150 * B, SWAP, np.eye(3), np.ones((3, 3)),
                np.zeros((2, 2)))


class TestPowerThreshold:
    @pytest.fixture
    def products(self, monkeypatch):
        return count_power_products(monkeypatch)

    def test_early_stop_matches_the_full_scan(self, products):
        # the squaring start's edges are a power of two and its neighbours;
        # no case may form more products than the plain early-stop scan
        counts = {"finite": 0, "none": 0}
        for a in threshold_reference_set():
            answers = full_scan_thresholds(a, (1, 2, 3, 4, 8, 9, 10, 33, 63, 64, 65))
            for k_max, expected in answers.items():
                products.clear()
                assert power_threshold(a, k_max) == expected, (a, k_max)
                plain = k_max if expected is None else min(2 * expected - 1, k_max)
                assert len(products) <= plain, (a, k_max)
                counts["none" if expected is None else "finite"] += 1
        assert counts["finite"] >= 3000 and counts["none"] >= 3000

    @pytest.mark.parametrize(
        "a, k_max, threshold, count",
        [
            (B, 64, 4, 7),  # B^2 is positive: one square, then B^2 .. B^7
            (np.ones((3, 3)), 64, 1, 1),
            (-B, 64, None, 64),  # only the even powers are positive
            # I^2, I^4, ..., I^64 are not positive: six squares reach t = k_max,
            # and nothing is left to scan
            (np.eye(2), 64, None, 6),
            (B, 10**9, 4, 7),  # the horizon is never reached
            (B, 5, 4, 5),  # a threshold past (k_max + 1) / 2 scans to k_max
            # a threshold of exactly k_max still reads None
            (B, 4, None, 4),
            # A^2 is positive, so A is the last non-positive power of two and
            # t = 1 = k_max - 1 reads None without a scan
            (np.array([[0.0, 1.0], [1.0, 1.0]]), 2, None, 1),
            (np.array([[0.0, 1.0], [1.0, 1.0]]), 3, 2, 3),
            (np.eye(2), 65, None, 6),  # t = 64 = k_max - 1 reads None
            (SWAP, 64, None, 6),
            (np.eye(2), 6, None, 4),  # two squares reach t = 4; A^5 and A^6 follow
            (np.eye(2), 5, None, 2),  # t = 4 = k_max - 1 reads None
            # (-B)^2 is positive, so the scan starts at t = 1 and forms every
            # power up to k_max: the plain scan's count
            (-B, 65, None, 65),
            # A^32 is the last non-positive power of two (A^64 is positive):
            # six squares, then A^33 ... A^64
            (MID_THRESHOLD, 64, 37, 38),
        ],
    )
    def test_product_count(self, products, a, k_max, threshold, count):
        assert power_threshold(a, k_max) == threshold
        assert len(products) == count

    def test_golden_threshold(self):
        assert power_threshold(B, 10) == 4
        assert power_threshold(B, 64) == 4

    def test_already_positive(self):
        assert power_threshold(np.ones((3, 3)), 8) == 1

    def test_identity_never_positive(self):
        assert power_threshold(np.eye(2), 16) is None

    def test_swap_alternates(self):
        assert power_threshold(SWAP, 16) is None

    def test_scale_invariance(self):
        assert power_threshold(5.0 * B, 16) == power_threshold(B, 16)

    @pytest.mark.parametrize("c", [1e-150, 1e150, 7e307])
    def test_extreme_scales(self, c):
        assert power_threshold(c * B, 64) == 4

    def test_even_powers_alone_are_no_threshold(self):
        # every even power of -B is positive and every odd one negative:
        # -B is not eventually positive, and one positive power A^64 must
        # not say otherwise
        assert power_threshold(-B, 64) is None
        assert power_threshold(-B, 65) is None
        assert not eventually_positive_check(-B).overall

    def test_single_power_horizon(self):
        assert power_threshold(np.ones((2, 2)), 1) == 1
        assert power_threshold(B, 1) is None

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            power_threshold(B, 0)

    def test_consecutive_positive_powers_imply_eventual_positivity(self):
        # If A^p and A^(p+1) are both positive, every exponent beyond their
        # Frobenius number is too, so the spectral test must say yes.
        rng = np.random.default_rng(777)
        finite = 0
        absent = 0
        for trial in range(200):
            n = int(rng.integers(2, 6))
            a = rng.uniform(-1.0, 1.0, size=(n, n))
            if trial % 2:
                a = a + rng.uniform(0.5, 1.5)
            t = power_threshold(a, 64)
            if t is None:
                absent += 1
            elif t < 64:
                finite += 1
                assert eventually_positive_check(a).overall
        assert finite >= 20
        assert absent >= 20

    def test_generator_outputs_have_finite_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_pf_factors(rng, max_dim=6).reconstruct()
            assert eventually_positive_check(a).overall
            assert power_threshold(a, 64) is not None


class TestFrobeniusCheck:
    def test_exp_on_golden_spectrum(self):
        spec = spec_at([RHO_B, (1 - math.sqrt(17.0)) / 2], 1)
        verdict = frobenius_check(Exp(), spec)
        assert verdict.overall
        assert verdict.conjugate_symmetry
        assert verdict.modulus_domination
        assert verdict.positivity_at_rho
        assert "HOLD" in verdict.format_text()

    def test_negation_fails_positivity(self):
        verdict = frobenius_check(NEGATE, spec_at([2.0, -1.0], 1))
        assert not verdict.overall
        assert not verdict.positivity_at_rho
        assert verdict.conjugate_symmetry
        assert any("positive real" in n for n in verdict.notes)

    def test_odd_root_conjugate_defect(self):
        verdict = frobenius_check(PrincipalRoot(3), spec_at([2.0, -1.0], 1))
        assert not verdict.conjugate_symmetry
        z, order, defect = verdict.conjugate_witness
        assert (z, order) == (-1.0 + 0j, 0)
        # conj of the principal cube root of -1 lands on the other branch
        assert abs(defect - math.sqrt(3.0)) < 1e-12
        assert verdict.positivity_at_rho

    def test_marginal_domination(self):
        # (z - 1)^2 takes the same value 4 at both spectrum points
        f = Polynomial((1.0, -2.0, 1.0))
        verdict = frobenius_check(f, spec_at([3.0, -1.0], 1))
        assert not verdict.modulus_domination
        assert verdict.modulus_marginal
        z, abs_f, f_rho = verdict.modulus_witness
        assert z == -1.0 + 0j
        assert abs(abs_f - 4.0) < 1e-12 and abs(f_rho - 4.0) < 1e-12
        assert "marginal" in verdict.format_text()

    def test_spectrum_outside_domain_is_a_failure(self):
        # as in matrix_function: f is not defined on the spectrum
        with pytest.raises(NotDefinedOnSpectrumError, match="-1"):
            frobenius_check(PrincipalRoot(2), spec_at([2.0, -1.0], 1))

    def test_rho_outside_domain(self):
        # rho = |-2| = 2 is not an eigenvalue, and f is undefined there only
        verdict = frobenius_check(PoleAtTwo(), spec_at([-2.0, 1.0], 1))
        assert not verdict.positivity_at_rho
        assert verdict.notes == ("rho = 2 is outside the domain of 1/(2-z)",)

    def test_each_distinct_point_evaluated_once(self, monkeypatch):
        # rho is the first spectrum point, -1 is repeated, and both are their
        # own conjugates: two distinct points, so two evaluations
        calls = count_scalar_calls(monkeypatch)
        verdict = frobenius_check(Exp(), spec_at([2.0, -1.0, -1.0], 1))
        assert verdict.overall
        assert calls == [(Exp(), 2.0 + 0j, 0), (Exp(), -1.0 + 0j, 0)]

    def test_undefined_point_noted_once(self):
        with pytest.raises(NotDefinedOnSpectrumError) as err:
            frobenius_check(PrincipalRoot(2), spec_at([2, -1, -1], 1))
        assert str(err.value).count("outside the domain") == 1

    def test_serialization(self):
        verdict = frobenius_check(Exp(), spec_at([2.0, 1.0], 1))
        d = verdict.to_dict()
        assert d["overall"] is True
        assert d["modulus_witness"]["f_rho"] == pytest.approx(math.exp(2.0))
        assert d["conjugate_witness"] == {"re": 2.0, "im": 0.0, "order": 0, "defect": 0.0}
        # the table is for f(A), not for the report
        assert "table" not in d and verdict.table[2.0] == [math.exp(2.0)]


def golden_factors():
    from matfrob import extract_diagonalizable_structure

    return extract_diagonalizable_structure(B)


class TestPreservationTheorem:
    def test_exp_preserves_on_golden(self):
        res = verify_preservation_theorem(golden_factors(), Exp())
        assert res.f_is_frobenius
        assert res.fa_strong_pf
        assert res.theorem_consistent
        assert res.f_of_a_error is None
        assert "AGREE" in res.format_text()

    def test_negation_consistent_on_both_sides(self):
        res = verify_preservation_theorem(golden_factors(), NEGATE)
        assert not res.f_is_frobenius
        assert not res.fa_strong_pf
        assert res.theorem_consistent
        assert res.f_of_a is not None

    def test_odd_root_non_real_branch(self):
        # f(A) leaves the real matrices; the scalar side flags the same
        # eigenvalue, so the equivalence still holds
        res = verify_preservation_theorem(golden_factors(), PrincipalRoot(3))
        assert res.f_of_a is None
        assert res.f_of_a_error is not None
        assert not res.fa_strong_pf
        assert not res.f_is_frobenius
        assert res.theorem_consistent
        assert "DOES NOT HOLD" in res.format_text()

    def test_precondition_enforced(self):
        spec = JordanSpec(real_blocks=((2.0, 1), (1.0, 1)))
        _, factors = synthesize_matrix(spec, np.eye(2))
        with pytest.raises(PreconditionError):
            verify_preservation_theorem(factors, Exp())

    def test_comparison_below_the_tolerance_is_refused(self):
        # A holds, but its Perron vector [1, 1e-12] is below what f(A)'s
        # report resolves at 1e-9: a disagreement would be the checker's,
        # so verify refuses, as an error that is not A's
        spec = JordanSpec(real_blocks=((2.0, 1), (1.0, 1)))
        _, factors = synthesize_matrix(spec, np.array([[1.0, 1.0], [1e-12, -1.0]]))
        with pytest.raises(
            MatFrobError,
            match=r"^the comparison is unresolved at tolerance 1e-09: .*"
            r"\(failed: eigvec_positive\)$",
        ) as info:
            verify_preservation_theorem(factors, Exp())
        assert not isinstance(info.value, PreconditionError)
        assert verify_preservation_theorem(factors, Exp(), Tolerance(1e-13)).theorem_consistent

    def test_extracted_double_rho_is_not_simple(self):
        # extraction keeps the two values rounding splits a double rho into,
        # 2 +- 1 ulp: the cluster radius still refuses a simple rho
        for seed in range(100):
            q = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
            factors = extract_diagonalizable_structure(q @ np.diag([2.0, 2.0, 1.0]) @ q.T)
            with pytest.raises(PreconditionError, match=r"\(failed: .*simple"):
                verify_preservation_theorem(factors, Exp())

    def test_resolvable_disagreement_is_reported(self, monkeypatch):
        # the exact f(A) passes f(A)'s report, so a failing report is a
        # disagreement, not a refusal
        failing = strong_pf_check(np.diag([1.0, -1.0]))
        monkeypatch.setattr(matfrob.perron, "strong_pf_check", lambda *args: failing)
        res = verify_preservation_theorem(golden_factors(), Exp())
        assert res.f_is_frobenius and not res.fa_strong_pf
        assert not res.theorem_consistent

    def test_overflowing_factored_matrix_rejected(self):
        # R J R^-1 would overflow, but verify never forms it: the exact
        # report refuses the tie between rho and -rho, and R's column at rho
        # has a zero entry
        factors = RealJordanFactors(
            JordanSpec(real_blocks=((1.7e308, 1), (-1.7e308, 1))),
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            np.array([[1.0, -1.0], [0.0, 1.0]]),
        )
        with pytest.raises(
            PreconditionError,
            match=r"\(failed: eigvec_positive, strictly_dominant\)$",
        ):
            verify_preservation_theorem(factors, Monomial(1))

    def test_serialization(self):
        d = verify_preservation_theorem(golden_factors(), Exp()).to_dict()
        assert d["theorem_consistent"] is True
        assert d["fa_strong_pf"] is True


def _orthogonal_transform(rng):
    spec = random_pf_spec(rng, max_dim=8, max_block_size=3)
    return synthesize_matrix(spec, random_orthogonal(rng, spec.total_dimension))[1]


def _negative_dominant(rng):
    spec = random_pf_spec(rng, max_dim=8, max_block_size=3)
    (rho, _), *rest = spec.real_blocks
    spec = JordanSpec(((-rho, 1), *rest), spec.complex_blocks)
    q = positive_column_orthogonal(rng, spec.total_dimension)
    return synthesize_matrix(spec, q)[1]


def _pair_above_rho(rng):
    spec = random_pf_spec(rng, max_dim=6, max_block_size=2)
    rho = spec.real_blocks[0][0]
    theta = rng.uniform(0.2, math.pi - 0.2)
    lam = 1.2 * rho * complex(math.cos(theta), math.sin(theta))
    spec = JordanSpec(spec.real_blocks, ((lam, 1), *spec.complex_blocks))
    q = positive_column_orthogonal(rng, spec.total_dimension)
    return synthesize_matrix(spec, q)[1]


def _pair_beside_rho(rng):
    # the pair 1 +- 1e-12 i is nearest rho, and the first column of its
    # block is the transform's positive one: that real column alone looks
    # like a positive Perron vector
    spec = JordanSpec(((0.3, 1),), ((1 + 1e-12j, 1),))
    q = positive_column_orthogonal(rng, 3)[:, [1, 0, 2]]
    return synthesize_matrix(spec, q)[1]


FACTOR_KINDS = {
    "pf": lambda rng: random_pf_factors(rng, max_dim=8, max_block_size=3),
    "orthogonal": _orthogonal_transform,
    "negative_rho": _negative_dominant,
    "pair_above_rho": _pair_above_rho,
    "pair_beside_rho": _pair_beside_rho,
}


class TestFactoredReport:
    """verify reads A's report off its factors: with no eigendecomposition
    and no tolerance, only a cluster radius of 1e-6 * rho."""

    @staticmethod
    def factored_report(monkeypatch, factors):
        """The report verify_preservation_theorem builds for A."""
        seen = []
        original = matfrob.perron._perron_report
        monkeypatch.setattr(
            matfrob.perron,
            "_perron_report",
            lambda *args: seen.append(original(*args)) or seen[-1],
        )
        try:
            verify_preservation_theorem(factors, Monomial(1))
        except MatFrobError:  # A's refusal, or an unresolved f(A) after it
            pass
        monkeypatch.undo()
        return seen[0]

    @pytest.mark.parametrize("kind", sorted(FACTOR_KINDS))
    def test_matches_the_eigendecomposition(self, monkeypatch, kind):
        rng = np.random.default_rng(31)
        for _ in range(300):
            factors = FACTOR_KINDS[kind](rng)
            got = self.factored_report(monkeypatch, factors)
            want = strong_pf_check(factors.reconstruct())
            assert got.overall == want.overall, factors.spec
            assert got.cluster_radius == 1e-6 * got.rho
            w = np.array(factors.spec.eigenvalue_multiset())
            if (w[np.abs(w - got.rho) <= want.cluster_radius] != got.rho).any():
                # an eigenvalue other than rho lies within the cluster
                # radius: the decomposition folds it into rho, the report
                # on the factors tells the two apart
                assert not got.rho_in_spectrum or not got.simple
                continue
            assert got.failed_conditions() == want.failed_conditions(), factors.spec
            assert (got.eigvec is None) == (want.eigvec is None)
            # a vector of rho's cluster is fixed only when rho is simple; in
            # a pair 2e-12 wide the decomposition's is off by about 1e-4
            if want.simple:
                np.testing.assert_allclose(got.eigvec, want.eigvec, rtol=0, atol=1e-6)

    def test_a_is_never_formed(self, monkeypatch):
        # spectrum, vector and verdict come from the factors; only f(A) is
        # formed, by matrix_function's product
        rng = np.random.default_rng(47)
        built = [kind(rng) for kind in FACTOR_KINDS.values()]
        calls = count_calls(monkeypatch, "reconstruct", RealJordanFactors)
        for factors in built:
            try:
                verify_preservation_theorem(factors, Exp())
            except PreconditionError:
                pass
        assert calls == []

    def test_first_slot_of_each_block_is_an_eigenvector(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            factors = _orthogonal_transform(rng)
            spec, r = factors.spec, factors.transform
            a = factors.reconstruct()
            w = spec.eigenvalue_multiset()
            starts = np.cumsum(
                [0] + [n for _, n in spec.real_blocks]
                + [2 * n for _, n in spec.complex_blocks]
            )[:-1]
            for k in starts:
                x = r[:, k] + 1j * r[:, k + 1] if w[k].imag else r[:, k]
                atol = 1e-12 * max(1.0, abs(w[k]))
                np.testing.assert_allclose(a @ r[:, k], (w[k] * x).real, rtol=0, atol=atol)

    def test_jordan_block_at_rho_fails_only_simplicity(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            spec = random_pf_spec(rng, max_dim=6, max_block_size=2)
            (rho, _), *rest = spec.real_blocks
            spec = JordanSpec(((rho, 2), *rest), spec.complex_blocks)
            q = positive_column_orthogonal(rng, spec.total_dimension)
            _, factors = synthesize_matrix(spec, q * rng.uniform(0.6, 1.8, q.shape[0]))
            with pytest.raises(PreconditionError, match=r"\(failed: simple\)"):
                verify_preservation_theorem(factors, Exp())


class TestScaledSpectra:
    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1e2, 1e4])
    def test_scaling_every_eigenvalue_keeps_agreement(self, c):
        rng = np.random.default_rng(43)
        functions = differentiable_catalogue() + [NEGATE]
        checked = 0
        for _ in range(100):
            factors = random_pf_factors(rng, max_dim=10, max_block_size=1)
            spec = JordanSpec(
                tuple((c * lam, n) for lam, n in factors.spec.real_blocks),
                tuple((c * lam, n) for lam, n in factors.spec.complex_blocks),
            )
            scaled = RealJordanFactors(
                spec, factors.transform, factors.transform_inverse
            )
            for f in functions:
                try:
                    res = verify_preservation_theorem(scaled, f)
                except MatFrobError as exc:  # exp overflows float64 at c = 1e4
                    assert isinstance(exc, NotDefinedOnSpectrumError) or (
                        str(exc).startswith("exp overflows float64")
                    ), exc
                    continue
                assert res.theorem_consistent, (c, f.describe(), spec)
                checked += 1
        assert checked >= 500


class TestEquivalenceLattice:
    def test_catalogue_against_structured_spectra(self):
        rng = np.random.default_rng(20260819)
        functions = full_catalogue() + [NEGATE]
        checked = 0
        for _ in range(8):
            factors = random_pf_factors(rng, max_dim=8, max_block_size=3)
            for f in functions:
                try:
                    res = verify_preservation_theorem(factors, f)
                except NotDefinedOnSpectrumError:
                    continue
                assert res.theorem_consistent, (
                    f"{f.describe()} on {factors.spec}"
                )
                if res.f_is_frobenius:
                    assert res.fa_strong_pf
                checked += 1
        assert checked >= 40

    def test_perron_vector_transport(self):
        # f(A) inherits A's Perron vector with eigenvalue f(rho)
        rng = np.random.default_rng(9)
        for _ in range(20):
            factors = random_pf_factors(rng, max_dim=6, max_block_size=2)
            a = factors.reconstruct()
            report = strong_pf_check(a)
            x = report.eigvec
            for f in (Exp(), Monomial(2)):
                fa = matrix_function(factors, f)
                frho = f.eval(report.rho).real
                scale = max(1.0, abs(frho))
                assert np.max(np.abs(fa @ x - frho * x)) < 1e-6 * scale

    def test_positive_diagonal_similarity_is_neutral(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = random_pf_factors(rng, max_dim=6).reconstruct()
            d = rng.uniform(0.5, 2.0, size=a.shape[0])
            b = (a * d[None, :]) / d[:, None]  # inv(D) @ a @ D
            assert strong_pf_check(b).overall

    def test_signed_diagonal_similarity_breaks_positivity(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = random_pf_factors(rng, max_dim=6).reconstruct()
            d = np.ones(a.shape[0])
            d[int(rng.integers(0, a.shape[0]))] = -1.0
            b = (a * d[None, :]) / d[:, None]
            report = strong_pf_check(b)
            assert not report.eigvec_positive
            assert not report.overall


class TestDerivativeReality:
    """At a real point, conjugate symmetry of f^(j) says f^(j) is real."""

    def test_catalogue_real_on_positive_axis(self):
        # size-6 blocks reach orders 0 to 5
        rng = np.random.default_rng(19)
        samples = rng.uniform(0.1, 4.0, size=20)
        for f in differentiable_catalogue():
            verdict = frobenius_check(f, spec_at(samples, 6))
            assert verdict.conjugate_symmetry, f.describe()

    def test_skewed_double_caught(self):
        # f = i*z is imaginary at 1.5, f' = i everywhere: both orders fail
        spec = spec_at([1.5], 3)
        verdict = frobenius_check(SkewedDerivatives(), spec)
        assert not verdict.conjugate_symmetry
        assert verdict.conjugate_witness == (1.5 + 0j, 0, 3.0)
        _, factors = synthesize_matrix(spec, np.eye(3))
        with pytest.raises(NonRealResultError, match="not conjugate-symmetric"):
            matrix_function(factors, SkewedDerivatives())

    def test_abs_value_level_only(self):
        verdict = frobenius_check(Abs(), spec_at([1.0, 2.0], 1))
        assert verdict.conjugate_symmetry
        with pytest.raises(NotDefinedOnSpectrumError, match="order-1 derivative"):
            frobenius_check(Abs(), spec_at([1.0], 2))


class TestOneTableForBothSides:
    """Both sides of verify read one table and one conjugate-symmetry test."""

    def test_asymmetric_derivative_fails_both_sides(self):
        # a size-2 pair block needs f' too, so the scalar side must fail
        # f' = 1 + i as the matrix side does
        spec = JordanSpec(((3.0, 1),), ((0.5 + 0.5j, 2),))
        q = positive_column_orthogonal(np.random.default_rng(0), 5)
        res = verify_preservation_theorem(synthesize_matrix(spec, q)[1], TiltedSlope())
        assert res.theorem_consistent
        assert not res.frobenius.conjugate_symmetry
        assert res.frobenius.conjugate_witness[:2] == (0.5 + 0.5j, 1)
        assert "order-1 derivative" in res.f_of_a_error

    def test_value_dust_off_the_axis_holds_both_sides(self):
        # a defect of 2e-10 is dust next to f(rho) = 100, though not next
        # to |f| = 1.4e-2 at the pair: both sides measure it against 100
        spec = JordanSpec(((100.0, 1),), ((0.01 + 0.01j, 1),))
        q = positive_column_orthogonal(np.random.default_rng(0), 3)
        res = verify_preservation_theorem(synthesize_matrix(spec, q)[1], ShiftedOffAxis())
        assert res.theorem_consistent
        assert res.f_is_frobenius and res.fa_strong_pf

    def test_verify_builds_one_table(self, monkeypatch):
        calls = count_scalar_calls(monkeypatch)
        spec = JordanSpec(((2.0, 1), (-1.0, 2)), ((0.5 + 0.5j, 3),))
        q = positive_column_orthogonal(np.random.default_rng(0), 9)
        res = verify_preservation_theorem(synthesize_matrix(spec, q)[1], Exp())
        assert res.theorem_consistent
        lams = [2.0, -1.0, 0.5 + 0.5j, 0.5 - 0.5j]
        orders = [1, 2, 3, 3]
        assert calls == [
            (Exp(), complex(lam), j) for lam, n in zip(lams, orders) for j in range(n)
        ]


def eig_path_reports(a, tol=DEFAULT_TOL):
    """Reference: both sides of eventually_positive_check read off a full
    np.linalg.eig, rho's vector as that decomposition's column and the left
    vector from the bordered solve on A^T as before, without a residual test."""
    m = np.asarray(a, dtype=float)
    n = m.shape[0]
    w, v = np.linalg.eig(m)
    w, v = w.astype(complex), v.astype(complex)

    def left(idx, x):
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = m.T - w[idx].real * np.eye(n)
        bordered[:n, n] = bordered[n, :n] = x
        try:
            return np.linalg.solve(bordered, np.eye(n + 1)[n])[:n]
        except np.linalg.LinAlgError:
            return x

    r1 = _perron_report(w, lambda idx, simple: v[:, idx], norm_inf(m), tol)
    r2 = _perron_report(w, lambda idx, simple: left(idx, r1.eigvec), norm_inf(m.T), tol)
    return r1, r2


def large_reference_set():
    """20 seeded matrices with n from 50 to 120; every other one has a
    positive shift, which makes it strong Perron-Frobenius."""
    rng = np.random.default_rng(77)
    for k in range(20):
        n = int(rng.integers(50, 121))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        yield a + rng.uniform(0.05, 0.3) if k % 2 else a


DEGENERATE_BORDER = np.array([[0.0, 1.0], [-2.0, 3.0]])


class TestBorderedPerronVectors:
    """The Perron checks take eigenvalues only; rho's vectors come from
    bordered solves, and a full decomposition only where those cannot serve."""

    def test_verdicts_match_the_eig_path(self):
        simple_sides = 0
        for a in itertools.chain(threshold_reference_set(), large_reference_set()):
            report = eventually_positive_check(a)
            new = (report.matrix_report, report.transpose_report)
            for side, (ref, got) in enumerate(zip(eig_path_reports(a), new)):
                assert got.condition_verdicts() == ref.condition_verdicts(), (side, a)
                if ref.simple:
                    simple_sides += 1
                    np.testing.assert_allclose(
                        got.eigvec, ref.eigvec, rtol=0, atol=1e-10
                    )
            assert strong_pf_check(a).condition_verdicts() == (
                new[0].condition_verdicts()
            )
        assert simple_sides > 3000

    def test_ones_border_exactly_singular(self):
        # rho = 2 with x = (1, 2), but the left vector (-1, 1) sums to zero,
        # so the system bordered with ones is singular and x comes from eig
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(
                [[-2.0, 1.0, 1.0], [-2.0, 1.0, 1.0], [1.0, 1.0, 0.0]], [0, 0, 1.0]
            )
        report = strong_pf_check(DEGENERATE_BORDER)
        assert report.overall
        np.testing.assert_allclose(report.eigvec, [0.5, 1.0], rtol=0, atol=1e-12)
        evpos = eventually_positive_check(DEGENERATE_BORDER)
        assert evpos.matrix_report.failed_conditions() == []
        assert evpos.transpose_report.failed_conditions() == ["eigvec_positive"]
        assert power_threshold(DEGENERATE_BORDER, 64) is None

    @pytest.mark.parametrize(
        "a",
        [np.eye(3), np.diag([2.0, 2.0, 1.0]), SHEAR],
        ids=["eye3", "diag221", "shear"],
    )
    def test_non_simple_rho_keeps_its_verdicts(self, a):
        failed = ["eigvec_positive", "simple"]
        assert strong_pf_check(a).failed_conditions() == failed
        evpos = eventually_positive_check(a)
        assert evpos.matrix_report.failed_conditions() == failed
        assert evpos.transpose_report.failed_conditions() == failed

    def test_residual_test_refuses_a_value_off_the_spectrum(self, monkeypatch):
        # the system is nonsingular at rho * (1 + 1e-6) too, but its x
        # leaves a residual of about 1e-6 * ||B||, which the test refuses,
        # so the vector comes from the decomposition instead
        decompositions = count_calls(monkeypatch, "eigen_decompose", matfrob.perron)
        x = _perron_vector(B, RHO_B, np.ones(2))
        np.testing.assert_allclose(B @ x, RHO_B * x, rtol=0, atol=1e-14)
        assert decompositions == []
        y = _perron_vector(B, RHO_B * (1 + 1e-6), np.ones(2))
        assert len(decompositions) == 1
        np.testing.assert_allclose(y / y[1], x / x[1], rtol=0, atol=1e-14)

    def test_nearly_degenerate_border_keeps_the_vector(self):
        # the left vector's sum is of the order of the perturbation d, which
        # makes the ones-bordered system ill-conditioned: at d = 1e-9 its x is
        # off by 1.5e-9 and must go to the decomposition instead
        for d in (1e-13, 1e-11, 1e-9, 1e-7, 1e-5):
            a = DEGENERATE_BORDER + np.array([[0.0, 0.0], [0.0, d]])
            rho = (3.0 + d + math.sqrt(1.0 + 6.0 * d + d * d)) / 2.0
            report = strong_pf_check(a)
            assert report.overall
            np.testing.assert_allclose(
                report.eigvec, [1 / rho, 1.0], rtol=0, atol=1e-12
            )

    def test_bordered_vector_is_scale_free(self, monkeypatch):
        decompositions = count_calls(monkeypatch, "eigen_decompose", matfrob.perron)
        x = _perron_vector(B, RHO_B, np.ones(2))
        for e in (-1000, -500, 500, 1000):
            scaled = _perron_vector(np.ldexp(B, e), math.ldexp(RHO_B, e), np.ones(2))
            assert np.array_equal(scaled, x)
        assert decompositions == []
