import math

import numpy as np
import pytest

from matfrob import (
    Abs,
    DimensionMismatchError,
    Exp,
    JordanSpec,
    Monomial,
    NonDifferentiableError,
    Polynomial,
    PreconditionError,
    PrincipalRoot,
    defined_on_spectrum,
    derivative_reality_check,
    eventually_positive_check,
    frobenius_check,
    matrix_function,
    power_threshold,
    spectral_radius,
    strong_pf_check,
    synthesize_matrix,
    verify_preservation_theorem,
)
from matfrob.sampling import random_pf_factors

from helpers import NEGATE, full_catalogue
from test_funcalc import SkewedDerivatives

B = np.array([[2.0, 1.0], [2.0, -1.0]])
RHO_B = (1.0 + math.sqrt(17.0)) / 2.0
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


class TestSpectralRadius:
    def test_golden(self):
        assert abs(spectral_radius(B) - RHO_B) < 1e-12

    def test_scaling(self):
        assert abs(spectral_radius(5.0 * B) - 5.0 * RHO_B) < 1e-11

    def test_rotation(self):
        assert abs(spectral_radius(ROTATION) - 1.0) < 1e-12


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
        with pytest.raises(DimensionMismatchError):
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
        matrices = [B, SWAP, SHEAR, np.eye(3), np.zeros((3, 3)), -B]
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


class TestPowerThreshold:
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

    @pytest.mark.parametrize("c", [1e-150, 1e150])
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
        verdict = frobenius_check(Exp(), [RHO_B, (1 - math.sqrt(17.0)) / 2], RHO_B)
        assert verdict.overall
        assert verdict.conjugate_symmetry
        assert verdict.modulus_domination
        assert verdict.positivity_at_rho
        assert "HOLD" in verdict.format_text()

    def test_negation_fails_positivity(self):
        verdict = frobenius_check(NEGATE, [2.0, -1.0], 2.0)
        assert not verdict.overall
        assert not verdict.positivity_at_rho
        assert verdict.conjugate_symmetry
        assert any("positive real" in n for n in verdict.notes)

    def test_odd_root_conjugate_defect(self):
        verdict = frobenius_check(PrincipalRoot(3), [2.0, -1.0], 2.0)
        assert not verdict.conjugate_symmetry
        z, defect = verdict.conjugate_witness
        assert z == -1.0 + 0j
        # conj of the principal cube root of -1 lands on the other branch
        assert abs(defect - math.sqrt(3.0)) < 1e-12
        assert verdict.positivity_at_rho

    def test_marginal_domination(self):
        # (z - 1)^2 takes the same value 4 at both spectrum points
        f = Polynomial((1.0, -2.0, 1.0))
        verdict = frobenius_check(f, [3.0, -1.0], 3.0)
        assert not verdict.modulus_domination
        assert verdict.modulus_marginal
        z, abs_f, f_rho = verdict.modulus_witness
        assert z == -1.0 + 0j
        assert abs(abs_f - 4.0) < 1e-12 and abs(f_rho - 4.0) < 1e-12
        assert "marginal" in verdict.format_text()

    def test_grid_catches_interior_violation(self):
        # 2 - 2z + z^2 behaves on the two spectrum points but blows past
        # f(rho) deep on the negative side of the disc
        f = Polynomial((2.0, -2.0, 1.0))
        assert frobenius_check(f, [2.0, 0.5], 2.0).overall
        dense = frobenius_check(f, [2.0, 0.5], 2.0, grid=41)
        assert not dense.modulus_domination
        assert not dense.overall
        z, abs_f, f_rho = dense.modulus_witness
        assert abs_f > f_rho

    def test_spectrum_outside_domain_is_a_failure(self):
        verdict = frobenius_check(PrincipalRoot(2), [2.0, -1.0], 2.0)
        assert not verdict.overall
        assert not verdict.conjugate_symmetry
        assert verdict.conjugate_witness == (-1.0 + 0j, float("inf"))
        assert any("domain" in n for n in verdict.notes)

    def test_grid_skips_domain_holes(self):
        verdict = frobenius_check(PrincipalRoot(2), [2.0, 1.0], 2.0, grid=21)
        assert verdict.overall
        assert verdict.conjugate_symmetry

    def test_rho_outside_domain(self):
        verdict = frobenius_check(PrincipalRoot(2), [1.0], 0.0)
        assert not verdict.positivity_at_rho
        assert any("domain" in n for n in verdict.notes)

    def test_serialization(self):
        d = frobenius_check(Exp(), [2.0, 1.0], 2.0).to_dict()
        assert d["overall"] is True
        assert d["modulus_witness"]["f_rho"] == pytest.approx(math.exp(2.0))


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

    def test_serialization(self):
        d = verify_preservation_theorem(golden_factors(), Exp()).to_dict()
        assert d["theorem_consistent"] is True
        assert d["fa_strong_pf"] is True


class TestEquivalenceLattice:
    def test_catalogue_against_structured_spectra(self):
        rng = np.random.default_rng(20260819)
        functions = full_catalogue() + [NEGATE]
        checked = 0
        for _ in range(8):
            factors = random_pf_factors(rng, max_dim=8, max_block_size=3)
            for f in functions:
                if not defined_on_spectrum(f, factors.spec):
                    continue
                res = verify_preservation_theorem(factors, f)
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
    def test_catalogue_real_on_positive_axis(self):
        rng = np.random.default_rng(19)
        samples = rng.uniform(0.1, 4.0, size=20)
        from helpers import differentiable_catalogue

        for f in differentiable_catalogue():
            assert derivative_reality_check(f, samples, max_order=5)

    def test_skewed_double_caught(self):
        check = derivative_reality_check(SkewedDerivatives(), [1.5], max_order=2)
        assert not check
        assert check.witness == (1.5 + 0j, 0)
        assert "imaginary" in check.reason

    def test_abs_value_level_only(self):
        assert derivative_reality_check(Abs(), [1.0, 2.0], max_order=0)
        with pytest.raises(NonDifferentiableError):
            derivative_reality_check(Abs(), [1.0], max_order=1)
