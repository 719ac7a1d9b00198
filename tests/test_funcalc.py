import cmath
import math

import numpy as np
import pytest

from matfrob import (
    Abs,
    ConjugateSymmetryError,
    DomainError,
    Exp,
    JordanSpec,
    Monomial,
    NonDifferentiableError,
    NonRealResultError,
    NotDefinedOnSpectrumError,
    NotEntireError,
    Polynomial,
    PrincipalRoot,
    ScaledSum,
    SpectralFunction,
    defined_on_spectrum,
    extract_diagonalizable_structure,
    frobenius_check,
    matrix_function,
    synthesize_matrix,
    taylor_oracle,
)
from matfrob.core import eigen_decompose
from matfrob.funcalc import func_jordan_block, func_real_jordan_block
from matfrob.jordan import block_diag, jordan_block
from matfrob.sampling import random_orthogonal, random_pf_factors

from helpers import (
    MatmulRecorder,
    assert_multiset_close,
    differentiable_catalogue,
    random_domain_points,
    spec_at,
    split_double_eigenvalue_matrix,
)

B = np.array([[2.0, 1.0], [2.0, -1.0]])


class SkewedDerivatives(SpectralFunction):
    """f(z) = i*z: a hand-built function violating conjugate symmetry."""

    def describe(self):
        return "i*z"

    def _derivative(self, z, order):
        if not order:
            return 1j * z
        return 1j if order == 1 else 0j


class TiltedSlope(SpectralFunction):
    """f(z) = z with f' = 1 + i: conjugate-symmetric values, asymmetric f'."""

    def describe(self):
        return "z with f' = 1+i"

    def _derivative(self, z, order):
        if not order:
            return z
        return 1 + 1j if order == 1 else 0j


def row(f, lam, size):
    """f^(k)(lam) for k < size: the table row the block builders read."""
    return [f.deriv(lam, k) for k in range(size)]


class TwoHooks(SpectralFunction):
    """Written for the retired protocol: value and derivatives apart."""

    def describe(self):
        return "two-hooks"

    def _eval(self, z):
        return z

    def _deriv(self, z, order):
        return 1.0 if order == 1 else 0j


class TestEval:
    def test_exp_at_zero(self):
        assert Exp().eval(0.0) == 1.0

    def test_monomial_complex(self):
        assert Monomial(2).eval(1 + 1j) == 2j

    def test_root_at_four(self):
        assert abs(PrincipalRoot(2).eval(4.0) - 2.0) < 1e-12

    def test_abs(self):
        assert Abs().eval(-3 - 4j) == 5.0

    def test_polynomial_horner(self):
        # 1 + 2z + 3z^2 at z = 2
        assert Polynomial((1.0, 2.0, 3.0)).eval(2.0) == 17.0

    def test_scaled_sum(self):
        f = ScaledSum(((0.5, Exp()), (2.0, Monomial(1))))
        got = f.eval(1.0)
        assert abs(got - (0.5 * math.e + 2.0)) < 1e-12

    def test_principal_branch_odd_root(self):
        # cube root of -8 on the principal branch: 2*exp(i*pi/3)
        got = PrincipalRoot(3).eval(-8.0)
        expected = complex(1.0, math.sqrt(3.0))
        assert abs(got - expected) < 1e-12

    @pytest.mark.parametrize(
        "f, z, power",
        [
            (Monomial(2), -0.0 - 0.0j, 2),
            (Monomial(1), complex(-0.0, -0.0), 1),
            (Monomial(3), 1j, 3),
            (Monomial(150), complex(1.5, -0.0), 150),
            (PrincipalRoot(2), complex(1e300, -1e-320), 0.5),
        ],
    )
    def test_value_keeps_signed_zero(self, f, z, power):
        # the bare power: 1.0 * w would flip a zero imaginary part of w
        assert repr(f.eval(z)) == repr(z ** power)

    def test_two_hook_subclass_not_evaluated(self):
        # one hook, order 0 included; _eval and _deriv are never called
        with pytest.raises(NotImplementedError):
            TwoHooks().eval(2.0)
        with pytest.raises(NotImplementedError):
            TwoHooks().deriv(2.0, 1)

    def test_cut_approached_from_above(self):
        # -0.0 imaginary part must not flip onto the lower branch
        a = PrincipalRoot(3).eval(complex(-8.0, 0.0))
        b = PrincipalRoot(3).eval(complex(-8.0, -0.0))
        assert a == b
        assert a.imag > 0


class TestDomains:
    def test_even_root_excludes_nonpositive_reals(self):
        f = PrincipalRoot(2)
        with pytest.raises(DomainError):
            f.eval(-1.0)
        with pytest.raises(DomainError):
            f.eval(0.0)
        assert f.defined_at(-1 + 1e-6j)

    def test_odd_root_excludes_origin_only(self):
        f = PrincipalRoot(3)
        with pytest.raises(DomainError):
            f.eval(0.0)
        f.eval(-1.0)  # defined, though non-real

    def test_scaled_sum_merges_exclusions(self):
        f = ScaledSum(((1.0, PrincipalRoot(2)), (1.0, Exp())))
        assert not f.defined_at(-1.0)
        assert f.defined_at(1.0)

    def test_domain_is_self_conjugate(self):
        for f in differentiable_catalogue():
            for z in (2.0, -1.5, 1 + 2j, -0.5 - 0.5j, 1e-3j):
                assert f.defined_at(z) == f.defined_at(np.conj(z))


class TestDeriv:
    def test_exp_any_order(self):
        assert Exp().deriv(0.0, 5) == 1.0

    def test_monomial_first(self):
        assert Monomial(3).deriv(2.0, 1) == 12.0

    def test_monomial_vanishes_past_power(self):
        assert Monomial(3).deriv(2.0, 4) == 0.0

    def test_polynomial_second(self):
        assert Polynomial((1.0, 1.0, 1.0)).deriv(0.0, 2) == 2.0

    def test_root_first(self):
        assert abs(PrincipalRoot(2).deriv(4.0, 1) - 0.25) < 1e-12

    def test_order_zero_is_eval(self):
        assert Exp().deriv(1.5, 0) == Exp().eval(1.5)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            Exp().deriv(0.0, -1)

    def test_abs_not_differentiable(self):
        with pytest.raises(NonDifferentiableError):
            Abs().deriv(1.0, 1)

    def test_sum_with_abs_not_differentiable(self):
        f = ScaledSum(((1.0, Abs()), (1.0, Exp())))
        with pytest.raises(NonDifferentiableError):
            f.deriv(1.0, 1)

    def test_finite_difference_ladder(self):
        # order-j rule against the order-2 central difference of the
        # order-(j-1) rule, step 1e-5, 1e-6 relative
        rng = np.random.default_rng(17)
        h = 1e-5
        for f in differentiable_catalogue():
            for z in random_domain_points(rng, f, 100):
                for j in (1, 2):
                    fd = (f.deriv(z + h, j - 1) - f.deriv(z - h, j - 1)) / (2 * h)
                    exact = f.deriv(z, j)
                    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


class TestTaylor:
    def test_exp_coefficients(self):
        c = Exp().taylor_coefficients(6)
        np.testing.assert_allclose(c, [1 / math.factorial(k) for k in range(6)])

    def test_monomial_padding(self):
        np.testing.assert_array_equal(Monomial(2).taylor_coefficients(5), [0, 0, 1, 0, 0])
        np.testing.assert_array_equal(Monomial(7).taylor_coefficients(3), [0, 0, 0])

    def test_polynomial_truncation(self):
        np.testing.assert_array_equal(
            Polynomial((1.0, 2.0, 3.0)).taylor_coefficients(2), [1, 2]
        )

    def test_scaled_sum(self):
        f = ScaledSum(((2.0, Exp()), (1.0, Monomial(1))))
        np.testing.assert_allclose(f.taylor_coefficients(3), [2.0, 3.0, 1.0])

    def test_non_entire_rejected(self):
        with pytest.raises(NotEntireError):
            PrincipalRoot(2).taylor_coefficients(4)
        with pytest.raises(NotEntireError):
            Abs().taylor_coefficients(4)

    def test_sum_names_its_non_entire_term(self):
        f = ScaledSum(((1.0, Exp()), (2.0, PrincipalRoot(2))))
        with pytest.raises(NotEntireError, match="^root:2 is not entire"):
            f.taylor_coefficients(4)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("coeffs", [(math.nan, 1.0), (1.0, math.inf), (-math.inf,)])
    def test_polynomial_coefficient(self, coeffs):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            Polynomial(coeffs)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_scaled_sum_weight(self, weight):
        with pytest.raises(ValueError, match=f"weights must be finite, got {weight!r}"):
            ScaledSum(((weight, Exp()),))


class TestDefinedOnSpectrum:
    def test_entire_always_works(self):
        spec = JordanSpec(real_blocks=((2.0, 4),), complex_blocks=((1j, 3),))
        assert defined_on_spectrum(Exp(), spec)

    def test_abs_blocked_by_size_two(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        check = defined_on_spectrum(Abs(), spec)
        assert not check
        assert check.witness == (2.0 + 0j, 1)

    def test_even_root_blocked_by_negative_real(self):
        spec = JordanSpec(real_blocks=((2.0, 1), (-1.0, 1)))
        check = defined_on_spectrum(PrincipalRoot(2), spec)
        assert not check
        assert check.witness == (-1.0 + 0j, 0)

    def test_odd_root_fine_off_origin(self):
        spec = JordanSpec(real_blocks=((-1.0, 2),))
        assert defined_on_spectrum(PrincipalRoot(3), spec)

    @pytest.mark.parametrize("order", [(1e-10, 0.0), (0.0, 1e-10)])
    def test_excluded_origin_not_hidden_by_a_near_eigenvalue(self, order):
        spec = JordanSpec(real_blocks=((2.0, 1),) + tuple((x, 1) for x in order))
        check = defined_on_spectrum(PrincipalRoot(3), spec)
        assert not check
        assert check.witness == (0j, 0)


class TestFuncJordanBlock:
    def test_exp_at_zero_size3(self):
        got = func_jordan_block(row(Exp(), 0.0, 3), 3)
        np.testing.assert_allclose(got.real, [[1, 1, 0.5], [0, 1, 1], [0, 0, 1]])
        assert np.all(got.imag == 0.0)

    def test_identity_function_reproduces_block(self):
        np.testing.assert_array_equal(
            func_jordan_block(row(Monomial(1), 2.5, 3), 3), jordan_block(2.5, 3)
        )

    def test_square_matches_matrix_product(self):
        j = jordan_block(1.5, 4)
        got = func_jordan_block(row(Monomial(2), 1.5, 4), 4)
        np.testing.assert_allclose(got, j @ j)

    def test_polynomial_matches_horner_on_block(self):
        rng = np.random.default_rng(5)
        for lam in (0.0, 2.0, -1.5, 1 + 1j):
            for size in (1, 2, 3, 5):
                coeffs = rng.uniform(-2, 2, size=rng.integers(1, 7))
                j = jordan_block(lam, size)
                expected = np.zeros((size, size), dtype=complex)
                for c in coeffs[::-1]:
                    expected = expected @ j + c * np.eye(size)
                got = func_jordan_block(row(Polynomial(tuple(coeffs)), lam, size), size)
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(got - expected)) < 1e-9 * scale


def pair_transport(f, lam, size):
    """Independent oracle: conjugate f(J(lam)) + f(J(conj lam)) into the
    real pair basis through the explicit interleaving similarity."""
    s = np.array([[1, 1], [1j, -1j]])
    order = [t for i in range(size) for t in (i, size + i)]
    p = np.eye(2 * size)[order]
    w = np.kron(np.eye(size), s) @ p
    bd = block_diag([
        func_jordan_block(row(f, lam, size), size),
        func_jordan_block(row(f, np.conj(lam), size), size),
    ])
    return w @ bd @ np.linalg.inv(w)


class TestFuncRealJordanBlock:
    def test_exp_at_i(self):
        got = func_real_jordan_block(row(Exp(), 1j, 1), 1)
        expected = [[math.cos(1), math.sin(1)], [-math.sin(1), math.cos(1)]]
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_square_at_one_plus_i(self):
        got = func_real_jordan_block(row(Monomial(2), 1 + 1j, 1), 1)
        np.testing.assert_allclose(got, [[0, 2], [-2, 0]], atol=1e-15)

    def test_matches_complex_transport(self):
        for f in (Exp(), Monomial(3), PrincipalRoot(2)):
            for lam in (1 + 1j, 0.5 + 2j):
                for size in (1, 2, 3):
                    got = func_real_jordan_block(row(f, lam, size), size)
                    expected = pair_transport(f, lam, size)
                    assert np.max(np.abs(expected.imag)) < 1e-10
                    np.testing.assert_allclose(got, expected.real, atol=1e-10)

    def test_output_dtype_real(self):
        assert func_real_jordan_block(row(Exp(), 2j, 2), 2).dtype == np.float64

    def test_conjugate_symmetry_enforced(self):
        # the builder lays out f(lam)'s row; the table test in front of it
        # covers every order the block reads, here f' on a size-2 pair
        _, factors = synthesize_matrix(spec_at([1 + 1j], 2), np.eye(4))
        with pytest.raises(ConjugateSymmetryError, match="^order-1 derivative of z"):
            matrix_function(factors, TiltedSlope())
        # a size-1 pair reads only f's values, which are symmetric
        a, factors = synthesize_matrix(spec_at([1 + 1j], 1), np.eye(2))
        np.testing.assert_array_equal(matrix_function(factors, TiltedSlope()), a)


class TestMatrixFunction:
    def test_identity_function_reconstructs(self):
        factors = extract_diagonalizable_structure(B)
        np.testing.assert_allclose(matrix_function(factors, Monomial(1)), B, atol=1e-12)

    @pytest.mark.parametrize("seed", [70, 123, 317])
    def test_split_semisimple_double_eigenvalue(self, seed):
        # LAPACK returns the double eigenvalue 1 as a pair 1 +- ~1e-16 i;
        # its two eigenvector columns must stay independent through extraction
        a, r, lams = split_double_eigenvalue_matrix(seed)
        got = matrix_function(extract_diagonalizable_structure(a), Exp())
        want = r @ np.diag(np.exp(lams)) @ np.linalg.inv(r)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", [62, 117, 173])
    def test_split_double_eigenvalue_on_a_branch_cut(self, seed):
        # the double eigenvalue -1 comes back as -1 +- ~1e-16 i; it must be
        # judged as the real eigenvalue it is, not as a pair off the cut
        a, _, lams = split_double_eigenvalue_matrix(seed, lam=-1.0)
        assert lams[3] > 0.0  # -1 is the only eigenvalue on the cut
        factors = extract_diagonalizable_structure(a)
        assert factors.spec.complex_blocks == ()
        with pytest.raises(NotDefinedOnSpectrumError):
            matrix_function(factors, PrincipalRoot(2))
        with pytest.raises(NonRealResultError):
            matrix_function(factors, PrincipalRoot(3))

    def test_fourth_power_of_golden(self):
        factors = extract_diagonalizable_structure(B)
        np.testing.assert_allclose(
            matrix_function(factors, Monomial(4)), [[38, 9], [18, 11]], atol=1e-10
        )

    def test_exp_of_diagonal(self):
        spec = JordanSpec(real_blocks=((1.0, 1), (0.0, 1)))
        _, factors = synthesize_matrix(spec, np.eye(2))
        np.testing.assert_allclose(
            matrix_function(factors, Exp()), np.diag([math.e, 1.0]), atol=1e-14
        )

    def test_jordan_structure_respected(self):
        spec = JordanSpec(real_blocks=((2.0, 3),))
        _, factors = synthesize_matrix(spec, np.eye(3))
        got = matrix_function(factors, Exp())
        e2 = math.exp(2.0)
        np.testing.assert_allclose(got, [[e2, e2, e2 / 2], [0, e2, e2], [0, 0, e2]])

    def test_non_real_result_rejected(self):
        # odd root of a negative eigenvalue is off the real axis
        spec = JordanSpec(real_blocks=((2.0, 1), (-1.0, 1)))
        _, factors = synthesize_matrix(spec, np.eye(2))
        with pytest.raises(NonRealResultError):
            matrix_function(factors, PrincipalRoot(3))

    def test_undefined_spectrum_rejected(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        _, factors = synthesize_matrix(spec, np.eye(2))
        with pytest.raises(NotDefinedOnSpectrumError):
            matrix_function(factors, Abs())

    def test_conjugate_symmetry_violation_propagates(self):
        spec = JordanSpec(complex_blocks=((1 + 1j, 1),))
        _, factors = synthesize_matrix(spec, np.eye(2))
        with pytest.raises(ConjugateSymmetryError):
            matrix_function(factors, SkewedDerivatives())

    def test_spectral_mapping(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            factors = random_pf_factors(rng, max_dim=6, max_block_size=2)
            for f in (Exp(), Monomial(3), Polynomial((0.5, 1.0, 0.25))):
                fa = matrix_function(factors, f)
                w, _ = eigen_decompose(fa)
                expected = [f.eval(z) for z in factors.spec.eigenvalue_multiset()]
                assert_multiset_close(w, expected, atol=1e-6)

    def test_transpose_commutes(self):
        # factors of A^T assembled by flipping each block through its
        # reversal involution; f must then commute with transposition
        rng = np.random.default_rng(31)
        factors = random_pf_factors(rng, max_dim=6, max_block_size=3)
        spec = factors.spec
        blocks = []
        for _, n in spec.real_blocks:
            blocks.append(np.eye(n)[::-1])
        for _, n in spec.complex_blocks:
            blocks.append(np.kron(np.eye(n)[::-1], np.diag([1.0, -1.0])))
        q = block_diag(blocks)
        rt = np.linalg.inv(factors.transform).T @ q
        factors_t = type(factors)(spec, rt, np.linalg.inv(rt))
        a = factors.reconstruct()
        np.testing.assert_allclose(factors_t.reconstruct(), a.T, atol=1e-9)
        for f in (Exp(), Monomial(2)):
            fa = matrix_function(factors, f)
            fat = matrix_function(factors_t, f)
            np.testing.assert_allclose(fat, fa.T, atol=1e-8)


# c = 2^k: exact scalings that keep cA a normal float64 matrix
POWER_OF_TWO_SCALES = (-1000, -500, -100, -43, -20, 20, 100, 500, 1000)


class TestScaleEquivariance:
    """No threshold of matrix_function depends on the scale of A."""

    def test_identity_function_returns_the_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = rng.standard_normal((int(rng.integers(2, 8)),) * 2)
            for k in POWER_OF_TWO_SCALES:
                ca = 2.0**k * a
                got = matrix_function(extract_diagonalizable_structure(ca), Monomial(1))
                err = np.linalg.norm(got - ca, np.inf)
                assert err <= 1e-12 * np.linalg.norm(ca, np.inf), k

    def test_odd_root_of_a_negative_eigenvalue_is_never_real(self):
        r = random_orthogonal(np.random.default_rng(0), 2)
        for k in POWER_OF_TWO_SCALES:
            c = 2.0**k
            spec = JordanSpec(real_blocks=((3.0 * c, 1), (-c, 1)))
            _, factors = synthesize_matrix(spec, r)
            with pytest.raises(NonRealResultError, match="not real-valued"):
                matrix_function(factors, PrincipalRoot(3))


class TestRealAssembly:
    """f(A) = R f(J) R^{-1} is formed in float64."""

    @pytest.fixture
    def products(self, monkeypatch):
        import matfrob.funcalc

        def recording_block_diag(blocks):
            return block_diag(blocks).view(MatmulRecorder)

        MatmulRecorder.dtypes = []
        monkeypatch.setattr(matfrob.funcalc, "block_diag", recording_block_diag)
        return MatmulRecorder.dtypes

    @pytest.mark.parametrize("f", [Exp(), Monomial(3), PrincipalRoot(3)])
    def test_real_block_values_take_one_real_product(self, products, f):
        spec = JordanSpec(
            real_blocks=((2.0, 2), (0.5, 1)), complex_blocks=((1 + 1j, 2),)
        )
        r = random_orthogonal(np.random.default_rng(5), 7)
        _, factors = synthesize_matrix(spec, r)
        fa = matrix_function(factors, f)
        assert type(fa) is np.ndarray and fa.dtype == np.float64
        assert fa.flags.c_contiguous
        assert products == [(np.float64, np.float64)]

    def test_non_real_block_value_forms_no_product(self, products):
        # the table test refuses it before any product is formed
        spec = JordanSpec(real_blocks=((2.0, 1), (-1.0, 1)))
        _, factors = synthesize_matrix(spec, np.eye(2))
        with pytest.raises(NonRealResultError):
            matrix_function(factors, PrincipalRoot(3))
        assert products == []

    @pytest.mark.parametrize(
        "f", [Exp(), Monomial(4), ScaledSum(((0.5, Exp()), (2.0, Monomial(2))))]
    )
    def test_result_is_float64(self, f):
        rng = np.random.default_rng(9)
        factors = random_pf_factors(rng, max_dim=6, max_block_size=2)
        fa = matrix_function(factors, f)
        assert fa.dtype == np.float64


class TestOverflow:
    """An f value beyond float64 is refused by name, not raised as OverflowError."""

    def test_exp_value(self):
        with pytest.raises(DomainError, match=r"^exp overflows float64 at \(800\+0j\)$"):
            Exp().eval(800.0)
        with pytest.raises(DomainError, match="order-2 derivative of exp overflows"):
            Exp().deriv(800.0, 2)

    def test_power_value(self):
        with pytest.raises(DomainError, match="pow:2000 overflows float64 at"):
            Monomial(2000).eval(2.0)
        with pytest.raises(DomainError, match="order-1 derivative of pow:2000"):
            Monomial(2000).deriv(2.0, 1)

    def test_overflowing_term_of_a_sum(self):
        f = ScaledSum(((0.5, Exp()), (1.0, Monomial(2))))
        with pytest.raises(DomainError, match="exp overflows"):
            f.eval(1000.0)

    def test_sum_checks_each_term_domain_once(self, monkeypatch):
        # the sum's deriv has checked its terms; their hooks are called bare
        calls = []
        for cls in (ScaledSum, PrincipalRoot, SpectralFunction):
            original = cls.defined_at

            def counting(self, z, original=original):
                calls.append(type(self).__name__)
                return original(self, z)

            monkeypatch.setattr(cls, "defined_at", counting)
        f = ScaledSum(((1.0, PrincipalRoot(2)), (1.0, Exp())))
        assert f.eval(4.0) == 2.0 + math.exp(4.0)
        assert calls == ["ScaledSum", "PrincipalRoot", "Exp"]

    def test_matrix_function_of_overflowing_block(self):
        spec = JordanSpec(real_blocks=((800.0, 1), (1.0, 1)))
        _, factors = synthesize_matrix(spec, np.eye(2))
        with pytest.raises(DomainError, match="exp overflows"):
            matrix_function(factors, Exp())

    def test_non_finite_matrix_function_refused(self):
        # poly(800) overflows to inf without an OverflowError; the
        # products then leave NaN entries
        spec = JordanSpec(real_blocks=((800.0, 1), (1.0, 1)))
        _, factors = synthesize_matrix(spec, np.array([[1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(DomainError, match="f\\(A\\) overflows float64"):
            matrix_function(factors, Polynomial((1.0, 1e308, 1e308)))

    def test_overflowing_row_sum_of_matrix_function_refused(self):
        # finite entries near 1.3e308 whose row sum overflows
        spec = JordanSpec(real_blocks=((709.5, 1), (1.0, 1)))
        _, factors = synthesize_matrix(spec, np.array([[1.0, 1.0], [0.01, -1.0]]))
        with pytest.raises(DomainError, match="f\\(A\\) overflows float64"):
            matrix_function(factors, Exp())


class TestTaylorOracle:
    def test_cube_is_matrix_power(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((4, 4))
        np.testing.assert_allclose(taylor_oracle(a, Monomial(3), 10), a @ a @ a)

    def test_exp_of_zero_matrix(self):
        np.testing.assert_array_equal(taylor_oracle(np.zeros((3, 3)), Exp(), 30), np.eye(3))

    def test_exp_agrees_with_jordan_route(self):
        # tail bound for ||B||_inf = 3 at 60 terms is far below 1e-8
        tail = 3.0 ** 60 / math.factorial(60)
        assert tail < 1e-30
        factors = extract_diagonalizable_structure(B)
        got = matrix_function(factors, Exp())
        oracle = taylor_oracle(B, Exp(), 60)
        assert np.max(np.abs(got - oracle)) < 1e-8

    def test_non_entire_rejected(self):
        message = "is not entire; the series oracle does not apply"
        with pytest.raises(NotEntireError, match=f"^root:3 {message}$"):
            taylor_oracle(np.eye(2), PrincipalRoot(3), 10)
        with pytest.raises(NotEntireError, match=f"^abs {message}$"):
            taylor_oracle(np.eye(2), Abs(), 10)

    def test_bad_terms_rejected(self):
        with pytest.raises(ValueError):
            taylor_oracle(np.eye(2), Exp(), 0)


class TestReflection:
    """f^(j)(conj z) = conj f^(j)(z), tested on f's table of a spectrum."""

    def test_catalogue_exactly_symmetric(self):
        # size-3 blocks reach orders 0, 1 and 2
        rng = np.random.default_rng(43)
        for f in differentiable_catalogue():
            pts = random_domain_points(rng, f, 25)
            verdict = frobenius_check(f, spec_at(pts, 3), max(map(abs, pts)))
            assert verdict.conjugate_symmetry, f.describe()

    def test_asymmetric_double_caught(self):
        verdict = frobenius_check(SkewedDerivatives(), spec_at([1 + 1j], 1), 2.0)
        assert not verdict.conjugate_symmetry
        assert verdict.conjugate_witness == (1 + 1j, 0, abs(2 + 2j))
