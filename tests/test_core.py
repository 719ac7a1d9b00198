import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matfrob import (
    DimensionMismatchError,
    PreconditionError,
    SingularMatrixError,
    Tolerance,
    condition_estimate,
    eigen_decompose,
    mat_inverse,
)
from matfrob.core import as_real_matrix, max_abs, norm_inf

B = np.array([[2.0, 1.0], [2.0, -1.0]])

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs_eps == 1e-9
        assert tol.rel_eps == 1e-9

    def test_eq_scalars(self):
        tol = Tolerance()
        assert tol.eq(1.0, 1.0)
        assert tol.eq(1.0, 1.0 + 5e-10)
        assert not tol.eq(1.0, 1.0 + 5e-9)
        assert tol.eq(0.0, 5e-10)
        assert tol.eq(1e12, 1e12 + 500.0)  # relative part scales
        assert tol.eq(2 + 1j, 2 + 1j + 1e-10j)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=-1e-9)
        with pytest.raises(ValueError):
            Tolerance(rel_eps=-1.0)

    @given(a=finite_floats, b=finite_floats)
    @settings(max_examples=200)
    def test_eq_symmetric(self, a, b):
        tol = Tolerance(abs_eps=1e-6, rel_eps=1e-6)
        assert tol.eq(a, b) == tol.eq(b, a)


class TestMatInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(
            mat_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), rtol=0, atol=1e-15
        )

    def test_identity(self):
        np.testing.assert_array_equal(mat_inverse(np.eye(3)), np.eye(3))

    def test_residual_on_well_conditioned(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
            if condition_estimate(a) > 1e6:
                continue
            x = mat_inverse(a)
            assert norm_inf(a @ x - np.eye(5)) < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.zeros((2, 2)))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatchError):
            mat_inverse(np.ones((2, 3)))

    def test_condition_1e12_is_singular(self):
        # smallest singular value above abs_eps, but cond(a) = 1e12
        with pytest.raises(SingularMatrixError):
            mat_inverse(np.diag([1e4, 1e-8]))
        np.testing.assert_allclose(
            mat_inverse(np.diag([1e3, 1e-8])), np.diag([1e-3, 1e8]), rtol=1e-15
        )


class TestConditionEstimate:
    def test_orthogonal_is_one(self):
        q = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert abs(condition_estimate(q) - 1.0) < 1e-12

    def test_diagonal_ratio(self):
        c = condition_estimate(np.diag([1.0, 1e-8]))
        assert abs(c - 1e8) / 1e8 < 1e-9

    def test_singular_is_inf(self):
        assert condition_estimate(np.zeros((2, 2))) == math.inf

    def test_real_input_takes_the_real_svd(self, monkeypatch):
        dtypes = []
        svd = np.linalg.svd

        def recording_svd(m, *args, **kwargs):
            dtypes.append(np.asarray(m).dtype)
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert condition_estimate(np.diag([4, 1])) == 4.0
        assert dtypes == [np.float64]


class TestEigenDecompose:
    def test_diagonal(self):
        w, v = eigen_decompose(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(sorted(w.real, reverse=True), [3.0, 1.0])
        assert np.all(w.imag == 0.0)

    def test_golden_quadratic(self):
        # roots of z^2 - z - 4 via the quadratic formula
        w, _ = eigen_decompose(B)
        expected = [(1 + math.sqrt(17.0)) / 2, (1 - math.sqrt(17.0)) / 2]
        got = sorted(w.real, reverse=True)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_rotation_pair(self):
        w, _ = eigen_decompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        got = sorted(w, key=lambda z: z.imag)
        np.testing.assert_allclose(got, [-1j, 1j], rtol=0, atol=1e-15)
        assert got[0] == np.conj(got[1])  # pairing is exact even if values round

    def test_conjugate_closure_is_exact(self):
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            a = rng.standard_normal((n, n))
            w, v = eigen_decompose(a)
            ws = sorted(w, key=lambda z: (z.real, z.imag))
            cs = sorted(np.conj(w), key=lambda z: (z.real, z.imag))
            assert ws == cs  # exact equality, not approximate
            # extraction reads each pair from its upper member and relies on
            # the lower one following it with the conjugate eigenvector
            for i in np.flatnonzero(w.imag < 0.0):
                assert i > 0 and w[i - 1] == np.conj(w[i])
                np.testing.assert_array_equal(v[:, i - 1], np.conj(v[:, i]))

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(13)
        for scale in (1.0, 1e3):
            for n in (2, 5, 9):
                a = scale * rng.standard_normal((n, n))
                w, v = eigen_decompose(a)
                resid = max_abs(a @ v - v * w)
                assert resid <= 1e-7 * norm_inf(a)

    def test_unit_eigenvector_columns(self):
        w, v = eigen_decompose(B)
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)

    def test_complex_input_rejected(self):
        # every caller passes a real matrix; there is no complex path
        for fn in (eigen_decompose, condition_estimate):
            with pytest.raises(ValueError, match="nonzero imaginary"):
                fn(np.array([[1j]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatchError):
            eigen_decompose(np.ones((2, 3)))


class TestValidators:
    def test_as_real_rejects_imag(self):
        with pytest.raises(ValueError):
            as_real_matrix(np.array([[1.0 + 1e-16j]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_as_real_rejects_non_finite(self, value):
        m = np.ones((2, 3))
        m[1, 2] = value
        with pytest.raises(PreconditionError, match=r"finite.*\[1, 2\]"):
            as_real_matrix(m)

    def test_as_real_accepts_zero_imag(self):
        m = as_real_matrix(np.array([[2.0 + 0j]]))
        assert m.dtype == np.float64

    def test_norm_inf_is_row_sum(self):
        assert norm_inf(np.array([[1.0, -2.0], [3.0, 0.5]])) == 3.5
