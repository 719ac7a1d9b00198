import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matfrob import (
    IllConditionedWarning,
    JordanSpec,
    Monomial,
    PreconditionError,
    extract_diagonalizable_structure,
    matrix_function,
    synthesize_matrix,
)
from matfrob.core import eigen_decompose, mat_inverse
from matfrob.jordan import (
    RealJordanFactors,
    _assemble_blocks,
    _cluster_indices,
    func_jordan_block,
    func_real_jordan_block,
)
from matfrob.sampling import random_orthogonal, random_pf_spec

from helpers import (
    assert_multiset_close,
    bitwise_equal,
    count_svd_calls,
    direct_sum,
    jordan_block,
    reference_extraction_layout,
    split_double_eigenvalue_matrix,
)

B = np.array([[2.0, 1.0], [2.0, -1.0]])


def real_jordan(spec):
    """J as RealJordanFactors.reconstruct lays it out: f(J) at f(z) = z,
    from the rows (lam, 1)."""
    return _assemble_blocks(spec, lambda lam: (lam, 1.0))


def real_jordan_block(lam, size):
    """J of the spec with one pair block: the pair's real Jordan block."""
    return real_jordan(JordanSpec(complex_blocks=((lam, size),)))


def reference_real_jordan(spec):
    """J entry by entry from the definition of the real Jordan form: lam on
    the diagonal and 1 above it in a real block; [[Re, Im], [-Im, Re]] on the
    2x2 diagonal and the 2x2 identity above it in a pair block."""
    n = spec.total_dimension
    j = np.zeros((n, n))
    at = 0
    for lam, size in spec.real_blocks:
        for i in range(at, at + size):
            j[i, i] = lam
            if i + 1 < at + size:
                j[i, i + 1] = 1.0
        at += size
    for lam, size in spec.complex_blocks:
        for i in range(at, at + 2 * size, 2):
            j[i, i] = j[i + 1, i + 1] = lam.real
            j[i, i + 1] = lam.imag
            j[i + 1, i] = -lam.imag
            if i + 2 < at + 2 * size:
                j[i, i + 2] = j[i + 1, i + 3] = 1.0
        at += 2 * size
    return j


# repeated eigenvalues, and both signs of zero, come from the pool
REALS = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-3, 3)
PAIRS = st.builds(
    complex, st.sampled_from([0.0, -0.0, 0.5]) | st.floats(-3, 3),
    st.sampled_from([1.0, 2.0]) | st.floats(0.1, 3),
)
SPECS = st.tuples(
    st.lists(st.tuples(REALS, st.integers(1, 4)), max_size=3),
    st.lists(st.tuples(PAIRS, st.integers(1, 4)), max_size=3),
).filter(any).map(lambda blocks: JordanSpec(*map(tuple, blocks)))


class TestBuilders:
    def test_jordan_block_trivial(self):
        np.testing.assert_array_equal(jordan_block(3.0, 1), [[3.0]])

    def test_jordan_block_size3(self):
        expected = [[2, 1, 0], [0, 2, 1], [0, 0, 2]]
        np.testing.assert_array_equal(jordan_block(2.0, 3), expected)

    def test_jordan_block_complex(self):
        m = jordan_block(1 + 2j, 2)
        np.testing.assert_array_equal(m, [[1 + 2j, 1], [0, 1 + 2j]])

    def test_jordan_block_bad_size(self):
        with pytest.raises(ValueError):
            jordan_block(1.0, 0)

    @pytest.mark.parametrize("builder", [func_jordan_block, func_real_jordan_block])
    def test_func_builders_refuse_size_zero(self, builder):
        with pytest.raises(ValueError, match="^block size must be at least 1, got 0$"):
            builder((1.0,), 0)

    def test_pair_block_of_one_entry(self):
        got = func_real_jordan_block((1 + 2j,), 1)
        np.testing.assert_array_equal(got, [[1, 2], [-2, 1]])
        got = func_real_jordan_block((3.0,), 1)
        np.testing.assert_array_equal(got, [[3, 0], [0, 3]])
        # a real entry gives it times the identity, with no -0.0 below it
        assert not np.signbit(got).any()

    @pytest.mark.parametrize(
        "row",
        [
            (complex(-0.0, -0.0), complex(0.0, -0.0)),
            (complex(np.inf, -0.0), complex(-0.0, np.nan)),
            (complex(np.nan, 2.0), -np.inf, complex(0.0, np.inf)),
            (complex(-np.inf, np.inf), 5e-324, complex(-1.7e308, -0.0), 9.0),
        ],
    )
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_pair_block_is_the_real_form_entry_by_entry(self, row, size):
        # each 2x2 block [[Re c, Im c], [0.0 - Im c, Re c]] at c = row[k] / k!,
        # on the k-th block superdiagonal; k! is 1, 1, 2, so c is exact
        expected = np.zeros((2 * size, 2 * size))
        for k, c in enumerate(map(complex, row[:size])):
            c = complex(c.real / (1, 1, 2)[k], c.imag / (1, 1, 2)[k])
            for i in range(size - k):
                expected[2 * i : 2 * i + 2, 2 * (i + k) : 2 * (i + k) + 2] = [
                    [c.real, c.imag], [0.0 - c.imag, c.real]
                ]
        assert bitwise_equal(func_real_jordan_block(row, size), expected)

    def test_real_jordan_block_single(self):
        np.testing.assert_array_equal(real_jordan_block(1j, 1), [[0, 1], [-1, 0]])

    def test_real_jordan_block_size2(self):
        expected = [
            [1, 1, 1, 0],
            [-1, 1, 0, 1],
            [0, 0, 1, 1],
            [0, 0, -1, 1],
        ]
        np.testing.assert_array_equal(real_jordan_block(1 + 1j, 2), expected)

    def test_real_jordan_block_spectrum(self):
        # eigenvalues of the real pair block are lam and conj(lam), each
        # with multiplicity equal to the block size
        lam = 0.3 + 1.7j
        w, _ = eigen_decompose(real_jordan_block(lam, 3))
        assert_multiset_close(w, [lam] * 3 + [np.conj(lam)] * 3, atol=1e-5)

    @given(
        re=st.floats(-3, 3, allow_nan=False),
        im=st.floats(0.1, 3, allow_nan=False),
        size=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_real_jordan_block_char_poly(self, re, im, size):
        # same characteristic polynomial as the complex pair of Jordan blocks
        lam = complex(re, im)
        pair = direct_sum([jordan_block(lam, size), jordan_block(np.conj(lam), size)])
        c1 = np.poly(real_jordan_block(lam, size))
        c2 = np.poly(pair)
        scale = max(1.0, np.max(np.abs(c2)))
        assert np.max(np.abs(c1 - c2)) <= 1e-9 * scale


class TestOneBuilder:
    """J is laid out by the builder that lays out f(J), at f(z) = z."""

    @given(spec=SPECS)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_j_matches_the_definition_bit_for_bit(self, spec):
        got = real_jordan(spec)
        expected = reference_real_jordan(spec)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @given(spec=SPECS, seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_identity_function_is_the_reconstruction_bit_for_bit(self, spec, seed):
        r = random_orthogonal(np.random.default_rng(seed), spec.total_dimension)
        factors = synthesize_matrix(spec, r)
        a = factors.reconstruct()
        got = matrix_function(factors, Monomial(1))
        assert np.array_equal(got, a)
        assert np.array_equal(np.signbit(got), np.signbit(a))

    @pytest.mark.parametrize(
        "spec",
        [
            JordanSpec(real_blocks=((1.0, 172),)),
            JordanSpec(real_blocks=((-0.0, 200), (2.0, 1))),
            JordanSpec(complex_blocks=((0.5 + 1.0j, 172),)),
        ],
    )
    def test_blocks_past_171_factorial_build_bit_for_bit(self, spec):
        # 171! is beyond float64, so J's builders must stop at the row's end
        expected = reference_real_jordan(spec)
        got = real_jordan(spec)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        r = random_orthogonal(np.random.default_rng(1), spec.total_dimension)
        factors = synthesize_matrix(spec, r)
        assert np.array_equal(
            factors.reconstruct(), r @ expected @ factors.transform_inverse
        )


class TestJordanSpec:
    def test_dimensions_and_multiset(self):
        spec = JordanSpec(
            real_blocks=((2.0, 1), (-1.0, 2)),
            complex_blocks=((1 + 1j, 2),),
        )
        assert spec.total_dimension == 7
        assert_multiset_close(
            spec.eigenvalue_multiset(),
            [2.0, -1.0, -1.0, 1 + 1j, 1 + 1j, 1 - 1j, 1 - 1j],
            atol=0,
        )

    def test_distinct_eigenvalues_take_max_index(self):
        spec = JordanSpec(real_blocks=((2.0, 1), (2.0, 3), (1.0, 2)))
        got = dict(spec.distinct_eigenvalues())
        assert got[2.0 + 0j] == 3
        assert got[1.0 + 0j] == 2

    def test_distinct_eigenvalues_include_conjugates(self):
        spec = JordanSpec(complex_blocks=((2j, 2),))
        got = sorted(spec.distinct_eigenvalues(), key=lambda t: t[0].imag)
        assert got == [(-2j, 2), (2j, 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            JordanSpec()
        with pytest.raises(ValueError):
            JordanSpec(real_blocks=((1.0, 0),))
        with pytest.raises(ValueError):
            JordanSpec(complex_blocks=((1 - 1j, 1),))
        with pytest.raises(ValueError):
            JordanSpec(complex_blocks=((1.0 + 0j, 1),))

    @pytest.mark.parametrize(
        "blocks", [{"real_blocks": ((1.0, 0),)}, {"complex_blocks": ((1 + 1j, 0),)}]
    )
    def test_block_of_size_zero_named(self, blocks):
        with pytest.raises(ValueError, match="^block size must be at least 1, got 0$"):
            JordanSpec(**blocks)

    @pytest.mark.parametrize(
        "blocks, lam",
        [
            ({"real_blocks": ((2.0, 1), (float("nan"), 1))}, "nan"),
            ({"real_blocks": ((float("-inf"), 1),)}, "-inf"),
            ({"complex_blocks": ((complex(float("nan"), 1.0), 1),)}, "(nan+1j)"),
            ({"complex_blocks": ((complex(1.0, float("inf")), 1),)}, "(1+infj)"),
        ],
    )
    def test_non_finite_eigenvalue_named(self, blocks, lam):
        # refused where the spec is built, not later by what it breaks
        with pytest.raises(ValueError) as exc:
            JordanSpec(**blocks)
        assert str(exc.value) == f"eigenvalue must be finite, got {lam}"


class TestAssemble:
    def test_mixed_layout(self):
        spec = JordanSpec(real_blocks=((2.0, 1),), complex_blocks=((1 + 1j, 1),))
        expected = [[2, 0, 0], [0, 1, 1], [0, -1, 1]]
        np.testing.assert_array_equal(real_jordan(spec), expected)

    def test_block_order_preserved(self):
        spec = JordanSpec(real_blocks=((5.0, 1), (-3.0, 2)))
        j = real_jordan(spec)
        assert j[0, 0] == 5.0
        assert j[1, 1] == j[2, 2] == -3.0
        assert j[1, 2] == 1.0

    def test_output_is_real(self):
        spec = JordanSpec(complex_blocks=((2 + 1j, 2),))
        j = real_jordan(spec)
        assert j.dtype == np.float64


class TestSynthesize:
    def test_identity_transform(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        factors = synthesize_matrix(spec, np.eye(2))
        np.testing.assert_array_equal(factors.reconstruct(), [[2, 1], [0, 2]])

    def test_spectral_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = random_pf_spec(rng, max_dim=7, max_block_size=2)
            r = random_orthogonal(rng, spec.total_dimension)
            w, _ = eigen_decompose(synthesize_matrix(spec, r).reconstruct())
            assert_multiset_close(w, spec.eigenvalue_multiset(), atol=1e-7)

    def test_dimension_mismatch(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        with pytest.raises(
            PreconditionError,
            match="^transform is 3x3 but the spec has total dimension 2$",
        ):
            synthesize_matrix(spec, np.eye(3))

    def test_singular_transform(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        with pytest.raises(PreconditionError, match="^transform is singular in"):
            synthesize_matrix(spec, np.zeros((2, 2)))

    @pytest.mark.parametrize("c", [1e-10, 1e-200])
    def test_scaled_transform_gives_the_same_matrix(self, c):
        # cR J (cR)^-1 = R J R^-1: a tiny but perfectly conditioned
        # transform is not singular
        spec = JordanSpec(real_blocks=((2.0, 1), (-1.0, 1)))
        r = np.array([[1.0, 1.0], [1.0, -1.0]])
        a = synthesize_matrix(spec, r).reconstruct()
        a_scaled = synthesize_matrix(spec, c * r).reconstruct()
        np.testing.assert_allclose(a_scaled, a, rtol=1e-14, atol=1e-15)

    def test_subnormal_transform_is_singular(self):
        # its inverse, 1e310 * [[1, 1], [1, -1]] / 2, overflows float64
        spec = JordanSpec(real_blocks=((2.0, 1), (-1.0, 1)))
        with pytest.raises(PreconditionError, match="singular in float64"):
            synthesize_matrix(spec, 1e-310 * np.array([[1.0, 1.0], [1.0, -1.0]]))

    def test_overflowing_matrix_refused(self):
        # R and J are finite, and so is the first product; A[0, 1] is
        # -1.7e308 - 1.7e308. The factors are fine: only forming A fails
        spec = JordanSpec(real_blocks=((1.7e308, 1), (-1.7e308, 1)))
        factors = synthesize_matrix(spec, np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(PreconditionError, match=r"A = R J R\^-1 overflows float64"):
            factors.reconstruct()

    def test_hard_condition_limit(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        with pytest.raises(
            PreconditionError,
            match="^transform condition estimate 2.000e[+]08 exceeds 1e[+]08$",
        ):
            synthesize_matrix(spec, np.diag([1.0, 5e-9]))

    def test_condition_warning(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        with pytest.warns(IllConditionedWarning):
            synthesize_matrix(spec, np.diag([1.0, 5e-7]))


class TestFactors:
    def test_inverse_is_validated(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        with pytest.raises(ValueError):
            RealJordanFactors(spec, np.eye(2), 2 * np.eye(2))

    def test_inverse_check_has_no_absolute_floor(self):
        # the normalised 64x64 Hadamard matrix H has max|H| * max|H^-1| =
        # 1/64, so an error of 1e-6 in one entry of H^-1 = H^T, which shows
        # as 1.25e-7 in H H^-1 - I, exceeds 1e-6 / 64
        h = np.ones((1, 1))
        for _ in range(6):
            h = np.block([[h, h], [h, -h]])
        h = h / 8.0
        spec = JordanSpec(real_blocks=((1.0, 1),) * 64)
        RealJordanFactors(spec, h, h.T)
        bad = h.T.copy()
        bad[0, 0] += 1e-6
        with pytest.raises(ValueError, match="not an inverse"):
            RealJordanFactors(spec, h, bad)

    def test_arrays_read_only(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        f = RealJordanFactors(spec, np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            f.transform[0, 0] = 9.0

    def test_transform_shape_must_match_the_spec(self):
        spec = JordanSpec(real_blocks=((2.0, 3),))
        message = r"^transform shape \(2, 2\) does not match spec dimension 3$"
        with pytest.raises(PreconditionError, match=message):
            RealJordanFactors(spec, np.eye(2), np.eye(2))
        spec = JordanSpec(real_blocks=((2.0, 1), (1.0, 1)))
        message = r"^transform_inverse shape \(3, 3\) does not match spec dimension 2$"
        with pytest.raises(PreconditionError, match=message):
            RealJordanFactors(spec, np.eye(2), np.eye(3))


def layout_family():
    """Seeded matrices at n = 1..40 with real-only, all-pair, mixed and sparse
    integer spectra (the last give -0.0 entries in R), then the split doubles."""
    rng = np.random.default_rng(27)
    for n in range(1, 41):
        q = rng.standard_normal((n, n))
        yield q @ np.diag(rng.standard_normal(n)) @ np.linalg.inv(q)
        s = rng.standard_normal((n, n))
        yield s - s.T
        yield rng.standard_normal((n, n))
        yield rng.integers(-2, 3, (n, n)) * (rng.random((n, n)) < 0.3)
    for seed in (70, 123, 317):
        yield split_double_eigenvalue_matrix(seed)[0]
    for seed in (62, 117, 173):
        yield split_double_eigenvalue_matrix(seed, lam=-1.0)[0]


class TestExtract:
    def test_already_diagonal(self):
        factors = extract_diagonalizable_structure(np.diag([2.0, 1.0]))
        assert factors.spec.real_blocks == ((2.0, 1), (1.0, 1))
        assert factors.spec.complex_blocks == ()
        np.testing.assert_allclose(factors.transform, np.eye(2), atol=1e-12)

    def test_golden_matrix(self):
        factors = extract_diagonalizable_structure(B)
        lams = sorted(lam for lam, _ in factors.spec.real_blocks)
        root = 17.0 ** 0.5
        np.testing.assert_allclose(lams, [(1 - root) / 2, (1 + root) / 2], atol=1e-12)
        np.testing.assert_allclose(factors.reconstruct(), B, atol=1e-12)

    def test_rotation_gives_complex_pair(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        factors = extract_diagonalizable_structure(a)
        assert factors.spec.real_blocks == ()
        assert len(factors.spec.complex_blocks) == 1
        lam, size = factors.spec.complex_blocks[0]
        assert size == 1
        assert abs(lam - 1j) < 1e-12
        np.testing.assert_allclose(factors.reconstruct(), a, atol=1e-12)

    def test_defective_nilpotent(self):
        with pytest.raises(PreconditionError, match="synthesize_matrix"):
            extract_diagonalizable_structure(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_defective_shear(self):
        with pytest.raises(PreconditionError, match="synthesize_matrix"):
            extract_diagonalizable_structure(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_round_trip_random_diagonalizable(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            spec = random_pf_spec(rng, max_dim=7, max_block_size=1)
            r = random_orthogonal(rng, spec.total_dimension)
            a = synthesize_matrix(spec, r).reconstruct()
            factors = extract_diagonalizable_structure(a)
            np.testing.assert_allclose(factors.reconstruct(), a, atol=1e-8)
            assert_multiset_close(
                factors.spec.eigenvalue_multiset(),
                spec.eigenvalue_multiset(),
                atol=1e-7,
            )

    def test_zero_matrix(self):
        factors = extract_diagonalizable_structure(np.zeros((3, 3)))
        assert factors.spec.real_blocks == ((0.0, 1),) * 3
        np.testing.assert_array_equal(factors.reconstruct(), np.zeros((3, 3)))

    def test_singular_basis_is_defective(self, monkeypatch):
        import matfrob.jordan

        def singular(a):
            raise PreconditionError(
                "matrix is singular to tolerance (smallest singular value 0.000e+00)"
            )

        monkeypatch.setattr(matfrob.jordan, "mat_inverse", singular)
        with pytest.raises(
            PreconditionError,
            match="eigenvector basis is numerically singular; the matrix is "
            "defective to tolerance. Build it from explicit factors via "
            "synthesize_matrix instead.",
        ):
            extract_diagonalizable_structure(B)

    def test_reconstruction_residual_refused(self, monkeypatch):
        # the last refusal: factors whose A = R J R^-1 misses the input by
        # more than 1e-6 * ||A||_inf (here 3e-6), forced by an offset of 1e-3
        reconstruct = RealJordanFactors.reconstruct
        monkeypatch.setattr(
            RealJordanFactors, "reconstruct", lambda self: reconstruct(self) + 1e-3
        )
        with pytest.raises(PreconditionError) as exc:
            extract_diagonalizable_structure(B)
        assert type(exc.value) is PreconditionError
        assert str(exc.value) == (
            "diagonalizable reconstruction residual 2.000e-03 exceeds 3.000e-06; "
            "the matrix is too close to defective. Build it from explicit "
            "factors via synthesize_matrix instead."
        )

    def test_layout_is_the_reference_bit_for_bit(self):
        # the spec, every column of R in order, and R^-1, against the reference
        compared = negative_zeros = 0
        for a in layout_family():
            try:
                factors = extract_diagonalizable_structure(a)
            except PreconditionError:
                continue
            spec, r = reference_extraction_layout(*eigen_decompose(a))
            assert repr(factors.spec) == repr(spec)
            assert bitwise_equal(factors.transform, r)
            assert bitwise_equal(factors.transform_inverse, mat_inverse(r))
            compared += 1
            negative_zeros += bool(np.signbit(r[r == 0.0]).any())
        assert compared >= 150 and negative_zeros >= 50, (compared, negative_zeros)


# c = 2^k for k from -1000 to 1000: cA is exact and stays a normal float64
# matrix at both ends (LAPACK's results on cA still differ from c times its
# results on A by rounding, and may come in another order)
POWER_OF_TWO_SCALES = (-1000, -500, -100, -43, -20, 20, 100, 500, 1000)


class TestScaleEquivariance:
    """Extraction of cA is extraction of A times c, at any scale."""

    @staticmethod
    def eigenvalues(factors):
        """Real eigenvalues and pair representatives, each sorted."""
        spec = factors.spec
        return (
            np.sort([lam for lam, _ in spec.real_blocks]),
            np.sort_complex([lam for lam, _ in spec.complex_blocks]),
        )

    def test_seeded_gaussian_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = rng.standard_normal((int(rng.integers(2, 8)),) * 2)
            base = self.eigenvalues(extract_diagonalizable_structure(a))
            for k in POWER_OF_TWO_SCALES:
                c = 2.0**k
                factors = extract_diagonalizable_structure(c * a)
                for want, got in zip(base, self.eigenvalues(factors)):
                    assert got.shape == want.shape, k
                    np.testing.assert_allclose(got, c * want, rtol=1e-12, atol=0)
                resid = np.linalg.norm(factors.reconstruct() - c * a, np.inf)
                assert resid <= 1e-12 * np.linalg.norm(c * a, np.inf), k

    def test_tiny_gaussian_keeps_its_complex_pairs(self):
        # 1e-13 A has pairs with imaginary parts near 1e-13, well above
        # rounding at its own scale; they are not split real eigenvalues
        a = 1e-13 * np.random.default_rng(0).standard_normal((6, 6))
        factors = extract_diagonalizable_structure(a)
        assert len(factors.spec.complex_blocks) == 2
        assert len(factors.spec.real_blocks) == 2
        resid = np.linalg.norm(factors.reconstruct() - a, np.inf)
        assert resid <= 1e-12 * np.linalg.norm(a, np.inf)


class TestOneSingularValueDecomposition:
    """Each transform is factored once."""

    @pytest.fixture
    def svds(self, monkeypatch):
        return count_svd_calls(monkeypatch)

    def test_synthesize(self, svds):
        spec = JordanSpec(real_blocks=((2.0, 2), (-1.0, 1)), complex_blocks=((1j, 1),))
        synthesize_matrix(spec, random_orthogonal(np.random.default_rng(3), 5))
        assert svds == [(5, 5)]

    def test_extract(self, svds):
        a = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        extract_diagonalizable_structure(a)
        assert svds == [(3, 3)]


def connected_components(w, radius):
    """Reference clustering: graph search over every pair closer than radius."""
    n = len(w)
    seen = [False] * n
    groups = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, group = [start], []
        while stack:
            i = stack.pop()
            group.append(i)
            for j in range(n):
                if not seen[j] and abs(w[i] - w[j]) < radius:
                    seen[j] = True
                    stack.append(j)
        groups.append(sorted(group))
    return groups


class TestClusterIndices:
    def test_matches_connected_components(self):
        rng = np.random.default_rng(41)
        radius = 1e-3
        for trial in range(40):
            n = int(rng.integers(1, 60))
            w = list(rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n) * (trial % 2))
            for _ in range(int(rng.integers(0, 5))):
                # a chain whose links are shorter than the radius but whose
                # ends lie further apart, so clusters must be transitive
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                for _ in range(int(rng.integers(2, 6))):
                    z += radius * rng.uniform(0.2, 0.95) * np.exp(
                        1j * rng.uniform(-np.pi, np.pi)
                    )
                    w.append(z)
            w = np.array(w, dtype=complex)[rng.permutation(len(w))]
            assert _cluster_indices(w, radius) == connected_components(w, radius)

    def test_exact_duplicates_and_singletons(self):
        w = np.array([1.0, 2.0, 1.0, 3.0, 2.0 + 5e-7], dtype=complex)
        assert _cluster_indices(w, 1e-6) == [[0, 2], [1, 4], [3]]
