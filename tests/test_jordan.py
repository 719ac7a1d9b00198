import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matfrob import (
    DefectiveMatrixError,
    DimensionMismatchError,
    IllConditionedError,
    IllConditionedWarning,
    JordanSpec,
    SingularMatrixError,
    assemble_real_jordan,
    eigen_decompose,
    extract_diagonalizable_structure,
    jordan_block,
    real_jordan_block,
    rotation_block,
    synthesize_matrix,
)
from matfrob.jordan import RealJordanFactors, _cluster_indices, block_diag
from matfrob.sampling import random_orthogonal, random_pf_spec

from helpers import assert_multiset_close

B = np.array([[2.0, 1.0], [2.0, -1.0]])


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

    def test_rotation_block(self):
        np.testing.assert_array_equal(rotation_block(1 + 2j), [[1, 2], [-2, 1]])
        np.testing.assert_array_equal(rotation_block(3.0), [[3, 0], [0, 3]])

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
        pair = block_diag([jordan_block(lam, size), jordan_block(np.conj(lam), size)])
        c1 = np.poly(real_jordan_block(lam, size))
        c2 = np.poly(pair)
        scale = max(1.0, np.max(np.abs(c2)))
        assert np.max(np.abs(c1 - c2)) <= 1e-9 * scale


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


class TestAssemble:
    def test_mixed_layout(self):
        spec = JordanSpec(real_blocks=((2.0, 1),), complex_blocks=((1 + 1j, 1),))
        expected = [[2, 0, 0], [0, 1, 1], [0, -1, 1]]
        np.testing.assert_array_equal(assemble_real_jordan(spec), expected)

    def test_block_order_preserved(self):
        spec = JordanSpec(real_blocks=((5.0, 1), (-3.0, 2)))
        j = assemble_real_jordan(spec)
        assert j[0, 0] == 5.0
        assert j[1, 1] == j[2, 2] == -3.0
        assert j[1, 2] == 1.0

    def test_output_is_real(self):
        spec = JordanSpec(complex_blocks=((2 + 1j, 2),))
        j = assemble_real_jordan(spec)
        assert j.dtype == np.float64


class TestSynthesize:
    def test_identity_transform(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        a, factors = synthesize_matrix(spec, np.eye(2))
        np.testing.assert_array_equal(a, [[2, 1], [0, 2]])
        np.testing.assert_array_equal(factors.reconstruct(), a)

    def test_spectral_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = random_pf_spec(rng, max_dim=7, max_block_size=2)
            r = random_orthogonal(rng, spec.total_dimension)
            a, _ = synthesize_matrix(spec, r)
            w, _ = eigen_decompose(a)
            assert_multiset_close(w, spec.eigenvalue_multiset(), atol=1e-7)

    def test_dimension_mismatch(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        with pytest.raises(DimensionMismatchError):
            synthesize_matrix(spec, np.eye(3))

    def test_singular_transform(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        with pytest.raises(SingularMatrixError):
            synthesize_matrix(spec, np.zeros((2, 2)))

    def test_hard_condition_limit(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        with pytest.raises(IllConditionedError):
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

    def test_arrays_read_only(self):
        spec = JordanSpec(real_blocks=((2.0, 2),))
        f = RealJordanFactors(spec, np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            f.transform[0, 0] = 9.0


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
        with pytest.raises(DefectiveMatrixError, match="synthesize_matrix"):
            extract_diagonalizable_structure(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_defective_shear(self):
        with pytest.raises(DefectiveMatrixError, match="synthesize_matrix"):
            extract_diagonalizable_structure(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_round_trip_random_diagonalizable(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            spec = random_pf_spec(rng, max_dim=7, max_block_size=1)
            r = random_orthogonal(rng, spec.total_dimension)
            a, _ = synthesize_matrix(spec, r)
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
