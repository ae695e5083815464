import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintomo import (
    DimensionMismatchError,
    NotHermitianError,
    as_operator,
    dual_via_gram_inverse,
    eig_hermitian,
    hs_inner,
    hs_norm,
    op_exp,
    random_density,
    random_hermitian,
    random_operator,
    superop_from_frame,
)
from spintomo.frames import Quorum
from spintomo.spin import pauli_quorum

from conftest import EYE2, SX, SY, SZ


@st.composite
def seeded_pair(draw, max_dim=5):
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return random_operator(dim, rng), random_operator(dim, rng)


@st.composite
def seeded_hermitian(draw, max_dim=5):
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**31 - 1))
    return random_hermitian(dim, np.random.default_rng(seed))


class TestInnerProduct:
    def test_pauli_norms(self):
        assert hs_inner(SX, SX) == pytest.approx(2)
        assert hs_inner(SX, SY) == pytest.approx(0)

    def test_identity_traces_density(self, rng):
        for dim in (2, 3, 5):
            rho = random_density(dim, rng)
            assert hs_inner(np.eye(dim), rho) == pytest.approx(1, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hs_inner(SX, np.eye(3))

    @given(seeded_pair())
    def test_conjugate_symmetry(self, pair):
        a, b = pair
        assert abs(hs_inner(a, b) - np.conj(hs_inner(b, a))) <= 1e-12

    @given(seeded_pair())
    def test_cauchy_schwarz(self, pair):
        a, b = pair
        assert abs(hs_inner(a, b)) <= hs_norm(a) * hs_norm(b) + 1e-12


class TestNorm:
    def test_zero_matrix(self):
        assert hs_norm(np.zeros((3, 3))) == 0.0

    def test_known_values(self):
        assert hs_norm(EYE2) == pytest.approx(np.sqrt(2))
        assert hs_norm(SZ) == pytest.approx(np.sqrt(2))


class TestOpExp:
    def test_zero_phase_is_identity(self, rng):
        h = random_hermitian(4, rng)
        assert np.allclose(op_exp(h, 0.0), np.eye(4), atol=1e-12)

    def test_full_turn_spin_half(self):
        # eigenvalues +-1/2 pick up e^{+-i pi} = -1
        h = SZ / 2
        assert np.allclose(op_exp(h, 2 * np.pi), -EYE2, atol=1e-12)

    def test_diagonal_phases(self):
        u = op_exp(SZ / 2, np.pi)
        assert np.allclose(u, np.diag([1j, -1j]), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            op_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @given(seeded_hermitian(), st.floats(-10, 10))
    @settings(max_examples=50)
    def test_unitarity(self, h, phase):
        u = op_exp(h, phase)
        assert np.abs(u.conj().T @ u - np.eye(h.shape[0])).max() <= 1e-10

    @given(seeded_hermitian(), st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50)
    def test_group_property(self, h, p1, p2):
        lhs = op_exp(h, p1) @ op_exp(h, p2)
        assert np.abs(lhs - op_exp(h, p1 + p2)).max() <= 1e-10


class TestEigHermitian:
    def test_sigma_z(self):
        w, v = eig_hermitian(SZ)
        assert np.allclose(w, [-1, 1])
        assert np.allclose(v[:, 0], [0, 1])
        assert np.allclose(v[:, 1], [1, 0])

    def test_sigma_x(self):
        w, v = eig_hermitian(SX)
        assert np.allclose(w, [-1, 1])
        assert np.allclose(v[:, 0], np.array([1, -1]) / np.sqrt(2))
        assert np.allclose(v[:, 1], np.array([1, 1]) / np.sqrt(2))

    def test_spin_one_along_z(self):
        sz = np.diag([-1.0, 0.0, 1.0]).astype(complex)
        w, _ = eig_hermitian(sz)
        assert np.allclose(w, [-1, 0, 1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array([[0, 1], [0.5, 0]], dtype=complex))

    @given(seeded_hermitian())
    @settings(max_examples=50)
    def test_reconstruction_and_orthonormality(self, h):
        w, v = eig_hermitian(h)
        assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-10
        assert np.abs(v.conj().T @ v - np.eye(h.shape[0])).max() <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)

    @given(seeded_hermitian())
    @settings(max_examples=20)
    def test_phase_convention_reproducible(self, h):
        _, v1 = eig_hermitian(h)
        _, v2 = eig_hermitian(h.copy())
        assert np.array_equal(v1, v2)

    def test_phase_convention_matches_column_loop(self):
        # reference: each column rotated by its own pivot's phase, one at a time
        rng = np.random.default_rng(17)
        for dim in range(1, 17):
            for h in [random_hermitian(dim, rng) for _ in range(20)] + [np.eye(dim)]:
                w, v = eig_hermitian(h)
                w_ref, v_ref = np.linalg.eigh(np.asarray(h, dtype=complex))
                for k in range(dim):
                    col = v_ref[:, k]
                    pivot = col[int(np.argmax(np.abs(col)))]
                    v_ref[:, k] = col * (np.conj(pivot) / abs(pivot))
                assert np.array_equal(w, w_ref)
                assert np.array_equal(v, v_ref)


class TestSuperopFromFrame:
    def test_pauli_pair_is_identity(self):
        q, dual = pauli_quorum()
        s = superop_from_frame(q.elements, dual.elements)
        assert np.abs(s - np.eye(4)).max() <= 1e-12

    def test_rank_one_frame_is_projector(self):
        s = superop_from_frame([EYE2], [EYE2 / 2])
        # projector onto the identity component only
        assert np.abs(s @ s - s).max() <= 1e-12
        assert np.linalg.matrix_rank(s) == 1
        assert np.abs(s - np.eye(4)).max() > 0.4

    def test_random_complete_frame_with_gram_dual(self, rng):
        q = Quorum.from_elements([random_operator(2, rng) for _ in range(4)])
        dual = dual_via_gram_inverse(q)
        s = superop_from_frame(q.elements, dual.elements)
        assert np.abs(s - np.eye(4)).max() <= 1e-10

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            superop_from_frame([SX, SY], [SX])

    def test_operator_stacks(self):
        stack = np.array([SX, SY, SZ, EYE2])
        assert np.abs(superop_from_frame(stack, stack / 2) - np.eye(4)).max() <= 1e-15

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            superop_from_frame([SX, np.eye(3)], [SX, np.eye(3)])
        with pytest.raises(DimensionMismatchError):
            superop_from_frame([SX], [np.eye(3)])

    def test_empty_frame(self):
        with pytest.raises(ValueError) as err:
            superop_from_frame([], [])
        assert not isinstance(err.value, DimensionMismatchError)


class TestValidation:
    def test_as_operator_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            as_operator(np.zeros((2, 3)))

