import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintomo import (
    Direction,
    SingularGramError,
    SpinState,
    basis_state,
    coherent_state,
    completeness_check,
    haar_volume,
    hs_inner,
    hs_norm,
    make_spin_system,
    max_spin_projector,
    pauli_matrices,
    pauli_quorum,
    random_directions,
    random_hermitian,
    rotation_d,
    spin,
    su2_orthogonality_residual,
    superop_from_frame,
    tetrahedral_directions,
    weigert_quorum,
)

from conftest import rodrigues_rotate


class TestSpinSystem:
    def test_spin_half_matrices(self):
        sys2 = make_spin_system(1)
        # m-ascending basis: Sz = diag(-1/2, +1/2)
        assert np.allclose(sys2.sz, np.diag([-0.5, 0.5]))
        assert np.allclose(sys2.sx, np.array([[0, 0.5], [0.5, 0]]))
        assert np.allclose(sys2.sy, np.array([[0, 0.5j], [-0.5j, 0]]))

    def test_spin_one_sz(self):
        assert np.allclose(make_spin_system(2).sz, np.diag([-1, 0, 1]))

    def test_negative_spin_rejected(self):
        with pytest.raises(ValueError, match="^two_s must be a nonnegative integer$"):
            make_spin_system(-1)

    @pytest.mark.parametrize("two_s", [0, 1, 2, 3, 5, 8])
    def test_su2_algebra(self, two_s):
        sys_ = make_spin_system(two_s)
        s = two_s / 2
        eye = np.eye(sys_.dim)
        comm = sys_.sx @ sys_.sy - sys_.sy @ sys_.sx
        assert np.abs(comm - 1j * sys_.sz).max() <= 1e-12
        casimir = sys_.sx @ sys_.sx + sys_.sy @ sys_.sy + sys_.sz @ sys_.sz
        assert np.abs(casimir - s * (s + 1) * eye).max() <= 1e-12
        assert np.abs(sys_.s_plus - sys_.s_minus.conj().T).max() == 0

    def test_spin_along(self):
        sys_ = make_spin_system(2)
        n = Direction(np.pi / 2, 0.0)
        assert np.abs(sys_.spin_along(n) - sys_.sx).max() <= 1e-12


class TestDirections:
    def test_unit_vector(self):
        n = Direction(np.pi / 3, np.pi / 4).unit_vector
        assert np.linalg.norm(n) == pytest.approx(1, abs=1e-14)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            Direction(4.0, 0.0)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
    def test_phi_must_be_finite(self, phi):
        with pytest.raises(ValueError, match=f"^phi must be finite, got {phi}$"):
            Direction(0.3, phi)

    def test_random_directions_seeded(self):
        assert random_directions(5, 3) == random_directions(5, 3)


class TestRotation:
    def test_zero_angle(self):
        sys_ = make_spin_system(3)
        u = rotation_d(sys_, 0.0, Direction(1.0, 2.0))
        assert np.abs(u - np.eye(4)).max() <= 1e-12

    def test_half_integer_full_turn(self):
        sys_ = make_spin_system(1)
        u = rotation_d(sys_, 2 * np.pi, Direction(0.7, 0.3))
        assert np.abs(u + np.eye(2)).max() <= 1e-10

    def test_integer_spin_periodicity(self):
        sys_ = make_spin_system(2)
        u = rotation_d(sys_, 2 * np.pi, Direction(0.7, 0.3))
        assert np.abs(u - np.eye(3)).max() <= 1e-10


class TestPauliQuorum:
    def test_complete(self):
        report = completeness_check(pauli_quorum()[0])
        assert report.complete and report.rank == 4

    def test_expansion_coefficients_sigma_z(self):
        q, dual = pauli_quorum()
        sx, sy, sz = pauli_matrices()
        coeffs = [hs_inner(b, sz) for b in dual.elements]
        assert np.allclose(coeffs, [0, 0, 1, 0], atol=1e-12)

    def test_expansion_coefficients_projector(self):
        q, dual = pauli_quorum()
        _, _, sz = pauli_matrices()
        proj = (np.eye(2) + sz) / 2
        coeffs = [hs_inner(b, proj) for b in dual.elements]
        assert np.allclose(coeffs, [0, 0, 0.5, 0.5], atol=1e-12)

    def test_pauli_expansion_identity(self, rng):
        q, dual = pauli_quorum()
        for _ in range(50):
            a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            recon = sum(hs_inner(b, a) * c for c, b in zip(q.elements, dual.elements))
            assert hs_norm(a - recon) <= 1e-12

    def test_superop_identity(self):
        q, dual = pauli_quorum()
        assert np.abs(superop_from_frame(q.elements, dual.elements) - np.eye(4)).max() <= 1e-12


class TestStates:
    def test_basis_state(self):
        sys_ = make_spin_system(2)
        st_ = basis_state(sys_, 1.0)
        assert np.allclose(st_.amplitudes, [0, 0, 1])
        with pytest.raises(ValueError):
            basis_state(sys_, 0.5)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_argument_named(self, value):
        # basis_state(system, inf) used to raise OverflowError from int(round(inf))
        sys_ = make_spin_system(2)
        with pytest.raises(ValueError, match=f"m = {value} is not an eigenvalue"):
            basis_state(sys_, value)
        alpha = complex(value, 0.5)
        with pytest.raises(ValueError, match=rf"alpha = \({alpha.real}\+0\.5j\) is not finite"):
            coherent_state(sys_, alpha)

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            SpinState(np.array([1.0, 1.0]))

    def test_coherent_alpha_zero(self):
        sys_ = make_spin_system(3)
        st_ = coherent_state(sys_, 0.0)
        assert np.allclose(st_.amplitudes, [1, 0, 0, 0])

    def test_coherent_spin_half_closed_form(self):
        sys_ = make_spin_system(1)
        st_ = coherent_state(sys_, 2.0)
        assert np.allclose(st_.amplitudes, [np.cos(2), np.sin(2)], atol=1e-12)
        sz_mean = st_.amplitudes.conj() @ sys_.sz @ st_.amplitudes
        assert sz_mean.real == pytest.approx(-np.cos(4) / 2, abs=1e-12)

    @given(st.floats(-3, 3), st.floats(-3, 3), st.sampled_from([1, 2, 3, 4]))
    @settings(max_examples=40)
    def test_coherent_unit_norm(self, re, im, two_s):
        sys_ = make_spin_system(two_s)
        st_ = coherent_state(sys_, complex(re, im))
        assert np.linalg.norm(st_.amplitudes) == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.4, 1.3 + 0.7j, -0.9 + 2.1j])
    def test_rotation_covariance(self, two_s, alpha):
        # exp(alpha S+ - conj(alpha) S-) rotates -z about the in-plane axis
        # (sin(arg a), cos(arg a), 0) by -2|alpha|; the mean spin must sit at
        # the rotated direction with maximal projection s.
        sys_ = make_spin_system(two_s)
        state = coherent_state(sys_, alpha)
        r, beta = abs(alpha), np.angle(alpha)
        axis = np.array([np.sin(beta), np.cos(beta), 0.0])
        n = rodrigues_rotate([0.0, 0.0, -1.0], axis, -2 * r)
        h = n[0] * sys_.sx + n[1] * sys_.sy + n[2] * sys_.sz
        mean = (state.amplitudes.conj() @ h @ state.amplitudes).real
        assert mean == pytest.approx(two_s / 2, abs=1e-12)


class TestWeigert:
    def test_tetrahedral_spin_half(self, rng):
        sys_ = make_spin_system(1)
        wq = weigert_quorum(sys_, tetrahedral_directions())
        assert wq.gram_condition == pytest.approx(3.0, abs=1e-9)
        assert completeness_check(wq.quorum).complete
        for _ in range(20):
            a = random_hermitian(2, rng)
            recon = sum(
                hs_inner(b, a) * q for q, b in zip(wq.projectors, wq.dual.elements)
            )
            assert hs_norm(a - recon) <= 1e-10

    def test_duality_relation(self):
        sys_ = make_spin_system(1)
        wq = weigert_quorum(sys_, tetrahedral_directions())
        delta = np.array(
            [[hs_inner(b, q) for q in wq.projectors] for b in wq.dual.elements]
        )
        assert np.abs(delta - np.eye(4)).max() <= 1e-9

    @pytest.mark.parametrize("two_s", [1, 3, 7, 15])
    def test_projector_properties(self, two_s, monkeypatch):
        # random sets past d = 8 exceed the conditioning cap; only the
        # projectors are checked here, so the cap is lifted
        monkeypatch.setattr(spin, "WEIGERT_CONDITION_CAP", math.inf)
        sys_ = make_spin_system(two_s)
        tol = 1e-13 * sys_.dim
        dirs = random_directions(sys_.dim**2, seed=2)
        wq = weigert_quorum(sys_, dirs)
        rows = sys_.rotated_basis([n.theta for n in dirs], [n.phi for n in dirs])
        m = np.arange(sys_.dim) - sys_.s
        for n, batched, r in zip(dirs, wq.projectors, rows):
            s_n = sys_.spin_along(n)
            top = np.linalg.eigh(s_n)[1][:, -1]
            want = np.outer(top, top.conj())
            p = max_spin_projector(sys_, n)
            assert np.abs(p - want).max() <= tol
            assert np.abs(batched - want).max() <= tol
            assert np.abs(p @ p - p).max() <= 1e-10
            assert np.trace(p).real == pytest.approx(1, abs=1e-12)
            # top eigenvector: S.n expectation is s
            val = np.trace(s_n @ p).real
            assert val == pytest.approx(sys_.s, abs=1e-10)
            # row m of the rotated basis is the eigenvector of S.n for m
            assert np.abs(r @ s_n.T - m[:, None] * r).max() <= tol

    def test_coincident_directions_rejected(self):
        sys_ = make_spin_system(1)
        dirs = tetrahedral_directions()
        dirs[3] = dirs[0]
        message = r"cap 1e\+10; .*; directions 0 and 3 coincide; choose other directions$"
        with pytest.raises(SingularGramError, match=message):
            weigert_quorum(sys_, dirs)
        # a direction whose acos(u . u) is not 0: an angle test misses the pair
        n = next(
            n for n in random_directions(1000, 3)
            if math.acos(min(1.0, n.unit_vector @ n.unit_vector)) > 0
        )
        dirs = [tetrahedral_directions()[1], n, tetrahedral_directions()[2], n]
        with pytest.raises(SingularGramError, match="directions 1 and 3 coincide"):
            weigert_quorum(sys_, dirs)

    def test_wrong_count_rejected(self):
        sys_ = make_spin_system(1)
        with pytest.raises(ValueError, match="exactly 4"):
            weigert_quorum(sys_, tetrahedral_directions()[:3])

    @pytest.mark.parametrize("two_s,seed", [(1, 10), (2, 11), (3, 12)])
    def test_random_directions_complete(self, two_s, seed, rng):
        sys_ = make_spin_system(two_s)
        wq = weigert_quorum(sys_, random_directions(sys_.dim**2, seed))
        report = completeness_check(wq.quorum)
        assert report.complete and report.rank == sys_.dim**2
        a = random_hermitian(sys_.dim, rng)
        recon = sum(hs_inner(b, a) * q for q, b in zip(wq.projectors, wq.dual.elements))
        assert hs_norm(a - recon) <= 1e-8 * (1 + hs_norm(a))


class TestGroupOrthogonality:
    def test_haar_volume(self):
        # the trapezoid rule in psi integrates sin^2(psi/2) exactly
        assert haar_volume((8, 8, 8)) == pytest.approx(4 * np.pi**2, rel=1e-8)
        assert haar_volume((32, 32, 64)) == pytest.approx(4 * np.pi**2, rel=1e-14)
        for two_s in (1, 7):
            theta, phi, w = make_spin_system(two_s).direction_grid()
            assert (theta.size, phi.size) == (two_s + 4, 2 * two_s + 6)
            assert np.sum(w) * phi.size == pytest.approx(1, rel=1e-14)

    def test_residual_spin_half(self):
        sys_ = make_spin_system(1)
        assert su2_orthogonality_residual(sys_, (16, 16, 16)) <= 1e-8

    def test_residual_coarse_grid_exact(self):
        # integer psi frequencies up to 2s + 1 = 2 are exact on 8 trapezoid nodes
        sys_ = make_spin_system(1)
        assert su2_orthogonality_residual(sys_, (8, 8, 8)) <= 1e-12

    def test_residual_shrinks_under_doubling(self):
        # the rule is spectrally accurate, so past convergence the residual
        # sits at roundoff; allow a 1e-12 floor for that regime
        sys_ = make_spin_system(1)
        grids = [(8, 8, 8), (16, 16, 16), (32, 32, 32)]
        res = [su2_orthogonality_residual(sys_, g) for g in grids]
        for coarse, fine in zip(res, res[1:]):
            assert fine <= 1.1 * coarse + 1e-12

    @pytest.mark.parametrize("two_s, grid", [(7, (8, 8, 8)), (3, (8, 9, 10))])
    def test_residual_matches_node_by_node_reference(self, two_s, grid):
        # exp(i psi S.n) at every (theta, phi, psi) node, summed in the plain
        # order; (8, 8, 8) is too coarse for s = 7/2, so the residual is O(1)
        sys_ = make_spin_system(two_s)
        n_theta, n_phi, n_psi = grid
        cos_t, w_cos = np.polynomial.legendre.leggauss(n_theta)
        psi = 2 * np.pi * np.arange(n_psi) / n_psi
        w_psi = (2 * np.pi / n_psi) * np.sin(psi / 2) ** 2
        acc = np.zeros((sys_.dim**2, sys_.dim**2), dtype=complex)
        for c, wc in zip(cos_t, w_cos):
            for phi in 2 * np.pi * np.arange(n_phi) / n_phi:
                for p, wp in zip(psi, w_psi):
                    u = rotation_d(sys_, p, Direction(math.acos(c), phi)).reshape(-1)
                    acc += wc * (2 * np.pi / n_phi) * wp * np.outer(u, u.conj())
        acc *= sys_.dim / (4 * np.pi**2)
        eye = np.eye(sys_.dim)
        want = np.abs(acc - np.einsum("jk,rt->jrkt", eye, eye).reshape(acc.shape)).max()
        assert su2_orthogonality_residual(sys_, grid) == pytest.approx(want, rel=1e-9, abs=1e-13)

    def test_degenerate_grid_rejected(self):
        sys_ = make_spin_system(1)
        with pytest.raises(ValueError, match="degenerate"):
            su2_orthogonality_residual(sys_, (4, 8, 8))
        with pytest.raises(ValueError, match="degenerate"):
            su2_orthogonality_residual(sys_, (8, 8, 4))
        # a float count is refused, not truncated to 8
        with pytest.raises(TypeError):
            su2_orthogonality_residual(sys_, (8.5, 8, 8))
