import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from spintomo import estimator
from spintomo import (
    DimensionMismatchError,
    DualFrame,
    NotHermitianError,
    Quorum,
    coherent_state,
    continuous_exact_value,
    continuous_kernel,
    discrete_exact_value,
    dual_via_gram_schmidt,
    estimate_continuous,
    estimate_discrete,
    estimate_weigert,
    basis_state,
    make_spin_system,
    pauli_quorum,
    random_density,
    random_directions,
    random_hermitian,
    state_expectation,
    tetrahedral_directions,
    weigert_exact_value,
    weigert_quorum,
)
from spintomo.estimator import _state_factors
from spintomo.spin import Direction

from conftest import SX, SZ, psi_quadrature_kernel, random_quorum


@pytest.fixture(scope="module")
def spin_half():
    return make_spin_system(1)


@pytest.fixture(scope="module")
def coherent2(spin_half):
    return coherent_state(spin_half, 2.0)


def _engine_born_row(state, observable):
    """Born row of measuring one observable, as the count engine builds it."""
    q = Quorum.from_elements([observable])
    table = estimator._discrete_table(observable, q, DualFrame.from_elements([observable]), state)
    return table.probs[0]


def _single_setting_run(observable, state, samples, seed):
    """Shots of one observable, each worth its outcome eigenvalue.

    The dual 2 * observable gives coefficient Tr[2 O^2] = 1 for the spin-1/2
    components, so a block mean is the mean measured eigenvalue.
    """
    q = Quorum.from_elements([observable])
    dual = DualFrame.from_elements([2 * observable])
    return estimate_discrete(observable, q, dual, state, samples, seed=seed)


class TestBornDistribution:
    def test_eigenstate_is_deterministic(self, spin_half):
        row = _engine_born_row(basis_state(spin_half, 0.5), spin_half.sz)
        assert np.allclose(row, [0, 1], atol=1e-14)

    def test_mutually_unbiased(self, spin_half):
        row = _engine_born_row(basis_state(spin_half, 0.5), spin_half.sx)
        assert np.allclose(row, [0.5, 0.5], atol=1e-14)

    def test_coherent_state_along_z(self, spin_half, coherent2):
        row = _engine_born_row(coherent2, spin_half.sz)
        assert row[1] == pytest.approx(np.sin(2) ** 2, abs=1e-12)

    def test_density_matrix_input(self, spin_half, rng):
        # S_z is diagonal in the m-ascending basis: p_m = rho_mm
        rho = random_density(2, rng)
        row = _engine_born_row(rho, spin_half.sz)
        assert np.abs(row - np.diag(rho).real).max() <= 1e-14


class TestStateFactors:
    def test_state_forms_agree(self, rng):
        sys_ = make_spin_system(3)
        state = coherent_state(sys_, 0.6 + 0.2j)
        a = random_hermitian(4, rng)
        forms = (state, state.amplitudes, state.density_matrix())
        values = [state_expectation(form, a) for form in forms]
        assert max(abs(v - values[0]) for v in values) <= 1e-14

    def test_rank_deficient_density_keeps_its_support(self, rng):
        basis, _ = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        rho = 0.25 * np.outer(basis[:, 0], basis[:, 0].conj())
        rho += 0.75 * np.outer(basis[:, 1], basis[:, 1].conj())
        weights, rows = _state_factors(rho, 3)
        assert rows.shape == (2, 3)
        assert np.allclose(np.sort(weights), [0.25, 0.75], atol=1e-14)
        assert np.abs((rows.T * weights) @ rows.conj() - rho).max() <= 1e-14

    def test_one_diagonalisation_per_density_matrix(self, rng, monkeypatch):
        sys_ = make_spin_system(3)
        rho = random_density(4, rng)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(h, *args, _original=getattr(np.linalg, name), _name=name, **kwargs):
                if np.shape(h) == rho.shape and np.array_equal(h, rho):
                    calls.append(_name)
                return _original(h, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        estimate_continuous(sys_.sz, sys_, rho, 100)
        assert calls == ["eigh"]


def _drawn_counts(probs, sizes, seed):
    """Each block's count of every (setting, outcome) cell, read off the block sums.

    The draw sums the values of a block's shots, and its route depends on
    the shots and the row length only, so the sum of one cell's indicator
    is that cell's count in the same draw.
    """
    cells = np.eye(probs.size).reshape(probs.size, *probs.shape)
    sums = np.array([list(estimator._block_sums(probs, e, sizes, seed)) for e in cells])
    counts = sums.T.reshape(len(sizes), *probs.shape)
    assert np.array_equal(counts, np.rint(counts))
    return counts.astype(int)


def _most_shots(probs):
    """The most shots per setting a block draws one by one on this table."""
    by_shots = estimator._by_shots(np.arange(1, probs.shape[1] + 1), probs)
    return int(np.flatnonzero(by_shots)[-1]) + 1


class TestSampling:
    def test_deterministic_distribution(self, spin_half):
        stats = _single_setting_run(spin_half.sz, basis_state(spin_half, 0.5), 200, seed=7)
        assert set(stats.block_means) == {0.5}
        assert stats.error_bar == 0.0

    def test_fair_coin_concentrates(self, spin_half):
        stats = _single_setting_run(spin_half.sx, basis_state(spin_half, 0.5), 100_000, seed=42)
        freq = 0.5 - stats.mean  # share of the outcome -1/2
        assert abs(freq - 0.5) < 0.01

    def test_repeatable(self):
        probs = np.array([[0.3, 0.7, 0, 0, 0, 0, 0, 0], [0.5, 0, 0, 0, 0, 0, 0, 0.5]])
        sizes = np.array([17, 16, 16, 1])  # three blocks by counts, one by shots
        assert estimator._by_shots(sizes, probs).tolist() == [False, False, False, True]
        runs = [_drawn_counts(probs, sizes, 3) for _ in range(2)]
        assert np.array_equal(*runs)

    def test_count_validated(self, spin_half, coherent2):
        with pytest.raises(ValueError, match="cannot fill"):
            _single_setting_run(spin_half.sx, coherent2, 19, seed=1)
        wq = weigert_quorum(spin_half, tetrahedral_directions())
        with pytest.raises(ValueError, match="cannot fill"):
            estimate_weigert(spin_half.sz, wq, coherent2, 19, seed=1)


class TestBlockStats:
    """The blocked mean and error bar of an estimate, the same for every quorum."""

    QUORUMS = ("pauli", "continuous", "weigert")

    @staticmethod
    def _run(quorum, system, state):
        """estimate(target, quota, **options) with the spin-1/2 quorum named ``quorum``."""
        if quorum == "pauli":
            q, dual = pauli_quorum()
            return lambda a, n, **options: estimate_discrete(a, q, dual, state, n, **options)
        if quorum == "continuous":
            return lambda a, n, **options: estimate_continuous(a, system, state, n, **options)
        wq = weigert_quorum(system, tetrahedral_directions())
        return lambda a, n, **options: estimate_weigert(a, wq, state, n, **options)

    @pytest.mark.parametrize("quorum", QUORUMS)
    def test_blocked_mean_and_error_bar(self, quorum, spin_half, coherent2):
        run = self._run(quorum, spin_half, coherent2)
        # 1003 shots per setting: the first 3 of the 20 blocks hold one more
        stats = run(spin_half.sz, 1003, seed=4)
        means, sizes = np.array(stats.block_means), np.array([51] * 3 + [50] * 17)
        assert stats.mean == np.sum(means * sizes) / np.sum(sizes)
        assert stats.error_bar == np.std(means, ddof=1) / np.sqrt(20)

    @staticmethod
    def _patch_stream(monkeypatch, stream):
        """Make the shots of every estimate worth ``stream``, in order.

        The table's constant is 0 for S_z, so with a quota of len(stream) a
        block mean of an S_z estimate is the mean of its slice of the
        stream.  Returns the list that collects each estimate's block sizes.
        """
        drawn = []

        def block_sums(probs, values, sizes, seed):
            drawn.append(list(sizes))
            bounds = np.cumsum(sizes)[:-1]
            return (float(np.sum(b)) for b in np.split(np.asarray(stream, float), bounds))

        monkeypatch.setattr(estimator, "_block_sums", block_sums)
        return drawn

    def test_constant_stream(self, spin_half, coherent2, monkeypatch):
        # every shot worth 3.25: each block mean, the mean and no error bar at all
        self._patch_stream(monkeypatch, [3.25] * 40)
        for quorum in self.QUORUMS:
            stats = self._run(quorum, spin_half, coherent2)(spin_half.sz, 40, n_blocks=4, seed=4)
            assert stats.block_means == (3.25,) * 4
            assert stats.mean == 3.25
            assert stats.error_bar == 0.0

    def test_hand_computed(self, spin_half, coherent2, monkeypatch):
        self._patch_stream(monkeypatch, [0.0, 0.0, 1.0, 1.0])
        for quorum in self.QUORUMS:
            stats = self._run(quorum, spin_half, coherent2)(spin_half.sz, 4, n_blocks=2, seed=4)
            assert stats.block_means == (0.0, 1.0)
            assert stats.mean == 0.5
            assert stats.error_bar == pytest.approx(0.5)

    def test_uneven_split_front_loaded(self, spin_half, coherent2, monkeypatch):
        drawn = self._patch_stream(monkeypatch, list(range(7)))
        for quorum in self.QUORUMS:
            stats = self._run(quorum, spin_half, coherent2)(spin_half.sz, 7, n_blocks=3, seed=4)
            assert drawn.pop() == [3, 2, 2]
            assert stats.block_means == (1.0, 3.5, 5.5)
            assert stats.mean == pytest.approx(3.0)

    def test_binomial_error_bar(self, spin_half):
        # shots of +-1/2 with equal odds: the error bar is 1 / (2 sqrt(N))
        stats = _single_setting_run(spin_half.sx, basis_state(spin_half, 0.5), 100_000, seed=42)
        assert stats.error_bar == pytest.approx(0.5 / np.sqrt(100_000), rel=0.3)

    def test_validation(self, spin_half, coherent2):
        for quorum in self.QUORUMS:
            run = self._run(quorum, spin_half, coherent2)
            with pytest.raises(ValueError, match="^n_blocks must be >= 2$"):
                run(spin_half.sz, 100, n_blocks=1)
            with pytest.raises(ValueError, match=" = 1 cannot fill 2 blocks$"):
                run(spin_half.sz, 1, n_blocks=2)

    @pytest.mark.parametrize("quorum", QUORUMS)
    def test_largest_block_fits_int64(self, quorum, spin_half, coherent2):
        run = self._run(quorum, spin_half, coherent2)
        largest = 20 * np.iinfo(np.int64).max
        stats = run(spin_half.sz, largest, seed=1)
        assert abs(stats.mean + np.cos(4) / 2) <= 4 * stats.error_bar
        with pytest.raises(ValueError, match=f" = {largest + 20} puts more than 2\\*\\*63 - 1 shots"):
            run(spin_half.sz, largest + 20, seed=1)


class TestDiscreteEstimator:
    def test_identity_target_exact(self, spin_half, coherent2):
        q, dual = pauli_quorum()
        assert discrete_exact_value(np.eye(2), q, dual, coherent2) == pytest.approx(1, abs=1e-12)

    def test_sz_eigenstate_exact(self, spin_half):
        q, dual = pauli_quorum()
        val = discrete_exact_value(spin_half.sz, q, dual, basis_state(spin_half, 0.5))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_coherent_exact(self, spin_half, coherent2):
        q, dual = pauli_quorum()
        val = discrete_exact_value(spin_half.sz, q, dual, coherent2)
        assert val == pytest.approx(-np.cos(4) / 2, abs=1e-12)

    def test_identity_setting_contributes_without_samples(self, spin_half, coherent2):
        q, dual = pauli_quorum()
        stats = estimate_discrete(np.eye(2), q, dual, coherent2, 1000, seed=0)
        # only the identity carries weight for the identity target
        assert stats.mean == pytest.approx(1, abs=1e-12)
        assert stats.error_bar == 0.0

    def test_sampled_mean_near_exact(self, spin_half, coherent2):
        q, dual = pauli_quorum()
        stats = estimate_discrete(spin_half.sz, q, dual, coherent2, 30_000, seed=42)
        assert stats.n_samples == 90_000
        assert abs(stats.mean + np.cos(4) / 2) <= 4 * stats.error_bar
        assert stats.convention == "per_setting_quota"

    def test_uniform_selection_unbiased(self, spin_half, coherent2):
        q, dual = pauli_quorum()
        stats = estimate_discrete(
            spin_half.sz, q, dual, coherent2, 30_000, seed=42, selection="uniform"
        )
        assert abs(stats.mean + np.cos(4) / 2) <= 4 * stats.error_bar
        assert stats.convention == "uniform_setting"

    def test_deterministic(self, spin_half, coherent2):
        q, dual = pauli_quorum()
        runs = [
            estimate_discrete(spin_half.sz, q, dual, coherent2, 500, seed=9)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_rejects_non_hermitian_target(self, spin_half, coherent2):
        q, dual = pauli_quorum()
        with pytest.raises(NotHermitianError):
            estimate_discrete(np.array([[0, 1], [0, 0]]), q, dual, coherent2, 100)

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (1, 2, 2)], ids=["2x3", "1-d", "stack"])
    def test_rejects_target_of_wrong_shape(self, spin_half, coherent2, shape):
        q, dual = pauli_quorum()
        wq = weigert_quorum(spin_half, tetrahedral_directions())
        message = re.escape(f"operator must be a nonempty square matrix, got shape {shape}")
        a = np.zeros(shape)
        for call in (
            lambda: state_expectation(coherent2, a),
            lambda: estimate_discrete(a, q, dual, coherent2, 100),
            lambda: estimate_continuous(a, spin_half, coherent2, 100),
            lambda: estimate_weigert(a, wq, coherent2, 100),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    def test_rejects_misaligned_dual(self, spin_half, coherent2):
        q, dual = pauli_quorum()
        short = DualFrame.from_elements(list(dual.elements[:3]))
        with pytest.raises(DimensionMismatchError, match="^quorum and dual frame do not align$"):
            estimate_discrete(spin_half.sz, q, short, coherent2, 100)

    def test_rejects_unknown_selection(self, spin_half, coherent2):
        with pytest.raises(ValueError, match="^unknown selection convention 'x'$"):
            estimate_discrete(spin_half.sz, *pauli_quorum(), coherent2, 100, selection="x")

    @pytest.mark.parametrize(
        "state, error",
        [
            (np.diag([5.0, 7.0]), ValueError),
            (np.ones(3) / np.sqrt(3), DimensionMismatchError),
            (np.array([1.0, 1.0]), "norm"),
            (np.diag([1.5, -0.5]).astype(complex), "positive"),
            (np.diag([0.9, 0.2]).astype(complex), "trace"),
            (coherent_state(make_spin_system(2), 0.5), "^state dim 3 != operator dim 2$"),
            (np.eye(3) / 3, r"^density matrix shape \(3, 3\), expected \(2, 2\)$"),
        ],
    )
    def test_state_validated_without_sampled_settings(self, state, error):
        # the identity setting consumes no samples, so no Born row is built
        q = Quorum.from_elements([np.eye(2)])
        dual = DualFrame.from_elements([np.eye(2) / 2])
        # a string names the message of a ValueError
        error, match = (ValueError, error) if isinstance(error, str) else (error, None)
        with pytest.raises(error, match=match):
            estimate_discrete(np.eye(2), q, dual, state, 100)
        with pytest.raises(error, match=match):
            discrete_exact_value(np.eye(2), q, dual, state)

    @pytest.mark.parametrize("selection", ["quota", "uniform"])
    def test_exact_settings_spend_no_samples(self, coherent2, selection):
        # an all-exact quorum is a count table with no settings: every block
        # mean is the constant, and the quota must still fill the blocks
        q = Quorum.from_elements([np.eye(2)])
        dual = DualFrame.from_elements([np.eye(2) / 2])
        stats = estimate_discrete(0.7 * np.eye(2), q, dual, coherent2, 20, selection=selection)
        assert stats.n_samples == 0
        assert stats.block_means == (0.7,) * 20
        assert stats.mean == pytest.approx(0.7, abs=1e-15)
        with pytest.raises(ValueError, match="^samples_per_setting = 19 cannot fill 20 blocks$"):
            estimate_discrete(0.7 * np.eye(2), q, dual, coherent2, 19, selection=selection)

    def test_non_hermitian_setting_named(self, coherent2):
        q = Quorum.from_elements([SX, np.array([[0, 1], [0, 0]]), SZ], labels=["x", "bad", "z"])
        dual = DualFrame.from_elements([SX / 2, SX / 2, SZ / 2])
        with pytest.raises(NotHermitianError, match="quorum element 'bad'"):
            estimate_discrete(SZ, q, dual, coherent2, 100)

    def test_exact_probability_identity_random(self, spin_half, rng):
        q, dual = pauli_quorum()
        for _ in range(20):
            a = random_hermitian(2, rng)
            rho = random_density(2, rng)
            val = discrete_exact_value(a, q, dual, rho)
            assert val == pytest.approx(np.trace(rho @ a).real, abs=1e-10)


class TestContinuousKernel:
    def test_identity_kernel_is_one(self, spin_half):
        for m in (-0.5, 0.5):
            for n in random_directions(4, seed=1):
                assert continuous_kernel(np.eye(2), spin_half, m, n) == pytest.approx(1, abs=1e-12)

    def test_sz_closed_form(self, spin_half):
        for theta in (0.2, 1.1, 2.5):
            n = Direction(theta, 0.8)
            plus = continuous_kernel(spin_half.sz, spin_half, 0.5, n)
            minus = continuous_kernel(spin_half.sz, spin_half, -0.5, n)
            assert plus == pytest.approx(1.5 * np.cos(theta), abs=1e-12)
            assert minus == pytest.approx(-1.5 * np.cos(theta), abs=1e-12)

    @pytest.mark.parametrize("two_s", [1, 2, 3])
    def test_matches_quadrature_oracle(self, two_s, rng):
        sys_ = make_spin_system(two_s)
        for n in random_directions(3, seed=two_s):
            a = random_hermitian(sys_.dim, rng)
            for i in range(sys_.dim):
                m = i - sys_.s
                got = continuous_kernel(a, sys_, m, n)
                want = psi_quadrature_kernel(a, sys_, m, n)
                assert got == pytest.approx(want, abs=1e-8)

    def test_m_out_of_range(self, spin_half):
        with pytest.raises(ValueError, match="not an eigenvalue"):
            continuous_kernel(np.eye(2), spin_half, 1.5, Direction(0.3, 0.0))


class TestContinuousEstimator:
    def test_identity_has_zero_variance(self, spin_half, coherent2):
        stats = estimate_continuous(np.eye(2), spin_half, coherent2, 400, seed=5)
        assert stats.mean == pytest.approx(1, abs=1e-12)
        assert stats.error_bar <= 1e-14

    def test_eigenstate_converges(self, spin_half):
        stats = estimate_continuous(
            spin_half.sz, spin_half, basis_state(spin_half, 0.5), 100_000, seed=42
        )
        assert abs(stats.mean - 0.5) <= 3 * stats.error_bar

    def test_coherent_converges(self, spin_half, coherent2):
        stats = estimate_continuous(spin_half.sz, spin_half, coherent2, 100_000, seed=42)
        assert abs(stats.mean + np.cos(4) / 2) <= 3 * stats.error_bar

    def test_exact_value_identity(self, spin_half, rng):
        for two_s in (1, 2):
            sys_ = make_spin_system(two_s)
            for _ in range(10):
                a = random_hermitian(sys_.dim, rng)
                rho = random_density(sys_.dim, rng)
                val = continuous_exact_value(a, sys_, rho)
                assert val == pytest.approx(np.trace(rho @ a).real, abs=1e-10)

    def test_unbiased_over_ensemble(self, spin_half, coherent2):
        exact = state_expectation(coherent2, spin_half.sz).real
        means = np.array(
            [
                estimate_continuous(spin_half.sz, spin_half, coherent2, 10_000, seed=s).mean
                for s in range(200)
            ]
        )
        ensemble_err = means.std(ddof=1) / np.sqrt(means.size)
        assert abs(means.mean() - exact) <= 4 * ensemble_err

    def test_error_bar_scaling(self, spin_half, coherent2):
        errs = {
            n: estimate_continuous(spin_half.sz, spin_half, coherent2, n, seed=42).error_bar
            for n in (10**3, 10**4, 10**5)
        }
        for n1, n2 in ((10**3, 10**4), (10**4, 10**5)):
            factor = (errs[n1] / errs[n2]) / np.sqrt(n2 / n1)
            assert 1 / 1.5 <= factor <= 1.5

    def test_deterministic(self, spin_half, coherent2):
        runs = [
            estimate_continuous(spin_half.sz, spin_half, coherent2, 2_000, seed=11)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_density_matrix_state(self, rng):
        sys_ = make_spin_system(2)
        rho = random_density(3, rng)
        a = random_hermitian(3, rng)
        exact = np.trace(rho @ a).real
        stats = estimate_continuous(a, sys_, rho, 40_000, seed=42)
        assert abs(stats.mean - exact) <= 4 * stats.error_bar

    def test_budget_validated(self, spin_half, coherent2):
        with pytest.raises(ValueError, match="blocks"):
            estimate_continuous(spin_half.sz, spin_half, coherent2, 10, n_blocks=20)

    def test_largest_dimension(self, rng):
        # d = 64: one row of 566,016 (node, outcome) cells
        sys_ = make_spin_system(63)
        rho = random_density(64, rng)
        a = random_hermitian(64, rng)
        table = estimator._continuous_table(a, sys_, rho)
        exact = np.trace(rho @ a).real
        assert table.exact() == pytest.approx(exact, abs=1e-12)
        stats = table.estimate(100_000, 20, seed=5)
        assert abs(stats.mean - exact) <= 4 * stats.error_bar


def _continuous_born_table(a, system, state):
    """The continuous quorum's pooled (node, outcome) row, built by eigh of S.n per node.

    Node f of the n_theta x n_phi grid has weight w_f = w_cos / (2 n_phi);
    cell (f, m) has probability w_f p[f, m], with p[f] the clipped and
    normalised Born row, and value K[f, m].  Returns the pooled (1, F d)
    probabilities and values, and w_f.
    """
    state = np.asarray(state, dtype=complex)
    rho = state if state.ndim == 2 else np.outer(state, state.conj())
    n_theta, n_phi = system.two_s + 4, 2 * system.two_s + 6
    cos_t, w_cos = np.polynomial.legendre.leggauss(n_theta)
    born, kernels, w_node = [], [], []
    for c, w in zip(cos_t, w_cos):
        sin_t = np.sqrt(1.0 - c**2)
        for phi in 2 * np.pi * np.arange(n_phi) / n_phi:
            _, v = np.linalg.eigh(system.spin_along(
                np.array([sin_t * np.cos(phi), sin_t * np.sin(phi), c])))
            p = np.clip(np.einsum("ik,ij,jk->k", v.conj(), rho, v).real, 0.0, 1.0)
            born.append(p / p.sum())
            diag = np.pad(np.einsum("ik,ij,jk->k", v.conj(), a, v).real, 1)
            kernels.append(system.dim * (diag[1:-1] - 0.5 * diag[2:] - 0.5 * diag[:-2]))
            w_node.append(w / (2 * n_phi))
    w_node = np.array(w_node)
    probs = w_node[:, None] * np.array(born)
    return probs.reshape(1, -1), np.array(kernels).reshape(1, -1), w_node


def _pure_and_mixed(system, rng):
    return {
        "pure": coherent_state(system, 0.8 - 0.4j).amplitudes,
        "mixed": random_density(system.dim, rng),
    }


class TestContinuousEulerRoute:
    @pytest.mark.parametrize("two_s", [1, 2, 7, 15])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_block_means_match_eigh_reference(self, two_s, kind, rng):
        # the same per-block draws from a table built by eigh at every node.
        # The states are generic: on the counts route a cell of zero
        # probability draws no random number, so a Born probability at
        # roundoff level (as a coherent state has) would be 0 on one table
        # and not on the other.
        sys_ = make_spin_system(two_s)
        a = random_hermitian(sys_.dim, rng)
        psi = rng.normal(size=sys_.dim) + 1j * rng.normal(size=sys_.dim)
        state = psi / np.linalg.norm(psi) if kind == "pure" else random_density(sys_.dim, rng)
        n = 4000 if sys_.dim <= 8 else 1000
        stats = estimate_continuous(a, sys_, state, n, seed=17 + two_s)
        probs, values, _ = _continuous_born_table(a, sys_, state)
        sizes = np.array([n // 20] * 20)
        sums = estimator._block_sums(probs, values, sizes, 17 + two_s)
        ref = [total / nb for nb, total in zip(sizes, sums)]
        tol = 1e-12 * (1 + np.linalg.norm(a, 2))
        assert np.abs(np.array(stats.block_means) - ref).max() <= tol

    @pytest.mark.parametrize("two_s", [1, 2, 7, 15])
    def test_born_probabilities_match_eigh(self, two_s, rng):
        # Born rows and kernel rows of every grid node, with the Euler ring
        # build against a plain eigh of S.n
        sys_ = make_spin_system(two_s)
        a = random_hermitian(sys_.dim, rng)
        for state in _pure_and_mixed(sys_, rng).values():
            table = estimator._continuous_table(a, sys_, state)
            probs, values, constant = table.probs, table.values, table.constant
            want_probs, want_values, w_node = _continuous_born_table(a, sys_, state)
            assert constant == 0.0 and probs.shape == want_probs.shape == values.shape
            born = (probs / np.repeat(w_node, sys_.dim)).reshape(-1, sys_.dim)
            want_born = (want_probs / np.repeat(w_node, sys_.dim)).reshape(-1, sys_.dim)
            assert np.abs(born - want_born).max() <= 1e-12
            assert np.abs(values - want_values).max() <= 1e-12 * (1 + np.linalg.norm(a, 2))

    def test_budget_below_nodes_times_blocks(self, rng):
        # grid nodes are drawn, not given quotas, so a d = 16 budget below
        # nodes x n_blocks still fills the blocks
        sys_ = make_spin_system(15)
        state = coherent_state(sys_, 0.8 - 0.4j)
        a = random_hermitian(16, rng)
        nodes = estimator._continuous_table(a, sys_, state).probs.size // 16
        assert 10_000 < nodes * 20
        stats = estimate_continuous(a, sys_, state, 10_000, seed=8)
        assert stats.n_samples == 10_000 and stats.convention == "grid_direction"
        assert abs(stats.mean - state_expectation(state, a).real) <= 4 * stats.error_bar

    @pytest.mark.parametrize("two_s", [15, 31])
    def test_exact_value_identity_large_spin(self, two_s, rng):
        sys_ = make_spin_system(two_s)
        a = random_hermitian(sys_.dim, rng)
        for state in _pure_and_mixed(sys_, rng).values():
            dm = np.outer(state, state.conj()) if state.ndim == 1 else state
            val = continuous_exact_value(a, sys_, state)
            assert val == pytest.approx(np.trace(dm @ a).real, abs=1e-10)

    def test_exact_value_dimension_checked(self):
        sys_ = make_spin_system(2)
        with pytest.raises(DimensionMismatchError):
            continuous_exact_value(np.eye(2), sys_, coherent_state(sys_, 0.3))

    def test_peak_memory_independent_of_budget(self, rng):
        sys_ = make_spin_system(7)
        rho = random_density(8, rng)
        a = random_hermitian(8, rng)
        peaks = []
        for n in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                estimate_continuous(a, sys_, rho, n, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_shot_route_peak_memory(self, rng):
        # the most shots a block draws one by one against the fewest it counts
        sys_ = make_spin_system(15)
        state = coherent_state(sys_, 0.8 - 0.4j)
        a = random_hermitian(16, rng)
        probs = estimator._continuous_table(a, sys_, state).probs
        sizes = np.array([_most_shots(probs), _most_shots(probs) + 1])
        assert estimator._by_shots(sizes, probs).tolist() == [True, False]
        peaks = []
        for nb in sizes:
            tracemalloc.start()
            try:
                estimate_continuous(a, sys_, state, 20 * nb, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.5 * peaks[1]

    def test_peak_memory_at_largest_dimension(self, rng):
        sys_ = make_spin_system(31)
        rho = random_density(32, rng)
        a = random_hermitian(32, rng)
        tracemalloc.start()
        try:
            estimate_continuous(a, sys_, rho, 100_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6


class TestWeigertEstimator:
    def test_exact_identity_spin_half(self, spin_half, rng):
        wq = weigert_quorum(spin_half, tetrahedral_directions())
        for _ in range(20):
            a = random_hermitian(2, rng)
            rho = random_density(2, rng)
            val = weigert_exact_value(a, wq, rho)
            assert val == pytest.approx(np.trace(rho @ a).real, abs=1e-10)

    def test_exact_identity_spin_one(self, rng):
        sys_ = make_spin_system(2)
        wq = weigert_quorum(sys_, random_directions(9, seed=23))
        for _ in range(10):
            a = random_hermitian(3, rng)
            rho = random_density(3, rng)
            val = weigert_exact_value(a, wq, rho)
            assert val == pytest.approx(np.trace(rho @ a).real, abs=1e-10)

    def test_sampled_mean_near_exact(self, spin_half, coherent2):
        wq = weigert_quorum(spin_half, tetrahedral_directions())
        stats = estimate_weigert(spin_half.sz, wq, coherent2, 25_000, seed=42)
        assert stats.n_samples == 100_000
        assert abs(stats.mean + np.cos(4) / 2) <= 4 * stats.error_bar
        assert stats.convention == "per_direction_quota"


def _discrete_born_table(a, q, dual, rho):
    """Born rows and outcome values of the sampled settings, built with plain numpy."""
    rows, values = [], []
    for c, b in zip(q.elements, dual.elements):
        w, v = np.linalg.eigh(c)
        if w.max() - w.min() < 1e-12:
            continue
        rows.append(np.einsum("im,ij,jm->m", v.conj(), rho, v).real)
        values.append(w * np.vdot(b, a).real)
    return np.array(rows), np.array(values)


def _weigert_born_table(a, wq, rho):
    top = np.array([np.trace(rho @ p).real for p in wq.projectors])
    coef = np.array([np.vdot(b, a).real for b in wq.dual.elements])
    return np.stack([top, 1 - top], axis=1), np.stack([coef, np.zeros_like(coef)], axis=1)


def _chi2_quantile(dof: int, z: float) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile at normal score z."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * np.sqrt(c)) ** 3


class TestCountSampler:
    """Block means drawn from multinomial outcome counts have the estimator's law."""

    SEEDS = range(500)
    PER_SETTING, N_BLOCKS = 2000, 20

    def _law_case(self, selection, per_setting):
        rng = np.random.default_rng(5)
        if selection == "weigert":
            wq = weigert_quorum(make_spin_system(2), random_directions(9, seed=23))
            a, rho = random_hermitian(3, rng), random_density(3, rng)
            probs, values = _weigert_born_table(a, wq, rho)
            run = partial(estimate_weigert, a, wq, rho, per_setting, n_blocks=self.N_BLOCKS)
        elif selection in ("continuous", "continuous-shots"):
            # one pooled (node, outcome) row: the uniform law with one setting
            sys_ = make_spin_system(2)
            a, rho = random_hermitian(3, rng), random_density(3, rng)
            probs, values, _ = _continuous_born_table(a, sys_, rho)
            run = partial(estimate_continuous, a, sys_, rho, per_setting, n_blocks=self.N_BLOCKS)
        else:
            q, dual = pauli_quorum()
            a, rho = random_hermitian(2, rng), random_density(2, rng)
            probs, values = _discrete_born_table(a, q, dual, rho)
            run = partial(
                estimate_discrete, a, q, dual, rho, per_setting,
                n_blocks=self.N_BLOCKS, selection=selection,
            )
        return run, probs, values, np.trace(rho @ a).real

    @pytest.mark.parametrize(
        "selection", ["quota", "uniform", "weigert", "continuous", "continuous-shots"]
    )
    def test_block_means_follow_born_law(self, selection):
        # "continuous-shots" spends 20 shots a block on the 180-cell row:
        # the shot route; every other case draws counts
        per_setting = 400 if selection == "continuous-shots" else self.PER_SETTING
        run, probs, values, exact = self._law_case(selection, per_setting)
        n_settings = probs.shape[0]
        if selection in ("uniform", "continuous", "continuous-shots"):
            nb = per_setting * n_settings // self.N_BLOCKS
            shot_var = n_settings * np.sum(probs * values**2) - np.sum(probs * values) ** 2
        else:
            nb = per_setting // self.N_BLOCKS
            first = np.sum(probs * values, axis=1)
            shot_var = np.sum(np.sum(probs * values**2, axis=1) - first**2)
        if selection.startswith("continuous"):
            by_shots = estimator._by_shots(np.array([nb]), probs)[0]
            assert by_shots == (selection == "continuous-shots")
        predicted = shot_var / nb
        means = np.concatenate([run(seed=seed).block_means for seed in self.SEEDS])
        assert abs(means.mean() - exact) <= 5 * np.sqrt(predicted / means.size)
        dof = means.size - 1
        ratio = dof * means.var(ddof=1) / predicted
        assert _chi2_quantile(dof, -5.0) <= ratio <= _chi2_quantile(dof, 5.0)

    @pytest.mark.parametrize("selection", ["quota", "uniform"])
    def test_peak_memory_independent_of_budget(self, spin_half, coherent2, selection):
        q, dual = pauli_quorum()
        peaks = []
        for n in (10**5, 10**9):
            tracemalloc.start()
            try:
                estimate_discrete(spin_half.sz, q, dual, coherent2, n, seed=3, selection=selection)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    @pytest.mark.parametrize("selection", ["quota", "uniform", "weigert", "continuous"])
    def test_block_counts_spend_the_block(self, spin_half, coherent2, selection, monkeypatch):
        calls = []
        draw = estimator._block_sums

        def recording(probs, values, sizes, seed):
            sums = list(draw(probs, values, sizes, seed))
            calls.append((probs, values, sizes, seed, sums))
            yield from sums

        monkeypatch.setattr(estimator, "_block_sums", recording)
        per_setting = 1003  # not a multiple of n_blocks: blocks differ in size
        if selection == "weigert":
            wq = weigert_quorum(spin_half, tetrahedral_directions())
            stats = estimate_weigert(spin_half.sz, wq, coherent2, per_setting, seed=4)
            shape, budget = (4, 2), per_setting
        elif selection == "continuous":
            # one pooled row of (grid node, outcome) cells on the 5 x 8 grid:
            # blocks of 11 shots draw them one by one, blocks of 12 draw counts
            per_setting = 223
            stats = estimate_continuous(spin_half.sz, spin_half, coherent2, per_setting, seed=4)
            shape, budget = (1, 5 * 8 * 2), per_setting
        else:
            q, dual = pauli_quorum()
            stats = estimate_discrete(
                spin_half.sz, q, dual, coherent2, per_setting, seed=4, selection=selection
            )
            # a uniform block spends its shots on one pooled (setting, outcome) row
            shape, budget = (3, 2), per_setting
            if selection == "uniform":
                shape, budget = (1, 6), 3 * per_setting
        [(probs, values, sizes, seed, sums)] = calls
        if selection == "continuous":
            assert set(estimator._by_shots(sizes, probs)) == {False, True}
        assert len(sizes) == stats.n_blocks
        assert sum(sizes) == budget
        for nb, counts, total in zip(sizes, _drawn_counts(probs, sizes, seed), sums):
            assert counts.shape == shape
            assert counts.min() >= 0
            assert np.all(counts.sum(axis=1) == nb)
            assert total == pytest.approx(np.sum(counts * values), rel=1e-12, abs=1e-12)


class _FixedUniforms:
    """Stand-in generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


class TestShotRoute:
    """Blocks whose shots take fewer steps than their counts draw the shots by inverse transform."""

    def test_table_implies_the_cell_probabilities(self, rng, monkeypatch):
        # the shot route divides its cumsum in place: the recorded array is
        # the table of cumulative rows that it searches
        tables = []
        cumsum = np.cumsum

        def recording(*args, **kwargs):
            tables.append(cumsum(*args, **kwargs))
            return tables[-1]

        sys_ = make_spin_system(15)
        a = random_hermitian(16, rng)
        cases = [estimator._continuous_table(a, sys_, state).probs
                 for state in _pure_and_mixed(sys_, rng).values()]
        # many rows: each row is its own table
        wq = weigert_quorum(make_spin_system(2), random_directions(9, seed=23))
        cases.append(
            estimator._weigert_table(random_hermitian(3, rng), wq, random_density(3, rng)).probs
        )
        monkeypatch.setattr(np, "cumsum", recording)
        for probs in cases:
            tables.clear()
            list(estimator._block_sums(probs, np.zeros_like(probs), np.array([1, 1]), 5))
            [table] = tables
            assert table[:, -1].tolist() == [1.0] * len(probs)
            implied = np.diff(table, prepend=0.0)
            assert np.abs(implied - probs).max() <= 2 * np.finfo(float).eps

    def test_zero_probability_cells_never_drawn(self, rng):
        probs = np.array([[0.0, 0.2, 0.0, 0.3, 0.5, 0.0],
                          [0.4, 0.0, 0.0, 0.0, 0.0, 0.6],
                          [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
        sizes = np.array([1] * 200)
        assert estimator._by_shots(sizes, probs).all()
        counts = _drawn_counts(probs, sizes, 9)
        assert counts[:, probs == 0].max() == 0
        assert np.all(counts.sum(axis=2) == 1)
        # the coherent d = 16 table holds cells of probability exactly 0
        sys_ = make_spin_system(15)
        state = coherent_state(sys_, 0.8 - 0.4j)
        probs = estimator._continuous_table(random_hermitian(16, rng), sys_, state).probs
        zero = (probs == 0).astype(float)
        assert zero.sum() > 0
        sums = estimator._block_sums(probs, zero, np.array([_most_shots(probs)] * 20), 2)
        assert all(total == 0.0 for total in sums)

    @pytest.mark.parametrize(
        "u, cell", [(0.0, "first"), (1.0 - 2.0**-53, "last")], ids=["first", "last"]
    )
    def test_extreme_uniform_stays_in_its_row(self, u, cell, monkeypatch):
        # each row's cumulative row ends at exactly 1.0, so the largest u
        # below 1 lands on the row's last cell of nonzero probability
        probs = np.array([[0.0, 0.5, 0.5, 0.0, 0, 0, 0, 0],
                          [0.25, 0.0, 0.75, 0.0, 0, 0, 0, 0],
                          [0.0, 0.0, 1.0, 0.0, 0, 0, 0, 0],
                          [0.0, 0.7, 0.0, 0.3, 0, 0, 0, 0]])
        sizes = np.array([1, 1])
        assert estimator._by_shots(sizes, probs).all()
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedUniforms(u))
        counts = _drawn_counts(probs, sizes, 0)
        nonzero = [np.flatnonzero(row) for row in probs]
        want = np.zeros(probs.shape, dtype=int)
        for k, idx in enumerate(nonzero):
            want[k, idx[0] if cell == "first" else idx[-1]] = 1
        assert np.array_equal(counts, [want, want])


class TestDrawGrouping:
    """One generator per estimate: blocks drawn several to a call keep their bits."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize(
        "sizes, shots",
        [([40] * 7, [False] * 7), ([1] * 7, [True] * 7),
         ([17, 16, 16, 1], [False, False, False, True])],
        ids=["counts", "shots", "mixed"],
    )
    def test_sums_do_not_depend_on_the_cap(self, rows, sizes, shots, rng, monkeypatch):
        probs = rng.random((rows, 64))
        probs[:, ::5] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        values = rng.normal(size=probs.shape)
        sizes = np.array(sizes)
        assert estimator._by_shots(sizes, probs).tolist() == shots
        sums = []
        for cap in (1, estimator._CELLS):  # one block per call, then the default
            monkeypatch.setattr(estimator, "_CELLS", cap)
            sums.append(estimator._block_sums(probs, values, sizes, 8).tolist())
        assert sums[0] == sums[1]

    def test_peak_memory_independent_of_n_blocks(self, rng):
        # the d = 32 continuous table is one row of 76,160 cells, more than
        # a quarter of the cap: blocks of counts are drawn three to a call
        sys_ = make_spin_system(31)
        table = estimator._continuous_table(random_hermitian(32, rng), sys_, random_density(32, rng))
        assert table.probs.shape == (1, 76_160)
        peaks = []
        for n_blocks in (20, 200):
            assert not estimator._by_shots(estimator._blocks(10**6, n_blocks, "n"), table.probs).any()
            tracemalloc.start()
            try:
                table.estimate(10**6, n_blocks, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestShotRouteBitIdentical:
    """Blocks that draw shots keep their inverse-transform draw.

    The block means below were recorded with every block on the shot route
    of a one-row table, drawn from one generator per estimate; a change to
    the route must not move them by a bit.
    """

    def test_continuous_d16(self):
        sys_ = make_spin_system(15)
        state = coherent_state(sys_, 0.4 + 0.3j)
        a = sys_.sz @ sys_.sz + sys_.sx
        probs = estimator._continuous_table(a, sys_, state).probs
        assert estimator._by_shots(estimator._blocks(10_000, 20, "n"), probs).all()
        stats = estimate_continuous(a, sys_, state, 10_000, n_blocks=20, seed=7)
        assert stats.block_means == (
            21.246154038215526, 17.856535205235133, 21.60532855651285, 28.09975089510646,
            22.022764120123288, 20.326136725877937, 22.8268200862172, 13.957831286339724,
            25.233860460392354, 24.37830267148551, 20.16773163919123, 26.582828282148977,
            18.029451063532886, 23.19991840378864, 23.863748114598362, 22.747386947806998,
            26.633432452112256, 20.7274195787212, 22.366156018762776, 26.102700034222643,
        )

    def test_uniform_d16(self):
        # 256 settings of 16 outcomes pool into one row of 4,096 cells;
        # 20 samples per setting make 20 blocks of 256 shots
        q = random_quorum(16, 256, seed=11)
        dual = dual_via_gram_schmidt(q)
        rng = np.random.default_rng(5)
        rho = random_density(16, rng)
        a = random_hermitian(16, rng)
        assert estimator._by_shots(np.array([256]), np.zeros((1, 4096))).all()
        stats = estimate_discrete(a, q, dual, rho, 20, n_blocks=20, seed=3, selection="uniform")
        assert stats.block_means == (
            132.22693440962985, 166.4115247109318, 253.8389545904265, 127.56788661826259,
            99.10433607933841, 85.18975058744842, -52.36304820577692, -103.17321818255246,
            -164.38677908582366, 279.51442224192203, -93.62281671095268, 118.46030685972855,
            108.61694540348574, -138.88031889628058, -105.09133001464124, -160.9267777197614,
            -84.17689416899714, -33.40875731122296, 187.72076326522918, -374.76347780404035,
        )


class TestCountsRouteBitIdentical:
    """Blocks that draw counts keep the multinomial count draw.

    The block means below were recorded when every block took the count
    draw, from one generator per estimate; the shot route must not move
    them by a bit.
    """

    def test_pauli(self, spin_half):
        q, dual = pauli_quorum()
        a = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.7]])
        state = coherent_state(spin_half, 0.3 + 0.2j)
        stats = estimate_discrete(a, q, dual, state, 1003, n_blocks=5, seed=4)
        assert stats.block_means == (
            0.2796019900497513, 0.2756218905472637, 0.30746268656716425, 0.281,
            0.32300000000000006,
        )

    def test_weigert_d8(self):
        sys_ = make_spin_system(7)
        wq = weigert_quorum(sys_, random_directions(64, 1))
        state = coherent_state(sys_, 0.6 - 0.3j)
        a = sys_.sz @ sys_.sz + sys_.sx
        stats = estimate_weigert(a, wq, state, 1003, n_blocks=5, seed=4)
        assert stats.block_means == (
            42.498654106953374, -24.577533100237503, 23.1612086966586, 115.41396060346032,
            5.720601281732907,
        )
