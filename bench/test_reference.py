"""Tests of the benchmark's reference computations (run: python3 -m pytest bench).

The references must be right on their own, without the package: the pinv
dual satisfies Tr[B_n^dag C_m] = delta_nm, matrix_rank sees a dependent
element, and the coherent-state closed form agrees with a plain numpy
expectation value.
"""

import math

import numpy as np
import pytest

import reference as ref


@pytest.mark.parametrize("two_s", [1, 2, 7, 15])
@pytest.mark.parametrize("alpha", [0.4, 0.9 + 0.3j, -1.1j])
def test_coherent_closed_form_matches_numpy(two_s, alpha):
    psi = ref.coherent_amplitudes(two_s, alpha)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    _, _, sz = ref.spin_matrices(two_s)
    assert ref.expectation(psi, sz) == pytest.approx(ref.coherent_sz(two_s, alpha), abs=1e-13)
    rho = np.outer(psi, psi.conj())
    assert ref.expectation(rho, sz) == pytest.approx(ref.coherent_sz(two_s, alpha), abs=1e-13)


@pytest.mark.parametrize("two_s", [1, 4, 9])
def test_spin_matrices_algebra(two_s):
    sx, sy, sz = ref.spin_matrices(two_s)
    s = two_s / 2
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    assert np.allclose(sx @ sx + sy @ sy + sz @ sz, s * (s + 1) * np.eye(two_s + 1), atol=1e-12)


def test_coherent_state_is_rotated_lowest_weight():
    # exp(alpha S+ - conj(alpha) S-)|-s> by a plain eigendecomposition.
    two_s, alpha = 3, 0.7 * np.exp(0.4j)
    sx, sy, _ = ref.spin_matrices(two_s)
    s_plus = sx + 1j * sy
    gen = alpha * s_plus - np.conj(alpha) * s_plus.conj().T  # anti-Hermitian
    w, v = np.linalg.eigh(1j * gen)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    assert np.allclose(u[:, 0], ref.coherent_amplitudes(two_s, alpha), atol=1e-12)


@pytest.mark.parametrize("n_elements", [16, 15])
def test_pinv_dual_is_dual(n_elements):
    rng = np.random.default_rng(3)
    ops = [ref.random_hermitian(4, rng) for _ in range(n_elements)]
    dual = ref.pinv_dual(ops)
    assert ref.duality_residual(dual, ref.columns(ops)) < 1e-12
    assert ref.rank(ops) == n_elements


def test_rank_sees_a_dependent_element():
    rng = np.random.default_rng(4)
    ops = [ref.random_hermitian(3, rng) for _ in range(9)]
    ops.append(0.5 * ops[2] - 2.0 * ops[7])
    assert ref.rank(ops) == 9
    # Without element 8 the combination adds nothing: rank drops to 8.
    assert ref.rank(ops[:8] + ops[9:]) == 8


def test_density_is_a_state():
    rho = ref.random_density(6, np.random.default_rng(5))
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.allclose(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() > 0


def test_log_budgets():
    budgets = ref.log_budgets(300_000)
    assert budgets[0] == 100 and budgets[-1] == 300_000
    assert budgets == sorted(set(budgets)) and len(budgets) == 20
    assert all(math.isclose(b, 100 * 3000 ** (k / 19), rel_tol=1e-2) for k, b in enumerate(budgets))
