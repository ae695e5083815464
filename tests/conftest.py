"""Shared helpers: seeded operator generators and independent test oracles."""

import numpy as np
import pytest

from spintomo import Quorum, random_hermitian, random_operator

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def random_quorum(dim: int, count: int, seed: int, hermitian: bool = True) -> Quorum:
    rng = np.random.default_rng(seed)
    draw = random_hermitian if hermitian else random_operator
    return Quorum.from_elements([draw(dim, rng) for _ in range(count)])


def psi_quadrature_kernel(a, system, m, direction, n_psi=512):
    """Outcome-kernel oracle by direct quadrature over the rotation angle.

    Integrates (2s+1)/pi * sin^2(psi/2) Tr[a exp(-i psi (S.n - m))] with a
    uniform periodic rule, never using the closed-form reduction under test.
    """
    h = system.spin_along(direction)
    w, v = np.linalg.eigh(h)
    psis = 2 * np.pi * np.arange(n_psi) / n_psi
    total = 0.0 + 0.0j
    for psi in psis:
        u = (v * np.exp(-1j * psi * (w - m))) @ v.conj().T
        total += np.sin(psi / 2) ** 2 * np.trace(a @ u)
    total *= 2 * np.pi / n_psi
    assert abs(total.imag) < 1e-9
    return (system.dim / np.pi) * total.real


def rodrigues_rotate(vector, axis, angle):
    """Rotate a 3-vector about a unit axis (right-hand rule)."""
    v = np.asarray(vector, dtype=float)
    u = np.asarray(axis, dtype=float)
    return (
        v * np.cos(angle)
        + np.cross(u, v) * np.sin(angle)
        + u * (u @ v) * (1 - np.cos(angle))
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def svd_calls(monkeypatch):
    """List that gains one entry per ``np.linalg.svd`` call made during the test."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls
