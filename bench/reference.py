"""Reference computations made apart from spintomo, with plain numpy.

Nothing here imports the package: the benchmark checks the program's outputs
against these values.  Conventions follow the package's documented ones
(S_z eigenbasis ordered m = -s ... +s, operators as d x d complex arrays,
quorum coefficient matrix with the flattened elements as columns).
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
# Safety factor in every roundoff bound below.
ROUNDOFF_FACTOR = 10.0
# An estimate passes when it lies within this many blocked error bars of the
# exact mean.  The t distribution with 19 degrees of freedom (20 blocks) puts
# about 6e-9 of its mass beyond 10.
Z_MULTIPLE = 10.0


def expectation(state, a: np.ndarray) -> float:
    """Tr[rho a] for a pure state vector or a density matrix."""
    state = np.asarray(state, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if state.ndim == 1:
        return float(np.real(np.vdot(state, a @ state)))
    return float(np.real(np.sum(state.T * a)))


def coherent_amplitudes(two_s: int, alpha: complex) -> np.ndarray:
    """Spin coherent state exp(alpha S+ - conj(alpha) S-)|m = -s> in closed form.

    c_m = sqrt(binom(2s, s+m)) cos|alpha|^(s-m) (e^{i arg alpha} sin|alpha|)^(s+m).
    """
    r = abs(alpha)
    phase = alpha / r if r > 0 else 1.0
    k = np.arange(two_s + 1)  # k = s + m
    binom = np.array([math.comb(two_s, int(j)) for j in k], dtype=float)
    return np.sqrt(binom) * np.cos(r) ** (two_s - k) * (phase * np.sin(r)) ** k


def coherent_sz(two_s: int, alpha: complex) -> float:
    """<S_z> on the coherent state: -s cos 2|alpha|."""
    return -0.5 * two_s * math.cos(2 * abs(alpha))


def spin_matrices(two_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_x, S_y, S_z) from the ladder elements sqrt(s(s+1) - m(m+1))."""
    s = two_s / 2
    m = np.arange(two_s + 1) - s
    up = np.diag(np.sqrt(s * (s + 1) - m[:-1] * (m[:-1] + 1)), -1).astype(complex)
    return (up + up.conj().T) / 2, (up - up.conj().T) / 2j, np.diag(m).astype(complex)


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank mixed state m m^dag / Tr, m complex Gaussian."""
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def as_matrix(pairs, d: int) -> np.ndarray:
    """Operator from the file format's row-major list of [re, im] pairs."""
    arr = np.asarray(pairs, dtype=float)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(d, d)


def columns(ops) -> np.ndarray:
    """d^2 x N matrix whose columns are the row-major flattened operators."""
    return np.stack([np.asarray(op, dtype=complex).reshape(-1) for op in ops], axis=1)


def pinv_dual(quorum_ops) -> np.ndarray:
    """Reference dual (X^+)^H, columns vec(B_n), from numpy's SVD-based pinv.

    For linearly independent columns X this is the unique dual in their span:
    B^H X = 1.
    """
    return np.linalg.pinv(columns(quorum_ops)).conj().T


def rank(quorum_ops) -> int:
    return int(np.linalg.matrix_rank(columns(quorum_ops)))


def condition(quorum_ops) -> float:
    """2-norm condition number of the coefficient matrix (nonzero singular values)."""
    sigma = np.linalg.svd(columns(quorum_ops), compute_uv=False)
    sigma = sigma[sigma > sigma[0] * sigma.size * EPS]
    return float(sigma[0] / sigma[-1])


def duality_residual(dual_cols: np.ndarray, quorum_cols: np.ndarray) -> float:
    """max |Tr[B_n^dag C_m] - delta_nm|."""
    delta = dual_cols.conj().T @ quorum_cols
    return float(np.abs(delta - np.eye(delta.shape[0])).max())


def relative_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def roundoff_bound(n: int, kappa: float) -> float:
    """Relative roundoff bound for an n-element dual built at condition kappa.

    kappa is the condition number of the matrix the construction inverts:
    cond(C) for the Gram-Schmidt sweep and cond(C)^2 = cond(G) for the Gram
    route, whose error grows with the square.
    """
    return ROUNDOFF_FACTOR * n * kappa * EPS


def within_error_bars(mean: float, error_bar: float, exact: float) -> bool:
    """Estimate agrees with the exact mean within Z_MULTIPLE blocked error bars."""
    return abs(mean - exact) <= Z_MULTIPLE * error_bar + 1e-12 * (1.0 + abs(exact))


def log_budgets(n_max: int, count: int = 20, start: int = 100) -> list[int]:
    """Log-spaced integer budgets from ``start`` to ``n_max`` (fig1's checkpoints)."""
    if n_max <= start:
        return [int(n_max)]
    vals = sorted({int(round(v)) for v in np.geomspace(start, n_max, count)})
    vals[-1] = int(n_max)
    return vals
