"""Operator algebra on the space of d x d complex matrices.

Operators are plain complex ndarrays.  This module equips them with the
Hilbert-Schmidt inner product Tr[A^dag B], the induced norm, a Hermitian
eigen-solver with a reproducible phase convention, the Hermitian matrix
exponential, and the frame super-operator used to test operator frames.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Hermiticity is accepted when max|H - H^dag| <= atol + rtol * max|H|.
HERMITIAN_ATOL = 1e-10
HERMITIAN_RTOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operands live in operator spaces of different dimension."""


class NotHermitianError(ValueError):
    """A Hermitian matrix was required."""


def as_operator(entries) -> np.ndarray:
    """Coerce ``entries`` to a fresh nonempty square complex128 matrix."""
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"operator must be a nonempty square matrix, got shape {a.shape}")
    return a


def _operator_stack(entries) -> np.ndarray:
    """Coerce ``entries`` to a fresh (N, d, d) complex128 stack with N, d >= 1."""
    if len(entries) == 0:
        raise ValueError("a frame needs at least one element")
    try:
        a = np.array(entries, dtype=complex)
    except ValueError as err:
        raise DimensionMismatchError("frame elements have mixed dimensions") from err
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] == 0:
        raise DimensionMismatchError(
            f"frame elements must be nonempty square matrices of one shape, got {a.shape}"
        )
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """Read-only copy of ``a`` with its dtype kept."""
    out = np.array(a)
    out.setflags(write=False)
    return out


def require_same_dim(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"incompatible operator spaces: shapes {a.shape} and {b.shape}"
        )
    return a.shape[0]


def require_hermitian(a: np.ndarray, what: str | Sequence[str] = "operator") -> np.ndarray:
    """Return ``a`` if it is Hermitian, else raise ``NotHermitianError``.

    ``a`` may be a stack (..., d, d); the error then names the first matrix
    that fails, as ``what[k]`` when ``what`` is a sequence of names.
    """
    defect = np.abs(a - np.conj(np.swapaxes(a, -1, -2))).max(axis=(-2, -1))
    ok = defect <= HERMITIAN_ATOL + HERMITIAN_RTOL * np.abs(a).max(axis=(-2, -1))
    if not np.all(ok):
        k = int(np.argmin(np.reshape(ok, -1)))
        name = what if isinstance(what, str) else what[k]
        raise NotHermitianError(
            f"{name} is not Hermitian: max|A - A^dag| = {np.reshape(defect, -1)[k]:.3e}"
        )
    return a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt scalar product Tr[a^dag b].

    Conjugate-symmetric: ``hs_inner(a, b) == conj(hs_inner(b, a))``.
    """
    require_same_dim(a, b)
    # vdot flattens row-major and conjugates the first argument,
    # which is exactly sum_ij conj(a_ij) b_ij = Tr[a^dag b].
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt norm sqrt(Tr[a^dag a]); zero iff a == 0."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decompose a Hermitian matrix with a canonical phase convention.

    ``h`` may also be a stack (..., d, d) of Hermitian matrices, which are
    diagonalised in one batched call; each matrix gets the same result as
    it would alone.

    Returns
    -------
    eigenvalues : ndarray
        Real, ascending.
    eigenvectors : ndarray
        Orthonormal columns, column k belonging to eigenvalue k.  Each
        column is rotated so its largest-magnitude component is real and
        positive, making the decomposition reproducible across runs.
    """
    h = np.asarray(h, dtype=complex)
    require_hermitian(h)
    w, v = np.linalg.eigh(h)
    rows = np.argmax(np.abs(v), axis=-2)
    pivots = np.take_along_axis(v, rows[..., None, :], axis=-2)[..., 0, :]
    # A pivot of a unit column is never zero.  |p| is taken by hypot, which
    # rounds as the scalar abs(p) does; the array np.abs of a complex array
    # may differ from it in the last bit.
    factors = np.conj(pivots) / np.hypot(pivots.real, pivots.imag)
    return w, v * factors[..., None, :]


def op_exp(h: np.ndarray, phase: float) -> np.ndarray:
    """exp(i * phase * h) for Hermitian h, via eigendecomposition.

    Diagonalizing keeps the result unitary to roundoff, which a truncated
    series would not.
    """
    w, v = eig_hermitian(h)
    return (v * np.exp(1j * phase * w)) @ v.conj().T


def superop_from_frame(quorum, dual) -> np.ndarray:
    """Frame super-operator sum_n |C_n>(B_n| of two (N, d, d) stacks, as a d^2 x d^2 matrix.

    Entry at row (i, j), column (l, k) is sum_n C_n[i, j] * conj(B_n[l, k]),
    rows and columns flattened row-major.  The result equals the d^2
    identity exactly when (quorum, dual) is a spanning-set / dual pair.
    """
    if len(quorum) != len(dual):
        raise DimensionMismatchError(
            f"quorum has {len(quorum)} elements but dual has {len(dual)}"
        )
    c, b = _operator_stack(quorum), _operator_stack(dual)
    if c.shape != b.shape:
        raise DimensionMismatchError("frame elements have mixed dimensions")
    return c.reshape(len(c), -1).T @ b.reshape(len(b), -1).conj()


def random_operator(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Generic complex matrix with i.i.d. standard complex normal entries."""
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = random_operator(dim, rng)
    return (a + a.conj().T) / 2


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix (positive semidefinite, unit trace)."""
    m = random_operator(dim, rng)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real
