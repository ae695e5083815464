"""Spin-s operator algebra and the concrete spin quorums.

Everything is expressed in the S_z eigenbasis ordered m = -s ... +s, for
states and operators alike.  Three quorums are built here: the Pauli set
{sigma_x, sigma_y, sigma_z, 1} for spin 1/2, the continuous family of spin
components S.n over all directions (verified through the SU(2) group
orthogonality relation), and the Weigert set of (2s+1)^2 rank-1 projectors
onto maximal spin states along generic directions.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .frames import DualFrame, Quorum, SingularGramError, _gram_dual
from .liouville import _frozen, eig_hermitian, op_exp

# "Almost any" direction choice gives a complete Weigert set; in practice
# we accept it when the Gram matrix is this well conditioned.
WEIGERT_CONDITION_CAP = 1e10

# Most (ring, m, (j, r)) entries of the ring products that
# su2_orthogonality_residual stacks into one matrix product: bounds its
# memory whatever n_theta is.
_SU2_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Spin matrices for s = two_s / 2 in the m-ascending basis."""

    two_s: int
    dim: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    def spin_along(self, n: "Direction | np.ndarray") -> np.ndarray:
        """Spin component S.n for a unit direction."""
        v = n.unit_vector if isinstance(n, Direction) else np.asarray(n, dtype=float)
        return v[0] * self.sx + v[1] * self.sy + v[2] * self.sz

    def m_index(self, m: float) -> int:
        """Basis index of the eigenvalue m of a spin component, m = -s ... s."""
        idx = m + self.s
        if not (np.isfinite(idx) and abs(idx - round(idx)) <= 1e-9 and 0 <= round(idx) < self.dim):
            raise ValueError(f"m = {m} is not an eigenvalue of a spin-{self.s} component")
        return int(round(idx))

    @functools.cached_property
    def _sy_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """S_y = W diag(mu) W^dag, diagonalised once per system."""
        return eig_hermitian(self.sy)

    def rotated_basis(self, theta, phi) -> np.ndarray:
        """Rows R|m>, m ascending, of R = exp(-i phi S_z) exp(-i theta S_y): (F, d, d).

        R S_z R^dag = S.n for n = (sin theta cos phi, sin theta sin phi,
        cos theta), so row m is the eigenvector of S.n with eigenvalue m.
        A direction costs two diagonal phases and a d x d product with W^T.
        """
        mu, w = self._sy_eigensystem
        theta, phi = np.atleast_1d(theta), np.atleast_1d(phi)
        rows = w.conj()[None] * np.exp(-1j * theta[:, None, None] * mu)
        rows = (rows.reshape(-1, self.dim) @ w.T).reshape(rows.shape)
        return rows * np.exp(-1j * phi[:, None, None] * (np.arange(self.dim) - self.s))

    def diagonals(self, theta: np.ndarray, phi: np.ndarray, ops: np.ndarray) -> np.ndarray:
        """Re <R m|X|R m> for each X of ``ops`` (n, d, d) on the grid theta x phi.

        Returns (n, len(theta), len(phi), d).  On a ring of fixed theta, R|m>
        is c = exp(-i theta S_y)|m> with component k phased by exp(-i phi m_k),
        so <R m|X|R m> = sum_kl conj(c_k) X_kl c_l exp(i phi (k - l)) is a
        trigonometric polynomial in phi.  Its 2d - 1 coefficients are summed
        once per ring, O(d^3), and evaluated at every phi by one product.
        The coefficients are laid out [X, frequency, (ring, m)], so each
        product and sum runs over all rings at once, on contiguous rows.
        """
        d, n_ops = self.dim, len(ops)
        c = self.rotated_basis(theta, np.zeros_like(theta))  # [ring, m, k]
        c_k = np.ascontiguousarray(c.transpose(2, 0, 1)).reshape(d, -1)  # [k, (ring, m)]
        c_conj, c_rev = c_k.conj(), c_k[::-1]  # c_rev is [l = d-1 ... 0, (ring, m)]
        by_freq = np.zeros((n_ops, 2 * d - 1, c_k.shape[1]), dtype=complex)
        terms = np.empty((n_ops, d, c_k.shape[1]), dtype=complex)
        for k in range(d):
            # (conj(c_k) X_kl) c_l for l = d-1 ... 0, of frequency k - l at index k - l + d - 1
            np.multiply(c_conj[k], ops[:, k, ::-1, None], out=terms)
            terms *= c_rev
            by_freq[:, k:k + d] += terms
        del terms  # so that the copy below peaks at twice by_freq
        by_freq = by_freq.reshape(n_ops, 2 * d - 1, theta.size, d).transpose(0, 2, 1, 3)
        by_freq = np.ascontiguousarray(by_freq)  # [X, ring, f, m]
        return (np.exp(1j * np.outer(phi, np.arange(1 - d, d))) @ by_freq).real

    @functools.cached_property
    def _direction_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        theta, phi, w_cos = _legendre_rings(self.two_s + 4, 2 * self.two_s + 6)
        return _frozen(theta), _frozen(phi), _frozen(w_cos / (2 * phi.size))

    def direction_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(theta, phi, w) of the (2s+4) x (4s+6) Gauss-Legendre x trapezoid grid.

        It integrates the degree-4s direction average of the continuous
        quorum exactly.  ``w`` is each ring's per-node weight
        w_cos / (2 n_phi); over all nodes the weights sum to 1.  The grid is
        built once per system, and its arrays are read-only.
        """
        return self._direction_grid


def make_spin_system(two_s: int) -> SpinSystem:
    """Build the ladder, Cartesian and diagonal spin matrices.

    Matrix elements follow <m+1|S+|m> = sqrt(s(s+1) - m(m+1)) with the
    basis index i holding m = i - s.
    """
    if two_s < 0:
        raise ValueError("two_s must be a nonnegative integer")
    s = two_s / 2.0
    d = two_s + 1
    m = np.arange(d) - s
    s_plus = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        s_plus[i + 1, i] = math.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    s_minus = s_plus.conj().T
    sx = (s_plus + s_minus) / 2
    sy = (s_plus - s_minus) / 2j
    sz = np.diag(m).astype(complex)
    return SpinSystem(
        two_s=two_s,
        dim=d,
        sx=_frozen(sx),
        sy=_frozen(sy),
        sz=_frozen(sz),
        s_plus=_frozen(s_plus),
        s_minus=_frozen(s_minus),
    )


@dataclass(frozen=True)
class Direction:
    """Point on the unit sphere given by polar and azimuthal angles."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi + 1e-12):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


@dataclass(frozen=True, eq=False)
class SpinState:
    """Pure state as amplitudes over the m = -s ... +s basis, unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def basis_state(system: SpinSystem, m: float) -> SpinState:
    """Eigenstate of S_z with eigenvalue m."""
    amps = np.zeros(system.dim, dtype=complex)
    amps[system.m_index(m)] = 1.0
    return SpinState(amps)


def coherent_state(system: SpinSystem, alpha: complex) -> SpinState:
    """Spin coherent state exp(alpha S+ - conj(alpha) S-) |m = -s>.

    The anti-Hermitian generator is exponentiated as exp(i h) with the
    Hermitian h = i (conj(alpha) S- - alpha S+), so the Hermitian-only
    matrix exponential applies.
    """
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"coherent-state amplitude alpha = {alpha} is not finite")
    h = 1j * (np.conj(alpha) * system.s_minus - alpha * system.s_plus)
    u = op_exp(h, 1.0)
    return SpinState(u[:, 0])


def rotation_d(system: SpinSystem, psi: float, n: Direction) -> np.ndarray:
    """Rotation operator exp(i psi S.n); unitary."""
    return op_exp(system.spin_along(n), psi)


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma_x, sigma_y, sigma_z) = 2 (S_x, S_y, S_z) in the m-ascending basis.

    Note the basis runs m = -1/2, +1/2, so sigma_z is diag(-1, +1) and
    sigma_y has its signs mirrored relative to the |0>-first textbook
    layout; the operators are the same, only the row order differs.
    """
    sys2 = make_spin_system(1)
    return 2 * sys2.sx, 2 * sys2.sy, 2 * sys2.sz


def pauli_quorum() -> tuple[Quorum, DualFrame]:
    """The spin-1/2 quorum {sigma_x, sigma_y, sigma_z, 1} and its dual.

    The elements are mutually orthogonal with squared norm 2, so the dual
    is simply the quorum halved.
    """
    sx, sy, sz = pauli_matrices()
    eye = np.eye(2, dtype=complex)
    quorum = Quorum.from_elements(
        [sx, sy, sz, eye], labels=["sigma_x", "sigma_y", "sigma_z", "identity"]
    )
    dual = DualFrame.from_elements(quorum.elements / 2)
    return quorum, dual


@dataclass(frozen=True)
class WeigertQuorum:
    """Rank-1 projector quorum onto maximal spin states along N_s directions."""

    system: SpinSystem
    directions: tuple[Direction, ...]
    quorum: Quorum
    dual: DualFrame
    gram_condition: float

    @property
    def projectors(self) -> np.ndarray:
        return self.quorum.elements

    def __len__(self) -> int:
        return len(self.projectors)


def max_spin_projector(system: SpinSystem, n: Direction) -> np.ndarray:
    """Projector |n><n| onto the top (eigenvalue s) eigenvector of S.n."""
    top = system.rotated_basis(n.theta, n.phi)[0, -1]
    return np.outer(top, top.conj())


def weigert_quorum(system: SpinSystem, directions: list[Direction]) -> WeigertQuorum:
    """Build the (2s+1)^2 projector quorum and its dual for given directions.

    Directions must be pairwise distinct; the dual is the Gram-matrix dual
    and the Gram condition number is recorded.  Degenerate direction
    choices (condition >= 1e10) are refused.
    """
    n_required = system.dim * system.dim
    if len(directions) != n_required:
        raise ValueError(
            f"spin s = {system.s} needs exactly {n_required} directions, got {len(directions)}"
        )
    # The chord |u_i - u_j| is exactly 0 for equal directions; the angle
    # acos(u_i . u_j) cannot resolve anything below about 1.5e-8.
    u = np.array([n.unit_vector for n in directions])
    chord = np.linalg.norm(u[:, None, :] - u[None, :, :], axis=-1)
    close = np.argwhere(np.triu(chord <= 1e-12, k=1))
    if close.size:
        i, j = close[0]
        raise SingularGramError(float("inf"), WEIGERT_CONDITION_CAP,
                                f"directions {i} and {j} coincide; choose other directions")
    # the top rows R|s> of all directions in one batch, as in max_spin_projector
    top = system.rotated_basis([n.theta for n in directions], [n.phi for n in directions])[:, -1]
    projectors = top[:, :, None] * top[:, None, :].conj()
    labels = [f"n_{k}({d.theta:.12g},{d.phi:.12g})" for k, d in enumerate(directions)]
    quorum = Quorum.from_elements(projectors, labels)
    dual, condition = _gram_dual(quorum, WEIGERT_CONDITION_CAP, "choose other directions")
    return WeigertQuorum(
        system=system,
        directions=tuple(directions),
        quorum=quorum,
        dual=dual,
        gram_condition=condition,
    )


def tetrahedral_directions() -> list[Direction]:
    """Four directions forming a regular tetrahedron.

    For s = 1/2 these maximize the Gram conditioning of the Weigert
    projector set (the four projectors form a symmetric informationally
    complete family).
    """
    base = math.acos(-1.0 / 3.0)
    return [
        Direction(0.0, 0.0),
        Direction(base, 0.0),
        Direction(base, 2 * math.pi / 3),
        Direction(base, 4 * math.pi / 3),
    ]


def random_directions(count: int, seed: int) -> list[Direction]:
    """Directions drawn uniformly on the sphere (area measure), seeded."""
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, size=count)
    phi = rng.uniform(0.0, 2 * math.pi, size=count)
    return [Direction(math.acos(c), p) for c, p in zip(cos_theta, phi)]


def _grid_counts(grid) -> tuple[int, ...]:
    """(n_theta, n_phi, n_psi), each an integer >= 8; a float is refused, not truncated."""
    counts = tuple(operator.index(n) for n in grid)
    if min(counts) < 8:
        raise ValueError(f"degenerate grid {counts}: all node counts must be >= 8")
    return counts


def _legendre_rings(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ring angles theta, equal phi nodes on [0, 2 pi) and the Gauss-Legendre weights w_cos."""
    cos_nodes, w_cos = np.polynomial.legendre.leggauss(n_theta)
    return np.arccos(cos_nodes), 2 * np.pi * np.arange(n_phi) / n_phi, w_cos


def _psi_rule(n_psi: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes on [0, 2 pi) with the Haar weight sin^2(psi/2) folded in."""
    psi = 2 * math.pi * np.arange(n_psi) / n_psi
    return psi, (2 * math.pi / n_psi) * np.sin(psi / 2) ** 2


def haar_volume(grid) -> float:
    """Quadrature value of the group volume integral; exact value 4 pi^2."""
    n_theta, _, n_psi = _grid_counts(grid)
    _, w_cos = np.polynomial.legendre.leggauss(n_theta)
    _, w_psi = _psi_rule(n_psi)
    return float(np.sum(w_cos)) * (2 * math.pi) * float(np.sum(w_psi))


def su2_orthogonality_residual(system: SpinSystem, grid) -> float:
    """Residual of the group orthogonality relation for exp(i psi S.n).

    Numerically integrates, with the invariant measure
    sin^2(psi/2) sin(theta) dtheta dphi dpsi and prefactor (2s+1)/(4 pi^2),
    the products <j|exp(i psi n.S)|r><t|exp(-i psi n.S)|k> over the group,
    and returns the maximum deviation from delta_jk delta_tr.

    ``grid`` holds the node counts (n_theta, n_phi, n_psi), each >= 8, of
    the product rule: Gauss-Legendre in cos(theta), uniform trapezoid in phi
    and psi.  The integrands are polynomials in cos(theta) and
    trigonometric polynomials with integer frequencies in phi and psi,
    which the trapezoid rule integrates exactly once the node count exceeds
    the highest frequency.

    The phi sum is taken in closed form.  The only phi dependence of a
    product is the phase exp(-i phi ((j - r) - (k - t))), and the n_phi
    trapezoid nodes sum it to exactly 2 pi when (j - r) - (k - t) = 0
    (mod n_phi) and to 0 otherwise.  That Kronecker delta keeps the
    aliasing of a coarse phi grid, so the result is the node-by-node sum
    up to roundoff, at O(n_theta d^5) cost whatever n_phi is, in O(d^4)
    memory whatever n_theta is.
    """
    n_theta, n_phi, n_psi = _grid_counts(grid)
    d = system.dim
    thetas, _, w_cos = _legendre_rings(n_theta, n_phi)
    psi, w_psi = _psi_rule(n_psi)

    # The psi sum first: exp(i psi S.n) = R exp(i psi S_z) R^dag, so the psi
    # average of <j|U|r> conj(<k|U|t>) is sum_mm' Y[m, jr] H[m, m'] conj(Y[m', kt])
    # times exp(-i phi ((j - r) - (k - t))), with Y[m, jr] = <j|R|m> conj(<r|R|m>)
    # for R at phi = 0 and H[m, m'] = sum_psi w_psi e^{i psi (m - m')}.
    m = np.arange(d)
    h = np.tensordot(w_psi, np.exp(1j * psi[:, None, None] * (m[:, None] - m[None, :])), axes=1)
    acc = np.zeros((d * d, d * d), dtype=complex)
    # The rings are stacked in chunks of at most _SU2_ENTRIES entries of Y,
    # in ascending order, so memory does not grow with n_theta and the
    # summation is deterministic.
    per_chunk = max(1, _SU2_ENTRIES // d**3)
    for lo in range(0, n_theta, per_chunk):
        ring = slice(lo, lo + per_chunk)
        c = system.rotated_basis(thetas[ring], 0.0)  # [ring, m, j]
        y = (c[:, :, :, None] * c.conj()[:, :, None, :]).reshape(-1, d, d * d)
        hy = h.conj() @ y  # conj(H conj(Y)) per ring, without a conjugated copy of Y
        np.conjugate(hy, out=hy)
        hy *= w_cos[ring, None, None]
        acc += y.reshape(-1, d * d).T @ hy.reshape(-1, d * d)
    # acc[(j, r), (k, t)] integrates <j|U|r> conj(<k|U|t>) = <j|U|r><t|U^dag|k>;
    # the phi sum keeps (j - r) = (k - t) (mod n_phi) with weight 2 pi.
    q = (m[:, None] - m[None, :]).reshape(-1) % n_phi
    acc *= q[:, None] == q[None, :]
    acc *= d / (2 * math.pi)

    acc.flat[:: d * d + 1] -= 1.0  # the target delta_jk delta_tr is the d^2 identity
    return float(np.abs(acc).max())
