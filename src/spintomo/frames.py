"""Operator frames: completeness tests and dual-frame construction.

A quorum is an ordered family of operators spanning (a subspace of) the
space of d x d matrices.  Its dual frame B_n satisfies Tr[B_n^dag C_m] =
delta_nm for linearly independent quorums and, for complete quorums, the
resolution of identity sum_n |C_n>(B_n| = 1 on operator space.  Two dual
constructions are provided: a Gram-Schmidt sweep that tolerates linearly
dependent elements by dropping them, and the Gram-matrix dual C G^-1, taken
from the singular value decomposition of the coefficient matrix C so that
its error grows with cond(C), not with cond(G) = cond(C)^2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .liouville import (
    DimensionMismatchError,
    _frozen,
    _operator_stack,
    eig_hermitian,
    hs_norm,
    random_operator,
    require_hermitian,
    superop_from_frame,
)

# Singular values below RANK_RTOL * sigma_max count as zero in rank tests.
RANK_RTOL = 1e-10
# Gram-Schmidt residuals below DROP_RTOL * max input norm mark a linearly
# dependent element, which is dropped (zero dual, kept_mask False).
DROP_RTOL = 1e-10
# Gram matrices with condition number at or above this are refused.
GRAM_CONDITION_CAP = 1e12
# Pass/fail threshold for the spanning-definition residuals.
DEFINITION_TOL = 1e-9


class IncompleteQuorumError(ValueError):
    """Dual construction requires a complete quorum (or the subspace flag)."""

    def __init__(self, report: "SpanningReport"):
        super().__init__(
            f"quorum is incomplete (rank {report.rank} < required {report.rank_required}); "
            "pass allow_subspace=True for a dual on the spanned subspace"
        )
        self.report = report


class SingularGramError(ValueError):
    """Gram matrix too ill-conditioned for a stable inversion.

    The message names the cap that ``condition`` reached and ends with
    ``remedy``, what the caller can do instead.
    """

    def __init__(self, condition: float, cap: float, remedy: str):
        super().__init__(
            f"Gram matrix condition number {condition:.3e} is not below the cap {cap:g}; "
            f"the quorum elements are linearly dependent or nearly so; {remedy}"
        )
        self.condition = condition


@dataclass(frozen=True, eq=False)
class _Frame:
    """Ordered family of d x d operators, held as one read-only (N, d, d) array."""

    elements: np.ndarray

    def __post_init__(self):
        ops = _operator_stack(self.elements)
        ops.setflags(write=False)
        object.__setattr__(self, "elements", ops)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return self.elements.shape[0]

    def coefficient_matrix(self) -> np.ndarray:
        """N x d^2 read-only view whose rows are the row-major flattened elements."""
        return self.elements.reshape(len(self), -1)


@dataclass(frozen=True, eq=False)
class Quorum(_Frame):
    """Ordered family of same-dimension operators with setting labels.

    Being immutable, a quorum is factorised once: ``svd`` is computed on
    first use and shared by the rank test, the witness and the Gram dual,
    and ``eigensystem`` by every count table of its settings.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.labels) != len(self):
            raise ValueError("labels and elements must have equal length")

    @classmethod
    def from_elements(cls, elements: Sequence, labels: Sequence[str] | None = None) -> "Quorum":
        if labels is None:
            labels = [f"C_{n}" for n in range(len(elements))]
        return cls(elements, tuple(str(s) for s in labels))

    @functools.cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """SVD u, sigma, vh of the coefficient matrix, and its rank.

        ``vh`` is always d^2 x d^2, so its rows past the rank span the null
        space; ``u`` is N x min(N, d^2), so a tall quorum costs O(N d^2)
        memory, not O(N^2).
        """
        n, d2 = len(self), self.dim * self.dim
        u, sigma, vh = np.linalg.svd(self.coefficient_matrix(), full_matrices=n < d2)
        for a in (u, sigma, vh):
            a.setflags(write=False)  # shared by every caller
        # sigma is never empty; an all-zero quorum gets rank 0 from the strict ">".
        return u, sigma, vh, int(np.sum(sigma > RANK_RTOL * sigma[0]))

    @functools.cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """``eig_hermitian`` of all settings in one batch: values (N, d), vectors (N, d, d).

        A setting that is not Hermitian raises ``NotHermitianError`` naming
        its label, on every access, as nothing is cached then.
        """
        require_hermitian(self.elements, [f"quorum element {label!r}" for label in self.labels])
        w, v = eig_hermitian(self.elements)
        w.setflags(write=False)  # shared by every caller
        v.setflags(write=False)
        return w, v


@dataclass(frozen=True, eq=False)
class DualFrame(_Frame):
    """Dual operators aligned index-by-index with a quorum.

    Dropped (linearly dependent) quorum elements keep their slot with a
    zero dual operator and kept_mask False, so measurement settings stay
    aligned with their duals.
    """

    kept_mask: tuple[bool, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.kept_mask) != len(self):
            raise ValueError("kept_mask and elements must have equal length")

    @classmethod
    def from_elements(cls, elements: Sequence, kept_mask: Sequence[bool] | None = None) -> "DualFrame":
        if kept_mask is None:
            kept_mask = (True,) * len(elements)
        return cls(elements, tuple(bool(k) for k in kept_mask))


def _require_aligned(q: Quorum, dual: DualFrame) -> None:
    """Refuse a dual whose dimension or length differs from the quorum's."""
    if q.dim != dual.dim or len(q) != len(dual):
        raise DimensionMismatchError("quorum and dual frame do not align")


@dataclass(frozen=True)
class DefinitionCheck:
    passed: bool
    residual: float


@dataclass(eq=False)
class SpanningReport:
    """Outcome of completeness / spanning-set verification.

    ``defect_witness`` is a unit-norm operator orthogonal to every quorum
    element; it is present exactly when the quorum is incomplete.
    ``checks`` maps definition names ("i".."iv") to their residuals.
    """

    complete: bool
    rank: int
    rank_required: int
    defect_witness: np.ndarray | None = None
    checks: dict[str, DefinitionCheck] = field(default_factory=dict)
    definitions_agree: bool = True


def _canonical_phase(a: np.ndarray) -> np.ndarray:
    flat = a.reshape(-1)
    j = int(np.argmax(np.abs(flat)))
    pivot = flat[j]
    if pivot != 0:
        a = a * (np.conj(pivot) / abs(pivot))
    return a


def completeness_check(q: Quorum) -> SpanningReport:
    """Rank test of the quorum via singular values.

    The quorum is complete iff its N x d^2 coefficient matrix has rank
    d^2 (singular values below ``RANK_RTOL * sigma_max`` count as zero).
    When incomplete, a unit-norm operator orthogonal to every element is
    returned as the defect witness.
    """
    d2 = q.dim * q.dim
    _, _, vh, rank = q.svd
    complete = rank == d2
    witness = None
    if not complete:
        # Tr[W^dag C_n] = (mat @ conj(vec W))_n, so a null vector of mat is
        # conj(vec W); the witness itself is its conjugate, i.e. a row of vh.
        w = vh[rank, :].reshape(q.dim, q.dim)
        w = _canonical_phase(w / hs_norm(w))
        witness = _frozen(w)
    report = SpanningReport(complete=complete, rank=rank, rank_required=d2, defect_witness=witness)
    report.checks["ii"] = DefinitionCheck(passed=complete, residual=float(d2 - rank))
    return report


def gram_schmidt_basis(q: Quorum) -> tuple[np.ndarray, list[bool], np.ndarray]:
    """Orthonormalize the quorum in the Hilbert-Schmidt inner product.

    Each element in turn is projected against the basis built so far by
    classical Gram-Schmidt, run twice: a sweep is the matrix-vector triple
    s = Y^H v, v -= Y s, c -= s T over the basis Y and its expansion table
    T.  The second sweep restores orthogonality to roundoff, which one
    classical sweep loses for badly conditioned inputs (Giraud, Langou and
    Rozloznik, Comput. Math. Appl. 50, 1069 (2005)).  Elements whose
    residual after both sweeps falls below ``DROP_RTOL`` times the largest
    input norm are linear combinations of earlier elements and are
    eliminated.

    Returns
    -------
    basis : ndarray, shape (n_kept, d, d)
        Orthonormal operators y_k, one per kept element, in input order.
    kept_mask : list of bool
        True where the corresponding quorum element was retained.
    coeffs : ndarray, shape (n_kept, N)
        Expansion table T with y_k = sum_n T[k, n] C_n; columns of dropped
        elements are zero.
    """
    n = len(q)
    d2 = q.dim * q.dim
    vecs = q.coefficient_matrix()
    max_norm = float(np.linalg.norm(vecs, axis=1).max())
    if max_norm == 0.0:
        raise ValueError("cannot orthogonalize an all-zero quorum")
    drop_tol = DROP_RTOL * max_norm

    # Rows of y are the basis vectors, rows of t their expansions.
    size = min(n, d2)
    y = np.zeros((size, d2), dtype=complex)
    t = np.zeros((size, n), dtype=complex)
    kept_mask: list[bool] = []
    r = 0
    for k in range(n):
        v = vecs[k].copy()
        c = np.zeros(n, dtype=complex)
        c[k] = 1.0
        if r:
            for _ in range(2):
                # Y^H v as conj(Y conj(v)): conjugates a vector, not Y.
                s = np.conj(y[:r] @ np.conj(v))
                v -= s @ y[:r]
                c -= s @ t[:r]
        norm = np.linalg.norm(v)
        if norm <= drop_tol:
            kept_mask.append(False)
            continue
        assert r < size, "more than d^2 orthonormal operators"
        y[r] = v / norm
        t[r] = c / norm
        r += 1
        kept_mask.append(True)

    return y[:r].reshape(r, q.dim, q.dim), kept_mask, t[:r].copy()


def dual_via_gram_schmidt(q: Quorum, allow_subspace: bool = False) -> DualFrame:
    """Dual frame from the Gram-Schmidt identity resolution.

    Rewrites 1 = sum_k |y_k>(y_k| over the orthonormalized basis as
    1 = sum_n |C_n>(B_n|, which yields B_n = sum_k conj(T[k, n]) y_k.
    Dropped elements get a zero dual.  For an incomplete quorum the result
    reproduces only the spanned subspace; that is refused unless
    ``allow_subspace`` is set.
    """
    report = completeness_check(q)
    if not report.complete and not allow_subspace:
        raise IncompleteQuorumError(report)
    basis, kept_mask, coeffs = gram_schmidt_basis(q)
    b_rows = np.conj(coeffs).T @ basis.reshape(len(basis), -1)  # zero rows at dropped slots
    return DualFrame.from_elements(b_rows.reshape(len(q), q.dim, q.dim), kept_mask)


def _gram_dual(q: Quorum, condition_cap: float, remedy: str) -> tuple[DualFrame, float]:
    """Gram dual B = C G^-1 = (C^+)^H and cond(G), both from one SVD of C.

    With rows vec(C_n) = (U S V^H)_n, the rows vec(B_n) are (U S^-1 V^H)_n
    and cond(G) = (sigma_max / sigma_min)^2; cond(G) >= ``condition_cap``
    raises ``SingularGramError`` ending in ``remedy``, so does N > d^2 (G
    is then singular).
    """
    u, sigma, vh, _ = q.svd
    n = len(q)
    singular = n > sigma.size or sigma[-1] == 0.0
    condition = float("inf") if singular else float((sigma[0] / sigma[-1]) ** 2)
    if not np.isfinite(condition) or condition >= condition_cap:
        raise SingularGramError(condition, condition_cap, remedy)
    b_rows = (u / sigma) @ vh[:n]
    return DualFrame.from_elements(b_rows.reshape(n, q.dim, q.dim)), condition


def dual_via_gram_inverse(q: Quorum) -> DualFrame:
    """Dual frame B_n = sum_m (G^-1)_mn C_m of the Gram matrix G.

    The index convention makes Tr[B_n^dag C_m] = delta_nm hold exactly.
    Requires linearly independent elements; an ill-conditioned Gram matrix
    (condition number >= 1e12) raises ``SingularGramError``.
    """
    remedy = "the Gram-Schmidt route handles dependent sets by elimination"
    return _gram_dual(q, GRAM_CONDITION_CAP, remedy)[0]


def reproducing_kernel_residual(q: Quorum, dual: DualFrame) -> float:
    """How far delta(n, n') = Tr[B_n^dag C_n'] is from a reproducing kernel.

    Returns the larger of the two defects
    ``max_n' || sum_n delta(n,n') C_n - C_n' ||`` and
    ``max_n || sum_n' conj(delta(n,n')) B_n' - B_n ||``.
    Both vanish for exact dual pairs, including the Gram-Schmidt dual of a
    linearly dependent quorum, whose dropped elements have zero duals.
    """
    _require_aligned(q, dual)
    c = q.coefficient_matrix().T
    b = dual.coefficient_matrix().T
    delta = b.conj().T @ c  # delta[n, n'] = Tr[B_n^dag C_n']
    res_c = np.linalg.norm(c @ delta - c, axis=0).max()
    res_b = np.linalg.norm(b @ delta.conj().T - b, axis=0).max()
    return float(max(res_c, res_b))


def verify_spanning_definitions(
    q: Quorum, dual: DualFrame, trials: int = 50, seed: int = 42
) -> SpanningReport:
    """Check the four equivalent spanning-set definitions on random operators.

    The four tests are (i) expansion of random operators over the quorum,
    (ii) absence of a null space in the coefficient matrix, (iii) the frame
    super-operator equalling the identity, and (iv) the Parseval-type sum
    rule for the squared norm.  Each trial draws its operator from a
    generator seeded with (seed, trial) so results do not depend on
    evaluation order.  The verdicts must agree; disagreement marks an
    internal inconsistency, not a property of the data.
    """
    _require_aligned(q, dual)
    base = completeness_check(q)

    vc = q.coefficient_matrix().T
    vb = dual.coefficient_matrix().T
    vch, vbh = vc.conj().T, vb.conj().T
    superop = superop_from_frame(q.elements, dual.elements)
    identity = np.eye(q.dim * q.dim, dtype=complex)
    res_iii = float(np.abs(superop - identity).max())

    res_i = 0.0
    res_iv = 0.0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        a = random_operator(q.dim, rng).reshape(-1)
        norm_sq = float(np.real(np.vdot(a, a)))
        coeffs = vbh @ a  # Tr[B_n^dag a]
        recon = vc @ coeffs
        res_i = max(res_i, float(np.linalg.norm(a - recon) / (1.0 + np.sqrt(norm_sq))))
        parseval = np.sum(np.conj(vch @ a) * coeffs)
        res_iv = max(res_iv, float(abs(parseval - norm_sq) / (1.0 + norm_sq)))

    checks = {
        "i": DefinitionCheck(passed=res_i <= DEFINITION_TOL, residual=res_i),
        "ii": base.checks["ii"],
        "iii": DefinitionCheck(passed=res_iii <= DEFINITION_TOL, residual=res_iii),
        "iv": DefinitionCheck(passed=res_iv <= DEFINITION_TOL, residual=res_iv),
    }
    verdicts = {name: chk.passed for name, chk in checks.items()}
    agree = len(set(verdicts.values())) == 1
    return replace(base, checks=checks, definitions_agree=agree)
