"""Monte Carlo reconstruction of operator mean values from quorum outcomes.

Every estimator follows the same pattern: simulate projective measurements
of the quorum observables on a given state (Born rule), weight each
observed outcome by the matching dual-frame coefficient, and average.  The
weighting makes every single sample an unbiased estimate of Tr[rho A], so
the only error is statistical; error bars come from splitting the sample
stream into contiguous blocks.

Three quorums are supported: a generic discrete quorum of Hermitian
observables with its dual frame, the continuous spin-direction quorum
(directions drawn from the exact quadrature grid of the direction average,
with the rotation integral reduced to a closed-form outcome kernel), and
the Weigert projector quorum.  Each builds one ``CountTable`` of its
(setting, outcome) cells; a run builds its table once, and its main
estimate and every checkpoint draw from it.  An estimate sees a block
only through the sum of its outcome values, whose law is set by the
multinomial counts of the cells.  An estimate draws from one generator,
block after block, several blocks of one size per numpy call; the result
does not depend on how the blocks are grouped.  A block of nb shots on
each of k rows of M cells draws each row's shots by inverse transform, one
binary search of the row per shot, when that takes fewer steps than the
row has cells, and otherwise the counts of every cell in one multinomial,
so per block it costs O(k min(nb log M, M)) time and O(kM) memory.  On a
long one-row table, such as the continuous grid, a numpy call with enough
shots to repay a guide table (the indexed search of Chen and Asau)
searches from one, and picks the same cell as a plain binary search, so
the draws keep their bits.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .frames import DualFrame, Quorum, _require_aligned
from .liouville import DimensionMismatchError, as_operator, require_hermitian
from .spin import Direction, SpinState, SpinSystem, WeigertQuorum


class DualCoefficientError(ValueError):
    """A dual coefficient Tr[B^dag a] of a Hermitian target is not real.

    Exact duals of a Hermitian quorum give real coefficients, so this is a
    numerical refusal: the dual frame is too inaccurate for the target.
    """


def _dual_coefficient(b: np.ndarray, a: np.ndarray, what: str) -> float:
    coeff = complex(np.vdot(b, a))
    if abs(coeff.imag) > 1e-8 * (1.0 + abs(coeff)):
        raise DualCoefficientError(f"non-real dual coefficient for {what}: {coeff}")
    return coeff.real


@dataclass(frozen=True)
class RunStats:
    """Monte Carlo accumulator: block means, global mean, error bar."""

    n_samples: int
    n_blocks: int
    block_means: tuple[float, ...]
    mean: float
    error_bar: float
    estimator: str | None = None
    seed: int | None = None
    convention: str | None = None


def _state_factors(state, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(weights, rows) with rho = sum_k weights[k] |rows[k]><rows[k]|.

    The state may be a ``SpinState``, a unit vector or a density matrix;
    it is checked and factorised here once.  A pure state is one row of
    weight 1; a density matrix keeps the eigenvectors whose eigenvalues
    are nonzero at working precision.
    """
    arr = state.amplitudes if isinstance(state, SpinState) else np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise DimensionMismatchError(f"state dim {arr.shape[0]} != operator dim {dim}")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state vector norm {norm} deviates from 1")
        return np.ones(1), arr[None, :]
    if arr.shape != (dim, dim):
        raise DimensionMismatchError(f"density matrix shape {arr.shape}, expected {(dim, dim)}")
    require_hermitian(arr, "density matrix")
    trace = np.trace(arr).real
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {trace} deviates from 1")
    lam, vec = np.linalg.eigh(arr)
    if lam.min() < -1e-10:
        raise ValueError("density matrix is not positive semidefinite")
    keep = np.abs(lam) > lam.size * np.finfo(float).eps * np.abs(lam).max()
    return lam[keep], vec[:, keep].T


def _expectations(ops: np.ndarray, weights: np.ndarray, rows: np.ndarray):
    """sum_k weights[k] <rows[k]|op|rows[k]> = Tr[rho op] for an operator or a stack."""
    return sum(w * (r.conj() @ ops @ r) for w, r in zip(weights, rows))


def state_expectation(state, a: np.ndarray) -> complex:
    """Exact mean value Tr[rho a] of the operator on the state."""
    a = as_operator(a)
    return complex(_expectations(a, *_state_factors(state, a.shape[0])))


def _target(a: np.ndarray, dim: int) -> np.ndarray:
    """The target as a square complex matrix, checked Hermitian and of dimension ``dim``."""
    a = as_operator(a)
    require_hermitian(a, "target operator")
    if a.shape[0] != dim:
        raise DimensionMismatchError(f"operator dim {a.shape[0]} != quorum dim {dim}")
    return a


def _blocks(budget: int, n_blocks: int, what: str) -> np.ndarray:
    """Sizes of ``n_blocks`` contiguous near-equal blocks of ``budget`` samples.

    The first budget % n_blocks blocks are one longer.  ``what`` names the
    budget in the error raised when it cannot fill the blocks, or when a
    block would hold more shots than a 64-bit count can.
    """
    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")
    if budget < n_blocks:
        raise ValueError(f"{what} = {budget} cannot fill {n_blocks} blocks")
    base, extra = divmod(budget, n_blocks)
    if base + (extra > 0) > np.iinfo(np.int64).max:
        raise ValueError(f"{what} = {budget} puts more than 2**63 - 1 shots in a block")
    return np.array([base + 1] * extra + [base] * (n_blocks - extra))


# ---------------------------------------------------------------------------
# count engine of every quorum

def _by_shots(sizes: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Which blocks of ``sizes`` shots per row draw their shots rather than their counts.

    A row's multinomial makes one binomial draw per cell, M steps; its nb
    shots make one binary search each over the row's own M cells,
    M.bit_length() probes.  A block takes the shot route when that is
    fewer steps.  Counting a probe as dear as a binomial draw keeps the
    switch on the safe side: timed on one core of a 2-vCPU Xeon VM, on
    one-row tables of 1,760 to 76,160 cells, shots stay the cheaper route
    up to about M/2 to M/5 shots.  The product is taken in floating point,
    where the largest blocks cannot wrap it round as 64-bit integers would.
    The switch is the same whether a row's shots are looked up plainly or
    through a guide table (``_RowSearch``), so every block keeps its route;
    re-fitting it to the measured costs (ROADMAP item 2) is still open.
    """
    return sizes * float(probs.shape[1].bit_length()) < probs.shape[1]


# Most (block, setting, outcome-or-shot) cells one numpy call draws: bounds
# the memory of a draw whatever n_blocks is, and does not change its bits.
_CELLS = 1 << 18

# Shortest row of a one-row table whose shots are looked up through a guide
# table rather than by searchsorted.  A shorter row's estimates make few
# lookups (a block draws shots only below M / log2 M of them), too few to
# repay the guide's fixed cost: about 20 us a call, and 8 ns a cell to
# build.  Spin-half's 80-cell continuous row keeps searchsorted.
_GUIDED_CELLS = 1 << 12
# A call on such a row builds its guide only when it looks up at least
# M / _GUIDE_REPAY keys.  A guided key saves about 100 ns over
# searchsorted, so a call repays the build from about M / 8 keys on at
# d = 16 and M / 20 at d = 32; a call of fewer keys uses the guide only
# once an earlier call has built it.
_GUIDE_REPAY = 8


def _guided_search(cum: np.ndarray):
    """``cum.searchsorted(u, side="right")`` for keys u in [0, 1), by a guide table.

    The indexed search of Chen and Asau (1974).  ``cum`` is a cumulative
    row of M cells that ends at exactly 1.0.  Keys and cells alike fall in
    bucket floor(x M) of M equal buckets, x M rounded once, and the guide
    counts the cells of each bucket.  Rounding x M is monotone in x, so a
    cell of a lower bucket than u's has cum < u, one of a higher bucket has
    cum > u, and u's cell lies among the cells of its own bucket, found by
    a binary search of fixed steps with the same ``cum <= u`` comparisons
    as searchsorted.  The fullest bucket sets the number of steps.
    """
    m = cum.size
    per_bucket = np.bincount((cum * m).astype(np.intp), minlength=m + 1)
    fullest = int(per_bucket[:m].max())
    steps = [1 << j for j in reversed(range(fullest.bit_length()))]
    padded = np.concatenate([cum, np.full(fullest, np.inf)])  # probes past the end compare false
    start = (per_bucket.cumsum() - per_bucket - 1)[:m]  # per bucket, the last cell of those below

    def search(u: np.ndarray) -> np.ndarray:
        last = start[(u * m).astype(np.intp)]
        for step in steps:
            probe = last + step
            last = np.where(padded[probe] <= u, probe, last)
        return last + 1

    return search


class _RowSearch:
    """Inverse-transform lookup of a shot's uniform in its own row.

    Each row's cumsum is divided in place by its last entry, so a row ends
    at exactly 1.0: every u in [0, 1) lands in its row, and never in a
    cell of probability zero, an empty interval.  A key is looked up by
    ``searchsorted(side="right")``, or, in a one-row table of at least
    ``_GUIDED_CELLS`` cells, by a guide table, built once per
    ``CountTable`` by the first call of at least M / ``_GUIDE_REPAY`` keys
    and used by every call after it; both pick the same cell.  Timed on one
    core of a 2-vCPU Xeon VM on the 10,944-cell d = 16 continuous row,
    10,000 unsorted keys take 1.29 ms by searchsorted and 0.18 ms guided,
    and building the guide 0.09 ms; 100 keys take 4 us and 21 us.
    """

    def __init__(self, probs: np.ndarray):
        self.cum = np.cumsum(probs, axis=1)
        self.cum /= self.cum[:, -1:]

    @functools.cached_property
    def _guided(self):
        return _guided_search(self.cum[0])

    def __call__(self, k: int, u: np.ndarray) -> np.ndarray:
        """The cell index of row k for each uniform of ``u``."""
        m = self.cum.shape[1]
        if self.cum.shape[0] == 1 and m >= _GUIDED_CELLS and (
                "_guided" in self.__dict__ or u.size * _GUIDE_REPAY >= m):
            return self._guided(u)
        return self.cum[k].searchsorted(u, side="right")


def _block_sums(probs: np.ndarray, values: np.ndarray, sizes: np.ndarray, seed: int,
                search: _RowSearch | None = None) -> np.ndarray:
    """Sum of the outcome values of each block: ``nb`` shots of every setting per block.

    The blocks draw in order from one ``default_rng(seed)``, each by the
    route that ``_by_shots`` picks from its nb and the row length alone.
    Consecutive blocks of one size draw together, as many per call as fit
    in ``_CELLS`` cells; numpy gives g blocks the same bits in one call as
    in g, so the sums do not depend on the grouping.  The counts route
    draws every cell's count in one multinomial; the shot route draws one
    uniform per shot and looks it up in its own row's cumulative row by
    ``search``, a ``_RowSearch`` of ``probs`` (built here if not given):
    by searchsorted, or on a long one-row table by a guide table that
    picks the same cell.  Both routes draw the same multinomial law;
    memory is O(cells) either way.
    """
    rng = np.random.default_rng(seed)
    search = _RowSearch(probs) if search is None else search
    sums = []
    for nb, run in itertools.groupby(sizes):
        n_run, shots = len(list(run)), _by_shots(nb, probs)
        cells = max(1, len(probs) * (nb if shots else probs.shape[1]))  # of one block
        per_call = max(1, _CELLS // cells)
        for lo in range(0, n_run, per_call):
            g = min(per_call, n_run - lo)
            if not shots:
                draw = rng.multinomial(np.full((g, 1), nb), probs) * values
            else:
                draw = rng.random((g, len(probs), nb))
                for k, v in enumerate(values):
                    draw[:, k] = v[search(k, draw[:, k])]
            sums.extend(draw.reshape(g, -1).sum(axis=1))
    return np.array(sums)


@dataclass(frozen=True, eq=False)
class CountTable:
    """The count table of one quorum, target and state.

    Setting k is measured with the clipped, normalised Born row probs[k],
    and outcome m adds values[k, m], the outcome weighted by the dual
    frame; ``constant`` is the exact share of settings that need no
    samples.  The arrays are read-only, so a run builds its table once and
    its main estimate and every checkpoint draw from it.  ``estimator``
    and ``convention`` label the estimates, and ``quota`` names the
    per-setting budget in the errors of ``estimate``.
    """

    probs: np.ndarray
    values: np.ndarray
    constant: float
    estimator: str
    convention: str
    quota: str

    def __post_init__(self):
        self.probs.setflags(write=False)
        self.values.setflags(write=False)

    @functools.cached_property
    def _search(self) -> _RowSearch:
        return _RowSearch(self.probs)

    def exact(self) -> float:
        """constant + sum_{k,m} p[k, m] values[k, m] with exact Born probabilities."""
        return self.constant + float(np.sum(self.probs * self.values))

    def estimate(self, quota: int, n_blocks: int, seed: int) -> RunStats:
        """Blocked estimate with ``quota`` shots of every setting."""
        sizes = _blocks(quota, n_blocks, self.quota)
        sums = zip(sizes, _block_sums(self.probs, self.values, sizes, seed, self._search))
        block_means = np.array([self.constant + s / nb for nb, s in sums])
        return RunStats(
            n_samples=quota * len(self.probs),
            n_blocks=len(sizes),
            block_means=tuple(float(b) for b in block_means),
            mean=float(np.sum(block_means * sizes) / quota),
            error_bar=float(np.std(block_means, ddof=1) / np.sqrt(len(sizes))),
            estimator=self.estimator,
            seed=seed,
            convention=self.convention,
        )


# ---------------------------------------------------------------------------
# discrete quorums (generic Hermitian observables with a dual frame)

def _is_sampled(w: np.ndarray) -> np.ndarray:
    """Whether each row of eigenvalues (last axis) holds more than one value."""
    return w.max(axis=-1) - w.min(axis=-1) > 1e-12 * (1.0 + np.abs(w).max(axis=-1))


def _discrete_table(a: np.ndarray, quorum: Quorum, dual: DualFrame, state) -> CountTable:
    """Per-setting clipped, normalised Born rows and outcome values.

    A sample of setting x with outcome index m contributes
    eigenvalue_m * Tr[B_x^dag a].  Settings whose observable has a single
    distinct eigenvalue (e.g. the identity) contribute that value exactly
    and consume no samples.  All settings are diagonalised in one batch,
    once per quorum (``Quorum.eigensystem``).
    """
    a = _target(a, quorum.dim)
    _require_aligned(quorum, dual)
    weights, factors = _state_factors(state, quorum.dim)
    w, v = quorum.eigensystem
    # One vdot per setting: a stacked matrix-vector product sums in another
    # order and would move every coefficient in its last bits.
    coeffs = [_dual_coefficient(b, a, f"setting {label!r}")
              for b, label in zip(dual.elements, quorum.labels)]
    values = w * np.array(coeffs)[:, None]
    sampled = _is_sampled(w)
    constant = sum((float(row.mean()) for row in values[~sampled]), 0.0)
    values = values[sampled]
    # Born rows p[x, m] = sum_k weights[k] |<v_xm|factor_k>|^2
    amp = factors.conj() @ v[sampled]
    rows = np.clip(np.einsum("k,xkm->xm", weights, amp.real**2 + amp.imag**2), 0.0, 1.0)
    return CountTable(rows / rows.sum(axis=1, keepdims=True), values, constant,
                      "discrete", "per_setting_quota", "samples_per_setting")


def estimate_discrete(
    a: np.ndarray,
    quorum: Quorum,
    dual: DualFrame,
    state,
    samples_per_setting: int,
    *,
    n_blocks: int = 20,
    seed: int = 42,
    selection: str = "quota",
) -> RunStats:
    """Reconstruct <a> from simulated measurements of a discrete quorum.

    With ``selection="quota"`` every sampled setting receives exactly
    ``samples_per_setting`` shots; block means average within each setting
    and sum across settings.  With ``selection="uniform"`` the same total
    budget is spent on uniformly random settings and each contribution is
    scaled by the number of sampled settings.  Both are unbiased; the
    variance differs.  The blocks draw in order from one generator seeded
    by ``seed``, each its counts or, when a row has many more outcomes M than
    the block has shots nb per setting, its shots: O(min(nb log M, M))
    time per setting and O(kM) memory for k settings.
    """
    if selection not in ("quota", "uniform"):
        raise ValueError(f"unknown selection convention {selection!r}")
    table = _discrete_table(a, quorum, dual, state)
    n_active = len(table.probs)
    if selection == "uniform":
        table = replace(table, convention="uniform_setting")
    if selection == "uniform" and n_active:
        _blocks(samples_per_setting, n_blocks, table.quota)
        # A uniformly drawn setting is one setting whose outcomes are all
        # (setting, outcome) pairs, each worth n_active times its value.
        table = replace(table, probs=table.probs.reshape(1, -1) / n_active,
                        values=n_active * table.values.reshape(1, -1), quota="total")
        samples_per_setting *= n_active
    return table.estimate(samples_per_setting, n_blocks, seed)


def discrete_exact_value(a: np.ndarray, quorum: Quorum, dual: DualFrame, state) -> float:
    """The estimator's target with exact Born probabilities substituted.

    Equals Tr[rho a] identically whenever (quorum, dual) is a spanning
    pair, which is the content of the reconstruction identity.
    """
    return _discrete_table(a, quorum, dual, state).exact()


# ---------------------------------------------------------------------------
# continuous quorum: spin component along every direction

def _direction_kernel_rows(a_diag: np.ndarray, dim: int) -> np.ndarray:
    """Outcome kernel for each row of eigenbasis diagonals of the target.

    With A_m the diagonal matrix elements of the target in the S.n
    eigenbasis (ascending m), the per-outcome contribution is
    (2s+1) * (A_m - A_{m+1}/2 - A_{m-1}/2), out-of-range terms zero.
    The scaling makes the estimator, averaged over uniformly random
    directions and Born-distributed outcomes, exactly unbiased.
    """
    padded = np.pad(a_diag, [(0, 0)] * (a_diag.ndim - 1) + [(1, 1)])
    return dim * (padded[..., 1:-1] - 0.5 * padded[..., 2:] - 0.5 * padded[..., :-2])


def continuous_kernel(a: np.ndarray, system: SpinSystem, m: float, n: Direction) -> float:
    """Closed-form outcome weight for measuring S.n with result m.

    Equals (2s+1)/pi times the integral over psi in [0, 2pi) of
    sin^2(psi/2) Tr[a exp(-i psi (S.n - m))]; the integral collapses to
    the three diagonal elements at m and m +- 1 because the psi average
    of sin^2(psi/2) e^{-i k psi} vanishes for |k| > 1.
    """
    a = _target(a, system.dim)
    idx = system.m_index(m)
    diag = system.diagonals(np.array([n.theta]), np.array([n.phi]), a[None])
    return float(_direction_kernel_rows(diag, system.dim).reshape(-1)[idx])


# Most (direction, outcome) cells of a continuous table: d = 128 has 4.36M
# cells, and building a table takes about 100 bytes a cell at its peak.
_CONTINUOUS_CELLS = 5_000_000


def _continuous_table(a: np.ndarray, system: SpinSystem, state) -> CountTable:
    """One pooled row of (grid node, outcome) cells for the count engine.

    The direction average is a spherical polynomial of degree <= 4s, so
    the system's direction grid computes it exactly.  Cell (f, m) is drawn
    with probability w_f p[f, m], where w_f is node f's grid weight and
    p[f] its clipped, normalised Born row, and is worth the kernel K[f, m];
    so sum_f w_f sum_m p K = Tr[rho a].  A grid of more than
    ``_CONTINUOUS_CELLS`` cells is refused before anything is allocated.
    """
    theta, phi, w = system.direction_grid()
    cells = theta.size * phi.size * system.dim
    if cells > _CONTINUOUS_CELLS:
        raise ValueError(f"the continuous quorum at d = {system.dim} has {cells:,} (direction, "
                         f"outcome) cells, above the cap of {_CONTINUOUS_CELLS:,}")
    a = _target(a, system.dim)
    weights, rows = _state_factors(state, system.dim)
    rho = (rows.T * weights) @ rows.conj()
    born, diag = system.diagonals(theta, phi, np.stack([rho, a]))
    born = np.clip(born, 0.0, 1.0)
    born *= w[:, None, None] / born.sum(axis=-1, keepdims=True)
    values = _direction_kernel_rows(diag, system.dim).reshape(1, -1)
    return CountTable(born.reshape(1, -1), values, 0.0, "continuous", "grid_direction", "n_samples")


def estimate_continuous(
    a: np.ndarray,
    system: SpinSystem,
    state,
    n_samples: int,
    *,
    n_blocks: int = 20,
    seed: int = 42,
) -> RunStats:
    """Reconstruct <a> by measuring S.n along directions of the exact grid.

    Each sample draws one grid direction with its quadrature weight and one
    outcome m of S.n with its Born probability, and contributes the
    closed-form outcome kernel.  As for the discrete quorums, the blocks
    draw in order from one generator seeded by ``seed``, each its counts of
    the M (direction, outcome) cells or, when its nb shots take fewer
    steps, the shots: O(min(nb log M, M)) time and O(M) memory.
    """
    return _continuous_table(a, system, state).estimate(n_samples, n_blocks, seed)


def continuous_exact_value(a: np.ndarray, system: SpinSystem, state) -> float:
    """Direction-and-outcome average of the kernel with exact probabilities.

    The grid integrates the average exactly, so the result is Tr[rho a]
    up to roundoff.
    """
    return _continuous_table(a, system, state).exact()


# ---------------------------------------------------------------------------
# Weigert projector quorum

def _weigert_table(a: np.ndarray, wq: WeigertQuorum, state) -> CountTable:
    """Two-outcome rows [Tr rho P_k, 1 - Tr rho P_k] with values [coef_k, 0].

    Only the maximal outcome m = s of S.n_k carries weight: the estimator is
    sum_k p(s, n_k) Tr[a Q^k], and p(s, n_k) = Tr[rho P_k] over the quorum's
    projectors, so no direction is diagonalised.
    """
    a = _target(a, wq.system.dim)
    values = np.zeros((len(wq), 2))
    for k, b in enumerate(wq.dual.elements):
        values[k, 0] = _dual_coefficient(b, a, f"direction {k}")
    top = _expectations(wq.projectors, *_state_factors(state, wq.system.dim)).real
    top = np.clip(top, 0.0, 1.0)
    return CountTable(np.stack([top, 1.0 - top], axis=1), values, 0.0,
                      "weigert", "per_direction_quota", "samples_per_direction")


def estimate_weigert(
    a: np.ndarray,
    wq: WeigertQuorum,
    state,
    samples_per_direction: int,
    *,
    n_blocks: int = 20,
    seed: int = 42,
) -> RunStats:
    """Reconstruct <a> from the frequencies of maximal outcomes of S.n_k.

    Each direction k gets ``samples_per_direction`` shots; the in-block
    frequency of the top outcome estimates p(s, n_k), weighted by
    Tr[a Q^k] over the dual projectors, with no extra factor of the spin.
    With M = 2 outcomes a block always draws its counts, O(1) time and
    memory per direction.
    """
    return _weigert_table(a, wq, state).estimate(samples_per_direction, n_blocks, seed)


def weigert_exact_value(a: np.ndarray, wq: WeigertQuorum, state) -> float:
    """Weigert estimator with exact Born probabilities; equals Tr[rho a]."""
    return _weigert_table(a, wq, state).exact()
