"""Experiment orchestration: configured runs and the two-quorum comparison.

The comparison experiment reconstructs <S_z> on a spin-1/2 coherent state
with the continuous direction quorum and the discrete Pauli quorum at a
series of growing sample budgets, recording means and blocked error bars
for both.  Checkpoints are independent runs with seeds derived from
(seed, method, checkpoint), so a series is reproducible point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimator import (
    _is_sampled,
    estimate_continuous,
    estimate_discrete,
    estimate_weigert,
    state_expectation,
)
from .liouville import require_hermitian
from .spin import (
    SpinState,
    SpinSystem,
    coherent_state,
    basis_state,
    make_spin_system,
    pauli_quorum,
    random_directions,
    weigert_quorum,
)

DEFAULT_SEED = 42


@dataclass
class ExperimentConfig:
    """Declarative description of one reconstruction run."""

    spin_two_s: int = 1
    state: str = "coherent:2"
    quorum: str = "pauli"
    target: str = "sz"
    n_samples: int = 100000
    n_blocks: int = 20
    seed: int = DEFAULT_SEED
    checkpoints: tuple[int, ...] = field(default_factory=tuple)
    directions_file: str | None = None
    weigert_seed: int | None = None


def derived_seed(*parts: int) -> int:
    """Deterministic child seed for (seed, method, checkpoint) triples."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def log_checkpoints(n_max: int, count: int = 20, start: int = 100) -> list[int]:
    """Log-spaced integer sample budgets from ``start`` to ``n_max``."""
    if n_max <= start:
        return [int(n_max)]
    raw = np.geomspace(start, n_max, count)
    vals = sorted(set(int(round(v)) for v in raw))
    vals[-1] = int(n_max)
    return vals


def resolve_state(cfg: ExperimentConfig, system: SpinSystem, load_density=None) -> SpinState | np.ndarray:
    kind, _, arg = cfg.state.partition(":")
    if kind == "coherent":
        return coherent_state(system, complex(arg or "0"))
    if kind == "basis":
        return basis_state(system, float(arg))
    if kind == "density":
        if load_density is None:
            raise ValueError("density state requires a matrix file loader")
        return load_density(arg)
    raise ValueError(f"unknown state spec {cfg.state!r}; use coherent:A, basis:M or density:PATH")


def resolve_target(cfg: ExperimentConfig, system: SpinSystem, load_matrix=None) -> np.ndarray:
    if cfg.target in ("sx", "sy", "sz"):
        return getattr(system, cfg.target)
    kind, _, arg = cfg.target.partition(":")
    if kind == "file":
        if load_matrix is None:
            raise ValueError("file target requires a matrix file loader")
        return require_hermitian(load_matrix(arg), "target operator")
    raise ValueError(f"unknown target spec {cfg.target!r}; use sx, sy, sz or file:PATH")


def _pauli_pair():
    """The Pauli quorum, its dual and the number of its sampled settings."""
    quorum, dual = pauli_quorum()
    return quorum, dual, int(np.sum(_is_sampled(np.linalg.eigvalsh(quorum.elements))))


def build_runner(cfg: ExperimentConfig, system: SpinSystem, state, target, directions=None):
    """Return run(n_samples, seed) -> RunStats for the configured quorum.

    ``n_samples`` is the total sample budget; quorums with per-setting
    quotas divide it evenly over their sampled settings.
    """
    if cfg.quorum == "pauli":
        if cfg.spin_two_s != 1:
            raise ValueError("the Pauli quorum requires spin_two_s = 1")
        quorum, dual, n_active = _pauli_pair()

        def run(n: int, seed: int):
            per_setting = n // n_active
            if per_setting < cfg.n_blocks:
                raise ValueError(
                    f"n_samples = {n} gives {per_setting} per setting, "
                    f"below n_blocks = {cfg.n_blocks}"
                )
            return estimate_discrete(
                target, quorum, dual, state, per_setting,
                n_blocks=cfg.n_blocks, seed=seed,
            )

        return run

    if cfg.quorum == "continuous":
        def run(n: int, seed: int):
            return estimate_continuous(
                target, system, state, n, n_blocks=cfg.n_blocks, seed=seed
            )

        return run

    if cfg.quorum == "weigert":
        if directions is None:
            if cfg.weigert_seed is None:
                raise ValueError(
                    "the Weigert quorum needs a directions file or a weigert_seed"
                )
            directions = random_directions(system.dim**2, cfg.weigert_seed)
        wq = weigert_quorum(system, directions)

        def run(n: int, seed: int):
            per_direction = n // len(wq)
            if per_direction < cfg.n_blocks:
                raise ValueError(
                    f"n_samples = {n} gives {per_direction} per direction, "
                    f"below n_blocks = {cfg.n_blocks}"
                )
            return estimate_weigert(
                target, wq, state, per_direction, n_blocks=cfg.n_blocks, seed=seed
            )

        return run

    raise ValueError(f"unknown quorum spec {cfg.quorum!r}; use pauli, continuous or weigert")


def simulate_run(cfg: ExperimentConfig, state, target, runner):
    """Main estimate plus optional checkpoint series (n, mean, err, exact)."""
    if cfg.n_samples < cfg.n_blocks:
        raise ValueError("n_samples must be >= n_blocks")
    exact = float(state_expectation(state, target).real)
    rows = []
    for i, n in enumerate(cfg.checkpoints):
        stats = runner(int(n), derived_seed(cfg.seed, 0, i))
        rows.append((int(n), stats.mean, stats.error_bar, exact))
    main = runner(cfg.n_samples, cfg.seed)
    return main, rows, exact


def fig1_series(
    alpha: complex,
    n_max: int,
    seed: int = DEFAULT_SEED,
    n_blocks: int = 20,
    n_checkpoints: int = 20,
):
    """Continuous-vs-discrete comparison series for <S_z> on a coherent state.

    Returns (rows, exact) with one row
    (n_samples, mean_cont, err_cont, mean_disc, err_disc, exact)
    per log-spaced checkpoint.
    """
    system = make_spin_system(1)
    state = coherent_state(system, alpha)
    target = system.sz
    exact = float(state_expectation(state, target).real)
    quorum, dual, n_active = _pauli_pair()

    rows = []
    for i, n in enumerate(log_checkpoints(n_max, n_checkpoints)):
        cont = estimate_continuous(
            target, system, state, n, n_blocks=n_blocks, seed=derived_seed(seed, 0, i)
        )
        disc = estimate_discrete(
            target, quorum, dual, state, max(n_blocks, n // n_active),
            n_blocks=n_blocks, seed=derived_seed(seed, 1, i),
        )
        rows.append((n, cont.mean, cont.error_bar, disc.mean, disc.error_bar, exact))
    return rows, exact
