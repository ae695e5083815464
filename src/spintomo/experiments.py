"""Experiment orchestration: configured runs and the two-quorum comparison.

The comparison experiment reconstructs <S_z> on a spin-1/2 coherent state
with the continuous direction quorum and the discrete Pauli quorum at a
series of growing sample budgets, recording means and blocked error bars
for both.  Checkpoints are independent runs with seeds derived from
(seed, method, checkpoint), so a series is reproducible point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .estimator import _continuous_table, _discrete_table, _weigert_table, state_expectation
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One reconstruction run, checked when it is made: each value must have
    its field's type (nothing is converted), no seed may be negative, and the
    quorum must have exactly its inputs.
    """

    spin_two_s: int = 1
    state: str = "coherent:2"
    quorum: str = "pauli"
    target: str = "sz"
    n_samples: int = 100000
    n_blocks: int = 20
    seed: int = DEFAULT_SEED
    checkpoints: tuple[int, ...] = ()
    directions_file: str | None = None
    weigert_seed: int | None = None

    def __post_init__(self):
        weigert_inputs = ("directions_file", "weigert_seed")  # these two may be None
        given = [key for key in weigert_inputs if getattr(self, key) is not None]
        kinds = {"spin_two_s": "an integer", "state": "a string", "quorum": "a string",
                 "target": "a string", "n_samples": "an integer", "n_blocks": "an integer",
                 "seed": "an integer", "directions_file": "a string", "weigert_seed": "an integer"}
        for key, kind in kinds.items():
            if key in given or key not in weigert_inputs:
                serialize._checked(getattr(self, key), key, kind)
        for key in ("seed", "weigert_seed"):
            if (getattr(self, key) or 0) < 0:
                raise ValueError(f"{key} must not be negative, got {getattr(self, key)}")
        if not isinstance(self.checkpoints, (list, tuple)):
            raise ValueError(f"checkpoints must be a list of integers, got {self.checkpoints!r}")
        checkpoints = (serialize._checked(n, "checkpoints", "an integer") for n in self.checkpoints)
        object.__setattr__(self, "checkpoints", tuple(checkpoints))
        if self.quorum not in ("pauli", "continuous", "weigert"):
            raise ValueError(f"unknown quorum spec {self.quorum!r}; use pauli, continuous or weigert")
        if self.quorum != "weigert" and given:
            raise ValueError(
                f"{given[0]} applies only to the Weigert quorum, not to quorum {self.quorum!r}"
            )
        if self.quorum == "weigert" and not given:
            raise ValueError("the Weigert quorum needs a directions file or a weigert_seed")
        if len(given) == 2:
            raise ValueError("give either directions_file or weigert_seed, not both")
        if self.quorum == "pauli" and self.spin_two_s != 1:
            raise ValueError("the Pauli quorum requires spin_two_s = 1")


def derived_seed(*parts: int) -> int:
    """Deterministic child seed for (seed, method, checkpoint) triples."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def log_checkpoints(n_max: int, count: int = 20) -> list[int]:
    """Up to ``count`` log-spaced integer sample budgets from 100 to ``n_max``."""
    if count < 1:
        raise ValueError(f"the checkpoint count must be >= 1, got {count}")
    if n_max <= 100:
        return [int(n_max)]
    raw = np.geomspace(100, n_max, count)
    vals = sorted(set(int(round(v)) for v in raw))
    vals[-1] = int(n_max)
    return vals


def _load_operator(path: str) -> np.ndarray:
    return serialize.op_from_json_dict(serialize.load_json_file(path))


def resolve_state(cfg: ExperimentConfig, system: SpinSystem) -> SpinState | np.ndarray:
    kind, _, arg = cfg.state.partition(":")
    if kind == "density":
        return _load_operator(arg)
    if kind not in ("coherent", "basis"):
        raise ValueError(
            f"unknown state spec {cfg.state!r}; use coherent:A, basis:M or density:PATH"
        )
    try:
        value = complex(arg or "0") if kind == "coherent" else float(arg)
    except ValueError as err:
        number = "complex" if kind == "coherent" else "real"
        raise ValueError(f"state spec {cfg.state!r}: {arg!r} is not a {number} number") from err
    return (coherent_state if kind == "coherent" else basis_state)(system, value)


def resolve_target(cfg: ExperimentConfig, system: SpinSystem) -> np.ndarray:
    if cfg.target in ("sx", "sy", "sz"):
        return getattr(system, cfg.target)
    kind, _, arg = cfg.target.partition(":")
    if kind == "file":
        return _load_operator(arg)
    raise ValueError(f"unknown target spec {cfg.target!r}; use sx, sy, sz or file:PATH")


def build_runner(cfg: ExperimentConfig, system: SpinSystem, state, target):
    """Return run(n_samples, seed) -> RunStats for the configured quorum.

    The quorum's count table is built here, once: every run, the main
    estimate and each checkpoint alike, draws from it.  ``n_samples`` is
    the total sample budget.  Every quorum gives each of the n_active
    settings of its count table the quota n_samples // n_active, which must
    fill the blocks; the continuous grid is one pooled setting.
    """
    if cfg.quorum == "continuous":
        table = _continuous_table(target, system, state)
    elif cfg.quorum == "pauli":
        table = _discrete_table(target, *pauli_quorum(), state)
    else:  # weigert
        if cfg.directions_file is not None:
            doc = serialize.load_json_file(cfg.directions_file)
            directions = serialize.directions_from_json_list(doc)
        else:
            directions = random_directions(system.dim**2, cfg.weigert_seed)
        table = _weigert_table(target, weigert_quorum(system, directions), state)
    n_active = len(table.probs)

    def run(n: int, seed: int):
        quota = n // n_active
        if quota < cfg.n_blocks:
            raise ValueError(
                f"n_samples = {n} gives {quota} per setting, below n_blocks = {cfg.n_blocks}"
            )
        return table.estimate(quota, cfg.n_blocks, seed)

    return run


def simulate_run(cfg: ExperimentConfig):
    """Run ``cfg``: main estimate plus optional checkpoint series (n, mean, err, exact)."""
    system = make_spin_system(cfg.spin_two_s)
    state, target = resolve_state(cfg, system), resolve_target(cfg, system)
    runner = build_runner(cfg, system, state, target)
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
    per log-spaced checkpoint.  Both series run through ``build_runner``,
    so a budget that cannot fill the blocks raises ``ValueError``.
    """
    system = make_spin_system(1)
    state = coherent_state(system, alpha)
    target = system.sz
    exact = float(state_expectation(state, target).real)
    cont, disc = (
        build_runner(ExperimentConfig(quorum=q, n_blocks=n_blocks), system, state, target)
        for q in ("continuous", "pauli")
    )

    rows = []
    for i, n in enumerate(log_checkpoints(n_max, n_checkpoints)):
        c_stats, d_stats = cont(n, derived_seed(seed, 0, i)), disc(n, derived_seed(seed, 1, i))
        rows.append((n, c_stats.mean, c_stats.error_bar, d_stats.mean, d_stats.error_bar, exact))
    return rows, exact
