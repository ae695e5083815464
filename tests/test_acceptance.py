"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is asserted exactly as stated, together with the runtime
budget of each criterion.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from spintomo import (
    Quorum,
    completeness_check,
    continuous_exact_value,
    discrete_exact_value,
    dual_via_gram_inverse,
    dual_via_gram_schmidt,
    haar_volume,
    hs_norm,
    make_spin_system,
    pauli_quorum,
    random_density,
    random_directions,
    random_hermitian,
    su2_orthogonality_residual,
    verify_spanning_definitions,
    weigert_exact_value,
    weigert_quorum,
)
from spintomo.cli import main as cli_main

from conftest import psi_quadrature_kernel, random_quorum


def _finish(name: str, failures: list[str], elapsed: float, limit: float):
    if elapsed >= limit:
        failures.append(f"runtime {elapsed:.1f}s exceeded {limit:.0f}s")
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} ({elapsed:.2f}s / {limit:.0f}s budget)")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_1_pauli_dual_exactness():
    t0 = time.perf_counter()
    failures = []
    q, expected = pauli_quorum()
    for route, dual in (
        ("gram-schmidt", dual_via_gram_schmidt(q)),
        ("gram-inverse", dual_via_gram_inverse(q)),
    ):
        worst = max(
            np.abs(b - e).max() for b, e in zip(dual.elements, expected.elements)
        )
        if worst > 1e-12:
            failures.append(f"{route} dual deviates entrywise by {worst:.2e} > 1e-12")
    _finish("1 pauli-dual-exactness", failures, time.perf_counter() - t0, 1.0)


def test_criterion_2_spanning_definition_equivalence():
    t0 = time.perf_counter()
    failures = []
    for i in range(20):
        dim = 2 if i % 2 == 0 else 3
        make_complete = i % 4 < 2
        count = dim * dim if make_complete else dim * dim - 2
        q = random_quorum(dim, count, seed=1000 + i)
        if make_complete:
            dual = dual_via_gram_inverse(q)
        else:
            dual = dual_via_gram_schmidt(q, allow_subspace=True)
        report = verify_spanning_definitions(q, dual, trials=50, seed=i)
        verdicts = {name: chk.passed for name, chk in report.checks.items()}
        if len(set(verdicts.values())) != 1:
            failures.append(f"case {i}: definitions disagree: {verdicts}")
        if report.complete != make_complete:
            failures.append(f"case {i}: expected complete={make_complete}")
        if make_complete:
            worst = max(chk.residual for chk in report.checks.values())
            if worst > 1e-9:
                failures.append(f"case {i}: complete residual {worst:.2e} > 1e-9")
    _finish("2 spanning-definition-equivalence", failures, time.perf_counter() - t0, 10.0)


def test_criterion_3_dual_route_agreement():
    t0 = time.perf_counter()
    failures = []
    for i in range(12):
        dim = 2 if i % 2 == 0 else 3
        q = random_quorum(dim, dim * dim, seed=2000 + i)
        gs = dual_via_gram_schmidt(q)
        gram = dual_via_gram_inverse(q)
        worst = max(hs_norm(a - b) for a, b in zip(gs.elements, gram.elements))
        if worst > 1e-8:
            failures.append(f"case {i} (d={dim}): route disagreement {worst:.2e} > 1e-8")
    _finish("3 dual-route-agreement", failures, time.perf_counter() - t0, 10.0)


def test_criterion_4_su2_orthogonality():
    t0 = time.perf_counter()
    failures = []
    res_half = su2_orthogonality_residual(make_spin_system(1), (32, 32, 64))
    if res_half > 1e-6:
        failures.append(f"s=1/2 residual {res_half:.2e} > 1e-6 on (32,32,64)")
    res_one = su2_orthogonality_residual(make_spin_system(2), (48, 48, 96))
    if res_one > 1e-5:
        failures.append(f"s=1 residual {res_one:.2e} > 1e-5 on (48,48,96)")
    vol = haar_volume((32, 32, 64))
    if abs(vol - 4 * np.pi**2) > 1e-10:
        failures.append(f"Haar volume {vol!r} deviates from 4*pi^2 beyond quadrature accuracy")
    _finish("4 su2-orthogonality", failures, time.perf_counter() - t0, 60.0)


def test_criterion_5_exact_probability_identity():
    t0 = time.perf_counter()
    failures = []

    def run_cases(label, dim, value_fn, n_cases=50, seed=0):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_cases):
            a = random_hermitian(dim, rng)
            rho = random_density(dim, rng)
            worst = max(worst, abs(value_fn(a, rho) - np.trace(rho @ a).real))
        if worst > 1e-10:
            failures.append(f"{label}: worst identity deviation {worst:.2e} > 1e-10")

    q, dual = pauli_quorum()
    run_cases("pauli s=1/2", 2, lambda a, rho: discrete_exact_value(a, q, dual, rho), seed=50)

    for two_s in (1, 2):
        sys_ = make_spin_system(two_s)
        run_cases(
            f"continuous s={sys_.s:g}", sys_.dim,
            lambda a, rho, s=sys_: continuous_exact_value(a, s, rho), seed=60 + two_s,
        )

    # the Weigert reconstruction carries no extra factor of s: at s = 1/2 a
    # factor would halve every value and fail the identity
    for two_s in (1, 2):
        sys_ = make_spin_system(two_s)
        wq = weigert_quorum(sys_, random_directions(sys_.dim**2, seed=70 + two_s))
        run_cases(
            f"weigert s={sys_.s:g}", sys_.dim,
            lambda a, rho, w=wq: weigert_exact_value(a, w, rho), seed=80 + two_s,
        )

    _finish("5 exact-probability-identity", failures, time.perf_counter() - t0, 60.0)


def test_criterion_6_fig1_reproduction(tmp_path):
    t0 = time.perf_counter()
    failures = []
    runner = CliRunner()
    means_path = tmp_path / "fig1_means.csv"
    errors_path = tmp_path / "fig1_errors.csv"
    result = runner.invoke(
        cli_main,
        [
            "fig1", "--alpha", "2", "--n-max", "100000", "--seed", "42",
            "--out-means", str(means_path), "--out-errors", str(errors_path),
        ],
    )
    if result.exit_code != 0:
        failures.append(f"fig1 failed: {result.output}")
        _finish("6 fig1-reproduction", failures, time.perf_counter() - t0, 120.0)
        return

    rows = np.loadtxt(means_path, delimiter=",", skiprows=1)
    n, mean_cont, err_cont, mean_disc, err_disc, exact = rows.T
    target = -np.cos(4) / 2
    if abs(exact[0] - target) > 1e-12:
        failures.append(f"exact column {exact[0]!r} is not -cos(4)/2")
    for name, mean, err in (("continuous", mean_cont, err_cont), ("discrete", mean_disc, err_disc)):
        dev = abs(mean[-1] - target)
        if dev > 3 * err[-1]:
            failures.append(f"{name}: final |mean - exact| = {dev:.2e} > 3 * {err[-1]:.2e}")

    decade_idx = [int(np.argmin(np.abs(n - t))) for t in (100, 1000, 10000, 100000)]
    for name, err in (("continuous", err_cont), ("discrete", err_disc)):
        for a, b in zip(decade_idx, decade_idx[1:]):
            expected = np.sqrt(n[b] / n[a])
            factor = (err[a] / err[b]) / expected
            if not (1 / 1.5 <= factor <= 1.5):
                failures.append(
                    f"{name}: error-bar scaling factor {factor:.2f} outside [1/1.5, 1.5] "
                    f"between N={int(n[a])} and N={int(n[b])}"
                )

    ratio = err_cont[-1] / err_disc[-1]
    if not (0.5 <= ratio <= 2.0):
        failures.append(f"continuous/discrete error-bar ratio {ratio:.2f} outside [1/2, 2]")
    _finish("6 fig1-reproduction", failures, time.perf_counter() - t0, 120.0)


def test_criterion_7_kernel_quadrature_agreement():
    t0 = time.perf_counter()
    failures = []
    from spintomo import continuous_kernel

    worst = 0.0
    for two_s in (1, 2, 3):
        sys_ = make_spin_system(two_s)
        rng = np.random.default_rng(700 + two_s)
        for n in random_directions(3, seed=710 + two_s):
            a = random_hermitian(sys_.dim, rng)
            for i in range(sys_.dim):
                m = i - sys_.s
                got = continuous_kernel(a, sys_, m, n)
                want = psi_quadrature_kernel(a, sys_, m, n, n_psi=512)
                worst = max(worst, abs(got - want))
    if worst > 1e-8:
        failures.append(f"worst kernel/quadrature deviation {worst:.2e} > 1e-8")
    _finish("7 kernel-quadrature-agreement", failures, time.perf_counter() - t0, 30.0)


def test_criterion_8_byte_identical_outputs(tmp_path):
    t0 = time.perf_counter()
    failures = []
    runner = CliRunner()

    sim_blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}.json"
        result = runner.invoke(
            cli_main,
            [
                "simulate", "--quorum", "continuous", "--n-samples", "20000",
                "--seed", "42", "--checkpoints", "1000,20000",
                "--out", str(out), "--csv", str(tmp_path / f"sim_{tag}.csv"),
            ],
        )
        if result.exit_code != 0:
            failures.append(f"simulate failed: {result.output}")
        else:
            sim_blobs.append(out.read_bytes() + (tmp_path / f"sim_{tag}.csv").read_bytes())
    if len(sim_blobs) == 2 and sim_blobs[0] != sim_blobs[1]:
        failures.append("simulate outputs are not byte-identical across reruns")

    fig_blobs = []
    for tag in ("a", "b"):
        means = tmp_path / f"m_{tag}.csv"
        errors = tmp_path / f"e_{tag}.csv"
        result = runner.invoke(
            cli_main,
            [
                "fig1", "--alpha", "2", "--n-max", "20000", "--seed", "42",
                "--out-means", str(means), "--out-errors", str(errors),
            ],
        )
        if result.exit_code != 0:
            failures.append(f"fig1 failed: {result.output}")
        else:
            fig_blobs.append(means.read_bytes() + errors.read_bytes())
    if len(fig_blobs) == 2 and fig_blobs[0] != fig_blobs[1]:
        failures.append("fig1 outputs are not byte-identical across reruns")

    _finish("8 deterministic-outputs", failures, time.perf_counter() - t0, 120.0)
