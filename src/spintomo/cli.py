"""Command-line front end.

Subcommands: ``quorum check``, ``quorum dual``, ``simulate``, ``fig1``.
Exit codes: 0 success / complete, 1 domain negative result (incomplete
quorum, singular Gram matrix, non-real dual coefficient), 2 usage or parse
error.  All file outputs are byte-stable for identical inputs and seeds.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import frames, serialize
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    build_runner,
    fig1_series,
    resolve_state,
    resolve_target,
    simulate_run,
)
from .estimator import DualCoefficientError
from .frames import IncompleteQuorumError, SingularGramError, Quorum
from .spin import make_spin_system, pauli_quorum


def _fail_parse(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _fail_domain(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _load_json(path: str):
    try:
        return serialize.load_json_file(path)
    except (OSError, ValueError) as err:
        _fail_parse(str(err))


def _resolve_quorum(quorum_file: str | None, pauli: bool) -> Quorum:
    if pauli and quorum_file:
        _fail_parse("give either a quorum file or --pauli, not both")
    if pauli:
        return pauli_quorum()[0]
    if not quorum_file:
        _fail_parse("a quorum file or --pauli is required")
    doc = _load_json(quorum_file)
    try:
        return serialize.quorum_from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as err:
        _fail_parse(f"{quorum_file}: not a valid quorum document: {err}")


def _report_json(report: frames.SpanningReport) -> dict:
    doc = {
        "complete": report.complete,
        "rank": report.rank,
        "rank_required": report.rank_required,
        "definitions_agree": report.definitions_agree,
        "checks": {
            name: {"passed": bool(chk.passed), "residual": float(chk.residual)}
            for name, chk in sorted(report.checks.items())
        },
        "defect_witness": None
        if report.defect_witness is None
        else serialize.op_to_pairs(report.defect_witness),
    }
    return doc


def _print_report(report: frames.SpanningReport):
    status = "complete" if report.complete else "incomplete"
    click.echo(f"quorum is {status}: rank {report.rank} of {report.rank_required}")
    for name in ("i", "ii", "iii", "iv"):
        chk = report.checks.get(name)
        if chk is None:
            continue
        verdict = "pass" if chk.passed else "FAIL"
        click.echo(f"  definition {name:>3}: residual {chk.residual:.3e}  {verdict}")
    if not report.definitions_agree:
        click.echo("  WARNING: definition verdicts disagree (internal inconsistency)")
    if report.defect_witness is not None:
        click.echo("defect witness (orthogonal to every element, unit norm):")
        click.echo(np.array2string(report.defect_witness, precision=6, suppress_small=True))


@click.group()
def main():
    """Operator-frame tomography toolkit for spin systems."""


@main.group()
def quorum():
    """Verify quorums and construct dual frames."""


@quorum.command("check")
@click.argument("quorum_file", required=False, type=click.Path())
@click.option("--pauli", is_flag=True, help="Use the built-in spin-1/2 Pauli quorum.")
@click.option("--trials", default=50, show_default=True, type=click.IntRange(min=1),
              help="Random operators per definition test.")
@click.option("--seed", default=DEFAULT_SEED, show_default=True)
@click.option("--out", type=click.Path(), help="Write the JSON report here.")
def quorum_check(quorum_file, pauli, trials, seed, out):
    """Check completeness and the four spanning-set definitions."""
    q = _resolve_quorum(quorum_file, pauli)
    report = frames.completeness_check(q)
    if report.complete:
        dual = frames.dual_via_gram_schmidt(q)
        report = frames.verify_spanning_definitions(q, dual, trials=trials, seed=seed)
    _print_report(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(_report_json(report)))
    sys.exit(0 if report.complete else 1)


@quorum.command("dual")
@click.argument("quorum_file", required=False, type=click.Path())
@click.option("--pauli", is_flag=True, help="Use the built-in spin-1/2 Pauli quorum.")
@click.option("--method", type=click.Choice(["gs", "gram"]), default="gs", show_default=True,
              help="Gram-Schmidt sweep or Gram-matrix inversion.")
@click.option("--subspace", is_flag=True,
              help="Accept an incomplete quorum and build the subspace dual.")
@click.option("--out", type=click.Path(), help="Write the dual-frame JSON here (default stdout).")
def quorum_dual(quorum_file, pauli, method, subspace, out):
    """Construct the dual frame and report its residuals."""
    q = _resolve_quorum(quorum_file, pauli)
    try:
        if method == "gs":
            dual = frames.dual_via_gram_schmidt(q, allow_subspace=subspace)
        else:
            dual = frames.dual_via_gram_inverse(q)
            # The Gram route inverts any independent set, complete or not.
            report = frames.completeness_check(q)
            if not report.complete and not subspace:
                raise IncompleteQuorumError(report)
    except IncompleteQuorumError as err:
        _print_report(err.report)
        _fail_domain(str(err))
    except SingularGramError as err:
        _fail_domain(str(err))
    duality = frames.reproducing_kernel_residual(q, dual)
    superop = frames.superop_from_frame(q.elements, dual.elements)
    frame_res = float(np.abs(superop - np.eye(q.dim**2)).max())
    click.echo(f"duality residual: {duality:.3e}", err=True)
    click.echo(f"frame identity residual: {frame_res:.3e}", err=True)
    doc = serialize.dumps(serialize.dual_to_json_dict(dual, labels=q.labels))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        click.echo(doc, nl=False)


def _resolve_seed(flag_seed, file_seed):
    if flag_seed is not None:
        return int(flag_seed)
    if file_seed is not None:
        return int(file_seed)
    env = os.environ.get("TOMO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _fail_parse(f"TOMO_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _parse_checkpoints(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        _fail_parse(f"checkpoints must be comma-separated integers, got {text!r}")


@main.command()
@click.option("--config", "config_path", type=click.Path(), help="JSON config file; flags override.")
@click.option("--spin-two-s", type=int, default=None, help="Twice the spin (dimension minus one).")
@click.option("--state", default=None, help="coherent:ALPHA, basis:M or density:PATH.")
@click.option("--quorum", "quorum_spec", default=None,
              type=click.Choice(["pauli", "continuous", "weigert"]))
@click.option("--target", default=None, help="sx, sy, sz or file:PATH (Hermitian matrix JSON).")
@click.option("--n-samples", type=int, default=None, help="Total sample budget.")
@click.option("--n-blocks", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--checkpoints", default=None, help="Comma-separated budgets for a convergence series.")
@click.option("--directions", "directions_path", type=click.Path(),
              help="Directions JSON for the Weigert quorum.")
@click.option("--weigert-seed", type=int, default=None,
              help="Seed for random Weigert directions (alternative to --directions).")
@click.option("--out", type=click.Path(), help="Write the result JSON here (default stdout).")
@click.option("--csv", "csv_path", type=click.Path(), help="Write the checkpoint series CSV here.")
def simulate(config_path, spin_two_s, state, quorum_spec, target, n_samples, n_blocks,
             seed, checkpoints, directions_path, weigert_seed, out, csv_path):
    """Run one configured Monte Carlo reconstruction."""
    file_cfg = {}
    if config_path:
        doc = _load_json(config_path)
        if not isinstance(doc, dict):
            _fail_parse(f"{config_path}: config must be a JSON object")
        file_cfg = doc

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return file_cfg.get(key, default)

    try:
        cfg = ExperimentConfig(
            spin_two_s=int(pick(spin_two_s, "spin_two_s", 1)),
            state=str(pick(state, "state", "coherent:2")),
            quorum=str(pick(quorum_spec, "quorum", "pauli")),
            target=str(pick(target, "target", "sz")),
            n_samples=int(pick(n_samples, "n_samples", 100000)),
            n_blocks=int(pick(n_blocks, "n_blocks", 20)),
            seed=_resolve_seed(seed, file_cfg.get("seed")),
            checkpoints=_parse_checkpoints(checkpoints)
            or tuple(int(c) for c in file_cfg.get("checkpoints", ())),
            directions_file=directions_path or file_cfg.get("directions_file"),
            weigert_seed=weigert_seed if weigert_seed is not None else file_cfg.get("weigert_seed"),
        )
        system = make_spin_system(cfg.spin_two_s)
        state_val = resolve_state(cfg, system)
        target_op = resolve_target(cfg, system)
        runner = build_runner(cfg, system, state_val, target_op)
    except (IncompleteQuorumError, SingularGramError) as err:
        _fail_domain(str(err))
    except (KeyError, OSError, TypeError, ValueError) as err:
        _fail_parse(str(err))

    try:
        stats, rows, exact = simulate_run(cfg, state_val, target_op, runner)
    except (IncompleteQuorumError, SingularGramError, DualCoefficientError) as err:
        _fail_domain(str(err))
    except ValueError as err:
        _fail_parse(str(err))

    doc = serialize.run_stats_to_json_dict(stats)
    doc["exact"] = float(exact)
    rendered = serialize.dumps(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        click.echo(rendered, nl=False)
    if csv_path:
        serialize.write_csv(csv_path, ["n_samples", "mean", "error_bar", "exact"], rows)


@main.command()
@click.option("--alpha", default="2", show_default=True, help="Coherent-state amplitude (complex).")
@click.option("--n-max", default=100000, show_default=True, type=int)
@click.option("--seed", type=int, default=None)
@click.option("--n-blocks", default=20, show_default=True, type=int)
@click.option("--checkpoints", "n_checkpoints", default=20, show_default=True, type=int,
              help="Number of log-spaced sample budgets.")
@click.option("--out-means", default="fig1_means.csv", show_default=True, type=click.Path())
@click.option("--out-errors", default="fig1_errors.csv", show_default=True, type=click.Path())
def fig1(alpha, n_max, seed, n_blocks, n_checkpoints, out_means, out_errors):
    """Continuous-vs-discrete comparison on a coherent spin-1/2 state.

    Writes two plot-ready CSV series: the reconstruction means with error
    bars, and the error bars alone against the sample budget.
    """
    try:
        alpha_val = complex(alpha)
    except ValueError:
        _fail_parse(f"alpha must parse as a complex number, got {alpha!r}")
    seed_val = _resolve_seed(seed, None)
    try:
        rows, _exact = fig1_series(
            alpha_val, n_max, seed=seed_val, n_blocks=n_blocks, n_checkpoints=n_checkpoints
        )
    except ValueError as err:
        _fail_parse(str(err))
    serialize.write_csv(
        out_means,
        ["n_samples", "mean_cont", "err_cont", "mean_disc", "err_disc", "exact"],
        rows,
    )
    serialize.write_csv(
        out_errors,
        ["n_samples", "err_cont", "err_disc"],
        [(n, ec, ed) for (n, _mc, ec, _md, ed, _e) in rows],
    )
    click.echo(f"wrote {out_means} and {out_errors} (seed {seed_val})", err=True)


if __name__ == "__main__":
    main()
