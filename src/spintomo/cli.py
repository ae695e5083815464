"""Command-line front end.

Subcommands: ``quorum check``, ``quorum dual``, ``simulate``, ``fig1``.
All file outputs are byte-stable for identical inputs and seeds.  Exit codes
are decided in one place, the ``_Main`` group below, which states the policy.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import frames, serialize
from .experiments import DEFAULT_SEED, ExperimentConfig, fig1_series, simulate_run
from .estimator import DualCoefficientError
from .frames import IncompleteQuorumError, SingularGramError, Quorum
from .spin import pauli_quorum


def _resolve_quorum(quorum_file: str | None, pauli: bool) -> Quorum:
    if pauli and quorum_file:
        raise ValueError("give either a quorum file or --pauli, not both")
    if pauli:
        return pauli_quorum()[0]
    if not quorum_file:
        raise ValueError("a quorum file or --pauli is required")
    doc = serialize.load_json_file(quorum_file)
    try:
        return serialize.quorum_from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{quorum_file}: not a valid quorum document: {err}") from err


def _write(text: str, path: str | None):
    """Write ``text`` to the file ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _open_outputs(*paths: str | None):
    """Open every given output path before a command writes any of them.

    A path that cannot be opened raises, and the files created here are
    removed again, so a failed command leaves no half-written set of
    outputs.  Opening for appending leaves existing files as they were.
    """
    created = []
    try:
        for path in filter(None, paths):
            existed = os.path.exists(path)
            with open(path, "a", encoding="utf-8"):
                pass
            if not existed:
                created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise


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


def _default_seed() -> int:
    """The seed of a command run without one: ``TOMO_SEED`` if it is set, else 42."""
    env = os.environ.get("TOMO_SEED")
    try:
        seed = DEFAULT_SEED if env is None else int(env)
    except ValueError as err:
        raise ValueError(f"TOMO_SEED must be an integer, got {env!r}") from err
    if seed < 0:
        raise ValueError(f"TOMO_SEED must not be negative, got {env!r}")
    return seed


class _Main(click.Group):
    """The exit-code policy of every command, decided in ``invoke``.

    Exit 0 is success (for ``quorum check``, a complete quorum).  Exit 1 is a
    negative domain result: an incomplete quorum, a Gram matrix too singular
    to invert, a non-real dual coefficient.  Exit 2 is input that describes
    no problem: a bad value, a missing or malformed file, an unwritable
    output path.  Both print one ``error:`` line on stderr.  Any other
    exception is a bug and keeps its traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (IncompleteQuorumError, SingularGramError, DualCoefficientError) as err:
            message, code = str(err), 1
            if isinstance(err, IncompleteQuorumError):
                _print_report(err.report)
                # the library names its Python argument; the CLI has a flag
                message = message.replace("allow_subspace=True", "--subspace")
        except (KeyError, OSError, TypeError, ValueError) as err:
            if isinstance(err, BrokenPipeError):
                raise  # click's own closed-pipe handling
            message, code = str(err), 2
        click.echo(f"error: {message}", err=True)
        sys.exit(code)


@click.group(cls=_Main)
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
@click.option("--seed", type=click.IntRange(min=0), default=_default_seed,
              show_default="TOMO_SEED, else 42")
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
        _write(serialize.dumps(_report_json(report)), out)
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
    # Refused before either route: the Gram route inverts any independent set,
    # complete or not, and fails on a dependent one with its own error.
    report = frames.completeness_check(q)
    if not report.complete and not subspace:
        raise IncompleteQuorumError(report)
    if method == "gs":
        dual = frames.dual_via_gram_schmidt(q, allow_subspace=subspace)
    else:
        dual = frames.dual_via_gram_inverse(q)
    duality = frames.reproducing_kernel_residual(q, dual)
    superop = frames.superop_from_frame(q.elements, dual.elements)
    frame_res = float(np.abs(superop - np.eye(q.dim**2)).max())
    click.echo(f"duality residual: {duality:.3e}", err=True)
    click.echo(f"frame identity residual: {frame_res:.3e}", err=True)
    _write(serialize.dumps(serialize.dual_to_json_dict(dual, labels=q.labels)), out)


def _parse_checkpoints(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as err:
        raise ValueError(f"checkpoints must be comma-separated integers, got {text!r}") from err


@main.command()
@click.option("--config", "config_path", type=click.Path(), help="JSON config file; flags override.")
@click.option("--spin-two-s", type=int, default=None, help="Twice the spin (dimension minus one).")
@click.option("--state", default=None, help="coherent:ALPHA, basis:M or density:PATH.")
@click.option("--quorum", default=None,
              type=click.Choice(["pauli", "continuous", "weigert"]))
@click.option("--target", default=None, help="sx, sy, sz or file:PATH (Hermitian matrix JSON).")
@click.option("--n-samples", type=int, default=None, help="Total sample budget.")
@click.option("--n-blocks", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--checkpoints", default=None, help="Comma-separated budgets for a convergence series.")
@click.option("--directions", "directions_file", type=click.Path(),
              help="Directions JSON for the Weigert quorum.")
@click.option("--weigert-seed", type=int, default=None,
              help="Seed for random Weigert directions (alternative to --directions).")
@click.option("--out", type=click.Path(), help="Write the result JSON here (default stdout).")
@click.option("--csv", "csv_path", type=click.Path(), help="Write the checkpoint series CSV here.")
def simulate(config_path, out, csv_path, **flags):
    """Run one configured Monte Carlo reconstruction."""
    file_cfg = serialize.load_json_file(config_path) if config_path else {}
    if not isinstance(file_cfg, dict):
        raise ValueError(f"{config_path}: config must be a JSON object")
    flags["checkpoints"] = _parse_checkpoints(flags["checkpoints"]) or None
    # each flag sets the ExperimentConfig field of its name and overrides the file
    values = {key: file_cfg[key] for key in flags if key in file_cfg}
    values.update((key, flag) for key, flag in flags.items() if flag is not None)
    if values.get("seed") is None:
        values["seed"] = _default_seed()
    stats, rows, exact = simulate_run(ExperimentConfig(**values))
    doc = serialize.run_stats_to_json_dict(stats)
    doc["exact"] = float(exact)
    _open_outputs(out, csv_path)
    _write(serialize.dumps(doc), out)
    if csv_path:
        serialize.write_csv(csv_path, ["n_samples", "mean", "error_bar", "exact"], rows)


@main.command()
@click.option("--alpha", default="2", show_default=True, help="Coherent-state amplitude (complex).")
@click.option("--n-max", default=100000, show_default=True, type=int)
@click.option("--seed", type=click.IntRange(min=0), default=_default_seed,
              show_default="TOMO_SEED, else 42")
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
    except ValueError as err:
        raise ValueError(f"alpha must parse as a complex number, got {alpha!r}") from err
    rows, _exact = fig1_series(
        alpha_val, n_max, seed=seed, n_blocks=n_blocks, n_checkpoints=n_checkpoints
    )
    _open_outputs(out_means, out_errors)
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
    click.echo(f"wrote {out_means} and {out_errors} (seed {seed})", err=True)


if __name__ == "__main__":
    main()
