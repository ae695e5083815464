"""spintomo benchmark: one workload, one process, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
The workload repeats whole rounds of its fixed operation sequence while
another round still fits in S seconds (at least one round).  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Details and reference figures are in
bench/README.md.
"""

import time

SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One caller on one core: BLAS must not spread a call over threads, so that
# the figures do not depend on how busy the other core is.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Time of hostspeed's reference computation on the host that the reported
# times refer to: its median over 224 samples on the 2-vCPU VM of
# bench/README.md, where single samples ranged from 0.014 to 0.026 s.
HOST_REFERENCE_S = 0.022


def parse_args():
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def import_package():
    """Import spintomo from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spintomo" / "__init__.py").is_file():
        sys.exit(f"error: no spintomo sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import spintomo
    import spintomo.cli  # noqa: F401  (the CLI layer is not imported by the package)

    if Path(spintomo.__file__).resolve().parent != (src / "spintomo").resolve():
        sys.exit(f"error: imported spintomo from {spintomo.__file__}, not from {src}")
    return spintomo


def median_per_op(rounds: list[dict], speed: list[float]) -> dict:
    """Median time of each operation over the rounds that ran it, at reference host speed.

    Every round runs the same operations, so a key names one operation.
    ``speed[r]`` scales round r's wall times to a host on which the
    reference computation of ``hostspeed`` takes HOST_REFERENCE_S.  A
    per-operation median then lets each call skip the rounds in which the
    host changed speed in the middle of the round.
    """
    times: dict = {}
    for round_times, scale in zip(rounds, speed):
        for key, t in round_times.items():
            times.setdefault(key, []).append(t * scale)
    return {key: statistics.median(ts) for key, ts in times.items()}


def layer_metrics(tracer, traced_rounds: int, overhead_s: float) -> dict:
    """Per-layer metrics, averaged per traced round."""
    per = 1.0 / traced_rounds
    self_s = tracer.self_times()
    total_s = tracer.inclusive_times()
    counts = tracer.counts
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for fn in ("estimate_continuous", "estimate_discrete", "estimate_weigert"):
        key = f"estimator.{fn}"
        samples = counts.get(f"{key}.samples", 0) * per
        put(f"{key}.self_s", self_s.get(key, 0.0) * per, "s")
        put(f"{key}.samples", samples, "count")
        put(f"{key}.ns_per_sample", total_s.get(key, 0.0) * per * 1e9 / samples if samples else 0.0, "ns")
    put("estimator.estimate_continuous.peak_traced_mb",
        counts.get("estimator.estimate_continuous.peak_traced_mb", 0.0), "MB")
    put("estimator.estimate_weigert.refused", tracer.errors("estimator.estimate_weigert") * per, "count")
    put("estimator.exact_value.self_s", per * sum(
        self_s.get(f"estimator.{k}_exact_value", 0.0) for k in ("continuous", "discrete", "weigert")), "s")
    for fn in ("completeness_check", "gram_schmidt_basis", "dual_via_gram_schmidt",
               "dual_via_gram_inverse", "verify_spanning_definitions", "reproducing_kernel_residual"):
        put(f"frames.{fn}.self_s", self_s.get(f"frames.{fn}", 0.0) * per, "s")
    put("frames.elements_in", counts.get("frames.elements_in", 0) * per, "count")
    put("frames.elements_kept", counts.get("frames.elements_kept", 0) * per, "count")
    for fn in ("weigert_quorum", "su2_orthogonality_residual", "coherent_state"):
        put(f"spin.{fn}.self_s", self_s.get(f"spin.{fn}", 0.0) * per, "s")
    put("spin.weigert_quorum.refused", tracer.errors("spin.weigert_quorum") * per, "count")
    put("liouville.eig_hermitian.calls", counts.get("liouville.eig_hermitian.calls", 0) * per, "count")
    for fn in ("eig_hermitian", "op_exp", "superop_from_frame"):
        put(f"liouville.{fn}.self_s", self_s.get(f"liouville.{fn}", 0.0) * per, "s")
    for fn in ("fig1_series", "simulate_run", "build_runner"):
        put(f"experiments.{fn}.self_s", self_s.get(f"experiments.{fn}", 0.0) * per, "s")
    put("serialize.self_s", per * sum(v for k, v in self_s.items() if k.startswith("serialize.")), "s")
    put("serialize.bytes_written", counts.get("serialize.bytes_written", 0) * per, "bytes")
    put("cli.self_s", self_s.get("cli.main", 0.0) * per, "s")
    put("trace.overhead_s", overhead_s, "s")
    return m


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args()
    pkg = import_package()

    import tracing
    from hostspeed import HostSpeed
    from workloads import WORKLOADS, Ops

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](pkg, args.seed, OUT_DIR)
    inputs = workload.inputs(0)
    meter = tracing.Meter(pkg)
    tracer = tracing.Tracer(pkg)
    setup_s = time.perf_counter() - SCRIPT_START
    host = HostSpeed()

    # Untraced rounds give the end-to-end metrics.  With --trace 1, odd
    # rounds run traced and even rounds untraced, for the overhead.
    plain, traced, metered, round_walls = [], [], [], []
    attempted = failed = 0
    failures, examples, problems = {}, {}, []
    loop_start = time.perf_counter()
    r = 0
    while True:
        host.sample()
        round_start = time.perf_counter()
        is_traced = bool(args.trace) and r % 2 == 1
        hooks = tracer if is_traced else meter
        hooks.install()
        try:
            if r > 0:
                inputs = workload.inputs(r)
            ops = Ops(tracer if is_traced else None)
            meter.reset()
            workload.run(ops, inputs)
        finally:
            hooks.uninstall()
        (traced if is_traced else plain).append(ops.times)
        if not is_traced:
            metered.append(meter.calls)
        attempted += ops.attempted
        failed += ops.failed
        for what, n in ops.failures.items():
            failures[what] = failures.get(what, 0) + n
            examples.setdefault(what, ops.examples[what])
        problems.extend(f"round {r}: {p}" for p in ops.problems)
        round_walls.append(time.perf_counter() - round_start)
        r += 1
        elapsed = time.perf_counter() - loop_start
        if elapsed + max(round_walls) > args.seconds and (not args.trace or r >= 2):
            break

    host.sample()
    # Round r ran between host samples r and r + 1.
    speed = [HOST_REFERENCE_S / ((a + b) / 2)
             for a, b in zip(map(sum, host.samples), map(sum, host.samples[1:]))]
    plain_speed = [v for i, v in enumerate(speed) if not (args.trace and i % 2 == 1)]
    traced_speed = [v for i, v in enumerate(speed) if args.trace and i % 2 == 1]

    for what, n in sorted(failures.items()):
        print(f"failed x{n}: {what} (e.g. {examples[what]})", file=sys.stderr)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload}: {r} rounds, op seconds per round "
          f"{[round(sum(t.values()), 3) for t in plain + traced]}", file=sys.stderr)
    with open(OUT_DIR / f"rounds-{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"host": host.samples,
                   "plain": [[[*k, t] for k, t in times.items()] for times in plain],
                   "estimator_calls": [[[*k, *v] for k, v in calls.items()] for calls in metered]},
                  fh)

    run_s = sum(median_per_op(plain, plain_speed).values())
    if args.trace:
        tracer.write(OUT_DIR / f"trace-{args.workload}.json")
        overhead = sum(median_per_op(traced, traced_speed).values()) - run_s
        metrics = layer_metrics(tracer, len(traced), overhead)
        metrics["host.reference_s"] = {"value": statistics.median(map(sum, host.samples)), "unit": "s"}
        metrics["run.unscaled_s"] = {
            "value": sum(median_per_op(plain, [1.0] * len(plain)).values()), "unit": "s"}
    else:
        typical = median_per_op([{k: t for k, (t, _) in calls.items()} for calls in metered],
                                plain_speed)
        shots = {k: n for calls in metered for k, (_, n) in calls.items()}
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "samples_per_s": {"value": sum(shots[k] for k in typical) / sum(typical.values())
                              if typical else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
