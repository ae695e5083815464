"""The benchmark's three workloads.

Each workload builds its inputs for round ``r`` from the generator seeded with
``(seed, r)`` and then runs a fixed sequence of program calls through an
``Ops`` object, which times each call, counts it as attempted and, if it
raises, as failed.  Checks against ``reference`` run outside the timed calls.
The only calls expected to fail are the Weigert d = 8 refusals in
``frames-weigert``, whose inputs do not depend on the seed.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import reference as ref


class Ops:
    """Times the program calls of one round and collects failures and check results."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        # Wall time of each call, keyed by (label, occurrence within the round).
        self.times: dict[tuple[str, int], float] = {}
        self._seen: Counter[str] = Counter()
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.examples: dict[str, str] = {}
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def call(self, label: str, fn, *args, **kwargs):
        """Run one program operation; returns None if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.span(f"op.{label}", fn, *args, **kwargs)
        except Exception as err:  # counted as a failed operation, never fatal
            key = f"{label}: {type(err).__name__}"
            self.failures[key] += 1
            self.examples.setdefault(key, str(err))
            return None
        finally:
            self.times[(label, self._seen[label])] = perf_counter() - t0
            self._seen[label] += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def run_cli(pkg, tracer, args: list[str]) -> str:
    """Invoke ``spintomo <args>`` in-process; returns its stdout, raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()

    def invoke():
        try:
            pkg.cli.main.main(args=args, prog_name="spintomo", standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (None, 0):
                raise RuntimeError(f"spintomo {args[0]} exited {exc.code}: {err.getvalue()}")

    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            invoke()
        else:
            tracer.span("cli.main", invoke)
    return out.getvalue()


def op_pairs(a: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=complex).reshape(-1)]


def complex_arg(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def random_alpha(rng: np.random.Generator) -> complex:
    return complex(rng.uniform(0.3, 1.2) * np.exp(2j * np.pi * rng.uniform()))


def exact_tol(n: int, kappa: float, a: np.ndarray) -> float:
    """Roundoff tolerance of an exact-value identity for target a."""
    return ref.roundoff_bound(n, kappa) * (1.0 + float(np.linalg.norm(a)))


def check_estimate(ops: Ops, label: str, stats, exact: float, shots: int) -> None:
    ops.check(stats.n_samples == shots, f"{label}: {stats.n_samples} shots, expected {shots}")
    ops.check(
        ref.within_error_bars(stats.mean, stats.error_bar, exact),
        f"{label}: mean {stats.mean} vs exact {exact}, error bar {stats.error_bar}",
    )


class ContinuousSpin:
    """Continuous S.n quorum: batched per-sample eigensystems at d = 16 and d = 8."""

    N16 = 10_000  # samples per d = 16 estimate
    N8 = 15_000  # samples of the d = 8 mixed-state estimate
    SU2_TWO_S = 7  # su2_orthogonality_residual at s = 7/2 ...
    SU2_GRID = (16, 16, 32)  # ... on this grid
    SU2_BOUND = 1e-12

    def __init__(self, pkg, seed: int, out_dir):
        self.pkg, self.seed = pkg, seed

    def inputs(self, r: int) -> dict:
        pkg, rng = self.pkg, np.random.default_rng([self.seed, r])
        alpha = random_alpha(rng)
        sys16, sys8 = pkg.make_spin_system(15), pkg.make_spin_system(7)
        return {
            "alpha": alpha,
            "sys16": sys16,
            "state16": pkg.coherent_state(sys16, alpha),
            "a16": ref.random_hermitian(16, rng),
            "sys8": sys8,
            "rho8": ref.random_density(8, rng),
            "a8": ref.random_hermitian(8, rng),
            "sys_su2": pkg.make_spin_system(self.SU2_TWO_S),
            "seeds": [int(s) for s in rng.integers(0, 2**31, size=3)],
        }

    def run(self, ops: Ops, inp: dict) -> None:
        pkg = self.pkg
        alpha, sys16, state16 = inp["alpha"], inp["sys16"], inp["state16"]
        psi16 = ref.coherent_amplitudes(15, alpha)
        cases = [
            ("sz@16", sys16.sz, sys16, state16, self.N16, ref.coherent_sz(15, alpha)),
            ("herm@16", inp["a16"], sys16, state16, self.N16, ref.expectation(psi16, inp["a16"])),
            ("herm@8-mixed", inp["a8"], inp["sys8"], inp["rho8"], self.N8,
             ref.expectation(inp["rho8"], inp["a8"])),
        ]
        for (label, a, system, state, n, exact), seed in zip(cases, inp["seeds"]):
            stats = ops.call(f"estimate_continuous[{label}]", pkg.estimate_continuous,
                             a, system, state, n, seed=seed)
            if stats is not None:
                check_estimate(ops, label, stats, exact, n)
            value = ops.call(f"continuous_exact_value[{label}]", pkg.continuous_exact_value,
                             a, system, state)
            if value is not None:
                ops.check(abs(value - exact) <= exact_tol(system.dim**2, 1.0, a),
                          f"continuous_exact_value[{label}] = {value}, Tr[rho A] = {exact}")
        residual = ops.call("su2_orthogonality_residual", pkg.su2_orthogonality_residual,
                            inp["sys_su2"], self.SU2_GRID)
        if residual is not None:
            ops.check(residual <= self.SU2_BOUND,
                      f"SU(2) residual {residual} above {self.SU2_BOUND} at grid {self.SU2_GRID}")


class SpinHalf:
    """Spin 1/2 through the CLI (fig1, simulate) plus one uniform Pauli estimate."""

    FIG1_N_MAX = 100_000
    SIM_SHOTS = 21_000_000  # a multiple of the three Pauli settings
    SIM_CHECKPOINTS = (10_000, 100_000, 1_000_000, 10_000_000)
    UNIFORM_PER_SETTING = 1_000_000
    # Blocked error bars are checked where each of the 20 blocks holds at
    # least 100 shots; below that a block mean takes few values and the
    # blocking estimate can even read 0.
    MIN_CHECKED_BUDGET = 2_000

    def __init__(self, pkg, seed: int, out_dir):
        self.pkg, self.seed, self.out = pkg, seed, out_dir

    def inputs(self, r: int) -> dict:
        pkg, rng = self.pkg, np.random.default_rng([self.seed, r])
        alpha = random_alpha(rng)
        target = ref.random_hermitian(2, rng)
        target_path = self.out / "spin-half-target.json"
        with open(target_path, "w", encoding="utf-8") as fh:
            json.dump({"dim": 2, "entries": op_pairs(target)}, fh)
        system = pkg.make_spin_system(1)
        return {
            "alpha": alpha,
            "target": target,
            "target_path": target_path,
            "state": pkg.coherent_state(system, alpha),
            "seeds": [int(s) for s in rng.integers(0, 2**31, size=3)],
        }

    def run(self, ops: Ops, inp: dict) -> None:
        pkg, out = self.pkg, self.out
        alpha, target = inp["alpha"], inp["target"]
        exact_sz = ref.coherent_sz(1, alpha)
        exact_t = ref.expectation(ref.coherent_amplitudes(1, alpha), target)
        fig1_seed, sim_seed, uni_seed = inp["seeds"]

        means, errors = out / "fig1_means.csv", out / "fig1_errors.csv"
        sim_json, sim_csv = out / "simulate.json", out / "simulate.csv"
        for stale in (means, errors, sim_json, sim_csv):  # a file left by an earlier round
            stale.unlink(missing_ok=True)
        if ops.call("cli.fig1", run_cli, pkg, ops.tracer, [
            "fig1", "--alpha", complex_arg(alpha), "--n-max", str(self.FIG1_N_MAX),
            "--seed", str(fig1_seed), "--out-means", str(means), "--out-errors", str(errors),
        ]) is not None:
            self.check_fig1(ops, means, errors, exact_sz)

        if ops.call("cli.simulate", run_cli, pkg, ops.tracer, [
            "simulate", "--quorum", "pauli", "--spin-two-s", "1",
            "--state", f"coherent:{complex_arg(alpha)}", "--target", f"file:{inp['target_path']}",
            "--n-samples", str(self.SIM_SHOTS), "--seed", str(sim_seed),
            "--checkpoints", ",".join(map(str, self.SIM_CHECKPOINTS)),
            "--out", str(sim_json), "--csv", str(sim_csv),
        ]) is not None:
            self.check_simulate(ops, sim_json, sim_csv, exact_t)

        pair = ops.call("pauli_quorum", pkg.pauli_quorum)
        if pair is None:
            return
        quorum, dual = pair
        stats = ops.call("estimate_discrete[uniform]", pkg.estimate_discrete, target, quorum, dual,
                         inp["state"], self.UNIFORM_PER_SETTING, seed=uni_seed, selection="uniform")
        if stats is not None:
            check_estimate(ops, "estimate_discrete[uniform]", stats, exact_t,
                           3 * self.UNIFORM_PER_SETTING)

    def check_fig1(self, ops: Ops, means_path, errors_path, exact: float) -> None:
        header, rows = read_csv(means_path)
        ops.check(header == ["n_samples", "mean_cont", "err_cont", "mean_disc", "err_disc", "exact"],
                  f"fig1 means header {header}")
        budgets = [int(row[0]) for row in rows]
        ops.check(budgets == ref.log_budgets(self.FIG1_N_MAX),
                  f"fig1 budgets {budgets} are not the log-spaced checkpoints")
        for n, mc, ec, md, ed, ex in rows:
            ops.check(abs(ex - exact) <= 1e-15 * 4, f"fig1 exact column {ex} != -s cos 2|alpha| = {exact}")
            if n >= self.MIN_CHECKED_BUDGET:
                ops.check(ref.within_error_bars(mc, ec, exact), f"fig1 continuous n={n}: {mc} +- {ec}")
                ops.check(ref.within_error_bars(md, ed, exact), f"fig1 discrete n={n}: {md} +- {ed}")
        header_e, rows_e = read_csv(errors_path)
        ops.check(header_e == ["n_samples", "err_cont", "err_disc"], f"fig1 errors header {header_e}")
        ops.check(rows_e == [[r[0], r[2], r[4]] for r in rows], "fig1 error series != means series")

    def check_simulate(self, ops: Ops, json_path, csv_path, exact: float) -> None:
        with open(json_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        ops.check(doc["estimator"] == "discrete" and doc["n_samples"] == self.SIM_SHOTS,
                  f"simulate result {doc['estimator']} with {doc['n_samples']} shots")
        ops.check(abs(doc["exact"] - exact) <= exact_tol(4, 1.0, np.eye(2)),
                  f"simulate exact {doc['exact']} != Tr[rho A] = {exact}")
        ops.check(ref.within_error_bars(doc["mean"], doc["error_bar"], exact),
                  f"simulate mean {doc['mean']} +- {doc['error_bar']} vs {exact}")
        header, rows = read_csv(csv_path)
        ops.check(header == ["n_samples", "mean", "error_bar", "exact"], f"simulate CSV header {header}")
        ops.check([int(r[0]) for r in rows] == list(self.SIM_CHECKPOINTS), "simulate CSV budgets")
        for n, mean, err, ex in rows:
            ops.check(ex == doc["exact"], f"simulate CSV exact {ex} != {doc['exact']}")
            ops.check(ref.within_error_bars(mean, err, exact), f"simulate n={n}: {mean} +- {err}")


class FramesWeigert:
    """Quorum analysis (rank, duals, definitions, JSON, CLI) and Weigert reconstruction."""

    RANDOM_DIMS = (8, 12, 16)
    DISCRETE_PER_SETTING = 200
    OVER_DIM, OVER_EXTRA = 10, 10  # d^2 elements plus OVER_EXTRA interleaved combinations
    INCOMPLETE_DIM = 8  # d^2 - 1 elements
    # Direction seeds the Gram condition cap accepts; at d = 4 and 6 these
    # leave every generic target far below the non-real-coefficient threshold.
    WEIGERT_SEEDS = {4: (1, 2), 6: (2, 5), 8: (0, 1, 2)}
    WEIGERT_TARGETS = 3  # seed-dependent targets per d = 4, 6 quorum
    # d = 8 targets are fixed, independent of --seed: 10 of the 30
    # (target, quorum) pairs are refused ("non-real dual coefficient") by the
    # cond(C)^2 error of the Gram dual.  With this target seed every pair's
    # imaginary part lies at least 1.4x away from the refusal threshold, so
    # the count does not hinge on the last bits of roundoff.
    D8_TARGET_SEED, D8_TARGETS = 11, 10
    WEIGERT_PER_DIRECTION = 2_000
    # Random quorums are redrawn until cond(C) < MAX_COND.  cond(C) of a random
    # Hermitian quorum has a heavy tail (about 1 in 10^3 draws lands above
    # 1e5 at d = 8), and beyond cond(C)^2 = 1e12 dual_via_gram_inverse refuses
    # the set as nearly dependent, which would fail only on some seeds.
    MAX_COND = 1e5

    def __init__(self, pkg, seed: int, out_dir):
        self.pkg, self.seed, self.out = pkg, seed, out_dir
        self.d8_targets = [
            ref.random_hermitian(8, np.random.default_rng([self.D8_TARGET_SEED, j]))
            for j in range(self.D8_TARGETS)
        ]

    def random_quorum(self, rng, d: int, n: int) -> tuple[list, float]:
        """n random Hermitian d x d elements with cond(C) < MAX_COND, and that cond(C)."""
        while True:
            elements = [ref.random_hermitian(d, rng) for _ in range(n)]
            cond = ref.condition(elements)
            if cond < self.MAX_COND:
                return elements, cond

    def inputs(self, r: int) -> dict:
        pkg, rng = self.pkg, np.random.default_rng([self.seed, r])
        randoms = []
        for d in self.RANDOM_DIMS:
            elements, cond = self.random_quorum(rng, d, d * d)
            randoms.append({
                "elements": elements,
                "cond": cond,
                "quorum": pkg.Quorum.from_elements(elements),
                "target": ref.random_hermitian(d, rng),
                "rho": ref.random_density(d, rng),
            })

        d, n_total = self.OVER_DIM, self.OVER_DIM**2 + self.OVER_EXTRA
        independent, over_cond = self.random_quorum(rng, d, d * d)
        combos = set(int(i) for i in rng.choice(np.arange(2, n_total), self.OVER_EXTRA, replace=False))
        over, emitted = [], 0
        for i in range(n_total):
            if i in combos:
                pick = rng.choice(emitted, size=min(3, emitted), replace=False)
                over.append(sum(rng.uniform(-1, 1) * independent[j] for j in pick))
            else:
                over.append(independent[emitted])
                emitted += 1
        over_path = self.out / "overcomplete-quorum.json"
        with open(over_path, "w", encoding="utf-8") as fh:
            json.dump({"dim": d, "elements": [op_pairs(c) for c in over],
                       "labels": [f"C_{i}" for i in range(n_total)]}, fh)

        inc, inc_cond = self.random_quorum(rng, self.INCOMPLETE_DIM, self.INCOMPLETE_DIM**2 - 1)

        weigert = []
        for d, dir_seeds in self.WEIGERT_SEEDS.items():
            system = pkg.make_spin_system(d - 1)
            for ds in dir_seeds:
                targets = (self.d8_targets if d == 8 else
                           [ref.random_hermitian(d, rng) for _ in range(self.WEIGERT_TARGETS)])
                weigert.append({
                    "label": f"d{d}/s{ds}",
                    "system": system,
                    "directions": pkg.random_directions(d * d, ds),
                    "targets": targets,
                    "rho": ref.random_density(d, rng),
                })
        return {
            "randoms": randoms,
            "over": {"elements": over, "cond": over_cond, "quorum": pkg.Quorum.from_elements(over),
                     "kept": [i not in combos for i in range(n_total)], "path": over_path},
            "inc": {"elements": inc, "cond": inc_cond, "quorum": pkg.Quorum.from_elements(inc)},
            "weigert": weigert,
            "seed": int(rng.integers(0, 2**31)),
        }

    # -- checks ---------------------------------------------------------------

    def check_dual(self, ops: Ops, label: str, dual, elements, kappa: float, kept=None) -> None:
        """Duality and distance to the pinv reference on the kept elements.

        kappa is the condition number of what the route inverts: cond(C)
        for the Gram-Schmidt sweep, cond(G) = cond(C)^2 for the Gram route.
        """
        kept = kept or [True] * len(elements)
        ops.check(list(dual.kept_mask) == list(kept), f"{label}: kept_mask {dual.kept_mask}")
        keep = [i for i, k in enumerate(kept) if k]
        quorum_cols = ref.columns([elements[i] for i in keep])
        dual_cols = ref.columns([dual.elements[i] for i in keep])
        bound = ref.roundoff_bound(len(elements), kappa)
        scale = float(np.abs(dual_cols).max() * np.abs(quorum_cols).max() * quorum_cols.shape[0])
        residual = ref.duality_residual(dual_cols, quorum_cols)
        ops.check(residual <= bound * scale, f"{label}: duality residual {residual:.3e}")
        distance = ref.relative_distance(dual_cols, ref.pinv_dual([elements[i] for i in keep]))
        ops.check(distance <= bound, f"{label}: {distance:.3e} from the pinv dual, bound {bound:.3e}")
        dropped = [dual.elements[i] for i, k in enumerate(kept) if not k]
        ops.check(all(not np.any(b) for b in dropped), f"{label}: nonzero dual at a dropped element")

    def check_kernel(self, ops: Ops, label: str, residual, elements, dual, kappa: float) -> None:
        scale = max(float(np.linalg.norm(c)) for c in elements) + max(
            float(np.linalg.norm(b)) for b in dual.elements)
        bound = ref.roundoff_bound(len(elements), kappa) * scale
        ops.check(residual <= bound, f"{label}: reproducing-kernel residual {residual:.3e} > {bound:.3e}")

    def check_roundtrip(self, ops: Ops, label: str, loaded, dual) -> None:
        same = (loaded is not None and loaded.kept_mask == dual.kept_mask
                and all(np.array_equal(x, y) for x, y in zip(loaded.elements, dual.elements)))
        ops.check(same, f"{label}: JSON round trip changed the dual")

    def roundtrip(self, dual, labels, path):
        serialize = self.pkg.serialize
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(serialize.dual_to_json_dict(dual, labels=labels)))
        return serialize.dual_from_json_dict(serialize.load_json_file(path))

    # -- the round --------------------------------------------------------------

    def run(self, ops: Ops, inp: dict) -> None:
        pkg, seed = self.pkg, inp["seed"]
        for k, case in enumerate(inp["randoms"]):
            q, elements = case["quorum"], case["elements"]
            label, n, cond = f"random d={q.dim}", len(elements), case["cond"]
            report = ops.call("completeness_check", pkg.completeness_check, q)
            if report is not None:
                ops.check(report.complete and report.rank == ref.rank(elements) == n
                          and report.defect_witness is None, f"{label}: report {report.rank}")
            gs = ops.call("dual_via_gram_schmidt", pkg.dual_via_gram_schmidt, q)
            if gs is not None:
                self.check_dual(ops, f"{label} gs", gs, elements, cond)
            gi = ops.call("dual_via_gram_inverse", pkg.dual_via_gram_inverse, q)
            if gi is not None:
                self.check_dual(ops, f"{label} gram", gi, elements, cond**2)
            if gs is None:
                continue
            spans = ops.call("verify_spanning_definitions", pkg.verify_spanning_definitions, q, gs)
            if spans is not None:
                ops.check(spans.complete and spans.definitions_agree
                          and all(c.passed for c in spans.checks.values()),
                          f"{label}: spanning definitions {spans.checks}")
            kres = ops.call("reproducing_kernel_residual", pkg.reproducing_kernel_residual, q, gs)
            if kres is not None:
                self.check_kernel(ops, label, kres, elements, gs, cond)
            loaded = ops.call("dual_json_roundtrip", self.roundtrip, gs, q.labels,
                              self.out / f"dual-random-{q.dim}.json")
            self.check_roundtrip(ops, label, loaded, gs)
            a, rho = case["target"], case["rho"]
            exact = ref.expectation(rho, a)
            stats = ops.call("estimate_discrete", pkg.estimate_discrete, a, q, gs, rho,
                             self.DISCRETE_PER_SETTING, seed=seed + k)
            if stats is not None:
                check_estimate(ops, f"{label} estimate_discrete", stats, exact,
                               self.DISCRETE_PER_SETTING * n)
            value = ops.call("discrete_exact_value", pkg.discrete_exact_value, a, q, gs, rho)
            if value is not None:
                ops.check(abs(value - exact) <= exact_tol(n, cond, a),
                          f"{label}: discrete_exact_value {value} != Tr[rho A] = {exact}")

        self.run_overcomplete(ops, inp["over"])
        self.run_incomplete(ops, inp["inc"])
        for case in inp["weigert"]:
            self.run_weigert(ops, case, seed)

    def run_overcomplete(self, ops: Ops, over: dict) -> None:
        pkg, q, elements, kept = self.pkg, over["quorum"], over["elements"], over["kept"]
        label, d2, cond = f"overcomplete d={q.dim}", q.dim**2, over["cond"]
        report = ops.call("completeness_check", pkg.completeness_check, q)
        if report is not None:
            ops.check(report.complete and report.rank == ref.rank(elements) == d2,
                      f"{label}: rank {report.rank}")
        gs = ops.call("dual_via_gram_schmidt", pkg.dual_via_gram_schmidt, q)
        if gs is None:
            return
        self.check_dual(ops, f"{label} gs", gs, elements, cond, kept=kept)
        spans = ops.call("verify_spanning_definitions", pkg.verify_spanning_definitions, q, gs)
        if spans is not None:
            ops.check(spans.complete and spans.definitions_agree
                      and all(c.passed for c in spans.checks.values()), f"{label}: definitions")
        # The residual's value is not checked here: for a dependent quorum its
        # dual-side term tests sum_n conj(delta(n, n')) B_n = B_n', which does
        # not hold for the zero duals of dropped elements (the kernel identity
        # is sum_n' conj(delta(n, n')) B_n' = B_n).  See CHANGES.md.
        ops.call("reproducing_kernel_residual", pkg.reproducing_kernel_residual, q, gs)
        loaded = ops.call("dual_json_roundtrip", self.roundtrip, gs, q.labels,
                          self.out / "dual-overcomplete.json")
        self.check_roundtrip(ops, label, loaded, gs)

        report_path, dual_path = self.out / "cli-check.json", self.out / "cli-dual.json"
        for stale in (report_path, dual_path):  # a file left by an earlier round
            stale.unlink(missing_ok=True)
        text = ops.call("cli.quorum_check", run_cli, pkg, ops.tracer,
                        ["quorum", "check", str(over["path"]), "--out", str(report_path)])
        if text is not None:
            with open(report_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            ops.check(doc["complete"] and doc["rank"] == d2 and doc["definitions_agree"]
                      and all(c["passed"] for c in doc["checks"].values()),
                      f"{label}: CLI check report {doc['rank']} {doc['checks']}")
        if ops.call("cli.quorum_dual", run_cli, pkg, ops.tracer,
                    ["quorum", "dual", str(over["path"]), "--method", "gs", "--out", str(dual_path)]) is not None:
            with open(dual_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            cli_dual = [ref.as_matrix(p, q.dim) for p in doc["elements"]]
            self.check_dual(ops, f"{label} CLI gs",
                            SimpleNamespace(elements=cli_dual, kept_mask=tuple(doc["kept_mask"])),
                            elements, cond, kept=kept)

    def run_incomplete(self, ops: Ops, inc: dict) -> None:
        pkg, q, elements = self.pkg, inc["quorum"], inc["elements"]
        label, n, cond = f"incomplete d={q.dim}", len(elements), inc["cond"]
        report = ops.call("completeness_check", pkg.completeness_check, q)
        if report is not None:
            w = report.defect_witness
            ok = not report.complete and report.rank == ref.rank(elements) == n and w is not None
            if ok:
                sigma_max = float(np.linalg.norm(ref.columns(elements), 2))
                overlaps = np.abs(ref.columns([w]).conj().T @ ref.columns(elements))
                ok = (abs(np.linalg.norm(w) - 1.0) <= 1e-12
                      and overlaps.max() <= ref.roundoff_bound(n, 1.0) * sigma_max)
            ops.check(ok, f"{label}: rank {report.rank}, witness not unit-norm and orthogonal")
        gs = ops.call("dual_via_gram_schmidt", pkg.dual_via_gram_schmidt, q, allow_subspace=True)
        if gs is not None:
            self.check_dual(ops, f"{label} gs", gs, elements, cond)
        gi = ops.call("dual_via_gram_inverse", pkg.dual_via_gram_inverse, q)
        if gi is not None:
            self.check_dual(ops, f"{label} gram", gi, elements, cond**2)
        if gs is None:
            return
        spans = ops.call("verify_spanning_definitions", pkg.verify_spanning_definitions, q, gs)
        if spans is not None:
            ops.check(not spans.complete and spans.rank == n and spans.definitions_agree
                      and not any(c.passed for c in spans.checks.values()),
                      f"{label}: definitions {spans.checks}")
        kres = ops.call("reproducing_kernel_residual", pkg.reproducing_kernel_residual, q, gs)
        if kres is not None:
            self.check_kernel(ops, label, kres, elements, gs, cond)
        loaded = ops.call("dual_json_roundtrip", self.roundtrip, gs, q.labels,
                          self.out / "dual-incomplete.json")
        self.check_roundtrip(ops, label, loaded, gs)

    def run_weigert(self, ops: Ops, case: dict, seed: int) -> None:
        pkg, system = self.pkg, case["system"]
        label, d = f"weigert {case['label']}", system.dim
        wq = ops.call("weigert_quorum", pkg.weigert_quorum, system, case["directions"])
        if wq is None:
            return
        sx, sy, sz = ref.spin_matrices(system.two_s)
        top = []
        for n, p in zip(case["directions"], wq.projectors):
            v = n.unit_vector
            top.append(ref.expectation(p, v[0] * sx + v[1] * sy + v[2] * sz))
        ops.check(all(abs(t - system.two_s / 2) <= 1e-12 * d for t in top)
                  and all(abs(np.trace(p).real - 1) <= 1e-12 for p in wq.projectors),
                  f"{label}: projectors are not the maximal-spin states")
        self.check_dual(ops, label, wq.dual, list(wq.projectors), wq.gram_condition)
        rho = case["rho"]
        for j, a in enumerate(case["targets"]):
            exact = ref.expectation(rho, a)
            stats = ops.call("estimate_weigert", pkg.estimate_weigert, a, wq, rho,
                             self.WEIGERT_PER_DIRECTION, seed=seed + j)
            if stats is None:
                continue
            check_estimate(ops, f"{label} target {j}", stats, exact, self.WEIGERT_PER_DIRECTION * d * d)
            value = ops.call("weigert_exact_value", pkg.weigert_exact_value, a, wq, rho)
            if value is not None:
                ops.check(abs(value - exact) <= exact_tol(d * d, wq.gram_condition, a),
                          f"{label} target {j}: weigert_exact_value {value} != {exact}")


WORKLOADS = {
    "continuous-spin": ContinuousSpin,
    "spin-half": SpinHalf,
    "frames-weigert": FramesWeigert,
}
