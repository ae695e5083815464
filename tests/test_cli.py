import json

import numpy as np
import pytest
from click.testing import CliRunner

from spintomo import (
    DualCoefficientError,
    estimate_continuous,
    estimate_discrete,
    estimate_weigert,
    estimator,
    experiments,
    random_hermitian,
    serialize,
    verify_spanning_definitions,
    weigert_exact_value,
)
from spintomo.cli import main
from spintomo.experiments import ExperimentConfig, build_runner, fig1_series, simulate_run
from spintomo.spin import (
    coherent_state,
    make_spin_system,
    max_spin_projector,
    pauli_quorum,
    random_directions,
    tetrahedral_directions,
    weigert_quorum,
)
from spintomo.frames import DualFrame, Quorum

from conftest import SX, SY, SZ


@pytest.fixture
def runner():
    return CliRunner()


def write_quorum(path, elements):
    q = Quorum.from_elements(elements)
    path.write_text(serialize.dumps(serialize.quorum_to_json_dict(q)))
    return path


class TestQuorumCheck:
    def test_pauli_complete(self, runner):
        result = runner.invoke(main, ["quorum", "check", "--pauli"])
        assert result.exit_code == 0
        assert "complete: rank 4 of 4" in result.output

    def test_incomplete_file(self, runner, tmp_path):
        path = write_quorum(tmp_path / "q.json", [SX, SY, SZ])
        result = runner.invoke(main, ["quorum", "check", str(path)])
        assert result.exit_code == 1
        assert "incomplete" in result.output
        assert "witness" in result.output

    def test_truncated_json(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2, "elements": [[[1, 0]')
        result = runner.invoke(main, ["quorum", "check", str(path)])
        assert result.exit_code == 2
        assert "broken.json:1:" in result.output

    def test_requires_some_input(self, runner):
        result = runner.invoke(main, ["quorum", "check"])
        assert result.exit_code == 2

    def test_one_svd_per_file(self, runner, tmp_path, svd_calls):
        rng = np.random.default_rng(8)
        path = write_quorum(tmp_path / "q.json", [random_hermitian(3, rng) for _ in range(9)])
        result = runner.invoke(main, ["quorum", "check", str(path)])
        assert result.exit_code == 0, result.output
        assert svd_calls == [(9, 9)]

    def test_trials_must_be_positive(self, runner):
        # zero trials would report definitions i and iv as passed untested
        result = runner.invoke(main, ["quorum", "check", "--pauli", "--trials", "0"])
        assert result.exit_code == 2
        assert "--trials" in result.output

    def test_non_integer_dim_rejected(self, runner, tmp_path):
        # truncated to d = 2, this file would pass as a complete Pauli quorum
        path = tmp_path / "q.json"
        doc = serialize.quorum_to_json_dict(pauli_quorum()[0])
        path.write_text(json.dumps({**doc, "dim": 2.9}))
        result = runner.invoke(main, ["quorum", "check", str(path)])
        assert result.exit_code == 2
        message = f"{path}: not a valid quorum document: dim must be an integer, got 2.9"
        assert result.output.splitlines()[-1] == f"error: {message}"

    def test_seed_from_environment(self, runner, tmp_path):
        path = write_quorum(tmp_path / "q.json", [random_hermitian(2, np.random.default_rng(k))
                                                   for k in range(4)])
        reports = {}
        unset = {"TOMO_SEED": None}
        for name, args, env in [("env", [], {"TOMO_SEED": "7"}), ("flag", ["--seed", "7"], unset),
                                ("default", [], unset)]:
            out = tmp_path / f"{name}.json"
            result = runner.invoke(main, ["quorum", "check", str(path), *args, "--out", str(out)],
                                   env=env)
            assert result.exit_code == 0, result.output
            reports[name] = out.read_bytes()
        assert reports["env"] == reports["flag"]
        assert reports["flag"] != reports["default"]  # the residuals depend on the seed

    def test_report_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["quorum", "check", "--pauli", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["complete"] is True
        assert set(doc["checks"]) == {"i", "ii", "iii", "iv"}


class TestQuorumDual:
    def test_pauli_gram_schmidt(self, runner):
        result = runner.invoke(main, ["quorum", "dual", "--pauli", "--method", "gs"])
        assert result.exit_code == 0
        doc = json.loads(result.output[result.output.index("{"):])
        dual = serialize.dual_from_json_dict(doc)
        _, expected = pauli_quorum()
        for b, e in zip(dual.elements, expected.elements):
            assert np.abs(b - e).max() <= 1e-12

    def test_methods_agree(self, runner, tmp_path):
        files = {}
        for method in ("gs", "gram"):
            out = tmp_path / f"{method}.json"
            result = runner.invoke(
                main, ["quorum", "dual", "--pauli", "--method", method, "--out", str(out)]
            )
            assert result.exit_code == 0
            files[method] = serialize.dual_from_json_dict(json.loads(out.read_text()))
        for a, b in zip(files["gs"].elements, files["gram"].elements):
            assert np.abs(a - b).max() <= 1e-10

    def test_round_trip_passes_verification(self, runner, tmp_path):
        out = tmp_path / "dual.json"
        result = runner.invoke(main, ["quorum", "dual", "--pauli", "--out", str(out)])
        assert result.exit_code == 0
        dual = serialize.dual_from_json_dict(json.loads(out.read_text()))
        q, _ = pauli_quorum()
        report = verify_spanning_definitions(q, dual)
        assert report.complete and all(c.passed for c in report.checks.values())

    def test_incomplete_needs_subspace_flag(self, runner, tmp_path):
        path = write_quorum(tmp_path / "q.json", [SX, SY, SZ])
        result = runner.invoke(main, ["quorum", "dual", str(path)])
        assert result.exit_code == 1
        # the refusal names the CLI flag, not the library's argument
        assert "--subspace" in result.output and "allow_subspace" not in result.output
        ok = runner.invoke(main, ["quorum", "dual", str(path), "--subspace"])
        assert ok.exit_code == 0
        # the Gram route inverts the independent set, but is refused the same way
        args = ["quorum", "dual", str(path), "--method", "gram"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "rank 3 < required 4" in result.output
        ok = runner.invoke(main, args + ["--subspace"])
        assert ok.exit_code == 0, ok.output

    @pytest.mark.parametrize("method", ["gs", "gram"])
    def test_dependent_incomplete_refused(self, runner, tmp_path, method):
        # rank 2 of 4: the Gram route must see the rank before the dependence
        path = write_quorum(tmp_path / "q.json", [SX, SZ, 2 * SZ])
        result = runner.invoke(main, ["quorum", "dual", str(path), "--method", method])
        assert result.exit_code == 1
        assert "quorum is incomplete: rank 2 of 4" in result.output
        assert "pass --subspace" in result.output

    def test_duplicate_projectors_singular(self, runner, tmp_path):
        # complete, so the Gram route is reached and refuses the duplicate
        sys_ = make_spin_system(1)
        p = max_spin_projector(sys_, tetrahedral_directions()[0])
        path = write_quorum(tmp_path / "q.json", [p, p, SX, SY, SZ])
        result = runner.invoke(main, ["quorum", "dual", str(path), "--method", "gram"])
        assert result.exit_code == 1
        assert "condition number" in result.output
        assert "is not below the cap 1e+12" in result.output
        assert result.output.rstrip().endswith(
            "the Gram-Schmidt route handles dependent sets by elimination"
        )


class TestSimulate:
    def test_pauli_run(self, runner, tmp_path):
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["simulate", "--n-samples", "6000", "--seed", "42", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["estimator"] == "discrete"
        assert doc["n_blocks"] == 20
        assert doc["seed"] == 42
        assert abs(doc["mean"] - doc["exact"]) <= 4 * doc["error_bar"]
        assert doc["exact"] == pytest.approx(-np.cos(4) / 2)

    def test_zero_samples_rejected(self, runner):
        # one budget rule for every quorum; the continuous grid is one pooled setting
        result = runner.invoke(main, ["simulate", "--n-samples", "0"])
        assert result.exit_code == 2
        assert "error: n_samples = 0 gives 0 per setting, below n_blocks = 20" in result.output
        result = runner.invoke(main, ["simulate", "--quorum", "continuous", "--n-samples", "10"])
        assert result.exit_code == 2
        assert "error: n_samples = 10 gives 10 per setting, below n_blocks = 20" in result.output

    @pytest.mark.parametrize("quorum, n_active", [("pauli", 3), ("continuous", 1), ("weigert", 4)])
    def test_runner_quota_per_count_table_setting(self, quorum, n_active):
        system = make_spin_system(1)
        state = coherent_state(system, 2)
        cfg = ExperimentConfig(quorum=quorum, weigert_seed=5 if quorum == "weigert" else None)
        run = build_runner(cfg, system, state, system.sz)
        public = {
            "pauli": lambda quota: estimate_discrete(system.sz, *pauli_quorum(), state, quota,
                                                     n_blocks=20, seed=1),
            "continuous": lambda quota: estimate_continuous(system.sz, system, state, quota,
                                                            n_blocks=20, seed=1),
            "weigert": lambda quota: estimate_weigert(
                system.sz, weigert_quorum(system, random_directions(4, 5)), state, quota,
                n_blocks=20, seed=1),
        }[quorum]
        for n in (21 * n_active - 1, 1003 * n_active + 2):
            # the runner's stats are the public estimate's at the quota n // n_active
            assert run(n, 1) == public(n // n_active)
        n = 21 * n_active - 1  # a quota of 20 and a remainder that is not spent
        assert run(n, 1).n_samples == 20 * n_active
        message = f"^n_samples = {n - n_active} gives 19 per setting, below n_blocks = 20$"
        with pytest.raises(ValueError, match=message):
            run(n - n_active, 1)

    def test_one_count_table_per_run(self, monkeypatch):
        builds = []
        for name in ("_continuous_table", "_discrete_table", "_weigert_table"):
            def counting(*args, _build=getattr(estimator, name), **kwargs):
                builds.append(_build.__name__)
                return _build(*args, **kwargs)

            for module in (estimator, experiments):
                monkeypatch.setattr(module, name, counting)
        fig1_series(2.0, 100_000)
        assert sorted(builds) == ["_continuous_table", "_discrete_table"]
        for quorum in ("pauli", "continuous", "weigert"):
            builds.clear()
            cfg = ExperimentConfig(quorum=quorum, weigert_seed=5 if quorum == "weigert" else None,
                                   n_samples=6000, checkpoints=(1200, 2400, 3600))
            simulate_run(cfg)
            assert builds == [f"_{'discrete' if quorum == 'pauli' else quorum}_table"]

    def test_pauli_needs_spin_half(self, runner):
        result = runner.invoke(
            main, ["simulate", "--spin-two-s", "2", "--quorum", "pauli", "--n-samples", "1000"]
        )
        assert result.exit_code == 2
        assert "spin_two_s" in result.output

    @pytest.mark.parametrize("phi", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_weigert_direction_phi_must_be_finite(self, runner, tmp_path, phi):
        dirs = tmp_path / "dirs.json"
        items = [{"theta": 0.3, "phi": phi}] + serialize.directions_to_json_list(
            random_directions(3, 7)
        )
        dirs.write_text(json.dumps(items))
        result = runner.invoke(
            main,
            ["simulate", "--quorum", "weigert", "--directions", str(dirs), "--n-samples", "4000"],
        )
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == f"error: phi must be finite, got {phi}"

    def test_weigert_direction_count_enforced(self, runner, tmp_path):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([{"theta": 0.1, "phi": 0.2}] * 3))
        result = runner.invoke(
            main,
            ["simulate", "--quorum", "weigert", "--directions", str(dirs), "--n-samples", "4000"],
        )
        assert result.exit_code == 2
        assert "exactly 4" in result.output

    def test_weigert_coincident_directions_domain_error(self, runner, tmp_path):
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps([{"theta": 0.1, "phi": 0.2}] * 4))
        result = runner.invoke(
            main,
            ["simulate", "--quorum", "weigert", "--directions", str(dirs), "--n-samples", "4000"],
        )
        assert result.exit_code == 1
        assert "coincide" in result.output

    def test_weigert_refusal_names_its_cap(self, runner):
        # random d = 10 directions are over the Weigert cap; no Gram-Schmidt route exists there
        result = runner.invoke(
            main, ["simulate", "--quorum", "weigert", "--spin-two-s", "9", "--weigert-seed", "1"]
        )
        assert result.exit_code == 1
        [line] = result.output.splitlines()
        assert line.startswith("error: Gram matrix condition number ")
        assert line.endswith(
            " is not below the cap 1e+10; the quorum elements are linearly dependent "
            "or nearly so; choose other directions"
        )

    @pytest.mark.parametrize(
        "args, cfg, message",
        [
            (["--quorum", "pauli", "--weigert-seed", "3"], {},
             "weigert_seed applies only to the Weigert quorum, not to quorum 'pauli'"),
            ([], {"quorum": "continuous", "directions_file": "dirs.json"},
             "directions_file applies only to the Weigert quorum, not to quorum 'continuous'"),
            # a directions file and a seed together: one of them would be ignored
            (["--quorum", "weigert", "--directions", "dirs.json", "--weigert-seed", "5"], {},
             "give either directions_file or weigert_seed, not both"),
            (["--weigert-seed", "5"], {"quorum": "weigert", "directions_file": "dirs.json"},
             "give either directions_file or weigert_seed, not both"),
        ],
        ids=["flag", "config-key", "directions-and-seed-flags", "directions-key-and-seed-flag"],
    )
    def test_weigert_inputs_refused_for_other_quorums(
        self, runner, tmp_path, monkeypatch, args, cfg, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dirs.json").write_text(
            serialize.dumps(serialize.directions_to_json_list(random_directions(4, 7)))
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(
            main, ["simulate", "--config", str(path), "--n-samples", "600", *args]
        )
        assert result.exit_code == 2
        assert f"error: {message}" in result.output

    @pytest.mark.parametrize("value", [True, 2.5, "3"], ids=["bool", "float", "string"])
    def test_weigert_seed_must_be_an_integer(self, runner, tmp_path, value):
        # true would otherwise run with seed 1, 2.5 fail inside numpy
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"quorum": "weigert", "weigert_seed": value}))
        result = runner.invoke(main, ["simulate", "--config", str(path), "--n-samples", "800"])
        assert result.exit_code == 2
        assert f"error: weigert_seed must be an integer, got {value!r}" in result.output

    def test_unwritable_csv_leaves_no_result_file(self, runner, tmp_path):
        out = tmp_path / "run.json"
        result = runner.invoke(main, [
            "simulate", "--n-samples", "600", "--checkpoints", "300", "--out", str(out),
            "--csv", str(tmp_path / "missing" / "series.csv"),
        ])
        assert result.exit_code == 2
        assert not out.exists()

    def test_weigert_seeded_run(self, runner, tmp_path):
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            [
                "simulate", "--quorum", "weigert", "--weigert-seed", "5",
                "--n-samples", "8000", "--seed", "4", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["estimator"] == "weigert"
        assert doc["n_samples"] == 8000
        assert abs(doc["mean"] - doc["exact"]) <= 4 * doc["error_bar"]

    WEIGERT_D8_ARGS = [
        "simulate", "--quorum", "weigert", "--spin-two-s", "7", "--weigert-seed", "2",
        "--n-samples", "6400", "--state", "coherent:1",
    ]

    def test_weigert_inaccurate_dual_domain_error(self, runner, monkeypatch):
        def refuse(b, a, what):
            raise DualCoefficientError(f"non-real dual coefficient for {what}: (1+1j)")

        monkeypatch.setattr(estimator, "_dual_coefficient", refuse)
        result = runner.invoke(main, self.WEIGERT_D8_ARGS)
        assert result.exit_code == 1
        assert "non-real dual coefficient for direction 0" in result.output

    def test_weigert_ill_conditioned_d8_reconstructs(self, runner, tmp_path):
        # cond(G) ~ 2e9 for these directions: a dual whose error grows with
        # cond(G) leaves |Im Tr[B^dag A]| above the refusal threshold here
        a = tmp_path / "a.json"
        target = random_hermitian(8, np.random.default_rng(1))
        a.write_text(serialize.dumps(serialize.op_to_json_dict(target)))
        out = tmp_path / "run.json"
        result = runner.invoke(
            main, self.WEIGERT_D8_ARGS + ["--target", f"file:{a}", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert abs(doc["mean"] - doc["exact"]) <= 4 * doc["error_bar"]
        system = make_spin_system(7)
        wq = weigert_quorum(system, random_directions(64, 2))
        exact = weigert_exact_value(target, wq, coherent_state(system, 1))
        assert exact == pytest.approx(doc["exact"], abs=1e-10)

    def test_config_with_legacy_threads_key(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_samples": 6000, "seed": 42, "threads": 4}))
        out = tmp_path / "run.json"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["seed"] == 42 and "threads" not in doc

    WRONG_TYPES = [
        ({"n_samples": "abc"}, "n_samples must be an integer, got 'abc'"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"checkpoints": 5}, "checkpoints must be a list of integers, got 5"),
        # converted, these would run 1,998 samples, spin 1/2, seed 2, ...
        ({"n_samples": 2000.7}, "n_samples must be an integer, got 2000.7"),
        ({"spin_two_s": True}, "spin_two_s must be an integer, got True"),
        ({"seed": 2.9}, "seed must be an integer, got 2.9"),
        ({"checkpoints": [300.5]}, "checkpoints must be an integer, got 300.5"),
        ({"n_blocks": "4"}, "n_blocks must be an integer, got '4'"),
        # ... and this one would drop the falsy path for the seed
        ({"quorum": "weigert", "directions_file": 0, "weigert_seed": 3},
         "directions_file must be a string, got 0"),
        # open(True) would read file descriptor 1
        ({"quorum": "weigert", "directions_file": True}, "directions_file must be a string, got True"),
        # a state spec whose argument does not parse is named in the refusal
        ({"state": "coherent:xyz"}, "state spec 'coherent:xyz': 'xyz' is not a complex number"),
        ({"state": "basis:abc"}, "state spec 'basis:abc': 'abc' is not a real number"),
        # a value of the right type that names no quorum, or a quorum short of an input
        ({"quorum": "foo"}, "unknown quorum spec 'foo'; use pauli, continuous or weigert"),
        ({"quorum": "weigert"}, "the Weigert quorum needs a directions file or a weigert_seed"),
    ]

    @pytest.mark.parametrize(
        "doc, message", WRONG_TYPES, ids=[f"doc{i}" for i in range(len(WRONG_TYPES))]
    )
    def test_config_wrong_type_rejected(self, runner, tmp_path, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == f"error: {message}"
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("spec", ["basis:inf", "basis:nan", "coherent:nan", "coherent:inf"])
    def test_non_finite_state_spec_rejected(self, runner, spec):
        # basis:inf used to end in an OverflowError traceback
        result = runner.invoke(main, ["simulate", "--state", spec, "--n-samples", "600"])
        assert result.exit_code == 2
        kind, _, arg = spec.partition(":")
        value = f"({arg}+0j)" if kind == "coherent" else arg
        message = {
            "basis": f"m = {value} is not an eigenvalue of a spin-0.5 component",
            "coherent": f"coherent-state amplitude alpha = {value} is not finite",
        }[kind]
        assert result.output.splitlines()[-1] == f"error: {message}"
        assert isinstance(result.exception, SystemExit)

    def test_config_checks_library_values(self):
        # numpy integers are integers; a bool is not
        assert ExperimentConfig(n_blocks=np.int64(20)).n_blocks == 20
        with pytest.raises(ValueError, match="n_blocks must be an integer, got True"):
            ExperimentConfig(n_blocks=True)

    def test_missing_density_file(self, runner, tmp_path):
        missing = tmp_path / "none.json"
        result = runner.invoke(main, ["simulate", "--state", f"density:{missing}"])
        assert result.exit_code == 2
        assert "No such file" in result.output

    def test_continuous_with_checkpoints_csv(self, runner, tmp_path):
        out = tmp_path / "run.json"
        csv = tmp_path / "series.csv"
        result = runner.invoke(
            main,
            [
                "simulate", "--quorum", "continuous", "--n-samples", "2000",
                "--checkpoints", "100,400,2000", "--seed", "1",
                "--out", str(out), "--csv", str(csv),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n_samples,mean,error_bar,exact"
        assert len(lines) == 4
        assert lines[1].startswith("100,")

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quorum": "continuous", "n_samples": 500, "seed": 5}))
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            ["simulate", "--config", str(cfg), "--n-samples", "900", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["estimator"] == "continuous"
        assert doc["n_samples"] == 900
        assert doc["seed"] == 5

    def test_seed_precedence(self, runner, tmp_path):
        env = {"TOMO_SEED": "7"}
        out = tmp_path / "a.json"
        result = runner.invoke(
            main, ["simulate", "--n-samples", "600", "--out", str(out)], env=env
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["seed"] == 7
        result = runner.invoke(
            main, ["simulate", "--n-samples", "600", "--seed", "9", "--out", str(out)], env=env
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["seed"] == 9

    def test_density_file_state(self, runner, tmp_path):
        rho = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
        dens = tmp_path / "rho.json"
        dens.write_text(serialize.dumps(serialize.op_to_json_dict(rho)))
        out = tmp_path / "run.json"
        result = runner.invoke(
            main,
            [
                "simulate", "--state", f"density:{dens}", "--n-samples", "3000",
                "--seed", "2", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        sz = make_spin_system(1).sz
        assert doc["exact"] == pytest.approx(np.trace(rho @ sz).real)

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["simulate", "--n-samples", "2000", "--seed", "3"]
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(main, args + ["--out", str(out)])
            assert result.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestFig1:
    def test_writes_both_series(self, runner, tmp_path):
        means = tmp_path / "m.csv"
        errors = tmp_path / "e.csv"
        result = runner.invoke(
            main,
            [
                "fig1", "--n-max", "2000", "--checkpoints", "4", "--seed", "42",
                "--out-means", str(means), "--out-errors", str(errors),
            ],
        )
        assert result.exit_code == 0, result.output
        mlines = means.read_text().strip().splitlines()
        assert mlines[0] == "n_samples,mean_cont,err_cont,mean_disc,err_disc,exact"
        elines = errors.read_text().strip().splitlines()
        assert elines[0] == "n_samples,err_cont,err_disc"
        assert len(mlines) == len(elines) == 5

    def test_deterministic_output(self, runner, tmp_path):
        blobs = []
        for tag in ("x", "y"):
            means = tmp_path / f"m{tag}.csv"
            errors = tmp_path / f"e{tag}.csv"
            result = runner.invoke(
                main,
                [
                    "fig1", "--n-max", "1500", "--checkpoints", "3", "--seed", "8",
                    "--out-means", str(means), "--out-errors", str(errors),
                ],
            )
            assert result.exit_code == 0
            blobs.append(means.read_bytes() + errors.read_bytes())
        assert blobs[0] == blobs[1]

    def test_unwritable_errors_leave_no_means_file(self, runner, tmp_path):
        means, kept = tmp_path / "m.csv", tmp_path / "kept.csv"
        kept.write_text("earlier result\n")
        for out_means, leftover in ((means, False), (kept, True)):
            result = runner.invoke(main, [
                "fig1", "--n-max", "500", "--out-means", str(out_means),
                "--out-errors", str(tmp_path / "missing" / "e.csv"),
            ])
            assert result.exit_code == 2
            assert out_means.exists() == leftover
        # an existing means file is left as it was
        assert kept.read_text() == "earlier result\n"

    def test_alpha_parse_error(self, runner):
        result = runner.invoke(main, ["fig1", "--alpha", "spam"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--n-blocks", "1"], "n_blocks must be >= 2"),
            # the continuous series is one pooled setting: its quota is the budget
            (["--n-max", "30", "--n-blocks", "50"],
             "n_samples = 30 gives 30 per setting, below n_blocks = 50"),
            (["--n-max", "1000", "--n-blocks", "200"],
             "n_samples = 100 gives 100 per setting, below n_blocks = 200"),
            (["--checkpoints", "0"], "the checkpoint count must be >= 1, got 0"),
            # the Pauli series spends n // 3 per setting, as simulate does
            (["--n-max", "50"], "n_samples = 50 gives 16 per setting, below n_blocks = 20"),
            # not a budget, but refused the same way before any output is written
            (["--alpha", "nan"], "coherent-state amplitude alpha = (nan+0j) is not finite"),
        ],
    )
    def test_bad_budget_exits_2(self, runner, tmp_path, args, message):
        outs = ["--out-means", str(tmp_path / "m.csv"), "--out-errors", str(tmp_path / "e.csv")]
        result = runner.invoke(main, ["fig1", *args, *outs])
        assert result.exit_code == 2
        assert f"error: {message}" in result.output
        assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--n-samples", "600", "--out", "{bad}"],
        ["simulate", "--n-samples", "600", "--checkpoints", "100", "--csv", "{bad}"],
        ["quorum", "check", "--pauli", "--out", "{bad}"],
        ["quorum", "dual", "--pauli", "--out", "{bad}"],
        ["fig1", "--n-max", "500", "--out-means", "{bad}", "--out-errors", "{ok}"],
    ],
    ids=["simulate-out", "simulate-csv", "check-out", "dual-out", "fig1-out-means"],
)
def test_unwritable_output_exits_2(runner, tmp_path, args):
    paths = {"bad": tmp_path / "missing" / "out", "ok": tmp_path / "ok.csv"}
    result = runner.invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 2, result.output
    assert "error: [Errno 2] No such file or directory" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args, config, env, message", [
    (["simulate", "--config", "{config}"], [1, 2], {}, "{config}: config must be a JSON object"),
    (["simulate", "--n-samples", "600"], None, {"TOMO_SEED": "abc"},
     "TOMO_SEED must be an integer, got 'abc'"),
    (["quorum", "check", "--pauli", "{quorum}"], None, {},
     "give either a quorum file or --pauli, not both"),
    (["simulate", "--state", "spin:1"], None, {},
     "unknown state spec 'spin:1'; use coherent:A, basis:M or density:PATH"),
    (["simulate", "--target", "sw"], None, {},
     "unknown target spec 'sw'; use sx, sy, sz or file:PATH"),
], ids=["config-list", "seed-env-not-integer", "check-file-and-pauli", "unknown-state",
        "unknown-target"])
def test_refused_input_exits_2(runner, tmp_path, args, config, env, message):
    paths = {"config": tmp_path / "cfg.json", "quorum": tmp_path / "q.json"}
    paths["config"].write_text(json.dumps(config))
    write_quorum(paths["quorum"], [SX, SY, SZ, np.eye(2)])
    result = runner.invoke(main, [a.format(**paths) for a in args], env=env)
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1] == f"error: {message.format(**paths)}"
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args, config, env, line", [
    (["simulate", "--seed", "-1"], None, {}, "error: seed must not be negative, got -1"),
    (["fig1", "--seed", "-3"], None, {},
     "Error: Invalid value for '--seed': -3 is not in the range x>=0."),
    (["quorum", "check", "--pauli", "--seed", "-1"], None, {},
     "Error: Invalid value for '--seed': -1 is not in the range x>=0."),
    (["simulate", "--quorum", "weigert", "--weigert-seed", "-2"], None, {},
     "error: weigert_seed must not be negative, got -2"),
    (["simulate"], None, {"TOMO_SEED": "-4"}, "error: TOMO_SEED must not be negative, got '-4'"),
    (["simulate", "--config", "{config}"], {"seed": -1}, {},
     "error: seed must not be negative, got -1"),
], ids=["simulate-seed", "fig1-seed", "check-seed", "weigert-seed", "seed-env", "config-seed"])
def test_negative_seed_refused_by_name(runner, tmp_path, args, config, env, line):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    result = runner.invoke(main, [a.format(config=config_path) for a in args], env=env)
    assert result.exit_code == 2, result.output
    assert result.output.splitlines()[-1] == line


def test_non_real_dual_coefficient_exits_1(runner, monkeypatch):
    # the Pauli dual turned by a phase: each nonzero coefficient of a Hermitian target is complex
    q, dual = pauli_quorum()
    turned = DualFrame.from_elements(dual.elements * np.exp(0.3j))
    monkeypatch.setattr(experiments, "pauli_quorum", lambda: (q, turned))
    message = "non-real dual coefficient for setting 'sigma_z': "
    with pytest.raises(DualCoefficientError, match=f"^{message}"):
        simulate_run(ExperimentConfig(n_samples=600))
    result = runner.invoke(main, ["simulate", "--n-samples", "600"])
    assert result.exit_code == 1, result.output
    assert result.output.splitlines()[-1].startswith(f"error: {message}")
    assert isinstance(result.exception, SystemExit)
