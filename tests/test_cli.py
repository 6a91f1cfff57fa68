"""CLI subcommands: exit codes, determinism, report files."""

import json

import pytest

import alphaflow.cli as cli
from alphaflow.cli import main

BASE_CONFIG = {
    "n": 16, "alpha": 1.0, "eta": 1.0, "lambda": 1.0, "dt": 1e-3,
    "t_end": 0.02, "epsilon": 1e-3, "delta": 1.0,
    "initial_condition": "taylor-green", "stress_init": "random",
    "snapshot_stride": 5, "seed": 7,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


class TestRunCommand:
    def test_produces_expected_files(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("manifest.json", "trajectory.bin", "run.csv", "summary.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "run"

    def test_repeat_runs_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
        for name in ("trajectory.bin", "run.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, delta=7.0)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, literal", [("dt", "NaN"), ("dt", "Infinity"),
                                              ("t_end", "Infinity"), ("eta", "NaN"),
                                              ("alpha", "NaN")])
    def test_non_finite_config_exit_2(self, tmp_path, key, literal, capsys):
        path = tmp_path / "bad.json"
        text = json.dumps(dict(BASE_CONFIG, **{key: 0.5}))
        path.write_text(text.replace(f'"{key}": 0.5', f'"{key}": {literal}'))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_config_exit_2(self, tmp_path):
        missing = tmp_path / "absent.json"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2

    def test_cfl_violation_exit_2(self, tmp_path):
        path = tmp_path / "cfl.json"
        path.write_text(json.dumps(dict(BASE_CONFIG, dt=0.2, t_end=0.4, n=32)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


class TestCheckCommand:
    def test_zero_test_passes(self, tmp_path, config_path):
        out = tmp_path / "check"
        code = main(["check", "--config", str(config_path), "--mode", "zero-test",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "dissipative_report.json").read_text())
        assert report["pass"] is True
        assert set(report) >= {"t", "lhs", "rhs", "margin", "gamma",
                               "min_margin", "pass"}
        header = (out / "check.csv").read_text().splitlines()[0]
        assert header == "t,energy,lhs,rhs,margin"

    def test_zero_test_skips_gamma_calibration(self, tmp_path, config_path,
                                               monkeypatch):
        # the zero pair's weight is 0: gamma 1.0 gives the same margins as any other
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(run_out)]) == 0
        trajectory = ["--trajectory", str(run_out / "trajectory.bin")]

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrate_gamma called in zero-test")

        monkeypatch.setattr(cli, "calibrate_gamma", no_calibration)
        reports = {}
        for name, extra in (("default", []), ("explicit", ["--gamma", "7.5"])):
            out = tmp_path / name
            assert main(["check", "--config", str(config_path), "--mode", "zero-test",
                         "--out", str(out)] + trajectory + extra) == 0
            reports[name] = json.loads((out / "dissipative_report.json").read_text())
        assert reports["default"]["gamma"] == 1.0
        assert reports["explicit"]["gamma"] == 7.5
        for key in ("lhs", "rhs"):
            assert reports["default"][key] == reports["explicit"][key]

    def test_reuses_existing_trajectory(self, tmp_path, config_path):
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(run_out)]) == 0
        out = tmp_path / "check"
        code = main(["check", "--config", str(config_path), "--mode", "zero-test",
                     "--out", str(out),
                     "--trajectory", str(run_out / "trajectory.bin")])
        assert code == 0

    def test_trajectory_physics_must_match_config(self, tmp_path, config_path):
        # the check tests the system the trajectory integrated: a --config
        # with other physics is a configuration error, another seed or dt
        # is not
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(run_out)]) == 0
        trajectory = str(run_out / "trajectory.bin")

        def check(doc, mode, name):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            return main(["check", "--config", str(path), "--mode", mode,
                         "--out", str(tmp_path / name), "--trajectory", trajectory,
                         "--fit-degree", "2"])

        assert check(dict(BASE_CONFIG, alpha=0.2, eta=5.0), "self-test", "physics") == 2
        changes = {"dim": 3, "n": 32, "alpha": 0.5, "eta": 2.0, "lambda": 2.0,
                   "epsilon": 0.0, "delta": 0.5}
        for key, value in changes.items():
            assert check(dict(BASE_CONFIG, **{key: value}), "zero-test", key) == 2, key
        assert check(dict(BASE_CONFIG, seed=99, dt=2e-3), "zero-test", "seed_dt") == 0

    def test_self_test_passes_with_min_margin_field(self, tmp_path):
        doc = dict(BASE_CONFIG, n=16, t_end=0.05, epsilon=0.0,
                   snapshot_stride=1, stress_init="zero")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "check"
        code = main(["check", "--config", str(cfg), "--mode", "self-test",
                     "--out", str(out), "--fit-degree", "6"])
        assert code == 0
        report = json.loads((out / "dissipative_report.json").read_text())
        assert report["pass"] is True
        assert "min_margin" in report

    def test_failing_check_exit_1(self, tmp_path, config_path):
        # an absurd negative tolerance cannot be met: margin 0 < -1 * scale
        out = tmp_path / "check"
        code = main(["check", "--config", str(config_path), "--mode", "self-test",
                     "--out", str(out), "--fit-degree", "2",
                     "--tolerance", "-1.0"])
        assert code == 1

    @pytest.mark.parametrize("mode, flag, value", [
        ("zero-test", "--gamma", "nan"), ("zero-test", "--gamma", "inf"),
        ("self-test", "--gamma", "nan"),
        ("zero-test", "--tolerance", "nan"), ("zero-test", "--tolerance", "inf"),
    ])
    def test_non_finite_gamma_or_tolerance_exit_2(self, tmp_path, config_path,
                                                  mode, flag, value, capsys):
        # nan used to fail the check (exit 1), and --tolerance inf passed it
        code = main(["check", "--config", str(config_path), "--mode", mode,
                     "--out", str(tmp_path / "check"), "--fit-degree", "2",
                     flag, value])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_test_pair_mode(self, tmp_path, config_path):
        pair_doc = {"dim": 2, "velocity_modes": [
            {"k": [0, 1], "component": 0, "sin": [0.05]}]}
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps(pair_doc))
        out = tmp_path / "check"
        code = main(["check", "--config", str(config_path), "--mode", "test-pair",
                     "--test-pair", str(pair_path), "--out", str(out)])
        assert code == 0

    def test_truncated_trajectory_exit_2(self, tmp_path, config_path, capsys):
        # a damaged input file is an input error (2), not a failed check (1)
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(run_out)]) == 0
        raw = (run_out / "trajectory.bin").read_bytes()
        half = tmp_path / "half.bin"
        half.write_bytes(raw[: len(raw) // 2])
        capsys.readouterr()
        code = main(["check", "--config", str(config_path), "--mode", "zero-test",
                     "--out", str(tmp_path / "check"), "--trajectory", str(half)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("mode", [
        {"k": [1], "component": 0, "sin": [0.05]},
        {"k": [0, 1], "component": 5, "sin": [0.05]},
    ])
    def test_invalid_test_pair_exit_2(self, tmp_path, config_path, mode):
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps({"dim": 2, "velocity_modes": [mode]}))
        code = main(["check", "--config", str(config_path), "--mode", "test-pair",
                     "--test-pair", str(pair_path), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("text", ['[NaN]', '[1e308, 1e308]'])
    def test_non_finite_test_pair_coefficient_exit_2(self, tmp_path, config_path, capsys,
                                                     text):
        # NaN used to reach the first transform, whose error did not name
        # the pair; 1e308 overflowed there after a numpy warning
        pair_path = tmp_path / "pair.json"
        pair_path.write_text('{"dim": 2, "velocity_modes": [{"k": [0, 1], "component": 0, '
                             f'"sin": {text}}}]}}')
        code = main(["check", "--config", str(config_path), "--mode", "test-pair",
                     "--test-pair", str(pair_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: test pair mode") and "'sin'" in err

    def test_overflowing_gamma_exit_2(self, tmp_path, config_path, capsys):
        # exp of the weight integral overflowed: the bound read NaN and the
        # check failed (exit 1) with a numpy warning
        code = main(["check", "--config", str(config_path), "--mode", "self-test",
                     "--out", str(tmp_path / "o"), "--fit-degree", "2",
                     "--gamma", "1e300"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gamma 1e+300 is too large")

    def test_negative_fit_degree_exit_2(self, tmp_path, config_path, capsys):
        code = main(["check", "--config", str(config_path), "--mode", "self-test",
                     "--out", str(tmp_path / "o"), "--fit-degree", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_test_pair_exit_2(self, tmp_path, config_path, capsys):
        # a finite coefficient whose products overflow: numpy warned, then
        # a transform's error did not name the pair
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps({"velocity_modes": [
            {"k": [0, 1], "component": 0, "sin": [1e300]}]}))
        code = main(["check", "--config", str(config_path), "--mode", "test-pair",
                     "--test-pair", str(pair_path), "--gamma", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the test pair overflows at time t=0")
        assert "Warning" not in err

    @pytest.mark.parametrize("flag", ["--test-pair", "--trajectory", "initial_condition"])
    def test_unreadable_input_file_exit_2(self, tmp_path, capsys, flag):
        # a missing file or a directory died with a raw OSError (exit 1)
        doc = dict(BASE_CONFIG)
        args = ["--mode", "test-pair", "--test-pair", str(tmp_path / "absent.json")]
        if flag == "--trajectory":
            args = ["--mode", "zero-test", "--trajectory", str(tmp_path / "absent.bin")]
        elif flag == "initial_condition":
            doc["initial_condition"] = str(tmp_path)  # a directory
            args = ["--mode", "zero-test"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code = main(["check", "--config", str(path), "--out", str(tmp_path / "o")] + args)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno")

    def test_test_pair_mode_requires_file(self, tmp_path, config_path):
        code = main(["check", "--config", str(config_path), "--mode", "test-pair",
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestOtherCommands:
    def test_identities(self):
        assert main(["identities", "--n", "16", "--samples", "3"]) == 0

    def test_gronwall_selftest(self):
        assert main(["gronwall-selftest", "--samples", "2000"]) == 0

    def test_calibrate_gamma(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert main(["calibrate-gamma", "--n", "16", "--samples", "50",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip()
        assert float(printed) > 0
        doc = json.loads((out / "gamma.json").read_text())
        assert doc["gamma"] == pytest.approx(float(printed))

    @pytest.mark.parametrize("factor", ["-1", "0", "nan"])
    def test_calibrate_gamma_rejects_nonpositive_safety_factor(self, factor, capsys):
        code = main(["calibrate-gamma", "--n", "16", "--samples", "50",
                     "--safety-factor", factor])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_sweep_alpha_bad_alpha_list_exit_2(self, tmp_path, config_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep-alpha", "--config", str(config_path),
                     "--out", str(out), "--alphas", "1,x"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["identities", "--n", "16", "--samples", "0"], "at least 1 sample"),
        (["sweep-alpha", "--alphas", ""], "at least one alpha"),
        (["gronwall-selftest", "--samples", "5"], "at least 10 samples"),
    ])
    def test_no_check_passes_on_nothing(self, tmp_path, config_path, capsys,
                                        args, message):
        # these passed with no sample or no alpha (exit 0), or died with a
        # traceback (exit 1)
        if args[0] == "sweep-alpha":
            args = args + ["--config", str(config_path), "--out", str(tmp_path / "o")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "PASS" not in captured.out

    def test_sweep_alpha(self, tmp_path, config_path):
        out = tmp_path / "sweep"
        code = main(["sweep-alpha", "--config", str(config_path),
                     "--out", str(out), "--alphas", "1,0.5"])
        assert code == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["pass"] is True
        assert [e["alpha"] for e in doc["entries"]] == [1.0, 0.5]

    @pytest.mark.parametrize("case", ["linear", "rotation", "sgn"])
    def test_ode_demo(self, tmp_path, case):
        out = tmp_path / f"ode-{case}"
        assert main(["ode-demo", "--case", case, "--out", str(out)]) == 0
        assert any(p.suffix == ".csv" for p in out.iterdir())

    def test_ode_demo_checks_apriori_bound_once(self, tmp_path, monkeypatch):
        calls = []
        real = cli.apriori_bound_holds
        monkeypatch.setattr(cli, "apriori_bound_holds",
                            lambda *args: calls.append(1) or real(*args))
        out = tmp_path / "ode-linear"
        assert main(["ode-demo", "--case", "linear", "--out", str(out)]) == 0
        assert len(calls) == 1
        assert json.loads((out / "ode_linear.json").read_text())["apriori_ok"] is True

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["check"])  # missing required flags
        assert info.value.code == 2
