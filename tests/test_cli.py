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

    def test_check_line_and_report_carry_the_sharpness(self, tmp_path, config_path,
                                                       capsys):
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(run_out)]) == 0
        capsys.readouterr()
        keys = ("headroom", "headroom_t", "rhs_min", "weight_integral",
                "lhs_max_over_threshold")
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["check", "--config", str(config_path), "--mode", "zero-test",
                         "--out", str(out), "--trajectory",
                         str(run_out / "trajectory.bin")]) == 0
            line = capsys.readouterr().out.strip().splitlines()[-1]
            fields = dict(item.split("=", 1) for item in line.split())
            report = json.loads((out / "dissipative_report.json").read_text())
            for key in keys:
                assert float(fields[key]) == report[key], key
            assert report["headroom"] <= 1.0
            texts.append((out / "dissipative_report.json").read_bytes())
        assert texts[0] == texts[1]

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

    def test_self_test_on_a_trajectory_not_starting_at_zero_exit_2(self, tmp_path,
                                                                    config_path, capsys):
        # the self-fit pins t = 0 to the first snapshot; a file starting at
        # t = 0.5 reads, but cannot be fitted
        from alphaflow.checkpoint import read_trajectory, write_trajectory
        from alphaflow.solver import SolverState

        run_out = tmp_path / "run"
        assert main(["run", "--config", str(config_path), "--out", str(run_out)]) == 0
        traj = read_trajectory(run_out / "trajectory.bin")
        traj.snapshots = [SolverState(t=s.t + 0.5, u=s.u, sigma=s.sigma)
                          for s in traj.snapshots]
        shifted = tmp_path / "shifted.bin"
        write_trajectory(traj, shifted)
        assert read_trajectory(shifted).times[0] == 0.5
        code = main(["check", "--config", str(config_path), "--mode", "self-test",
                     "--out", str(tmp_path / "check"), "--trajectory", str(shifted),
                     "--fit-degree", "2"])
        assert code == 2
        assert "t = 0" in capsys.readouterr().err
        assert not (tmp_path / "check").exists()

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
        assert err.startswith("error: the weight gamma * max(1, 1/alpha^2) * (the pair's "
                              "norms) is too large, with gamma 1e+300, max(1, 1/alpha^2) "
                              "= 1 and alpha 1:")

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

    @pytest.mark.parametrize("args", [
        ["check", "--mode", "test-pair", "--test-pair", "absent.json"],
        ["check", "--mode", "test-pair"],
        ["sweep-alpha", "--alphas", ""],
    ])
    def test_failed_command_leaves_no_output_directory(self, tmp_path, config_path,
                                                       monkeypatch, args):
        # each exited 2 and left --out holding only manifest.json
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main(args + ["--config", str(config_path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, '{"velocity_modes": [{"k": [0, 1]'])
    def test_bad_test_pair_file_fails_before_the_run(self, tmp_path, config_path,
                                                     monkeypatch, capsys, text):
        # a missing or malformed --test-pair file cost a whole integration
        # and a gamma calibration before it was opened
        def no_run(*args, **kwargs):
            raise AssertionError("integrated before the test pair was read")

        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.setattr(cli, "calibrate_gamma", no_run)
        pair_path = tmp_path / "pair.json"
        if text is not None:
            pair_path.write_text(text)
        code = main(["check", "--config", str(config_path), "--mode", "test-pair",
                     "--test-pair", str(pair_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_test_pair_mode_requires_file(self, tmp_path, config_path):
        code = main(["check", "--config", str(config_path), "--mode", "test-pair",
                     "--out", str(tmp_path / "o")])
        assert code == 2


def _strict_json(path):
    """The JSON document at ``path``; NaN and Infinity, which are not JSON, raise."""
    def refuse(name):
        raise ValueError(f"{name} is not standard JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestExtremeAlpha:
    """alpha is accepted only where alpha^2 and 1/alpha^2 are positive finite doubles."""

    @pytest.mark.parametrize("alpha", [1e200, 1e-200])
    @pytest.mark.parametrize("command", ["run", "check-zero-test", "check-self-test",
                                         "check-test-pair", "sweep-alpha", "identities"])
    def test_exit_2_naming_alpha(self, tmp_path, capsys, command, alpha):
        # these died with OverflowError (1e200) or ZeroDivisionError (1e-200)
        # and exit 1, the code of a failed check, or ran on and exited 0
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(BASE_CONFIG, alpha=alpha)))
        if command == "identities":
            args = ["identities", "--n", "16", "--samples", "3", "--alpha", str(alpha)]
        elif command == "sweep-alpha":
            config.write_text(json.dumps(BASE_CONFIG))
            args = ["sweep-alpha", "--config", str(config), "--out", str(out),
                    "--alphas", f"1,{alpha}"]
        elif command == "run":
            args = ["run", "--config", str(config), "--out", str(out)]
        else:
            pair = tmp_path / "pair.json"
            pair.write_text(json.dumps({"dim": 2, "velocity_modes": [
                {"k": [0, 1], "component": 0, "sin": [0.05]}]}))
            args = ["check", "--config", str(config), "--out", str(out),
                    "--mode", command[len("check-"):], "--test-pair", str(pair)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha must be positive") and str(alpha) in err
        assert not out.exists()


class TestStandardJson:
    """Every JSON file the package writes parses without NaN or Infinity."""

    def test_blown_up_sweep_entry_has_null_energies(self, tmp_path, config_path,
                                                    monkeypatch):
        # sweep.json held "initial_energy": NaN and "sup_energy": NaN
        import alphaflow.dissipative as dissipative
        from alphaflow.errors import IntegrationBlowup

        real_run = dissipative.run

        def exploding_run(config):
            if config.alpha == 0.5:
                raise IntegrationBlowup(0.01, 10, "synthetic test blowup")
            return real_run(config)

        monkeypatch.setattr(dissipative, "run", exploding_run)
        out = tmp_path / "sweep"
        code = main(["sweep-alpha", "--config", str(config_path), "--out", str(out),
                     "--alphas", "1,0.5"])
        assert code == 1
        entries = _strict_json(out / "sweep.json")["entries"]
        assert entries[0]["initial_energy"] > 0 and entries[0]["sup_energy"] > 0
        assert entries[1]["initial_energy"] is None and entries[1]["sup_energy"] is None
        assert entries[1]["blowup"]

    def test_infinite_safety_factor_exit_2_without_output(self, tmp_path, capsys):
        # exited 0 and wrote "gamma": Infinity into gamma.json
        out = tmp_path / "cal"
        code = main(["calibrate-gamma", "--n", "16", "--samples", "50",
                     "--safety-factor", "inf", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: safety factor")
        assert not out.exists()


class TestOtherCommands:
    def test_identities(self, capsys):
        assert main(["identities", "--n", "16", "--samples", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["energy", "momentum", "stress"]
        assert all(line.endswith("PASS") for line in lines)

    def test_gronwall_selftest(self):
        assert main(["gronwall-selftest", "--samples", "2000"]) == 0

    def test_calibrate_gamma(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert main(["calibrate-gamma", "--n", "16", "--samples", "50",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip()
        assert float(printed) > 0
        doc = _strict_json(out / "gamma.json")
        assert doc["gamma"] == pytest.approx(float(printed))

    @pytest.mark.parametrize("factor", ["-1", "0", "nan"])
    def test_calibrate_gamma_rejects_nonpositive_safety_factor(self, factor, capsys):
        code = main(["calibrate-gamma", "--n", "16", "--samples", "50",
                     "--safety-factor", factor])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("alpha", ["-0.5", "1e200"])
    def test_sweep_alpha_out_of_range_alpha_exit_2(self, tmp_path, config_path, capsys,
                                                   alpha):
        # -0.5 used to meet the sweep's own rule and message, 1e200 check_alpha's
        out = tmp_path / "sweep"
        code = main(["sweep-alpha", "--config", str(config_path),
                     "--out", str(out), "--alphas", f"1,{alpha}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha must be positive, with alpha^2 and 1/alpha^2 "
                              f"finite, got {float(alpha)}")
        assert not out.exists()

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
        doc = _strict_json(out / "sweep.json")
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
