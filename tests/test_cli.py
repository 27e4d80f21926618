import json

import pytest

from lobphase.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKappaCommand:
    def test_exact_mode(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "--mode", "exact")
        assert code == 0
        assert "kappa_b=0.217812" in out
        assert "kappa_a=0.782188" in out

    def test_ode_mode_matches_exact(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "--mode", "ode")
        assert code == 0
        assert "kappa_b=0.2178" in out

    def test_exact_mode_rejects_nonuniform(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"dist_bid": {"kind": "piecewise_linear", "x": [0, 1], "y": [0, 2]}}))
        code, _, err = run_cli(capsys, "kappa", "--mode", "exact",
                               "--config", str(cfg))
        assert code == 2
        assert "uniform" in err

    def test_mc_too_few_arrivals_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "kappa", "--mode", "mc", "--n", "5")
        assert code == 2
        assert "--n >= 10" in err and "mc:" not in out

    def test_compare_small(self, capsys):
        code, out, _ = run_cli(capsys, "kappa", "--compare", "--n", "200000",
                               "--seed", "7")
        assert code == 0
        assert "PASS" in out


class TestSimulateCommand:
    def test_writes_outputs(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--n", "20000", "--bins", "20",
                               "--seed", "7", "--out", str(tmp_path))
        assert code == 0
        for name in ("checkpoints.csv", "occupation.csv", "joint.csv",
                     "top_shape.csv", "summary.json"):
            assert (tmp_path / name).exists(), name
        first = (tmp_path / "occupation.csv").read_text().splitlines()[0]
        assert first.startswith("# seed=7 config=")
        assert "kappa_b_hat" in out

    def test_empty_run(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--n", "0",
                             "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "checkpoints.csv").exists()

    def test_missing_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_rule_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--rule", "fifo",
                               "--out", str(tmp_path))
        assert code == 2
        assert "rule" in err


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000, "seed": 3}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--n", "2000", "--out", str(tmp_path / "o"))
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["n"] == 2000 and summary["seed"] == 3

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1000, "volatility": 3}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "volatility" in err


class TestCheckCommand:
    def test_bounds_suite(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check", "--suite", "bounds",
                               "--out", str(tmp_path))
        assert code == 0
        assert "PASS" in out

    def test_lyapunov_suite(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check", "--suite", "lyapunov",
                               "--eps", "0.01", "--out", str(tmp_path))
        assert code == 0
        assert "PASS" in out

    def test_coupling_suite_small(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check", "--suite", "coupling",
                               "--n", "5000", "--seeds", "1", "2",
                               "--out", str(tmp_path))
        assert code == 0
        assert out.count("PASS") >= 8
        assert (tmp_path / "coupling_reports.csv").exists()


class TestOtherCommands:
    def test_bound3_exact(self, capsys):
        code, out, _ = run_cli(capsys, "bound3", "--x", "0.4", "--y", "0.6")
        assert code == 0
        assert "1/10" in out

    def test_ode_writes_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "ode", "--out", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "ode_summary.json").read_text())
        assert abs(summary["kappa_b"] - 0.2178117) < 1e-5
        assert (tmp_path / "varpi.csv").exists()

    def test_lyapunov_certificate_files(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "lyapunov", "--eps", "0.01",
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "certificate.txt").exists()
        assert (tmp_path / "level_fixture.csv").exists()

    def test_runmax_series(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "runmax", "--n", "20000", "--seed", "3",
                               "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "running_max.csv").exists()
        assert "last running-max jump" in out

    def test_runmax_tent_law(self, capsys, tmp_path):
        # non-uniform laws take the band from the shooting thresholds
        tent = {"kind": "piecewise_linear", "x": [0, 0.5, 1], "y": [0, 2, 0]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dist_bid": tent, "dist_ask": tent}))
        code, out, _ = run_cli(capsys, "runmax", "--config", str(cfg), "--n", "5000",
                               "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        assert len((tmp_path / "running_max.csv").read_text().splitlines()) == 5002
        assert "last running-max jump" in out

    def test_pi_small(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "pi", "--bins", "20", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "binned_pi.csv").exists()

    def test_couple_runs(self, capsys):
        code, out, _ = run_cli(capsys, "couple", "--bins", "8", "--n", "50000",
                               "--seed", "2")
        assert code == 0
        assert "strict" in out
