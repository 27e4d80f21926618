import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lobphase
from lobphase import book
from lobphase.cli import RunConfig, main
from lobphase.output import CsvRows, write_csv


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

    def test_exact_mode_scales_to_shared_uniform_support(self, capsys, tmp_path):
        law = {"kind": "uniform", "lo": 0.2, "hi": 0.8}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dist_bid": law, "dist_ask": law}))
        code, out, _ = run_cli(capsys, "kappa", "--mode", "exact", "--config", str(cfg))
        assert code == 0
        assert "kappa_b=0.330687" in out and "kappa_a=0.669313" in out
        code, out, _ = run_cli(capsys, "kappa", "--mode", "ode", "--config", str(cfg))
        assert "kappa_b=0.330687" in out

    def test_exact_mode_rejects_different_uniform_supports(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dist_bid": {"kind": "uniform", "lo": 0.2, "hi": 0.8}}))
        for mode in (["--mode", "exact"], ["--compare", "--n", "1000"]):
            code, out, err = run_cli(capsys, "kappa", *mode, "--config", str(cfg))
            assert code == 2
            assert "one uniform support" in err and "exact:" not in out

    def test_mc_names_kernel(self, capsys):
        from lobphase import book
        code, out, _ = run_cli(capsys, "kappa", "--mode", "mc", "--n", "2000")
        assert code == 0
        assert f"kernel: {book.KERNEL}\n" in out

    def test_mc_too_few_arrivals_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "kappa", "--mode", "mc", "--n", "5")
        assert code == 2
        assert "--n >= 10" in err and "mc:" not in out

    def test_mc_degenerate_estimate_is_refused(self, capsys):
        # 20 arrivals leave the bid tail ratio at 0, which would print kappa_b=0
        code, out, err = run_cli(capsys, "kappa", "--mode", "mc", "--n", "20",
                                 "--seed", "0")
        assert code == 3
        assert "tail ratio is zero" in err and "raise --n" in err
        assert "mc:" not in out

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
        assert "kernel: c\n" in out or "kernel: python\n" in out
        assert "kernel" not in json.loads((tmp_path / "summary.json").read_text())

    # (argv) -> sha256 of the four CSV files, each name then its bytes, that
    # `simulate ... --out run` writes, recorded before the rows were formatted
    # from Python scalars; the short run's checkpoints hold -inf and inf quotes
    CSV_GOLDEN = {
        ("--n", "20000", "--bins", "20", "--seed", "7"):
            "bd89dc60e9109f9500b5f649dfb324f99a4ff698b68889f9fbe23037dbcaa68f",
        ("--n", "12", "--bins", "20", "--seed", "3"):
            "71eb36d3e1f198d5d85d80a31f30d8354d88e68d5e9384d454cd37900d37bc2d",
    }

    @pytest.mark.parametrize("argv", list(CSV_GOLDEN), ids=["20000", "12"])
    @pytest.mark.parametrize("python_loop", [False, True], ids=["loaded", "python"])
    def test_csv_bytes(self, capsys, tmp_path, monkeypatch, argv, python_loop):
        # a relative --out, as the config hash on each file's first line covers it
        monkeypatch.chdir(tmp_path)
        if python_loop:
            monkeypatch.setattr(book, "_loaded", book._PYTHON_KERNEL)
        code, _, _ = run_cli(capsys, "simulate", *argv, "--out", "run")
        assert code == 0
        digest = hashlib.sha256()
        for name in ("checkpoints.csv", "occupation.csv", "joint.csv", "top_shape.csv"):
            digest.update(name.encode())
            digest.update((tmp_path / "run" / name).read_bytes())
        assert digest.hexdigest() == self.CSV_GOLDEN[argv]
        if argv[1] == "12":
            fields = (tmp_path / "run" / "checkpoints.csv").read_text().replace("\n", ",")
            assert {"-inf", "inf"} <= set(fields.split(","))

    def test_long_csv_is_written_in_bounded_memory(self, tmp_path, monkeypatch):
        # the bytes of csv.writer across block edges, formatted a block at a
        # time, so ten times the rows peak at about the same memory: all
        # 10,001 rows at once would add about 2 MB
        monkeypatch.setattr(CsvRows, "BLOCK", 100)
        peaks = []
        for n in (1_001, 10_001):
            t = np.arange(n) * 0.5
            beta = np.where(np.arange(n) % 7, np.linspace(-1, 1, n), -np.inf)
            columns = (t, np.arange(n) % 50, np.arange(n) % 31, beta, np.full(n, np.inf))
            write_csv(tmp_path / "rows.csv", list("TBAba"), zip(*columns))
            tracemalloc.start()
            try:
                write_csv(tmp_path / "blocks.csv", list("TBAba"), CsvRows(*columns))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert peaks[1] < peaks[0] + 50_000

    def test_calls_in_one_process_share_no_options(self, capsys, tmp_path):
        # the parser is built once per process; a flag of one call must not
        # reach the next
        for seed, argv in ((5, ["--seed", "5"]), (0, [])):
            code, _, _ = run_cli(capsys, "simulate", "--n", "2000", *argv,
                                 "--out", str(tmp_path / str(seed)))
            assert code == 0
            assert json.loads((tmp_path / str(seed) / "summary.json").read_text())["seed"] == seed

    def test_empty_run(self, capsys, tmp_path):
        # zero arrivals is a config error, as for runmax and the coupling suite
        code, out, err = run_cli(capsys, "simulate", "--n", "0",
                                 "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("config error:") and "--n >= 1" in err
        assert out == "" and list(tmp_path.iterdir()) == []

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


class TestConfigTypes:
    """Ill-typed config values are config errors (exit 2), not tracebacks."""

    def _run(self, capsys, tmp_path, command, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        return run_cli(capsys, command, "--config", str(cfg),
                       "--out", str(tmp_path / "o"))

    def test_string_tol(self, capsys, tmp_path):
        code, _, err = self._run(capsys, tmp_path, "ode", {"tol": "abc"})
        assert code == 2 and "tol" in err

    def test_string_eps(self, capsys, tmp_path):
        code, _, err = self._run(capsys, tmp_path, "lyapunov", {"eps": "abc"})
        assert code == 2 and "eps" in err

    def test_fractional_bins(self, capsys, tmp_path):
        code, _, err = self._run(capsys, tmp_path, "pi", {"bins": 2.5})
        assert code == 2 and "bins" in err

    def test_bool_as_int(self, capsys, tmp_path):
        code, _, err = self._run(capsys, tmp_path, "simulate", {"n": True})
        assert code == 2 and "n must be int" in err

    def test_integral_float_is_an_int(self, capsys, tmp_path):
        code, _, _ = self._run(capsys, tmp_path, "simulate", {"n": 2e3})
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["n"] == 2000 and isinstance(summary["n"], int)
        # a list[int] field takes integral floats entry by entry
        code, out, _ = self._run(capsys, tmp_path, "check",
                                 {"suite": "coupling", "n": 100, "seeds": [1.0, 2e0]})
        assert code == 0
        assert "seed=1 " in out and "seed=2 " in out and "seed=1.0" not in out


def test_import_does_not_load_scipy():
    # the package needs only numpy: importing it, shooting the thresholds and
    # solving the balance equations load no scipy module
    src = Path(lobphase.__file__).resolve().parents[1]
    code = ("import sys, lobphase, lobphase.cli; "
            "from lobphase import analytics, dist; "
            "spec = dist.ArrivalSpec(dist.uniform_dist(), dist.uniform_dist()); "
            "sol = analytics.shoot_kappa(spec); "
            "part = dist.make_partition(40, spec); "
            "analytics.solve_binned_pi(spec, part, part.index(sol.kappa_b), "
            "part.index(sol.kappa_a), float(spec.bid_dist.cdf(sol.kappa_b))); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_run_does_not_load_numpy_random():
    # the compiled kernel draws the uniform and tent laws' arrivals, Philox
    # uniforms included, so numpy.random, which numpy 2 loads on first use,
    # stays unloaded (numpy 1 loads it with numpy)
    src = Path(lobphase.__file__).resolve().parents[1]
    code = ("import sys, numpy; bare = 'numpy.random' in sys.modules; "
            "from lobphase import book, dist, sim; "
            "tent = dist.piecewise_linear_dist([0, 0.5, 1], [0, 2, 0]); "
            "[sim.run(book.MatchRule(book.ORDINARY), book.BookState(), "
            "sim.ArrivalStream(1, 40_000, dist.ArrivalSpec(law, law)), 1_000) "
            "for law in (dist.uniform_dist(), tent)]; "
            "print(book.KERNEL, bare, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    kernel, bare, loaded = out.stdout.split()
    if kernel != "c" or bare == "True":
        pytest.skip(f"kernel {kernel}, numpy.random loaded by numpy itself: {bare}")
    assert loaded == "False"


@pytest.mark.parametrize("argv", [
    "bound3 --x 2 --y 0.5", "bound3 --x 0.6 --y 0.4", "lyapunov --eps 0.3",
    "check --suite lyapunov --eps 0.5", "couple --bins 3", "ode --tol -1", "ode --tol 0",
    "ode --tol 1", "ode --tol inf", "ode --tol nan", "pi --tol 2",
    "simulate --n 100 --record-every -5",
])
def test_out_of_range_value_is_config_error(capsys, tmp_path, argv):
    # --out only where the command reads it, so each case fails on the value it names
    out = () if argv.split()[0] in ("bound3", "couple") else ("--out", str(tmp_path))
    code, _, err = run_cli(capsys, *argv.split(), *out)
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("law", [
    {"kind": "piecewise_linear"},                           # missing x and y
    {"kind": "piecewise_linear", "x": [0, 1]},              # missing y
    {"kind": "cdf_table", "x": [0, 1]},                     # missing cdf
    {"kind": "cdf_table"},                                  # neither form
    {"kind": "uniform", "extra": 3},                        # unknown key
    {"kind": "piecewise_linear", "x": [0, 1], "y": [1, 1], "lo": 0},     # unknown key
    {"kind": "cdf_table", "path": "t.csv", "x": [0, 1], "cdf": [0, 1]},  # both forms
    {"kind": "gaussian"},                                   # unknown kind
    {"lo": 0.2},                                            # no kind
    {"kind": ["uniform"]},                                  # kind not a string
    {"kind": "uniform", "lo": [1]},                         # values of the wrong type
    {"kind": "piecewise_linear", "x": [0, 1], "y": {"a": 1}},
    {"kind": "cdf_table", "path": 5},
])
def test_bad_config_law_is_config_error(capsys, tmp_path, law):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dist_bid": law}))
    code, _, err = run_cli(capsys, "ode", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err
    assert str(law.get("kind")) in err          # the error names the kind


@pytest.mark.parametrize("argv", [
    "simulate --n 100 --out {file}/o", "ode --out {file}/o", "pi --bins 20 --out {file}/o",
    "lyapunov --out {file}/o", "runmax --n 100 --out {file}/o",
    "check --suite coupling --n 100 --out {file}/o", "ode --config {cfg} --out {tmp}/o",
])
def test_unusable_path_is_config_error(capsys, tmp_path, argv):
    # an output directory under a regular file, or a CDF table that is not there
    (tmp_path / "file").write_text("")
    law = {"kind": "cdf_table", "path": str(tmp_path / "missing.csv")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dist_bid": law, "dist_ask": law}))
    code, _, err = run_cli(capsys, *argv.format(file=tmp_path / "file", cfg=cfg,
                                                tmp=tmp_path).split())
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err
    assert str(tmp_path / ("missing.csv" if "{cfg}" in argv else "file")) in err


# Every option each subcommand reads, with a value that the command must
# refuse (exit 2, 3 or 4).  Arguments after the value set the context in which
# the option is read: the suite, or a small run whose output path is unusable.
# An option that a command accepted but ignored would exit 0 here.
BAD_VALUES = {
    "simulate": {"--rule": "fifo", "--n": "-1", "--bins": "1", "--seed": "-1",
                 "--record-every": "-5", "--time-mode": "bogus", "--out": "{file}/o --n 100"},
    "kappa": {"--mode": "bogus", "--tol": "2", "--n": "-1", "--seed": "-1"},
    "ode": {"--tol": "0", "--out": "{file}/o"},
    "pi": {"--bins": "1", "--tol": "1", "--out": "{file}/o"},
    "check": {"--suite": "bogus", "--n": "-1", "--bins": "1", "--seed": "-1",
              "--seeds": "1 -1", "--eps": "0.5 --suite lyapunov", "--x": "2 --suite bounds",
              "--y": "0.1 --suite bounds", "--tol": "inf",
              "--out": "{file}/o --suite coupling --n 100"},
    "lyapunov": {"--eps": "0.3", "--out": "{file}/o"},
    "bound3": {"--x": "2", "--y": "0.1"},
    "couple": {"--bins": "3", "--n": "-1", "--seed": "-1"},
    "runmax": {"--n": "0", "--seed": "-1", "--bins": "1", "--out": "{file}/o --n 100"},
}
# --compare takes no value, so it has no bad one
FLAG_ONLY = {"kappa": {"--compare"}}
LAW_READERS = {"simulate", "kappa", "ode", "pi", "check", "couple", "runmax"}


def read_flags(command: str) -> set[str]:
    return set(BAD_VALUES[command]) | FLAG_ONLY.get(command, set())


# --dist was an option of every command; its one legal value was the default
ALL_FLAGS = set().union(*map(read_flags, BAD_VALUES)) | {"--dist"}


def exit_code(capsys, argv: list[str]) -> tuple[int, str]:
    """`main`'s exit status, argparse's usage errors included, and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestOptionTable:
    @pytest.mark.parametrize("command", list(BAD_VALUES))
    def test_help_lists_only_the_options_read(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == read_flags(command) | {"--help", "--config"}

    @pytest.mark.parametrize("command", list(BAD_VALUES))
    def test_unread_flag_is_a_usage_error(self, capsys, command):
        for flag in sorted(ALL_FLAGS - read_flags(command)):
            argv = [command, flag] + ([] if flag == "--compare" else ["1"])
            code, err = exit_code(capsys, argv)
            assert code == 2, argv
            assert "unrecognized arguments" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", list(BAD_VALUES))
    def test_unread_config_key_is_config_error(self, capsys, tmp_path, command):
        keys = {f.lstrip("-").replace("-", "_") for f in ALL_FLAGS - read_flags(command)}
        if command not in LAW_READERS:
            keys |= {"dist_bid", "dist_ask"}
        cfg = tmp_path / "cfg.json"
        for key in sorted(keys):
            value = "uniform" if key == "dist" else getattr(RunConfig(), key)
            cfg.write_text(json.dumps({key: value}))
            code, err = exit_code(capsys, [command, "--config", str(cfg)])
            assert code == 2, key
            assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("argv", [f"{c} {flag} {value}"
                                      for c, cases in BAD_VALUES.items()
                                      for flag, value in cases.items()])
    def test_bad_value_of_a_read_option_fails(self, capsys, tmp_path, argv):
        (tmp_path / "file").write_text("")
        code, err = exit_code(capsys, argv.format(file=tmp_path / "file").split())
        assert code in (2, 3, 4)
        assert err.startswith(("config error:", "solver error:", "runtime assertion"))
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(LAW_READERS))
    def test_bad_law_is_config_error(self, capsys, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        for side in ("dist_bid", "dist_ask"):
            cfg.write_text(json.dumps({side: {"kind": "bogus"}}))
            code, err = exit_code(capsys, [command, "--config", str(cfg)])
            assert code == 2 and "bogus" in err, side


class TestCheckCommand:
    def test_bounds_suite(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check", "--suite", "bounds",
                               "--out", str(tmp_path))
        assert code == 0
        assert "PASS" in out

    def test_bounds_suite_uses_configured_law(self, capsys, tmp_path):
        # bids lean high, asks lean low: F_b(kappa_b) = 0.1523, not the
        # uniform 0.2178, and a bound between the two must fail
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dist_bid": {"kind": "piecewise_linear", "x": [0, 1], "y": [0.8, 1.2]},
            "dist_ask": {"kind": "piecewise_linear", "x": [0, 1], "y": [1.2, 0.8]}}))
        code, out, _ = run_cli(capsys, "check", "--suite", "bounds",
                               "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert "F_b(kappa_b)=0.1523 PASS" in out
        code, out, _ = run_cli(capsys, "check", "--suite", "bounds", "--x", "0.35",
                               "--y", "0.7", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 4
        assert "bound=31/200 <= F_b(kappa_b)=0.1523 FAIL" in out

    def test_lyapunov_suite(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check", "--suite", "lyapunov",
                               "--eps", "0.01", "--out", str(tmp_path))
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("suite", ["coupling", "all"])
    def test_coupling_suite_without_arrivals_is_config_error(self, capsys, tmp_path,
                                                             suite):
        code, out, err = run_cli(capsys, "check", "--suite", suite, "--n", "0",
                                 "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("config error:") and "--n >= 1" in err
        assert out == ""

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_suite_is_config_error(self, capsys, tmp_path, source):
        if source == "flag":
            args = ("--suite", "bogus")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"suite": "bogus"}))
            args = ("--config", str(cfg))
        code, out, err = run_cli(capsys, "check", *args, "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("config error:") and "bogus" in err
        assert out == ""

    @pytest.mark.parametrize("seed", ["4", "7", "15"])
    def test_coupling_suite_keeps_its_book_uncrossed(self, capsys, tmp_path, seed):
        # an ask added at 0.61 before arrival 100 once crossed these seeds' books
        code, out, err = run_cli(capsys, "check", "--suite", "coupling", "--seed", seed,
                                 "--n", "2000", "--out", str(tmp_path))
        assert code == 0, err
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_coupling_suite_small(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check", "--suite", "coupling",
                               "--n", "5000", "--seeds", "1", "2",
                               "--out", str(tmp_path))
        assert code == 0
        assert out.count("PASS") >= 8
        assert (tmp_path / "coupling_reports.csv").exists()

    @pytest.mark.parametrize("bins", ["15", "25"])
    def test_coupling_suite_on_bins_not_a_multiple_of_ten(self, capsys, tmp_path, bins):
        # 15 or 25 bins over 2 coarse ones, whose cut no 15- or 25-bin
        # partition has: the fine partition takes it in
        code, out, err = run_cli(capsys, "check", "--suite", "coupling", "--bins", bins,
                                 "--n", "2000", "--out", str(tmp_path))
        assert code == 0, err
        assert out.count("PASS") == 4 and "FAIL" not in out
        lines = (tmp_path / "coupling_reports.csv").read_text().splitlines()
        # the comment line, the header and one row per check
        assert lines[0].startswith("# ") and len(lines) == 2 + 4


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

    def test_ode_on_cdf_table_file(self, capsys, tmp_path):
        # the uniform law as a 17-row CSV table, read and shot end to end
        table = tmp_path / "table.csv"
        table.write_text("price,cdf\n" + "".join(f"{k / 16},{k / 16}\n"
                                                 for k in range(17)))
        law = {"kind": "cdf_table", "path": str(table)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dist_bid": law, "dist_ask": law}))
        code, _, _ = run_cli(capsys, "ode", "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
        assert code == 0
        summary = json.loads((tmp_path / "o" / "ode_summary.json").read_text())
        assert abs(summary["kappa_b"] - 0.2178117) < 1e-6
        assert abs(summary["v_end"] - 1.0) < 1e-4
        assert len((tmp_path / "o" / "varpi.csv").read_text().splitlines()) == 1002

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

    def test_pi_infeasible_solve_exits_3(self, capsys, tmp_path, monkeypatch):
        # The solve is asked about a support far wider than the thresholds'
        # bins; its answer has a negative entry, which its own check refuses.
        from lobphase import analytics
        solve = analytics.solve_binned_pi
        monkeypatch.setattr(analytics, "solve_binned_pi",
                            lambda spec, part, k_b, k_a, fb: solve(spec, part, 1, 18, 0.2))
        code, out, err = run_cli(capsys, "pi", "--bins", "20", "--out", str(tmp_path))
        assert code == 3
        assert err.startswith("solver error: balance system infeasible")
        assert "Traceback" not in err and out == ""
        assert not (tmp_path / "binned_pi.csv").exists()

    def test_ode_loose_tol_stops_inside_the_bracket(self, capsys, tmp_path):
        # |u_end| <= 0.5 already holds at the scan bracket's ends (the end
        # 0.21425714 is 3.6e-3 from the threshold); the root search stops at
        # its first step inside the bracket instead
        from lobphase.analytics import kappa_uniform_exact
        code, out, _ = run_cli(capsys, "ode", "--tol", "0.5", "--out", str(tmp_path))
        assert code == 0
        kappa_b = float(out.split("kappa_b=")[1].split()[0])
        assert abs(kappa_b - kappa_uniform_exact()[0]) <= 1e-3

    def test_couple_runs(self, capsys):
        code, out, _ = run_cli(capsys, "couple", "--bins", "8", "--n", "50000",
                               "--seed", "2")
        assert code == 0
        assert "strict" in out

    def test_couple_too_few_arrivals_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "couple", "--n", "5", "--bins", "4")
        assert code == 2
        assert "--n >= 10" in err and out == ""

    def test_couple_too_few_bins_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "couple", "--n", "50", "--bins", "3")
        assert code == 2
        assert err == "config error: couple needs --bins >= 4, got 3\n" and out == ""

    def test_couple_degenerate_estimate_is_refused(self, capsys):
        # 10 arrivals leave every tail ratio at 0, which would print 0.0000 thrice
        code, out, err = run_cli(capsys, "couple", "--n", "10", "--bins", "4")
        assert code == 3
        assert "tail ratio is zero" in err and "raise --n" in err
        assert out == ""
