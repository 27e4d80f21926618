"""Smoke runs of the experiment scripts the README documents, at small n.

Each script runs in-process on its own command line and must write every
file it promises; this catches a script left behind by an API change.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

from lobphase import book, sim

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


@pytest.mark.parametrize("name, argv, files", [
    ("reproduce_density.py", ("--n", "20000", "--bins", "20"),
     ("density_comparison.csv",)),
    ("running_max_experiment.py", ("--n", "20000", "--seeds", "2"),
     ("series_seed0.csv", "last_jumps.csv")),
    ("recurrence_report.py", ("--n", "5000"),
     ("certificate_published.txt", "certificate_enumerated.txt",
      "empirical_drifts.csv", "checkpoints.csv", "occupation.csv", "joint.csv",
      "top_shape.csv")),
])
def test_script_writes_its_outputs(monkeypatch, tmp_path, name, argv, files):
    run_script(monkeypatch, name, *argv, "--out", str(tmp_path))
    for f in files:
        assert len((tmp_path / f).read_text().splitlines()) > 1, f


def test_bench_records_both_layers(monkeypatch, tmp_path):
    # the match loop and the recorder folds over several chunks, the analytic
    # routes and the gauge, and the loaded kernel restored after
    monkeypatch.setattr(sim, "CHUNK", 300)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")     # the script sets it; restored after
    loaded = book._kernel()
    run_script(monkeypatch, "bench.py", "--n-draw", "1000", "--match-sizes", "500",
               "--repeats", "1", "--out", str(tmp_path))
    assert book._kernel() is loaded
    record = json.loads((tmp_path / "bench.json").read_text())
    assert record["machine"]["kernel"] == loaded.name
    assert set(record["machine"]) == {"cpu_model", "nproc", "python", "numpy", "blas_threads",
                                      "kernel"}
    draw = record["materialize_ns_per_arrival"]["laws"]
    assert set(draw) == {"uniform", "tent"}
    compiled = loaded.name == "c"
    for row in draw.values():
        assert row["numpy"] > 0 and (row["c"] > 0 if compiled else row["c"] is None)
    uniforms = record["uniforms_ns_per_arrival"]
    assert set(uniforms) == {"n", "c", "numpy"} and uniforms["n"] == 1000
    assert uniforms["numpy"] > 0 and (uniforms["c"] > 0 if compiled else uniforms["c"] is None)
    assert list(record["match_loop_ns_per_arrival"]) == ["500"]
    refinement = record["check_refinement_s"]
    assert refinement["n"] == 1000 and refinement["match_kernel"] == loaded.name
    for kind in (book.ORDINARY_BINNED, book.STRICT_BINNED):
        row = refinement[kind]
        assert row["numpy"] > 0 and (row["c"] > 0 if compiled else row["c"] is None)
    folds = record["recorder_folds_ns_per_arrival"]
    assert folds["n"] == 40_000 and set(folds["folds"]) == {
        "_Checkpoints", "_Binned", "_FiveBin", "_BandCount", "_RunningMax"}
    for row in folds["folds"].values():
        assert row["numpy"] > 0 and (row["c"] > 0 if compiled else row["c"] is None)
    csvs = record["write_trace_csvs"]
    assert (csvs["n"], csvs["bins"], csvs["kernel"]) == (40_000, 100, loaded.name)
    assert csvs["ns_per_arrival"] > 0 and csvs["ms_per_call"] > 0
    assert list(record["analytics_ms_per_call"]) == [
        "shoot_kappa/uniform", "shoot_kappa/tent", "shoot_kappa/table", "integrate_varpi/table",
        "finiteness_lower_bound", "solve_binned_pi", "certify_drift", "certify_drift/enumerated",
        "enumerated_drift_affine/nine", "verify_level_fixture", "varpi_uniform_exact/scalar"]
    assert all(ms > 0 for ms in record["analytics_ms_per_call"].values())
    # a gauge reading before and after each timed layer
    assert list(record["gauge_wall_s"]) == [
        "materialize/uniform", "materialize/tent", "uniforms",
        *["match_loop/500"] * compiled, "check_refinement", "recorder_folds",
        "write_trace_csvs", "analytics"]
    assert all(len(g) == 2 and min(g) > 0 for g in record["gauge_wall_s"].values())
    rss = record["peak_rss_mb"]
    assert rss["n"] == 1000 and list(rss["drivers"]) == [
        "run_arrivals", "check_extra_order", "check_bounded_perturbation", "check_refinement"]
    for row in rss["drivers"].values():
        assert 0 < row["after_draw"] <= row["end"]
