"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PROVENANCE = ("nproc", "cpu_model", "python", "numpy", "scipy", "source", "seed",
              "sizes", "traced")


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_every_check_ran(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record = json.loads(record_line)["record"]
    result = json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        record["failures"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert sorted(record["checks_run"]) == sorted(record["checks_expected"])
    assert record["failed_share"] == {"value": 0.0, "unit": "ratio",
                                      "base_attempted": result["attempted"]}
    assert all(key in record for key in PROVENANCE)
    assert record["traced"] is bool(trace)
    if trace:
        assert record["absent_sites"] == [] and record["traced_passes"] >= 1


def test_fails_without_the_program(tmp_path):
    """Without src/ the benchmark exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    return tracer


def test_missing_call_site_is_reported_absent(tracer_module, monkeypatch):
    import lobphase.coupling
    import lobphase.sim
    original = lobphase.sim.apply_arrival
    monkeypatch.delattr(lobphase.coupling, "apply_arrival")
    t = tracer_module.Tracer()
    t.install()
    try:
        assert lobphase.sim.apply_arrival is not original
    finally:
        t.uninstall()
    assert lobphase.sim.apply_arrival is original
    assert "lobphase.coupling.apply_arrival" in t.absent
    assert "book" not in t.absent_layers()
    assert t.layer_metrics()["book.apply_arrival.calls"] == 0


def test_layer_without_call_sites_is_absent(tracer_module, monkeypatch):
    import lobphase.coupling
    import lobphase.lyapunov
    import lobphase.sim
    for module in (lobphase.sim, lobphase.coupling, lobphase.lyapunov):
        monkeypatch.delattr(module, "apply_arrival")
    t = tracer_module.Tracer()
    t.install()
    t.uninstall()
    assert "book" in t.absent_layers()
    assert "sim" not in t.absent_layers()


def test_gauged_clock_divides_each_stretch_by_the_gauge_runs_around_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import gauge
    clock = gauge.GaugedClock((1.0, 1.0))
    clock.gauges = [(1.0, 1.0), (3.0, 1.0), (1.0, 3.0)]
    clock.segments = [(4.0, 2.0), (6.0, 4.0)]
    assert clock.totals() == (10.0, 6.0)
    assert clock.in_gauges() == (4.0 / 2.0 + 6.0 / 2.0, 2.0 / 1.0 + 4.0 / 2.0)
