"""lobphase benchmark: one workload, closed-loop passes, checked outputs, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload threshold_mc --seed 1 --seconds 25 --trace 0

The run sets up (imports lobphase from ``src/``, builds the workload's
inputs from the seed, and runs a small warm-up pass on the default seed
whose output digests must equal the ones in ``golden.json``).  It then runs
passes of the workload back to back, each starting when the previous one
returns, until the next pass would end after ``--seconds``.  Every pass
repeats the same units on the same inputs, and its digests must equal the
first pass's.  The speed gauge (``gauge.py``) runs before the first pass and
every quarter second of an untraced pass, and each stretch between two gauge
runs is reported in units of their mean, which cancels the machine's drift in
speed.

With ``--trace 0`` the last line carries the end-to-end metrics; set-up is
timed in separate fresh processes, each against the gauge runs before and
after it, and reported as a median in seconds at the gauge's reference
speed (``gauge.GAUGE_REFERENCE_S``; raw seconds are in the record).  With
``--trace 1`` passes alternate between untraced and traced, and the last line
carries the per-layer metrics of the traced passes (medians), plus the
tracing overhead.  Spans are written to ``perfbench/.out/`` when the run
ends.  The line before the last one is the run record: provenance, sizes,
per-pass figures (raw seconds too) and every failure.  Metric names and units
come from ``BENCHMARK.json``.

``--record-golden`` rewrites ``golden.json`` from the current code; a change
that alters a trace has to say why it re-records.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = {"full": 3, "tiny": 1}
MIN_PASSES = 3
GAUGE_READS = 3     # gauge runs whose median is read around each set-up process
EXIT_NO_PROGRAM = 2
# One BLAS thread, set before numpy loads (the set-up processes inherit it).
# With OpenBLAS's default of one thread per core, the 100-bin lsq_linear solve
# in solve_binned_pi takes 0.02 s or 0.9 s from one call to the next on a
# 2-core machine, as idle BLAS threads spin against the benchmark's own.
BLAS_THREADS = "1"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="workload size; tiny is for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit (timed by the parent run)")
    p.add_argument("--record-golden", action="store_true",
                   help="rewrite golden.json from the current code and exit")
    return p.parse_args(argv)


def import_program():
    """Import lobphase from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        lobphase = importlib.import_module("lobphase")
    except ImportError as exc:
        print(f"cannot import lobphase from {src}: {exc}", file=sys.stderr)
        return None
    if Path(lobphase.__file__).resolve().parent.parent != src.resolve():
        print(f"lobphase was imported from {lobphase.__file__}, not {src}", file=sys.stderr)
        return None
    return lobphase


def run_pass(workload, inputs, tracer=None, clock=None):
    """One pass; with a GaugedClock the gauge runs every quarter second and the
    returned wall and CPU seconds leave the gauge runs out."""
    from gauge import cpu_seconds
    from workloads import PassLog
    if tracer is not None:
        inputs = {**inputs, "specs": {k: type(v)(tracer.wrap_law(v.bid_dist),
                                                 tracer.wrap_law(v.ask_dist), v.p_b)
                                      for k, v in inputs["specs"].items()}}
        tracer.install()
    log = PassLog(workload.units, tracer)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with clock if clock is not None else contextlib.nullcontext():
            workload.run(inputs, log)
    except Exception as exc:        # outside any unit: the units left count as failed
        print(f"pass aborted: {exc!r}", file=sys.stderr)
    finally:
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if tracer is not None:
            tracer.uninstall()
    if clock is not None:
        wall, cpu = clock.totals()
    log.finish()
    return log, wall, cpu


def golden_digests(workload, size: str) -> dict:
    log, _, _ = run_pass(workload, workload.build(DEFAULT_SEED, workload.sizes[size]))
    if log.failed:
        raise RuntimeError(f"{workload.name} ({size}) failed: {log.errors}")
    return {name: d for name, d in log.digests.items() if d is not None}


def compare(log, expected: dict, label: str) -> None:
    """Mark units whose digest differs from the expected one as failed."""
    for name, want in expected.items():
        got = log.digests.get(name)
        if got != want:
            log.errors[name].append(f"{label} digest {got} != recorded {want}")


def setup(args, workload):
    """Run the default-seed warm-up pass and build the inputs; returns (inputs, warm-up log)."""
    golden = json.loads(GOLDEN.read_text())
    warm, _, _ = run_pass(workload, workload.build(DEFAULT_SEED, workload.sizes["tiny"]))
    compare(warm, golden["tiny"].get(workload.name, {}), "warm-up")
    return workload.build(args.seed, workload.sizes[args.size]), warm


def time_setups(args, n: int) -> tuple[list[float], list[float]]:
    """Times n fresh set-up processes; returns their raw seconds and their
    seconds at the gauge's reference speed."""
    from gauge import GAUGE_REFERENCE_S, time_gauge

    def gauge_wall() -> float:
        return median(time_gauge()[0] for _ in range(GAUGE_READS))

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    raw, at_reference = [], []
    before = gauge_wall()
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr}")
        after = gauge_wall()
        at_reference.append(raw[-1] / ((before + after) / 2) * GAUGE_REFERENCE_S)
        before = after
    return raw, at_reference


def source_id() -> str:
    """git SHA when the checkout is a repository, else a hash of src/."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, workload, lobphase) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload.name, "seed": args.seed, "traced": bool(args.trace),
        "size": args.size, "sizes": workload.sizes[args.size],
        "seconds": args.seconds,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "lobphase": getattr(lobphase, "__version__", "unknown"), "source": source_id(),
    }


def measure(args, workload, inputs):
    """Closed-loop passes until the next one would overrun; returns per-pass
    records.  Untraced passes are timed with the gauge, traced ones without."""
    from gauge import GaugedClock, time_gauge
    from tracer import Tracer
    passes = []
    t_start = time.perf_counter()
    before = time_gauge()
    while True:
        t_pass = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        clock = None if traced else GaugedClock(before)
        log, wall, cpu = run_pass(workload, inputs, tracer, clock)
        record = {"log": log, "wall": wall, "cpu": cpu, "tracer": tracer}
        if clock is None:
            before = time_gauge()
        else:
            record["wall_gauges"], record["cpu_gauges"] = clock.in_gauges()
            record["gauge_wall"] = median(w for w, _ in clock.gauges)
            before = clock.gauges[-1]
        record["elapsed"] = time.perf_counter() - t_pass
        passes.append(record)
        elapsed = time.perf_counter() - t_start
        next_pass = median(p["elapsed"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + next_pass > args.seconds:
            return passes


def layer_values(traced, untraced) -> dict:
    """Per-layer figures: medians over the traced passes, plus the tracing overhead."""
    per_pass = [p["tracer"].layer_metrics() for p in traced]
    values = {}
    for name in per_pass[0]:
        vals = [m[name] for m in per_pass]
        # counts repeat exactly from pass to pass; median_low keeps them whole
        whole = all(isinstance(v, int) for v in vals)
        values[name] = (median_low if whole else median)(vals)
    wall_off = median(p["wall"] for p in untraced)
    wall_on = median(p["wall"] for p in traced)
    values["trace.overhead_share"] = (wall_on - wall_off) / wall_off
    return values


def record_golden(workloads) -> int:
    golden = {size: {name: golden_digests(w, size) for name, w in workloads.items()}
              for size in ("tiny", "full")}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    lobphase = import_program()
    if lobphase is None:
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS
    if args.record_golden:
        return record_golden(WORKLOADS)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    inputs, warm = setup(args, workload)
    if args.setup_only:
        return 0        # the parent run counts warm-up failures from its own set-up
    setup_raw, setup_samples = ([], []) if args.trace else time_setups(
        args, SETUP_SAMPLES[args.size])

    passes = measure(args, workload, inputs)
    first = passes[0]["log"]
    for i, p in enumerate(passes[1:], start=1):
        compare(p["log"], first.digests, f"pass {i} vs pass 0")
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())
        compare(first, golden[args.size].get(workload.name, {}), "default-seed")

    logs = [warm] + [p["log"] for p in passes]
    attempted = sum(len(lg.units) for lg in logs)
    failures = {f"{i}:{n}": lg.errors[n] for i, lg in enumerate(logs) for n in lg.failed}
    failed = len(failures)

    untraced = [p for p in passes if p["tracer"] is None]
    traced = [p for p in passes if p["tracer"] is not None]
    if args.trace:
        values = layer_values(traced, untraced)
        absent = traced[0]["tracer"].absent
        absent_layers = traced[0]["tracer"].absent_layers()
    else:
        values = {
            "setup_s": median(setup_samples),
            "wall_gauges": median(p["wall_gauges"] for p in untraced),
            "events_per_gauge": median(p["log"].events / p["wall_gauges"] for p in untraced),
            "cpu_gauges": median(p["cpu_gauges"] for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        absent, absent_layers = [], []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    record = {
        **provenance(args, workload, lobphase),
        "passes": len(passes), "traced_passes": len(traced),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_cpu_s": [p["cpu"] for p in passes],
        "pass_wall_gauges": [p.get("wall_gauges") for p in passes],
        "raw_untraced": {
            "wall_s": median(p["wall"] for p in untraced),
            "events_per_s": median(p["log"].events / p["wall"] for p in untraced),
            "cpu_s": median(p["cpu"] for p in untraced),
            "gauge_wall_s": median(p["gauge_wall"] for p in untraced),
        },
        "pass_traced": [p["tracer"] is not None for p in passes],
        "events_per_pass": first.events, "setup_samples_s": setup_raw,
        "setup_samples_reference_s": setup_samples,
        "units_attempted": attempted, "units_failed": failed,
        "failed_share": {"value": failed / attempted, "unit": "ratio",
                         "base_attempted": attempted},
        "checks_run": sorted(set().union(*(lg.checks for lg in logs))),
        "checks_expected": list(workload.checks),
        "failures": failures, "absent_sites": absent, "absent_layers": absent_layers,
    }
    if args.trace:
        out = BENCH_DIR / ".out"
        out.mkdir(exist_ok=True)
        spans = {"record": record, "passes": [p["tracer"].dump() for p in traced]}
        (out / f"trace-{workload.name}-seed{args.seed}.json").write_text(json.dumps(spans))
    for name, errs in failures.items():
        print(f"FAILED {name}: {' | '.join(errs)}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
