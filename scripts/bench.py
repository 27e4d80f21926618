#!/usr/bin/env python3
"""Per-layer timings of the arrival draw, the match loop, the refinement
check, the recorders, the trace CSVs and the analytic routes, as JSON.

Each figure is the median over --repeats calls in this process:

- `sim.materialize` on the uniform and tent laws (both sides on the law,
  p_b = 0.5), under the compiled kernel's `draw` and under the numpy draw
  `book._draw_py`, taking turns call by call;
- the Philox uniforms alone, the side and the price stream a chunk at a time
  as `materialize` draws them, under the compiled `uniforms` and under numpy's
  generator (`book._uniforms_py`), taking turns call by call;
- the compiled `match` loop alone: the kernel's `run` timed around each chunk
  of `book.match_chunks` on uniform arrivals, ordinary rule, empty book;
- `coupling.check_refinement` of the 100-bin partition against the 10-bin
  one on --n-draw uniform arrivals, in seconds per call, under each
  binned rule, with the compiled refinement pass and with the numpy one
  (`book._PYTHON_KERNEL`'s), taking turns call by call;
- each recorder fold of the recurrence drivers (`sim._Checkpoints`,
  `_Binned`, `_FiveBin`, `_BandCount` and `_RunningMax`) over the chunk logs
  of one N_FOLD-arrival run, in ns per arrival, under the compiled kernel
  and under the numpy reference passes, taking turns run by run;
- `sim.write_trace_csvs` of an N_FOLD-arrival `sim.run` trace recorded on
  100 bins, as `lobphase simulate --bins 100` writes it;
- the analytic routes, in ms per call: `analytics.shoot_kappa` on the
  uniform, tent and 17-row uniform-table laws (`n_scan=64`, `tol=1e-10`),
  `integrate_varpi` on the table law from its threshold with `grid_n=64`,
  `finiteness_lower_bound` and `solve_binned_pi` at 100 bins on the
  uniform law, `lyapunov.certify_drift` of the published table at
  eps = 1/100 and of the enumerated table at eps = 3/25, the nine
  `enumerated_drift_affine` calls that build that table, one
  `verify_level_fixture` and one `analytics.varpi_uniform_exact` of a float;
- the peak RSS of `sim.run_arrivals` and of each coupling check on --n-draw
  uniform arrivals, each in a fresh process, in MB after the draw and at the
  end (one run, not a median).

Around each timed layer, `perfbench/gauge.py`'s fixed computation is timed
once before and once after, and its wall seconds are recorded under
`gauge_wall_s`: a layer whose gauge also ran slow ran on a slow machine,
not on slower code.  The record also carries the machine (CPU model, nproc,
Python, numpy, the BLAS threads and `book.KERNEL`); the script runs with
one BLAS thread, as the benchmark does.  Where no C compiler is available, the
compiled columns are null.  Run from the repository root:

    PYTHONPATH=src python scripts/bench.py --out out/bench
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

# One BLAS thread, set before numpy loads, as perfbench/run.py sets it: with
# one thread per core, the balance solve's lstsq took 2 ms or 60-380 ms from
# one process to the next on a 2-vCPU machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from lobphase import analytics, book, coupling, lyapunov, sim
from lobphase.book import ORDINARY, ORDINARY_BINNED, STRICT_BINNED, BookState, MatchRule
from lobphase.dist import (ArrivalSpec, cdf_table_dist, make_partition, piecewise_linear_dist,
                           uniform_dist)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gauge import time_gauge

SEED = 1    # of every stream drawn
N_FOLD = 40_000     # arrivals of the runs the recorders fold and the trace CSVs hold


def laws() -> dict:
    tent = piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    return {"uniform": ArrivalSpec(uniform_dist(), uniform_dist()),
            "tent": ArrivalSpec(tent, tent)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "kernel": book.KERNEL}


def median_ns(seconds: list, n: int) -> float:
    return round(1e9 * statistics.median(seconds) / n, 2)


def time_materialize(kernels: dict, spec: ArrivalSpec, n: int, repeats: int) -> dict:
    """ns per arrival of `materialize` under each named kernel, the kernels
    taking turns call by call, so that the machine's drift falls on each."""
    stream = sim.ArrivalStream(SEED, n, spec)
    seconds = {name: [] for name in kernels}
    for _ in range(repeats):
        for name, kernel in kernels.items():
            book._loaded = kernel
            t0 = time.perf_counter()
            sim.materialize(stream)
            seconds[name].append(time.perf_counter() - t0)
    return {name: median_ns(s, n) for name, s in seconds.items()}


def time_uniforms(draws: dict, n: int, repeats: int) -> dict:
    """ns per arrival of its side and price uniforms under each named draw,
    the draws taking turns call by call."""
    keys = [(SEED, sim.FIELD_TAGS[tag]) for tag in ("side", "price")]
    out = np.empty(min(n, sim.CHUNK))
    seconds = {name: [] for name in draws}
    for _ in range(repeats):
        for name, uniforms in draws.items():
            t0 = time.perf_counter()
            for lo in range(0, n, sim.CHUNK):
                for key in keys:
                    uniforms(key, lo, out[:min(sim.CHUNK, n - lo)])
            seconds[name].append(time.perf_counter() - t0)
    return {name: median_ns(s, n) for name, s in seconds.items()}


def time_match(kernel, n: int, repeats: int) -> float:
    arr = sim.materialize(sim.ArrivalStream(SEED, n, laws()["uniform"]))
    spent = [0.0]

    def timed(state, rule, log):
        t0 = time.perf_counter()
        tie = kernel.run(state, rule, log)
        spent[0] += time.perf_counter() - t0
        return tie

    book._loaded = kernel._replace(run=timed)
    seconds = []
    for _ in range(repeats):
        spent[0] = 0.0
        for _ in book.match_chunks(BookState(), MatchRule(ORDINARY), arr.is_bid, arr.prices,
                                   sim.CHUNK):
            pass
        seconds.append(spent[0])
    return median_ns(seconds, n)


def time_refinement(kernels: dict, n: int, repeats: int) -> dict:
    """Seconds per `check_refinement` call, 100 against 10 bins, per rule and
    named kernel, the kernels taking turns call by call."""
    spec = laws()["uniform"]
    fine, coarse = make_partition(100, spec), make_partition(10, spec)
    arr = sim.materialize(sim.ArrivalStream(SEED, n, spec))
    seconds = {kind: {k: [] for k in kernels} for kind in (ORDINARY_BINNED, STRICT_BINNED)}
    for _ in range(repeats):
        for kind, per_kernel in seconds.items():
            for k, s in per_kernel.items():
                book._loaded = kernels[k]
                t0 = time.perf_counter()
                coupling.check_refinement(fine, coarse, kind, arr, seed=SEED)
                s.append(time.perf_counter() - t0)
    return {kind: {"c": None, **{k: round(statistics.median(s), 4) for k, s in per.items()}}
            for kind, per in seconds.items()}


def chunk_logs(rule: MatchRule, state: BookState, arr: sim.Arrivals) -> list:
    """Copies of the chunk logs of one run, as `sim._fold` hands them on."""
    return [(lo, book.EventLog(*(np.array(a) for a in log)))
            for lo, log in book.match_chunks(state, rule, arr.is_bid, arr.prices, sim.CHUNK)]


def recorders(n: int) -> dict:
    """Each recorder of the recurrence drivers on uniform arrivals: a maker of
    a fresh one and the chunk logs it folds.  The checkpoints, the binned
    recorders (100 bins) and the running max (bins 21 and 78) fold an empty
    book's run, as `simulate` and `running_max_evidence` do; the five-bin
    recorder (eps = 0.01, K = 20) and the band count (the band (0.4, 0.6),
    sampled every 50 events of the second half) fold reservoir books, as
    `simulate_5bin` and `check_geometric_bound` do."""
    spec = laws()["uniform"]
    arr = sim.materialize(sim.ArrivalStream(SEED, n, spec))
    part, five = make_partition(100, spec), lyapunov.five_bin_partition(0.01)
    plain = chunk_logs(MatchRule(ORDINARY), BookState(), arr)
    lo_mid = 0.5 * (0.2 + 0.01)     # inside bin 1, as simulate_5bin's bid reservoir
    every = max(1, n // 100)
    cp = np.arange(every - 1, n, every)

    def trace(**options) -> sim.Trace:
        return sim.Trace(SEED, n, arr.p_b, every, arr.times[cp], np.empty(cp.size, np.int64),
                         np.empty(cp.size, np.int64), np.empty(cp.size), np.empty(cp.size),
                         **options)

    inside = (float(np.nextafter(0.4, np.inf)), 0.6)
    return {
        "_Checkpoints": (lambda: sim._Checkpoints(trace(), cp), plain),
        "_Binned": (lambda: sim._Binned(trace(partition=part), BookState(), arr.times), plain),
        "_FiveBin": (lambda: sim._FiveBin(five, lyapunov._GAUGE_NORMALS, 20.0),
                     chunk_logs(MatchRule(ORDINARY_BINNED, five),
                                BookState(bid_reservoir=lo_mid, ask_reservoir=1 - lo_mid),
                                arr)),
        "_BandCount": (lambda: sim._BandCount(inside, inside, at=np.arange(n // 2, n, 50)),
                       chunk_logs(MatchRule(ORDINARY),
                                  BookState(bid_reservoir=0.4, ask_reservoir=0.6), arr)),
        "_RunningMax": (lambda: sim._RunningMax(trace(), lyapunov._band_prices(part, 21, 78),
                                                arr.times), plain),
    }


def time_folds(kernels: dict, n: int, repeats: int) -> dict:
    """ns per arrival of each recorder's fold over its run's chunk logs, a
    fresh recorder per run, under each named kernel, the kernels taking
    turns run by run."""
    out = {}
    for name, (make, logs) in recorders(n).items():
        seconds = {k: [] for k in kernels}
        for _ in range(repeats):
            for k, kernel in kernels.items():
                book._loaded = kernel
                recorder = make()
                t0 = time.perf_counter()
                for lo, log in logs:
                    recorder.fold(lo, log)
                seconds[k].append(time.perf_counter() - t0)
        out[name] = {"c": None, **{k: median_ns(s, n) for k, s in seconds.items()}}
    return out


def time_csvs(n: int, repeats: int) -> dict:
    """ns per arrival and ms per call of `write_trace_csvs` on the trace that
    `lobphase simulate --n <n> --bins 100` writes."""
    spec = laws()["uniform"]
    trace = sim.run(MatchRule(ORDINARY), BookState(), sim.ArrivalStream(SEED, n, spec),
                    max(1, n // 100), record_partition=make_partition(100, spec))
    seconds = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(repeats):
            t0 = time.perf_counter()
            sim.write_trace_csvs(trace, tmp, {"n": n, "seed": SEED, "bins": 100})
            seconds.append(time.perf_counter() - t0)
    return {"ns_per_arrival": median_ns(seconds, n),
            "ms_per_call": round(1e3 * statistics.median(seconds), 3)}


def analytic_calls() -> dict:
    """The analytic routes, each a call with no argument; the table law is the
    uniform law as a 17-row CDF table."""
    xs = np.linspace(0.0, 1.0, 17)
    uniform, table = laws()["uniform"], ArrivalSpec(cdf_table_dist(xs, xs), cdf_table_dist(xs, xs))
    kappa_b, kappa_a = analytics.kappa_uniform_exact()
    part = make_partition(100, uniform)
    fb = float(uniform.bid_dist.cdf(kappa_b))
    enumerated = {c: lyapunov.enumerated_drift_affine(c) for c in lyapunov.DRIFT_REGIONS}
    return {
        **{f"shoot_kappa/{name}": (lambda s=spec: analytics.shoot_kappa(s, tol=1e-10, n_scan=64))
           for name, spec in (*laws().items(), ("table", table))},
        "integrate_varpi/table": lambda: analytics.integrate_varpi(table, kappa_b, grid_n=64),
        "finiteness_lower_bound": lambda: analytics.finiteness_lower_bound(uniform),
        "solve_binned_pi": lambda: analytics.solve_binned_pi(
            uniform, part, part.index(kappa_b), part.index(kappa_a), fb),
        "certify_drift": lambda: lyapunov.certify_drift(Fraction(1, 100)),
        "certify_drift/enumerated": lambda: lyapunov.certify_drift(Fraction(3, 25),
                                                                   drifts=enumerated),
        "enumerated_drift_affine/nine": lambda: [lyapunov.enumerated_drift_affine(c)
                                                 for c in lyapunov.DRIFT_REGIONS],
        "verify_level_fixture": lyapunov.verify_level_fixture,
        "varpi_uniform_exact/scalar": lambda: analytics.varpi_uniform_exact(0.3),
    }


def time_analytics(repeats: int) -> dict:
    """ms per call of each analytic route after one warm-up call, the routes
    taking turns."""
    calls = analytic_calls()
    for call in calls.values():
        call()
    seconds = {name: [] for name in calls}
    for _ in range(repeats):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            seconds[name].append(time.perf_counter() - t0)
    return {name: round(1e3 * statistics.median(s), 4) for name, s in seconds.items()}


def gauged(gauges: dict, name: str, layer, *args):
    """`layer(*args)`, with the gauge's wall seconds just before and just after
    it noted under `name`."""
    before = time_gauge()[0]
    try:
        return layer(*args)
    finally:
        gauges[name] = [round(before, 4), round(time_gauge()[0], 4)]


# One driver on n uniform arrivals in a fresh process: prints its peak RSS in
# MB after the draw and at the end, as JSON.  It reads the process's own
# VmHWM where Linux gives it: a child's ru_maxrss starts from the peak of the
# process that spawned it.
RSS_CHILD = """
import json, resource, sys
from lobphase import coupling, sim
from lobphase.book import ORDINARY, ORDINARY_BINNED, BookState, MatchRule, Order
from lobphase.coupling import Edit
from lobphase.dist import ArrivalSpec, make_partition, uniform_dist

driver, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = ArrivalSpec(uniform_dist(), uniform_dist())
rule = MatchRule(ORDINARY)
arr = sim.materialize(sim.ArrivalStream(seed, n, spec))
def mb():
    try:
        with open("/proc/self/status") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(kb / 1024, 1)
drawn = mb()
if driver == "run_arrivals":
    sim.run_arrivals(rule, BookState(), arr, 0)
elif driver == "check_extra_order":
    coupling.check_extra_order(BookState(), Order("bid", 0.5, -1), arr, rule)
elif driver == "check_bounded_perturbation":
    coupling.check_bounded_perturbation(
        BookState(), [Edit(0, "add", "bid", 0.5), Edit(n // 2, "remove_best", "ask")],
        arr, rule, M=2)
else:
    coupling.check_refinement(make_partition(100, spec), make_partition(10, spec),
                              ORDINARY_BINNED, arr)
print(json.dumps({"after_draw": drawn, "end": mb()}))
"""
RSS_DRIVERS = ("run_arrivals", "check_extra_order", "check_bounded_perturbation",
               "check_refinement")


def peak_rss(n: int) -> dict:
    """MB of peak RSS after the draw and at the end of each driver on n uniform
    arrivals, each run in a fresh process on the lobphase imported here."""
    src = str(Path(book.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return {driver: json.loads(subprocess.run(
        [sys.executable, "-c", RSS_CHILD, driver, str(SEED), str(n)], env=env, check=True,
        capture_output=True, text=True).stdout) for driver in RSS_DRIVERS}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n-draw", type=int, default=1_000_000,
                    help="arrivals per materialize and check_refinement call, and of "
                         "each driver whose peak RSS is taken")
    ap.add_argument("--match-sizes", default="60000,1000000,4000000",
                    help="comma-separated arrival counts of the match loop")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", default="out/bench")
    args = ap.parse_args()
    sizes = [int(float(s)) for s in args.match_sizes.split(",")]

    loaded = book._kernel()
    compiled = loaded if loaded.name == "c" else None
    # the same match loop under both draws
    kernels = {"c": compiled, "numpy": loaded._replace(draw=book._PYTHON_KERNEL.draw)}
    if compiled is None:
        del kernels["c"]
    gauges = {}
    try:
        draw = {name: {"c": None, **gauged(gauges, f"materialize/{name}", time_materialize,
                                           kernels, spec, args.n_draw, args.repeats)}
                for name, spec in laws().items()}
        uniform_draws = {"c": compiled.uniforms} if compiled else {}
        uniform_draws["numpy"] = book._uniforms_py
        uniforms = {"c": None, **gauged(gauges, "uniforms", time_uniforms, uniform_draws,
                                        args.n_draw, args.repeats)}
        match = {str(n): compiled and gauged(gauges, f"match_loop/{n}", time_match, compiled,
                                             n, args.repeats) for n in sizes}
        fold_kernels = {"c": compiled, "numpy": book._PYTHON_KERNEL} if compiled else \
            {"numpy": book._PYTHON_KERNEL}
        # the loaded match loop under the compiled and the numpy refinement pass
        refinement_kernels = {k: loaded._replace(refinement=kernel.refinement)
                              for k, kernel in fold_kernels.items()}
        refinement = gauged(gauges, "check_refinement", time_refinement, refinement_kernels,
                            args.n_draw, args.repeats)
        folds = gauged(gauges, "recorder_folds", time_folds, fold_kernels, N_FOLD,
                       args.repeats)
        book._loaded = loaded
        csvs = gauged(gauges, "write_trace_csvs", time_csvs, N_FOLD, args.repeats)
        analytic = gauged(gauges, "analytics", time_analytics, args.repeats)
        rss = peak_rss(args.n_draw)
    finally:
        book._loaded = loaded
    record = {
        "command": ["python", "scripts/bench.py", *sys.argv[1:]],
        "machine": machine(),
        "seed": SEED,
        "repeats": args.repeats,
        "materialize_ns_per_arrival": {"n": args.n_draw, "laws": draw},
        "uniforms_ns_per_arrival": {"n": args.n_draw, **uniforms},
        "match_loop_ns_per_arrival": match,
        "check_refinement_s": {"n": args.n_draw, "match_kernel": loaded.name, **refinement},
        "recorder_folds_ns_per_arrival": {"n": N_FOLD, "folds": folds},
        "write_trace_csvs": {"n": N_FOLD, "bins": 100, "kernel": loaded.name, **csvs},
        "analytics_ms_per_call": analytic,
        "gauge_wall_s": gauges,
        "peak_rss_mb": {"n": args.n_draw, "drivers": rss},
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, row in draw.items():
        print(f"materialize {name:8s} c {row['c']} ns, numpy {row['numpy']} ns per arrival")
    print(f"uniforms             c {uniforms['c']} ns, numpy {uniforms['numpy']} ns per arrival")
    for n, ns in match.items():
        print(f"match loop {n:>8s} arrivals: {ns} ns per arrival")
    for kind, row in refinement.items():
        print(f"check_refinement {kind}: c {row['c']} s, numpy {row['numpy']} s on "
              f"{args.n_draw} arrivals")
    for name, row in folds.items():
        print(f"fold {name:13s}       c {row['c']} ns, numpy {row['numpy']} ns per arrival")
    print(f"write_trace_csvs: {csvs['ns_per_arrival']} ns per arrival, "
          f"{csvs['ms_per_call']} ms per call on {N_FOLD} arrivals")
    for name, ms in analytic.items():
        print(f"{name:28s} {ms} ms per call")
    for driver, row in rss.items():
        print(f"peak RSS {driver:26s} {row['after_draw']} MB after the draw, "
              f"{row['end']} MB at the end on {args.n_draw} arrivals")
    print(f"wrote {out / 'bench.json'}")


if __name__ == "__main__":
    main()
