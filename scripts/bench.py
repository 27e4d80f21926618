#!/usr/bin/env python3
"""Per-layer timings of the arrival draw and the match loop, as JSON.

Three layers, each in ns per arrival, the median over --repeats calls in this
process:

- `sim.materialize` on the uniform and tent laws (both sides on the law,
  p_b = 0.5), under the compiled kernel's `draw` and under the numpy draw
  `book._draw_py`, taking turns call by call;
- the Philox uniforms alone, the side and the price stream a chunk at a time
  as `materialize` draws them, under the compiled `uniforms` and under numpy's
  generator (`book._uniforms_py`), taking turns call by call;
- the compiled `match` loop alone: the kernel's `run` timed around each chunk
  of `book.match_chunks` on uniform arrivals, ordinary rule, empty book.

The record also carries the machine (CPU model, nproc, Python, numpy and
`book.KERNEL`).  Where no C compiler is available, the compiled columns are
null.  Run from the repository root:

    PYTHONPATH=src python scripts/bench.py --out out/bench
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from lobphase import book, sim
from lobphase.book import ORDINARY, BookState, MatchRule
from lobphase.dist import ArrivalSpec, piecewise_linear_dist, uniform_dist

SEED = 1    # of every stream drawn


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
            "kernel": book.KERNEL}


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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n-draw", type=int, default=1_000_000,
                    help="arrivals per materialize call")
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
    try:
        draw = {name: {"c": None, **time_materialize(kernels, spec, args.n_draw,
                                                     args.repeats)}
                for name, spec in laws().items()}
        uniform_draws = {"c": compiled.uniforms} if compiled else {}
        uniform_draws["numpy"] = book._uniforms_py
        uniforms = {"c": None, **time_uniforms(uniform_draws, args.n_draw, args.repeats)}
        match = {str(n): compiled and time_match(compiled, n, args.repeats) for n in sizes}
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
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, row in draw.items():
        print(f"materialize {name:8s} c {row['c']} ns, numpy {row['numpy']} ns per arrival")
    print(f"uniforms             c {uniforms['c']} ns, numpy {uniforms['numpy']} ns per arrival")
    for n, ns in match.items():
        print(f"match loop {n:>8s} arrivals: {ns} ns per arrival")
    print(f"wrote {out / 'bench.json'}")


if __name__ == "__main__":
    main()
