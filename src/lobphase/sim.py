"""Seeded arrival streams, the one fold of the event loop into trajectory
recorders, and Monte-Carlo estimators for the phase-transition thresholds
and occupation measures.

Randomness comes from counter-based Philox streams keyed by (seed, field tag),
so the same seed always reproduces the same arrivals and coupled experiments
can share one arrival stream across book variants bit-for-bit.  Arrivals are
drawn, and runs matched and recorded, `CHUNK` arrivals at a time in reused
buffers; every result equals that of one whole-run pass bit for bit.  The
side and price uniforms are drawn in C where the compiled kernel loads, from
the seed and each chunk's first arrival, with numpy's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# apply_arrival is not called here; perfbench/tracer.py wraps it by this name.
from .book import (EXECUTED, NEG_INF, POS_INF, RESERVOIR, BinnedSums, BookState, EventLog,
                   FiveBinSums, MatchRule, _kernel, apply_arrival, match_chunks)
from .dist import ArrivalSpec, BinPartition
from .output import config_hash

__all__ = [
    "ArrivalStream",
    "Arrivals",
    "Trace",
    "KappaEstimate",
    "field_generator",
    "materialize",
    "run",
    "run_arrivals",
    "estimate_kappa",
    "empirical_pi",
    "write_trace_csvs",
]

EVENT_COUNT = "event_count"
POISSON = "poisson"

# Arrivals drawn, matched and recorded at a time.  A chunk's temporaries
# (128 KiB per float64 array) are reused from the allocator's free lists
# instead of being mapped and faulted in afresh for every pass over a run.
CHUNK = 16_384

# Field tags for the splittable generator: one independent Philox stream per
# (seed, tag) pair.  New experiment-level fields get new tags so adding a
# recorder never perturbs the realized arrivals.
FIELD_TAGS = {
    "side": 1,
    "price": 2,
    "gap": 3,
}


def field_generator(seed: int, tag: str) -> np.random.Generator:
    """Counter-based generator for one named field of one seeded experiment."""
    key = np.array([np.uint64(seed), np.uint64(FIELD_TAGS[tag])])
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ArrivalStream:
    """Reproducible i.i.d. arrival sequence: sides, prices, timestamps."""

    seed: int
    n_events: int
    spec: ArrivalSpec
    time_mode: str = EVENT_COUNT

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.n_events < 0:
            raise ValueError("n_events must be nonnegative")
        if self.time_mode not in (EVENT_COUNT, POISSON):
            raise ValueError(f"unknown time mode {self.time_mode!r}")


@dataclass(frozen=True)
class Arrivals:
    """Materialized stream: parallel arrays, bids flagged in `is_bid`."""

    is_bid: np.ndarray
    prices: np.ndarray
    times: np.ndarray
    p_b: float

    @property
    def n(self) -> int:
        return self.prices.size


def materialize(stream: ArrivalStream) -> Arrivals:
    """Draw the full arrival arrays for a stream (deterministic in the seed).

    Arrival i's side and price come from draw i of the side stream and of
    the price stream, `field_generator`'s uniforms.  Philox is counter-based,
    so the kernel's `uniforms` writes a chunk's draws from the seed and the
    chunk's first arrival alone, with no generator state: in C, or through
    numpy (`book._uniforms_py`), with the same bytes.  The kernel's `draw`
    turns them into sides and prices: in C where both laws are uniform or
    piecewise-linear, and otherwise by calling each side's quantile once per
    chunk (see `book._draw_py`); both give the same bytes.  Prices may repeat
    (53-bit draws repeat at the birthday rate, about n**2 / 2**54 pairs in n
    draws); the book's tie rule says which ties it refuses.
    """
    n = stream.n_events
    spec = stream.spec
    kernel = _kernel()
    side, price = ((stream.seed, FIELD_TAGS[tag]) for tag in ("side", "price"))
    is_bid, prices = np.empty(n, dtype=bool), np.empty(n)
    side_u, price_u = np.empty(min(n, CHUNK)), np.empty(min(n, CHUNK))
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        kernel.draw(spec, kernel.uniforms(side, lo, side_u[:hi - lo]),
                    kernel.uniforms(price, lo, price_u[:hi - lo]), is_bid[lo:hi], prices[lo:hi])
    if stream.time_mode == EVENT_COUNT:
        # t_n = n/2 matches rate-1 bid and rate-1 ask arrivals in expectation.
        times = 0.5 * np.arange(1, n + 1, dtype=float)
    else:
        # Exponential(0.5) gaps, summed in order from the carried time as
        # one cumsum over the run would.
        gap = field_generator(stream.seed, "gap")
        times, t = np.empty(n), 0.0
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            uk = gap.standard_exponential(out=side_u[:hi - lo])
            uk *= 0.5
            uk[0] += t
            t = np.cumsum(uk, out=times[lo:hi])[-1]
    return Arrivals(is_bid, prices, times, spec.p_b)


@dataclass
class Trace:
    """Recorded trajectory: checkpoints plus optional occupation/shape recorders."""

    seed: int
    n_events: int
    p_b: float
    record_every: int
    # checkpoint arrays, one entry per record_every events
    cp_time: np.ndarray
    cp_bids: np.ndarray
    cp_asks: np.ndarray
    cp_beta: np.ndarray
    cp_alpha: np.ndarray
    # conservation counters; an execution pairs the arriving order with the
    # opposite best, so each one removes a bid and an ask together
    bid_arrivals: int = 0
    ask_arrivals: int = 0
    bid_exec_by_ask: int = 0     # resting bids removed by arriving asks
    ask_exec_by_bid: int = 0     # resting asks removed by arriving bids
    reservoir_executions: int = 0
    elapsed: float = 0.0
    final_bids: int = 0
    final_asks: int = 0
    # binned recorders (None unless a recording partition was supplied)
    partition: Optional[BinPartition] = None
    occupation_b: Optional[np.ndarray] = None   # shape (2, n_bins): run halves
    occupation_a: Optional[np.ndarray] = None
    occupation_elapsed: Optional[np.ndarray] = None  # shape (2,)
    joint_hist: Optional[np.ndarray] = None
    top_shape_sums: Optional[np.ndarray] = None
    top_shape_visits: Optional[np.ndarray] = None
    # running-max recorder (set when a price band was supplied)
    runmax_last_jump: int = -1
    runmax_value: int = 0
    runmax_series: Optional[np.ndarray] = None  # columns (t, count, running max)


@dataclass(frozen=True)
class KappaEstimate:
    """Tail-minimum threshold estimates from checkpoint ratios."""

    kappa_b_hat: float
    kappa_a_hat: float
    Fb_kappa_hat: float
    Fa_kappa_hat: float
    stderr_proxy: float


def run(rule: MatchRule, initial: BookState, stream: ArrivalStream,
        record_every: int, **recorder_opts) -> Trace:
    """Apply the whole stream to a copy of `initial`, recording checkpoints."""
    return run_arrivals(rule, initial, materialize(stream), record_every,
                        seed=stream.seed, **recorder_opts)


def run_arrivals(rule: MatchRule, initial: BookState, arr: Arrivals,
                 record_every: int, *, seed: int = 0,
                 record_partition: Optional[BinPartition] = None,
                 runmax_band: Optional[tuple[float, float]] = None) -> Trace:
    """Match pre-materialized arrivals on a copy of `initial` and record the run.

    The run is folded (`_fold`) into the checkpoints and the recorders its
    two options name, each carrying its state from chunk to chunk of the
    trace.  With `record_partition` the binned recorders run: occupation,
    joint histogram and top shape of the best quotes' bins.  With
    `runmax_band=(lo, hi)` the running maximum counts resting bids priced at
    or above `lo` and asks priced below `hi`, and keeps its series.
    """
    if record_every <= 0:
        record_every = max(1, arr.n)
    state = initial.clone()
    n, times = arr.n, arr.times
    bid_arrivals = int(np.count_nonzero(arr.is_bid))
    cp = np.arange(record_every - 1, n, record_every)
    trace = Trace(
        seed=seed, n_events=n, p_b=arr.p_b, record_every=record_every,
        cp_time=times[cp], cp_bids=np.empty(cp.size, dtype=np.int64),
        cp_asks=np.empty(cp.size, dtype=np.int64), cp_beta=np.empty(cp.size),
        cp_alpha=np.empty(cp.size), bid_arrivals=bid_arrivals,
        ask_arrivals=n - bid_arrivals, elapsed=float(times[-1]) if n else 0.0,
        partition=record_partition)
    recorders = [_Checkpoints(trace, cp)]
    if runmax_band is not None:
        recorders.append(_RunningMax(trace, runmax_band, times))
    if record_partition is not None:
        recorders.append(_Binned(trace, state, times))
    _fold(state, rule, arr, recorders)
    trace.final_bids, trace.final_asks = state.n_bids, state.n_asks
    return trace


def _fold(state: BookState, rule: MatchRule, arr: Arrivals, recorders) -> None:
    """Match `arr` on `state` `CHUNK` arrivals at a time and fold each chunk into
    the recorders, in order: `fold(lo, log)` takes the log of arrivals lo,
    lo + 1, ..., and each recorder carries its state to the next chunk."""
    for lo, log in match_chunks(state, rule, arr.is_bid, arr.prices, CHUNK):
        if log.outcome.size:
            for recorder in recorders:
                recorder.fold(lo, log)


def _in_chunk(at: np.ndarray, lo: int, n: int) -> tuple[slice, np.ndarray]:
    """Where the sorted event indices `at` that fall in events lo .. lo + n - 1
    lie in `at`, and in the chunk."""
    i, j = np.searchsorted(at, (lo, lo + n))
    return slice(i, j), at[i:j] - lo


class _Checkpoints:
    """Book sizes and best quotes at the checkpoints, and the execution counters."""

    def __init__(self, trace: Trace, cp: np.ndarray):
        self.trace, self.cp = trace, cp

    def fold(self, lo: int, log: EventLog) -> None:
        tr, (i, at) = self.trace, _in_chunk(self.cp, lo, log.sign.size)
        tr.cp_bids[i], tr.cp_asks[i] = log.n_bids[at], log.n_asks[at]
        tr.cp_beta[i], tr.cp_alpha[i] = log.beta[at], log.alpha[at]
        executed = log.outcome == EXECUTED
        by_bid = int(np.count_nonzero(executed & log.is_bid))
        tr.ask_exec_by_bid += by_bid
        tr.bid_exec_by_ask += int(np.count_nonzero(executed)) - by_bid
        tr.reservoir_executions += int(np.count_nonzero(log.outcome == RESERVOIR))


class _BandCount:
    """The resting bids priced in [bids[0], bids[1]) and asks priced in
    [asks[0], asks[1]): `counts` holds the two after each event of the chunk
    last folded, and `samples` after the events at the sorted indices `at`."""

    def __init__(self, bids: tuple[float, float], asks: tuple[float, float], at=()):
        self.bands, self.last = (bids, asks), (0, 0)    # last: the counts before a chunk
        self.at = np.asarray(at, dtype=np.int64)
        self.samples = np.empty((2, self.at.size), dtype=np.int64)

    def fold(self, lo: int, log: EventLog) -> None:
        p, sides = log.price, (log.changed_bid, ~log.changed_bid)
        self.counts = tuple(last + np.cumsum(log.sign * (side & (p0 <= p) & (p < p1)))
                            for last, side, (p0, p1) in zip(self.last, sides, self.bands))
        self.last = tuple(int(c[-1]) for c in self.counts)
        i, at = _in_chunk(self.at, lo, log.sign.size)
        self.samples[:, i] = [c[at] for c in self.counts]


class _RunningMax(_BandCount):
    """The count of resting bids priced at or above lo and asks priced below
    hi, its running maximum, the last event that raised the maximum, and the
    series (t, count, maximum)."""

    def __init__(self, trace: Trace, band: tuple[float, float], times: np.ndarray):
        super().__init__((band[0], POS_INF), (NEG_INF, band[1]))
        self.trace, self.times = trace, times
        trace.runmax_series = np.empty((times.size, 3))

    def fold(self, lo: int, log: EventLog) -> None:
        super().fold(lo, log)
        tr, count = self.trace, self.counts[0] + self.counts[1]
        run_max = np.maximum.accumulate(np.maximum(count, tr.runmax_value))
        jumps = np.flatnonzero(count > np.concatenate(([tr.runmax_value], run_max[:-1])))
        if jumps.size:
            tr.runmax_last_jump = lo + int(jumps[-1])
        series = tr.runmax_series[lo:lo + count.size]
        series[:, 0] = self.times[lo:lo + count.size]
        series[:, 1], series[:, 2] = count, run_max
        tr.runmax_value = int(run_max[-1])


class _Binned:
    """Occupation of the best quotes' bins in each half of the run, their
    joint histogram, and the top shape."""

    def __init__(self, trace: Trace, state: BookState, times: np.ndarray):
        part = trace.partition
        self.trace, self.times = trace, times
        # The interval ending at an arrival belongs to the state before it,
        # and the first interval to the initial book.
        beta, alpha = state.beta(), state.alpha()
        self.sums = BinnedSums.zeros(part.n_bins,
                                     -1 if beta == NEG_INF else part.index(beta),
                                     -1 if alpha == POS_INF else part.index(alpha))
        self.t = 0.0    # the time of the last event folded
        trace.joint_hist, trace.top_shape_visits = self.sums.joint, self.sums.visits
        trace.top_shape_sums = self.sums.top
        # views of the cells the passes add to in place: cell 0 of a quote's row
        # holds the time its side is empty, and of the elapsed row all the time
        time = self.sums.time
        trace.occupation_elapsed = time[0, :, 0]
        trace.occupation_b, trace.occupation_a = time[1, :, 1:], time[2, :, 1:]

    def fold(self, lo: int, log: EventLog) -> None:
        tr, part = self.trace, self.trace.partition
        times = self.times[lo:lo + log.price.size]
        _kernel().binned(self.sums, times, self.t, tr.n_events // 2 - lo, log.beta, log.alpha,
                         part.index(log.beta), part.index(log.alpha), part.index(log.price),
                         log.changed_bid, log.sign)
        self.t = times[-1]


class _FiveBin:
    """The five-bin book's region sums, and the changes at which its gauge (the
    largest product with a row of `normals`) starts or stops exceeding K."""

    def __init__(self, part: BinPartition, normals: np.ndarray, K: float):
        self.part, self.normals, self.K = part, normals, K
        self.sums, self.flips = FiveBinSums.zeros(), []

    def fold(self, lo: int, log: EventLog) -> None:
        above = _kernel().five_bin(self.sums, self.part.index(log.price), log.changed_bid,
                                   log.sign, self.normals, self.K)
        # after an odd count of flips the gauge exceeds K
        self.flips += (lo + np.flatnonzero(np.diff(above, prepend=len(self.flips) % 2))).tolist()


def estimate_kappa(trace: Trace, spec: ArrivalSpec) -> KappaEstimate:
    """Threshold estimates from the liminf characterization.

    The long-run bid ratio B_T / T converges from above to the bid mass below
    the threshold, so we take the minimum ratio over the second half of the
    checkpoints (the first half is burn-in) and map it back through the
    quantile.  The ask side is mirrored.  The stderr proxy is the spread of
    the five smallest tail ratios.
    """
    ncp = trace.cp_time.size
    if ncp < 10:
        raise ValueError(f"need at least 10 checkpoints, have {ncp}")
    tail = slice(ncp // 2, None)
    t = trace.cp_time[tail]
    # Normalize so the ratio estimates F directly (bid arrival rate 2*p_b).
    fb_ratios = trace.cp_bids[tail] / (2.0 * trace.p_b * t)
    fa_ratios = trace.cp_asks[tail] / (2.0 * (1.0 - trace.p_b) * t)
    fb_hat = float(np.min(fb_ratios))
    fa_hat = float(np.min(fa_ratios))
    smallest = np.sort(fb_ratios)[:5]
    return KappaEstimate(
        kappa_b_hat=float(spec.bid_dist.quantile(min(fb_hat, 1.0))),
        kappa_a_hat=float(spec.ask_dist.quantile(max(0.0, 1.0 - fa_hat))),
        Fb_kappa_hat=fb_hat,
        Fa_kappa_hat=fa_hat,
        stderr_proxy=float(smallest[-1] - smallest[0]),
    )


def empirical_pi(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Occupation measures of the best-bid/best-ask bins over the second half
    of the run (the first half is burn-in), normalized by time.

    Normalization is by elapsed time, not by the measure's own mass: time the
    best quote spends outside the book (empty side) is real missing mass.
    """
    if trace.occupation_b is None:
        raise ValueError("trace carries no occupation recorder")
    elapsed = float(trace.occupation_elapsed[1])
    if elapsed <= 0:
        raise ValueError("zero elapsed time in the occupation window")
    return trace.occupation_b[1] / elapsed, trace.occupation_a[1] / elapsed


def write_trace_csvs(trace: Trace, outdir, cfg: dict) -> list:
    """Emit checkpoint/occupation/joint/top-shape CSVs for one trace."""
    from .output import write_csv  # local import keeps module load light
    meta = {"seed": trace.seed, "config": config_hash(cfg)}
    written = []
    written.append(write_csv(
        f"{outdir}/checkpoints.csv", ["T", "B_inf", "A_inf", "beta", "alpha"],
        zip(trace.cp_time, trace.cp_bids, trace.cp_asks, trace.cp_beta, trace.cp_alpha),
        meta))
    if trace.partition is None:
        return written
    if trace.n_events:
        pi_b, pi_a = empirical_pi(trace)
        edges = trace.partition.edges
        written.append(write_csv(
            f"{outdir}/occupation.csv", ["bin_lo", "bin_hi", "pi_b", "pi_a"],
            zip(edges[:-1], edges[1:], pi_b, pi_a), meta))
    i, j = np.nonzero(trace.joint_hist)     # row-major, as the cells are laid out
    rows = zip(i.tolist(), j.tolist(), trace.joint_hist[i, j].tolist())
    written.append(write_csv(
        f"{outdir}/joint.csv", ["bin_beta", "bin_alpha", "mass"], rows, meta))
    visits = trace.top_shape_visits
    hi_bins = visits.size // 2  # condition on the best bid sitting in the upper half
    sel = np.arange(visits.size) >= hi_bins
    tot = max(1, int(visits[sel].sum()))
    means = trace.top_shape_sums[sel].sum(axis=0) / tot
    written.append(write_csv(
        f"{outdir}/top_shape.csv", ["offset", "mean_bids"], enumerate(means), meta))
    return written
