"""Seeded arrival streams, the event loop with trajectory recorders, and
Monte-Carlo estimators for the phase-transition thresholds and occupation
measures.

Randomness comes from counter-based Philox streams keyed by (seed, field tag),
so the same seed always reproduces the same arrivals and coupled experiments
can share one arrival stream across book variants bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# apply_arrival is not called here; perfbench/tracer.py wraps it by this name.
from .book import (EXECUTED, NEG_INF, POS_INF, RESERVOIR, BookState, MatchRule, _kernel,
                   apply_arrival, match_arrivals)
from .dist import ArrivalSpec, BinPartition
from .output import config_hash

__all__ = [
    "ArrivalStream",
    "Arrivals",
    "Trace",
    "KappaEstimate",
    "field_generator",
    "materialize",
    "reflected_arrivals",
    "run",
    "run_arrivals",
    "estimate_kappa",
    "empirical_pi",
    "write_trace_csvs",
]

EVENT_COUNT = "event_count"
POISSON = "poisson"

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
    """Draw the full arrival arrays for a stream (deterministic in the seed)."""
    n = stream.n_events
    spec = stream.spec
    is_bid = field_generator(stream.seed, "side").random(n) < spec.p_b
    u = field_generator(stream.seed, "price").random(n)
    prices = np.empty(n, dtype=float)
    prices[is_bid] = np.asarray(spec.bid_dist.quantile(u[is_bid]), dtype=float)
    prices[~is_bid] = np.asarray(spec.ask_dist.quantile(u[~is_bid]), dtype=float)
    if n and np.unique(prices).size != n:
        raise ValueError("arrival prices collide; price laws must be continuous")
    if stream.time_mode == EVENT_COUNT:
        # t_n = n/2 matches rate-1 bid and rate-1 ask arrivals in expectation.
        times = 0.5 * np.arange(1, n + 1, dtype=float)
    else:
        times = np.cumsum(field_generator(stream.seed, "gap").exponential(0.5, n))
    return Arrivals(is_bid, prices, times, spec.p_b)


def reflected_arrivals(arr: Arrivals) -> Arrivals:
    """Mirror a stream through x -> 1 - x with sides swapped.

    For symmetric arrival laws the reflected stream drives the reflected
    trajectory exactly, which makes bid/ask statistics exchangeable.
    """
    return Arrivals(~arr.is_bid, 1.0 - arr.prices, arr.times.copy(), 1.0 - arr.p_b)


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

    Every recorder is a pass over the event log.  With `record_partition`
    the binned recorders run: occupation, joint histogram and top shape of
    the best quotes' bins.  With `runmax_band=(lo, hi)` the running maximum
    counts resting bids priced at or above `lo` and asks priced below `hi`,
    and keeps its series.
    """
    if record_every <= 0:
        record_every = max(1, arr.n)
    part = record_partition
    state = initial.clone()
    n_bids0, n_asks0 = state.n_bids, state.n_asks
    log = match_arrivals(state, rule, arr.is_bid, arr.prices)
    n, times = arr.n, arr.times
    changed_bid, changed_price, sign = log.changes()
    executed = log.outcome == EXECUTED
    bid_arrivals = int(np.count_nonzero(arr.is_bid))
    cp = np.arange(record_every - 1, n, record_every)
    cp_bids = n_bids0 + np.cumsum(np.where(changed_bid, sign, 0))[cp]
    cp_asks = n_asks0 + np.cumsum(np.where(changed_bid, 0, sign))[cp]

    trace = Trace(
        seed=seed, n_events=n, p_b=arr.p_b, record_every=record_every,
        cp_time=times[cp], cp_bids=cp_bids, cp_asks=cp_asks,
        cp_beta=log.beta[cp], cp_alpha=log.alpha[cp],
        bid_arrivals=bid_arrivals, ask_arrivals=n - bid_arrivals,
        bid_exec_by_ask=int(np.count_nonzero(executed & ~arr.is_bid)),
        ask_exec_by_bid=int(np.count_nonzero(executed & arr.is_bid)),
        reservoir_executions=int(np.count_nonzero(log.outcome == RESERVOIR)),
        elapsed=float(times[-1]) if n else 0.0,
        final_bids=state.n_bids, final_asks=state.n_asks, partition=part)
    if runmax_band is not None:
        lo, hi = runmax_band
        in_band = np.where(changed_bid, changed_price >= lo, changed_price < hi)
        count = np.cumsum(np.where(in_band, sign, 0))
        run_max = np.maximum.accumulate(np.maximum(count, 0))
        jumps = np.flatnonzero(count > np.concatenate(([0], run_max))[:-1])
        trace.runmax_value = int(run_max[-1]) if n else 0
        trace.runmax_last_jump = int(jumps[-1]) if jumps.size else -1
        trace.runmax_series = (np.column_stack((times, count, run_max)) if n
                               else np.empty(0))
    if part is None:
        return trace

    nbins = part.n_bins
    beta_bin = np.where(log.beta == NEG_INF, -1, part.index(log.beta))
    alpha_bin = np.where(log.alpha == POS_INF, -1, part.index(log.alpha))
    # The interval ending at an arrival belongs to the state before it; the
    # first interval belongs to the initial book.
    dt = np.diff(times, prepend=0.0)
    half = (np.arange(n) >= n // 2).astype(np.intp)
    beta0_bin = -1 if log.beta0 == NEG_INF else part.index(log.beta0)
    alpha0_bin = -1 if log.alpha0 == POS_INF else part.index(log.alpha0)
    pre_b = np.concatenate(([beta0_bin], beta_bin))[:-1]
    pre_a = np.concatenate(([alpha0_bin], alpha_bin))[:-1]
    # bincount adds its weights in event order, as a running sum would.
    trace.occupation_elapsed = np.bincount(half, weights=dt, minlength=2)
    trace.occupation_b, trace.occupation_a = (
        np.bincount(half[k >= 0] * nbins + k[k >= 0], weights=dt[k >= 0],
                    minlength=2 * nbins).reshape(2, nbins)
        for k in (pre_b, pre_a))
    both = (beta_bin >= 0) & (alpha_bin >= 0)
    trace.joint_hist = np.bincount(beta_bin[both] * nbins + alpha_bin[both],
                                   minlength=nbins * nbins).reshape(nbins, nbins)
    trace.top_shape_visits = np.bincount(beta_bin[beta_bin >= 0], minlength=nbins)
    trace.top_shape_sums = _kernel().top_shape(
        beta_bin, part.index(changed_price), np.where(changed_bid, sign, 0), nbins)
    return trace


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
