"""Order-book state machine for ordinary, ordinary-binned, and strict-binned matching.

Resting orders are price heaps, optionally backed by reservoirs: an infinite
supply of bids or asks at a fixed price.  Executing against a reservoir never
depletes it, and reservoir orders never enter the finite counters.

Prices must be finite, and they may repeat.  The one tie the book refuses is
an arrival priced exactly at the opposite best quote, reservoir included
(`BookInvariantError`); the paper's continuous laws give it probability zero.
A resting order priced at its own side's reservoir sits behind it: the
reservoir is met first.

`match_chunks` is the event loop: it applies an arrival sequence a chunk at
a time and yields each chunk's `EventLog`; `match_arrivals` runs it as one
chunk and returns the whole log.  Its loop body is the C function in
`_kernel.c`, compiled on first use and cached, or the Python loop
`_match_py` where no compiler is available; `KERNEL` says which runs.
`apply_arrival` applies one order at a time; it is the readable reference
both loops are tested against.  The same library carries the other exports
of `_EXPORTS`, each with a numpy pass as its reference and fallback: the
binned recorder of `sim.run_arrivals` (`_binned_sums`), the five-bin book's
region pass of `lyapunov.simulate_5bin` (`_five_bin_sums`), the refinement
check's domination pass (`_refinement_maxima`), and the two steps of
`sim.materialize`'s arrival draw: the Philox uniforms of a chunk
(`_uniforms_py`) and the sides and prices drawn from them (`_draw_py`).
"""

from __future__ import annotations

import ctypes
import hashlib
import heapq
import math
import os
import stat
import subprocess
import sys
import tempfile
from array import array
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .dist import ArrivalSpec, BinPartition, _PiecewiseQuantile, _UniformQuantile

__all__ = [
    "ORDINARY",
    "ORDINARY_BINNED",
    "STRICT_BINNED",
    "BookInvariantError",
    "MatchRule",
    "Order",
    "ArrivalEffect",
    "BookState",
    "EventLog",
    "JOINED",
    "EXECUTED",
    "RESERVOIR",
    "apply_arrival",
    "match_arrivals",
    "match_chunks",
]

ORDINARY = "ordinary"
ORDINARY_BINNED = "ordinary_binned"
STRICT_BINNED = "strict_binned"
_KINDS = (ORDINARY, ORDINARY_BINNED, STRICT_BINNED)

NEG_INF = float("-inf")
POS_INF = float("inf")

# EventLog outcome codes
JOINED = 0        # the arrival rests in the book
EXECUTED = 1      # it executed against the opposite best resting order
RESERVOIR = 2     # it executed against the opposite reservoir


class BookInvariantError(AssertionError):
    """A book invariant failed: a bug, a non-finite price, or an arrival priced
    exactly at the opposite best quote."""


@dataclass(frozen=True)
class MatchRule:
    kind: str
    partition: Optional[BinPartition] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown matching rule {self.kind!r}")
        if self.kind != ORDINARY and self.partition is None:
            raise ValueError(f"{self.kind} requires a bin partition")


class Order(NamedTuple):
    side: str  # "bid" | "ask"
    price: float
    seq: int = 0


class ArrivalEffect(NamedTuple):
    outcome: str                    # "joined" | "executed"
    side: str                       # side of the arriving order
    price: float
    counterparty_price: float       # nan unless executed
    counterparty_is_reservoir: bool
    new_beta: float
    new_alpha: float


class BookState:
    """Mutable book: bid/ask price heaps plus optional infinite reservoirs.

    Bids are stored negated so both heaps are min-heaps.
    """

    __slots__ = ("_bid_heap", "_ask_heap", "bid_reservoir", "ask_reservoir")

    def __init__(self, bids=(), asks=(), bid_reservoir: float | None = None,
                 ask_reservoir: float | None = None):
        if bid_reservoir is not None and ask_reservoir is not None:
            if not bid_reservoir < ask_reservoir:
                raise ValueError("bid reservoir must sit below ask reservoir")
        self.bid_reservoir = bid_reservoir
        self.ask_reservoir = ask_reservoir
        # a sorted list is a heap; + 0.0 turns -0.0 into 0.0
        self._bid_heap = sorted(-(float(p) + 0.0) for p in bids)
        self._ask_heap = sorted(float(p) + 0.0 for p in asks)
        if not (np.isfinite(self._bid_heap).all() and np.isfinite(self._ask_heap).all()):
            raise BookInvariantError("non-finite resting price")

    # -- queries ---------------------------------------------------------

    @property
    def n_bids(self) -> int:
        return len(self._bid_heap)

    @property
    def n_asks(self) -> int:
        return len(self._ask_heap)

    def beta(self) -> float:
        """Highest bid including the reservoir; -inf when the side is empty."""
        b = -self._bid_heap[0] if self._bid_heap else NEG_INF
        r = self.bid_reservoir
        return b if r is None or b > r else r

    def alpha(self) -> float:
        """Lowest ask including the reservoir; +inf when the side is empty."""
        a = self._ask_heap[0] if self._ask_heap else POS_INF
        r = self.ask_reservoir
        return a if r is None or a < r else r

    def bids(self) -> list[float]:
        return sorted(-p for p in self._bid_heap)

    def asks(self) -> list[float]:
        return sorted(self._ask_heap)

    def clone(self) -> "BookState":
        c = BookState.__new__(BookState)
        c.bid_reservoir = self.bid_reservoir
        c.ask_reservoir = self.ask_reservoir
        c._bid_heap = list(self._bid_heap)
        c._ask_heap = list(self._ask_heap)
        return c

    # -- mutations -------------------------------------------------------

    def insert(self, side: str, price: float) -> None:
        """Add one resting order at a finite price, in O(log book); -0.0 rests as 0.0."""
        if not math.isfinite(price):
            raise BookInvariantError(f"non-finite price {price}")
        price += 0.0
        if side == "bid":
            heapq.heappush(self._bid_heap, -price)
        else:
            heapq.heappush(self._ask_heap, price)

    def pop_best(self, side: str) -> float:
        if side == "bid":
            if not self._bid_heap:
                raise BookInvariantError("pop from empty bid side")
            return -heapq.heappop(self._bid_heap)
        if not self._ask_heap:
            raise BookInvariantError("pop from empty ask side")
        return heapq.heappop(self._ask_heap)


def apply_arrival(state: BookState, rule: MatchRule, order: Order) -> ArrivalEffect:
    """Apply one arriving order under the rule; mutates state, returns the effect.

    The arrival meets the opposite best quote: it executes against it when
    it crosses it (ordinary rule), when it crosses it or shares its bin
    (ordinary binned) or when it crosses it from another bin (strict
    binned), and otherwise joins its own side.  An arrival priced exactly at
    that quote raises `BookInvariantError`.
    """
    side, price = order.side, order.price
    bid = side == "bid"
    best = state.alpha() if bid else state.beta()
    if price == best:
        raise BookInvariantError(f"{side} price {price} collides with the opposite best")
    crosses = price > best if bid else price < best
    if rule.kind == ORDINARY:
        execute = crosses
    else:
        part = rule.partition
        same_bin = math.isfinite(best) and part.index(price) == part.index(best)
        execute = crosses or same_bin if rule.kind == ORDINARY_BINNED else \
            crosses and not same_bin
    if execute:
        reservoir = state.ask_reservoir if bid else state.bid_reservoir
        from_res = reservoir is not None and best == reservoir
        if not from_res:
            state.pop_best("ask" if bid else "bid")
        eff = ArrivalEffect("executed", side, price, best, from_res,
                            state.beta(), state.alpha())
    else:
        state.insert(side, price)
        eff = ArrivalEffect("joined", side, price, math.nan, False,
                            state.beta(), state.alpha())
    _check_order(state.beta(), state.alpha(), rule)
    return eff


def _check_order(beta, alpha, rule: MatchRule, first: Optional[int] = None) -> None:
    """The rule's ordering of best quotes: of one book (scalars), or after each
    event of a chunk whose first arrival is arrival `first` (arrays)."""
    b, a = np.atleast_1d(beta), np.atleast_1d(alpha)
    if rule.kind == STRICT_BINNED:
        # The strict rule lets prices cross inside one bin, so the ordering
        # holds at bin granularity only.
        part = rule.partition
        bad = (b != NEG_INF) & (a != POS_INF) & (part.index(b) > part.index(a))
    else:
        bad = ~(b < a)
    if bad.any():
        i = int(np.argmax(bad))
        raise BookInvariantError(f"best quotes out of order: beta={b[i]}, alpha={a[i]}"
                                 + ("" if first is None else f" after arrival {first + i}"))


class EventLog(NamedTuple):
    """What `match_arrivals` did: one entry per arrival, in arrival order.

    Each event changes at most one resting order: a join adds the arrival
    (sign +1), an execution removes the opposite best order (sign -1) and a
    reservoir execution changes nothing (sign 0, with the arrival's side and
    price).  The fields from `outcome` on are what the loop writes, in the
    order of the arguments of `_kernel.c`'s `match`.
    """

    is_bid: np.ndarray
    prices: np.ndarray
    beta0: float             # best quotes before the first event
    alpha0: float
    outcome: np.ndarray      # uint8: JOINED, EXECUTED or RESERVOIR
    beta: np.ndarray         # best bid after the event (reservoir included)
    alpha: np.ndarray        # best ask after the event
    changed_bid: np.ndarray  # bool: the order the event changes is a bid
    price: np.ndarray        # that order's price
    sign: np.ndarray         # int8: +1 added, -1 removed, 0 no change
    n_bids: np.ndarray       # int64: resting bids after the event, reservoir excluded
    n_asks: np.ndarray       # int64: resting asks after the event


_LOG_DTYPES = (np.uint8, float, float, bool, float, np.int8, np.int64, np.int64)


def match_arrivals(state: BookState, rule: MatchRule, is_bid, prices) -> EventLog:
    """Apply a whole arrival sequence to `state` (mutated) under the rule.

    Gives the same book and the same effects as one `apply_arrival` call per
    arrival, and rejects every input that loop rejects with the same
    `BookInvariantError` (see `match_chunks`, run here as one chunk).
    """
    [(_, log)] = match_chunks(state, rule, is_bid, prices, max(1, np.size(prices)))
    return log


class _Heaps:
    """A book's two heaps as float64 arrays (bids negated) with their lengths,
    sized once for the resting orders plus every arrival of the side, and its
    reservoirs (+-inf for none).  The Python loop moves the heaps into `lists`
    (bids, asks) on its first chunk and keeps them there for the call; the C
    loop keeps the pointers it passes in `c_args`."""

    __slots__ = ("bids", "asks", "nb", "na", "rb", "ra", "lists", "c_args")

    def __init__(self, state: BookState, n_bid: int, n_ask: int):
        self.nb, self.na = ctypes.c_long(state.n_bids), ctypes.c_long(state.n_asks)
        self.bids = np.empty(self.nb.value + n_bid)
        self.asks = np.empty(self.na.value + n_ask)
        self.bids[:self.nb.value], self.asks[:self.na.value] = state._bid_heap, state._ask_heap
        self.rb = NEG_INF if state.bid_reservoir is None else state.bid_reservoir
        self.ra = POS_INF if state.ask_reservoir is None else state.ask_reservoir
        self.lists = self.c_args = None

    def store(self, state: BookState) -> None:
        bids, asks = self.lists or (self.bids[:self.nb.value].tolist(),
                                    self.asks[:self.na.value].tolist())
        state._bid_heap[:], state._ask_heap[:] = bids, asks


def match_chunks(state: BookState, rule: MatchRule, is_bid, prices,
                 size: int) -> Iterator[tuple[int, EventLog]]:
    """Apply an arrival sequence to `state` `size` arrivals at a time; yield
    (index of the chunk's first arrival, the chunk's `EventLog`).

    The log's arrays from `outcome` on are buffers that the next chunk
    overwrites, so a reader copies what it keeps.  `state` holds the
    new book once the last chunk is read, or once a chunk fails.  Arrival
    prices must be finite and the rule's ordering of the best quotes must
    hold in the starting book; both are checked up front, before any event.
    Prices may repeat, and -0.0 is read as 0.0, so that equal prices are
    equal bytes and the order in which a loop meets them cannot show in the
    log.  After each chunk, no arrival may have sat at the
    opposite best quote (the loop returns the first that did), and the
    ordering must hold after every event; both errors name the arrival by
    its index in the whole sequence.  Zero arrivals give one empty chunk.
    """
    is_bid = np.ascontiguousarray(is_bid, dtype=bool)
    prices = np.ascontiguousarray(prices, dtype=float)
    if not np.isfinite(prices).all():
        i = int(np.argmin(np.isfinite(prices)))
        raise BookInvariantError(f"arrival {i} at non-finite price {prices[i]}")
    if np.signbit(prices[prices == 0]).any():
        prices = prices + 0.0
    beta0, alpha0 = state.beta(), state.alpha()
    _check_order(beta0, alpha0, rule)
    n, n_bid = prices.size, int(np.count_nonzero(is_bid))
    buffers = [np.empty(min(size, n), dtype) for dtype in _LOG_DTYPES]
    run = _kernel().run
    heaps = _Heaps(state, n_bid, n - n_bid)
    try:
        for lo in range(0, max(n, 1), size):
            bid, px = is_bid[lo:lo + size], prices[lo:lo + size]
            log = EventLog(bid, px, beta0, alpha0, *(b[:px.size] for b in buffers))
            if not px.size:
                yield lo, log
                break
            tie = run(heaps, rule, log)
            if tie >= 0:
                raise BookInvariantError(f"arrival {lo + tie} at {px[tie]} collides "
                                         "with the opposite best quote")
            _check_order(log.beta, log.alpha, rule, first=lo)
            yield lo, log
            beta0, alpha0 = float(log.beta[-1]), float(log.alpha[-1])
    finally:
        heaps.store(state)


def _match_py(heaps: _Heaps, rule: MatchRule, log: EventLog) -> int:
    """The arrival loop in Python: fills the log's arrays, changes the heaps and
    returns the first arrival priced exactly at the opposite best quote, or -1.

    The reference for `_kernel.c` and the loop that runs without a compiler.
    """
    if heaps.lists is None:
        heaps.lists = (heaps.bids[:heaps.nb.value].tolist(),
                       heaps.asks[:heaps.na.value].tolist())
    bids, asks = heaps.lists
    rb, ra = heaps.rb, heaps.ra
    beta = -bids[0] if bids and -bids[0] > rb else rb
    alpha = asks[0] if asks and asks[0] < ra else ra
    # Per event: the int8 bytes (outcome, changed_bid, sign) of its kind; beta,
    # alpha and the changed order's price; n_bids and n_asks.
    codes, quotes, sizes = bytearray(), array("d"), array("q")
    put, put_quote, put_size = codes.extend, quotes.append, sizes.append
    join_bid, join_ask = bytes((JOINED, 1, 1)), bytes((JOINED, 0, 1))
    hit_ask, hit_bid = bytes((EXECUTED, 0, 255)), bytes((EXECUTED, 1, 255))
    res_bid, res_ask = bytes((RESERVOIR, 1, 0)), bytes((RESERVOIR, 0, 0))
    push, pop = heapq.heappush, heapq.heappop
    tie = -1
    # The bins of the best quotes (-1 for an empty side) ride along with
    # them.  A same-bin arrival executes under the ordinary binned rule and
    # never executes under the strict one; the ordinary rule is the ordinary
    # binned rule with each arrival in a bin of its own.
    strict = rule.kind == STRICT_BINNED
    if rule.kind == ORDINARY:
        cuts, bins = [], range(1, log.prices.size + 1)
    else:
        cuts = rule.partition.boundaries.tolist()
        bins = memoryview(rule.partition.index(log.prices))
    bbin = bisect_right(cuts, beta) if beta != NEG_INF else -1
    abin = bisect_right(cuts, alpha) if alpha != POS_INF else -1
    # p ends each event as the price of the order it changes
    for bid, p, k in zip(memoryview(log.is_bid), memoryview(log.prices), bins):
        if p == (alpha if bid else beta) and tie < 0:
            tie = len(codes) // 3     # this arrival's index
        if bid:
            if (p > alpha and k != abin) if strict else (p > alpha or k == abin):
                if alpha == ra:
                    put(res_bid)
                else:
                    p = pop(asks)
                    alpha = asks[0] if asks and asks[0] < ra else ra
                    abin = bisect_right(cuts, alpha) if alpha != POS_INF else -1
                    put(hit_ask)
            else:
                push(bids, -p)
                if p > beta:
                    beta, bbin = p, k
                put(join_bid)
        elif (p < beta and k != bbin) if strict else (p < beta or k == bbin):
            if beta == rb:
                put(res_ask)
            else:
                p = -pop(bids)
                beta = -bids[0] if bids and -bids[0] > rb else rb
                bbin = bisect_right(cuts, beta) if beta != NEG_INF else -1
                put(hit_bid)
        else:
            push(asks, p)
            if p < alpha:
                alpha, abin = p, k
            put(join_ask)
        put_quote(beta)
        put_quote(alpha)
        put_quote(p)
        put_size(len(bids))
        put_size(len(asks))
    small = np.frombuffer(codes, np.int8).reshape(-1, 3)
    log.outcome[:], log.changed_bid[:], log.sign[:] = small.T
    log.beta[:], log.alpha[:], log.price[:] = np.frombuffer(quotes).reshape(-1, 3).T
    log.n_bids[:], log.n_asks[:] = np.frombuffer(sizes, np.int64).reshape(-1, 2).T
    return tie


def _match_c(fn, heaps: _Heaps, rule: MatchRule, log: EventLog) -> int:
    """`_match_py` through the compiled `match` of `_kernel.c`, on the heaps in place.

    The pointers are taken once per `match_chunks` call, on its first chunk:
    every chunk's log is a view of the same eight buffers, and each chunk's
    arrivals follow the previous chunk's in the call's arrays.
    """
    n = log.prices.size
    if heaps.c_args is None:
        cuts = np.empty(0) if rule.kind == ORDINARY else \
            np.ascontiguousarray(rule.partition.boundaries, dtype=float)
        # the next chunk's is_bid and prices, then cuts, kept alive, and the
        # arguments after bins, which stay the same for the call
        heaps.c_args = [log.is_bid.ctypes.data, log.prices.ctypes.data, cuts, (
            cuts.ctypes.data, cuts.size, rule.kind == STRICT_BINNED, heaps.rb, heaps.ra,
            heaps.bids.ctypes.data, ctypes.byref(heaps.nb), heaps.asks.ctypes.data,
            ctypes.byref(heaps.na), *(a.ctypes.data for a in log[4:]))]
    args = heaps.c_args
    bins = None if rule.kind == ORDINARY else \
        np.ascontiguousarray(rule.partition.index(log.prices), dtype=np.int64)
    tie = fn(n, args[0], args[1], None if bins is None else bins.ctypes.data, *args[3])
    args[0] += n * log.is_bid.itemsize
    args[1] += n * log.prices.itemsize
    return tie


BLOCK = 256   # events per block in the numpy events x bins passes
TOP_MAX_OFFSET = 10
FIVE_BIN_CELLS = 36     # the five-bin region pass's cells 6 b + a, b and a in 1..5


class BinnedSums(NamedTuple):
    """What the binned recorder carries from chunk to chunk of a run; `binned`
    changes every array in place."""

    pre: np.ndarray     # bins of the best bid and ask before the next event, -1 if empty
    time: np.ndarray    # time per (elapsed | best bid | best ask, half of the run, bin + 1)
    joint: np.ndarray   # events per (best-bid bin, best-ask bin), both sides held
    visits: np.ndarray  # events per best-bid bin, the bid side held
    counts: np.ndarray  # resting bids per bin, initial orders excluded
    top: np.ndarray     # per best-bid bin b, the bid counts of bins b, b - 1, ... summed

    @staticmethod
    def layout(nbins: int) -> tuple:
        """(dtype, shape) of each field for `nbins` bins."""
        i8 = np.dtype(np.int64)
        return ((i8, (2,)), (np.dtype(float), (3, 2, nbins + 1)), (i8, (nbins, nbins)),
                (i8, (nbins,)), (i8, (nbins,)), (i8, (nbins, TOP_MAX_OFFSET + 1)))

    @classmethod
    def zeros(cls, nbins: int, pre_b: int, pre_a: int) -> "BinnedSums":
        sums = cls(*(np.zeros(shape, dtype) for dtype, shape in cls.layout(nbins)))
        sums.pre[:] = pre_b, pre_a
        return sums


def _binned_sums(sums: BinnedSums, times: np.ndarray, t0: float, half: int,
                 beta: np.ndarray, alpha: np.ndarray, beta_bin: np.ndarray,
                 alpha_bin: np.ndarray, price_bin: np.ndarray, changed_bid: np.ndarray,
                 sign: np.ndarray) -> None:
    """Fold one chunk of a run's events into `sums`.

    Event i ends the interval from the previous event's time (t0 for the
    first) to times[i], spent in the state before it, which sums.pre holds
    for the first event; events from `half` on fall in the run's second half.
    After event i the best quotes are beta[i] and alpha[i] in bins
    beta_bin[i] and alpha_bin[i] (-1 where a side is empty), and the resting
    order it changes lies in bin price_bin[i] with (changed_bid, sign) of
    `EventLog.changes`.  The reference for `binned` in `_kernel.c` and the
    pass that runs without a compiler.
    """
    nbins, k = sums.visits.size, times.size
    if not k:
        return
    b = np.where(beta == NEG_INF, -1, beta_bin)
    a = np.where(alpha == POS_INF, -1, alpha_bin)
    dt = np.diff(times, prepend=t0)
    row = (np.arange(k) >= half) * (nbins + 1)
    pre_b = np.concatenate((sums.pre[:1], b[:-1])) + 1
    pre_a = np.concatenate((sums.pre[1:], a[:-1])) + 1
    sums.time[...] = _add_in_order(sums.time, (row, row + 2 * (nbins + 1) + pre_b,
                                               row + 4 * (nbins + 1) + pre_a), dt)
    both = (b >= 0) & (a >= 0)
    joint, visits = sums.joint, sums.visits
    joint += np.bincount(b[both] * nbins + a[both],
                         minlength=nbins * nbins).reshape(nbins, nbins)
    visits += np.bincount(b[b >= 0], minlength=nbins)
    _top_shape_sums(b, price_bin, sign * changed_bid, sums.counts, sums.top)
    sums.pre[:] = b[-1], a[-1]


def _add_in_order(sums: np.ndarray, cells: tuple, weights: np.ndarray) -> np.ndarray:
    """`sums` plus `weights` added to each array of flat cells in `cells`,
    every sum in event order.

    bincount adds its weights in order, as a running sum would, so the
    carried sums go first: every sum is then added exactly as in one
    bincount over the whole run.
    """
    flat = sums.ravel()
    return np.bincount(np.concatenate((np.arange(flat.size), *cells)),
                       weights=np.concatenate((flat, *(weights,) * len(cells))),
                       minlength=flat.size).reshape(sums.shape)


def _top_shape_sums(beta_bin: np.ndarray, bid_bin: np.ndarray, bid_step: np.ndarray,
                    counts: np.ndarray, sums: np.ndarray) -> None:
    """Per best-bid bin k, add the bid counts in bins k, k-1, ..., k-TOP_MAX_OFFSET
    after each event to row k of `sums` (n_bins x (TOP_MAX_OFFSET + 1)).

    `counts` holds the resting-bid count per bin before the first event and
    is carried to after the last; event i moves bin bid_bin[i] by
    bid_step[i].  The top-shape part of `_binned_sums`.
    """
    nbins = counts.size
    for lo in range(0, beta_bin.size, BLOCK):
        step = np.zeros((min(BLOCK, beta_bin.size - lo), nbins), dtype=np.int64)
        rows = np.arange(step.shape[0])
        step[rows, bid_bin[lo:lo + BLOCK]] = bid_step[lo:lo + BLOCK]
        state = counts + np.cumsum(step, axis=0)
        counts[:] = state[-1]
        b = beta_bin[lo:lo + BLOCK]
        for j in range(TOP_MAX_OFFSET + 1):
            ok = b >= j
            np.add.at(sums[:, j], b[ok], state[rows[ok], b[ok] - j])


def _below(nbins: int, *bins: np.ndarray) -> bool:
    """Whether every bin in the int64 arrays `bins` lies in 0..nbins-1."""
    # viewed as unsigned, a negative bin is larger than any bin count
    return all(not k.size or k.view(np.uint64).max() < nbins for k in bins)


def _binned_c(fn, sums: BinnedSums, times: np.ndarray, t0: float, half: int,
              beta: np.ndarray, alpha: np.ndarray, beta_bin: np.ndarray,
              alpha_bin: np.ndarray, price_bin: np.ndarray, changed_bid: np.ndarray,
              sign: np.ndarray) -> None:
    """`_binned_sums` through the compiled `binned` of `_kernel.c`."""
    times, beta, alpha = (np.ascontiguousarray(a, dtype=float) for a in (times, beta, alpha))
    beta_bin, alpha_bin, price_bin = (np.ascontiguousarray(a, dtype=np.int64)
                                      for a in (beta_bin, alpha_bin, price_bin))
    changed_bid = np.ascontiguousarray(changed_bid, dtype=bool)
    sign = np.ascontiguousarray(sign, dtype=np.int8)
    n, nbins = times.size, sums.visits.size
    if not all(a.shape == (n,) for a in (beta, alpha, beta_bin, alpha_bin, price_bin,
                                          changed_bid, sign)):
        raise ValueError("binned inputs differ in length")
    # the C pass indexes with these bins and writes through these arrays unchecked
    if any(a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous
           for a, (dtype, shape) in zip(sums, BinnedSums.layout(nbins))):
        raise ValueError(f"binned sums must be contiguous arrays laid out as "
                         f"BinnedSums.layout({nbins}) gives")
    if not (_below(nbins, beta_bin, alpha_bin, price_bin) and _below(nbins + 1, sums.pre + 1)):
        raise ValueError(f"binned bins outside 0..{nbins - 1}")
    fn(n, times.ctypes.data, t0, half, beta.ctypes.data, alpha.ctypes.data,
       beta_bin.ctypes.data, alpha_bin.ctypes.data, price_bin.ctypes.data,
       changed_bid.ctypes.data, sign.ctypes.data, nbins, TOP_MAX_OFFSET,
       *(a.ctypes.data for a in sums))


class FiveBinSums(NamedTuple):
    """The five-bin region pass: per cell 6 b + a of `_five_bin_cells`, the
    visits, the summed change of the state and, at states whose gauge exceeds
    K, the visits and the summed change of the gauge and of its square; per
    change, whether the gauge before it exceeds K; and the final state."""

    visits: np.ndarray
    dx_sum: np.ndarray
    visits_hi: np.ndarray
    dgauge_sum: np.ndarray
    dgauge_sq: np.ndarray
    above: np.ndarray
    final: np.ndarray


def _five_bin_cells(x: np.ndarray) -> np.ndarray:
    """Cell 6 b + a of each signed middle-bin state (rows of x, bids positive).

    b is the highest bin holding bids (bin 1, the bid reservoir's, if no
    middle bin does) and a the lowest holding asks (bin 5 if none).
    """
    pos, neg = x > 0, x < 0
    b = np.select([pos[:, 2], pos[:, 1], pos[:, 0]], [4, 3, 2], 1)
    a = np.select([neg[:, 0], neg[:, 1], neg[:, 2]], [2, 3, 4], 5)
    if (b >= a).any():
        i = np.flatnonzero(b >= a)[0]
        raise ValueError(f"inconsistent sign pattern {tuple(int(v) for v in x[i])}")
    return 6 * b + a


def _five_bin_sums(bins: np.ndarray, changed_bid: np.ndarray, sign: np.ndarray,
                   normals: np.ndarray, K: float) -> FiveBinSums:
    """The region pass over the five-bin book's changes.

    The state is the signed order count of the middle bins 1..3, starting at
    zero; change i moves bin bins[i], if a middle one, by sign[i] for a bid
    and -sign[i] for an ask (with `EventLog.changes`'s changed_bid and sign).
    The gauge of a state is the largest product with a row of `normals`
    (m x 3).  The reference for `five_bin` in `_kernel.c` and the pass that
    runs without a compiler.
    """
    n = bins.size
    mid = (1 <= bins) & (bins <= 3)
    x = np.zeros((n + 1, 3), dtype=np.int64)
    x[1:][mid, bins[mid] - 1] = np.where(changed_bid, sign, -sign)[mid]
    np.cumsum(x, axis=0, out=x)
    cell = _five_bin_cells(x[:-1])
    x1, x2, x3 = x.T.astype(float)
    g = np.full(n + 1, -np.inf)
    for a, b, c in normals:
        np.maximum(g, a * x1 + b * x2 + c * x3, out=g)
    above = g[:-1] > K
    dg = np.diff(g)[above]

    def count(cells, weights=None):
        # float sums even of no cells, where bincount gives int64 zeros
        sums = np.bincount(cells, weights=weights, minlength=FIVE_BIN_CELLS)
        return sums if weights is None else sums.astype(float)

    dx_sum = np.stack([count(cell, np.diff(x[:, k])) for k in range(3)], axis=1)
    return FiveBinSums(count(cell), dx_sum, count(cell[above]), count(cell[above], dg),
                       count(cell[above], dg * dg), above, x[-1])


def _five_bin_c(fn, bins: np.ndarray, changed_bid: np.ndarray, sign: np.ndarray,
                normals: np.ndarray, K: float) -> FiveBinSums:
    """`_five_bin_sums` through the compiled `five_bin` of `_kernel.c`."""
    bins = np.ascontiguousarray(bins, dtype=np.int64)
    changed_bid = np.ascontiguousarray(changed_bid, dtype=bool)
    sign = np.ascontiguousarray(sign, dtype=np.int8)
    normals = np.ascontiguousarray(normals, dtype=float)
    n = bins.size
    if not changed_bid.shape == sign.shape == bins.shape == (n,):
        raise ValueError("five-bin inputs differ in length")
    if normals.ndim != 2 or normals.shape[1] != 3:
        raise ValueError("five-bin normals must have shape (m, 3)")
    # the C pass indexes with these bins unchecked
    if not _below(5, bins):
        raise ValueError("five-bin bins outside 0..4")
    cells, i8 = FIVE_BIN_CELLS, np.int64
    out = FiveBinSums(np.zeros(cells, i8), np.zeros((cells, 3)), np.zeros(cells, i8),
                      np.zeros(cells), np.zeros(cells), np.empty(n, dtype=bool),
                      np.empty(3, i8))
    stop = fn(n, bins.ctypes.data, changed_bid.ctypes.data, sign.ctypes.data,
              normals.ctypes.data, len(normals), float(K), out.final.ctypes.data,
              out.visits.ctypes.data, out.dx_sum.ctypes.data, out.visits_hi.ctypes.data,
              out.dgauge_sum.ctypes.data, out.dgauge_sq.ctypes.data, out.above.ctypes.data)
    if stop >= 0:
        raise ValueError(f"inconsistent sign pattern {tuple(out.final.tolist())}")
    return out


def _refinement_maxima(is_bid: np.ndarray, bins: np.ndarray, steps: np.ndarray,
                       nbins: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest bottom-up bid and top-down ask prefix sums of per-bin counts, per point.

    Row i of the (n, 2) inputs is point i's two changes: change j moves the
    bid count (is_bid[i, j]) or the ask count of bin bins[i, j] by
    steps[i, j].  After both, max_b[i] is the largest prefix sum of the bid
    counts from bin 0 up and max_a[i] that of the ask counts from bin
    nbins - 1 down; the counts start at zero.  The reference for
    `refinement` in `_kernel.c` and the pass that runs without a compiler.
    """
    n = is_bid.shape[0]
    max_b, max_a = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    prefix_b = np.zeros(nbins, dtype=np.int64)
    prefix_a = np.zeros(nbins, dtype=np.int64)
    for lo in range(0, n, BLOCK):
        bid, k, v = is_bid[lo:lo + BLOCK], bins[lo:lo + BLOCK], steps[lo:lo + BLOCK]
        rows = np.broadcast_to(np.arange(bid.shape[0])[:, None], bid.shape)
        pb = np.zeros((bid.shape[0], nbins), dtype=np.int64)
        pa = np.zeros_like(pb)
        np.add.at(pb, (rows[bid], k[bid]), v[bid])
        np.add.at(pa, (rows[~bid], nbins - 1 - k[~bid]), v[~bid])
        for p, carry in ((pb, prefix_b), (pa, prefix_a)):
            np.cumsum(p, axis=1, out=p)
            np.cumsum(p, axis=0, out=p)
            p += carry
        prefix_b, prefix_a = pb[-1].copy(), pa[-1].copy()
        max_b[lo:lo + BLOCK], max_a[lo:lo + BLOCK] = pb.max(axis=1), pa.max(axis=1)
    return max_b, max_a


def _refinement_c(fn, is_bid: np.ndarray, bins: np.ndarray, steps: np.ndarray,
                  nbins: int) -> tuple[np.ndarray, np.ndarray]:
    """`_refinement_maxima` through the compiled `refinement` of `_kernel.c`."""
    is_bid = np.ascontiguousarray(is_bid, dtype=bool)
    bins, steps = (np.ascontiguousarray(a, dtype=np.int64) for a in (bins, steps))
    n = len(is_bid)
    if not is_bid.shape == bins.shape == steps.shape == (n, 2):
        raise ValueError("refinement inputs must have one shape (n, 2)")
    # the C pass indexes with these bins unchecked
    if n and not (0 <= bins.min() and bins.max() < nbins):
        raise ValueError(f"refinement bins outside 0..{nbins - 1}")
    counts = np.zeros((2, nbins), dtype=np.int64)
    max_b, max_a = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    fn(n, is_bid.ctypes.data, bins.ctypes.data, steps.ctypes.data, nbins,
       counts[0].ctypes.data, counts[1].ctypes.data, max_b.ctypes.data, max_a.ctypes.data)
    return max_b, max_a


def _draw_py(spec: ArrivalSpec, side_u: np.ndarray, price_u: np.ndarray,
             is_bid: np.ndarray, prices: np.ndarray) -> None:
    """One chunk of arrivals from its two uniform draws: arrival i is a bid when
    side_u[i] < spec.p_b, priced at its side's quantile of price_u[i].

    Each side's quantile is called once, on its arrivals' draws.  The
    reference for `draw` in `_kernel.c` and the draw of every law it does
    not know.
    """
    np.less(side_u, spec.p_b, out=is_bid)
    # index arrays, as a random boolean mask gathers and scatters slowly
    at_bid, at_ask = np.flatnonzero(is_bid), np.flatnonzero(~is_bid)
    prices[at_bid] = spec.bid_dist.quantile(price_u[at_bid])
    prices[at_ask] = spec.ask_dist.quantile(price_u[at_ask])


class _Law(ctypes.Structure):
    """`struct law` of `_kernel.c`: a uniform or piecewise-linear quantile's fields."""

    UNIFORM, PIECEWISE = range(2)     # its kinds, as the C enum numbers them
    _p = ctypes.c_void_p
    _fields_ = [("kind", ctypes.c_long), ("n", ctypes.c_long), ("lo", ctypes.c_double),
                ("width", ctypes.c_double), ("xs", _p), ("cdf", _p), ("y0", _p),
                ("y_lin", _p), ("y_sq", _p), ("two_s", _p), ("slopes", _p),
                ("quadratic", _p)]


def _c_law(q) -> Optional[_Law]:
    """The C form of the uniform or piecewise-linear quantile `q`, or None for
    any other callable.

    Built once, as that takes microseconds, and kept on q, whose arrays its
    pointers read.
    """
    kind = type(q)
    if kind not in (_UniformQuantile, _PiecewiseQuantile):
        return None
    law = q.__dict__.get("_c_law")
    if law is None:
        if kind is _UniformQuantile:
            law = _Law(_Law.UNIFORM, 0, q.lo, q.width)
        else:
            arrays = q.xs, q.cum, q.y0, q.y_lin, q.y_sq, q.two_s, q.slopes, q.quadratic
            law = _Law(_Law.PIECEWISE, q.xs.size, 0.0, 0.0, *(a.ctypes.data for a in arrays))
        q._c_law = law
    return law


def _draw_c(fn, spec: ArrivalSpec, side_u: np.ndarray, price_u: np.ndarray,
            is_bid: np.ndarray, prices: np.ndarray) -> None:
    """`_draw_py` through the compiled `draw` of `_kernel.c`, where both laws
    are uniform or piecewise-linear built-ins; `_draw_py` otherwise, so a
    table law and a wrapped or custom quantile are called."""
    laws = _c_law(spec.bid_dist.quantile), _c_law(spec.ask_dist.quantile)
    if None in laws:
        _draw_py(spec, side_u, price_u, is_bid, prices)
        return
    side_u, price_u = (np.ascontiguousarray(a, dtype=float) for a in (side_u, price_u))
    n = side_u.size
    # the C pass writes through these unchecked
    if not (side_u.shape == price_u.shape == is_bid.shape == prices.shape == (n,)
            and is_bid.dtype == bool and prices.dtype == float
            and is_bid.flags.c_contiguous and prices.flags.c_contiguous):
        raise ValueError("draw takes equal-length 1-d uniforms and contiguous bool and "
                         "float outputs")
    fn(n, side_u.ctypes.data, price_u.ctypes.data, spec.p_b, ctypes.byref(laws[0]),
       ctypes.byref(laws[1]), is_bid.ctypes.data, prices.ctypes.data)


def _uniforms_py(key: tuple[int, int], first: int, out: np.ndarray) -> np.ndarray:
    """Draws first, first + 1, ... of the uniform stream of numpy's Philox keyed
    `key` into `out`, and returns it.

    Philox counts its counter up before each block of four words, so a
    generator set to counter first // 4 makes draw first the word first % 4 of
    its next block.  The reference for `uniforms` in `_kernel.c`, and its
    fallback.
    """
    bg = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=[first // 4, 0, 0, 0])
    bg.random_raw(first % 4)
    return np.random.Generator(bg).random(out=out)


def _uniforms_c(fn, key: tuple[int, int], first: int, out: np.ndarray) -> np.ndarray:
    """`_uniforms_py` through the compiled `uniforms` of `_kernel.c`."""
    # the C pass writes through it unchecked
    if not (out.ndim == 1 and out.dtype == float and out.flags.c_contiguous):
        raise ValueError("uniforms takes a contiguous 1-d float64 output")
    fn(out.size, *key, first, out.ctypes.data)
    return out


class _Kernel(NamedTuple):
    name: str                # "c" or "python"
    run: Callable            # (heaps, rule, log) -> first opposite-best tie, or -1
    binned: Callable         # (sums, times, t0, half, beta, alpha, three bins, changes) -> None
    five_bin: Callable       # (bins, changed_bid, sign, normals, K) -> FiveBinSums
    refinement: Callable     # (is_bid, bins, steps, nbins) -> (max_b, max_a)
    draw: Callable           # (spec, side_u, price_u, is_bid out, prices out) -> None
    uniforms: Callable       # ((seed, tag), first, out) -> out
    library: Optional[Path]  # the compiled library, for the C kernel


_EXPORTS = ("match", "binned", "five_bin", "refinement", "draw", "uniforms")
_PYTHON_KERNEL = _Kernel("python", _match_py, _binned_sums, _five_bin_sums,
                         _refinement_maxima, _draw_py, _uniforms_py, None)


_SOURCE = Path(__file__).with_name("_kernel.c")
_CC = "cc"
# No -ffast-math: the loop compares with +-inf and tests prices for equality.
# No fused multiply-adds, which would round the five-bin gauge unlike numpy.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_loaded: Optional[_Kernel] = None


def _cache_dirs() -> tuple[Path, ...]:
    """Where the compiled kernel is kept: the package's __pycache__, else a per-user temp dir."""
    return _SOURCE.parent / "__pycache__", Path(tempfile.gettempdir()) / f"lobphase-{os.getuid()}"


def _library_name() -> str:
    """The cached library's name, a hash of all that goes into building it."""
    key = [_SOURCE.read_bytes(), sys.implementation.cache_tag.encode(),
           os.uname().machine.encode(), *(flag.encode() for flag in _FLAGS)]
    digest = hashlib.sha256(b"\0".join(key)).hexdigest()
    return f"_kernel-{digest[:16]}.so"


def _private(path: Path, is_kind: Callable[[int], bool]) -> bool:
    """Whether no other user can have written `path`: it is ours, not a symlink,
    of the kind `is_kind` tests for, and not writable by group or others."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return is_kind(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _library() -> Path:
    """The compiled kernel for this source, interpreter and machine, built on first use.

    Only a directory and a library no other user can write are loaded or
    built in.  The build goes to a temp file that must load before it is
    moved into place, so no process loads a half-written or broken library.
    A new build removes our libraries of other sources, flags or interpreters
    from its directory.
    """
    name, dirs = _library_name(), _cache_dirs()
    for d in dirs:
        if _private(d, stat.S_ISDIR) and _private(d / name, stat.S_ISREG):
            return d / name
    for d in dirs:
        try:
            d.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _private(d, stat.S_ISDIR):
                continue
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=d)
        except OSError:
            continue
        os.close(fd)
        try:
            subprocess.run([_CC, *_FLAGS, "-o", tmp, str(_SOURCE)],
                           check=True, capture_output=True, timeout=300)
            os.chmod(tmp, 0o755)        # whatever the umask, or it is never loaded
            lib = ctypes.CDLL(tmp)      # raises unless it loads and has every export
            for export in _EXPORTS:
                getattr(lib, export)
            os.replace(tmp, d / name)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        with suppress(OSError):     # a stale library left behind does no harm
            for old in d.glob("_kernel-*.so"):
                if old.name != name and _private(old, stat.S_ISREG):
                    old.unlink()
        return d / name
    raise OSError(f"no private directory for the compiled kernel among {dirs}")


def _load_kernel() -> _Kernel:
    """The compiled passes, or the Python ones if building or loading them fails."""
    if os.name != "posix":      # the cache relies on POSIX file ownership
        return _PYTHON_KERNEL
    try:
        library = _library()
        lib = ctypes.CDLL(str(library))
        match, binned, five_bin, refinement, draw, uniforms = (getattr(lib, e)
                                                               for e in _EXPORTS)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return _PYTHON_KERNEL
    p, n, d = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    match.argtypes = [n, p, p, p, p, n, ctypes.c_int, d, d, p, ctypes.POINTER(n), p,
                      ctypes.POINTER(n), *[p] * len(_LOG_DTYPES)]
    binned.argtypes = [n, p, d, n, p, p, p, p, p, p, p, n, n, p, p, p, p, p, p]
    five_bin.argtypes = [n, p, p, p, p, n, d, p, p, p, p, p, p, p]
    refinement.argtypes = [n, p, p, p, n, p, p, p, p]
    draw.argtypes = [n, p, p, d, p, p, p, p]
    uniforms.argtypes = [n, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64, p]
    binned.restype = refinement.restype = draw.restype = uniforms.restype = None
    match.restype = five_bin.restype = n
    return _Kernel("c", partial(_match_c, match), partial(_binned_c, binned),
                   partial(_five_bin_c, five_bin), partial(_refinement_c, refinement),
                   partial(_draw_c, draw), partial(_uniforms_c, uniforms), library)


def _kernel() -> _Kernel:
    global _loaded
    if _loaded is None:
        _loaded = _load_kernel()
    return _loaded


def __getattr__(name: str):
    # KERNEL ("c" or "python") names the loop match_arrivals runs, loading it on first use.
    if name == "KERNEL":
        return _kernel().name
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
