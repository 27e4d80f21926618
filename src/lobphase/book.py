"""Order-book state machine for ordinary, ordinary-binned, and strict-binned matching.

Resting orders are price heaps, each in a float64 array that both match
loops change in place, optionally backed by reservoirs: an infinite supply of
bids or asks at a fixed price.  Executing against a reservoir never depletes
it, and reservoir orders never enter the finite counters.

Prices must be finite, and they may repeat.  The one tie the book refuses is
an arrival priced exactly at the opposite best quote, reservoir included
(`BookInvariantError`); the paper's continuous laws give it probability zero.
A resting order priced at its own side's reservoir sits behind it: the
reservoir is met first.

`match_chunks` is the event loop: it applies an arrival sequence a chunk at
a time and yields each chunk's `EventLog`, which `sim._fold`, its one
caller in the package, folds into a run's recorders; no run keeps a
whole-run log.  Its loop body is the C function in `_kernel.c`, compiled
on first use and cached, or the Python loop `_match_py` where no compiler
is available; `KERNEL` says which runs.  `apply_arrival` applies one order
at a time; it is the readable reference both loops are tested against.  The
same library carries the other exports of `_EXPORTS`, each with a numpy
pass as its reference and fallback: two recorders that carry their sums
from chunk to chunk, the binned one (`_binned_sums`, into `BinnedSums`) and
the five-bin book's region pass (`_five_bin_sums`, into `FiveBinSums`); the
refinement check's domination pass (`_refinement_maxima`); and the two
steps of `sim.materialize`'s arrival draw: the Philox uniforms of a chunk
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
    """Mutable book: each side a binary min-heap of keys (prices, bids negated)
    at the front of a float64 array, its length a C long that both match
    loops update in place; plus optional infinite reservoirs."""

    __slots__ = ("_heaps", "_sizes", "_c_args", "bid_reservoir", "ask_reservoir")

    def __init__(self, bids=(), asks=(), bid_reservoir: float | None = None,
                 ask_reservoir: float | None = None):
        if bid_reservoir is not None and ask_reservoir is not None:
            if not bid_reservoir < ask_reservoir:
                raise ValueError("bid reservoir must sit below ask reservoir")
        self.bid_reservoir = bid_reservoir
        self.ask_reservoir = ask_reservoir
        # a sorted array is a heap; + 0.0 turns -0.0 into 0.0
        self._heaps = [np.sort(-(np.fromiter(bids, float) + 0.0)),
                       np.sort(np.fromiter(asks, float) + 0.0)]
        if not all(np.isfinite(h).all() for h in self._heaps):
            raise BookInvariantError("non-finite resting price")
        self._sizes = tuple(ctypes.c_long(h.size) for h in self._heaps)
        # the C loop's pointers for the match_chunks call under way
        self._c_args = None

    # -- queries ---------------------------------------------------------

    @property
    def n_bids(self) -> int:
        return self._sizes[0].value

    @property
    def n_asks(self) -> int:
        return self._sizes[1].value

    def beta(self) -> float:
        """Highest bid including the reservoir; -inf when the side is empty."""
        b = -float(self._heaps[0][0]) if self.n_bids else NEG_INF
        r = self.bid_reservoir
        return b if r is None or b > r else r

    def alpha(self) -> float:
        """Lowest ask including the reservoir; +inf when the side is empty."""
        a = float(self._heaps[1][0]) if self.n_asks else POS_INF
        r = self.ask_reservoir
        return a if r is None or a < r else r

    def bids(self) -> list[float]:
        return np.sort(-self._heaps[0][:self.n_bids]).tolist()

    def asks(self) -> list[float]:
        return np.sort(self._heaps[1][:self.n_asks]).tolist()

    def clone(self) -> "BookState":
        c = BookState(bid_reservoir=self.bid_reservoir, ask_reservoir=self.ask_reservoir)
        c._heaps = [h[:n.value].copy() for h, n in zip(self._heaps, self._sizes)]
        c._sizes = tuple(ctypes.c_long(n.value) for n in self._sizes)
        return c

    # -- mutations -------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        """Room on each side for `extra` more orders: an array that lacks it
        grows by `extra` or by as much as it held, whichever is more."""
        for i, (heap, n) in enumerate(zip(self._heaps, self._sizes)):
            if n.value + extra > heap.size:
                # only the book is copied: the rest is first written by a loop
                self._heaps[i] = np.empty(n.value + max(extra, heap.size))
                self._heaps[i][:n.value] = heap[:n.value]

    def insert(self, side: str, price: float) -> None:
        """Add one resting order at a finite price, in O(log book); -0.0 rests as 0.0."""
        if not math.isfinite(price):
            raise BookInvariantError(f"non-finite price {price}")
        self._reserve(1)
        i = 0 if side == "bid" else 1
        heap, n = self._heaps[i], self._sizes[i]
        key, pos = -(price + 0.0) if i == 0 else price + 0.0, n.value
        n.value += 1
        while pos and key < heap[(pos - 1) // 2]:   # sift the new key up from the end
            heap[pos], pos = heap[(pos - 1) // 2], (pos - 1) // 2
        heap[pos] = key

    def pop_best(self, side: str) -> float:
        """Remove the side's best order, in O(log book), and return its price."""
        i = 0 if side == "bid" else 1
        heap, n = self._heaps[i], self._sizes[i]
        if not n.value:
            raise BookInvariantError(f"pop from empty {('bid', 'ask')[i]} side")
        best, last, pos, child = float(heap[0]), heap[n.value - 1], 0, 1
        n.value -= 1
        while child < n.value:      # sift the last key down from the root
            if child + 1 < n.value and heap[child + 1] < heap[child]:
                child += 1
            if not heap[child] < last:
                break
            heap[pos] = heap[child]
            pos, child = child, 2 * child + 1
        heap[pos] = last
        return -best if i == 0 else best


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
    """What `match_chunks` did to one chunk: one entry per arrival, in arrival order.

    Each event changes at most one resting order: a join adds the arrival
    (sign +1), an execution removes the opposite best order (sign -1) and a
    reservoir execution changes nothing (sign 0, with the arrival's side and
    price).  The fields from `outcome` on are what the loop writes, in the
    order of the arguments of `_kernel.c`'s `match`.
    """

    is_bid: np.ndarray
    prices: np.ndarray
    outcome: np.ndarray      # uint8: JOINED, EXECUTED or RESERVOIR
    beta: np.ndarray         # best bid after the event (reservoir included)
    alpha: np.ndarray        # best ask after the event
    changed_bid: np.ndarray  # bool: the order the event changes is a bid
    price: np.ndarray        # that order's price
    sign: np.ndarray         # int8: +1 added, -1 removed, 0 no change
    n_bids: np.ndarray       # int64: resting bids after the event, reservoir excluded
    n_asks: np.ndarray       # int64: resting asks after the event


_LOG_DTYPES = (np.uint8, float, float, bool, float, np.int8, np.int64, np.int64)


def match_chunks(state: BookState, rule: MatchRule, is_bid, prices,
                 size: int) -> Iterator[tuple[int, EventLog]]:
    """Apply an arrival sequence to `state` `size` arrivals at a time; yield
    (index of the chunk's first arrival, the chunk's `EventLog`).

    The log's arrays from `outcome` on are buffers that the next chunk
    overwrites, so a reader copies what it keeps.  The loop changes `state`
    in place: it holds the book up to the end of the last chunk run, a
    failed one included.  Arrival prices must be finite and the rule's
    ordering of the best quotes must hold in the starting book; both are
    checked up front, before any event.  Prices may repeat, and -0.0 is read
    as 0.0, so that equal prices are equal bytes and the order in which a
    loop meets them cannot show in the log.  After each chunk, no arrival
    may have sat at the opposite best quote (the loop returns the first that
    did), and the ordering must hold after every event; both errors name the
    arrival by its index in the whole sequence.  Zero arrivals give one
    empty chunk.
    """
    is_bid = np.ascontiguousarray(is_bid, dtype=bool)
    prices = np.ascontiguousarray(prices, dtype=float)
    if not np.isfinite(prices).all():
        i = int(np.argmin(np.isfinite(prices)))
        raise BookInvariantError(f"arrival {i} at non-finite price {prices[i]}")
    if np.signbit(prices[prices == 0]).any():
        prices = prices + 0.0
    _check_order(state.beta(), state.alpha(), rule)
    n = prices.size
    buffers = [np.empty(min(size, n), dtype) for dtype in _LOG_DTYPES]
    run = _kernel().run
    state._c_args = None
    for lo in range(0, max(n, 1), size):
        bid, px = is_bid[lo:lo + size], prices[lo:lo + size]
        log = EventLog(bid, px, *(b[:px.size] for b in buffers))
        state._reserve(px.size)
        tie = run(state, rule, log)
        if tie >= 0:
            raise BookInvariantError(f"arrival {lo + tie} at {px[tie]} collides "
                                     "with the opposite best quote")
        _check_order(log.beta, log.alpha, rule, first=lo)
        yield lo, log


def _reservoirs(state: BookState) -> tuple[float, float]:
    """The book's reservoir prices, -inf and +inf for none."""
    rb, ra = state.bid_reservoir, state.ask_reservoir
    return NEG_INF if rb is None else rb, POS_INF if ra is None else ra


def _match_py(state: BookState, rule: MatchRule, log: EventLog) -> int:
    """The arrival loop in Python: fills the log's arrays, changes the book and
    returns the first arrival priced exactly at the opposite best quote, or -1.

    It runs on `heapq` lists taken from the state's heaps and writes them back.
    The reference for `_kernel.c` and the loop that runs without a compiler.
    """
    bids, asks = (heap[:n.value].tolist() for heap, n in zip(state._heaps, state._sizes))
    rb, ra = _reservoirs(state)
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
    for heap, n, keys in zip(state._heaps, state._sizes, (bids, asks)):
        heap[:len(keys)], n.value = keys, len(keys)
    return tie


def _match_c(fn, state: BookState, rule: MatchRule, log: EventLog) -> int:
    """`_match_py` through the compiled `match` of `_kernel.c`, on the state's heaps in place.

    The pointers but the heaps', which move when `match_chunks` grows them
    for a chunk, are taken once per call, on its first chunk: every chunk's
    log is a view of the same eight buffers, and each chunk's arrivals follow
    the previous chunk's in the call's arrays.
    """
    n = log.prices.size
    if state._c_args is None:
        cuts = np.empty(0) if rule.kind == ORDINARY else \
            np.ascontiguousarray(rule.partition.boundaries, dtype=float)
        # the next chunk's is_bid and prices, then cuts, kept alive, the
        # arguments between bins and the heaps, and the log's buffers
        state._c_args = [log.is_bid.ctypes.data, log.prices.ctypes.data, cuts,
                         (cuts.ctypes.data, cuts.size, rule.kind == STRICT_BINNED,
                          *_reservoirs(state)), [a.ctypes.data for a in log[2:]]]
    args = state._c_args
    bins = None if rule.kind == ORDINARY else \
        np.ascontiguousarray(rule.partition.index(log.prices), dtype=np.int64)
    (bids, asks), (nb, na) = state._heaps, state._sizes
    tie = fn(n, args[0], args[1], None if bins is None else bins.ctypes.data, *args[3],
             bids.ctypes.data, nb, asks.ctypes.data, na, *args[4])
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


def _check_layout(sums: tuple, layout: tuple, name: str) -> None:
    if any(a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous
           for a, (dtype, shape) in zip(sums, layout)):
        raise ValueError(f"sums must be contiguous arrays laid out as {name} gives")


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
    _check_layout(sums, BinnedSums.layout(nbins), f"BinnedSums.layout({nbins})")
    if not (_below(nbins, beta_bin, alpha_bin, price_bin) and _below(nbins + 1, sums.pre + 1)):
        raise ValueError(f"binned bins outside 0..{nbins - 1}")
    fn(n, times.ctypes.data, t0, half, beta.ctypes.data, alpha.ctypes.data,
       beta_bin.ctypes.data, alpha_bin.ctypes.data, price_bin.ctypes.data,
       changed_bid.ctypes.data, sign.ctypes.data, nbins, TOP_MAX_OFFSET,
       *(a.ctypes.data for a in sums))


class FiveBinSums(NamedTuple):
    """What the five-bin region pass carries from chunk to chunk of a run;
    `five_bin` changes every array in place.  The sums are per cell 6 b + a
    of `_five_bin_cells`, the cell of the state before a change."""

    x: np.ndarray           # the signed middle-bin state before the next change
    visits: np.ndarray      # changes per cell
    dx_sum: np.ndarray      # their summed change of the state
    visits_hi: np.ndarray   # changes from states whose gauge exceeds K
    dgauge_sum: np.ndarray  # their summed change of the gauge
    dgauge_sq: np.ndarray   # and of its square

    @staticmethod
    def layout() -> tuple:
        i8, f8, cells = np.dtype(np.int64), np.dtype(float), (FIVE_BIN_CELLS,)
        return (i8, (3,)), (i8, cells), (f8, (*cells, 3)), (i8, cells), (f8, cells), (f8, cells)

    @classmethod
    def zeros(cls) -> "FiveBinSums":
        return cls(*(np.zeros(shape, dtype) for dtype, shape in cls.layout()))


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


def _five_bin_sums(sums: FiveBinSums, bins: np.ndarray, changed_bid: np.ndarray,
                   sign: np.ndarray, normals: np.ndarray, K: float) -> np.ndarray:
    """Fold one chunk of the five-bin book's changes into `sums`; return
    whether the gauge before each change exceeds K.

    The state is the signed order count of the middle bins 1..3, sums.x
    before the first change; change i moves bin bins[i], if a middle one, by
    sign[i] for a bid and -sign[i] for an ask (`EventLog`'s changed_bid and
    sign).  The gauge of a state is the largest product with a row of
    `normals` (m x 3).  The reference for `five_bin` in `_kernel.c` and the
    pass that runs without a compiler.
    """
    n, cells = bins.size, FIVE_BIN_CELLS
    mid = (1 <= bins) & (bins <= 3)
    x = np.zeros((n + 1, 3), dtype=np.int64)
    x[0] = sums.x
    x[1:][mid, bins[mid] - 1] = np.where(changed_bid, sign, -sign)[mid]
    np.cumsum(x, axis=0, out=x)
    cell = _five_bin_cells(x[:-1])
    x1, x2, x3 = x.T.astype(float)
    g = np.full(n + 1, -np.inf)
    for a, b, c in normals:
        np.maximum(g, a * x1 + b * x2 + c * x3, out=g)
    above = g[:-1] > K
    dg = np.diff(g)[above]
    sums.visits[:] += np.bincount(cell, minlength=cells)
    sums.visits_hi[:] += np.bincount(cell[above], minlength=cells)
    for k in range(3):
        sums.dx_sum[:, k] = _add_in_order(sums.dx_sum[:, k], (cell,), np.diff(x[:, k]))
    sums.dgauge_sum[:] = _add_in_order(sums.dgauge_sum, (cell[above],), dg)
    sums.dgauge_sq[:] = _add_in_order(sums.dgauge_sq, (cell[above],), dg * dg)
    sums.x[:] = x[-1]
    return above


def _five_bin_c(fn, sums: FiveBinSums, bins: np.ndarray, changed_bid: np.ndarray,
                sign: np.ndarray, normals: np.ndarray, K: float) -> np.ndarray:
    """`_five_bin_sums` through the compiled `five_bin` of `_kernel.c`."""
    bins, sign = np.ascontiguousarray(bins, np.int64), np.ascontiguousarray(sign, np.int8)
    changed_bid = np.ascontiguousarray(changed_bid, dtype=bool)
    normals = np.ascontiguousarray(normals, dtype=float)
    n = bins.size
    if not changed_bid.shape == sign.shape == bins.shape == (n,):
        raise ValueError("five-bin inputs differ in length")
    if normals.ndim != 2 or normals.shape[1] != 3:
        raise ValueError("five-bin normals must have shape (m, 3)")
    # the C pass indexes with these bins and writes through these arrays unchecked
    _check_layout(sums, FiveBinSums.layout(), "FiveBinSums.layout()")
    if not _below(5, bins):
        raise ValueError("five-bin bins outside 0..4")
    above = np.empty(n, dtype=bool)
    if fn(n, bins.ctypes.data, changed_bid.ctypes.data, sign.ctypes.data, normals.ctypes.data,
          len(normals), float(K), *(a.ctypes.data for a in sums), above.ctypes.data) >= 0:
        raise ValueError(f"inconsistent sign pattern {tuple(sums.x.tolist())}")
    return above


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
    run: Callable            # (state, rule, log) -> first opposite-best tie, or -1
    binned: Callable         # (sums, times, t0, half, beta, alpha, three bins, changes) -> None
    five_bin: Callable       # (sums, bins, changed_bid, sign, normals, K) -> above K
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
    # KERNEL ("c" or "python") names the loop match_chunks runs, loading it on first use.
    if name == "KERNEL":
        return _kernel().name
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
