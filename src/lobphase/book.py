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
both loops are tested against.  The same library carries three passes over
logs, each with a numpy pass as its reference and fallback: the binned
recorder of `sim.run_arrivals` (`_binned_sums`), the five-bin book's region
pass of `lyapunov.simulate_5bin` (`_five_bin_sums`) and the refinement
check's domination pass (`_refinement_maxima`).
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

from .dist import BinPartition

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
        self._bid_heap = sorted(-float(p) for p in bids)  # a sorted list is a heap
        self._ask_heap = sorted(float(p) for p in asks)
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
        """Add one resting order at a finite price, in O(log book)."""
        if not math.isfinite(price):
            raise BookInvariantError(f"non-finite price {price}")
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
    """What `match_arrivals` did: one entry per arrival, in arrival order."""

    is_bid: np.ndarray
    prices: np.ndarray
    outcome: np.ndarray      # uint8: JOINED, EXECUTED or RESERVOIR
    beta: np.ndarray         # best bid after the event (reservoir included)
    alpha: np.ndarray        # best ask after the event
    beta0: float             # best quotes before the first event
    alpha0: float
    met: np.ndarray          # opposite best quote each arrival met

    def changes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(is_bid, price, sign) of the resting order each event adds or removes.

        A join adds the arrival (sign +1); an execution removes the opposite
        best order (sign -1); a reservoir execution changes nothing (sign 0).
        """
        executed = self.outcome == EXECUTED
        sign = (self.outcome == JOINED).astype(np.int8) - executed
        return self.is_bid ^ executed, np.where(executed, self.met, self.prices), sign


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
    (bids, asks) on its first chunk and keeps them there for the call."""

    __slots__ = ("bids", "asks", "nb", "na", "rb", "ra", "lists")

    def __init__(self, state: BookState, n_bid: int, n_ask: int):
        self.nb, self.na = ctypes.c_long(state.n_bids), ctypes.c_long(state.n_asks)
        self.bids = np.empty(self.nb.value + n_bid)
        self.asks = np.empty(self.na.value + n_ask)
        self.bids[:self.nb.value], self.asks[:self.na.value] = state._bid_heap, state._ask_heap
        self.rb = NEG_INF if state.bid_reservoir is None else state.bid_reservoir
        self.ra = POS_INF if state.ask_reservoir is None else state.ask_reservoir
        self.lists = None

    def store(self, state: BookState) -> None:
        bids, asks = self.lists or (self.bids[:self.nb.value].tolist(),
                                    self.asks[:self.na.value].tolist())
        state._bid_heap[:], state._ask_heap[:] = bids, asks


def match_chunks(state: BookState, rule: MatchRule, is_bid, prices,
                 size: int) -> Iterator[tuple[int, EventLog]]:
    """Apply an arrival sequence to `state` `size` arrivals at a time; yield
    (index of the chunk's first arrival, the chunk's `EventLog`).

    The log's outcome, beta, alpha and met arrays are buffers that the next
    chunk overwrites, so a reader copies what it keeps.  `state` holds the
    new book once the last chunk is read, or once a chunk fails.  Arrival
    prices must be finite and the rule's ordering of the best quotes must
    hold in the starting book; both are checked up front, before any event.
    Prices may repeat.  After each chunk, no arrival may have sat at the
    opposite best quote, and the ordering must hold after every event; both
    errors name the arrival by its index in the whole sequence.  Zero
    arrivals give one empty chunk.
    """
    is_bid = np.ascontiguousarray(is_bid, dtype=bool)
    prices = np.ascontiguousarray(prices, dtype=float)
    if not np.isfinite(prices).all():
        i = int(np.argmin(np.isfinite(prices)))
        raise BookInvariantError(f"arrival {i} at non-finite price {prices[i]}")
    beta0, alpha0 = state.beta(), state.alpha()
    _check_order(beta0, alpha0, rule)
    n, n_bid = prices.size, int(np.count_nonzero(is_bid))
    m = min(size, n)
    outcome = np.empty(m, dtype=np.uint8)
    beta, alpha, met = np.empty(m), np.empty(m), np.empty(m)
    run = _kernel().run
    heaps = _Heaps(state, n_bid, n - n_bid)
    try:
        for lo in range(0, max(n, 1), size):
            bid, px = is_bid[lo:lo + size], prices[lo:lo + size]
            k = px.size
            log = EventLog(bid, px, outcome[:k], beta[:k], alpha[:k], beta0, alpha0, met[:k])
            if not k:
                yield lo, log
                break
            run(heaps, rule, bid, px, log.outcome, log.beta, log.alpha)
            # the opposite best quote each arrival met: the one before it
            log.met[0] = alpha0 if bid[0] else beta0
            np.copyto(log.met[1:], log.beta[:-1])
            np.copyto(log.met[1:], log.alpha[:-1], where=bid[1:])
            hit = px == log.met
            if hit.any():
                i = int(np.argmax(hit))
                raise BookInvariantError(f"arrival {lo + i} at {px[i]} collides "
                                         "with the opposite best quote")
            _check_order(log.beta, log.alpha, rule, first=lo)
            yield lo, log
            beta0, alpha0 = float(log.beta[-1]), float(log.alpha[-1])
    finally:
        heaps.store(state)


def _match_py(heaps: _Heaps, rule: MatchRule, is_bid: np.ndarray, prices: np.ndarray,
              outcome: np.ndarray, betas: np.ndarray, alphas: np.ndarray) -> None:
    """The arrival loop in Python: fills outcome, betas and alphas, and changes the heaps.

    The reference for `_kernel.c` and the loop that runs without a compiler.
    """
    if heaps.lists is None:
        heaps.lists = (heaps.bids[:heaps.nb.value].tolist(),
                       heaps.asks[:heaps.na.value].tolist())
    bids, asks = heaps.lists
    rb, ra = heaps.rb, heaps.ra
    beta = -bids[0] if bids and -bids[0] > rb else rb
    alpha = asks[0] if asks and asks[0] < ra else ra
    out, out_beta, out_alpha = bytearray(), array("d"), array("d")
    put, put_beta, put_alpha = out.append, out_beta.append, out_alpha.append
    push, pop = heapq.heappush, heapq.heappop
    # The bins of the best quotes (-1 for an empty side) ride along with
    # them.  A same-bin arrival executes under the ordinary binned rule and
    # never executes under the strict one; the ordinary rule is the ordinary
    # binned rule with each arrival in a bin of its own.
    strict = rule.kind == STRICT_BINNED
    if rule.kind == ORDINARY:
        cuts, bins = [], range(1, prices.size + 1)
    else:
        cuts = rule.partition.boundaries.tolist()
        bins = memoryview(rule.partition.index(prices))
    bbin = bisect_right(cuts, beta) if beta != NEG_INF else -1
    abin = bisect_right(cuts, alpha) if alpha != POS_INF else -1
    for bid, p, k in zip(memoryview(is_bid), memoryview(prices), bins):
        if bid:
            if (p > alpha and k != abin) if strict else (p > alpha or k == abin):
                if alpha == ra:
                    put(RESERVOIR)
                else:
                    pop(asks)
                    alpha = asks[0] if asks and asks[0] < ra else ra
                    abin = bisect_right(cuts, alpha) if alpha != POS_INF else -1
                    put(EXECUTED)
            else:
                push(bids, -p)
                if p > beta:
                    beta, bbin = p, k
                put(JOINED)
        elif (p < beta and k != bbin) if strict else (p < beta or k == bbin):
            if beta == rb:
                put(RESERVOIR)
            else:
                pop(bids)
                beta = -bids[0] if bids and -bids[0] > rb else rb
                bbin = bisect_right(cuts, beta) if beta != NEG_INF else -1
                put(EXECUTED)
        else:
            push(asks, p)
            if p < alpha:
                alpha, abin = p, k
            put(JOINED)
        put_beta(beta)
        put_alpha(alpha)
    outcome[:] = np.frombuffer(out, dtype=np.uint8)
    betas[:], alphas[:] = np.frombuffer(out_beta), np.frombuffer(out_alpha)


def _match_c(fn, heaps: _Heaps, rule: MatchRule, is_bid: np.ndarray, prices: np.ndarray,
             outcome: np.ndarray, beta: np.ndarray, alpha: np.ndarray) -> None:
    """`_match_py` through the compiled `match` of `_kernel.c`, on the heaps in place."""
    if rule.kind == ORDINARY:
        cuts, bins = np.empty(0), None
    else:
        cuts = np.ascontiguousarray(rule.partition.boundaries, dtype=float)
        bins = np.ascontiguousarray(rule.partition.index(prices), dtype=np.int64)
    fn(prices.size, is_bid.ctypes.data, prices.ctypes.data,
       None if bins is None else bins.ctypes.data, cuts.ctypes.data, cuts.size,
       rule.kind == STRICT_BINNED, heaps.rb, heaps.ra,
       heaps.bids.ctypes.data, ctypes.byref(heaps.nb), heaps.asks.ctypes.data,
       ctypes.byref(heaps.na), outcome.ctypes.data, beta.ctypes.data, alpha.ctypes.data)


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


class _Kernel(NamedTuple):
    name: str                # "c" or "python"
    run: Callable            # (heaps, rule, is_bid, prices, outcome, beta, alpha) -> None
    binned: Callable         # (sums, times, t0, half, beta, alpha, three bins, changes) -> None
    five_bin: Callable       # (bins, changed_bid, sign, normals, K) -> FiveBinSums
    refinement: Callable     # (is_bid, bins, steps, nbins) -> (max_b, max_a)
    library: Optional[Path]  # the compiled library, for the C kernel


_EXPORTS = ("match", "binned", "five_bin", "refinement")
_PYTHON_KERNEL = _Kernel("python", _match_py, _binned_sums, _five_bin_sums,
                         _refinement_maxima, None)


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
            lib = ctypes.CDLL(tmp)      # raises unless it loads and exports all four
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
        match, binned, five_bin, refinement = (getattr(lib, e) for e in _EXPORTS)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return _PYTHON_KERNEL
    p, n, d = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    match.argtypes = [n, p, p, p, p, n, ctypes.c_int, d, d, p, ctypes.POINTER(n), p,
                      ctypes.POINTER(n), p, p, p]
    binned.argtypes = [n, p, d, n, p, p, p, p, p, p, p, n, n, p, p, p, p, p, p]
    five_bin.argtypes = [n, p, p, p, p, n, d, p, p, p, p, p, p, p]
    refinement.argtypes = [n, p, p, p, n, p, p, p, p]
    match.restype = binned.restype = refinement.restype = None
    five_bin.restype = n
    return _Kernel("c", partial(_match_c, match), partial(_binned_c, binned),
                   partial(_five_bin_c, five_bin), partial(_refinement_c, refinement),
                   library)


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
