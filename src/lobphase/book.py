"""Order-book state machine for ordinary, ordinary-binned, and strict-binned matching.

Resting orders are price heaps (all prices pairwise distinct on the events we
simulate), optionally backed by reservoirs: an infinite supply of bids or asks
at a fixed price.  Executing against a reservoir never depletes it, and
reservoir orders never enter the finite counters.

`match_arrivals` is the event loop: it applies a whole arrival sequence and
returns an `EventLog` that every driver and recorder reads.  `apply_arrival`
applies one order at a time; it is the readable reference the loop is tested
against.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    """A book invariant failed; indicates a bug or degenerate (duplicate-price) input."""


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
        _check_prices(np.concatenate((np.negative(self._bid_heap), self._ask_heap)))

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
        """Add one resting order; the price check costs O(book), so use it for edits."""
        _check_prices(np.concatenate(([price], np.negative(self._bid_heap), self._ask_heap)))
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
    binned), and otherwise joins its own side.
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


def _check_prices(prices: np.ndarray) -> None:
    """Prices must be finite and pairwise distinct (one sorted pass)."""
    if not np.isfinite(prices).all():
        raise BookInvariantError("non-finite price")
    every = np.sort(prices)
    repeated = every[1:][every[1:] == every[:-1]]
    if repeated.size:
        raise BookInvariantError(f"duplicate price {repeated[0]}")


def _check_order(beta, alpha, rule: MatchRule) -> None:
    """The rule's ordering of best quotes (scalars, or arrays over events)."""
    b, a = np.atleast_1d(beta), np.atleast_1d(alpha)
    if rule.kind == STRICT_BINNED:
        # The strict rule lets prices cross inside one bin, so the ordering
        # holds at bin granularity only.
        part = rule.partition
        bad = (b != NEG_INF) & (a != POS_INF) & (part.index(b) > part.index(a))
    else:
        bad = ~(b < a)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise BookInvariantError(f"best quotes out of order: beta={b[i]}, alpha={a[i]}"
                                 + (f" after arrival {i}" if b.size > 1 else ""))


class EventLog(NamedTuple):
    """What `match_arrivals` did: one entry per arrival, in arrival order."""

    is_bid: np.ndarray
    prices: np.ndarray
    outcome: np.ndarray      # uint8: JOINED, EXECUTED or RESERVOIR
    beta: np.ndarray         # best bid after the event (reservoir included)
    alpha: np.ndarray        # best ask after the event
    beta0: float             # best quotes before the first event
    alpha0: float

    def met(self) -> np.ndarray:
        """The opposite best quote each arrival met: its counterparty if it executed."""
        return np.where(self.is_bid, np.concatenate(([self.alpha0], self.alpha))[:-1],
                        np.concatenate(([self.beta0], self.beta))[:-1])

    def changes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(is_bid, price, sign) of the resting order each event adds or removes.

        A join adds the arrival (sign +1); an execution removes the opposite
        best order (sign -1); a reservoir execution changes nothing (sign 0).
        """
        executed = self.outcome == EXECUTED
        sign = (self.outcome == JOINED).astype(np.int8) - executed
        return self.is_bid ^ executed, np.where(executed, self.met(), self.prices), sign


def match_arrivals(state: BookState, rule: MatchRule, is_bid, prices) -> EventLog:
    """Apply a whole arrival sequence to `state` (mutated) under the rule.

    Gives the same book and the same effects as one `apply_arrival` call per
    arrival, and rejects every input that loop rejects with the same
    `BookInvariantError`: prices must be finite and pairwise distinct across
    the arrivals and the resting book (checked up front, so a repeated price
    fails even where the per-event loop would never meet it), an arrival may
    not sit at the opposite best quote, and the rule's ordering of the best
    quotes must hold after every event (both checked on the log).
    """
    is_bid = np.ascontiguousarray(is_bid, dtype=bool)
    prices = np.ascontiguousarray(prices, dtype=float)
    _check_prices(np.concatenate((prices, np.negative(state._bid_heap), state._ask_heap)))
    bids, asks = state._bid_heap, state._ask_heap
    rb = NEG_INF if state.bid_reservoir is None else state.bid_reservoir
    ra = POS_INF if state.ask_reservoir is None else state.ask_reservoir
    beta0 = beta = state.beta()
    alpha0 = alpha = state.alpha()
    outcome, betas, alphas = bytearray(), array("d"), array("d")
    put, put_beta, put_alpha = outcome.append, betas.append, alphas.append
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
    log = EventLog(is_bid, prices, np.frombuffer(outcome, dtype=np.uint8),
                   np.frombuffer(betas), np.frombuffer(alphas), beta0, alpha0)
    hit = np.flatnonzero(log.prices == log.met())
    if hit.size:
        raise BookInvariantError(f"arrival {hit[0]} at {log.prices[hit[0]]} collides "
                                 "with the opposite best quote")
    _check_order(log.beta, log.alpha, rule)
    return log
