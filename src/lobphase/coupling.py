"""Coupled-book experiments that check the pathwise monotonicity laws.

Every check runs two (or three) books on the *same* realized arrivals and
asserts an exact pathwise relation after every single arrival: these are
almost-sure statements, so one violation on any seed is a failure, not noise.
The relation depends only on the difference between the books, which
changes only at the arrivals where the books act differently; each check
evaluates it there and holds the verdict until the next such arrival.
The laws hold for finite books: a starting book with a reservoir is rejected
with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# apply_arrival is not called here; perfbench/tracer.py wraps it by this name.
from .book import (ORDINARY_BINNED, STRICT_BINNED, BookState, EventLog, MatchRule, Order,
                   _kernel, apply_arrival)
from .dist import (ArrivalSpec, BinPartition, make_partition, refines,
                   union_refinement)
from .sim import (ArrivalStream, Arrivals, KappaEstimate, _fold, estimate_kappa, materialize,
                  run_arrivals)

__all__ = [
    "CouplingReport",
    "Edit",
    "check_extra_order",
    "check_bounded_perturbation",
    "check_refinement",
    "estimate_sandwich",
    "SandwichEstimates",
    "report_rows",
]

MAX_DETAILS = 20


@dataclass
class CouplingReport:
    name: str
    seed: int
    n_events: int
    violations: int = 0
    first_violation_index: Optional[int] = None
    details: list = field(default_factory=list)

    def record(self, start: int, stop: int, expected: str, observed: str) -> None:
        """One violation at each arrival index in [start, stop)."""
        if self.first_violation_index is None:
            self.first_violation_index = start
        self.violations += stop - start
        last = min(stop, start + MAX_DETAILS - len(self.details))
        self.details.extend((i, expected, observed) for i in range(start, last))

    @property
    def passed(self) -> bool:
        return self.violations == 0


def report_rows(reports) -> list[tuple]:
    """(check, seed, arrivals, violations, first_violation_index) rows for CSV."""
    return [(r.name, r.seed, r.n_events, r.violations,
             "" if r.first_violation_index is None else r.first_violation_index)
            for r in reports]


class _Diff:
    """Signed multiset difference (perturbed minus base), kept incrementally."""

    __slots__ = ("bids", "asks")

    def __init__(self):
        self.bids: dict[float, int] = {}
        self.asks: dict[float, int] = {}

    def bump(self, side: str, price: float, delta: int) -> None:
        d = self.bids if side == "bid" else self.asks
        new = d.get(price, 0) + delta
        if new:
            d[price] = new
        else:
            d.pop(price, None)

    def apply(self, changes, i: int, sign: int) -> None:
        """Event i of one book's `_changes`; sign +1 perturbed, -1 base."""
        is_bid, price, step = changes
        if step[i]:
            self.bump("bid" if is_bid[i] else "ask", float(price[i]), sign * int(step[i]))

    def size(self) -> int:
        return sum(map(abs, [*self.bids.values(), *self.asks.values()]))

    def as_tuple(self):
        return (tuple(sorted(self.bids.items())), tuple(sorted(self.asks.items())))


def _classify_single(diff: _Diff, extra_side: str):
    """For the one-extra-order coupling: 'extra' / 'missing' / None (invalid)."""
    own, other = (diff.bids, diff.asks) if extra_side == "bid" else (diff.asks, diff.bids)
    if not other and list(own.values()) == [1]:
        return "extra", next(iter(own))
    if not own and list(other.values()) == [-1]:
        return "missing", next(iter(other))
    return None, None


class _Changes(tuple):
    """A run's arrays (changed_bid, price, sign), into which `fold` copies each
    chunk's; given a partition `bins` (`_changes` sets it), the middle one
    holds each changed price's bin in it instead of the price."""

    def fold(self, lo: int, log: EventLog) -> None:
        key = log.price if self.bins is None else self.bins.index(log.price)
        for run, chunk in zip(self, (log.changed_bid, key, log.sign)):
            run[lo:lo + chunk.size] = chunk


def _changes(book: BookState, rule: MatchRule, arr: Arrivals, out: tuple | None = None,
             bins: Optional[BinPartition] = None):
    """The `EventLog` fields (changed_bid, price, sign) of each arrival of `arr`
    applied to `book` (mutated), folded into the arrays `out`, or new ones;
    with `bins`, each price's bin in that partition (int32) in its place."""
    key = float if bins is None else np.int32
    out = _Changes(out or (np.empty(arr.n, dtype) for dtype in (bool, key, np.int8)))
    out.bins = bins
    _fold(book, rule, arr, [out])
    return out


def _no_reservoirs(book: BookState, check: str) -> None:
    """The coupling laws are stated for finite books; reservoirs break them.

    An arrival that one book matches against a finite order can hit a
    reservoir in the other, which removes nothing there, so the difference
    between the books can vanish or grow in ways the laws rule out.
    """
    if book.bid_reservoir is not None or book.ask_reservoir is not None:
        raise ValueError(f"{check} applies to books without reservoirs")


def _differs(a, b) -> np.ndarray:
    """Events at which two books add or remove different resting orders."""
    (side_a, key_a, sign_a), (side_b, key_b, sign_b) = a, b
    return (sign_a != sign_b) | ((sign_a != 0) & ((side_a != side_b) | (key_a != key_b)))


def _runs(points: np.ndarray, n: int):
    """(point, next point or n) pairs: the stretch over which a verdict holds."""
    return zip(points.tolist(), np.append(points[1:], n).tolist())


def check_extra_order(base: BookState, extra: Order, arrivals: Arrivals,
                      rule: MatchRule, seed: int = 0) -> CouplingReport:
    """One extra resting order must stay a single-order difference forever.

    For an extra bid the difference is always exactly one extra bid or one
    missing ask (mirrored for an extra ask), and once the difference leaves
    the original price it never returns to an extra order at that price.
    """
    _no_reservoirs(base, "check_extra_order")
    Edit(0, "add", extra.side, extra.price)     # refuses a bad side or price
    tilde = base.clone()
    tilde.insert(extra.side, extra.price)
    ch_base = _changes(base.clone(), rule, arrivals)
    ch_tilde = _changes(tilde, rule, arrivals)
    diff = _Diff()
    diff.bump(extra.side, extra.price, +1)
    report = CouplingReport("extra_order", seed, arrivals.n)
    left_original = False
    for i, stop in _runs(np.flatnonzero(_differs(ch_tilde, ch_base)), arrivals.n):
        diff.apply(ch_tilde, i, +1)
        diff.apply(ch_base, i, -1)
        kind, price = _classify_single(diff, extra.side)
        if kind is None:
            report.record(i, stop, "single extra/missing order", repr(diff.as_tuple()))
            continue
        if kind != "extra" or price != extra.price:
            left_original = True
        elif left_original:
            report.record(i, stop, "never back to the original extra order",
                          f"extra {extra.side} at {price}")
    return report


@dataclass(frozen=True)
class Edit:
    """One perturbation applied to the tilde book just before arrival `index`."""

    index: int
    op: str           # "add" | "remove_best"
    side: str         # "bid" | "ask"
    price: float | None = None

    def __post_init__(self):
        if self.op not in ("add", "remove_best") or self.side not in ("bid", "ask"):
            raise ValueError(f"an edit is 'add' or 'remove_best' on 'bid' or 'ask': {self}")
        if self.op == "add" and (self.price is None or not np.isfinite(self.price)):
            raise ValueError(f"an added order needs a finite price: {self}")


def check_bounded_perturbation(base: BookState, edits: list[Edit], arrivals: Arrivals,
                               rule: MatchRule, M: int, seed: int = 0) -> CouplingReport:
    """At most M edited orders keep the books within M orders forever."""
    if len(edits) > M:
        raise ValueError(f"{len(edits)} edits exceed the stated bound M={M}")
    _no_reservoirs(base, "check_bounded_perturbation")
    n = arrivals.n
    report = CouplingReport("bounded_perturbation", seed, n)
    ch_base = _changes(base.clone(), rule, arrivals)
    # The tilde book runs in segments; an edit lands just before arrival
    # max(index, 0), and one at or after the last arrival never lands.
    tilde = base.clone()
    pending = sorted(edits, key=lambda e: e.index)
    cuts = sorted({0, n} | {e.index for e in pending if 0 < e.index < n})
    edit_bumps: dict[int, list] = {}
    ch_tilde = tuple(np.empty_like(a) for a in ch_base)
    for lo, hi in zip(cuts, cuts[1:]):
        for e in (e for e in pending if max(e.index, 0) == lo):
            if e.op == "add":
                tilde.insert(e.side, e.price)
                edit_bumps.setdefault(lo, []).append((e.side, e.price, +1))
            else:
                edit_bumps.setdefault(lo, []).append((e.side, tilde.pop_best(e.side), -1))
        segment = Arrivals(arrivals.is_bid[lo:hi], arrivals.prices[lo:hi],
                           arrivals.times[lo:hi], arrivals.p_b)
        _changes(tilde, rule, segment, tuple(a[lo:hi] for a in ch_tilde))
    points = np.union1d(np.flatnonzero(_differs(ch_tilde, ch_base)),
                        np.fromiter(edit_bumps, dtype=np.intp))
    diff = _Diff()
    for i, stop in _runs(points, n):
        for side, price, delta in edit_bumps.get(i, ()):
            diff.bump(side, price, delta)
        diff.apply(ch_tilde, i, +1)
        diff.apply(ch_base, i, -1)
        if diff.size() > M:
            report.record(i, stop, f"diff size <= {M}", f"size {diff.size()}")
    return report


def check_refinement(fine: BinPartition, coarse: BinPartition, kind: str, arrivals: Arrivals,
                     seed: int = 0, initial: BookState | None = None) -> CouplingReport:
    """Count-domination between a finer and a coarser binned book.

    With the ordinary binned rule the coarser book holds pointwise fewer
    orders (bigger bins execute more); with the strict rule the inequalities
    reverse.  Checked at every fine-partition boundary (plus the totals)
    after every arrival.
    """
    if kind not in (ORDINARY_BINNED, STRICT_BINNED):
        raise ValueError("refinement check applies to binned rules")
    if not refines(fine, coarse):
        raise ValueError("`fine` does not refine `coarse`")
    if initial is not None:
        _no_reservoirs(initial, "check_refinement")
    books = [_changes(initial.clone() if initial else BookState(), MatchRule(kind, part),
                      arrivals, bins=fine) for part in (fine, coarse)]
    # d holds (coarse - fine) per fine bin; ordinary demands every prefix of
    # d over bids (from the bottom) and over asks (from the top) to be <= 0,
    # strict demands >= 0.  Only the points where the books change different
    # fine bins move d; each moves it by both books' changes, weighted so that
    # a positive prefix of sign * d is a violation.
    sign = 1 if kind == ORDINARY_BINNED else -1
    points = np.flatnonzero(_differs(*books))
    is_bid, bins, steps = (np.column_stack((f[points], c[points])) for f, c in zip(*books))
    del books   # the books' whole-run arrays go before the pass makes its own
    max_b, max_a = _kernel().refinement(is_bid, bins, steps * np.array([-sign, sign]),
                                        fine.n_bins)
    stops = np.append(points[1:], arrivals.n)
    name = f"refinement_{'ordinary' if kind == ORDINARY_BINNED else 'strict'}"
    report = CouplingReport(name, seed, arrivals.n)
    for r in np.flatnonzero((max_b > 0) | (max_a > 0)):
        report.record(int(points[r]), int(stops[r]), "coarse/fine count domination",
                      f"max prefix excess bid={int(max_b[r])} ask={int(max_a[r])}")
    return report


@dataclass(frozen=True)
class SandwichEstimates:
    kappa_strict: KappaEstimate
    kappa_fine: KappaEstimate
    kappa_coarse: KappaEstimate
    n_bins_fine: int
    n_bins_coarse: int


def estimate_sandwich(n_bins: int, spec: ArrivalSpec, n_events: int,
                      seed: int = 0) -> SandwichEstimates:
    """Strict(N) / ordinary(N) / ordinary(N/2) threshold estimates on shared arrivals.

    The strict book bounds the ordinary continuum threshold from above and the
    coarser ordinary book from below; the strict/ordinary gap shrinks as the
    partition refines.
    """
    if n_bins < 4:
        raise ValueError("need at least 4 bins")
    coarse = make_partition(max(2, n_bins // 2), spec)
    fine = union_refinement(make_partition(n_bins, spec), coarse)
    arr = materialize(ArrivalStream(seed, n_events, spec))
    record_every = max(1, n_events // 100)
    traces = {}
    for label, rule in (("strict", MatchRule(STRICT_BINNED, fine)),
                        ("fine", MatchRule(ORDINARY_BINNED, fine)),
                        ("coarse", MatchRule(ORDINARY_BINNED, coarse))):
        traces[label] = run_arrivals(rule, BookState(), arr, record_every, seed=seed)
    return SandwichEstimates(
        kappa_strict=estimate_kappa(traces["strict"], spec),
        kappa_fine=estimate_kappa(traces["fine"], spec),
        kappa_coarse=estimate_kappa(traces["coarse"], spec),
        n_bins_fine=fine.n_bins, n_bins_coarse=coarse.n_bins)
