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
from .book import (CHUNK, ORDINARY_BINNED, STRICT_BINNED, BookState, MatchRule, Order,
                   apply_arrival, match_arrivals)
from .dist import (ArrivalSpec, BinPartition, make_partition, refines,
                   union_refinement)
from .sim import (ArrivalStream, Arrivals, KappaEstimate, estimate_kappa, materialize,
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
        """Event i of one book's `EventLog.changes()`; sign +1 perturbed, -1 base."""
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


def _changes(book: BookState, rule: MatchRule, arr: Arrivals, lo: int = 0,
             hi: int | None = None):
    """`EventLog.changes()` of arrivals lo..hi applied to `book` (mutated)."""
    return match_arrivals(book, rule, arr.is_bid[lo:hi], arr.prices[lo:hi]).changes()


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


def check_bounded_perturbation(base: BookState, edits: list[Edit], arrivals: Arrivals,
                               rule: MatchRule, M: int, seed: int = 0) -> CouplingReport:
    """At most M edited orders keep the books within M orders forever."""
    if len(edits) > M:
        raise ValueError(f"{len(edits)} edits exceed the stated bound M={M}")
    _no_reservoirs(base, "check_bounded_perturbation")
    n = arrivals.n
    report = CouplingReport("bounded_perturbation", seed, n)
    if n == 0:
        return report
    ch_base = _changes(base.clone(), rule, arrivals)
    # The tilde book runs in segments; an edit lands just before arrival
    # max(index, 0), and one at or after the last arrival never lands.
    tilde = base.clone()
    pending = sorted(edits, key=lambda e: e.index)
    cuts = sorted({0, n} | {e.index for e in pending if 0 < e.index < n})
    edit_bumps: dict[int, list] = {}
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        for e in (e for e in pending if max(e.index, 0) == lo):
            if e.op == "add":
                tilde.insert(e.side, e.price)
                edit_bumps.setdefault(lo, []).append((e.side, e.price, +1))
            elif e.op == "remove_best":
                edit_bumps.setdefault(lo, []).append((e.side, tilde.pop_best(e.side), -1))
            else:
                raise ValueError(f"unknown edit op {e.op!r}")
        pieces.append(_changes(tilde, rule, arrivals, lo, hi))
    ch_tilde = tuple(np.concatenate(parts) for parts in zip(*pieces))
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
    books = []
    for part in (fine, coarse):
        is_bid, price, step = _changes(initial.clone() if initial else BookState(),
                                       MatchRule(kind, part), arrivals)
        books.append((is_bid, fine.index(price), step))
    n_bins = fine.n_bins
    # d holds (coarse - fine) per fine bin; ordinary demands every prefix of
    # d over bids (from the bottom) and over asks (from the top) to be <= 0,
    # strict demands >= 0.  Only the arrivals where the books change
    # different fine bins move d; each block of them gets the prefix sums of
    # sign * d after every one.
    sign = 1 if kind == ORDINARY_BINNED else -1
    points = np.flatnonzero(_differs(*books))
    stops = np.append(points[1:], arrivals.n)
    name = f"refinement_{'ordinary' if kind == ORDINARY_BINNED else 'strict'}"
    report = CouplingReport(name, seed, arrivals.n)
    prefix_b = np.zeros(n_bins, dtype=np.int64)
    prefix_a = np.zeros(n_bins, dtype=np.int64)
    for lo in range(0, points.size, CHUNK):
        idx = points[lo:lo + CHUNK]
        rows = np.arange(idx.size)
        pb = np.zeros((idx.size, n_bins), dtype=np.int64)
        pa = np.zeros((idx.size, n_bins), dtype=np.int64)
        for (is_bid, bins, step), w in zip(books, (-sign, sign)):
            bid, k, v = is_bid[idx], bins[idx], w * step[idx]
            np.add.at(pb, (rows[bid], k[bid]), v[bid])
            np.add.at(pa, (rows[~bid], n_bins - 1 - k[~bid]), v[~bid])
        for p, carry in ((pb, prefix_b), (pa, prefix_a)):
            np.cumsum(p, axis=1, out=p)
            np.cumsum(p, axis=0, out=p)
            p += carry
        prefix_b, prefix_a = pb[-1].copy(), pa[-1].copy()
        max_b, max_a = pb.max(axis=1), pa.max(axis=1)
        for r in np.flatnonzero((max_b > 0) | (max_a > 0)):
            report.record(int(idx[r]), int(stops[lo + r]), "coarse/fine count domination",
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
