"""Coupled-book experiments that check the pathwise monotonicity laws.

Every check runs two (or three) books on the *same* realized arrivals and
asserts an exact pathwise relation after every single arrival: these are
almost-sure statements, so one violation on any seed is a failure, not noise.
The relation depends only on the difference between the books, which
changes only at the arrivals where the books act differently; each check
evaluates it there and holds the verdict until the next such arrival.
The books run in lockstep, a chunk at a time (`sim._fold`): each check
compares the chunk's logs and carries its difference, and the verdict still
open at the chunk's end, to the next chunk, so it holds no whole-run array.
The laws hold for finite books: a starting book with a reservoir is rejected
with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# apply_arrival is not called here; perfbench/tracer.py wraps it by this name.
from .book import (ORDINARY_BINNED, STRICT_BINNED, BookState, EventLog, MatchRule, Order,
                   _differs, _kernel, apply_arrival)
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


def _no_reservoirs(book: BookState, check: str) -> None:
    """The coupling laws are stated for finite books: an arrival that one book
    matches against a finite order can hit a reservoir in the other, which
    removes nothing there; that breaks them."""
    if book.bid_reservoir is not None or book.ask_reservoir is not None:
        raise ValueError(f"{check} applies to books without reservoirs")


class _Verdicts:
    """A check's verdicts at its points, the arrivals where the books act
    differently.  Each holds up to the next point, perhaps in a later chunk:
    the last failure stays open until then, or until `judge([n])` at the end."""

    def __init__(self, report: CouplingReport):
        self.report, self.open = report, None

    def judge(self, at: np.ndarray, failures=()) -> None:
        """Verdicts at the sorted points `at`: (r, expected, observed) for each
        failing point at[r], in order, and a pass at every other."""
        if self.open and at.size:
            self.report.record(self.open[0], int(at[0]), *self.open[1:])
            self.open = None
        for r, expected, observed in failures:
            if r + 1 < at.size:
                self.report.record(int(at[r]), int(at[r + 1]), expected, observed)
            else:
                self.open = (int(at[r]), expected, observed)


class _Difference(_Verdicts):
    """The books' difference (tilde minus base) as signed order counts per
    price, moved at each point by both books' changes and then judged by
    `law`, which gives (expected, observed) for a failure.  `offset` is the
    index of the first arrival folded; `landed` makes that arrival a point,
    as an edit just landed before it."""

    offset, landed = 0, False

    def __init__(self, report: CouplingReport, law):
        super().__init__(report)
        self.law, self.bids, self.asks = law, {}, {}

    def bump(self, side: str, price: float, delta: int) -> None:
        d = self.bids if side == "bid" else self.asks
        d[price] = d.get(price, 0) + delta
        if not d[price]:
            del d[price]

    def size(self) -> int:
        return sum(map(abs, [*self.bids.values(), *self.asks.values()]))

    def fold(self, lo: int, tilde: EventLog, base: EventLog) -> None:
        tilde, base = ((log.changed_bid, log.price, log.sign) for log in (tilde, base))
        differs = _differs(tilde, base)
        differs[0] |= self.landed
        self.landed = False
        points, failures = np.flatnonzero(differs), []
        for r, i in enumerate(points.tolist()):
            for (is_bid, price, step), sign in ((tilde, +1), (base, -1)):
                if step[i]:
                    self.bump("bid" if is_bid[i] else "ask", float(price[i]), sign * int(step[i]))
            failure = self.law(self)
            if failure:
                failures.append((r, *failure))
        self.judge(self.offset + lo + points, failures)


def check_extra_order(base: BookState, extra: Order, arrivals: Arrivals,
                      rule: MatchRule, seed: int = 0) -> CouplingReport:
    """One extra resting order must stay a single-order difference forever.

    For an extra bid the difference is always exactly one extra bid or one
    missing ask (mirrored for an extra ask), and once the difference leaves
    the original price it never returns to an extra order at that price.
    """
    _no_reservoirs(base, "check_extra_order")
    left_original = False

    def law(diff: _Difference):
        nonlocal left_original
        own, other = (diff.bids, diff.asks) if extra.side == "bid" else (diff.asks, diff.bids)
        extra_at = next(iter(own)) if not other and list(own.values()) == [1] else None
        if extra_at is None and (own or list(other.values()) != [-1]):
            return "single extra/missing order", repr((tuple(sorted(diff.bids.items())),
                                                        tuple(sorted(diff.asks.items()))))
        if extra_at != extra.price:
            left_original = True
        elif left_original:
            return "never back to the original extra order", f"extra {extra.side} at {extra_at}"

    return _coupled(base, [Edit(0, "add", extra.side, extra.price)], arrivals, rule,
                    _Difference(CouplingReport("extra_order", seed, arrivals.n), law))


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
    return _coupled(base, edits, arrivals, rule, _Difference(
        CouplingReport("bounded_perturbation", seed, arrivals.n),
        lambda diff: diff.size() > M and (f"diff size <= {M}", f"size {diff.size()}")))


def _coupled(base: BookState, edits: list[Edit], arrivals: Arrivals, rule: MatchRule,
             check: _Difference) -> CouplingReport:
    """Fold `base` and a copy that `edits` change (the tilde book) into `check`, both
    in segments cut at the edits.  An edit lands on the tilde book just before
    arrival max(index, 0), and one at or after the last arrival never lands."""
    n = arrivals.n
    tilde = base.clone()
    books = [(tilde, rule), (base.clone(), rule)]
    pending = sorted(edits, key=lambda e: e.index)
    cuts = sorted({0, n} | {e.index for e in pending if 0 < e.index < n})
    for lo, hi in zip(cuts, cuts[1:]):
        for e in (e for e in pending if max(e.index, 0) == lo):
            check.landed = True
            if e.op == "add":
                tilde.insert(e.side, e.price)
                check.bump(e.side, e.price, +1)
            else:
                check.bump(e.side, tilde.pop_best(e.side), -1)
        check.offset = lo
        _fold(books, Arrivals(arrivals.is_bid[lo:hi], arrivals.prices[lo:hi],
                              arrivals.times[lo:hi], arrivals.p_b), [check])
    check.judge(np.array([n]))
    return check.report


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
    name = f"refinement_{'ordinary' if kind == ORDINARY_BINNED else 'strict'}"
    check = _Refinement(CouplingReport(name, seed, arrivals.n), fine,
                        1 if kind == ORDINARY_BINNED else -1)
    _fold([(initial.clone() if initial else BookState(), MatchRule(kind, part))
           for part in (fine, coarse)], arrivals, [check])
    check.judge(np.array([arrivals.n]))
    return check.report


class _Refinement(_Verdicts):
    """`counts` holds d = (coarse - fine) per fine bin: ordinary demands every
    prefix of d over bids (from the bottom) and over asks (from the top) to be
    <= 0, strict >= 0.  A point, where the books change different fine bins,
    moves d by both changes, weighted by `sign` so that a positive prefix is a
    violation (the kernel's `refinement`)."""

    def __init__(self, report: CouplingReport, fine: BinPartition, sign: int):
        super().__init__(report)
        self.fine, self.sign = fine, sign
        self.counts = np.zeros((2, fine.n_bins), dtype=np.int64)

    def fold(self, lo: int, fine: EventLog, coarse: EventLog) -> None:
        points, max_b, max_a = _kernel().refinement(
            self.fine, *((log.changed_bid, log.price, log.sign) for log in (fine, coarse)),
            self.sign, self.counts)
        self.judge(lo + points, [(r, "coarse/fine count domination",
                                  f"max prefix excess bid={int(max_b[r])} ask={int(max_a[r])}")
                                 for r in np.flatnonzero((max_b > 0) | (max_a > 0)).tolist()])


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
