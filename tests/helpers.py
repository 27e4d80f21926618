"""Functions that only the tests use: the whole-run event log of the
differential tests, the reflected arrival stream of the symmetry tests, the
gauge of the published level polytope and the exact certificate scan of
every kept level."""

from decimal import Decimal
from fractions import Fraction

import numpy as np

from lobphase.analytics import _check_equal_rates
from lobphase.book import EventLog, match_chunks
from lobphase.lyapunov import NORMALS
from lobphase.sim import Arrivals


def match_arrivals(state, rule, is_bid, prices) -> EventLog:
    """Apply a whole arrival sequence to `state` (mutated) under the rule, and
    return its log: `match_chunks` run as one chunk.

    Gives the same book and the same effects as one `apply_arrival` call per
    arrival, and rejects every input that loop rejects with the same
    `BookInvariantError`.
    """
    [(_, log)] = match_chunks(state, rule, is_bid, prices, max(1, np.size(prices)))
    return log


def reflected_arrivals(arr: Arrivals) -> Arrivals:
    """Mirror a stream through x -> 1 - x with sides swapped.

    For symmetric arrival laws the reflected stream drives the reflected
    trajectory exactly, which makes bid/ask statistics exchangeable.
    """
    return Arrivals(~arr.is_bid, 1.0 - arr.prices, arr.times.copy(), 1.0 - arr.p_b)


def polytope_gauge(x) -> Fraction:
    """max over the seven published normals of <x, v>: the Minkowski gauge of
    the published level polytope.  Positively homogeneous, and equal to 1
    exactly on the polytope boundary."""
    xv = tuple(Fraction(c) for c in x)
    return max(sum(a * b for a, b in zip(xv, v)) for v in NORMALS.values())


def finiteness_exact_scan(spec) -> float | None:
    """`analytics.finiteness_lower_bound` with every kept level compared in
    exact integer arithmetic, not only those near the float maximum: the
    reference the filtered scan must equal."""
    _check_equal_rates(spec)
    X = np.linspace(0.02, 0.49, 199)
    x = np.asarray(spec.bid_dist.quantile(X), dtype=float)
    y = np.asarray(spec.ask_dist.quantile(1.0 - X), dtype=float)
    Yb = np.asarray(spec.bid_dist.cdf(y), dtype=float)
    Fa_x = np.asarray(spec.ask_dist.cdf(x), dtype=float)
    keep = (x < y) & (np.abs(Yb - (1.0 - Fa_x)) <= 1e-6) & (X < Yb) & (Yb < 1.0)
    best = None
    for a, b in zip(X[keep].tolist(), Yb[keep].tolist()):
        p, q = Decimal(repr(a)).as_integer_ratio()
        r, s = Decimal(repr(b)).as_integer_ratio()
        num, den = 2 * p * (q - p) * s - (s - r) * q * q, q * ((q - 2 * p) * s + r * q)
        if best is None or num * best[1] > best[0] * den:
            best = num, den
    return None if best is None else float(Fraction(*best))
