"""Functions that only the tests use: the whole-run event log of the
differential tests, the reflected arrival stream of the symmetry tests and
the gauge of the published level polytope."""

from fractions import Fraction

import numpy as np

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
