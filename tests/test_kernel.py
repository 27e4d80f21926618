"""Differential tests: the event loop `match_arrivals` against `apply_arrival`.

The loop must leave the same book and log the same effect for every arrival
as a step-by-step replay through the reference, under all three rules, with
and without reservoirs, from non-empty books and with prices on bin edges.
Every input the replay rejects, the loop rejects too.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobphase.book import (EXECUTED, JOINED, ORDINARY, ORDINARY_BINNED, RESERVOIR,
                           STRICT_BINNED, BookInvariantError, BookState, MatchRule,
                           Order, apply_arrival, match_arrivals)
from lobphase.dist import BinPartition

TENTH_BINS = BinPartition((0.0, 1.0), np.round(np.arange(0.1, 0.95, 0.1), 10))
EDGES = TENTH_BINS.boundaries.tolist()
RULES = {kind: MatchRule(kind, None if kind == ORDINARY else TENTH_BINS)
         for kind in (ORDINARY, ORDINARY_BINNED, STRICT_BINNED)}

prices = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0))


def replay(state, rule, is_bid, px):
    """Reference log: (outcome code, beta, alpha, changed side, changed price, sign)."""
    rows = []
    for i, (bid, p) in enumerate(zip(is_bid, px)):
        side = "bid" if bid else "ask"
        eff = apply_arrival(state, rule, Order(side, float(p), i))
        if eff.outcome == "joined":
            rows.append((JOINED, eff.new_beta, eff.new_alpha, bid, float(p), 1))
        elif eff.counterparty_is_reservoir:
            rows.append((RESERVOIR, eff.new_beta, eff.new_alpha, bid, float(p), 0))
        else:
            rows.append((EXECUTED, eff.new_beta, eff.new_alpha, not bid,
                         eff.counterparty_price, -1))
    return rows


def kernel_rows(log):
    changed_bid, price, sign = log.changes()
    return list(zip(log.outcome.tolist(), log.beta.tolist(), log.alpha.tolist(),
                    changed_bid.tolist(), price.tolist(), sign.tolist()))


def outcome_of(fn):
    try:
        return fn(), None
    except BookInvariantError as exc:
        return None, exc


def assert_same(rule, book, is_bid, px):
    """Replay and loop agree: same rows and book, or both raise BookInvariantError."""
    ref_state, loop_state = book.clone(), book.clone()
    rows, ref_err = outcome_of(lambda: replay(ref_state, rule, is_bid, px))
    log, loop_err = outcome_of(lambda: match_arrivals(loop_state, rule, is_bid, px))
    if ref_err is not None:
        assert loop_err is not None, f"replay raised {ref_err!r}, the loop did not"
        return False
    assert loop_err is None, f"the loop raised {loop_err!r} on input the replay accepts"
    assert kernel_rows(log) == rows
    assert (loop_state.bids(), loop_state.asks()) == (ref_state.bids(), ref_state.asks())
    return True


@st.composite
def scenarios(draw):
    pool = draw(st.lists(prices, min_size=0, max_size=80, unique=True))
    n_bids = draw(st.integers(0, min(4, len(pool))))
    n_asks = draw(st.integers(0, min(4, len(pool) - n_bids)))
    book_bids, book_asks = pool[:n_bids], pool[n_bids:n_bids + n_asks]
    arrivals = pool[n_bids + n_asks:]
    is_bid = draw(st.lists(st.booleans(), min_size=len(arrivals), max_size=len(arrivals)))
    reservoirs = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(EDGES), min_size=2, max_size=2, unique=True).map(sorted)))
    rb, ra = reservoirs if reservoirs else (None, None)
    book = BookState(bids=book_bids, asks=book_asks, bid_reservoir=rb, ask_reservoir=ra)
    kind = draw(st.sampled_from(sorted(RULES)))
    return RULES[kind], book, np.array(is_bid, dtype=bool), np.array(arrivals, dtype=float)


@given(scenarios())
@settings(max_examples=400, deadline=None)
def test_loop_matches_reference_replay(scenario):
    assert_same(*scenario)


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("reservoirs", [(None, None), (0.33, 0.71)])
def test_long_random_runs_match(kind, reservoirs):
    rng = np.random.default_rng(7)
    book = BookState(bids=[0.25, 0.15], asks=[0.85, 0.65], bid_reservoir=reservoirs[0],
                     ask_reservoir=reservoirs[1])
    px = np.concatenate((EDGES, rng.random(3000)))
    rng.shuffle(px)
    assert assert_same(RULES[kind], book, rng.random(px.size) < 0.5, px)


@pytest.mark.parametrize("kind", sorted(RULES))
def test_emptied_side_leaves_no_bin_behind(kind):
    # Each side empties by an execution in bin 5; the next arrival in bin 5
    # must find an empty side, not a same-bin quote.
    assert assert_same(RULES[kind], BookState(asks=[0.55]),
                       np.array([True, True, False, False, True]),
                       np.array([0.58, 0.56, 0.52, 0.53, 0.51]))


def test_segments_continue_the_book():
    rng = np.random.default_rng(3)
    px, is_bid = rng.random(2000), rng.random(2000) < 0.5
    whole, parts = BookState(bid_reservoir=0.2), BookState(bid_reservoir=0.2)
    log = match_arrivals(whole, RULES[ORDINARY_BINNED], is_bid, px)
    logs = [match_arrivals(parts, RULES[ORDINARY_BINNED], is_bid[lo:lo + 500],
                           px[lo:lo + 500]) for lo in range(0, 2000, 500)]
    assert np.array_equal(log.outcome, np.concatenate([g.outcome for g in logs]))
    assert np.array_equal(log.beta, np.concatenate([g.beta for g in logs]))
    assert (whole.bids(), whole.asks()) == (parts.bids(), parts.asks())


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("book, is_bid, px", [
    # a bid at the best ask
    (BookState(asks=[0.55]), [True], [0.55]),
    # an ask at the bid reservoir
    (BookState(bid_reservoir=0.35, ask_reservoir=0.75), [False, False], [0.62, 0.35]),
    # a bid joining at the price of a resting bid below the best
    (BookState(bids=[0.12, 0.33], asks=[0.91]), [True, True], [0.05, 0.12]),
    # a non-finite bid that would join
    (BookState(asks=[0.51]), [True], [math.nan]),
    # crossed initial book that the first arrival leaves crossed
    (BookState(bids=[0.61], asks=[0.52, 0.58]), [True], [0.015]),
])
def test_both_paths_reject(kind, book, is_bid, px):
    assert not assert_same(RULES[kind], book, np.array(is_bid), np.array(px, dtype=float))


@pytest.mark.parametrize("px", [[0.3, 0.6, 0.3], [0.3, np.inf], [0.4, 0.2]])
def test_repeated_or_non_finite_prices_rejected_up_front(px):
    # Stricter than the replay: a repeated price fails even if the first one
    # executed (and an infinite bid even if it would execute), since the
    # loop checks the whole sequence and the resting book before matching.
    with pytest.raises(BookInvariantError):
        match_arrivals(BookState(bids=[0.2]), RULES[ORDINARY],
                       np.array([True] * len(px)), np.array(px))


def test_empty_sequence():
    log = match_arrivals(BookState(bids=[0.4]), RULES[STRICT_BINNED],
                         np.zeros(0, dtype=bool), np.zeros(0))
    assert log.outcome.size == log.beta.size == 0
    assert log.beta0 == 0.4 and log.alpha0 == math.inf
    assert all(a.size == 0 for a in log.changes())
