"""Differential tests: the event loop `match_chunks`, run as one chunk
(`helpers.match_arrivals`), against `apply_arrival`, and its compiled kernel
against the Python loop, the numpy top-shape and refinement passes and the
numpy arrival draw.

The loop must leave the same book and log the same effect for every arrival
as a step-by-step replay through the reference, under all three rules, with
and without reservoirs, from non-empty books and with prices on bin edges.
Every input the replay rejects, the loop rejects too.  The C kernel must give
the Python loop's arrays bit for bit and the same book, each side stored as a
valid heap, and raise the same error on the same input; its binned-recorder and
refinement passes must give the bytes and dtypes of the numpy `_binned_sums`
and `_refinement_maxima` (the five-bin pass is tested in test_lyapunov.py), its
arrival draw the bytes of the numpy `_draw_py` on random laws of every
built-in kind, and its Philox uniforms the bytes of numpy's generator.  Every
export must be loaded with the signature of its C prototype.
"""

import copy
import ctypes
import dataclasses
import math
import re
import subprocess
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lobphase import book as book_module
from lobphase import coupling
from lobphase import sim
from lobphase.book import (EXECUTED, JOINED, ORDINARY, ORDINARY_BINNED, RESERVOIR,
                           STRICT_BINNED, BookInvariantError, BookState, MatchRule,
                           Order, apply_arrival)
from lobphase.dist import (ArrivalSpec, BinPartition, make_partition, piecewise_linear_dist,
                           uniform_dist)

from helpers import match_arrivals, reflected_arrivals

TENTH_BINS = BinPartition((0.0, 1.0), np.round(np.arange(0.1, 0.95, 0.1), 10))
EDGES = TENTH_BINS.boundaries.tolist()
RULES = {kind: MatchRule(kind, None if kind == ORDINARY else TENTH_BINS)
         for kind in (ORDINARY, ORDINARY_BINNED, STRICT_BINNED)}

prices = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0))


def replay(state, rule, is_bid, px):
    """Reference log: (outcome code, beta, alpha, changed side, changed price, sign,
    resting bids, resting asks).

    The book must start in the rule's order of the best quotes.
    """
    book_module._check_order(state.beta(), state.alpha(), rule)
    rows = []
    for i, (bid, p) in enumerate(zip(is_bid, px)):
        side = "bid" if bid else "ask"
        eff = apply_arrival(state, rule, Order(side, float(p), i))
        if eff.outcome == "joined":
            code, changed_bid, price, sign = JOINED, bid, float(p), 1
        elif eff.counterparty_is_reservoir:
            code, changed_bid, price, sign = RESERVOIR, bid, float(p), 0
        else:
            code, changed_bid, price, sign = EXECUTED, not bid, eff.counterparty_price, -1
        rows.append((code, eff.new_beta, eff.new_alpha, changed_bid, price, sign,
                     state.n_bids, state.n_asks))
    return rows


# The arrays the loop writes, as the columns of replay's rows
LOG_FIELDS = ("outcome", "beta", "alpha", "changed_bid", "price", "sign", "n_bids", "n_asks")


def kernel_rows(log):
    return list(zip(*(getattr(log, name).tolist() for name in LOG_FIELDS)))


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
    # Prices may repeat: a resting price, an executed one, a quote of the
    # other side deeper than its best, or a reservoir's.
    pool = draw(st.lists(prices, min_size=0, max_size=80))
    n_bids = draw(st.integers(0, min(4, len(pool))))
    n_asks = draw(st.integers(0, min(4, len(pool) - n_bids)))
    resting = sorted(pool[:n_bids + n_asks])
    arrivals = pool[n_bids + n_asks:]
    is_bid = draw(st.lists(st.booleans(), min_size=len(arrivals), max_size=len(arrivals)))
    reservoirs = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(EDGES), min_size=2, max_size=2, unique=True).map(sorted)))
    rb, ra = reservoirs if reservoirs else (None, None)
    # The book starts in order: its bids lie below its asks and the ask
    # reservoir, and its asks above its bids and the bid reservoir.  Crossed
    # books are in REJECTED.
    bids = [p for p in resting[:n_bids] if ra is None or p < ra]
    book = BookState(bids=bids,
                     asks=[p for p in resting[n_bids:] if (rb is None or p > rb)
                           and not (bids and p == bids[-1])],
                     bid_reservoir=rb, ask_reservoir=ra)
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


REJECTED = [
    # a bid at the best ask
    (BookState(asks=[0.55]), [True], [0.55]),
    # an ask at the bid reservoir
    (BookState(bid_reservoir=0.35, ask_reservoir=0.75), [False, False], [0.62, 0.35]),
    # an ask at a resting bid's price, once an execution makes that bid the best
    (BookState(bids=[0.2, 0.3], asks=[0.9]), [False, False], [0.25, 0.2]),
    # a non-finite bid that would join
    (BookState(asks=[0.51]), [True], [math.nan]),
    # crossed initial book that the first arrival leaves crossed
    (BookState(bids=[0.61], asks=[0.52, 0.58]), [True], [0.015]),
    # crossed initial book and no arrival
    (BookState(bids=[0.6], asks=[0.4]), [], []),
    # crossed initial book that the first arrival uncrosses
    (BookState(bids=[0.6], asks=[0.4]), [True], [0.5]),
]


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("book, is_bid, px", REJECTED)
def test_both_paths_reject(kind, book, is_bid, px):
    assert not assert_same(RULES[kind], book, np.array(is_bid), np.array(px, dtype=float))


# Repeated prices that never meet the opposite best quote at their own price
REPEATED = [
    # a bid joining at the price of a resting bid below the best
    (BookState(bids=[0.12, 0.33], asks=[0.91]), [True, True], [0.05, 0.12]),
    # a bid repeating an earlier arrival
    (BookState(bids=[0.2]), [True, True, True], [0.3, 0.6, 0.3]),
    # an ask at the price of an ask that a bid executed
    (BookState(bids=[0.2], asks=[0.55]), [True, False], [0.6, 0.55]),
    # a bid at the price of an ask deeper than the best (strict: joins in its bin)
    (BookState(asks=[0.53, 0.57]), [True], [0.57]),
    # a bid at its own reservoir, which an ask then meets first
    (BookState(bid_reservoir=0.35, ask_reservoir=0.75), [True, False], [0.35, 0.2]),
]


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("book, is_bid, px", REPEATED)
def test_both_paths_accept_repeated_prices(kind, book, is_bid, px):
    assert assert_same(RULES[kind], book, np.array(is_bid), np.array(px, dtype=float))


@pytest.mark.parametrize("px", [[0.3, np.inf], [0.3, np.nan], [0.3, -np.inf]])
def test_non_finite_prices_rejected_up_front(px):
    # Stricter than the replay, which accepts an infinite bid that executes:
    # the loop checks every arrival before the first event.
    book = BookState(bids=[0.2], asks=[0.9])
    with pytest.raises(BookInvariantError, match="arrival 1 at non-finite price"):
        match_arrivals(book, RULES[ORDINARY], np.array([True] * len(px)), np.array(px))
    assert (book.bids(), book.asks()) == ([0.2], [0.9])


# A strict binned book may cross inside one bin, with or without arrivals.
CROSSED_IN_BIN = [([], []), ([True, False], [0.05, 0.93])]


@pytest.mark.parametrize("is_bid, px", CROSSED_IN_BIN)
def test_strict_book_crossed_inside_a_bin_is_accepted(is_bid, px):
    assert assert_same(RULES[STRICT_BINNED], BookState(bids=[0.57], asks=[0.53]),
                       np.array(is_bid, dtype=bool), np.array(px, dtype=float))


def test_empty_sequence():
    state = BookState(bids=[0.4])
    log = match_arrivals(state, RULES[STRICT_BINNED], np.zeros(0, dtype=bool), np.zeros(0))
    assert log.outcome.size == log.beta.size == 0
    assert state.beta() == 0.4 and state.alpha() == math.inf
    assert all(getattr(log, name).size == 0 for name in LOG_FIELDS)


# -- the compiled kernel against the Python loop -----------------------------

PYTHON_LOOP = book_module._PYTHON_KERNEL


@pytest.fixture(scope="module")
def c_kernel():
    kernel = book_module._load_kernel()
    if kernel.name != "c":
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    return kernel


@contextmanager
def running(kernel):
    saved = book_module._loaded
    book_module._loaded = kernel
    try:
        yield
    finally:
        book_module._loaded = saved


def is_heap(keys):
    return all(keys[(i - 1) // 2] <= keys[i] for i in range(1, len(keys)))


def run_on(kernel, rule, book, is_bid, px):
    """(log arrays as bytes or the error message, final book as bytes) under one kernel."""
    state = book.clone()
    with running(kernel):
        log, err = outcome_of(lambda: match_arrivals(state, rule, is_bid, px))
    result = str(err) if err is not None else tuple(
        (a.dtype.str, a.tobytes()) for a in (getattr(log, name) for name in LOG_FIELDS))
    return result, book_bytes(state)


def stored_heaps(state):
    """Both sides' keys as the state stores them: each heap's used front."""
    return [heap[:n.value].tolist() for heap, n in zip(state._heaps, state._sizes)]


def book_bytes(state):
    """Both sides' sorted prices as bytes, once both stored sides are checked
    to be heaps: the C loop keeps each side's best orders apart from its heap,
    so it leaves the Python loop's book in another heap layout."""
    assert all(is_heap(keys) for keys in stored_heaps(state))
    return np.array(state.bids()).tobytes(), np.array(state.asks()).tobytes()


def assert_kernels_agree(c_kernel, rule, book, is_bid, px):
    got, want = run_on(c_kernel, rule, book, is_bid, px), run_on(PYTHON_LOOP, rule, book,
                                                                  is_bid, px)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return not isinstance(got[0], str)


@given(scenarios())
@settings(max_examples=400, deadline=None)
def test_c_kernel_matches_python_loop(c_kernel, scenario):
    assert_kernels_agree(c_kernel, *scenario)


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("reservoirs", [(None, None), (0.33, 0.71)])
def test_c_kernel_long_runs(c_kernel, kind, reservoirs):
    rng = np.random.default_rng(11)
    book = BookState(bids=rng.random(50) * 0.3, asks=0.7 + rng.random(50) * 0.3,
                     bid_reservoir=reservoirs[0], ask_reservoir=reservoirs[1])
    px = np.concatenate((EDGES, rng.random(20_000) * 0.98 + 0.01))
    rng.shuffle(px)
    assert assert_kernels_agree(c_kernel, RULES[kind], book, rng.random(px.size) < 0.5, px)


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("book, is_bid, px", REJECTED)
def test_both_kernels_reject(c_kernel, kind, book, is_bid, px):
    assert not assert_kernels_agree(c_kernel, RULES[kind], book, np.array(is_bid),
                                    np.array(px, dtype=float))


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("book, is_bid, px", REPEATED)
def test_both_kernels_accept_repeated_prices(c_kernel, kind, book, is_bid, px):
    assert assert_kernels_agree(c_kernel, RULES[kind], book, np.array(is_bid),
                                np.array(px, dtype=float))


def test_both_kernels_name_the_first_of_two_ties(c_kernel):
    # Arrival 1 is an ask at the best bid 0.6, which then also leaves the
    # book crossed; arrival 2 executes that bid, and arrival 3 is an ask at
    # the next best bid 0.2.  Without the first tie the second is named.
    book, is_bid = BookState(bids=[0.2], asks=[0.8]), np.array([True, False, False, False])
    for first, want in ((0.6, "arrival 1 at 0.6"), (0.61, "arrival 3 at 0.2")):
        px = np.array([0.6, first, 0.4, 0.2])
        for kernel in (c_kernel, PYTHON_LOOP):
            message, _ = run_on(kernel, RULES[ORDINARY], book, is_bid, px)
            assert message == f"{want} collides with the opposite best quote"


@pytest.mark.parametrize("is_bid, px", CROSSED_IN_BIN)
def test_both_kernels_accept_a_strict_book_crossed_inside_a_bin(c_kernel, is_bid, px):
    assert assert_kernels_agree(c_kernel, RULES[STRICT_BINNED],
                                BookState(bids=[0.57], asks=[0.53]),
                                np.array(is_bid, dtype=bool), np.array(px, dtype=float))


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("at", [7, 10, 13])
def test_failed_chunk_leaves_the_book_at_its_end(request, kernel, at):
    # Bids below the bid reservoir at 0.5 and asks above it all join; the ask
    # at exactly 0.5, arrival `at` in the chunk of arrivals 7..13, ties with
    # it and joins too, and the loop runs on to the chunk's end.
    loop = PYTHON_LOOP if kernel == "python" else request.getfixturevalue("c_kernel")
    rng = np.random.default_rng(at)
    is_bid = rng.random(30) < 0.5
    px = np.where(is_bid, 0.5 * rng.random(30), 0.5 + 0.5 * rng.random(30))
    is_bid[at], px[at] = False, 0.5
    state = BookState(bids=[0.1], bid_reservoir=0.5)
    with running(loop), pytest.raises(BookInvariantError, match=f"arrival {at} at 0.5"):
        for _ in book_module.match_chunks(state, RULES[ORDINARY], is_bid, px, 7):
            pass
    bid, ask = is_bid[:14], ~is_bid[:14]
    assert state.bids() == sorted([0.1, *px[:14][bid].tolist()])
    assert state.asks() == sorted(px[:14][ask].tolist())
    assert all(is_heap(keys) for keys in stored_heaps(state))


WHOLE = 2**62       # one chunk, whatever the run's length
# The C loop holds each side's best orders in a sorted run of this length
# above a heap of the rest, split at a cutoff price.
HOT = int(re.search(r"#define HOT (\d+)", book_module._SOURCE.read_text())[1])


def boundary_run(seed):
    """(book, is_bid, px) that drive both sides' runs over the cutoff and back.

    More than 3 * HOT ever-better bids, each price three times, overflow the
    bid run again and again, so equal prices straddle the cutoff; as many
    ever-better asks do the same on the other side.  Then asks below every
    bid execute them all, through the heap too, mixed with bids at prices
    already seen; then bids above every ask do the same to the asks.  The
    book holds bids at 0.0 and -0.0, and bids at both arrive.
    """
    rng = np.random.default_rng(seed)
    levels = np.linspace(0.05, 0.35, HOT + 7)
    rising = np.repeat(levels, 3)
    falling = 1.0 - rising
    zeros = np.array([0.0, -0.0, -0.0, 0.0])
    seen = rng.choice(np.concatenate((levels, zeros)), HOT)
    n_bids = 4 + rising.size + zeros.size + seen.size
    hits = np.concatenate((np.full(n_bids + 10, -0.5), seen))
    order = rng.permutation(hits.size)
    px = np.concatenate((rising, zeros, falling, hits[order], np.full(falling.size + 10, 1.1)))
    is_bid = np.concatenate((np.ones(rising.size + zeros.size, dtype=bool),
                             np.zeros(falling.size, dtype=bool), order >= n_bids + 10,
                             np.ones(falling.size + 10, dtype=bool)))
    return BookState(bids=[0.0, -0.0, 0.01, -0.0]), is_bid, px


def chunks_on(kernel, rule, book, is_bid, px, size):
    """Every chunk's log arrays as bytes and the final book as bytes, matched
    `size` arrivals at a time under one kernel."""
    state = book.clone()
    with running(kernel):
        logs = [tuple(getattr(log, name).tobytes() for name in LOG_FIELDS)
                for _, log in book_module.match_chunks(state, rule, is_bid, px, size)]
    return logs, book_bytes(state)


@pytest.mark.parametrize("size", [1, 7, WHOLE], ids=["1", "7", "whole"])
@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("reservoirs", [(None, None), (-0.25, 1.25)])
@pytest.mark.parametrize("seed", [1, 2])
def test_kernels_agree_across_the_hot_run_cutoff(c_kernel, size, kind, reservoirs, seed):
    book, is_bid, px = boundary_run(seed)
    book.bid_reservoir, book.ask_reservoir = reservoirs
    got = chunks_on(c_kernel, RULES[kind], book, is_bid, px, size)
    assert got == chunks_on(PYTHON_LOOP, RULES[kind], book, is_bid, px, size)
    # The run does what boundary_run says: each side holds more than 3 * HOT
    # orders, and where asks can execute bids in bin 0, every zero bid goes.
    log = match_arrivals(book.clone(), RULES[kind], is_bid, px)
    assert min(log.n_bids.max(), log.n_asks.max()) > 3 * HOT
    zeros = book.bids().count(0.0) + np.count_nonzero(is_bid & (px == 0))
    hit = np.count_nonzero((log.sign == -1) & log.changed_bid & (log.price == 0))
    assert hit == (0 if kind == STRICT_BINNED else zeros)


# 101 bid prices k/100 and 101 ask prices half a tick above them: a stream
# repeats many prices, within a chunk and across, but no arrival can meet an
# opposite quote at its own price.
COARSE_BIDS = dataclasses.replace(uniform_dist(), quantile=lambda u: np.round(u, 2))
COARSE_ASKS = dataclasses.replace(uniform_dist(), quantile=lambda u: np.round(u, 2) + 0.005)


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("chunk", [7, 16_384])
@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("reservoirs", [(None, None), (0.3, 0.7 + 0.005)])
def test_coarse_law_runs_as_the_replay(request, monkeypatch, kernel, chunk, kind, reservoirs):
    monkeypatch.setattr(sim, "CHUNK", chunk)
    arr = sim.materialize(sim.ArrivalStream(0, 400, ArrivalSpec(COARSE_BIDS, COARSE_ASKS)))
    assert np.unique(arr.prices).size < arr.n / 2
    # the bid reservoir shares its price with a resting bid, the ask
    # reservoir with a resting ask
    book = BookState(bids=[0.1, 0.3], asks=[0.7 + 0.005, 0.9 + 0.005],
                     bid_reservoir=reservoirs[0], ask_reservoir=reservoirs[1])
    rows = replay(book.clone(), RULES[kind], arr.is_bid, arr.prices)
    loop = PYTHON_LOOP if kernel == "python" else request.getfixturevalue("c_kernel")
    with running(loop):
        trace = sim.run_arrivals(RULES[kind], book, arr, 1)
    outcome, beta, alpha, _, _, _, n_bids, n_asks = (np.array(c) for c in zip(*rows))
    assert trace.cp_beta.tolist() == beta.tolist()
    assert trace.cp_alpha.tolist() == alpha.tolist()
    assert trace.cp_bids.tolist() == n_bids.tolist()
    assert trace.cp_asks.tolist() == n_asks.tolist()
    assert trace.reservoir_executions == np.count_nonzero(outcome == RESERVOIR)


BINNED_FIELDS = ("occupation_b", "occupation_a", "occupation_elapsed", "joint_hist",
                 "top_shape_sums", "top_shape_visits")


def as_bytes(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def binned_on(kernel, rule, book, arr, part, chunk):
    """run_arrivals' binned recorder fields as (dtype, shape, bytes), or the
    error message, with the run matched `chunk` arrivals at a time."""
    saved, sim.CHUNK = sim.CHUNK, chunk
    try:
        with running(kernel):
            trace, err = outcome_of(lambda: sim.run_arrivals(
                rule, book, arr, 0, record_partition=part))
    finally:
        sim.CHUNK = saved
    if err is not None:
        return str(err), None
    return as_bytes(getattr(trace, name) for name in BINNED_FIELDS), trace.top_shape_visits


def assert_binned_agree(c_kernel, rule, book, arr, part, chunk):
    """The C binned pass against the numpy one, both after the C loop."""
    numpy_pass = c_kernel._replace(binned=book_module._binned_sums)
    got, visits = binned_on(c_kernel, rule, book, arr, part, chunk)
    want, _ = binned_on(numpy_pass, rule, book, arr, part, chunk)
    assert got == want
    return visits


def arrivals(is_bid, px, poisson_seed=None):
    """Arrivals at times 0.5, 1, 1.5, ..., or at Poisson times from a seed."""
    n = px.size
    if poisson_seed is None:
        times = 0.5 * np.arange(1, n + 1)
    else:
        times = np.cumsum(np.random.default_rng(poisson_seed).exponential(0.5, n))
    return sim.Arrivals(is_bid, px, times, 0.5)


# 10 bins, where every row is cut short by j <= b, and 50 bins that share the
# rule's bin edges
RECORD_PARTS = (TENTH_BINS,
                BinPartition((0.0, 1.0), np.round(np.arange(0.02, 0.985, 0.02), 10)))


@given(scenarios(), st.sampled_from(RECORD_PARTS), st.sampled_from([1, 3, 7, WHOLE]),
       st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@settings(max_examples=400, deadline=None)
def test_c_top_shape_matches_numpy(c_kernel, scenario, part, chunk, poisson_seed):
    # every field of the binned recorder, top shape included; with chunks of
    # 3 or 7 the run's second half mostly starts inside a chunk
    rule, book, is_bid, px = scenario
    assert_binned_agree(c_kernel, rule, book, arrivals(is_bid, px, poisson_seed), part, chunk)


HUNDREDTH_BINS = BinPartition((0.0, 1.0), np.round(np.arange(0.01, 0.995, 0.01), 10))


@pytest.mark.parametrize("kind", sorted(RULES))
@pytest.mark.parametrize("regime", ["empty_bid_side", "low_best_bid"])
def test_c_top_shape_long_runs(c_kernel, kind, regime):
    # chunks of 4096, so the second half starts inside the third chunk
    rng = np.random.default_rng(5)
    n = 20_000
    if regime == "empty_bid_side":
        # every 1000 arrivals end with 200 asks below every bid, which empty the
        # bid side for stretches of hundreds of arrivals
        low_ask = np.arange(n) % 1000 >= 800
        is_bid = ~low_ask & (rng.random(n) < 0.5)
        px = np.where(low_ask, rng.random(n) * 0.05, 0.1 + rng.random(n) * 0.9)
        book, arr = BookState(), arrivals(is_bid, px)
    else:
        # bids below 0.1: the best bid sits in bins 0..9 of 100, and rows are
        # cut short; a reservoir book at Poisson times
        is_bid = rng.random(n) < 0.5
        px = np.where(is_bid, rng.random(n) * 0.1, 0.05 + rng.random(n) * 0.95)
        book = BookState(bids=[0.001], asks=[0.9995], ask_reservoir=0.9999)
        arr = arrivals(is_bid, px, poisson_seed=6)
    visits = assert_binned_agree(c_kernel, RULES[kind], book, arr, HUNDREDTH_BINS, 4096)
    if regime == "empty_bid_side":
        assert 0.2 * n < visits.sum() < 0.8 * n
    else:
        assert visits.sum() > 0 and not visits[book_module.TOP_MAX_OFFSET:].any()


def binned_call(kernel, sums=None, **replaced):
    """One call of a kernel's binned pass on three events in empty books over
    four bins, with the arguments named in `replaced` replaced."""
    ok = np.zeros(3, dtype=np.int64)
    args = dict(times=np.array([0.5, 1.0, 1.5]), t0=0.0, half=1, beta=np.full(3, -np.inf),
                alpha=np.full(3, np.inf), beta_bin=ok, alpha_bin=ok, price_bin=ok,
                changed_bid=ok.astype(bool), sign=ok.astype(np.int8))
    args.update(replaced)
    if sums is None:
        sums = book_module.BinnedSums.zeros(4, -1, -1)
    kernel.binned(sums, **args)
    return sums


def test_binned_rejects_bins_out_of_range(c_kernel):
    ok = np.zeros(3, dtype=np.int64)
    for name in ("beta_bin", "alpha_bin", "price_bin"):
        for bad in (ok - 1, ok + 4):
            with pytest.raises(ValueError, match="outside 0..3"):
                binned_call(c_kernel, **{name: bad})
    for pre in ((-2, 0), (0, 4)):
        sums = book_module.BinnedSums.zeros(4, *pre)
        with pytest.raises(ValueError, match="outside 0..3"):
            binned_call(c_kernel, sums=sums)
    with pytest.raises(ValueError, match="length"):
        binned_call(c_kernel, price_bin=ok[:2])
    good = book_module.BinnedSums.zeros(4, -1, -1)
    for field, bad in (("counts", good.counts.astype(np.int32)), ("top", good.top[:3]),
                       ("joint", np.zeros((4, 8), dtype=np.int64)[:, ::2]),
                       ("time", good.time.astype(np.float32))):
        with pytest.raises(ValueError, match="contiguous arrays"):
            binned_call(c_kernel, sums=good._replace(**{field: bad}))
    # in range, both passes give the same sums
    sums = [binned_call(k, beta=np.array([0.3, -np.inf, 0.6]), beta_bin=np.array([1, 3, 2]),
                        price_bin=np.array([1, 0, 2]), changed_bid=np.ones(3, dtype=bool),
                        sign=np.array([1, -1, 1], dtype=np.int8))
            for k in (c_kernel, PYTHON_LOOP)]
    assert as_bytes(sums[0]) == as_bytes(sums[1])


@st.composite
def refinement_points(draw):
    """(is_bid, bins, steps, nbins): two changes per point, as check_refinement passes them.

    Steps in {-1, 0} keep every prefix sum at or below 0 (no violation);
    steps in {-1, 0, 1} give violations on most runs.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nbins, n = draw(st.integers(2, 200)), draw(st.integers(0, 700))
    top = draw(st.sampled_from([0, 1]))
    return (rng.random((n, 2)) < 0.5, rng.integers(0, nbins, (n, 2)),
            rng.integers(-1, top + 1, (n, 2)), nbins)


@given(refinement_points())
@settings(max_examples=300, deadline=None)
def test_c_refinement_matches_numpy(c_kernel, points):
    # up to 700 points, so the numpy pass carries its prefix sums across blocks
    assert as_bytes(c_kernel.refinement(*points)) == \
        as_bytes(book_module._refinement_maxima(*points))


def test_refinement_rejects_bins_out_of_range(c_kernel):
    ok = np.zeros((3, 2), dtype=np.int64)
    is_bid = ok.astype(bool)
    for bins in (ok - 1, ok + 4):
        with pytest.raises(ValueError, match="outside 0..3"):
            c_kernel.refinement(is_bid, bins, ok, 4)
    for bad in (ok[:2], ok[:, :1], ok.ravel()):
        with pytest.raises(ValueError, match="shape"):
            c_kernel.refinement(is_bid, bad, ok, 4)


# -- the arrival draw ---------------------------------------------------------

# knot counts, so that the bisections run over one cut, a few and many
knot_counts = st.sampled_from([2, 3, 4, 5, 9, 17])
unit_floats = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def increasing(draw, size):
    """`size` strictly increasing floats from a start in [-5, 5], unevenly spaced."""
    start = draw(st.floats(-5.0, 5.0))
    gaps = draw(st.lists(st.floats(1e-3, 2.0), min_size=size - 1, max_size=size - 1))
    return start + np.concatenate(([0.0], np.cumsum(gaps)))


@st.composite
def piecewise_laws(draw):
    # densities with flat and zero segments: repeated values and runs of 0
    n = draw(knot_counts)
    levels = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0)
    ys = draw(st.lists(levels, min_size=n, max_size=n))
    assume(any(y > 0 for y in ys))
    return piecewise_linear_dist(draw(increasing(n)), ys)


@st.composite
def uniform_laws(draw):
    lo, width = draw(st.floats(-100.0, 100.0)), draw(st.floats(1e-3, 50.0))
    return uniform_dist(lo, lo + width)


def knot_draws(law) -> list:
    """The CDF at each knot and its two neighbouring floats, each in [0, 1) as
    a uniform draw is."""
    cdf = getattr(law.quantile, "cum", np.array([0.0, 1.0]))
    near = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)))
    return near[(near >= 0.0) & (near < 1.0)].tolist()


laws = st.one_of(piecewise_laws(), uniform_laws())


@st.composite
def draw_inputs(draw):
    """(spec, side_u, price_u): each price draw of interest on both sides, then
    random draws, the side draws including p_b and its lower neighbour."""
    p_b = draw(st.sampled_from([0.5, 0.3]) | unit_floats.filter(lambda p: p > 0.0))
    spec = ArrivalSpec(draw(laws), draw(laws), p_b)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edge = [0.0, np.nextafter(1.0, 0.0), *draw(st.lists(unit_floats, max_size=5)),
            *knot_draws(spec.bid_dist), *knot_draws(spec.ask_dist)]
    n = draw(st.integers(0, 300))
    price_u = np.concatenate((edge, edge, rng.random(n)))
    side_u = np.concatenate(([0.0] * len(edge), [np.nextafter(1.0, 0.0)] * len(edge),
                             rng.choice([p_b, np.nextafter(p_b, 0.0), 0.0], n)
                             if draw(st.booleans()) else rng.random(n)))
    return spec, side_u, price_u


def drawn(kernel, spec, side_u, price_u):
    is_bid, prices = np.empty(side_u.size, dtype=bool), np.empty(side_u.size)
    kernel.draw(spec, side_u, price_u, is_bid, prices)
    return is_bid.tobytes(), prices.tobytes()


@given(draw_inputs())
@settings(max_examples=300, deadline=None)
def test_c_draw_matches_numpy(c_kernel, inputs):
    assert drawn(c_kernel, *inputs) == drawn(PYTHON_LOOP, *inputs)


def test_c_draw_calls_a_wrapped_quantile(c_kernel):
    # a wrapped built-in quantile keeps its law's kind, but it must be called
    tent = piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    calls = []

    def counted(u):
        calls.append(u.size)
        return tent.quantile(u)

    wrapped = dataclasses.replace(tent, quantile=counted)
    assert wrapped.kind == "piecewise_linear"
    rng = np.random.default_rng(3)
    side_u, price_u = rng.random(1000), rng.random(1000)
    for spec in (ArrivalSpec(wrapped, tent), ArrivalSpec(tent, wrapped)):
        calls.clear()
        assert drawn(c_kernel, spec, side_u, price_u) == drawn(PYTHON_LOOP, spec, side_u,
                                                               price_u)
        assert calls and sum(calls) == 2 * ((side_u < 0.5) == (spec.bid_dist is wrapped)).sum()


def test_c_draw_survives_a_deep_copy(c_kernel):
    # the C form kept on a quantile cannot be copied; the copy is the quantile
    tent = piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    spec = ArrivalSpec(tent, uniform_dist())
    u = np.random.default_rng(4).random(100)
    first = drawn(c_kernel, spec, u, u[::-1])
    copied = copy.deepcopy(spec)
    assert copied.bid_dist.quantile is tent.quantile
    assert drawn(c_kernel, copied, u, u[::-1]) == first == drawn(PYTHON_LOOP, spec, u, u[::-1])


def test_draw_rejects_bad_outputs(c_kernel):
    spec = ArrivalSpec(uniform_dist(), uniform_dist())
    u = np.full(4, 0.25)
    for is_bid, prices in ((np.empty(3, dtype=bool), np.empty(4)),
                           (np.empty(4, dtype=np.int8), np.empty(4)),
                           (np.empty(4, dtype=bool), np.empty(8)[::2])):
        with pytest.raises(ValueError, match="draw"):
            c_kernel.draw(spec, u, u, is_bid, prices)


# -- the Philox uniforms ------------------------------------------------------

EDGE_SEEDS = [0, 2**63, 2**64 - 1]
TAGS = sorted(sim.FIELD_TAGS)
uniform_counts = st.sampled_from([0, *range(1, 10), sim.CHUNK + 1])


def uniform_bytes(kernel, key, first, n):
    return kernel.uniforms(key, first, np.empty(n)).tobytes()


def sequential_bytes(seed, tag, first, n):
    """Draws first .. first + n - 1 of the field's generator, drawn in order."""
    gen = sim.field_generator(seed, tag)
    gen.random(first)
    return gen.random(n).tobytes()


def assert_uniforms_agree(c_kernel, seed, tag, first, n):
    key = (seed, sim.FIELD_TAGS[tag])
    assert (uniform_bytes(c_kernel, key, first, n) == uniform_bytes(PYTHON_LOOP, key, first, n)
            == sequential_bytes(seed, tag, first, n))


def test_c_uniforms_at_edge_keys(c_kernel):
    # every field's stream under the extreme seeds, from every word of two blocks
    for seed in EDGE_SEEDS:
        for tag in TAGS:
            for first in range(8):
                for n in (0, 1, 5, 9):
                    assert_uniforms_agree(c_kernel, seed, tag, first, n)


@given(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1), st.sampled_from(TAGS),
       st.integers(0, 100), uniform_counts)
@settings(max_examples=150, deadline=None)
def test_c_uniforms_match_numpy(c_kernel, seed, tag, first, n):
    assert_uniforms_agree(c_kernel, seed, tag, first, n)


@given(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1), st.sampled_from(TAGS),
       st.sampled_from([2**32, 2**40]).flatmap(lambda at: st.integers(at - 9, at + 9)),
       uniform_counts)
@settings(max_examples=60, deadline=None)
def test_c_uniforms_far_into_the_stream(c_kernel, seed, tag, first, n):
    # too far to draw in order: against the numpy generator set to the block
    key = (seed, sim.FIELD_TAGS[tag])
    assert uniform_bytes(c_kernel, key, first, n) == uniform_bytes(PYTHON_LOOP, key, first, n)


def test_uniforms_rejects_bad_outputs(c_kernel):
    for out in (np.empty(8, dtype=np.float32), np.empty((2, 4)), np.empty(16)[::2]):
        with pytest.raises(ValueError, match="uniforms"):
            c_kernel.uniforms((1, 1), 0, out)


def test_portable_multiply_gives_the_same_uniforms(c_kernel, tmp_path):
    # the 64 x 64 -> 128-bit multiply from 32-bit halves, for compilers without __int128
    library = tmp_path / "kernel.so"
    done = subprocess.run([book_module._CC, *book_module._FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-U__SIZEOF_INT128__", "-o", str(library),
                           str(book_module._SOURCE)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    fn = ctypes.CDLL(str(library)).uniforms
    fn.argtypes = [ctypes.c_long, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint64,
                   ctypes.c_void_p]
    portable = c_kernel._replace(uniforms=partial(book_module._uniforms_c, fn))
    rng = np.random.default_rng(5)
    seeds = [*EDGE_SEEDS, *(int(s) for s in rng.integers(0, 2**64, 4, dtype=np.uint64))]
    for seed in seeds:
        for tag in TAGS:
            for first in (0, 1, 2, 3, 2**40 + 3):
                key = (seed, sim.FIELD_TAGS[tag])
                assert (uniform_bytes(portable, key, first, sim.CHUNK + 1)
                        == uniform_bytes(c_kernel, key, first, sim.CHUNK + 1))


def coupling_reports(kernel):
    """Refinement reports of the clean criterion-5 runs and of the reservoir books
    that `tests/test_coupling.py::TestViolationsReported` pins, under one kernel."""
    spec = ArrivalSpec(uniform_dist(), uniform_dist())
    fine, coarse = make_partition(100, spec), make_partition(10, spec)
    clean = sim.materialize(sim.ArrivalStream(1, 20_000, spec))
    pinned = sim.materialize(sim.ArrivalStream(4, 3_000, spec))
    book = BookState(bids=[0.11, 0.31], asks=[0.61, 0.83], ask_reservoir=0.55)
    with running(kernel):
        return {kind: (coupling.check_refinement(fine, coarse, kind, clean),
                       coupling.check_refinement(make_partition(10, spec),
                                                 make_partition(5, spec), kind, pinned,
                                                 initial=book))
                for kind in (ORDINARY_BINNED, STRICT_BINNED)}


@pytest.fixture
def reservoir_books_accepted(monkeypatch):
    monkeypatch.setattr(coupling, "_no_reservoirs", lambda book, check: None)


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_pinned_refinement_counts_under_both_kernels(request, reservoir_books_accepted,
                                                     kernel):
    loop = PYTHON_LOOP if kernel == "python" else request.getfixturevalue("c_kernel")
    reports = coupling_reports(loop)
    for kind, violations, first in ((ORDINARY_BINNED, 359, 5), (STRICT_BINNED, 12, 94)):
        clean, pinned = reports[kind]
        assert clean.passed and clean.details == []
        assert (pinned.violations, pinned.first_violation_index) == (violations, first)
        assert len(pinned.details) == min(violations, coupling.MAX_DETAILS)


def test_c_refinement_reports_equal_numpy_pass(c_kernel, reservoir_books_accepted):
    # every report field, details included, after the same C loop
    numpy_pass = c_kernel._replace(refinement=book_module._refinement_maxima)
    assert coupling_reports(c_kernel) == coupling_reports(numpy_pass)


# An exported C function's prototype: what it returns, its name, its parameters
EXPORTED = re.compile(r"^(void|long) (\w+)\(([^)]*)\)", re.M)
C_SCALARS = {"long": ctypes.c_long, "double": ctypes.c_double, "int": ctypes.c_int,
             "uint64_t": ctypes.c_uint64}


def test_every_export_is_loaded_with_its_c_signature(c_kernel):
    # ctypes believes argtypes: a parameter too many, too few or of another
    # kind, say a length passed by value where C takes its address, corrupts
    # memory without an error
    prototypes = {name: (ret, params.split(",")) for ret, name, params
                  in EXPORTED.findall(book_module._SOURCE.read_text())}
    assert sorted(prototypes) == sorted(book_module._EXPORTS)
    # the kernel's passes after its name, in the order of _EXPORTS, each the
    # loaded function bound into its wrapper
    for export, bound in zip(book_module._EXPORTS, c_kernel[1:]):
        fn = bound.args[0]
        ret, params = prototypes[export]
        assert fn.restype is {"void": None, "long": ctypes.c_long}[ret], export
        assert len(fn.argtypes) == len(params), export
        for param, argtype in zip(params, fn.argtypes):
            kind = param.replace("const ", "").split()[0]
            if "*" not in param:
                assert argtype is C_SCALARS[kind], (export, param)
            elif kind == "long":
                assert argtype is ctypes.POINTER(ctypes.c_long), (export, param)
            else:
                assert argtype is ctypes.c_void_p, (export, param)


def test_kernel_compiles_without_warnings(c_kernel, tmp_path):
    done = subprocess.run([book_module._CC, *book_module._FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "kernel.so"), str(book_module._SOURCE)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("cc", ["false", "true"])
def test_failed_build_falls_back_to_python(monkeypatch, tmp_path, cc):
    # a compiler that fails, and one that writes no library: nothing is cached
    # (tests/test_golden.py runs without a compiler at all), and every pass
    # runs in Python and numpy
    monkeypatch.setattr(book_module, "_cache_dirs", lambda: (tmp_path,))
    monkeypatch.setattr(book_module, "_CC", cc)
    kernel = book_module._load_kernel()
    assert kernel == PYTHON_LOOP
    assert (kernel.run, kernel.binned, kernel.five_bin, kernel.refinement, kernel.draw) == (
        book_module._match_py, book_module._binned_sums, book_module._five_bin_sums,
        book_module._refinement_maxima, book_module._draw_py)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("export", ["match", "binned", "five_bin", "refinement", "draw",
                                    "uniforms"])
def test_library_lacking_an_export_is_neither_cached_nor_loaded(monkeypatch, tmp_path,
                                                               export):
    # the source builds, but its library lacks one of its exports
    assert export in book_module._EXPORTS
    monkeypatch.setattr(book_module, "_cache_dirs", lambda: (tmp_path / "whole",))
    if book_module._load_kernel().name != "c":
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    source = tmp_path / "_kernel.c"
    text = book_module._SOURCE.read_text()
    renamed = text.replace(f" {export}(long n,", f" {export}_renamed(long n,")
    assert renamed != text
    source.write_text(renamed)
    cache = tmp_path / "cache"
    monkeypatch.setattr(book_module, "_SOURCE", source)
    monkeypatch.setattr(book_module, "_cache_dirs", lambda: (cache,))
    assert book_module._load_kernel() == PYTHON_LOOP
    assert list(cache.iterdir()) == []


def foreign_owner(monkeypatch, cache):
    uid = book_module.os.getuid()
    monkeypatch.setattr(book_module.os, "getuid", lambda: uid + 1)


def group_writable_directory(monkeypatch, cache):
    cache.chmod(0o770)


def symlinked_directory(monkeypatch, cache):
    link = cache.with_name("link")
    link.symlink_to(cache)
    monkeypatch.setattr(book_module, "_cache_dirs", lambda: (link,))


@pytest.mark.parametrize("exposed", [foreign_owner, group_writable_directory,
                                     symlinked_directory])
def test_library_others_could_write_is_not_loaded(monkeypatch, tmp_path, exposed):
    # A working library sits in a cache directory another user could have
    # written to: it is neither loaded nor rebuilt there.
    cache = tmp_path / "cache"
    monkeypatch.setattr(book_module, "_cache_dirs", lambda: (cache,))
    if book_module._load_kernel().name != "c":
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    exposed(monkeypatch, cache)
    assert book_module._load_kernel() == PYTHON_LOOP
    assert len(list(cache.iterdir())) == 1


def test_library_others_could_write_is_rebuilt(monkeypatch, tmp_path):
    # in a directory of our own, a world-writable library is replaced, not loaded
    monkeypatch.setattr(book_module, "_cache_dirs", lambda: (tmp_path,))
    first = book_module._load_kernel()
    if first.name != "c":
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    first.library.chmod(0o757)
    planted = first.library.stat().st_ino
    again = book_module._load_kernel()
    assert (again.name, again.library) == ("c", first.library)
    assert again.library.stat().st_ino != planted
    assert not again.library.stat().st_mode & 0o022


def test_build_removes_stale_libraries(monkeypatch, tmp_path):
    monkeypatch.setattr(book_module, "_cache_dirs", lambda: (tmp_path,))
    stale = tmp_path / "_kernel-0123456789abcdef.so"
    stale.write_bytes(b"")
    stale.chmod(0o755)
    if book_module._load_kernel().name != "c":
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    assert [p.name for p in tmp_path.iterdir()] == [book_module._library_name()]


def test_library_name_covers_machine_and_flags(monkeypatch):
    name = book_module._library_name()
    monkeypatch.setattr(book_module, "_FLAGS", book_module._FLAGS + ("-march=native",))
    assert book_module._library_name() != name
    monkeypatch.undo()
    uname = book_module.os.uname()
    monkeypatch.setattr(book_module.os, "uname",
                        lambda: type("uname", (), {"machine": uname.machine + "-other"}))
    assert book_module._library_name() != name


def test_non_posix_platform_runs_python(monkeypatch):
    monkeypatch.setattr(book_module.os, "name", "nt")
    assert book_module._load_kernel() == PYTHON_LOOP


def test_built_library_is_reused(monkeypatch, tmp_path):
    # The first directory cannot be created, so the build lands in the second;
    # the next load finds it there without calling the compiler.
    (tmp_path / "file").write_text("")
    dirs = (tmp_path / "file" / "cache", tmp_path / "user")
    monkeypatch.setattr(book_module, "_cache_dirs", lambda: dirs)
    first = book_module._load_kernel()
    if first.name != "c":
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    assert first.library.parent == dirs[1]

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran again")
    monkeypatch.setattr(subprocess, "run", no_compiler)
    again = book_module._load_kernel()
    assert (again.name, again.library) == ("c", first.library)


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("kind", [ORDINARY_BINNED, STRICT_BINNED])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reflection_symmetry(request, kernel, kind, seed, uniform_spec):
    # x -> 1 - x with sides swapped, on an uneven partition and its mirror
    # image, maps the run to its mirror image: same outcomes, beta <-> 1 - alpha.
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(0.02, 0.98, 15))
    part, mirror = BinPartition((0.0, 1.0), cuts), BinPartition((0.0, 1.0), 1.0 - cuts[::-1])
    arr = sim.materialize(sim.ArrivalStream(seed, 20_000, uniform_spec))
    refl = reflected_arrivals(arr)
    bids, asks = np.array([0.1, 0.25]), np.array([0.8, 0.9])
    book = BookState(bids=bids, asks=asks, bid_reservoir=0.05)
    book_r = BookState(bids=1.0 - asks, asks=1.0 - bids, ask_reservoir=1.0 - 0.05)
    loop = PYTHON_LOOP if kernel == "python" else request.getfixturevalue("c_kernel")
    with running(loop):
        log = match_arrivals(book, MatchRule(kind, part), arr.is_bid, arr.prices)
        log_r = match_arrivals(book_r, MatchRule(kind, mirror), refl.is_bid, refl.prices)
    assert np.array_equal(log.outcome, log_r.outcome)
    assert np.array_equal(log_r.beta, 1.0 - log.alpha)
    assert np.array_equal(log_r.alpha, 1.0 - log.beta)
    assert (book_r.bids(), book_r.asks()) == (sorted(1.0 - p for p in book.asks()),
                                              sorted(1.0 - p for p in book.bids()))
