import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobphase.book import (NEG_INF, ORDINARY, ORDINARY_BINNED, POS_INF,
                           STRICT_BINNED, BookInvariantError, BookState,
                           MatchRule, Order, apply_arrival)
from lobphase.dist import BinPartition

TENTH_BINS = BinPartition((0.0, 1.0), np.round(np.arange(0.1, 0.95, 0.1), 10))


def ordinary():
    return MatchRule(ORDINARY)


def counts(state: BookState, p: float) -> tuple[int, int]:
    """(#bids at prices <= p, #asks at prices >= p), reservoirs excluded."""
    return (sum(1 for x in state.bids() if x <= p),
            sum(1 for x in state.asks() if x >= p))


class TestOrdinaryRule:
    def test_ask_joins_empty_book(self):
        st_ = BookState()
        eff = apply_arrival(st_, ordinary(), Order("ask", 0.5, 0))
        assert eff.outcome == "joined"
        assert st_.alpha() == 0.5
        assert st_.beta() == NEG_INF

    def test_ask_executes_crossed_bid(self):
        st_ = BookState(bids=[0.6])
        eff = apply_arrival(st_, ordinary(), Order("ask", 0.5, 0))
        assert eff.outcome == "executed"
        assert eff.counterparty_price == 0.6
        assert st_.n_asks == 0          # ask side unchanged
        assert st_.beta() == NEG_INF

    def test_ask_inside_spread_sets_alpha(self):
        st_ = BookState(bids=[0.2], asks=[0.9])
        apply_arrival(st_, ordinary(), Order("ask", 0.5, 0))
        assert st_.alpha() == 0.5

    def test_ask_above_alpha_keeps_alpha(self):
        st_ = BookState(asks=[0.4])
        apply_arrival(st_, ordinary(), Order("ask", 0.7, 0))
        assert st_.alpha() == 0.4
        assert st_.n_asks == 2

    def test_bid_mirror(self):
        st_ = BookState(asks=[0.4])
        eff = apply_arrival(st_, ordinary(), Order("bid", 0.9, 0))
        assert eff.outcome == "executed" and eff.counterparty_price == 0.4
        st_ = BookState(bids=[0.3])
        eff = apply_arrival(st_, ordinary(), Order("bid", 0.1, 0))
        assert eff.outcome == "joined" and st_.beta() == 0.3


class TestBinnedRules:
    def test_same_bin_executes_even_below(self):
        st_ = BookState(asks=[0.57])
        eff = apply_arrival(st_, MatchRule(ORDINARY_BINNED, TENTH_BINS),
                            Order("bid", 0.53, 0))
        assert eff.outcome == "executed"
        assert eff.counterparty_price == 0.57

    def test_strict_same_bin_joins_even_above(self):
        st_ = BookState(asks=[0.57])
        eff = apply_arrival(st_, MatchRule(STRICT_BINNED, TENTH_BINS),
                            Order("bid", 0.59, 0))
        assert eff.outcome == "joined"
        assert st_.beta() == 0.59       # crossed inside the bin

    def test_strict_different_bin_executes(self):
        st_ = BookState(asks=[0.57])
        eff = apply_arrival(st_, MatchRule(STRICT_BINNED, TENTH_BINS),
                            Order("bid", 0.71, 0))
        assert eff.outcome == "executed"

    def test_ordinary_binned_ask_mirror(self):
        st_ = BookState(bids=[0.53])
        eff = apply_arrival(st_, MatchRule(ORDINARY_BINNED, TENTH_BINS),
                            Order("ask", 0.57, 0))
        assert eff.outcome == "executed" and eff.counterparty_price == 0.53

    def test_binned_rule_requires_partition(self):
        with pytest.raises(ValueError):
            MatchRule(ORDINARY_BINNED)


class TestReservoirs:
    def test_ask_below_bid_reservoir_executes_against_it(self):
        st_ = BookState(bid_reservoir=0.4, ask_reservoir=0.6)
        eff = apply_arrival(st_, ordinary(), Order("ask", 0.3, 0))
        assert eff.outcome == "executed"
        assert eff.counterparty_is_reservoir
        assert eff.counterparty_price == 0.4
        assert st_.beta() == 0.4        # not depleted

    def test_bid_below_reservoir_joins_dominated(self):
        st_ = BookState(bid_reservoir=0.4, ask_reservoir=0.6)
        eff = apply_arrival(st_, ordinary(), Order("bid", 0.1, 0))
        assert eff.outcome == "joined"
        assert st_.beta() == 0.4
        assert st_.n_bids == 1

    def test_finite_bid_preferred_over_reservoir(self):
        st_ = BookState(bids=[0.55], bid_reservoir=0.4, ask_reservoir=0.9)
        eff = apply_arrival(st_, ordinary(), Order("ask", 0.2, 0))
        assert eff.counterparty_price == 0.55
        assert not eff.counterparty_is_reservoir
        assert st_.n_bids == 0

    def test_bid_at_reservoir_rests_behind_it(self):
        # a tie with the same side's reservoir: the reservoir is met first
        st_ = BookState(bid_reservoir=0.4, ask_reservoir=0.6)
        apply_arrival(st_, ordinary(), Order("bid", 0.4, 0))
        eff = apply_arrival(st_, ordinary(), Order("ask", 0.3, 1))
        assert eff.counterparty_is_reservoir and eff.counterparty_price == 0.4
        assert st_.bids() == [0.4]

    def test_reservoir_ordering_enforced(self):
        with pytest.raises(ValueError):
            BookState(bid_reservoir=0.7, ask_reservoir=0.3)


class TestCounts:
    def test_empty(self):
        assert counts(BookState(), 0.5) == (0, 0)

    def test_direct(self):
        st_ = BookState(bids=[0.1, 0.3], asks=[0.8])
        assert counts(st_, 0.2) == (1, 1)

    def test_joining_bids_accumulate(self):
        st_ = BookState()
        n = 25
        for i in range(n):
            # descending bids all join (each lies below the current best ask = +inf)
            apply_arrival(st_, ordinary(), Order("bid", 0.9 - i * 1e-3, i))
        assert counts(st_, 1.0) == (n, 0)


class TestInvariants:
    def test_duplicate_price_joins(self):
        st_ = BookState(bids=[0.3], asks=[0.8])
        eff = apply_arrival(st_, ordinary(), Order("bid", 0.3, 0))
        assert eff.outcome == "joined"
        assert st_.bids() == [0.3, 0.3] and st_.beta() == 0.3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_rejected(self, bad):
        with pytest.raises(BookInvariantError, match="non-finite"):
            BookState(asks=[0.5, bad])
        st_ = BookState(bids=[0.3])
        with pytest.raises(BookInvariantError, match="non-finite"):
            st_.insert("bid", bad)
        assert st_.bids() == [0.3]

    def test_collision_with_best_rejected(self):
        st_ = BookState(asks=[0.5])
        with pytest.raises(BookInvariantError):
            apply_arrival(st_, ordinary(), Order("bid", 0.5, 0))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_beta_below_alpha_always(self, seed):
        rng = np.random.default_rng(seed)
        st_ = BookState()
        rule = ordinary()
        for i in range(300):
            side = "bid" if rng.random() < 0.5 else "ask"
            apply_arrival(st_, rule, Order(side, float(rng.random()), i))
            assert st_.beta() < st_.alpha()

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_conservation_and_pair_departures(self, seed):
        rng = np.random.default_rng(seed)
        st_ = BookState()
        rule = MatchRule(ORDINARY_BINNED, TENTH_BINS)
        bid_arr = ask_arr = execs = 0
        for i in range(400):
            side = "bid" if rng.random() < 0.5 else "ask"
            if side == "bid":
                bid_arr += 1
            else:
                ask_arr += 1
            eff = apply_arrival(st_, rule, Order(side, float(rng.random()), i))
            execs += eff.outcome == "executed"
            # departures happen in bid-ask pairs
            assert abs(st_.n_bids - st_.n_asks) == abs(bid_arr - ask_arr)
        assert bid_arr + ask_arr - 2 * execs == st_.n_bids + st_.n_asks

    def test_strict_bin_level_ordering(self):
        rng = np.random.default_rng(5)
        st_ = BookState()
        rule = MatchRule(STRICT_BINNED, TENTH_BINS)
        for i in range(2000):
            side = "bid" if rng.random() < 0.5 else "ask"
            apply_arrival(st_, rule, Order(side, float(rng.random()), i))
            b, a = st_.beta(), st_.alpha()
            if b != NEG_INF and a != POS_INF:
                assert TENTH_BINS.index(b) <= TENTH_BINS.index(a)


class TestDeterminismAndTransform:
    def _outcomes(self, prices, sides, transform=None):
        st_ = BookState()
        out = []
        for i, (p, s) in enumerate(zip(prices, sides)):
            q = transform(p) if transform else p
            out.append(apply_arrival(st_, ordinary(), Order(s, q, i)).outcome)
        return out

    def test_identical_runs_identical_effects(self, rng):
        prices = rng.random(500)
        sides = ["bid" if x < 0.5 else "ask" for x in rng.random(500)]
        assert self._outcomes(prices, sides) == self._outcomes(prices, sides)

    def test_monotone_transform_preserves_outcomes(self, rng):
        # the ordinary rule depends only on the price ordering
        prices = rng.random(800)
        sides = ["bid" if x < 0.5 else "ask" for x in rng.random(800)]
        plain = self._outcomes(prices, sides)
        squared = self._outcomes(prices, sides, transform=lambda p: p * p)
        assert plain == squared
