import numpy as np
import pytest

from lobphase import sim
from lobphase.analytics import kappa_uniform_exact, varpi_uniform_exact
from lobphase.book import ORDINARY, BookState, MatchRule
from lobphase.dist import make_partition

from helpers import reflected_arrivals


@pytest.fixture(scope="module")
def big_trace(uniform_spec):
    """One shared 10^6-event run with the occupation recorder."""
    part = make_partition(100, uniform_spec)
    stream = sim.ArrivalStream(7, 1_000_000, uniform_spec)
    return sim.run(MatchRule(ORDINARY), BookState(), stream, 10_000,
                   record_partition=part), part


class TestArrivalStream:
    def test_seed_determinism(self, uniform_spec):
        a = sim.materialize(sim.ArrivalStream(42, 5, uniform_spec))
        b = sim.materialize(sim.ArrivalStream(42, 5, uniform_spec))
        for field in ("is_bid", "prices", "times"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_different_seeds_differ(self, uniform_spec):
        a = sim.materialize(sim.ArrivalStream(1, 100, uniform_spec))
        b = sim.materialize(sim.ArrivalStream(2, 100, uniform_spec))
        assert not np.array_equal(a.prices, b.prices)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_philox_key_range_is_refused(self, uniform_spec, seed):
        # masked to 64 bits, -1 would draw the stream of 2**64 - 1 and 2**64
        # the stream of 0, and the outputs would be stamped with the wrong seed
        with pytest.raises(ValueError, match="seed must be in"):
            sim.ArrivalStream(seed, 5, uniform_spec)

    def test_largest_seed_draws_its_own_stream(self, uniform_spec):
        top = sim.materialize(sim.ArrivalStream(2**64 - 1, 100, uniform_spec))
        zero = sim.materialize(sim.ArrivalStream(0, 100, uniform_spec))
        assert not np.array_equal(top.prices, zero.prices)

    def test_bid_fraction_five_sigma(self, uniform_spec):
        arr = sim.materialize(sim.ArrivalStream(3, 1_000_000, uniform_spec))
        # binomial: 5 sigma = 5 * sqrt(1/4/n) = 0.0025
        assert abs(arr.is_bid.mean() - 0.5) <= 0.0025

    def test_price_law_ks(self, uniform_spec):
        arr = sim.materialize(sim.ArrivalStream(3, 1_000_000, uniform_spec))
        s = np.sort(arr.prices)
        grid = np.arange(1, s.size + 1) / s.size
        ks = max(np.max(np.abs(grid - s)), np.max(np.abs(s - (grid - 1.0 / s.size))))
        assert ks <= 0.002

    def test_event_count_times(self, uniform_spec):
        arr = sim.materialize(sim.ArrivalStream(0, 4, uniform_spec))
        assert np.allclose(arr.times, [0.5, 1.0, 1.5, 2.0])

    def test_poisson_times(self, uniform_spec):
        arr = sim.materialize(sim.ArrivalStream(0, 200_000, uniform_spec,
                                                time_mode="poisson"))
        gaps = np.diff(np.concatenate([[0.0], arr.times]))
        assert abs(gaps.mean() - 0.5) < 0.01
        assert np.all(gaps > 0)

    def test_empty_stream(self, uniform_spec):
        arr = sim.materialize(sim.ArrivalStream(0, 0, uniform_spec))
        assert arr.n == 0

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("mode", [sim.EVENT_COUNT, sim.POISSON])
    def test_chunked_draws_equal_one_whole_draw(self, monkeypatch, uniform_spec, chunk,
                                                mode):
        n = 5000
        is_bid = sim.field_generator(9, "side").random(n) < 0.5
        prices = sim.field_generator(9, "price").random(n)     # the quantile on [0, 1]
        times = (np.cumsum(sim.field_generator(9, "gap").exponential(0.5, n))
                 if mode == sim.POISSON else 0.5 * np.arange(1, n + 1))
        monkeypatch.setattr(sim, "CHUNK", chunk)
        arr = sim.materialize(sim.ArrivalStream(9, n, uniform_spec, mode))
        for got, want in ((arr.is_bid, is_bid), (arr.prices, prices), (arr.times, times)):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


class TestRun:
    def test_empty_run(self, uniform_spec):
        tr = sim.run(MatchRule(ORDINARY), BookState(),
                     sim.ArrivalStream(0, 0, uniform_spec), 10)
        assert tr.n_events == 0
        assert tr.final_bids == tr.final_asks == 0
        assert tr.cp_time.size == 0

    def test_checkpoints_respect_invariant(self, big_trace):
        tr, _ = big_trace
        assert np.all(tr.cp_beta < tr.cp_alpha)

    def test_bit_identical_traces(self, uniform_spec):
        part = make_partition(20, uniform_spec)
        kw = dict(record_partition=part)
        t1 = sim.run(MatchRule(ORDINARY), BookState(),
                     sim.ArrivalStream(9, 50_000, uniform_spec), 1000, **kw)
        t2 = sim.run(MatchRule(ORDINARY), BookState(),
                     sim.ArrivalStream(9, 50_000, uniform_spec), 1000, **kw)
        assert np.array_equal(t1.cp_bids, t2.cp_bids)
        assert np.array_equal(t1.cp_beta, t2.cp_beta)
        assert np.array_equal(t1.occupation_b, t2.occupation_b)
        assert np.array_equal(t1.joint_hist, t2.joint_hist)

    def test_conservation_counters(self, big_trace):
        tr, _ = big_trace
        assert tr.bid_arrivals + tr.ask_arrivals == tr.n_events
        executions = tr.bid_exec_by_ask + tr.ask_exec_by_bid
        # every execution pairs the arriving order with the opposite best
        assert tr.bid_arrivals - executions == tr.final_bids
        assert tr.ask_arrivals - executions == tr.final_asks
        assert tr.final_bids - tr.final_asks == tr.bid_arrivals - tr.ask_arrivals
        assert np.all(tr.cp_bids <= tr.bid_arrivals)

    def test_reflection_exchangeability(self, uniform_spec):
        arr = sim.materialize(sim.ArrivalStream(5, 100_000, uniform_spec))
        refl = reflected_arrivals(arr)
        t = sim.run_arrivals(MatchRule(ORDINARY), BookState(), arr, 1000)
        tr = sim.run_arrivals(MatchRule(ORDINARY), BookState(), refl, 1000)
        assert np.array_equal(t.cp_bids, tr.cp_asks)
        assert np.array_equal(t.cp_asks, tr.cp_bids)
        assert np.array_equal(tr.cp_beta, 1.0 - t.cp_alpha)
        assert np.array_equal(tr.cp_alpha, 1.0 - t.cp_beta)


class TestEstimateKappa:
    def test_uniform_estimates_in_range(self, big_trace, uniform_spec):
        tr, _ = big_trace
        est = sim.estimate_kappa(tr, uniform_spec)
        assert 0.197 <= est.kappa_b_hat <= 0.237
        assert 0.763 <= est.kappa_a_hat <= 0.803
        assert 0.0 <= est.Fb_kappa_hat <= 1.0
        assert est.stderr_proxy >= 0.0

    def test_requires_checkpoints(self, uniform_spec):
        tr = sim.run(MatchRule(ORDINARY), BookState(),
                     sim.ArrivalStream(1, 1000, uniform_spec), 500)
        with pytest.raises(ValueError):
            sim.estimate_kappa(tr, uniform_spec)

    def test_reservoir_floors_estimate(self, uniform_spec):
        tr = sim.run(MatchRule(ORDINARY),
                     BookState(bid_reservoir=0.4, ask_reservoir=0.6),
                     sim.ArrivalStream(11, 100_000, uniform_spec), 1000)
        est = sim.estimate_kappa(tr, uniform_spec)
        assert est.kappa_b_hat >= 0.4 - 0.01


class TestEmpiricalPi:
    def test_density_at_half(self, big_trace):
        tr, part = big_trace
        pi_b, pi_a = sim.empirical_pi(tr)
        k = part.index(0.5)
        # continuum prediction: density ratio 2(1-kappa) times bin width 0.01
        expected = 2.0 * (1.0 - kappa_uniform_exact()[0]) * 0.01
        assert abs(pi_b[k] - expected) <= 0.003
        assert abs(pi_a[k] - expected) <= 0.003

    def test_subthreshold_bins_starve(self, big_trace):
        tr, part = big_trace
        pi_b, pi_a = sim.empirical_pi(tr)
        kappa_b, kappa_a = kappa_uniform_exact()
        lo_bins = part.edges[1:] <= kappa_b - 0.05
        hi_bins = part.edges[:-1] >= kappa_a + 0.05
        assert np.all(pi_b[lo_bins] <= 0.001)
        assert np.all(pi_a[hi_bins] <= 0.001)

    def test_masses_bounded_by_one(self, big_trace):
        tr, _ = big_trace
        pi_b, pi_a = sim.empirical_pi(tr)
        assert pi_b.sum() <= 1.0 + 1e-9
        assert pi_a.sum() <= 1.0 + 1e-9
        assert np.all(pi_b >= 0) and np.all(pi_a >= 0)

    def test_first_interval_binned_with_initial_book(self, uniform_spec):
        # Reservoirs keep both quotes in the book from the start, so every
        # interval, the first included, lands in some bin on both sides.
        part = make_partition(10, uniform_spec)
        book = BookState(bids=[0.3], asks=[0.75], bid_reservoir=0.2, ask_reservoir=0.8)
        tr = sim.run(MatchRule(ORDINARY), book, sim.ArrivalStream(4, 1000, uniform_spec),
                     10, record_partition=part)
        assert np.array_equal(tr.occupation_b.sum(axis=1), tr.occupation_elapsed)
        assert np.array_equal(tr.occupation_a.sum(axis=1), tr.occupation_elapsed)
        one = sim.run(MatchRule(ORDINARY), book, sim.ArrivalStream(4, 1, uniform_spec),
                      1, record_partition=part)
        assert one.occupation_b[1, part.index(0.3)] == 0.5
        assert one.occupation_a[1, part.index(0.75)] == 0.5

    def test_zero_elapsed_rejected(self, uniform_spec):
        part = make_partition(10, uniform_spec)
        tr = sim.run(MatchRule(ORDINARY), BookState(),
                     sim.ArrivalStream(0, 0, uniform_spec), 10,
                     record_partition=part)
        with pytest.raises(ValueError):
            sim.empirical_pi(tr)


class TestRunningMaxBand:
    def test_band_edges_in_prices(self):
        # a bid at lo and an ask just below hi count; a bid just below lo and
        # an ask at hi do not; the last ask executes the bid at lo
        px = np.array([0.3, np.nextafter(0.3, 0), 0.7, np.nextafter(0.7, 0), 0.25])
        is_bid = np.array([True, True, False, False, False])
        arr = sim.Arrivals(is_bid, px, 0.5 * np.arange(1, 6), 0.5)
        tr = sim.run_arrivals(MatchRule(ORDINARY), BookState(), arr, 1,
                              runmax_band=(0.3, 0.7))
        assert tr.runmax_series[:, 1].tolist() == [1, 1, 1, 2, 1]
        assert tr.runmax_series[:, 2].tolist() == [1, 1, 1, 2, 2]
        assert (tr.runmax_last_jump, tr.runmax_value) == (3, 2)
        assert tr.partition is None and tr.occupation_b is None


class TestTraceExport:
    def test_csv_outputs(self, tmp_path, uniform_spec):
        part = make_partition(10, uniform_spec)
        tr = sim.run(MatchRule(ORDINARY), BookState(),
                     sim.ArrivalStream(3, 20_000, uniform_spec), 200,
                     record_partition=part)
        files = sim.write_trace_csvs(tr, tmp_path, {"n": 20_000})
        assert len(files) >= 4
        text = (tmp_path / "checkpoints.csv").read_text()
        assert text.startswith("# seed=3 config=")
        assert "T,B_inf,A_inf,beta,alpha" in text.splitlines()[1]
