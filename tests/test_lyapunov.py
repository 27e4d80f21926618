import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

from lobphase import book, lyapunov, sim
from lobphase.dist import ArrivalSpec, make_partition, uniform_dist
from lobphase.lyapunov import (DRIFT_REGIONS, LEVEL_VERTICES,
                               NORMAL_BY_REGION, PUBLISHED_DRIFTS, certify_drift,
                               check_geometric_bound, compatible, drift_dot,
                               enumerated_drift_affine, region_bins,
                               running_max_evidence, simulate_5bin,
                               verify_level_fixture)
from lobphase.sim import ArrivalStream, materialize

from helpers import match_arrivals, polytope_gauge


def enum_table():
    return {c: enumerated_drift_affine(c) for c in DRIFT_REGIONS}


class TestRegions:
    def test_ten_codes(self):
        assert len(lyapunov.REGIONS) == 10 and len(DRIFT_REGIONS) == 9

    def test_region_bins_roundtrip(self):
        assert region_bins("+++") == (4, 5)
        assert region_bins("---") == (1, 2)
        assert region_bins("+0-") == (2, 4)

    def test_pattern_identification(self):
        x = np.array([(0, 1, 1), (1, 0, 1), (1, 0, -1), (0, 0, 0), (-2, 0, 0)])
        codes = [lyapunov.REGIONS[lyapunov._REGION_CELLS.index(c)]
                 for c in book._five_bin_cells(x)]
        assert codes == ["+++", "+++", "+0-", "000", "---"]   # 0++ not distinguished

    def test_inconsistent_pattern_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            book._five_bin_cells(np.array([(1, 1, 1), (-1, 0, 1)]))  # asks left of bids

    def test_compatible(self):
        assert compatible("+++", "++0")
        assert compatible("+--", "+00")
        assert not compatible("---", "++0")
        assert not compatible("+0-", "++0")


class TestDriftDot:
    def test_published_examples(self):
        assert drift_dot("+++", "+++", 0) == F(-2, 5)
        assert drift_dot("++-", "++-", 0) == F(-4, 5)
        assert drift_dot("+++", "++0", 0) == F(-1, 15)

    def test_eps_terms_cancel_on_own_face(self):
        for e in (0, F(1, 100), F(1, 8)):
            assert drift_dot("++-", "++-", e) == F(-4, 5)

    def test_incompatible_pair_rejected(self):
        with pytest.raises(ValueError):
            drift_dot("---", "+++", 0)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            drift_dot("+++", "000", 0)


class TestCertify:
    def test_passes_at_zero(self):
        cert = certify_drift(0)
        assert cert.passed
        # tightest product at eps = 0 (regression pin)
        assert cert.min_margin_at_zero == F(-1, 25)

    def test_admissible_limit_is_one_thirtieth(self):
        cert = certify_drift(F(1, 40))
        assert cert.passed
        assert cert.eps_star == F(1, 30)

    def test_break_reported_exactly(self):
        cert = certify_drift(F(1, 20))
        assert not cert.passed
        assert ("++-", "+0-") in [(d, n) for d, n, *_ in cert.failures]

    def test_tampered_normals_fail(self):
        bad = {**NORMAL_BY_REGION, "+++": (F(1), F(1), F(-1))}
        cert = certify_drift(0, normals=bad)
        assert not cert.passed
        assert ("+++", "+++") in [(d, n) for d, n, *_ in cert.failures]

    def test_render_text(self):
        text = certify_drift(0).render_text()
        assert "PASS" in text and "+++" in text

    def test_domain(self):
        with pytest.raises(ValueError):
            certify_drift(F(1, 5))


class TestEnumeratedDrift:
    def test_reflection_symmetry(self):
        # mirroring prices swaps sides: reverse coordinates and flip signs
        mirror = {"+++": "---", "++0": "0--", "++-": "+--", "+00": "00-",
                  "+0-": "+0-", "000": "000"}
        mirror.update({v: k for k, v in mirror.items()})
        for code in DRIFT_REGIONS:
            image = enumerated_drift_affine(mirror[code])
            expect = tuple((-c0, -c1) for c0, c1 in
                           reversed(enumerated_drift_affine(code)))
            assert image == expect, code

    def test_mass_accounting(self):
        # total inflow minus outflow over coordinates is bounded by arrival rate 2
        for code in DRIFT_REGIONS:
            vec = enumerated_drift_affine(code)
            total = sum(abs(c0) for c0, _ in vec)
            assert total <= 2

    def test_known_fixed_entries(self):
        # hand-derived spot checks, confirmed against simulation
        assert enumerated_drift_affine("+++") == (
            (F(1, 5), F(-1)), (F(1, 5), F(0)), (F(-3, 5), F(0)))
        assert enumerated_drift_affine("+00") == (
            (F(-1, 5), F(-1)), (F(0), F(0)), (F(0), F(0)))

    def test_differs_from_published_table(self):
        # The published vectors omit joins into the bin holding the same
        # side's best order and mis-sum two execution rates; every region
        # disagrees with the exact one-arrival enumeration somewhere.
        mismatched = [c for c in DRIFT_REGIONS
                      if enumerated_drift_affine(c) != PUBLISHED_DRIFTS[c]]
        assert len(mismatched) == 9

    def test_enumerated_table_certifies_inside_window(self):
        # the published normals do certify the exact drifts, but only for
        # eps above 2/35
        table = enum_table()
        good = certify_drift(F(3, 25), drifts=table)
        assert all(v1 < 0 for _, _, _, v1, _ in good.entries)
        bad = certify_drift(F(1, 100), drifts=table)
        assert not bad.passed


class TestPolytopeFixture:
    def test_gauge_is_one_on_all_nonorigin_vertices(self):
        for vid, vert in enumerate(LEVEL_VERTICES, start=1):
            g = polytope_gauge(vert)
            assert g == (0 if vid == 1 else 1), (vid, g)

    def test_named_vertex_examples(self):
        rep = verify_level_fixture()
        assert "+++" in rep.vertex_attains[2]    # (0, 1, 0)
        assert "++0" in rep.vertex_attains[8]    # (3/4, 0, 0)
        assert "0--" in rep.vertex_attains[14]   # (-1/2, 0, 0)

    def test_six_faces_have_unique_normals(self):
        rep = verify_level_fixture()
        single = {fi: labels for fi, labels in rep.face_normals.items()
                  if len(labels) == 1}
        assert {labels[0] for labels in single.values()} == {
            "+++", "++-", "+--", "++0", "+0-", "0--"}
        assert len(single) == 6

    def test_discrepancies_reported_not_asserted(self):
        rep = verify_level_fixture()
        # four coordinate-plane faces through the origin plus the origin vertex
        assert len(rep.discrepancies) == 5
        assert any("vertex 1" in d for d in rep.discrepancies)

    def test_csv_rows_complete(self):
        rep = verify_level_fixture()
        assert len(rep.csv_rows()) == 15 * 7


@pytest.fixture(scope="module")
def five_bin_report():
    return simulate_5bin(0.01, 200_000, seed=11)


class TestFiveBinSimulation:
    @pytest.fixture()
    def report(self, five_bin_report):
        return five_bin_report

    def test_empirical_drift_matches_enumeration(self, report):
        # per-arrival jumps are bounded by 1, so se <= 1/sqrt(visits); the
        # published convention carries a factor 2 (one unit of time = two
        # arrivals on average)
        for code, stt in report.regions.items():
            if stt.visits < 3000:
                continue
            emp = 2.0 * stt.mean_dx()
            exact = [float(c0 + c1 * report.eps)
                     for c0, c1 in enumerated_drift_affine(code)]
            tol = 5.0 * 2.0 / math.sqrt(stt.visits)
            assert np.max(np.abs(emp - np.asarray(exact))) <= tol, code

    def test_empirical_drift_rejects_published_vector_somewhere(self, report):
        rejections = 0
        for code, stt in report.regions.items():
            if stt.visits < 3000:
                continue
            emp = 2.0 * stt.mean_dx()
            printed = [float(c0 + c1 * report.eps)
                       for c0, c1 in PUBLISHED_DRIFTS[code]]
            tol = 5.0 * 2.0 / math.sqrt(stt.visits)
            if np.max(np.abs(emp - np.asarray(printed))) > tol:
                rejections += 1
        assert rejections >= 3

    def test_all_visits_in_valid_regions(self, report):
        assert sum(s.visits for s in report.regions.values()) <= report.n_events
        assert report.excursion_lengths  # the gauge does exceed K occasionally

    def test_strong_drift_inside_window(self):
        # eps = 0.1 lies inside the exact certificate window (2/35, 1/5):
        # every region that accumulates high-gauge visits contracts
        rep = simulate_5bin(0.1, 300_000, seed=11)
        seen = 0
        for code, stt in rep.regions.items():
            if stt.visits_hi >= 2000:
                seen += 1
                assert stt.mean_dgauge() + 3 * stt.se_dgauge() < 0, code
        assert seen >= 1


def five_bin_changes(eps, n, seed):
    """(bins, changed_bid, sign) of simulate_5bin's run, as it passes them."""
    part = lyapunov.five_bin_partition(eps)
    lo_mid = 0.5 * (0.2 + eps)
    state = book.BookState(bid_reservoir=lo_mid, ask_reservoir=1.0 - lo_mid)
    arr = materialize(ArrivalStream(seed, n, ArrivalSpec(uniform_dist(), uniform_dist())))
    log = match_arrivals(state, book.MatchRule(book.ORDINARY_BINNED, part), arr.is_bid,
                         arr.prices)
    return part.index(log.price), log.changed_bid, log.sign


@pytest.fixture(scope="module")
def c_kernel():
    kernel = book._load_kernel()
    if kernel.name != "c":
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    return kernel


def as_bytes(sums):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in sums]


def five_bin_pass(five_bin, changes, K, splits=()):
    """The bytes of the region pass's sums and of its `above` over a run's
    changes, fed in pieces cut at `splits` with the sums carried between."""
    sums = book.FiveBinSums.zeros()
    cuts = [0, *splits, changes[0].size]
    above = [five_bin(sums, *(c[lo:hi] for c in changes), lyapunov._GAUGE_NORMALS, K)
             for lo, hi in zip(cuts, cuts[1:])]
    return as_bytes([*sums, np.concatenate(above)])


# K = -1 puts every state above K, K = 0 all but the origin, and 1e9 none
@pytest.mark.parametrize("eps, n, seed", [(0.01, 50_000, 4), (0.1, 50_000, 11),
                                          (0.05, 257, 2), (0.01, 0, 1)])
@pytest.mark.parametrize("K", [-1.0, 0.0, 1.0, 20.0, 1e9])
def test_c_five_bin_matches_numpy(c_kernel, eps, n, seed, K):
    changes = five_bin_changes(eps, n, seed)
    sums = book.FiveBinSums.zeros()
    above = c_kernel.five_bin(sums, *changes, lyapunov._GAUGE_NORMALS, K)
    assert five_bin_pass(c_kernel.five_bin, changes, K) == \
        five_bin_pass(book._five_bin_sums, changes, K)
    if n and K == 1e9:
        assert not above.any() and not sums.visits_hi.any()
    if n and K == -1.0:
        assert above.all()


@pytest.mark.parametrize("eps, n, seed", [(0.01, 50_000, 4), (0.1, 20_000, 11), (0.05, 257, 2)])
@pytest.mark.parametrize("K", [0.0, 1.0, 20.0])
def test_five_bin_passes_carry_their_state_between_pieces(c_kernel, eps, n, seed, K):
    # pieces of 1, 254, 2 and the rest (none at 257 events): the state, the
    # sums and the gauge before each piece come from the pieces before it;
    # the C pass over the whole run equals the numpy one, as tested above
    changes = five_bin_changes(eps, n, seed)
    whole = five_bin_pass(book._five_bin_sums, changes, K)
    for five_bin in (c_kernel.five_bin, book._five_bin_sums):
        assert five_bin_pass(five_bin, changes, K, splits=(1, 255, 257)) == whole


def test_five_bin_rejects_bins_out_of_range(c_kernel):
    bins, changed_bid, sign = (np.array([2, 1, 3]), np.ones(3, dtype=bool),
                               np.ones(3, dtype=np.int8))
    sums, normals = book.FiveBinSums.zeros(), lyapunov._GAUGE_NORMALS
    for bad in (bins - 3, bins + 2):
        with pytest.raises(ValueError, match="outside 0..4"):
            c_kernel.five_bin(sums, bad, changed_bid, sign, normals, 0.0)
    with pytest.raises(ValueError, match="length"):
        c_kernel.five_bin(sums, bins[:2], changed_bid, sign, normals, 0.0)
    with pytest.raises(ValueError, match="shape"):
        c_kernel.five_bin(sums, bins, changed_bid, sign, normals[:, :2], 0.0)


def test_five_bin_rejects_sums_laid_out_otherwise(c_kernel):
    changes = (np.array([2, 1, 3]), np.ones(3, dtype=bool), np.ones(3, dtype=np.int8))
    good = book.FiveBinSums.zeros()
    bad = [good._replace(dx_sum=good.dx_sum.astype(np.int64)),     # dtype
           good._replace(x=np.zeros(2, dtype=np.int64)),            # shape
           good._replace(dgauge_sq=np.zeros(2 * book.FIVE_BIN_CELLS)[::2])]   # strides
    for sums in bad:
        with pytest.raises(ValueError, match="laid out"):
            c_kernel.five_bin(sums, *changes, lyapunov._GAUGE_NORMALS, 0.0)
    c_kernel.five_bin(good, *changes, lyapunov._GAUGE_NORMALS, 0.0)
    assert good.x.tolist() == [1, 1, 1]


def test_both_five_bin_passes_reject_an_inconsistent_state(c_kernel):
    # a bid joins bin 3, then an ask joins bin 2 below it: the third change
    # starts from bids above asks
    bins, changed_bid = np.array([3, 2, 1]), np.array([True, False, True])
    sign = np.ones(3, dtype=np.int8)
    for five_bin in (c_kernel.five_bin, book._five_bin_sums):
        with pytest.raises(ValueError, match=re.escape("inconsistent sign pattern (0, -1, 1)")):
            five_bin(book.FiveBinSums.zeros(), bins, changed_bid, sign,
                     lyapunov._GAUGE_NORMALS, 0.0)


class TestGeometricBound:
    def test_symmetric_cuts_give_half(self, uniform_spec):
        rep = check_geometric_bound(0.4, 0.6, uniform_spec, 100_000, seed=5)
        assert rep.rho_bid == pytest.approx(0.5)
        assert rep.rho_ask == pytest.approx(0.5)
        assert rep.passed

    def test_published_feasible_cuts(self, uniform_spec):
        rep = check_geometric_bound(0.35, 0.65, uniform_spec, 50_000, seed=5)
        assert rep.passed

    def test_narrow_band_nearly_empty(self, uniform_spec):
        rep = check_geometric_bound(0.49, 0.5, uniform_spec, 50_000, seed=5)
        assert rep.rho_bid < 0.03
        empirical_ge1 = rep.bid_tail[0][1]
        assert empirical_ge1 <= 0.05

    @pytest.mark.parametrize("chunk", [7, 4096, 2**62])
    def test_report_does_not_depend_on_the_chunk(self, uniform_spec, monkeypatch, chunk):
        # checkpoints every 50 arrivals fall on, after and before chunk edges
        want = check_geometric_bound(0.4, 0.6, uniform_spec, 20_001, seed=3)
        monkeypatch.setattr(sim, "CHUNK", chunk)
        assert check_geometric_bound(0.4, 0.6, uniform_spec, 20_001, seed=3) == want

    def test_precondition_violation_raises(self, uniform_spec):
        with pytest.raises(ValueError):
            check_geometric_bound(0.1, 0.9, uniform_spec, 1000, seed=0)

    def test_no_arrivals_is_refused(self, uniform_spec):
        with pytest.raises(ValueError, match="no samples"):
            check_geometric_bound(0.4, 0.6, uniform_spec, 0, seed=0)
        assert check_geometric_bound(0.4, 0.6, uniform_spec, 1, seed=0).n_samples == 1


class TestRunningMax:
    def test_empty_run(self, uniform_spec):
        ev = running_max_evidence(uniform_spec, 0, seed=0, series=True)
        assert ev.last_jump_index == -1 and ev.max_value == 0
        assert ev.series.shape == (0, 3)

    def test_default_bins_bracket_thresholds(self, uniform_spec):
        ev = running_max_evidence(uniform_spec, 20_000, seed=1)
        assert (ev.k_b, ev.k_a) == (21, 78)
        assert 0 <= ev.last_jump_index < 20_000
        assert ev.max_value > 0

    def test_series_emission(self, uniform_spec):
        ev = running_max_evidence(uniform_spec, 5_000, seed=1, series=True)
        assert ev.series.shape == (5_000, 3)
        assert np.all(np.diff(ev.series[:, 2]) >= 0)  # running max is monotone


@pytest.mark.parametrize("n_bins", [2, 10, 100, 200])
def test_band_prices_match_bins(n_bins, uniform_spec, rng):
    part = make_partition(n_bins, uniform_spec)
    cuts = part.boundaries
    prices = np.concatenate((cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
                             [0.0, 1.0], rng.random(1000)))
    bins = part.index(prices)
    for k in range(-2, part.n_bins + 2):
        lo, hi = lyapunov._band_prices(part, k, k)
        assert np.array_equal(prices >= lo, bins > k), k
        assert np.array_equal(prices < hi, bins < k), k
