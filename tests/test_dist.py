import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lobphase.dist import (BOUNDARY_MERGE_TOL, ArrivalSpec, BinPartition, PriceDist,
                           cdf_table_dist, dist_from_config, make_partition,
                           piecewise_linear_dist, refines, transform_to_uniform_bid,
                           uniform_dist, union_refinement)


def sqrt_cdf_dist() -> PriceDist:
    """Law on [0,1] with CDF sqrt(x): density 1/(2 sqrt(x)), quantile v^2."""
    return PriceDist(
        density=lambda x: 0.5 / np.sqrt(np.maximum(np.asarray(x, dtype=float), 1e-300)),
        cdf=lambda x: np.sqrt(np.clip(np.asarray(x, dtype=float), 0.0, 1.0)),
        quantile=lambda u: np.asarray(u, dtype=float) ** 2,
        support=(0.0, 1.0))


def triangular_dist() -> PriceDist:
    # density 2x on [0, 1], CDF x^2
    return piecewise_linear_dist([0.0, 1.0], [0.0, 2.0])


class TestQuantile:
    def test_uniform_identity(self):
        assert uniform_dist().quantile(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_uniform_endpoint(self):
        assert uniform_dist().quantile(0.0) == 0.0

    def test_triangular_quarter(self):
        # oracle: F(x) = x^2, so Q(0.25) solves x^2 = 0.25
        expected = math.sqrt(0.25)
        assert triangular_dist().quantile(0.25) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dist", [
        uniform_dist(),
        triangular_dist(),
        piecewise_linear_dist([0.0, 0.3, 1.0], [0.5, 2.0, 0.2]),
        cdf_table_dist([0.0, 0.4, 1.0], [0.0, 0.3, 1.0]),
    ])
    def test_density_normalized_by_quadrature(self, dist):
        lo, hi = dist.support
        mass, _ = quad(lambda x: float(dist.density(x)), lo, hi, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_exact_inversions_tight(self):
        us = np.linspace(0.0, 1.0, 101)
        for d in (uniform_dist(), triangular_dist()):
            assert np.max(np.abs(d.cdf(d.quantile(us)) - us)) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            triangular_dist().quantile(1.5)
        with pytest.raises(ValueError):
            triangular_dist().quantile(-0.1)

    @pytest.mark.parametrize("dist", [
        uniform_dist(),
        uniform_dist(-2.0, 3.0),
        triangular_dist(),
        piecewise_linear_dist([0.0, 0.3, 1.0], [0.5, 2.0, 0.2]),
        cdf_table_dist(np.linspace(0, 1, 21), np.linspace(0, 1, 21) ** 2 * 0.5
                       + np.linspace(0, 1, 21) * 0.5),
    ])
    def test_round_trip(self, dist):
        us = np.linspace(0.0, 1.0, 201)
        back = dist.cdf(dist.quantile(us))
        assert np.max(np.abs(back - us)) < 1e-10

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_hypothesis(self, u):
        d = piecewise_linear_dist([0.0, 0.25, 0.8, 1.0], [1.0, 3.0, 0.1, 1.0])
        assert abs(float(d.cdf(d.quantile(u))) - u) < 1e-10


def reference_quantile(xs, ys):
    """The piecewise-linear quantile as it was written before each segment's
    branch was chosen once per law: both branches through masked divisions,
    then a select.  Returns the quantile and the CDF at the knots."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    ys = ys / float(np.trapezoid(ys, xs))
    dx = np.diff(xs)
    slopes = np.diff(ys) / dx
    cum = np.concatenate([[0.0], np.cumsum((ys[:-1] + ys[1:]) / 2 * dx)])
    cum[-1] = 1.0

    def quantile_fn(u):
        u = np.asarray(u, dtype=float)
        i = np.searchsorted(cum[1:-1], u, side="right")
        t = u - cum[i]
        y0, s = ys[i], slopes[i]
        lin = np.divide(t, y0, out=np.zeros_like(t), where=y0 > 0)
        disc = np.maximum(y0 * y0 + 2 * s * t, 0.0)
        quad = np.divide(np.sqrt(disc) - y0, s, out=lin.copy(), where=s != 0)
        d = np.where(np.abs(s) * dx[i] < 1e-14 * np.maximum(y0, 1e-300), lin, quad)
        return np.clip(xs[i] + d, xs[0], xs[-1])

    return quantile_fn, cum


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 0.5, 1.0], [0.0, 2.0, 0.0]),                 # the tent: quadratic only
    ([0.0, 0.3, 0.6, 1.0], [1.0, 1.0, 2.0, 0.5]),       # a flat first segment
    ([0.0, 0.2, 0.5, 1.0], [0.0, 0.0, 1.5, 1.5]),       # zero density, then flat
    ([0.0, 0.4, 1.0], [0.0, 1.0, 1.0]),                 # density from zero, then flat
    ([0.0, 0.5, 0.8, 1.0], [1.0, 1.0, 0.0, 0.0]),       # flat, falling, zero at the end
], ids=["tent", "flat_segment", "zero_then_flat", "from_zero", "zero_at_the_end"])
def test_quantile_equals_both_branch_expression(xs, ys):
    reference, cum = reference_quantile(xs, ys)
    law = piecewise_linear_dist(xs, ys)
    knots = np.clip(np.concatenate((cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0))),
                    0.0, 1.0)
    us = np.concatenate((np.random.default_rng(17).random(100_000), knots))
    assert law.quantile(us).tobytes() == reference(us).tobytes()
    for u in knots:     # one price at a time takes the scalar path
        assert float(law.quantile(u)).hex() == float(reference(u)).hex()


def test_quadratic_segment_from_a_subnormal_density_does_not_overflow():
    # t / density overflows on the last segment, which is quadratic: no
    # quotient may be taken there (pytest turns the warning into an error)
    law = piecewise_linear_dist([0, 1, 2, 3], [0, 1e-320, 1e-320, 1])
    top = np.nextafter(1.0, 0.0)
    assert float(law.quantile(top)) == float(law.quantile(np.array([0.5, top]))[1]) == 3.0


@pytest.mark.parametrize("scale", [5e-324, 1e-320, 1e308])
def test_density_whose_mass_underflows_or_overflows_is_normalized(scale):
    # the mass of [0, 5e-324] rounds to 0, that of [1e308, 1e308] on a width
    # of 3 to inf: such a law is the same law as its rescaled densities
    law = piecewise_linear_dist([0.0, 1.0, 3.0], [0.0, scale, scale])
    same = piecewise_linear_dist([0.0, 1.0, 3.0], [0.0, 1.0, 1.0])
    us = np.linspace(0.0, 1.0, 101)
    assert law.quantile(us).tobytes() == same.quantile(us).tobytes()
    assert law.density(us * 3).tobytes() == same.density(us * 3).tobytes()


class TestTransform:
    def test_uniform_fixed_point(self, uniform_spec):
        out = transform_to_uniform_bid(uniform_spec)
        xs = np.linspace(0, 1, 50)
        assert np.allclose(out.ask_dist.cdf(xs), xs, atol=1e-12)
        assert out.p_b == uniform_spec.p_b

    def test_square_bid_gives_sqrt_ask(self):
        # bid CDF x^2, uniform asks: pushforward ask CDF is F_a(Q_b(u)) = sqrt(u)
        spec = ArrivalSpec(triangular_dist(), uniform_dist())
        out = transform_to_uniform_bid(spec)
        us = np.linspace(0.0, 1.0, 10)
        assert np.allclose(out.ask_dist.cdf(us), np.sqrt(us), atol=1e-10)

    def test_bid_becomes_identity(self):
        spec = ArrivalSpec(piecewise_linear_dist([0, 0.5, 1], [0.2, 2.0, 1.0]),
                           sqrt_cdf_dist())
        out = transform_to_uniform_bid(spec)
        grid = np.linspace(0, 1, 100)
        assert np.max(np.abs(out.bid_dist.cdf(grid) - grid)) < 1e-10

    def test_mass_preserved(self):
        spec = ArrivalSpec(triangular_dist(), uniform_dist())
        out = transform_to_uniform_bid(spec)
        for a, b in [(0.1, 0.4), (0.25, 0.9), (0.0, 1.0)]:
            orig = float(spec.bid_dist.cdf(b) - spec.bid_dist.cdf(a))
            image = float(out.bid_dist.cdf(spec.bid_dist.cdf(b))
                          - out.bid_dist.cdf(spec.bid_dist.cdf(a)))
            assert abs(orig - image) < 1e-10

    def test_pushforward_lists_both_laws_knots(self):
        # tent bids kink at 0.5 (F_b = 0.5); the ask table's knots 0.2 and 0.7
        # map to F_b = 0.08 and 0.82, each the float where Q_b crosses it
        spec = ArrivalSpec(piecewise_linear_dist([0, 0.5, 1], [0, 2, 0]),
                           cdf_table_dist([0, 0.2, 0.7, 1], [0, 0.15, 0.75, 1]))
        out = transform_to_uniform_bid(spec)
        assert out.ask_dist.knots == pytest.approx([0.08, 0.5, 0.82], abs=1e-15)
        qb = spec.bid_dist.quantile
        for u, k in zip(out.ask_dist.knots, [0.2, 0.5, 0.7]):
            assert qb(np.nextafter(u, 0)) < k <= qb(np.nextafter(u, 1))

    def test_flat_cdf_rejected(self):
        flat = PriceDist(
            density=lambda x: np.where(np.asarray(x) < 0.5, 2.0, 0.0),
            cdf=lambda x: np.minimum(2.0 * np.clip(np.asarray(x, float), 0, 1), 1.0),
            quantile=lambda u: np.asarray(u, float) / 2.0,
            support=(0.0, 1.0))
        with pytest.raises(ValueError):
            transform_to_uniform_bid(ArrivalSpec(flat, uniform_dist()))


class TestMakePartition:
    def test_uniform_four_bins(self, uniform_spec):
        part = make_partition(4, uniform_spec)
        assert np.allclose(part.boundaries, [0.25, 0.5, 0.75], atol=1e-15)
        assert part.n_bins == 4

    def test_sqrt_ask_two_bins(self):
        spec = ArrivalSpec(uniform_dist(), sqrt_cdf_dist())
        part = make_partition(2, spec)
        # 1/N and Q_b(1/2) coincide at 0.5; Q_a(0.5) = 0.25
        assert np.allclose(part.boundaries, [0.25, 0.5], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_width_and_mass_bounds(self, n):
        spec = transform_to_uniform_bid(
            ArrivalSpec(triangular_dist(), sqrt_cdf_dist()))
        part = make_partition(n, spec)
        assert np.max(part.widths()) <= 1.0 / n + 1e-9
        assert np.max(part.masses(spec.bid_dist)) <= 1.0 / n + 1e-9
        assert np.max(part.masses(spec.ask_dist)) <= 1.0 / n + 1e-9

    def test_rejects_small_n(self, uniform_spec):
        with pytest.raises(ValueError):
            make_partition(1, uniform_spec)

    def test_rejects_unnormalized_support(self):
        spec = ArrivalSpec(uniform_dist(0, 2), uniform_dist(0, 2))
        with pytest.raises(ValueError):
            make_partition(4, spec)

    def test_index_left_closed(self, uniform_spec):
        part = make_partition(4, uniform_spec)
        assert part.index(0.25) == 1       # boundary goes to the right bin
        assert part.index(0.2499999) == 0
        assert part.index(1.0) == 3        # last bin closed


TENT = piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
TABLE_17 = cdf_table_dist(np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 17))
INDEX_LAWS = {
    "uniform": ArrivalSpec(uniform_dist(), uniform_dist()),
    "tent": ArrivalSpec(TENT, TENT),
    "table": ArrivalSpec(TABLE_17, TABLE_17),
    "triangular_bid": transform_to_uniform_bid(ArrivalSpec(triangular_dist(), uniform_dist())),
}
# 0, 1, prices outside the support, infinities and NaN
SPECIAL_PRICES = np.array([0.0, -0.0, 1.0, -0.5, 1.5, -1e308, 1e308, np.nextafter(0.0, 1.0),
                           np.nextafter(1.0, 0.0), -np.inf, np.inf, np.nan])


@functools.lru_cache(maxsize=None)
def law_partition(n_bins: int, law: str) -> BinPartition:
    return make_partition(n_bins, INDEX_LAWS[law])


inner_cuts = st.floats(0.001, 0.99, allow_subnormal=False)
index_partitions = st.one_of(
    st.builds(law_partition, st.integers(2, 200), st.sampled_from(sorted(INDEX_LAWS))),
    inner_cuts.map(lambda c: BinPartition((0.0, 1.0), [c])),
    # a cluster of cuts 1e-12 apart, so a price steps past up to 12 cuts of one cell
    st.builds(lambda c, k: BinPartition((0.0, 1.0), c + 1e-12 * np.arange(k)),
              inner_cuts, st.integers(2, 12)),
)


def assert_index_is_searchsorted(part: BinPartition, prices) -> None:
    got = part.index(prices)
    want = np.searchsorted(part.boundaries, prices, side="right")
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)


@given(index_partitions, st.lists(st.floats(), max_size=40))
@settings(max_examples=400, deadline=None)
def test_index_is_searchsorted(part, drawn):
    b = part.boundaries
    prices = np.concatenate((b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                             SPECIAL_PRICES, drawn))
    assert_index_is_searchsorted(part, prices)
    assert_index_is_searchsorted(part, np.stack((prices, prices[::-1])))
    assert_index_is_searchsorted(part, prices[:0])
    assert_index_is_searchsorted(part, np.empty((0, 3)))


@pytest.mark.parametrize("law", sorted(INDEX_LAWS))
@pytest.mark.parametrize("n_bins", [10, 100, 200])
def test_index_is_searchsorted_on_arrival_prices(law, n_bins):
    spec, rng = INDEX_LAWS[law], np.random.default_rng(n_bins)
    prices = np.concatenate((spec.bid_dist.quantile(rng.random(10_000)),
                             spec.ask_dist.quantile(rng.random(10_000))))
    assert_index_is_searchsorted(law_partition(n_bins, law), prices)


@pytest.mark.parametrize("support", [(0.0, np.inf), (1.0, 1.0), (2.0, 1.0), (np.nan, 1.0)])
def test_degenerate_support_rejected(support):
    with pytest.raises(ValueError, match="support"):
        BinPartition(support, np.array([]))


class TestRefines:
    def test_subset_boundaries(self):
        fine = BinPartition((0, 1), np.array([0.25, 0.5, 0.75]))
        coarse = BinPartition((0, 1), np.array([0.5]))
        assert refines(fine, coarse)
        assert not refines(coarse, fine)

    def test_reflexive(self):
        p = BinPartition((0, 1), np.array([0.3, 0.6]))
        assert refines(p, p)

    def test_disjoint_boundaries(self):
        assert not refines(BinPartition((0, 1), np.array([0.3])),
                           BinPartition((0, 1), np.array([0.5])))

    def test_uniform_multiples(self, uniform_spec):
        assert refines(make_partition(100, uniform_spec),
                       make_partition(10, uniform_spec))
        assert refines(make_partition(8, uniform_spec),
                       make_partition(4, uniform_spec))

    @pytest.mark.parametrize("offset, expected", [(5e-13, True), (-5e-13, True),
                                                  (5e-12, False), (-5e-12, False)])
    def test_cut_within_merge_tolerance_counts_as_one(self, offset, expected):
        fine = BinPartition((0, 1), np.array([0.25, 0.5, 0.75]))
        coarse = BinPartition((0, 1), np.array([0.5 + offset]))
        assert refines(fine, coarse) is expected

    def test_mismatched_supports_raise(self):
        fine = BinPartition((0, 1), np.array([0.25, 0.5, 0.75]))
        with pytest.raises(ValueError, match="supports"):
            refines(fine, BinPartition((0, 2), np.array([0.5])))

    def test_supports_apart_by_more_than_the_tolerance_raise(self):
        # 5e-6 apart: within allclose's default relative tolerance, far outside
        # BOUNDARY_MERGE_TOL
        a = BinPartition((0, 1), [0.5])
        b = BinPartition((0, 1.000005), [1.0000001])
        for check in (union_refinement, refines):
            with pytest.raises(ValueError, match="partitions live on different supports"):
                check(a, b)

    def test_union_refines_both(self, uniform_spec):
        a = make_partition(6, uniform_spec)
        b = BinPartition((0, 1), np.array([0.21, 0.77]))
        u = union_refinement(a, b)
        assert refines(u, a) and refines(u, b)


# offsets that merge a cut into its neighbour and ones that keep it apart
MERGE_OFFSETS = [0.0, 0.4 * BOUNDARY_MERGE_TOL, -0.9 * BOUNDARY_MERGE_TOL,
                 BOUNDARY_MERGE_TOL, 3 * BOUNDARY_MERGE_TOL, -1e-6]


@st.composite
def partition_pairs(draw):
    """Two partitions of [0, 1]: `fine`, whose cuts may lie within the merge
    tolerance of each other, and `coarse`, drawn from fine's cuts, each moved
    by one of MERGE_OFFSETS, and cuts of its own."""
    def partition(cuts):
        b = np.unique(cuts)
        return BinPartition((0.0, 1.0), b[(0.0 < b) & (b < 1.0)])

    base = draw(st.lists(st.floats(0.01, 0.99), max_size=12))
    twins = [c + draw(st.sampled_from(MERGE_OFFSETS)) for c in base[:draw(st.integers(0, 3))]]
    fine = partition(base + twins)
    kept = [c + draw(st.sampled_from(MERGE_OFFSETS)) for c in fine.boundaries.tolist()
            if draw(st.booleans())]
    return fine, partition(kept + draw(st.lists(st.floats(0.01, 0.99), max_size=2)))


@given(partition_pairs())
@settings(max_examples=300, deadline=None)
def test_refines_counts_the_union_of_cuts(pair):
    fine, coarse = pair
    assert refines(fine, coarse) == (union_refinement(fine, coarse).n_bins == fine.n_bins)


class TestConfig:
    def test_uniform_config(self):
        d = dist_from_config({"kind": "uniform", "lo": 0.0, "hi": 1.0})
        assert d.kind == "uniform"

    def test_cdf_table_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("# comment\nprice,cum\n0.0,0.0\n0.5,0.6\n1.0,1.0\n")
        d = dist_from_config({"kind": "cdf_table", "path": str(path)})
        assert float(d.cdf(0.5)) == pytest.approx(0.6)
        assert float(d.quantile(0.6)) == pytest.approx(0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dist_from_config({"kind": "gaussian"})

    def test_table_requires_monotone(self):
        with pytest.raises(ValueError):
            cdf_table_dist([0.0, 0.5, 1.0], [0.0, 0.7, 0.6])
