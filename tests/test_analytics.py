import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.special import lambertw

from lobphase import analytics
from lobphase.analytics import (InfeasibleBalanceError, ShootingError,
                                finiteness_lower_bound,
                                integrate_varpi, kappa_uniform_exact,
                                lambert_w_of_inv_e, lower_bound_3bin,
                                shoot_kappa, solve_binned_pi,
                                varpi_uniform_exact)
from lobphase.dist import (ArrivalSpec, cdf_table_dist, make_partition,
                           piecewise_linear_dist, transform_to_uniform_bid,
                           uniform_dist)
from lobphase.lyapunov import running_max_evidence

from helpers import finiteness_exact_scan


def uniform_table_spec() -> ArrivalSpec:
    """The uniform law as a 17-row CDF table: its density is 1 between knots."""
    xs = np.linspace(0.0, 1.0, 17)
    return ArrivalSpec(cdf_table_dist(xs, xs), cdf_table_dist(xs, xs))


ASYMMETRIC_BID = ([0.0, 0.25, 0.5, 0.8, 1.0], [0.0, 0.2, 0.55, 0.85, 1.0])
ASYMMETRIC_ASK = ([0.0, 0.3, 0.6, 1.0], [0.0, 0.25, 0.7, 1.0])


def asymmetric_table_spec() -> ArrivalSpec:
    """Different tabulated bid and ask laws, so no symmetry hides an error."""
    return ArrivalSpec(cdf_table_dist(*ASYMMETRIC_BID), cdf_table_dist(*ASYMMETRIC_ASK))


def knot_restarted_reference(kappa_b: float, grid_n: int,
                             tables=(ASYMMETRIC_BID, ASYMMETRIC_ASK)):
    """(u, v) of the bid and ask CDF `tables` by DOP853 restarted at every knot and grid point.

    The grid is `integrate_varpi`'s.  A table's density is constant between
    its knots, so each cell reads it once, at the cell's midpoint: no step
    meets a jump in the coefficients.
    """
    bid, ask = tables
    spec = ArrivalSpec(cdf_table_dist(*bid), cdf_table_dist(*ask))
    F_a, F_b = spec.ask_dist.cdf, spec.bid_dist.cdf
    kappa_a = float(spec.ask_dist.quantile(1.0 - float(F_b(kappa_b))))
    grid = np.linspace(kappa_b, kappa_a, grid_n)
    knots = np.array(list(bid[0]) + list(ask[0]))
    mesh = np.union1d(grid, knots[(knots > kappa_b) & (knots < kappa_a)])
    y = np.array([1.0, 0.0])
    path = [y]
    for x0, x1 in zip(mesh[:-1], mesh[1:]):
        mid = (x0 + x1) / 2
        f_a, f_b = float(spec.ask_dist.density(mid)), float(spec.bid_dist.density(mid))

        def rhs(x, y):
            return (-f_a / (1.0 - float(F_b(x))) * y[1], f_b / float(F_a(x)) * y[0])

        y = solve_ivp(rhs, (x0, x1), y, method="DOP853", rtol=1e-13,
                      atol=1e-15).y[:, -1]
        path.append(y)
    return np.array(path)[np.searchsorted(mesh, grid)].T


class TestLambertFixedPoint:
    def test_residual(self):
        w = lambert_w_of_inv_e()
        assert abs(w * math.exp(w) - math.exp(-1)) <= 1e-14

    def test_bracket(self):
        g = lambda w: w * math.exp(w)
        assert g(0.2) < math.exp(-1) < g(0.3)

    def test_against_scipy(self):
        assert abs(lambert_w_of_inv_e() - float(lambertw(math.exp(-1)).real)) <= 1e-14


class TestKappaExact:
    def test_value_window(self):
        kb, ka = kappa_uniform_exact()
        assert 0.2177 <= kb <= 0.2179
        assert ka == 1.0 - kb

    def test_boundary_identity(self):
        kb, _ = kappa_uniform_exact()
        assert abs(1.0 / (1.0 - kb) + math.log(kb / (1.0 - kb))) <= 1e-12


class TestVarpiClosedForm:
    def test_left_endpoint_is_inverse_kappa(self):
        kb, _ = kappa_uniform_exact()
        assert varpi_uniform_exact(kb) == pytest.approx(1.0 / kb, abs=1e-10)
        assert varpi_uniform_exact(kb) == pytest.approx(4.5911, abs=2e-4)

    def test_midpoint(self):
        kb, _ = kappa_uniform_exact()
        assert varpi_uniform_exact(0.5) == pytest.approx(2.0 * (1.0 - kb), abs=1e-12)

    def test_right_endpoint_vanishes(self):
        _, ka = kappa_uniform_exact()
        assert abs(varpi_uniform_exact(ka)) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            varpi_uniform_exact(0.1)

    def test_scalar_equals_the_array_call_bit_for_bit(self):
        # both ends, the 1e-12 clip zone on either side of each, and the inside
        kb, ka = kappa_uniform_exact()
        grid = np.concatenate([np.linspace(kb, ka, 257),
                               [kb - 1e-12, kb - 5e-13, np.nextafter(kb, 0.0),
                                np.nextafter(kb, 1.0), kb + 1e-12,
                                ka - 1e-12, np.nextafter(ka, 0.0), np.nextafter(ka, 1.0),
                                ka + 5e-13, ka + 1e-12, 0.5]])
        whole = varpi_uniform_exact(grid)
        for x, want in zip(grid.tolist(), whole.tolist()):
            for scalar in (x, np.float64(x)):
                got = varpi_uniform_exact(scalar)
                assert type(got) is float and got.hex() == want.hex(), (x, got, want)

    def test_scalar_nan_and_domain(self):
        kb, ka = kappa_uniform_exact()
        for nan in (math.nan, np.float64("nan")):
            assert math.isnan(varpi_uniform_exact(nan))
        assert math.isnan(varpi_uniform_exact(np.array([math.nan]))[0])
        for bad in (kb - 2e-12, ka + 2e-12, 0.0, 1.0, -math.inf, math.inf):
            for x in (bad, np.float64(bad), np.array([bad])):
                with pytest.raises(ValueError):
                    varpi_uniform_exact(x)


class TestIntegrateVarpi:
    def test_initial_values(self, uniform_spec):
        kb, _ = kappa_uniform_exact()
        grid, u, v, _ = integrate_varpi(uniform_spec, kb)
        assert u[0] == 1.0 and v[0] == 0.0

    def test_terminal_values_at_exact_kappa(self, uniform_spec):
        kb, _ = kappa_uniform_exact()
        _, _, v, u_end = integrate_varpi(uniform_spec, kb)
        assert abs(u_end) <= 1e-6
        assert abs(v[-1] - 1.0) <= 1e-4

    def test_sign_flip_brackets_threshold(self, uniform_spec):
        lo = integrate_varpi(uniform_spec, 0.15)[3]
        hi = integrate_varpi(uniform_spec, 0.30)[3]
        assert lo * hi < 0

    def test_rejects_out_of_range_level(self, uniform_spec):
        with pytest.raises(ValueError):
            integrate_varpi(uniform_spec, 0.75)

    @pytest.mark.parametrize("grid_n", [1, 0, -3])
    def test_rejects_a_grid_without_both_ends(self, uniform_spec, grid_n):
        # grid_n=1 returned u_end = 1.0, the value at the start, and 0 raised
        # IndexError
        with pytest.raises(ValueError, match=f"grid_n={grid_n}"):
            integrate_varpi(uniform_spec, 0.2, grid_n=grid_n)

    def test_two_points_are_the_ends(self, uniform_spec):
        grid, u, v, u_end = integrate_varpi(uniform_spec, 0.2, grid_n=2)
        assert grid.size == 2 and u[0] == 1.0 and u_end == u[-1] != 1.0


class TestShooting:
    def test_uniform_matches_closed_form(self, uniform_spec):
        sol = shoot_kappa(uniform_spec, tol=1e-10)
        kb, ka = kappa_uniform_exact()
        assert abs(sol.kappa_b - kb) <= 1e-6
        assert abs(sol.kappa_a - ka) <= 1e-6
        exact = varpi_uniform_exact(np.clip(sol.grid, kb, ka))
        assert np.max(np.abs(sol.varpi_b - exact)) <= 1e-4
        assert abs(sol.v_end - 1.0) <= 1e-4

    def test_solution_invariants(self, uniform_spec):
        sol = shoot_kappa(uniform_spec, tol=1e-10)
        fb = float(uniform_spec.bid_dist.cdf(sol.kappa_b))
        fa = float(uniform_spec.ask_dist.cdf(sol.kappa_a))
        assert abs(fb - (1.0 - fa)) <= 1e-9
        assert np.all(sol.varpi_b >= -1e-12)
        assert np.all(sol.varpi_a >= -1e-12)
        assert abs(sol.mass_b - 1.0) <= 1e-4
        assert abs(sol.mass_a - 1.0) <= 1e-4
        # left boundary value 1/F_a(kappa_b), vanishing right boundary
        assert sol.varpi_b[0] == pytest.approx(
            1.0 / float(uniform_spec.ask_dist.cdf(sol.kappa_b)), rel=1e-6)
        assert abs(sol.varpi_b[-1]) <= 1e-4

    def test_symmetric_spec_reflects(self):
        # triangular tent density, symmetric under x -> 1-x on both sides
        tent = piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
        spec = ArrivalSpec(tent, tent)
        sol = shoot_kappa(spec, tol=1e-10, fb_lower=0.05)
        assert abs(sol.kappa_a - (1.0 - sol.kappa_b)) <= 1e-8

    def test_grid_refinement_stability(self, uniform_spec):
        a = shoot_kappa(uniform_spec, tol=1e-10, grid_n=1000)
        b = shoot_kappa(uniform_spec, tol=1e-10, grid_n=2000)
        assert abs(a.kappa_b - b.kappa_b) <= 1e-8

    def test_coordinate_change_consistency(self):
        # asymmetric: triangular bids, uniform asks; thresholds transform
        # through the bid CDF
        tri = piecewise_linear_dist([0.0, 1.0], [0.0, 2.0])
        spec = ArrivalSpec(tri, uniform_dist())
        sol = shoot_kappa(spec, tol=1e-9, fb_lower=0.03)
        tspec = transform_to_uniform_bid(spec)
        tsol = shoot_kappa(tspec, tol=1e-9, fb_lower=0.03)
        assert float(spec.bid_dist.cdf(sol.kappa_b)) == pytest.approx(
            tsol.kappa_b, abs=1e-5)

    def test_root_search_stays_inside_bracket(self):
        # The bracket ends' values are given, so every evaluation is an
        # interior step; the Illinois halving keeps convergence superlinear
        # on a convex function, where plain regula falsi creeps in from one
        # side.
        calls = []

        def f(x):
            calls.append(x)
            return math.expm1(x) - 1.0

        x = analytics._illinois(f, 0.0, 4.0, -1.0, math.expm1(4.0) - 1.0, 0.0)
        assert abs(x - math.log(2.0)) <= 1e-13
        assert all(0.0 < c < 4.0 for c in calls)
        assert len(calls) <= 12

    def test_window_without_sign_change_raises(self, uniform_spec):
        # every candidate level sits above the uniform threshold mass 0.2178
        with pytest.raises(ShootingError, match="no sign change"):
            shoot_kappa(uniform_spec, fb_lower=0.4)

    def test_density_gap_is_singular(self):
        gap = piecewise_linear_dist([0, 0.4, 0.45, 0.55, 0.6, 1], [1, 1, 0, 0, 1, 1])
        with pytest.raises(analytics.SingularCoefficientError):
            shoot_kappa(ArrivalSpec(gap, gap), fb_lower=0.1)

    @pytest.mark.parametrize("grid_n", [1, 0, -3])
    def test_rejects_a_grid_without_both_ends(self, uniform_spec, grid_n):
        # grid_n=1 returned kappa_a == kappa_b == 0.2178...
        with pytest.raises(ValueError, match=f"grid_n={grid_n}"):
            shoot_kappa(uniform_spec, grid_n=grid_n)

    def test_two_points_are_the_thresholds(self, uniform_spec):
        sol = shoot_kappa(uniform_spec, grid_n=2)
        ref = shoot_kappa(uniform_spec)
        assert (sol.kappa_b, sol.kappa_a) == (ref.kappa_b, ref.kappa_a)
        assert sol.grid.size == 2

    def test_no_certificate_raises(self):
        tri = piecewise_linear_dist([0.0, 1.0], [0.0, 2.0])
        spec = ArrivalSpec(tri, uniform_dist())
        assert finiteness_lower_bound(spec) is None
        with pytest.raises(ShootingError):
            shoot_kappa(spec, tol=1e-9)


def scan_spec(name: str) -> tuple[ArrivalSpec, float]:
    """A spec and the fb_lower to shoot it with."""
    tent = piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    tri = piecewise_linear_dist([0.0, 1.0], [0.0, 2.0])
    return {
        "uniform": (ArrivalSpec(uniform_dist(), uniform_dist()), 1 / 9),
        "tent": (ArrivalSpec(tent, tent), 0.05),
        "table": (uniform_table_spec(), 1 / 9),
        "asymmetric": (ArrivalSpec(tri, uniform_dist()), 0.03),
    }[name]


class TestDenseScan:
    """One dense fundamental-matrix solve stands in for one solve per start level."""

    @pytest.mark.parametrize("name", ["uniform", "tent", "table", "asymmetric"])
    def test_u_end_matches_per_candidate(self, name):
        spec, fb_lower = scan_spec(name)
        kappas, u_ends, _ = analytics._dense_scan(spec, fb_lower, 64)
        per_candidate = np.array([
            integrate_varpi(spec, float(k), grid_n=64, rtol=1e-12)[3]
            for k in kappas])
        assert kappas.size > 32
        assert np.max(np.abs(u_ends - per_candidate)) <= 1e-8
        np.testing.assert_array_equal(np.sign(u_ends), np.sign(per_candidate))
        # one bracket, as shoot_kappa requires
        assert np.count_nonzero(np.diff(np.sign(u_ends))) == 1

    @pytest.mark.parametrize("name", ["uniform", "tent", "table", "asymmetric"])
    def test_densities_match_integrate_varpi(self, name):
        spec, fb_lower = scan_spec(name)
        sol = shoot_kappa(spec, fb_lower=fb_lower, grid_n=200)
        grid, u, v, _ = integrate_varpi(spec, sol.kappa_b, grid_n=200, rtol=1e-12)
        assert np.array_equal(sol.grid, grid)
        u_shot = sol.varpi_b * np.asarray(spec.ask_dist.cdf(grid), dtype=float)
        v_shot = sol.varpi_a * (1.0 - np.asarray(spec.bid_dist.cdf(grid), dtype=float))
        assert np.max(np.abs(u_shot - u)) <= 1e-8
        assert np.max(np.abs(v_shot - v)) <= 1e-8

    def test_tent_threshold_meets_tol(self):
        # the kink of the tent density at 1/2 cost the single-level solves
        # their accuracy: u_end was 7.6e-10 at the threshold they returned
        tent, _ = scan_spec("tent")
        sol = shoot_kappa(tent, tol=1e-10)
        u_end = integrate_varpi(tent, sol.kappa_b, grid_n=64, rtol=1e-13, atol=1e-15)[3]
        assert abs(u_end) <= 1e-10


def dop853_phi(spec: ArrivalSpec, lo: float, hi: float, xs) -> np.ndarray:
    """Phi at `xs` by one DOP853 solve of the four-component system from lo."""
    bid, ask = spec.bid_dist, spec.ask_dist

    def rhs(x, y):
        c_u = -float(ask.density(x)) / (1.0 - float(bid.cdf(x)))
        c_v = float(bid.density(x)) / float(ask.cdf(x))
        return [c_u * y[2], c_u * y[3], c_v * y[0], c_v * y[1]]

    y = solve_ivp(rhs, (lo, hi), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                  rtol=1e-13, atol=1e-16, t_eval=xs).y
    return y.T.reshape(-1, 2, 2)


def counting_spec(spec: ArrivalSpec) -> tuple[ArrivalSpec, list]:
    """`spec` with every law callable counting its calls into the returned list."""
    calls = []

    def counted(f):
        def call(x):
            calls.append(1)
            return f(x)
        return call

    def law(d):
        return dataclasses.replace(d, density=counted(d.density), cdf=counted(d.cdf),
                                   quantile=counted(d.quantile))

    return ArrivalSpec(law(spec.bid_dist), law(spec.ask_dist)), calls


def without_knots(spec: ArrivalSpec) -> ArrivalSpec:
    """`spec` with both laws' knot lists emptied, as for a law that lists none.

    The integrator then has no panel edge at a table's density jumps and must
    find them by its error control alone.
    """
    return ArrivalSpec(dataclasses.replace(spec.bid_dist, knots=()),
                       dataclasses.replace(spec.ask_dist, knots=()))


class TestMagnusIntegrator:
    """`_integrate_adaptive`'s Phi against an independent DOP853 solve."""

    @pytest.mark.parametrize("name", ["uniform", "tent", "table", "asymmetric_table",
                                      "asymmetric", "tent_no_knots",
                                      "asymmetric_table_no_knots"])
    def test_phi_matches_dop853(self, name):
        base = name.removesuffix("_no_knots")
        spec = (asymmetric_table_spec() if base == "asymmetric_table"
                else scan_spec(base)[0])
        if base != name:
            spec = without_knots(spec)
        lo = float(spec.bid_dist.quantile(0.08))
        hi = float(spec.ask_dist.quantile(0.92))
        xs = np.linspace(lo, hi, 400)
        phi = analytics._integrate_adaptive(spec, lo, hi, rtol=1e-12, atol=1e-14)(xs)
        assert phi.shape == (400, 2, 2)
        assert np.max(np.abs(phi - dop853_phi(spec, lo, hi, xs))) <= 1e-10
        assert np.array_equal(phi[0], np.eye(2))
        assert np.max(np.abs(np.linalg.det(phi) - 1.0)) <= 1e-12

    def test_knot_near_panel_end_is_seen(self):
        # The ask density jumps 3% of a width before the end of an initial
        # panel, past the last Gauss node (at 89%): with no knot list to
        # start a panel there, only the Lobatto end node sees the jump.
        kappa_b, kappa_a = 0.25, 0.75
        knot = kappa_b + (kappa_a - kappa_b) * (3 + 0.97) / analytics._INITIAL_PANELS
        tables = (([0.0, 1.0], [0.0, 1.0]), ([0.0, knot, kappa_a, 1.0], [0.0, 0.3, 0.75, 1.0]))
        spec = without_knots(ArrivalSpec(cdf_table_dist(*tables[0]),
                                         cdf_table_dist(*tables[1])))
        grid, u, v, _ = integrate_varpi(spec, kappa_b, grid_n=64)
        assert grid[-1] == kappa_a
        ref_u, ref_v = knot_restarted_reference(kappa_b, 64, tables)
        assert np.max(np.abs(u - ref_u)) <= 1e-8
        assert np.max(np.abs(v - ref_v)) <= 1e-8

    def test_knot_at_range_end_costs_no_refinement(self):
        # kappa_a = 0.6 is a knot of the ask table.  The Lobatto end nodes sit
        # one float inside the panel, so they read the density on the
        # panel's side of it; read at the knot itself, they would see a jump
        # that no bisection removes, and the refinement would run on until
        # the last panel was narrower than atol (about 35 more rounds).
        spec, calls = counting_spec(ArrivalSpec(
            cdf_table_dist([0.0, 1.0], [0.0, 1.0]),
            cdf_table_dist([0.0, 0.6, 1.0], [0.0, 0.75, 1.0])))
        grid, *_ = integrate_varpi(spec, 0.25, grid_n=64)
        assert grid[-1] == 0.6
        assert len(calls) <= 40

    @pytest.mark.parametrize("name", ["uniform", "tent", "table"])
    def test_dense_scan_batches_law_calls(self, name):
        # each refinement round calls every law callable once on an array;
        # calls per integration stage would number in the thousands
        spec, calls = counting_spec(scan_spec(name)[0])
        analytics._dense_scan(spec, scan_spec(name)[1], 64)
        assert len(calls) <= 80

    @pytest.mark.parametrize("z_scale", [0.01, 3.0, 40.0])
    def test_expm_matches_scipy(self, z_scale):
        # the series (|z| < 1/4) and both closed forms, cosh and cos
        w = np.random.default_rng(5).normal(size=(3, 200)) * math.sqrt(z_scale)
        a, b, c = w
        want = expm(np.moveaxis(np.array([[a, b], [c, -a]]), -1, 0))
        err = np.max(np.abs(analytics._expm(w) - want), (1, 2))
        assert np.max(err / np.maximum(1.0, np.max(np.abs(want), (1, 2)))) <= 1e-11

    def test_expm_entry_does_not_depend_on_its_neighbours(self):
        # entries of each branch, alone and mixed in one array, give the same bits
        w = np.random.default_rng(6).normal(size=(3, 60)) * np.repeat([0.05, 1.0, 6.0], 20)
        z = w[0] ** 2 + w[1] * w[2]
        assert np.any(np.abs(z) < 0.25) and np.any(z >= 0.25) and np.any(z <= -0.25)
        mixed = analytics._expm(w)
        for i in range(w.shape[1]):
            assert np.array_equal(mixed[i], analytics._expm(w[:, i:i + 1])[0])

    def test_unreachable_tolerance_is_singular(self, uniform_spec):
        with pytest.raises(analytics.SingularCoefficientError, match="cannot reach"):
            analytics._integrate_adaptive(uniform_spec, 0.2, 0.8, rtol=0.0, atol=0.0)


class TestTablePath:
    @pytest.mark.parametrize("kappa_b", [0.18, 0.25, 0.3])
    def test_kinked_tables_match_knot_restarted_reference(self, kappa_b):
        _, u, v, _ = integrate_varpi(asymmetric_table_spec(), kappa_b, grid_n=64)
        ref_u, ref_v = knot_restarted_reference(kappa_b, 64)
        assert np.max(np.abs(u - ref_u)) <= 1e-8
        assert np.max(np.abs(v - ref_v)) <= 1e-8

    @pytest.mark.parametrize("kappa_b", [0.18, 0.25, 0.3])
    def test_knotless_tables_match_knot_restarted_reference(self, kappa_b):
        # the same tables with no knot list: the error control alone has to
        # find the density jumps and bisect towards them
        _, u, v, _ = integrate_varpi(without_knots(asymmetric_table_spec()), kappa_b,
                                     grid_n=64)
        ref_u, ref_v = knot_restarted_reference(kappa_b, 64)
        assert np.max(np.abs(u - ref_u)) <= 1e-8
        assert np.max(np.abs(v - ref_v)) <= 1e-8

    def test_knots_start_panels(self):
        # Both tables list their kinks, so the integrator's panels start at
        # them; bisecting towards the three density jumps inside the range
        # instead takes about 150 law calls.
        spec, calls = counting_spec(asymmetric_table_spec())
        _, u, v, _ = integrate_varpi(spec, 0.25, grid_n=64)
        assert len(calls) <= 40
        ref_u, ref_v = knot_restarted_reference(0.25, 64)
        assert np.max(np.abs(u - ref_u)) <= 1e-8
        assert np.max(np.abs(v - ref_v)) <= 1e-8

    # F_b maps the ask knots 0.2 and 0.7 of this table to 0.16000000000000003
    # and 0.75, each one float off the point where Q_b crosses the knot
    @pytest.mark.parametrize("ask", [ASYMMETRIC_ASK, ([0.0, 0.2, 0.7, 1.0],
                                                      [0.0, 0.15, 0.75, 1.0])],
                             ids=["asymmetric", "knots_an_ulp_off"])
    def test_transformed_tables_list_their_knots(self, ask):
        # The pushforward ask law lists F_b of both laws' knots, moved to
        # the float where its density jumps; without a knot list the
        # integrator bisects towards each jump (about 150 law calls), and
        # with an unmoved knot towards the jump an ulp away (144).
        spec = ArrivalSpec(cdf_table_dist(*ASYMMETRIC_BID), cdf_table_dist(*ask))
        tspec, calls = counting_spec(transform_to_uniform_bid(spec))
        *_, u_end = integrate_varpi(tspec, float(spec.bid_dist.cdf(0.2)), grid_n=64)
        assert len(calls) <= 40
        *_, ref = integrate_varpi(spec, 0.2, grid_n=64)
        assert abs(u_end - ref) <= 1e-9

    @pytest.mark.parametrize("kappa_b", [0.2, 0.2178, 0.26])
    def test_uniform_table_equals_uniform_law(self, kappa_b):
        _, u, v, _ = integrate_varpi(uniform_table_spec(), kappa_b)
        _, ref_u, ref_v, _ = integrate_varpi(
            ArrivalSpec(uniform_dist(), uniform_dist()), kappa_b)
        assert np.max(np.abs(u - ref_u)) <= 1e-10
        assert np.max(np.abs(v - ref_v)) <= 1e-10

    def test_shoot_on_table_matches_closed_form(self):
        sol = shoot_kappa(uniform_table_spec(), tol=1e-10, n_scan=64)
        kb, ka = kappa_uniform_exact()
        assert abs(sol.kappa_b - kb) <= 1e-6
        assert abs(sol.kappa_a - ka) <= 1e-6
        assert abs(sol.v_end - 1.0) <= 1e-4


class TestBinnedPi:
    def test_matches_continuum_on_100_bins(self, uniform_spec):
        part = make_partition(100, uniform_spec)
        kb, ka = kappa_uniform_exact()
        k_b, k_a = part.index(kb), part.index(ka)
        res = solve_binned_pi(uniform_spec, part, k_b, k_a,
                              float(uniform_spec.bid_dist.cdf(kb)))
        b = part.masses(uniform_spec.bid_dist)
        centers = 0.5 * (part.edges[:-1] + part.edges[1:])
        errs = []
        for k in range(k_b + 1, k_a):
            errs.append(abs(res.pi_b[k] / b[k] - varpi_uniform_exact(centers[k])))
        assert max(errs) <= 0.05

    def test_threshold_bin_ratio_vanishes(self, uniform_spec):
        part = make_partition(100, uniform_spec)
        kb, ka = kappa_uniform_exact()
        res = solve_binned_pi(uniform_spec, part, part.index(kb), part.index(ka),
                              float(uniform_spec.bid_dist.cdf(kb)))
        a = part.masses(uniform_spec.ask_dist)
        b = part.masses(uniform_spec.bid_dist)
        assert res.pi_b[res.k_a] / b[res.k_a] <= 2.0 * float(np.max(a))

    def test_three_bin_feasibility(self, uniform_spec):
        from lobphase.dist import BinPartition
        part = BinPartition((0.0, 1.0), np.array([1 / 3, 2 / 3]))
        kb, _ = kappa_uniform_exact()
        res = solve_binned_pi(uniform_spec, part, 0, 2, kb)
        assert res.pi_b.sum() == pytest.approx(1.0, abs=1e-4)
        assert res.pi_a.sum() == pytest.approx(1.0, abs=1e-4)
        assert np.all(res.pi_b >= 0) and np.all(res.pi_a >= 0)

    def test_residual_scales_with_bin_count(self, uniform_spec):
        # the reported residual is the O(1/N) mismatch between a continuum
        # threshold and the binned system, so it shrinks as bins refine
        kb, ka = kappa_uniform_exact()
        residuals = {}
        for n in (20, 80):
            part = make_partition(n, uniform_spec)
            res = solve_binned_pi(uniform_spec, part, part.index(kb),
                                  part.index(ka),
                                  float(uniform_spec.bid_dist.cdf(kb)))
            residuals[n] = res.residual
            assert res.pi_b.sum() == pytest.approx(1.0, abs=1e-4)
            assert res.pi_a.sum() == pytest.approx(1.0, abs=1e-4)
        assert residuals[80] < residuals[20]

    def test_bad_indices_rejected(self, uniform_spec):
        part = make_partition(10, uniform_spec)
        with pytest.raises(ValueError):
            solve_binned_pi(uniform_spec, part, 5, 3, 0.2)

    def test_no_bin_count_collapses_on_uniform_law(self, uniform_spec):
        # A solve that leaves the near-null direction free can pile most of
        # the bid mass into the ask-threshold bin; at 20 bins the worst ratio
        # error of a sound solve is 0.102.
        kb, ka = kappa_uniform_exact()
        errs = {}
        for n in range(20, 201, 5):
            part = make_partition(n, uniform_spec)
            k_b, k_a = part.index(kb), part.index(ka)
            res = solve_binned_pi(uniform_spec, part, k_b, k_a,
                                  float(uniform_spec.bid_dist.cdf(kb)))
            b = part.masses(uniform_spec.bid_dist)
            centers = 0.5 * (part.edges[:-1] + part.edges[1:])
            inner = np.arange(k_b + 1, k_a)
            errs[n] = np.max(np.abs(res.pi_b[inner] / b[inner]
                                    - varpi_uniform_exact(centers[inner])))
        assert max(errs.values()) <= 0.11, errs

    @pytest.mark.parametrize("n", [40, 60, 100, 200])
    def test_tent_threshold_bin_empty(self, n):
        tent = piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
        spec = ArrivalSpec(tent, tent)
        sol = shoot_kappa(spec)
        part = make_partition(n, spec)
        res = solve_binned_pi(spec, part, part.index(sol.kappa_b),
                              part.index(sol.kappa_a),
                              float(spec.bid_dist.cdf(sol.kappa_b)))
        a = part.masses(spec.ask_dist)
        b = part.masses(spec.bid_dist)
        assert res.pi_b[res.k_a] / b[res.k_a] <= 2.0 * float(np.max(a))
        assert np.all(res.pi_b >= 0) and np.all(res.pi_a >= 0)

    @pytest.mark.parametrize("n", [20, 40, 55, 67, 100])
    @pytest.mark.parametrize("name", ["table", "asymmetric_table", "asymmetric"])
    def test_table_and_asymmetric_laws_stay_nonnegative(self, name, n):
        # On the asymmetric law (triangular bid, uniform ask) the ask ratio
        # vanishes at the bid threshold, and least squares alone leaves
        # pi_a(k_b + 1) down to -4.5e-6 at 40 bins, within the balance
        # misfit of 7.6e-4; such entries are pinned at zero, not refused.
        spec, fb_lower = ((asymmetric_table_spec(), 0.05) if name == "asymmetric_table"
                          else scan_spec(name))
        sol = shoot_kappa(spec, fb_lower=fb_lower)
        part = make_partition(n, spec)
        res = solve_binned_pi(spec, part, part.index(sol.kappa_b),
                              part.index(sol.kappa_a),
                              float(spec.bid_dist.cdf(sol.kappa_b)))
        assert np.all(res.pi_b >= 0) and np.all(res.pi_a >= 0)
        assert res.pi_b.sum() == pytest.approx(1.0, abs=1e-3)
        assert res.pi_a.sum() == pytest.approx(1.0, abs=1e-3)

    def test_inconsistent_input_raises(self, uniform_spec):
        # the support [1, 18] is far wider than the continuum thresholds'
        # bins (4, 15): least squares answers with an entry of -0.82, which
        # the solver's own check refuses
        with pytest.raises(InfeasibleBalanceError, match="minimum entry"):
            solve_binned_pi(uniform_spec, make_partition(20, uniform_spec), 1, 18, 0.2)


def reference_finiteness(spec: ArrivalSpec) -> float | None:
    """The certificate scan as a scalar loop: four law calls per level.

    This is the readable form the array version must reproduce exactly.
    """
    best = None
    for X in np.linspace(0.02, 0.49, 199):
        x = float(spec.bid_dist.quantile(X))
        y = float(spec.ask_dist.quantile(1.0 - X))
        if not x < y:
            continue
        Yb = float(spec.bid_dist.cdf(y))
        if abs(Yb - (1.0 - float(spec.ask_dist.cdf(x)))) > 1e-6:
            continue
        if not X < Yb < 1.0:
            continue
        val = float(lower_bound_3bin(float(X), Yb))
        if best is None or val > best:
            best = val
    return best


@st.composite
def piecewise_laws(draw):
    """A law on [0, 1] with 2-8 knots: a piecewise-linear density or a CDF table."""
    n = draw(st.integers(1, 7))
    widths = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
    xs = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    xs[-1] = 1.0
    if draw(st.booleans()):
        ys = draw(st.lists(st.floats(0.0, 4.0), min_size=n + 1, max_size=n + 1))
        ys[draw(st.integers(0, n))] += 0.5      # positive mass
        return piecewise_linear_dist(xs, ys)
    masses = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
    return cdf_table_dist(xs, np.concatenate([[0.0], np.cumsum(masses) / masses.sum()]))


def reflected(law):
    """The law of 1 - X for X on `law` over [0, 1]."""
    return dataclasses.replace(
        law, kind="custom", density=lambda x: law.density(1.0 - np.asarray(x, dtype=float)),
        cdf=lambda x: 1.0 - law.cdf(1.0 - np.asarray(x, dtype=float)),
        quantile=lambda u: 1.0 - law.quantile(1.0 - np.asarray(u, dtype=float)),
        knots=tuple(1.0 - k for k in law.knots[::-1]))


class TestFinitenessLowerBound:
    @pytest.mark.parametrize("name", ["uniform", "tent", "table", "asymmetric",
                                      "asymmetric_uniformized", "uniform_inner",
                                      "leaning"])
    def test_equals_scalar_loop(self, name):
        if name == "asymmetric_uniformized":
            spec = transform_to_uniform_bid(scan_spec("asymmetric")[0])
        elif name == "uniform_inner":
            spec = ArrivalSpec(uniform_dist(0.2, 0.8), uniform_dist(0.2, 0.8))
        elif name == "leaning":  # bids lean high, asks low: a bound below 1/9
            spec = ArrivalSpec(piecewise_linear_dist([0, 1], [0.8, 1.2]),
                               piecewise_linear_dist([0, 1], [1.2, 0.8]))
        else:
            spec = scan_spec(name)[0]
        # "asymmetric" keeps no level: all three give None
        assert (finiteness_lower_bound(spec) == reference_finiteness(spec)
                == finiteness_exact_scan(spec))

    @given(bid=piecewise_laws(), ask=piecewise_laws(),
           pairing=st.sampled_from(["same", "reflected", "independent"]))
    @settings(max_examples=150, deadline=None)
    def test_filter_equals_exact_scan(self, bid, ask, pairing):
        # the float filter keeps the exact maximum: comparing only the
        # candidates gives what comparing every kept level does, None included
        ask = {"same": bid, "reflected": reflected(bid), "independent": ask}[pairing]
        spec = ArrivalSpec(bid, ask)
        assert finiteness_lower_bound(spec) == finiteness_exact_scan(spec)


class TestLowerBound3Bin:
    def test_examples_exact(self):
        assert lower_bound_3bin(0.4, 0.6) == Fraction(1, 10)
        assert float(lower_bound_3bin(0.4, 0.6)) == 0.1
        assert lower_bound_3bin(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 9)
        assert lower_bound_3bin(0.25, 0.75) == Fraction(1, 10)

    def test_below_exact_threshold_mass(self):
        kb, _ = kappa_uniform_exact()
        assert float(lower_bound_3bin(0.4, 0.6)) <= kb
        assert float(lower_bound_3bin(Fraction(1, 3), Fraction(2, 3))) <= kb

    def test_monotone_in_y(self):
        vals = [lower_bound_3bin(Fraction(2, 5), y)
                for y in (Fraction(1, 2), Fraction(3, 5), Fraction(7, 10))]
        assert vals[0] < vals[1] < vals[2]

    def test_positive_on_symmetric_pairs(self):
        assert lower_bound_3bin(0.4, 0.6) > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            lower_bound_3bin(0.6, 0.4)

    @pytest.mark.parametrize("X, Y", [(0.0, 0.5), (0.5, 0.5), (0.4, 1.0), (-0.1, 0.5),
                                      ("1/2", "2/5"), (math.inf, 0.6), (0.4, math.inf),
                                      (math.nan, 0.6), (0.4, np.float64(math.nan))])
    def test_domain_edges_and_non_finite_floats(self, X, Y):
        # every argument off 0 < X < Y < 1 raises ValueError, which the CLI
        # turns into exit 2, non-finite floats included
        with pytest.raises(ValueError):
            lower_bound_3bin(X, Y)

    def test_uniform_certificate_value(self, uniform_spec):
        # best symmetric pair is X=1/3, giving 1/9
        assert finiteness_lower_bound(uniform_spec) == pytest.approx(1 / 9, abs=1e-3)


class TestUnequalRates:
    """The analytic routes solve equal rates only; p_b = 0.3 simulates kappa_b
    near 0.023, so an equal-rate answer (0.2178) would be silently wrong."""

    CALLS = {
        "thresholds": lambda spec: analytics.thresholds(spec),
        "shoot_kappa": lambda spec: shoot_kappa(spec),
        "integrate_varpi": lambda spec: integrate_varpi(spec, 0.25),
        "solve_binned_pi": lambda spec: solve_binned_pi(
            spec, make_partition(20, ArrivalSpec(spec.bid_dist, spec.ask_dist)), 4, 15, 0.22),
        "finiteness_lower_bound": lambda spec: finiteness_lower_bound(spec),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    @pytest.mark.parametrize("p_b", [0.3, 0.7, 0.5000000000000001])
    def test_refused(self, name, p_b):
        spec = ArrivalSpec(uniform_dist(), uniform_dist(), p_b)
        with pytest.raises(ValueError, match=f"p_b={p_b}"):
            self.CALLS[name](spec)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_equal_rates_accepted(self, name):
        self.CALLS[name](ArrivalSpec(uniform_dist(), uniform_dist(), 0.5))

    def test_running_max_evidence_refuses_through_thresholds(self):
        spec = ArrivalSpec(uniform_dist(), uniform_dist(), 0.3)
        with pytest.raises(ValueError, match="p_b=0.3"):
            running_max_evidence(spec, 100, 0)
        assert running_max_evidence(spec, 100, 0, k_b=20, k_a=79).k_b == 20
