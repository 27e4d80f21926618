"""Deterministic computation of the phase-transition prices and best-quote densities.

Three independent routes are provided and cross-checked by the test suite:
a closed form for uniform arrivals (via the Lambert-W fixed point), a shooting
method on an equivalent first-order ODE system for general arrival laws, and
the per-bin occupation-measure balance equations.

The ODE system integrates u = F_a * w_b and v = cumulative bid mass of w_b,
where w_b is the density ratio of the best-bid location against the bid
arrival law:

    u' = -(f_a / (1 - F_b)) * v,   v' = (f_b / F_a) * u,
    u(kappa_b) = 1, v(kappa_b) = 0,

and kappa_b is the unique level at which u vanishes exactly at
kappa_a = Q_a(1 - F_b(kappa_b)); v(kappa_a) = 1 comes out as a free
normalization check.  The system is linear, (u, v)' = A(x) (u, v) with a
traceless A that depends on x alone, so every law, tabulated ones included,
goes through one adaptive sixth-order Magnus integrator: it samples A only at
fixed quadrature nodes, batched into one law call per callable, and its
propagators have determinant one.  `shoot_kappa` builds the system's
fundamental matrix with it once over its widest candidate window; the scan,
each root-search step and the returned densities are read off that one
solution, and an Illinois root search started from the scan's own bracket
values finds the level.  `integrate_varpi` reads (u, v) from a single level
off it.  The balance equations are solved by least squares with the two
threshold-bin unknowns pinned at zero.  Only numpy is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .dist import ArrivalSpec, BinPartition

__all__ = [
    "VarpiSolution",
    "BinnedPi",
    "ShootingError",
    "SingularCoefficientError",
    "InfeasibleBalanceError",
    "lambert_w_of_inv_e",
    "kappa_uniform_exact",
    "varpi_uniform_exact",
    "integrate_varpi",
    "shoot_kappa",
    "solve_binned_pi",
    "lower_bound_3bin",
    "finiteness_lower_bound",
]


class ShootingError(RuntimeError):
    """No usable sign change (or several) while bracketing the threshold."""


class SingularCoefficientError(RuntimeError):
    """ODE coefficient degenerates inside the integration interval."""


class InfeasibleBalanceError(RuntimeError):
    """The balance solve returned a negative entry or a mass away from one."""


def lambert_w_of_inv_e() -> float:
    """The unique w > 0 with w * e^w = e^{-1}, by safeguarded Newton from 0.25."""
    target = math.exp(-1.0)
    lo, hi = 0.0, 1.0  # g is increasing on [0, 1] and brackets the target
    w = 0.25
    for _ in range(60):
        g = w * math.exp(w) - target
        if g > 0:
            hi = w
        else:
            lo = w
        step = g / ((1.0 + w) * math.exp(w))
        w_new = w - step
        if not lo < w_new < hi:
            w_new = 0.5 * (lo + hi)
        if abs(w_new - w) < 1e-15 * max(1.0, abs(w)):
            w = w_new
            break
        w = w_new
    return w


def kappa_uniform_exact() -> tuple[float, float]:
    """Exact thresholds for uniform arrivals on [0, 1]: (w/(w+1), 1 - w/(w+1))."""
    w = lambert_w_of_inv_e()
    kappa = w / (w + 1.0)
    return kappa, 1.0 - kappa


def varpi_uniform_exact(x) -> float | np.ndarray:
    """Closed-form best-bid density ratio for uniform arrivals.

    w_b(x) = (1 - kappa) * (1/x + log((1-x)/x)) on [kappa, 1-kappa]; the
    endpoints give 1/kappa and 0.
    """
    kappa, kappa_a = kappa_uniform_exact()
    arr = np.asarray(x, dtype=float)
    if np.any((arr < kappa - 1e-12) | (arr > kappa_a + 1e-12)):
        raise ValueError(f"argument outside [{kappa:.6f}, {kappa_a:.6f}]")
    arr = np.clip(arr, kappa, kappa_a)
    val = (1.0 - kappa) * (1.0 / arr + np.log((1.0 - arr) / arr))
    return float(val) if np.ndim(x) == 0 else val


def _check_coefficients(spec: ArrivalSpec, lo: float, hi: float, n_probe: int = 513):
    xs = np.linspace(lo, hi, n_probe)[1:-1]
    fa = np.asarray(spec.ask_dist.density(xs), dtype=float)
    fb_cdf = np.asarray(spec.bid_dist.cdf(xs), dtype=float)
    bad = np.where((fa <= 0) | (fb_cdf >= 1.0 - 1e-12))[0]
    if bad.size:
        x = xs[bad[0]]
        raise SingularCoefficientError(
            f"coefficient singular near x={x:.6g} (f_a={fa[bad[0]]:.3g}, "
            f"F_b={fb_cdf[bad[0]]:.6g})")


# Gauss-Legendre (3 points) and Gauss-Lobatto (4 points) rules on [0, 1]: nodes
# and weights.  Both are exact for polynomials of degree 5.
_GAUSS = (0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0,
          np.array([5.0, 8.0, 5.0]) / 18.0)
_LOBATTO = (0.5 + np.array([-0.5, -0.1 * math.sqrt(5.0), 0.1 * math.sqrt(5.0), 0.5]),
            np.array([1.0, 5.0, 5.0, 1.0]) / 12.0)
_INITIAL_PANELS = 8
_MAX_PANELS = 1 << 16
# |z| below which cosh(sqrt z) and sinh(sqrt z) / sqrt z are summed as series:
# sum z^k / (2k)! and sum z^k / (2k+1)! for k < 8, exact to rounding there.
_SERIES_Z = 0.25
_COSH_TERMS = [1.0 / math.factorial(2 * k) for k in range(7, -1, -1)]
_SINHC_TERMS = [1.0 / math.factorial(2 * k + 1) for k in range(7, -1, -1)]


def _bracket(x, y):
    """[x, y] of traceless 2x2 matrices [[a, b], [c, -a]] stored as (a, b, c)."""
    a1, b1, c1 = x
    a2, b2, c2 = y
    return np.array([b1 * c2 - b2 * c1, 2.0 * (a1 * b2 - a2 * b1),
                     2.0 * (c1 * a2 - a1 * c2)])


def _omega(c_u, c_v, h, rule):
    """Sixth-order Magnus exponent of A = [[0, c_u], [c_v, 0]] over each panel.

    `c_u` and `c_v` hold the coefficients at `rule`'s nodes (last axis), `h`
    the panel widths.  The rule gives the moments B_j = h sum_i w_i
    (t_i - 1/2)^j A_i, and the combination of them in Blanes, Casas, Oteo &
    Ros (Phys. Rep. 470, 2009) is Omega to O(h^7).
    """
    nodes, weights = rule
    s = nodes - 0.5
    B0, B1, B2 = (np.array([np.zeros_like(h), h * (c_u @ (weights * s ** j)),
                            h * (c_v @ (weights * s ** j))]) for j in range(3))
    a1, a2, a3 = 2.25 * B0 - 15.0 * B2, 12.0 * B1, 180.0 * B2 - 15.0 * B0
    c1 = _bracket(a1, a2)
    c2 = _bracket(a1, 2.0 * a3 + c1) / -60.0
    return B0 + _bracket(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _expm(w):
    """exp of traceless (a, b, c) in closed form, as (..., 2, 2); its det is 1.

    With z = a^2 + bc, Omega^2 = z I, so exp(Omega) = C I + S Omega, where
    C = cosh(sqrt z) and S = sinh(sqrt z) / sqrt z (cos and sin if z < 0).
    """
    a, b, c = w
    z = a * a + b * c
    r = np.sqrt(np.abs(z))
    small = np.abs(z) < _SERIES_Z
    r_safe = np.where(small, 1.0, r)
    big_c = np.where(z > 0, np.cosh(r_safe), np.cos(r_safe))
    big_s = np.where(z > 0, np.sinh(r_safe), np.sin(r_safe)) / r_safe
    C = np.where(small, np.polyval(_COSH_TERMS, z), big_c)
    S = np.where(small, np.polyval(_SINHC_TERMS, z), big_s)
    return np.stack([np.stack([C + S * a, S * b], -1),
                     np.stack([S * c, C - S * a], -1)], -2)


def _integrate_adaptive(spec: ArrivalSpec, lo: float, hi: float, rtol: float,
                        atol: float):
    """Fundamental matrix Phi of (u, v) from x = lo, as a function of x.

    A sixth-order Magnus integrator over panels of [lo, hi]: eight equal ones
    to start, cut again at the laws' knots inside the range, so a table's
    density jumps sit on panel ends.  The coefficients
    c_u = -f_a / (1 - F_b) and c_v = f_b / F_a depend on x alone, so each
    round of refinement reads them at the Gauss and Lobatto nodes of every
    pending panel with one law call per callable, and bisects the panels where
    the two Omega estimates differ by more than atol + rtol * max|Omega|.  A
    panel's error is thus bounded in proportion to its length, and Phi's
    relative error by about rtol times the integral of |c_u| + |c_v|.  The
    Lobatto rule samples both panel ends (one float inside them, to read a
    table's density from the panel's side of a knot), so a jump anywhere in
    a panel, as in a law that lists no knots, is seen.  Phi at the panel
    starts is a running product of the panel propagators; the returned
    phi(x) takes one Gauss-rule Magnus step from the start of x's panel and
    gives Phi(x) with shape x.shape + (2, 2).
    Phi(lo) is exactly the identity and det Phi = 1 to rounding.
    """
    bid, ask = spec.bid_dist, spec.ask_dist

    def coefficients(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            c_u = -ask.density(x) / (1.0 - bid.cdf(x))
            c_v = bid.density(x) / ask.cdf(x)
        if not (np.all(np.isfinite(c_u)) and np.all(np.isfinite(c_v))):
            raise SingularCoefficientError(
                f"non-finite ODE coefficient in [{lo:.6g}, {hi:.6g}]")
        return c_u, c_v

    knots = [k for k in bid.knots + ask.knots if lo < k < hi]
    edges = np.union1d(np.linspace(lo, hi, _INITIAL_PANELS + 1), knots)
    left, right = edges[:-1], edges[1:]
    done_left, done_omega = [], []
    n_gauss = len(_GAUSS[0])
    while left.size:
        h = right - left
        x_lob = left[:, None] + h[:, None] * _LOBATTO[0]
        x_lob[:, 0], x_lob[:, -1] = np.nextafter(left, right), np.nextafter(right, left)
        c_u, c_v = coefficients(
            np.concatenate([left[:, None] + h[:, None] * _GAUSS[0], x_lob], -1))
        w = _omega(c_u[:, :n_gauss], c_v[:, :n_gauss], h, _GAUSS)
        w_lob = _omega(c_u[:, n_gauss:], c_v[:, n_gauss:], h, _LOBATTO)
        ok = np.max(np.abs(w - w_lob), 0) <= atol + rtol * np.max(np.abs(w), 0)
        done_left.append(left[ok])
        done_omega.append(w[:, ok])
        left, right = left[~ok], right[~ok]
        mid = 0.5 * (left + right)
        if np.any((mid <= left) | (mid >= right)) or (
                sum(map(len, done_left)) + 2 * left.size > _MAX_PANELS):
            raise SingularCoefficientError(
                f"step control cannot reach rtol={rtol:g}, atol={atol:g} near "
                f"x={left[0]:.6g}")
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])

    starts = np.concatenate(done_left)
    order = np.argsort(starts)
    starts = starts[order]
    props = _expm(np.concatenate(done_omega, -1)[:, order]).tolist()
    p, q, r, s = 1.0, 0.0, 0.0, 1.0
    running = [(p, q, r, s)]
    for (e00, e01), (e10, e11) in props[:-1]:
        p, q, r, s = e00 * p + e01 * r, e00 * q + e01 * s, e10 * p + e11 * r, e10 * q + e11 * s
        running.append((p, q, r, s))
    at_starts = np.array(running).reshape(-1, 2, 2)

    def phi(x):
        x = np.asarray(x, dtype=float)
        k = np.clip(np.searchsorted(starts, x, side="right") - 1, 0, starts.size - 1)
        a = starts[k]
        h = x - a
        c_u, c_v = coefficients(a[..., None] + h[..., None] * _GAUSS[0])
        return _expm(_omega(c_u, c_v, h, _GAUSS)) @ at_starts[k]

    return phi


def integrate_varpi(spec: ArrivalSpec, kappa_b: float, grid_n: int = 1000,
                    rtol: float = 1e-10, atol: float = 1e-12,
                    check: bool = True):
    """Integrate (u, v) from kappa_b to kappa_a(kappa_b); returns paths and u_end.

    The paths are read at `grid_n` evenly spaced points, the ends included,
    from the Magnus integrator's fundamental matrix; `rtol` and `atol` bound
    its error.  Tabulated and piecewise-linear laws list their knots, where
    the coefficients jump or kink; the integrator's panels start there, so no
    panel straddles one.  A law without a knot list is handled by bisecting
    the panels around each jump until it no longer matters at the tolerance.
    """
    fb_level = float(spec.bid_dist.cdf(kappa_b))
    if not 0.0 < fb_level < 0.5:
        raise ValueError(f"F_b(kappa_b)={fb_level:.4g} outside (0, 1/2)")
    kappa_a = float(spec.ask_dist.quantile(1.0 - fb_level))
    if not kappa_a > kappa_b:
        raise ValueError("implied upper threshold does not exceed kappa_b")
    if check:
        _check_coefficients(spec, kappa_b, kappa_a)

    grid = np.linspace(kappa_b, kappa_a, grid_n)
    phi = _integrate_adaptive(spec, kappa_b, kappa_a, rtol, atol)(grid)
    u_path, v_path = phi[:, 0, 0], phi[:, 1, 0]
    return grid, u_path, v_path, float(u_path[-1])


@dataclass(frozen=True)
class VarpiSolution:
    """Thresholds plus best-quote density ratios on a grid between them."""

    kappa_b: float
    kappa_a: float
    grid: np.ndarray
    varpi_b: np.ndarray
    varpi_a: np.ndarray
    mass_b: float
    mass_a: float
    u_end: float
    v_end: float


def _dense_scan(spec: ArrivalSpec, fb_lower: float, n_scan: int):
    """Candidate levels kappa_i, u_end at each, and paths(k, x), from one solve.

    The candidates sit at `n_scan` bid levels from 0.9 * fb_lower to just
    below 1/2; those whose implied upper threshold does not exceed them are
    dropped.  Their intervals nest, so the fundamental matrix Phi (the identity
    at the widest one's left end) covers all of them.  The system is linear
    with zero trace, so det Phi = 1 and Phi^-1 is its adjugate: paths(k, x)
    gives u and v at x of Phi(x) Phi(k)^-1 (1, 0), the solution started at k,
    with k and x broadcast against each other.
    """
    levels = np.linspace(max(1e-4, 0.9 * fb_lower), 0.5 - 1e-4, n_scan)
    kappas = np.asarray(spec.bid_dist.quantile(levels), dtype=float)
    uppers = np.asarray(spec.ask_dist.quantile(1.0 - levels), dtype=float)
    valid = uppers > kappas + 1e-12
    if not np.any(valid):
        raise ShootingError("no candidate level admits a threshold pair")
    kappas, uppers = kappas[valid], uppers[valid]
    lo, hi = float(kappas[0]), float(uppers[0])
    _check_coefficients(spec, lo, hi)
    phi = _integrate_adaptive(spec, lo, hi, rtol=1e-12, atol=1e-14)

    def paths(k, x):
        at_x, at_k = phi(np.stack(np.broadcast_arrays(x, k)))
        s_u, s_v = at_k[..., 1, 1], -at_k[..., 1, 0]     # Phi(k)^-1 (1, 0)
        return (at_x[..., 0, 0] * s_u + at_x[..., 0, 1] * s_v,
                at_x[..., 1, 0] * s_u + at_x[..., 1, 1] * s_v)

    return kappas, paths(kappas, uppers)[0], paths


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> float:
    """A root of f in [lo, hi] by Illinois regula falsi; f_lo and f_hi differ in sign.

    The ends' values are given, so f is evaluated only inside the bracket.  The
    secant step through the bracket ends halves the value kept at an end that
    two steps in a row leave in place (Dowell & Jarratt, BIT 11, 1971), which
    makes convergence superlinear from both sides.  Stops at the first step
    with |f| <= tol, or when the bracket is narrower than 1e-13 + 4 eps |x|.
    """
    eps = float(np.finfo(float).eps)
    kept = 0            # +1: lo was kept by the last step, -1: hi was
    for _ in range(200):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= tol:
            return x
        if (fx > 0) == (f_hi > 0):
            hi, f_hi = x, fx
            if kept == 1:
                f_lo *= 0.5
            kept = 1
        else:
            lo, f_lo = x, fx
            if kept == -1:
                f_hi *= 0.5
            kept = -1
        if hi - lo <= 1e-13 + 4.0 * eps * abs(x):
            return x
    raise ShootingError(f"root search did not converge on [{lo}, {hi}]")


def shoot_kappa(spec: ArrivalSpec, tol: float = 1e-10, grid_n: int = 1000,
                fb_lower: float | None = None, n_scan: int = 64) -> VarpiSolution:
    """Locate the bid threshold by shooting on u_end and reconstruct both densities.

    One integration of the fundamental matrix over the widest candidate
    window gives u_end at all `n_scan` candidate levels.  A sign change is
    looked for (verifying the bracket is unique rather than assuming it) and
    refined by `_illinois` on the same solution, started from the scan's
    u_end at the bracket ends, until |u_end| <= tol at a level inside the
    bracket or the bracket is as narrow as floats allow; both densities come
    from it too.
    """
    if fb_lower is None:
        fb_lower = finiteness_lower_bound(spec)
        if fb_lower is None or fb_lower <= 0:
            raise ShootingError(
                "no positive finiteness certificate found for this spec; "
                "pass fb_lower explicitly to override")
    kappas, u_ends, paths = _dense_scan(spec, fb_lower, n_scan)
    flips = np.where(np.sign(u_ends[:-1]) * np.sign(u_ends[1:]) < 0)[0]
    if flips.size == 0:
        raise ShootingError("no sign change of u_end in the scan window; "
                            "no finite threshold located")
    if flips.size > 1:
        brackets = [(float(kappas[i]), float(kappas[i + 1])) for i in flips]
        raise ShootingError(f"ambiguous shooting: {flips.size} sign changes "
                            f"in brackets {brackets}")

    def upper(kb: float) -> float:
        return float(spec.ask_dist.quantile(1.0 - float(spec.bid_dist.cdf(kb))))

    def u_end_at(kb: float) -> float:
        return float(paths(kb, upper(kb))[0])

    i = flips[0]
    kappa_b = _illinois(u_end_at, float(kappas[i]), float(kappas[i + 1]),
                        float(u_ends[i]), float(u_ends[i + 1]), tol)

    grid = np.linspace(kappa_b, upper(kappa_b), grid_n)
    u, v = paths(kappa_b, grid)
    u[0], v[0] = 1.0, 0.0
    Fa = np.asarray(spec.ask_dist.cdf(grid), dtype=float)
    Fb = np.asarray(spec.bid_dist.cdf(grid), dtype=float)
    varpi_b = u / Fa
    one_minus_Fb = np.maximum(1.0 - Fb, 1e-300)
    varpi_a = v / one_minus_Fb
    fb_pdf = np.asarray(spec.bid_dist.density(grid), dtype=float)
    fa_pdf = np.asarray(spec.ask_dist.density(grid), dtype=float)
    mass_b = float(np.trapezoid(varpi_b * fb_pdf, grid))
    mass_a = float(np.trapezoid(varpi_a * fa_pdf, grid))
    return VarpiSolution(kappa_b=kappa_b, kappa_a=float(grid[-1]), grid=grid,
                         varpi_b=varpi_b, varpi_a=varpi_a,
                         mass_b=mass_b, mass_a=mass_a,
                         u_end=float(u[-1]), v_end=float(v[-1]))


@dataclass(frozen=True)
class BinnedPi:
    """Per-bin occupation measures solving the arrival/departure balance system."""

    k_b: int
    k_a: int
    pi_b: np.ndarray
    pi_a: np.ndarray
    Fb_kappa: float
    residual: float


def solve_binned_pi(spec: ArrivalSpec, partition: BinPartition, k_b: int, k_a: int,
                    Fb_kappa: float) -> BinnedPi:
    """Solve the per-bin balance equations on the support [k_b, k_a].

    For each interior bin, arrivals balance departures; the two threshold
    bins absorb the unfulfilled mass, and both measures are closed by total
    mass one (rows weighted by 100, so the masses hold while the balance rows
    absorb the misfit).  The stacked system is nearly singular, and its
    near-null direction loads on pi_b(k_a) and pi_a(k_b), the bid measure at
    the ask threshold and the ask measure at the bid threshold; a threshold
    mass taken from the continuum solution (off by O(1/N) from the binned
    book's own) drives a plain solve along it, piling most of one measure
    into the far threshold bin.  The theory forces both entries to vanish, so
    they are pinned at zero and the rest is solved by least squares.  The
    returned residual is the largest violation among the balance rows; it
    reflects the input's O(1/N) inconsistency, not solver error.  Where the
    density ratio vanishes, as the ask's does at the bid threshold of an
    asymmetric law, that misfit can leave an entry slightly below zero; an
    entry no further below than the residual is pinned at zero as well and
    the rest solved again, which moves no balance row by more than the
    misfit it already has.  An entry still below -1e-12 or a mass off one
    by more than 1e-3 raises InfeasibleBalanceError.
    """
    if not 0 <= k_b < k_a < partition.n_bins:
        raise ValueError(f"need 0 <= k_b < k_a < n_bins, got ({k_b}, {k_a})")
    b = partition.masses(spec.bid_dist)
    a = partition.masses(spec.ask_dist)
    edges = partition.edges
    rhs_b = Fb_kappa - float(spec.bid_dist.cdf(edges[k_b]))
    rhs_a = float(spec.ask_dist.cdf(edges[k_a + 1])) - (1.0 - Fb_kappa)
    n = partition.n_bins
    m = k_a - k_b + 1
    bid, ask = np.arange(m - 1), np.arange(1, m)   # support offsets of the rows

    # unknowns z = [pi_b(k_b..k_a), pi_a(k_b..k_a)]; rows 0..m-2 balance the
    # bid side on bins k_b..k_a-1, rows m-1..2m-3 the ask side on k_b+1..k_a,
    # and the last two close the masses
    M = np.zeros((2 * m, 2 * m))
    ones = np.ones((m, m))
    # bid row k: A(<= k) pi_b(k) + b(k) sum_{l <= k} pi_a(l) = b(k)
    M[bid, bid] = np.cumsum(a)[k_b + bid]
    M[:m - 1, m:] = np.tril(ones)[:-1] * b[k_b + bid, None]
    # ask row k: B(>= k) pi_a(k) + a(k) sum_{l >= k} pi_b(l) = a(k)
    M[m - 1 + bid, m + ask] = np.cumsum(b[::-1])[::-1][k_b + ask]
    M[m - 1:2 * m - 2, :m] = np.triu(ones)[1:] * a[k_b + ask, None]
    M[-2, :m] = M[-1, m:] = 100.0
    rhs = np.concatenate([b[k_b:k_a], a[k_b + 1:k_a + 1], [100.0, 100.0]])
    rhs[0] -= rhs_b
    rhs[2 * m - 3] -= rhs_a

    free = np.ones(2 * m, dtype=bool)
    free[[m - 1, m]] = False                        # pi_b(k_a) = pi_a(k_b) = 0
    while True:
        z = np.zeros(2 * m)
        z[free] = np.linalg.lstsq(M[:, free], rhs, rcond=None)[0]
        residual = float(np.max(np.abs((M @ z - rhs)[:-2])))
        # an entry whose value is within the balance misfit of zero is pinned
        # there too; an entry below zero by more is left for the check
        dip = (z < 0.0) & (z >= -residual)
        if not np.any(dip):
            break
        free &= ~dip
    pi_b = np.zeros(n)
    pi_a = np.zeros(n)
    pi_b[k_b:k_a + 1] = z[:m]
    pi_a[k_b:k_a + 1] = z[m:]

    if (z.min() < -1e-12 or abs(pi_b.sum() - 1.0) > 1e-3
            or abs(pi_a.sum() - 1.0) > 1e-3):
        raise InfeasibleBalanceError(
            f"balance system infeasible on bins [{k_b}, {k_a}]: masses "
            f"{pi_b.sum():.4f}, {pi_a.sum():.4f}, minimum entry {z.min():.3g}")
    return BinnedPi(k_b=k_b, k_a=k_a, pi_b=pi_b, pi_a=pi_a, Fb_kappa=Fb_kappa,
                    residual=residual)


def _as_fraction(x) -> Fraction:
    # Floats are read as the decimal literal they print as, so that e.g. 0.4
    # means 2/5 and bound arithmetic stays exact.
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def lower_bound_3bin(X, Y) -> Fraction:
    """Exact lower bound (2X(1-X) - (1-Y)) / ((1-X) + (Y-X)) on the bid-threshold mass.

    A positive value certifies that the thresholds are finite.  Computed in
    exact rational arithmetic; see _as_fraction for how floats are read.
    """
    Xf, Yf = _as_fraction(X), _as_fraction(Y)
    if not 0 < Xf < Yf < 1:
        raise ValueError(f"need 0 < X < Y < 1, got X={X}, Y={Y}")
    num = 2 * Xf * (1 - Xf) - (1 - Yf)
    den = (1 - Xf) + (Yf - Xf)
    return num / den


def finiteness_lower_bound(spec: ArrivalSpec) -> float | None:
    """Best 3-bin certificate over a grid of cut pairs, or None if none applies.

    Scans 199 levels X = F_b(x) in [0.02, 0.49], solving y from
    F_b(x) = 1 - F_a(y) and keeping pairs that also satisfy the mirrored
    condition F_b(y) = 1 - F_a(x) to within 1e-6.  One law call per array.
    Each pair's bound is `lower_bound_3bin`'s, exactly: with X = p/q and
    Y = r/s read as their decimal literals, it is
    (2p(q-p)s - (s-r)q^2) / (q((q-2p)s + rq)), and the largest is picked by
    cross-multiplying these integers.
    """
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
