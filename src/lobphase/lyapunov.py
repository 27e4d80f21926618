"""Recurrence toolkit for the five-bin reservoir book.

The book has bins of sizes (1/5+e, 1/5-e, 1/5, 1/5-e, 1/5+e) with an infinite
bid supply in bin 1 and an infinite ask supply in bin 5; the state is the
signed order count of the middle three bins (positive = bids).  This module
provides the published drift/normal tables in exact rational arithmetic, an
independent one-arrival enumeration oracle for the drifts, Foster-Lyapunov
drift-negativity certificates, the published level-set vertex/face fixture,
and simulation-based recurrence evidence (conditional drifts, geometric tail
bounds, running-max sublinearity).

Region codes describe the sign pattern of the middle bins, identifying
patterns with the same (highest bid bin, lowest ask bin) pair; there are ten,
and the all-empty region 000 carries no drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .analytics import thresholds
# apply_arrival is not called here; perfbench/tracer.py wraps it by this name.
from .book import ORDINARY, ORDINARY_BINNED, BookState, MatchRule, apply_arrival
from .dist import ArrivalSpec, BinPartition, make_partition
from .sim import ArrivalStream, _BandCount, _FiveBin, _fold, materialize, run_arrivals

__all__ = [
    "REGIONS",
    "DRIFT_REGIONS",
    "PUBLISHED_DRIFTS",
    "NORMALS",
    "NORMAL_BY_REGION",
    "region_bins",
    "compatible",
    "drift_dot",
    "enumerated_drift_affine",
    "certify_drift",
    "DriftCertificate",
    "LEVEL_VERTICES",
    "LEVEL_FACES",
    "verify_level_fixture",
    "FixtureReport",
    "simulate_5bin",
    "FiveBinReport",
    "check_geometric_bound",
    "GeomBoundReport",
    "running_max_evidence",
    "RunMaxEvidence",
]

F = Fraction

REGIONS = ("+++", "++-", "+--", "---", "++0", "+0-", "0--", "+00", "00-", "000")
DRIFT_REGIONS = REGIONS[:-1]

# Canonical (highest bid bin, lowest ask bin) per region, bins numbered 1..5;
# bin 1 holds the bid reservoir and bin 5 the ask reservoir.
_REGION_BA = {
    "+++": (4, 5), "++-": (3, 4), "+--": (2, 3), "---": (1, 2),
    "++0": (3, 5), "+0-": (2, 4), "0--": (1, 3), "+00": (2, 5),
    "00-": (1, 4), "000": (1, 5),
}

Affine = tuple[Fraction, Fraction]          # value = c0 + c1 * eps
AffineVec = tuple[Affine, Affine, Affine]


def _av(*pairs) -> AffineVec:
    return tuple((F(a), F(b)) for a, b in pairs)  # type: ignore[return-value]


# Published drift vectors, affine in eps (continuous-time convention with each
# side arriving at rate 1).
PUBLISHED_DRIFTS: dict[str, AffineVec] = {
    "+++": _av(("1/5", -1), ("1/5", 0), ("-4/5", 1)),
    "---": _av(("4/5", -1), ("-1/5", 0), ("-1/5", 1)),
    "++-": _av(("1/5", -1), ("-3/5", 0), ("2/5", -1)),
    "+--": _av(("-2/5", 1), ("3/5", 0), ("-1/5", 1)),
    "++0": _av(("1/5", -1), ("-3/5", 0), (0, 0)),
    "0--": _av((0, 0), ("3/5", 0), ("-1/5", 1)),
    "+0-": _av(("-2/5", 1), (0, 0), ("2/5", -1)),
    "+00": _av(("-2/5", 1), (0, 0), (0, 0)),
    "00-": _av((0, 0), (0, 0), ("2/5", -1)),
}

# Published outer normals; regions sharing a face share a vector.
NORMALS: dict[str, tuple[Fraction, Fraction, Fraction]] = {
    code: tuple(map(F, v)) for code, v in (
        ("+++", (1, 1, 1)), ("++-", (1, 1, -1)), ("+--", (1, -1, -1)), ("---", (-1, -1, -1)),
        ("++0", ("4/3", 1, "2/3")), ("+0-", (1, "-4/5", "-9/5")), ("0--", (-2, -3, -4)))}
NORMAL_BY_REGION: dict[str, tuple[Fraction, Fraction, Fraction]] = {
    **NORMALS, "+00": NORMALS["++0"], "00-": NORMALS["0--"]}

# Bin masses times 5, affine in eps: (1 + 5 eps, 1 - 5 eps, 1, 1 - 5 eps, 1 + 5 eps).
_BIN_MASS5 = ((1, 5), (1, -5), (1, 0), (1, -5), (1, 5))


def region_bins(code: str) -> tuple[int, int]:
    """(highest bid bin, lowest ask bin) for a region code, bins 1..5."""
    return _REGION_BA[code]


# Each region's cell 6 b + a in the five-bin region pass (`book._five_bin_cells`).
_REGION_CELLS = tuple(6 * b + a for b, a in (_REGION_BA[code] for code in REGIONS))


def compatible(region_drift: str, region_normal: str) -> bool:
    """True when the drift region agrees with the normal's region at its nonzero signs."""
    return all(n == "0" or d == n for d, n in zip(region_drift, region_normal))


# The exact layer computes on integers: a table is scaled once (this module's
# at import) to integers over one denominator; only returned values are Fractions.

def _ints(table: dict) -> tuple[int, dict]:
    """(d, {key: the row times d, as ints}) for a table of rows of ints or
    Fractions, d the least common denominator."""
    d = math.lcm(*(c.denominator for row in table.values() for c in row))
    return d, {k: [c.numerator * (d // c.denominator) for c in row] for k, row in table.items()}


# The compatible (drift region, normal region) pairs, in the certificate's order.
_PAIRS = tuple((d, n) for n in DRIFT_REGIONS for d in DRIFT_REGIONS if compatible(d, n))


def _products(drifts, normals) -> tuple[int, dict]:
    """(d, {compatible pair: (c0, c1)}), integers with <drift, normal> = (c0 + c1 eps) / d,
    from tables of the nine drift regions in ints or Fractions; a table left
    None is the published one."""
    if drifts is None and normals is None:
        return _PUBLISHED
    drifts = PUBLISHED_DRIFTS if drifts is None else drifts
    normals = NORMAL_BY_REGION if normals is None else normals
    # each drift as its three constants, then its three slopes
    dd, dv = _ints({r: sum(zip(*drifts[r]), ()) for r in DRIFT_REGIONS})
    dn, nv = _ints({r: normals[r] for r in DRIFT_REGIONS})
    products = {}
    for dr, nr in _PAIRS:
        (a0, a1, a2, b0, b1, b2), (x, y, z) = dv[dr], nv[nr]
        products[dr, nr] = (a0 * x + a1 * y + a2 * z, b0 * x + b1 * y + b2 * z)
    return dd * dn, products


_PUBLISHED = _products(PUBLISHED_DRIFTS, NORMAL_BY_REGION)


def drift_dot(region_drift: str, region_normal: str, eps,
              drifts: dict[str, AffineVec] | None = None,
              normals: dict | None = None) -> Fraction:
    """Exact <drift, outer normal> at a rational eps for a compatible region pair."""
    if region_normal == "000":
        raise ValueError("the empty region has no outer normal")
    if not compatible(region_drift, region_normal):
        raise ValueError(f"regions {region_drift} and {region_normal} are incompatible")
    d, products = _products(drifts, normals)
    c0, c1 = products[region_drift, region_normal]
    eps = F(eps)
    return F(c0 * eps.denominator + c1 * eps.numerator, d * eps.denominator)


def enumerated_drift_affine(code: str) -> AffineVec:
    """One-arrival drift of a region from first principles, exact and affine in eps.

    Enumerates the ten (side, bin) arrival outcomes of the ordinary binned
    book with reservoirs: an arriving bid executes the lowest ask iff its bin
    is at or above the ask's bin, otherwise it joins its own bin (mirrored
    for asks).  Reservoir partners leave the middle bins untouched.  Uses the
    same continuous-time convention as the published table (each side rate 1);
    divide by two for the per-arrival expectation.
    """
    b, a = _REGION_BA[code]
    coords = [[0, 0], [0, 0], [0, 0]]     # (c0, c1) of bins 2..4, times 5
    for j, (m0, m1) in enumerate(_BIN_MASS5, start=1):
        # a bid arriving in bin j executes the lowest ask, in bin a, if j >= a,
        # and joins bin j if not; an ask mirrors it with bin b
        for bin_no, sign in ((a if j >= a else j, +1), (b if j <= b else j, -1)):
            if 2 <= bin_no <= 4:
                coords[bin_no - 2][0] += sign * m0
                coords[bin_no - 2][1] += sign * m1
    return tuple((F(c0, 5), F(c1, 5)) for c0, c1 in coords)  # type: ignore[return-value]


@dataclass(frozen=True)
class DriftCertificate:
    eps_max: Fraction
    entries: list   # (drift region, normal region, value@0, value@eps_max, slope)
    passed: bool
    failures: list
    eps_star: Optional[Fraction]   # least root of the products negative at 0 that rise
    min_margin_at_zero: Fraction   # largest (closest to 0) product at eps = 0

    def render_text(self) -> str:
        lines = [f"drift-negativity certificate, eps in [0, {self.eps_max}]",
                 f"result: {'PASS' if self.passed else 'FAILED'}",
                 f"admissible eps upper limit: {self.eps_star}",
                 "drift     normal    value@0        value@eps_max"]
        for d, n, v0, v1, _ in self.entries:
            lines.append(f"{d:8s}  {n:8s}  {str(v0):13s}  {str(v1)}")
        if self.failures:
            lines.append("failing pairs: " + ", ".join(
                f"({d},{n})" for d, n, *_ in self.failures))
        return "\n".join(lines)


def certify_drift(eps_max, drifts: dict[str, AffineVec] | None = None,
                  normals: dict | None = None) -> DriftCertificate:
    """Exact negativity check of every compatible <drift, normal> pair.

    Each product is affine in eps, c0 + c1 eps, so strict negativity on
    [0, eps_max] holds iff it holds at both endpoints.  `eps_star` is the
    least root -c0/c1 of the products negative at 0 that rise (c0 < 0 < c1),
    None if none rises.  A product not negative at 0 gives no root even if
    it falls through zero later, so the enumerated table, whose eleven such
    products all fall (the last through zero at 2/35), gets None.
    """
    eps_max = F(eps_max)
    if not 0 <= eps_max < F(1, 5):
        raise ValueError("eps_max must lie in [0, 1/5)")
    d, products = _products(drifts, normals)
    e, m = eps_max.numerator, eps_max.denominator
    entries, failures = [], []
    root = top = None       # eps_star as (numerator, denominator); the largest c0
    for (region_d, region_n), (c0, c1) in products.items():
        c = c0 * m + c1 * e     # the product at eps_max, times d m
        v0, v1 = F(c0, d), F(c, d * m)
        entries.append((region_d, region_n, v0, v1, F(c1, d)))
        if c0 >= 0 or c >= 0:
            failures.append((region_d, region_n, v0, v1))
        if c0 < 0 < c1 and (root is None or -c0 * root[1] < root[0] * c1):
            root = (-c0, c1)
        if top is None or c0 > top:
            top = c0
    return DriftCertificate(eps_max=eps_max, entries=entries,
                            passed=not failures, failures=failures,
                            eps_star=None if root is None else F(*root),
                            min_margin_at_zero=F(top, d))


# ---------------------------------------------------------------------------
# Level-set fixture

_GAUGE_NORMALS = np.array([[float(c) for c in v] for v in NORMALS.values()])


LEVEL_VERTICES: tuple[tuple[Fraction, Fraction, Fraction], ...] = tuple(
    (F(a), F(b), F(c)) for a, b, c in [
        ("0", "0", "0"), ("0", "1", "0"), ("0", "0", "1"),
        ("1/2", "0", "1/2"), ("45/58", "2/29", "-9/58"), ("6/7", "-1/7", "0"),
        ("29/34", "-2/17", "-1/34"), ("3/4", "0", "0"),
        ("11/50", "6/25", "-27/50"), ("0", "3/7", "-4/7"),
        ("11/26", "-6/13", "-3/26"), ("2/5", "-3/5", "0"),
        ("0", "-1/3", "0"), ("-1/2", "0", "0"), ("0", "0", "-1/4"),
    ])

# <vertex, normal> is an integer product / _UNIT, for vertices by id and the seven normals.
_VD, _VERTEX_INTS = _ints(dict(enumerate(LEVEL_VERTICES, 1)))
_ND, _NORMAL_INTS = _ints(NORMALS)
_UNIT = _VD * _ND

# Faces as printed: 1-indexed vertex id lists.
LEVEL_FACES: tuple[tuple[int, ...], ...] = (
    (4, 3, 2), (5, 2, 10, 9), (7, 6, 12, 11), (1, 3, 4, 8),
    (1, 8, 6, 12, 14), (1, 3, 2, 10, 15), (1, 15, 14), (7, 5, 9, 11),
    (2, 4, 8, 6, 7, 5), (9, 10, 15, 14, 12, 11),
)


@dataclass(frozen=True)
class FixtureReport:
    vertex_values: list      # (vertex_id, normal_label, value) for all pairs
    vertex_attains: dict     # vertex_id -> tuple of labels with value == 1
    face_normals: dict       # face index -> tuple of labels supporting all its vertices
    discrepancies: list      # human-readable anomalies (reported, not asserted)

    def csv_rows(self):
        return [(vid, label, str(val)) for vid, label, val in self.vertex_values]


def verify_level_fixture() -> FixtureReport:
    """Exact incidence of the published 15 vertices and 10 faces against the normals.

    Cross-references each face with the normals whose hyperplane <x, v> = 1
    contains every vertex of the face.  Anomalies (the origin vertex, faces
    lying in coordinate planes rather than on a normal's hyperplane) are
    reported, not asserted.
    """
    vertex_values = []
    vertex_attains: dict[int, tuple[str, ...]] = {}
    for vid, (x, y, z) in _VERTEX_INTS.items():
        vals = {label: x * a + y * b + z * c for label, (a, b, c) in _NORMAL_INTS.items()}
        vertex_values += [(vid, label, F(val, _UNIT)) for label, val in vals.items()]
        vertex_attains[vid] = tuple(label for label, val in vals.items() if val == _UNIT)
    face_normals: dict[int, tuple[str, ...]] = {}
    discrepancies: list[str] = []
    for fi, face in enumerate(LEVEL_FACES):
        common = set(NORMALS).intersection(*(vertex_attains[vid] for vid in face))
        face_normals[fi] = tuple(sorted(common))
        if len(common) != 1:
            discrepancies.append(
                f"face {fi} {face}: supporting normals {sorted(common) or 'none'}")
    for vid, att in vertex_attains.items():
        if not att:
            discrepancies.append(f"vertex {vid} {tuple(map(str, LEVEL_VERTICES[vid-1]))}: "
                                 "attains no normal at value 1")
    return FixtureReport(vertex_values, vertex_attains, face_normals, discrepancies)


# ---------------------------------------------------------------------------
# Simulation-based evidence

@dataclass
class RegionStats:
    visits: int = 0
    dx_sum: np.ndarray = field(default_factory=lambda: np.zeros(3))
    visits_hi: int = 0          # visits with gauge > K before the arrival
    dgauge_sum: float = 0.0
    dgauge_sq: float = 0.0

    def mean_dx(self) -> np.ndarray:
        return self.dx_sum / max(1, self.visits)

    def mean_dgauge(self) -> float:
        return self.dgauge_sum / max(1, self.visits_hi)

    def se_dgauge(self) -> float:
        n = self.visits_hi
        if n < 2:
            return math.inf
        m = self.dgauge_sum / n
        var = max(0.0, self.dgauge_sq / n - m * m)
        return math.sqrt(var / n)


@dataclass
class FiveBinReport:
    eps: float
    n_events: int
    K: float
    seed: int
    regions: dict[str, RegionStats]
    excursion_lengths: list
    final_state: tuple[int, int, int]

    def drift_negative_regions(self, min_visits: int = 10_000, z: float = 3.0):
        """(region, mean, se, ok) for regions with enough high-gauge visits."""
        rows = []
        for code, st in sorted(self.regions.items()):
            if st.visits_hi >= min_visits:
                m, se = st.mean_dgauge(), st.se_dgauge()
                rows.append((code, m, se, m + z * se < 0))
        return rows


def five_bin_partition(eps: float) -> BinPartition:
    if not 0 < eps < 0.2:
        raise ValueError("eps must lie in (0, 1/5)")
    return BinPartition((0.0, 1.0),
                        np.array([0.2 + eps, 0.4, 0.6, 0.8 - eps]))


def simulate_5bin(eps: float, n_events: int, seed: int, K: float = 20.0,
                  spec: ArrivalSpec | None = None) -> FiveBinReport:
    """Run the five-bin reservoir book and record region-conditioned drifts.

    Records, per region: the mean one-arrival jump of the signed middle-bin
    state (to compare with the exact enumeration), and the mean jump of the
    polytope gauge conditioned on starting above level K (the empirical
    drift-negativity evidence).  Also collects excursion lengths above K.
    The run is folded chunk by chunk into the region pass, `sim._FiveBin`.
    """
    from .dist import uniform_dist
    if spec is None:
        spec = ArrivalSpec(uniform_dist(), uniform_dist())
    part = five_bin_partition(eps)
    lo_mid = 0.5 * (0.2 + eps)          # inside bin 1
    hi_mid = 1.0 - lo_mid               # inside bin 5
    state = BookState(bid_reservoir=lo_mid, ask_reservoir=hi_mid)
    region = _FiveBin(part, _GAUGE_NORMALS, K)
    _fold([(state, MatchRule(ORDINARY_BINNED, part))],
          materialize(ArrivalStream(seed, n_events, spec)), [region])
    sums = region.sums
    stats = {code: RegionStats(int(sums.visits[c]), sums.dx_sum[c].copy(),
                               int(sums.visits_hi[c]), float(sums.dgauge_sum[c]),
                               float(sums.dgauge_sq[c]))
             for code, c in zip(REGIONS, _REGION_CELLS) if code != "000"}
    # the excursions above K, the one open at the end of the run closed there
    flips = np.array(region.flips + [n_events] * (len(region.flips) % 2), dtype=np.int64)
    excursions = (flips[1::2] - flips[::2]).tolist()
    return FiveBinReport(eps=eps, n_events=n_events, K=K, seed=seed,
                         regions=stats, excursion_lengths=excursions,
                         final_state=tuple(int(v) for v in sums.x))


@dataclass(frozen=True)
class GeomBoundReport:
    rho_bid: float
    rho_ask: float
    n_samples: int
    bid_tail: list   # (m, empirical P(count >= m), bound rho^m, slack)
    ask_tail: list
    bid_ok: bool
    ask_ok: bool

    @property
    def passed(self) -> bool:
        return self.bid_ok and self.ask_ok


def check_geometric_bound(x: float, y: float, spec: ArrivalSpec, n_events: int,
                          seed: int) -> GeomBoundReport:
    """Mid-region order counts are stochastically below geometric tails.

    With infinite bids resting at x and infinite asks at y, bids inside (x, y)
    arrive at rate F_b(y) - F_b(x) and depart at rate at least F_a(x), so
    their count is dominated by a geometric law with ratio rho; mirrored for
    asks.  Tested for m = 1..12 on every 50th arrival of the second half, with
    3-sigma binomial slack.  The counts are a band count folded chunk by
    chunk and sampled as it goes (`sim._BandCount`).
    """
    if n_events < 1:
        raise ValueError(f"no samples: the tail test needs n_events >= 1, got {n_events}")
    Fb = lambda p: float(spec.bid_dist.cdf(p))
    Fa = lambda p: float(spec.ask_dist.cdf(p))
    if not Fb(y) < Fb(x) + Fa(x):
        raise ValueError("precondition F_b(y) < F_b(x) + F_a(x) violated")
    if not Fa(y) < Fa(x) + (1.0 - Fb(y)):
        raise ValueError("precondition F_a(y) < F_a(x) + 1 - F_b(y) violated")
    rho_b = (Fb(y) - Fb(x)) / Fa(x)
    rho_a = (Fa(y) - Fa(x)) / (1.0 - Fb(y))

    inside = (float(np.nextafter(x, np.inf)), y)    # x < p < y, as a half-open band
    band = _BandCount(inside, inside, at=np.arange(n_events // 2, n_events, 50))
    _fold([(BookState(bid_reservoir=x, ask_reservoir=y), MatchRule(ORDINARY))],
          materialize(ArrivalStream(seed, n_events, spec)), [band])
    (sb, sa), n = band.samples, band.at.size

    def tail_table(samples, rho):
        rows, ok = [], True
        for m in range(1, 13):
            emp = float(np.mean(samples >= m))
            bound = rho ** m
            slack = 3.0 * math.sqrt(bound * (1.0 - bound) / n)
            rows.append((m, emp, bound, slack))
            if emp > bound + slack:
                ok = False
        return rows, ok

    bid_tail, bid_ok = tail_table(sb, rho_b)
    ask_tail, ask_ok = tail_table(sa, rho_a)
    return GeomBoundReport(rho_bid=rho_b, rho_ask=rho_a, n_samples=n,
                           bid_tail=bid_tail, ask_tail=ask_tail,
                           bid_ok=bid_ok, ask_ok=ask_ok)


@dataclass(frozen=True)
class RunMaxEvidence:
    k_b: int
    k_a: int
    n_events: int
    seed: int
    last_jump_index: int
    last_jump_fraction: float
    max_value: int
    series: Optional[np.ndarray]


def _band_prices(part: BinPartition, k_b: int, k_a: int) -> tuple[float, float]:
    """(lo, hi) with a price at or above lo exactly when its bin lies above
    k_b, and below hi exactly when its bin lies below k_a; +-inf past either
    end of the cuts."""
    cuts = np.concatenate(([-np.inf], part.boundaries, [np.inf]))
    top = cuts.size - 1
    return float(cuts[min(max(k_b + 1, 0), top)]), float(cuts[min(max(k_a, 0), top)])


def running_max_evidence(spec: ArrivalSpec, n_events: int, seed: int,
                         n_bins: int = 100, k_b: int | None = None, k_a: int | None = None,
                         series: bool = False) -> RunMaxEvidence:
    """Running maximum of the transient-band order count.

    Counts resting bids in bins strictly above the bin holding the lower
    threshold and asks strictly below the bin holding the upper one (bins
    0-indexed).  Orders in that open band all eventually depart, so the
    count is recurrent; its support is unbounded, so the running maximum
    keeps growing, but sublinearly.  The evidence statistic is the growth
    ratio runmax(n) / runmax(n/2) read from the series (below sqrt(2) for
    growth exponent below 1/2, near 2 for a linearly filling band); the last
    jump index is reported too, and it lies in the first half exactly when
    that ratio is 1.  Bins not given are those holding `analytics.thresholds`.
    The count compares prices with the cuts that bound the band's bins.
    """
    part = make_partition(n_bins, spec)
    if k_b is None or k_a is None:
        kappa_b, kappa_a = thresholds(spec)
        k_b = part.index(kappa_b) if k_b is None else k_b
        k_a = part.index(kappa_a) if k_a is None else k_a
    trace = run_arrivals(MatchRule(ORDINARY), BookState(),
                         materialize(ArrivalStream(seed, n_events, spec)),
                         record_every=max(1, n_events // 10), seed=seed,
                         runmax_band=_band_prices(part, k_b, k_a))
    # 0 where the count never rose, as in a run without arrivals
    frac = max(trace.runmax_last_jump, 0) / max(n_events, 1)
    return RunMaxEvidence(k_b=k_b, k_a=k_a, n_events=n_events, seed=seed,
                          last_jump_index=trace.runmax_last_jump,
                          last_jump_fraction=frac, max_value=trace.runmax_value,
                          series=trace.runmax_series if series else None)
