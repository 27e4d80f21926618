"""Arrival-price laws, the uniformizing coordinate change, and bin partitions.

A price law is a (density, cdf, quantile) triple on a closed support with a
continuous, strictly increasing CDF.  Three builtins cover the cases needed in
practice: uniform, piecewise-linear density, and tabulated CDF with monotone
interpolation.  All callables accept scalars or numpy arrays; the uniform and
piecewise-linear quantiles are objects holding their tables, which the
compiled arrival draw reads too (`book._draw_c`).  Bin partitions are built
by `make_partition` and `union_refinement` and compared by `refines`; all
three count cuts as one by the same rule, `_merged`.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "PriceDist",
    "ArrivalSpec",
    "BinPartition",
    "uniform_dist",
    "piecewise_linear_dist",
    "cdf_table_dist",
    "dist_from_config",
    "transform_to_uniform_bid",
    "make_partition",
    "refines",
]

# Boundary points closer than this are considered one cut (avoids zero-width bins
# when the three boundary families coincide, as they do for uniform arrivals).
BOUNDARY_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class PriceDist:
    """A continuous price law given by (density, cdf, quantile) on a closed support.

    `knots` lists the interior prices where the density jumps or kinks
    (empty for a smooth law); integrators start their panels there.
    """

    density: Callable
    cdf: Callable
    quantile: Callable
    support: tuple[float, float]
    kind: str = "custom"
    knots: tuple[float, ...] = ()

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise ValueError(f"degenerate support {self.support}")


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival mix: bid probability and the two price laws."""

    bid_dist: PriceDist
    ask_dist: PriceDist
    p_b: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.p_b < 1.0:
            raise ValueError(f"p_b must be in (0, 1), got {self.p_b}")


def uniform_dist(lo: float = 0.0, hi: float = 1.0) -> PriceDist:
    width = hi - lo
    if width <= 0:
        raise ValueError("uniform support must have positive width")

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), 1.0 / width, 0.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - lo) / width, 0.0, 1.0)

    return PriceDist(density, cdf, _UniformQuantile(float(lo), float(width)), (lo, hi),
                     kind="uniform")


# The uniform and piecewise-linear quantiles are objects that keep the tables
# they read, so that the compiled draw applies the same expression to the same
# tables.  Only these two types are drawn in C; any other quantile callable, a
# table's or a wrapped one included, is called.

class _Quantile:
    """Immutable, so a deep copy is the object itself, as a function's is: the C
    form that the compiled draw keeps on it (`book._c_law`) holds pointers,
    which ctypes refuses to copy."""

    def __deepcopy__(self, memo):
        return self


class _UniformQuantile(_Quantile):
    """u -> lo + u * width."""

    def __init__(self, lo: float, width: float):
        self.lo, self.width = lo, width

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        return self.lo + u * self.width


def _kinks(xs: np.ndarray, slopes: np.ndarray) -> tuple[float, ...]:
    """Interior knots of a piecewise-polynomial law where `slopes` changes."""
    return tuple(xs[1:-1][slopes[1:] != slopes[:-1]].tolist())


def piecewise_linear_dist(xs, ys) -> PriceDist:
    """Density linear between knots (xs, ys); normalized to unit mass.

    The CDF is piecewise quadratic and inverted segment-by-segment, so the
    quantile is exact up to float rounding.
    """
    # contiguous copies of our own, as the compiled draw reads the quantile's
    xs = np.array(xs, dtype=float)
    ys = np.array(ys, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or not np.all(np.diff(xs) > 0):
        raise ValueError("knot abscissae must be strictly increasing, at least two")
    if np.any(ys < 0) or not np.any(ys > 0):
        raise ValueError("density knots must be nonnegative with positive mass")
    if not 1e-300 < ys.max() < 1e300:     # the mass would under- or overflow
        ys = ys / ys.max()
    total = float(np.trapezoid(ys, xs))
    ys = ys / total
    dx = np.diff(xs)
    slopes = np.diff(ys) / dx
    cum = np.concatenate([[0.0], np.cumsum((ys[:-1] + ys[1:]) / 2 * dx)])
    cum[-1] = 1.0

    def _seg(x):
        return np.searchsorted(xs[1:-1], x, side="right")

    def density(x):
        x = np.asarray(x, dtype=float)
        i = _seg(x)
        inside = (x >= xs[0]) & (x <= xs[-1])
        return np.where(inside, ys[i] + slopes[i] * (x - xs[i]), 0.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        i = _seg(x)
        d = np.clip(x, xs[0], xs[-1]) - xs[i]
        return np.clip(cum[i] + ys[i] * d + 0.5 * slopes[i] * d * d, 0.0, 1.0)

    return PriceDist(density, cdf, _PiecewiseQuantile(xs, cum, ys[:-1], slopes),
                     (float(xs[0]), float(xs[-1])), kind="piecewise_linear",
                     knots=_kinks(xs, slopes))


class _PiecewiseQuantile(_Quantile):
    """The quantile of a piecewise-linear density: on segment i, from knot
    xs[i] with CDF cum[i], density y0[i] and slope slopes[i]."""

    def __init__(self, xs: np.ndarray, cum: np.ndarray, y0: np.ndarray, slopes: np.ndarray):
        self.xs, self.cum, self.y0, self.slopes = xs, cum, y0, slopes
        # Mass t into segment i lies d past its left knot, where y0 d + s d^2 / 2
        # = t (s = slopes[i]).  Where the density is flat to 1e-14 of y0 the
        # segment is linear, d = t / y0, and d = 0 on a zero density (t / inf);
        # elsewhere d = (sqrt(y0^2 + 2 s t) - y0) / s.
        self.quadratic = ~(np.abs(slopes) * np.diff(xs) < 1e-14 * np.maximum(y0, 1e-300))
        self.every_quadratic = bool(self.quadratic.all())
        self.y_lin = np.where(y0 > 0, y0, np.inf)
        self.y_sq, self.two_s = y0 * y0, 2 * slopes

    def _root(self, i, t):
        return (np.sqrt(np.maximum(self.y_sq[i] + self.two_s[i] * t, 0.0))
                - self.y0[i]) / self.slopes[i]

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u > 1)):
            raise ValueError("quantile argument outside [0, 1]")
        xs, cum = self.xs, self.cum
        i = np.searchsorted(cum[1:-1], u, side="right")
        t = u - cum[i]
        if self.every_quadratic:
            d = self._root(i, t)
        else:
            # each quotient only where it is kept: a quadratic segment's
            # subnormal density would overflow it
            d, quad = np.empty_like(t), self.quadratic[i]
            lin = ~quad
            d[lin] = t[lin] / self.y_lin[i[lin]]
            if quad.any():
                d[quad] = self._root(i[quad], t[quad])
        return np.clip(xs[i] + d, xs[0], xs[-1])


def cdf_table_dist(xs, cdf_values) -> PriceDist:
    """Tabulated CDF with monotone linear interpolation.

    Both columns must be strictly increasing; the table must span probability
    0 to 1 (within 1e-9, then pinned exactly).  Density is the piecewise
    constant derivative.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(cdf_values, dtype=float)
    if xs.size < 2 or xs.shape != fs.shape:
        raise ValueError("CDF table needs two equal-length columns, at least two rows")
    if not (np.all(np.diff(xs) > 0) and np.all(np.diff(fs) > 0)):
        raise ValueError("CDF table columns must be strictly increasing")
    if abs(fs[0]) > 1e-9 or abs(fs[-1] - 1.0) > 1e-9:
        raise ValueError("CDF table must run from 0 to 1")
    fs = fs.copy()
    fs[0], fs[-1] = 0.0, 1.0
    slopes = np.diff(fs) / np.diff(xs)

    def density(x):
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(xs[1:-1], x, side="right")
        inside = (x >= xs[0]) & (x <= xs[-1])
        return np.where(inside, slopes[i], 0.0)

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), xs, fs)

    def quantile_fn(u):
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u > 1)):
            raise ValueError("quantile argument outside [0, 1]")
        return np.interp(u, fs, xs)

    return PriceDist(density, cdf, quantile_fn, (float(xs[0]), float(xs[-1])),
                     kind="cdf_table", knots=_kinks(xs, slopes))


# The key sets besides `kind` that a config law of each kind may carry.
_LAW_KEYS = {"uniform": ("lo hi", "lo", "hi", ""), "piecewise_linear": ("x y",),
             "cdf_table": ("path", "x cdf")}


def dist_from_config(cfg: dict) -> PriceDist:
    """Build a PriceDist from a config document {kind: ..., params...}.

    ValueError if the kind is unknown, its keys are none of its `_LAW_KEYS`
    sets or a value has the wrong type (such as a list for `lo`).
    """
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _LAW_KEYS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    keys = set(cfg) - {"kind"}
    if keys not in [set(form.split()) for form in _LAW_KEYS[kind]]:
        raise ValueError(f"a {kind} law takes one of the key sets "
                         f"{' | '.join(map(repr, _LAW_KEYS[kind]))}, got {sorted(keys)}")
    try:
        if kind == "uniform":
            return uniform_dist(float(cfg.get("lo", 0.0)), float(cfg.get("hi", 1.0)))
        if kind == "piecewise_linear":
            return piecewise_linear_dist(cfg["x"], cfg["y"])
        if "path" in cfg:
            return cdf_table_dist(*_read_cdf_csv(cfg["path"]))
        return cdf_table_dist(cfg["x"], cfg["cdf"])
    except TypeError as exc:
        raise ValueError(f"a {kind} law has a value of the wrong type: {exc}") from None


def _read_cdf_csv(path) -> tuple[list[float], list[float]]:
    xs, fs = [], []
    with open(Path(path), newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                x, f = float(row[0]), float(row[1])
            except ValueError:
                continue  # header row
            xs.append(x)
            fs.append(f)
    return xs, fs


def transform_to_uniform_bid(spec: ArrivalSpec) -> ArrivalSpec:
    """Push prices through the bid CDF so bids become uniform on [0, 1].

    The ask law becomes its pushforward under x -> F_b(x); matching decisions
    depend only on price order, so book dynamics are unchanged.  Its knots are
    the images F_b(k) of both laws' knots k.
    """
    fb, qb = spec.bid_dist.cdf, spec.bid_dist.quantile
    fa_cdf, qa = spec.ask_dist.cdf, spec.ask_dist.quantile
    fb_pdf, fa_pdf = spec.bid_dist.density, spec.ask_dist.density

    lo, hi = spec.bid_dist.support
    probe = fb(np.linspace(lo, hi, 101))
    if np.any(np.diff(probe) <= 0):
        raise ValueError("bid CDF is not strictly increasing on its support; "
                         "cannot invert the coordinate change")

    def cdf(u):
        return np.asarray(fa_cdf(qb(np.asarray(u, dtype=float))), dtype=float)

    def quantile_fn(v):
        return np.asarray(fb(qa(np.asarray(v, dtype=float))), dtype=float)

    def density(u):
        x = qb(np.asarray(u, dtype=float))
        num = np.asarray(fa_pdf(x), dtype=float)
        den = np.asarray(fb_pdf(x), dtype=float)
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    knots = sorted({_pushed_knot(k, fb, qb)
                    for k in spec.bid_dist.knots + spec.ask_dist.knots})
    ask = PriceDist(density, cdf, quantile_fn, (0.0, 1.0), kind="pushforward",
                    knots=tuple(u for u in knots if 0.0 < u < 1.0))
    return ArrivalSpec(uniform_dist(0.0, 1.0), ask, spec.p_b)


def _pushed_knot(k: float, fb: Callable, qb: Callable) -> float:
    """F_b(k), moved by ulps until Q_b maps its two float neighbours to either side of k."""
    u = float(fb(k))
    while u > 0.0 and qb(np.nextafter(u, 0.0)) >= k:
        u = float(np.nextafter(u, 0.0))
    while u < 1.0 and qb(np.nextafter(u, 1.0)) < k:
        u = float(np.nextafter(u, 1.0))
    return u


# Cells per bin of the table that `BinPartition.index` looks prices up in.
_CELLS_PER_BIN = 4


@dataclass(frozen=True)
class BinPartition:
    """Partition of a closed support into left-closed bins.

    `boundaries` are the interior cut points; bin k is [edge_k, edge_{k+1})
    with the last bin closed on the right.
    """

    support: tuple[float, float]
    boundaries: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "_blist", b.tolist())
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"degenerate support {self.support}")
        if b.size and not (np.all(np.diff(b) > 0) and lo < b[0] and b[-1] < hi):
            raise ValueError("boundaries must be strictly increasing, interior to support")
        # The lookup table of `index`: n_cells equal cells of the support, one
        # for its right end and one for NaN.  `_cell` is monotone in the price,
        # so cut b_j lies at or below every price of cell c exactly when it
        # falls in a cell below c or is the least float of cell c; the table
        # holds the count of such cuts, the bin of the cell's least float.
        n_cells = _CELLS_PER_BIN * (b.size + 1)
        object.__setattr__(self, "_scale", n_cells / (hi - lo))
        object.__setattr__(self, "_nan_cell", n_cells + 1.5)
        cell = self._cell(b)
        cell -= self._cell(np.nextafter(b, -np.inf)) < cell
        object.__setattr__(self, "_table", np.searchsorted(cell, np.arange(n_cells + 2)))
        # the cut above each bin; NaN above the last, which no price reaches
        object.__setattr__(self, "_upper", np.append(b, np.nan))

    def __reduce__(self):
        # rebuilt from its fields: the compiled lookup's C form that
        # `book._c_partition` keeps on it holds pointers, which do not copy
        return BinPartition, (self.support, self.boundaries)

    @property
    def n_bins(self) -> int:
        return self.boundaries.size + 1

    @property
    def edges(self) -> np.ndarray:
        lo, hi = self.support
        return np.concatenate([[lo], self.boundaries, [hi]])

    def _cell(self, x: np.ndarray) -> np.ndarray:
        """Lookup-table cell of each price: monotone in the price, NaN in the last cell."""
        lo, hi = self.support
        t = np.clip(x, lo, hi)
        t -= lo
        t *= self._scale
        np.fmin(t, self._nan_cell, out=t)
        return t.astype(np.intp)

    def index(self, price):
        """Bin containing `price`; boundary points resolve to the right bin.

        A scalar is bisected.  An array gives `np.searchsorted(boundaries,
        price, side="right")` exactly, in values, dtype and shape, for every
        float (NaN goes to the last bin, as searchsorted sorts it): each price
        starts at the bin of its table cell's least float and steps up past
        the cuts of its cell that lie at or below it.
        """
        if np.ndim(price) == 0:
            return bisect_right(self._blist, price)
        x = np.asarray(price, dtype=float)
        shape, x = x.shape, x.ravel()
        k = self._table.take(self._cell(x))
        todo = np.flatnonzero(x >= self._upper.take(k))
        while todo.size:
            k[todo] += 1
            todo = todo[x[todo] >= self._upper.take(k[todo])]
        return k.reshape(shape)

    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def masses(self, dist: PriceDist) -> np.ndarray:
        f = dist.cdf(self.edges)
        return np.diff(f)


def make_partition(n_bins: int, spec: ArrivalSpec) -> BinPartition:
    """Cut [0, 1] at i/N and both quantile families Q_b(i/N), Q_a(i/N).

    By construction every bin has width, bid mass, and ask mass all <= 1/N.
    Requires arrival laws in uniformized coordinates (support [0, 1]).
    """
    if n_bins < 2:
        raise ValueError(f"need at least 2 bins, got {n_bins}")
    for d in (spec.bid_dist, spec.ask_dist):
        lo, hi = d.support
        if abs(lo) > 1e-9 or abs(hi - 1.0) > 1e-9:
            raise ValueError("make_partition expects support [0, 1]; apply "
                             "transform_to_uniform_bid first")
    levels = np.arange(1, n_bins) / n_bins
    cuts = np.concatenate([
        levels,
        np.asarray(spec.bid_dist.quantile(levels), dtype=float),
        np.asarray(spec.ask_dist.quantile(levels), dtype=float),
    ])
    inner = cuts[(cuts > BOUNDARY_MERGE_TOL) & (cuts < 1.0 - BOUNDARY_MERGE_TOL)]
    return BinPartition((0.0, 1.0), _merged(inner))


def refines(fine: BinPartition, coarse: BinPartition) -> bool:
    """True iff every cut of `coarse` merges into a cut of `fine` (`_merged`'s
    rule): the union of their cuts has as many as `fine`'s."""
    return _union_cuts(fine, coarse).size == fine.boundaries.size


def union_refinement(a: BinPartition, b: BinPartition) -> BinPartition:
    """Coarsest partition refining both arguments (boundary-set union)."""
    return BinPartition(a.support, _union_cuts(a, b))


def _union_cuts(a: BinPartition, b: BinPartition) -> np.ndarray:
    if not np.allclose(a.support, b.support, rtol=0.0, atol=BOUNDARY_MERGE_TOL):
        raise ValueError("partitions live on different supports")
    return _merged(np.concatenate([a.boundaries, b.boundaries]))


def _merged(cuts: np.ndarray) -> np.ndarray:
    """`cuts` sorted, less each cut within BOUNDARY_MERGE_TOL of the last one kept."""
    kept: list[float] = []
    for c in np.sort(cuts).tolist():
        if not kept or c - kept[-1] > BOUNDARY_MERGE_TOL:
            kept.append(c)
    return np.asarray(kept)
