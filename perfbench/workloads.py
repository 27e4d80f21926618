"""The benchmark's four workloads: inputs built from a seed, one pass, output checks.

A pass is a closed loop of units: each unit is one call chain into lobphase
and starts when the previous one returns.  Every unit reports a digest of its
outputs and runs its output checks; a unit that raises or fails a check is
counted as failed, never raised.  The benchmark calls lobphase through module
attributes (``sim.materialize``, ``coupling.check_refinement``, ...) so that
the tracer's wrappers see those calls.

Why each workload is here, the layer that does most of its work and which
metrics a change to each layer should move are in ``design.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
import traceback
from dataclasses import astuple, dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

from lobphase import analytics, cli, coupling, lyapunov, sim
from lobphase.book import (ORDINARY, ORDINARY_BINNED, STRICT_BINNED, BookState,
                           MatchRule, Order)
from lobphase.dist import (ArrivalSpec, cdf_table_dist, make_partition,
                           piecewise_linear_dist, uniform_dist)

# Scratch space for the CLI's output files, inside the checkout.
OUT_DIR = Path(__file__).resolve().parent / ".out"

# Criterion 3's band for the median Monte Carlo thresholds on uniform laws.
KAPPA_B_BAND = (0.197, 0.237)
KAPPA_A_BAND = (0.763, 0.803)
# shoot_kappa on the tent law at tol 1e-10 (the law is symmetric, so the
# upper threshold is 1 minus this).  The Monte Carlo estimate on the tent law
# must land within criterion 3's half-width of it.
KAPPA_TENT = 0.33000886791493533
MC_HALF_WIDTH = 0.02

# Criterion 5's perturbation and its bound.
EDITS = (coupling.Edit(0, "add", "bid", 0.31), coupling.Edit(0, "add", "bid", 0.905),
         coupling.Edit(0, "add", "ask", 0.91), coupling.Edit(0, "add", "ask", 0.955),
         coupling.Edit(500, "remove_best", "ask"))
EDIT_BOUND = 5

FIVE_BIN_EPS = 0.01
CLI_FILES = ("checkpoints.csv", "occupation.csv", "joint.csv", "top_shape.csv")


def uniform_spec() -> ArrivalSpec:
    return ArrivalSpec(uniform_dist(), uniform_dist())


def tent_spec() -> ArrivalSpec:
    tent = piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    return ArrivalSpec(tent, tent)


def table_spec() -> ArrivalSpec:
    """The uniform law as a 17-row CDF table: same thresholds, RK4 code path."""
    xs = np.linspace(0.0, 1.0, 17)
    return ArrivalSpec(cdf_table_dist(xs, xs), cdf_table_dist(xs, xs))


# ---------------------------------------------------------------------------
# Digests and the per-pass log

def digest_of(*parts) -> str:
    """Order-sensitive hash of arrays, numbers, strings and nested containers."""
    h = hashlib.sha256()
    _feed(h, parts)
    return h.hexdigest()[:16]


def _feed(h, x) -> None:
    if isinstance(x, np.ndarray):
        h.update(f"a{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (list, tuple)):
        h.update(b"(")
        for y in x:
            _feed(h, y)
        h.update(b")")
    elif isinstance(x, dict):
        h.update(b"{")
        for k in sorted(x):
            _feed(h, k)
            _feed(h, x[k])
        h.update(b"}")
    elif isinstance(x, (float, np.floating)):
        h.update(b"f" + float(x).hex().encode())
    elif isinstance(x, (int, np.integer)):
        h.update(b"i" + str(int(x)).encode())
    elif x is None:
        h.update(b"N")
    else:
        h.update(b"s" + str(x).encode())


TRACE_FIELDS = ("cp_time", "cp_bids", "cp_asks", "cp_beta", "cp_alpha",
                "bid_arrivals", "ask_arrivals", "bid_exec_by_ask", "ask_exec_by_bid",
                "reservoir_executions", "final_bids", "final_asks",
                "occupation_b", "occupation_a", "occupation_elapsed", "joint_hist",
                "top_shape_sums", "top_shape_visits",
                "runmax_last_jump", "runmax_value", "runmax_series")


def trace_parts(trace) -> dict:
    return {f: getattr(trace, f, None) for f in TRACE_FIELDS}


@dataclass
class Unit:
    name: str
    events: int
    log: "PassLog"
    digest: str | None = None
    ran: bool = False

    def record(self, *parts) -> None:
        self.digest = digest_of(*parts)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.log.check([self.name], name, ok, detail)


class PassLog:
    """Units of one pass: digests, errors and the names of the checks that ran."""

    def __init__(self, unit_names, tracer=None):
        self.units = {n: Unit(n, 0, self) for n in unit_names}
        self.errors: dict[str, list[str]] = {n: [] for n in unit_names}
        self.checks: set[str] = set()
        self.tracer = tracer

    @contextlib.contextmanager
    def unit(self, name: str, events: int):
        u = self.units[name]
        u.events = events
        span = self.tracer.open(f"bench.{name}") if self.tracer else None
        try:
            yield u
            u.ran = True
        except Exception:
            self.errors[name].append("raised: " + traceback.format_exc(limit=-3))
        finally:
            if span is not None:
                self.tracer.close(span)

    def check(self, unit_names, name: str, ok: bool, detail: str = "") -> None:
        self.checks.add(name)
        if not ok:
            for n in unit_names:
                self.errors[n].append(f"check {name} failed: {detail}")

    def finish(self) -> None:
        for n, u in self.units.items():
            if not u.ran and not self.errors[n]:
                self.errors[n].append("did not run")

    @property
    def failed(self) -> list[str]:
        return [n for n, errs in self.errors.items() if errs]

    @property
    def events(self) -> int:
        return sum(u.events for u in self.units.values())

    @property
    def digests(self) -> dict[str, str | None]:
        return {n: u.digest for n, u in self.units.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    units: tuple[str, ...]
    checks: tuple[str, ...]
    sizes: dict            # "full" / "tiny" -> size parameters
    build: Callable        # (seed, size) -> inputs
    run: Callable          # (inputs, PassLog) -> None


# ---------------------------------------------------------------------------
# threshold_mc: the Monte Carlo threshold route (criterion 3, `kappa --mode mc`)

MC_UNIFORM_UNITS = 3


def build_threshold(seed: int, size: dict) -> dict:
    return {"specs": {"uniform": uniform_spec(), "tent": tent_spec()},
            "n": size["n_events"],
            "seeds": [seed * 100 + k for k in range(MC_UNIFORM_UNITS + 1)]}


def run_threshold(inp: dict, log: PassLog) -> None:
    n = inp["n"]
    estimates = {}
    for k, seed in enumerate(inp["seeds"]):
        law = "uniform" if k < MC_UNIFORM_UNITS else "tent"
        name = f"mc_{law}_{k}" if law == "uniform" else "mc_tent"
        spec = inp["specs"][law]
        with log.unit(name, events=n) as u:
            arr = sim.materialize(sim.ArrivalStream(seed, n, spec))
            trace = sim.run_arrivals(MatchRule(ORDINARY), BookState(), arr,
                                     max(1, n // 100), seed=seed)
            est = sim.estimate_kappa(trace, spec)
            u.record(trace_parts(trace), astuple(est))
            # Each execution removes one bid and one ask, so the side counts
            # differ by exactly the difference in arrivals.
            u.check("conservation",
                    trace.bid_arrivals + trace.ask_arrivals == n
                    and trace.final_bids - trace.final_asks
                    == trace.bid_arrivals - trace.ask_arrivals
                    and trace.reservoir_executions == 0,
                    f"arrivals {trace.bid_arrivals}+{trace.ask_arrivals}, "
                    f"final {trace.final_bids}/{trace.final_asks}")
            estimates[name] = est
    uniform = [u for u in estimates if u.startswith("mc_uniform")]
    if len(uniform) == MC_UNIFORM_UNITS:
        med_b = median(estimates[u].kappa_b_hat for u in uniform)
        med_a = median(estimates[u].kappa_a_hat for u in uniform)
        log.check(uniform, "criterion3_band",
                  KAPPA_B_BAND[0] <= med_b <= KAPPA_B_BAND[1]
                  and KAPPA_A_BAND[0] <= med_a <= KAPPA_A_BAND[1],
                  f"median kappa_b_hat={med_b:.4f}, kappa_a_hat={med_a:.4f}")
    if "mc_tent" in estimates:
        est = estimates["mc_tent"]
        log.check(["mc_tent"], "tent_band",
                  abs(est.kappa_b_hat - KAPPA_TENT) <= MC_HALF_WIDTH
                  and abs(est.kappa_a_hat - (1.0 - KAPPA_TENT)) <= MC_HALF_WIDTH,
                  f"kappa_b_hat={est.kappa_b_hat:.4f}, kappa_a_hat={est.kappa_a_hat:.4f}")


# ---------------------------------------------------------------------------
# coupling_binned: criterion 5's pathwise suite plus the sandwich estimates

def build_coupling(seed: int, size: dict) -> dict:
    spec = uniform_spec()
    return {"specs": {"uniform": spec}, "n": size["n_events"], "seed": seed,
            "fine": make_partition(100, spec), "coarse": make_partition(10, spec)}


def run_coupling(inp: dict, log: PassLog) -> None:
    n, seed = inp["n"], inp["seed"]
    spec, fine, coarse = inp["specs"]["uniform"], inp["fine"], inp["coarse"]
    arr = sim.materialize(sim.ArrivalStream(seed, n, spec))
    checks = (
        ("extra_order", lambda: coupling.check_extra_order(
            BookState(), Order("bid", 0.9, -1), arr, MatchRule(ORDINARY), seed=seed)),
        ("bounded_perturbation", lambda: coupling.check_bounded_perturbation(
            BookState(), list(EDITS), arr, MatchRule(ORDINARY), M=EDIT_BOUND, seed=seed)),
        ("refinement_ordinary", lambda: coupling.check_refinement(
            fine, coarse, ORDINARY_BINNED, arr, seed=seed)),
        ("refinement_strict", lambda: coupling.check_refinement(
            fine, coarse, STRICT_BINNED, arr, seed=seed)),
    )
    for name, call in checks:
        with log.unit(name, events=2 * n) as u:      # two books per arrival
            report = call()
            u.record(report.name, report.n_events, report.violations,
                     report.first_violation_index)
            u.check("coupling_violations", report.violations == 0 and report.n_events == n,
                    f"{report.violations} violations, first at "
                    f"{report.first_violation_index}")
    with log.unit("sandwich", events=3 * n) as u:     # strict, fine, coarse books
        sw = coupling.estimate_sandwich(fine.n_bins, spec, n, seed)
        ests = (sw.kappa_strict, sw.kappa_fine, sw.kappa_coarse)
        u.record([astuple(e) for e in ests], sw.n_bins_fine, sw.n_bins_coarse)
        u.check("sandwich_estimates",
                all(0.0 < e.Fb_kappa_hat < 1.0 and 0.0 < e.Fa_kappa_hat < 1.0
                    and math.isfinite(e.kappa_b_hat) and math.isfinite(e.kappa_a_hat)
                    for e in ests),
                repr([astuple(e) for e in ests]))


# ---------------------------------------------------------------------------
# recurrence_recorders: reservoir books, in-loop recorders and CLI output

def build_recurrence(seed: int, size: dict) -> dict:
    return {"specs": {"uniform": uniform_spec()}, "n": size["n_events"], "seed": seed}


def _data_lines(path: Path) -> list[str]:
    """CSV lines without the '#' comment line, which carries a config hash."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def run_recurrence(inp: dict, log: PassLog) -> None:
    n, seed, spec = inp["n"], inp["seed"], inp["specs"]["uniform"]
    with log.unit("five_bin", events=n) as u:
        rep = lyapunov.simulate_5bin(FIVE_BIN_EPS, n, seed, K=20.0, spec=spec)
        stats = {code: (s.visits, s.dx_sum, s.visits_hi, s.dgauge_sum, s.dgauge_sq)
                 for code, s in rep.regions.items()}
        u.record(stats, rep.excursion_lengths, rep.final_state)
        visits = sum(s.visits for s in rep.regions.values())
        u.check("five_bin_accounting",
                visits <= n and sum(rep.excursion_lengths) <= n
                and all(s.visits_hi <= s.visits for s in rep.regions.values()),
                f"{visits} region visits, excursions {sum(rep.excursion_lengths)}")
    with log.unit("geometric_bound", events=n) as u:
        rep = lyapunov.check_geometric_bound(0.4, 0.6, spec, n, seed)
        u.record(rep.rho_bid, rep.rho_ask, rep.n_samples, rep.bid_tail, rep.ask_tail)
        start = n // 2
        u.check("geometric_rho",
                abs(rep.rho_bid - 0.5) < 1e-12 and abs(rep.rho_ask - 0.5) < 1e-12
                and rep.n_samples == len(range(start, n, 50)),
                f"rho={rep.rho_bid}/{rep.rho_ask}, {rep.n_samples} samples")
    with log.unit("running_max", events=n) as u:
        ev = lyapunov.running_max_evidence(spec, n, seed, n_bins=100, series=True)
        u.record(ev.k_b, ev.k_a, ev.last_jump_index, ev.max_value, ev.series)
        u.check("running_max_series",
                (ev.k_b, ev.k_a) == (21, 78) and -1 <= ev.last_jump_index < n
                and ev.series.shape == (n, 3)
                and ev.max_value == int(ev.series[:, 2].max()),
                f"bins ({ev.k_b}, {ev.k_a}), last jump {ev.last_jump_index}")
    OUT_DIR.mkdir(exist_ok=True)
    with log.unit("cli_simulate", events=n) as u, \
            tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--n", str(n), "--seed", str(seed),
                             "--bins", "100", "--out", tmp])
        out = Path(tmp)
        files = {f: _data_lines(out / f) for f in CLI_FILES}
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("config", None)
        u.record(files, summary)
        u.check("cli_outputs",
                code == cli.EXIT_OK and len(files["checkpoints.csv"]) == 101
                and summary.get("n") == n and "kappa_b_hat" in summary,
                f"exit {code}, {len(files['checkpoints.csv'])} checkpoint lines")


# ---------------------------------------------------------------------------
# analytic_oracles: ODE shooting, the balance solve and exact certificates

def build_analytic(seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    spec = uniform_spec()
    kb, _ = analytics.kappa_uniform_exact()
    return {"specs": {"uniform": spec, "tent": tent_spec(), "table": table_spec()},
            "partition": make_partition(100, spec),
            # the seed picks where the tabulated law is integrated and the
            # eps window the published certificate is asked about
            "varpi_at": kb + 0.01 * (2.0 * rng.random() - 1.0),
            "eps_max": Fraction(int(rng.integers(0, 1000)), 40_000),
            **size}


def _enumerated_table() -> dict:
    return {c: lyapunov.enumerated_drift_affine(c) for c in lyapunov.DRIFT_REGIONS}


def run_analytic(inp: dict, log: PassLog) -> None:
    specs = inp["specs"]
    uni, tent = specs["uniform"], specs["tent"]
    kb, ka = analytics.kappa_uniform_exact()
    with log.unit("shoot_uniform", events=1) as u:
        sol = analytics.shoot_kappa(uni, tol=inp["tol"], n_scan=inp["n_scan"])
        exact = analytics.varpi_uniform_exact(np.clip(sol.grid, kb, ka))
        sup_err = float(np.max(np.abs(sol.varpi_b - exact)))
        u.check("uniform_shoot",
                abs(sol.kappa_b - kb) <= 1e-6 and abs(sol.v_end - 1.0) <= 1e-4
                and sup_err <= 1e-4,
                f"|kappa-exact|={abs(sol.kappa_b - kb):.2e}, "
                f"|v_end-1|={abs(sol.v_end - 1.0):.2e}, sup err {sup_err:.2e}")
    with log.unit("shoot_tent", events=1) as u:
        sol = analytics.shoot_kappa(tent, tol=inp["tol"], n_scan=inp["n_scan"])
        u.check("tent_shoot",
                abs(sol.kappa_b - KAPPA_TENT) <= 1e-6
                and abs(sol.kappa_a - (1.0 - sol.kappa_b)) <= 1e-8
                and abs(sol.v_end - 1.0) <= 1e-4,
                f"kappa=({sol.kappa_b}, {sol.kappa_a}), v_end={sol.v_end}")
    with log.unit("varpi_table", events=1) as u:
        at = inp["varpi_at"]
        _, _, v_tab, u_tab = analytics.integrate_varpi(specs["table"], at,
                                                       grid_n=inp["table_grid"])
        _, _, v_ref, u_ref = analytics.integrate_varpi(uni, at, grid_n=inp["table_grid"])
        u.check("table_matches_adaptive",
                abs(u_tab - u_ref) <= 1e-6 and abs(v_tab[-1] - v_ref[-1]) <= 1e-6,
                f"u_end {u_tab} vs {u_ref}")
    with log.unit("binned_pi", events=1) as u:
        part = inp["partition"]
        k_b, k_a = part.index(kb), part.index(ka)
        res = analytics.solve_binned_pi(uni, part, k_b, k_a, float(uni.bid_dist.cdf(kb)))
        mass = part.masses(uni.bid_dist)
        centers = 0.5 * (part.edges[:-1] + part.edges[1:])
        err = max(abs(res.pi_b[k] / mass[k] - analytics.varpi_uniform_exact(centers[k]))
                  for k in range(k_b + 1, k_a))
        u.check("binned_pi_continuum", err <= 0.05 and abs(res.pi_b.sum() - 1.0) <= 1e-4,
                f"max ratio error {err:.4f}, mass {res.pi_b.sum()}")
    with log.unit("finiteness", events=1) as u:
        lb = analytics.finiteness_lower_bound(uni)
        u.check("finiteness_bound", lb is not None and abs(lb - 1.0 / 9.0) <= 1e-3,
                f"bound {lb}")
    with log.unit("certify_published", events=1) as u:
        eps = inp["eps_max"]
        cert = lyapunov.certify_drift(eps)
        u.record(cert.entries, cert.passed, cert.eps_star, cert.min_margin_at_zero)
        u.check("certificate_exact",
                cert.eps_star == Fraction(1, 30) and cert.passed == (eps < Fraction(1, 30))
                and cert.min_margin_at_zero == Fraction(-1, 25),
                f"eps_star={cert.eps_star}, passed={cert.passed} at eps={eps}")
    with log.unit("certify_enumerated", events=1) as u:
        cert = lyapunov.certify_drift(Fraction(3, 25), drifts=_enumerated_table())
        u.record(cert.entries, cert.passed, cert.eps_star, cert.min_margin_at_zero)
        u.check("enumerated_certificate", all(v1 < 0 for *_, v1, _ in cert.entries),
                f"{len(cert.failures)} failing pairs")
    with log.unit("level_fixture", events=1) as u:
        fx = lyapunov.verify_level_fixture()
        u.record(fx.vertex_values, fx.vertex_attains, fx.face_normals, fx.discrepancies)
        u.check("level_fixture", len(fx.vertex_values) == 15 * 7,
                f"{len(fx.vertex_values)} vertex values")


WORKLOADS = {w.name: w for w in (
    Workload("threshold_mc",
             units=tuple(f"mc_uniform_{k}" for k in range(MC_UNIFORM_UNITS)) + ("mc_tent",),
             checks=("conservation", "criterion3_band", "tent_band"),
             sizes={"full": {"n_events": 60_000}, "tiny": {"n_events": 20_000}},
             build=build_threshold, run=run_threshold),
    Workload("coupling_binned",
             units=("extra_order", "bounded_perturbation", "refinement_ordinary",
                    "refinement_strict", "sandwich"),
             checks=("coupling_violations", "sandwich_estimates"),
             sizes={"full": {"n_events": 12_000}, "tiny": {"n_events": 2_000}},
             build=build_coupling, run=run_coupling),
    Workload("recurrence_recorders",
             units=("five_bin", "geometric_bound", "running_max", "cli_simulate"),
             checks=("five_bin_accounting", "geometric_rho", "running_max_series",
                     "cli_outputs"),
             sizes={"full": {"n_events": 40_000}, "tiny": {"n_events": 5_000}},
             build=build_recurrence, run=run_recurrence),
    Workload("analytic_oracles",
             units=("shoot_uniform", "shoot_tent", "varpi_table", "binned_pi",
                    "finiteness", "certify_published", "certify_enumerated",
                    "level_fixture"),
             checks=("uniform_shoot", "tent_shoot", "table_matches_adaptive",
                     "binned_pi_continuum", "finiteness_bound", "certificate_exact",
                     "enumerated_certificate", "level_fixture"),
             sizes={"full": {"n_scan": 64, "tol": 1e-10, "table_grid": 64},
                    "tiny": {"n_scan": 8, "tol": 1e-8, "table_grid": 16}},
             build=build_analytic, run=run_analytic),
)}
