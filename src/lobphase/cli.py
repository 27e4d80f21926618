"""Command-line entry point.

Subcommands cover every experiment: simulate, kappa, ode, pi, check,
lyapunov, bound3, couple, runmax.  Options may come from flags or a JSON
config file (flags win); outputs are plain CSVs plus one JSON summary per
run, each stamped with the seed and a config hash.

Exit codes: 0 success, 2 config error, 3 runtime assertion, 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import analytics, book, coupling, lyapunov, sim
from .book import (ORDINARY, ORDINARY_BINNED, STRICT_BINNED, BookInvariantError,
                   BookState, MatchRule)
from .dist import ArrivalSpec, dist_from_config, make_partition, uniform_dist
from .output import config_hash, write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK_FAILED = 4

SUITES = ("coupling", "lyapunov", "bounds", "all")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated run options; unknown config-file keys are rejected."""

    dist: str = "uniform"
    dist_bid: dict | None = None
    dist_ask: dict | None = None
    rule: str = ORDINARY
    n: int = 100_000
    bins: int = 100
    seed: int = 0
    seeds: list[int] | None = None
    record_every: int = 0
    eps: float = 0.01
    out: str = "out"
    mode: str = "exact"
    compare: bool = False
    suite: str = "all"
    x: float = 0.4
    y: float = 0.6
    tol: float = 1e-10
    time_mode: str = "event_count"

    @classmethod
    def load(cls, args: argparse.Namespace) -> "RunConfig":
        types = {f.name: f.type for f in fields(cls)}
        known = set(types)
        merged: dict = {}
        cfg_path = getattr(args, "config", None)
        if cfg_path:
            try:
                file_cfg = json.loads(Path(cfg_path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            unknown = set(file_cfg) - known
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            merged.update(file_cfg)
        for name in known:
            val = getattr(args, name, None)
            if val is not None:
                merged[name] = val
        cfg = cls(**{name: _checked(name, val, types[name])
                     for name, val in merged.items()})
        if cfg.n < 0:
            raise ConfigError("n must be nonnegative")
        if cfg.rule not in (ORDINARY, ORDINARY_BINNED, STRICT_BINNED):
            raise ConfigError(f"unknown rule {cfg.rule!r}")
        if cfg.suite not in SUITES:
            raise ConfigError(f"unknown suite {cfg.suite!r}; use one of {', '.join(SUITES)}")
        if cfg.bins < 2:
            raise ConfigError("bins must be at least 2")
        if not 0 < cfg.tol < 1:
            raise ConfigError(f"tol must be in (0, 1), got {cfg.tol}")
        if cfg.record_every < 0:
            raise ConfigError("record_every must be nonnegative")
        return cfg

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_PLAIN = {"str": str, "bool": bool, "dict": dict}


def _checked(name: str, val, kind: str):
    """`val` as the field type `kind` names, or ConfigError.

    Integral floats pass as ints (JSON writes 1e5 as a float); bools never
    pass as numbers, and None only where the field is optional.
    """
    if val is None and kind.endswith("| None"):
        return None
    base = kind.removesuffix(" | None")
    if base == "int" and not isinstance(val, bool):
        if isinstance(val, int):
            return val
        if isinstance(val, float) and val.is_integer():
            return int(val)
    elif base == "float" and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    elif base == "list[int]" and isinstance(val, list):
        return [_checked(f"{name} entry", v, "int") for v in val]
    elif base in _PLAIN and isinstance(val, _PLAIN[base]):
        return val
    raise ConfigError(f"{name} must be {base}, got {val!r}")


def build_spec(cfg: RunConfig) -> ArrivalSpec:
    if cfg.dist_bid or cfg.dist_ask:
        bid = dist_from_config(cfg.dist_bid or {"kind": "uniform"})
        ask = dist_from_config(cfg.dist_ask or {"kind": "uniform"})
        return ArrivalSpec(bid, ask)
    if cfg.dist == "uniform":
        return ArrivalSpec(uniform_dist(), uniform_dist())
    raise ConfigError(f"unknown --dist {cfg.dist!r}; use a config file for "
                      "piecewise_linear or cdf_table laws")


def build_rule(cfg: RunConfig, spec: ArrivalSpec) -> MatchRule:
    if cfg.rule == ORDINARY:
        return MatchRule(ORDINARY)
    return MatchRule(cfg.rule, make_partition(cfg.bins, spec))


def cmd_simulate(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    rule = build_rule(cfg, spec)
    part = rule.partition or make_partition(cfg.bins, spec)
    stream = sim.ArrivalStream(cfg.seed, cfg.n, spec, cfg.time_mode)
    trace = sim.run(rule, BookState(), stream,
                    cfg.record_every or max(1, cfg.n // 100),
                    record_partition=part, record_joint=True,
                    record_top_shape=True)
    outdir = Path(cfg.out)
    sim.write_trace_csvs(trace, outdir, cfg.as_dict())
    summary = {"seed": cfg.seed, "n": cfg.n, "config": config_hash(cfg.as_dict())}
    if cfg.n and trace.cp_time.size >= 10:
        est = sim.estimate_kappa(trace, spec)
        summary.update(kappa_b_hat=est.kappa_b_hat, kappa_a_hat=est.kappa_a_hat,
                       Fb_kappa_hat=est.Fb_kappa_hat, stderr_proxy=est.stderr_proxy)
        print(f"kappa_b_hat={est.kappa_b_hat:.4f} kappa_a_hat={est.kappa_a_hat:.4f}")
    write_json(outdir / "summary.json", summary)
    print(f"kernel: {book.KERNEL}")
    print(f"wrote outputs to {outdir}/")
    return EXIT_OK


def cmd_kappa(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    bid, ask = spec.bid_dist, spec.ask_dist
    is_uniform = bid.kind == ask.kind == "uniform"
    results: dict[str, tuple[float, float]] = {}
    modes = ("exact", "ode", "mc") if cfg.compare else (cfg.mode,)
    for mode in modes:
        if mode == "exact":
            if not is_uniform:
                if cfg.compare:
                    continue
                print("exact mode requires uniform/uniform arrivals", file=sys.stderr)
                return EXIT_CONFIG
            if bid.support != ask.support:
                raise ConfigError(f"exact mode needs one uniform support for both sides, "
                                  f"got bids on {bid.support} and asks on {ask.support}")
            # The closed form is for [0, 1]; the thresholds move with the support.
            lo, hi = bid.support
            kb, ka = (lo + (hi - lo) * k for k in analytics.kappa_uniform_exact())
            w = analytics.lambert_w_of_inv_e()
            print(f"exact: kappa_b={kb:.6f} kappa_a={ka:.6f} "
                  f"(fixed-point residual {abs(w*np.exp(w)-np.exp(-1)):.2e})")
            results["exact"] = (kb, ka)
        elif mode == "ode":
            sol = analytics.shoot_kappa(spec, tol=cfg.tol)
            print(f"ode:   kappa_b={sol.kappa_b:.6f} kappa_a={sol.kappa_a:.6f} "
                  f"(u_end={sol.u_end:.2e}, v_end={sol.v_end:.6f})")
            results["ode"] = (sol.kappa_b, sol.kappa_a)
        elif mode == "mc":
            if cfg.n < 10:
                raise ConfigError(f"--mode mc needs --n >= 10 for its 10 checkpoints, "
                                  f"got {cfg.n}")
            trace = sim.run(MatchRule(ORDINARY), BookState(),
                            sim.ArrivalStream(cfg.seed, cfg.n, spec),
                            max(1, cfg.n // 100))
            est = sim.estimate_kappa(trace, spec)
            if est.Fb_kappa_hat <= 0 or est.Fa_kappa_hat <= 0:
                print(f"mc estimate degenerate: a tail ratio is zero (F_b="
                      f"{est.Fb_kappa_hat:g}, F_a={est.Fa_kappa_hat:g}) after "
                      f"{cfg.n} arrivals; raise --n", file=sys.stderr)
                return EXIT_RUNTIME
            print(f"mc:    kappa_b={est.kappa_b_hat:.6f} kappa_a={est.kappa_a_hat:.6f} "
                  f"(n={cfg.n}, seed={cfg.seed})")
            print(f"kernel: {book.KERNEL}")
            results["mc"] = (est.kappa_b_hat, est.kappa_a_hat)
        else:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return EXIT_CONFIG
    if cfg.compare:
        labels = sorted(results)
        ok = True
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                d = abs(results[a][0] - results[b][0])
                tol = 0.02 if "mc" in (a, b) else 1e-5
                status = "PASS" if d <= tol else "FAIL"
                ok &= d <= tol
                print(f"|{a} - {b}| = {d:.6f} (tol {tol}) {status}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_ode(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    sol = analytics.shoot_kappa(spec, tol=cfg.tol)
    outdir = Path(cfg.out)
    fb = np.asarray(spec.bid_dist.density(sol.grid), dtype=float)
    fa = np.asarray(spec.ask_dist.density(sol.grid), dtype=float)
    write_csv(outdir / "varpi.csv",
              ["x", "varpi_b", "varpi_a", "density_b", "density_a"],
              zip(sol.grid, sol.varpi_b, sol.varpi_a, sol.varpi_b * fb,
                  sol.varpi_a * fa),
              {"seed": cfg.seed, "config": config_hash(cfg.as_dict())})
    write_json(outdir / "ode_summary.json", {
        "kappa_b": sol.kappa_b, "kappa_a": sol.kappa_a,
        "u_end": sol.u_end, "v_end": sol.v_end,
        "mass_b": sol.mass_b, "mass_a": sol.mass_a,
        "grid_n": int(sol.grid.size)})
    print(f"kappa_b={sol.kappa_b:.8f} kappa_a={sol.kappa_a:.8f} "
          f"residual={sol.u_end:.2e}")
    return EXIT_OK


def cmd_pi(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    part = make_partition(cfg.bins, spec)
    sol = analytics.shoot_kappa(spec, tol=cfg.tol)
    k_b = part.index(sol.kappa_b)
    k_a = part.index(sol.kappa_a)
    fb_kappa = float(spec.bid_dist.cdf(sol.kappa_b))
    binned = analytics.solve_binned_pi(spec, part, k_b, k_a, fb_kappa)
    edges = part.edges
    write_csv(Path(cfg.out) / "binned_pi.csv",
              ["bin_lo", "bin_hi", "pi_b", "pi_a"],
              zip(edges[:-1], edges[1:], binned.pi_b, binned.pi_a),
              {"seed": cfg.seed, "config": config_hash(cfg.as_dict())})
    print(f"solved {cfg.bins}-bin occupation system: residual="
          f"{binned.residual:.2e}")
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    seeds = cfg.seeds or [cfg.seed]
    failed = False
    if cfg.suite in ("coupling", "all") and cfg.n < 1:
        raise ConfigError(f"the coupling suite needs --n >= 1 arrivals, got {cfg.n}")
    if cfg.suite in ("coupling", "all"):
        from .book import Order
        fine = make_partition(max(cfg.bins, 10), spec)
        coarse = make_partition(max(cfg.bins // 10, 2), spec)
        rows = []
        for s in seeds:
            arr = sim.materialize(sim.ArrivalStream(s, cfg.n, spec))
            reports = [
                coupling.check_extra_order(BookState(), Order("bid", 0.9, -1),
                                           arr, MatchRule(ORDINARY), seed=s),
                coupling.check_bounded_perturbation(
                    BookState(),
                    [coupling.Edit(0, "add", "bid", 0.31),
                     coupling.Edit(0, "add", "bid", 0.905),
                     coupling.Edit(min(100, cfg.n), "add", "ask", 0.61)],
                    arr, MatchRule(ORDINARY), M=3, seed=s),
                coupling.check_refinement(fine, coarse, ORDINARY_BINNED, arr, seed=s),
                coupling.check_refinement(fine, coarse, STRICT_BINNED, arr, seed=s),
            ]
            rows += coupling.report_rows(reports)
            for r in reports:
                status = "PASS" if r.passed else "FAIL"
                failed |= not r.passed
                print(f"[coupling/{r.name}] seed={s} violations={r.violations} {status}")
        write_csv(Path(cfg.out) / "coupling_reports.csv",
                  ["check", "seed", "arrivals", "violations", "first_violation_index"],
                  rows, {"config": config_hash(cfg.as_dict())})
    if cfg.suite in ("lyapunov", "all"):
        cert = lyapunov.certify_drift(Fraction(str(cfg.eps)))
        status = "PASS" if cert.passed else "FAIL"
        failed |= not cert.passed
        print(f"[lyapunov/certificate] eps_max={cfg.eps} admissible_limit="
              f"{cert.eps_star} {status}")
    if cfg.suite in ("bounds", "all"):
        bound = analytics.lower_bound_3bin(cfg.x, cfg.y)
        fb_kappa = _threshold_mass(spec, cfg.tol)
        ok = float(bound) <= fb_kappa
        failed |= not ok
        print(f"[bounds/3bin] bound={bound} <= F_b(kappa_b)={fb_kappa:.4f} "
              f"{'PASS' if ok else 'FAIL'}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _threshold_mass(spec: ArrivalSpec, tol: float) -> float:
    """F_b(kappa_b): the closed form when both sides share one uniform law."""
    bid, ask = spec.bid_dist, spec.ask_dist
    if bid.kind == ask.kind == "uniform" and bid.support == ask.support:
        return analytics.kappa_uniform_exact()[0]
    return float(bid.cdf(analytics.shoot_kappa(spec, tol=tol).kappa_b))


def cmd_lyapunov(cfg: RunConfig) -> int:
    cert = lyapunov.certify_drift(Fraction(str(cfg.eps)))
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "certificate.txt").write_text(cert.render_text() + "\n")
    fixture = lyapunov.verify_level_fixture()
    write_csv(outdir / "level_fixture.csv", ["vertex", "normal", "value"],
              fixture.csv_rows(), {"config": config_hash(cfg.as_dict())})
    print(cert.render_text())
    if fixture.discrepancies:
        print("fixture notes:")
        for d in fixture.discrepancies:
            print("  " + d)
    return EXIT_OK if cert.passed else EXIT_CHECK_FAILED


def cmd_bound3(cfg: RunConfig) -> int:
    bound = analytics.lower_bound_3bin(cfg.x, cfg.y)
    print(f"lower_bound_3bin({cfg.x}, {cfg.y}) = {bound} = {float(bound):.6f}")
    return EXIT_OK


def cmd_couple(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    sw = coupling.estimate_sandwich(cfg.bins, spec, cfg.n, cfg.seed)
    estimates = (sw.kappa_strict, sw.kappa_fine, sw.kappa_coarse)
    if any(e.Fb_kappa_hat <= 0 or e.Fa_kappa_hat <= 0 for e in estimates):
        print(f"sandwich estimate degenerate: a tail ratio is zero after {cfg.n} "
              "arrivals; raise --n", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"kappa_b estimates with {sw.n_bins_fine} fine / {sw.n_bins_coarse} "
          f"coarse bins (n={cfg.n}, seed={cfg.seed}):")
    print(f"  strict   {sw.kappa_strict.kappa_b_hat:.4f}")
    print(f"  ordinary {sw.kappa_fine.kappa_b_hat:.4f}")
    print(f"  coarse   {sw.kappa_coarse.kappa_b_hat:.4f}")
    return EXIT_OK


def cmd_runmax(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    ev = lyapunov.running_max_evidence(spec, cfg.n, cfg.seed, n_bins=cfg.bins,
                                       series=True)
    write_csv(Path(cfg.out) / "running_max.csv", ["t", "count", "running_max"],
              ev.series, {"seed": cfg.seed, "config": config_hash(cfg.as_dict())})
    print(f"last running-max jump at arrival {ev.last_jump_index} of "
          f"{cfg.n} (fraction {ev.last_jump_fraction:.3f}); max={ev.max_value}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "kappa": cmd_kappa,
    "ode": cmd_ode,
    "pi": cmd_pi,
    "check": cmd_check,
    "lyapunov": cmd_lyapunov,
    "bound3": cmd_bound3,
    "couple": cmd_couple,
    "runmax": cmd_runmax,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--dist", help="arrival law shorthand (uniform)")
    p.add_argument("--rule", help="ordinary | ordinary_binned | strict_binned")
    p.add_argument("--n", type=int, help="number of arrivals")
    p.add_argument("--bins", type=int, help="partition size N")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--seeds", type=int, nargs="+", help="seed list for suites")
    p.add_argument("--record-every", dest="record_every", type=int)
    p.add_argument("--eps", type=float, help="bin asymmetry for the 5-bin model")
    p.add_argument("--out", help="output directory")
    p.add_argument("--mode", help="kappa mode: mc | ode | exact")
    p.add_argument("--compare", action="store_const", const=True, default=None)
    p.add_argument("--suite", help="check suite: coupling | lyapunov | bounds | all")
    p.add_argument("--x", type=float, help="lower cut for bounds")
    p.add_argument("--y", type=float, help="upper cut for bounds")
    p.add_argument("--tol", type=float, help="shooting tolerance on u_end")
    p.add_argument("--time-mode", dest="time_mode",
                   help="event_count | poisson timestamps")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lobphase",
        description="Phase-transition analytics for a state-independent limit order book")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(sub.add_parser(name))
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:    # a bad option value, or an unusable path
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BookInvariantError as exc:
        print(f"runtime assertion failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (analytics.ShootingError, analytics.SingularCoefficientError,
            analytics.InfeasibleBalanceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
