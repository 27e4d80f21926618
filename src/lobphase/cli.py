"""Command-line entry point.

Subcommands cover every experiment: simulate, kappa, ode, pi, check,
lyapunov, bound3, couple, runmax.  Each accepts only the `RunConfig` fields
that `_COMMANDS` says it reads, as flags or as keys of a JSON config file
(flags win; the laws `dist_bid` and `dist_ask` come from the file only).
Outputs are plain CSVs plus one JSON summary per run, each stamped with a
config hash and, where the run draws arrivals, the seed.

Exit codes: 0 success, 2 config error, 3 runtime assertion, 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path

import numpy as np

from . import analytics, book, coupling, lyapunov, sim
from .book import (ORDINARY, ORDINARY_BINNED, STRICT_BINNED, BookInvariantError,
                   BookState, MatchRule, Order)
from .dist import ArrivalSpec, dist_from_config, make_partition, union_refinement
from .output import config_hash, write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK_FAILED = 4

CHOICES = {"rule": (ORDINARY, ORDINARY_BINNED, STRICT_BINNED),
           "mode": ("exact", "ode", "mc"),
           "suite": ("coupling", "lyapunov", "bounds", "all"),
           "time_mode": (sim.EVENT_COUNT, sim.POISSON)}


# The coupling suite's perturbation, criterion 5's: four orders added to the
# empty book, then the best ask removed before arrival 500.  Every edit
# leaves the book uncrossed.
_PERTURBATION = [coupling.Edit(0, "add", "bid", 0.31), coupling.Edit(0, "add", "bid", 0.905),
                coupling.Edit(0, "add", "ask", 0.91), coupling.Edit(0, "add", "ask", 0.955),
                coupling.Edit(500, "remove_best", "ask")]


class ConfigError(ValueError):
    pass


def _opt(default, doc: str):
    return field(default=default, metadata={"help": doc})


@dataclass
class RunConfig:
    """Validated run options; a subcommand accepts only the fields it reads."""

    dist_bid: dict | None = None
    dist_ask: dict | None = None
    rule: str = ORDINARY
    n: int = _opt(100_000, "number of arrivals")
    bins: int = _opt(100, "partition size N")
    seed: int = _opt(0, "random seed, in [0, 2**64)")
    seeds: list[int] | None = _opt(None, "seed list for the coupling suite")
    record_every: int = _opt(0, "checkpoint spacing in arrivals; 0 for n/100")
    eps: float = _opt(0.01, "bin asymmetry for the 5-bin model")
    out: str = _opt("out", "output directory")
    mode: str = "exact"
    compare: bool = _opt(False, "run every mode and compare the thresholds")
    suite: str = "all"
    x: float = _opt(0.4, "lower cut for bounds")
    y: float = _opt(0.6, "upper cut for bounds")
    tol: float = _opt(1e-10, "the threshold search stops once |u_end| <= tol at the "
                             "returned level; it does not bound the error in kappa_b")
    time_mode: str = sim.EVENT_COUNT

    @classmethod
    def load(cls, args: argparse.Namespace, reads: frozenset[str]) -> "RunConfig":
        """Merge the config file under the flags; refuse keys outside `reads`."""
        types = {f.name: f.type for f in fields(cls)}
        merged: dict = {}
        if args.config:
            try:
                file_cfg = dict(json.loads(Path(args.config).read_text()))
            except (OSError, TypeError, ValueError) as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            unread = set(file_cfg) - reads
            if unread:
                raise ConfigError(f"config keys that {args.command} does not read: "
                                  f"{sorted(unread)}")
            merged.update(file_cfg)
        merged.update((name, getattr(args, name)) for name in reads
                      if getattr(args, name, None) is not None)
        cfg = cls(**{name: _checked(name, val, types[name])
                     for name, val in merged.items()})
        if cfg.n < 0:
            raise ConfigError("n must be nonnegative")
        if not all(0 <= s < 2**64 for s in [cfg.seed, *(cfg.seeds or ())]):
            raise ConfigError("seed and seeds must lie in [0, 2**64)")
        for name, allowed in CHOICES.items():
            if getattr(cfg, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(cfg, name)!r}; "
                                  f"use one of {', '.join(allowed)}")
        if cfg.bins < 2:
            raise ConfigError("bins must be at least 2")
        if not 0 < cfg.tol < 1:
            raise ConfigError(f"tol must be in (0, 1), got {cfg.tol}")
        if cfg.record_every < 0:
            raise ConfigError("record_every must be nonnegative")
        return cfg

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# The Python type of a field's value, or of its entries for a list.
_TYPES = {"int": int, "float": float, "str": str, "bool": bool, "dict": dict,
          "list[int]": int}


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
    elif base in ("str", "bool", "dict") and isinstance(val, _TYPES[base]):
        return val
    raise ConfigError(f"{name} must be {base}, got {val!r}")


def build_spec(cfg: RunConfig) -> ArrivalSpec:
    """The configured laws; a side the config file gives no law is uniform on [0, 1]."""
    uniform = {"kind": "uniform"}
    return ArrivalSpec(dist_from_config(cfg.dist_bid or uniform),
                       dist_from_config(cfg.dist_ask or uniform))


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.n < 1:
        raise ConfigError(f"simulate needs --n >= 1 arrivals, got {cfg.n}")
    spec = build_spec(cfg)
    part = make_partition(cfg.bins, spec)
    rule = MatchRule(cfg.rule, None if cfg.rule == ORDINARY else part)
    stream = sim.ArrivalStream(cfg.seed, cfg.n, spec, cfg.time_mode)
    trace = sim.run(rule, BookState(), stream,
                    cfg.record_every or max(1, cfg.n // 100), record_partition=part)
    outdir = Path(cfg.out)
    sim.write_trace_csvs(trace, outdir, cfg.as_dict())
    summary = {"seed": cfg.seed, "n": cfg.n, "config": config_hash(cfg.as_dict())}
    if trace.cp_time.size >= 10:
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
    results: dict[str, tuple[float, float]] = {}
    modes = ("exact", "ode", "mc") if cfg.compare else (cfg.mode,)
    for mode in modes:
        if mode == "exact":
            if not bid.kind == ask.kind == "uniform":
                if cfg.compare:
                    continue
                raise ConfigError("exact mode requires uniform/uniform arrivals")
            if bid.support != ask.support:
                raise ConfigError(f"exact mode needs one uniform support for both sides, "
                                  f"got bids on {bid.support} and asks on {ask.support}")
            kb, ka = analytics.thresholds(spec)
            w = analytics.lambert_w_of_inv_e()
            print(f"exact: kappa_b={kb:.6f} kappa_a={ka:.6f} "
                  f"(fixed-point residual {abs(w*np.exp(w)-np.exp(-1)):.2e})")
            results["exact"] = (kb, ka)
        elif mode == "ode":
            sol = analytics.shoot_kappa(spec, tol=cfg.tol)
            print(f"ode:   kappa_b={sol.kappa_b:.6f} kappa_a={sol.kappa_a:.6f} "
                  f"(u_end={sol.u_end:.2e}, v_end={sol.v_end:.6f})")
            results["ode"] = (sol.kappa_b, sol.kappa_a)
        else:
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
    if cfg.compare:
        ok = True
        for a, b in combinations(sorted(results), 2):
            d = abs(results[a][0] - results[b][0])
            tol = 0.02 if "mc" in (a, b) else 1e-5
            ok &= d <= tol
            print(f"|{a} - {b}| = {d:.6f} (tol {tol}) {'PASS' if d <= tol else 'FAIL'}")
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
              {"config": config_hash(cfg.as_dict())})
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
    k_b, k_a = part.index(sol.kappa_b), part.index(sol.kappa_a)
    fb_kappa = float(spec.bid_dist.cdf(sol.kappa_b))
    binned = analytics.solve_binned_pi(spec, part, k_b, k_a, fb_kappa)
    edges = part.edges
    write_csv(Path(cfg.out) / "binned_pi.csv",
              ["bin_lo", "bin_hi", "pi_b", "pi_a"],
              zip(edges[:-1], edges[1:], binned.pi_b, binned.pi_a),
              {"config": config_hash(cfg.as_dict())})
    print(f"solved {cfg.bins}-bin occupation system: residual="
          f"{binned.residual:.2e}")
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    seeds = cfg.seeds or [cfg.seed]
    failed = False
    if cfg.suite in ("coupling", "all"):
        if cfg.n < 1:
            raise ConfigError(f"the coupling suite needs --n >= 1 arrivals, got {cfg.n}")
        # the fine partition holds every cut of the coarse one, whatever --bins
        coarse = make_partition(max(cfg.bins // 10, 2), spec)
        fine = union_refinement(make_partition(max(cfg.bins, 10), spec), coarse)
        rows = []
        for s in seeds:
            arr = sim.materialize(sim.ArrivalStream(s, cfg.n, spec))
            reports = [
                coupling.check_extra_order(BookState(), Order("bid", 0.9, -1),
                                           arr, MatchRule(ORDINARY), seed=s),
                coupling.check_bounded_perturbation(BookState(), _PERTURBATION, arr,
                                                    MatchRule(ORDINARY), M=5, seed=s),
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
        fb_kappa = float(spec.bid_dist.cdf(analytics.thresholds(spec, cfg.tol)[0]))
        ok = float(bound) <= fb_kappa
        failed |= not ok
        print(f"[bounds/3bin] bound={bound} <= F_b(kappa_b)={fb_kappa:.4f} "
              f"{'PASS' if ok else 'FAIL'}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


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
    if cfg.n < 10:
        raise ConfigError(f"couple needs --n >= 10 for its 10 checkpoints, got {cfg.n}")
    if cfg.bins < 4:
        raise ConfigError(f"couple needs --bins >= 4, got {cfg.bins}")
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
    if cfg.n < 1:
        raise ConfigError(f"runmax needs --n >= 1 arrivals, got {cfg.n}")
    spec = build_spec(cfg)
    ev = lyapunov.running_max_evidence(spec, cfg.n, cfg.seed, n_bins=cfg.bins,
                                       series=True)
    write_csv(Path(cfg.out) / "running_max.csv", ["t", "count", "running_max"],
              ev.series, {"seed": cfg.seed, "config": config_hash(cfg.as_dict())})
    print(f"last running-max jump at arrival {ev.last_jump_index} of "
          f"{cfg.n} (fraction {ev.last_jump_fraction:.3f}); max={ev.max_value}")
    return EXIT_OK


# Each subcommand and the RunConfig fields it reads: its flags, and the keys
# its config file may set.  Every command that calls build_spec reads the laws.
_LAWS = " dist_bid dist_ask"
_COMMANDS = {name: (cmd, frozenset(reads.split())) for name, (cmd, reads) in {
    "simulate": (cmd_simulate, "rule n bins seed record_every time_mode out" + _LAWS),
    "kappa": (cmd_kappa, "mode compare tol n seed" + _LAWS),
    "ode": (cmd_ode, "tol out" + _LAWS),
    "pi": (cmd_pi, "bins tol out" + _LAWS),
    "check": (cmd_check, "suite n bins seed seeds eps x y tol out" + _LAWS),
    "lyapunov": (cmd_lyapunov, "eps out"),
    "bound3": (cmd_bound3, "x y"),
    "couple": (cmd_couple, "bins n seed" + _LAWS),
    "runmax": (cmd_runmax, "n seed bins out" + _LAWS),
}.items()}


@cache
def _parser() -> argparse.ArgumentParser:
    """One subparser per command, with a flag for each non-dict field it reads;
    built once per process, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lobphase",
        description="Phase-transition analytics for a state-independent limit order book")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        for f in fields(RunConfig):
            kind = f.type.removesuffix(" | None")
            if f.name not in reads or kind == "dict":
                continue
            flag = "--" + f.name.replace("_", "-")
            doc = " | ".join(CHOICES[f.name]) if f.name in CHOICES else f.metadata["help"]
            if kind == "bool":
                p.add_argument(flag, action="store_const", const=True, help=doc)
                continue
            p.add_argument(flag, type=_TYPES[kind], nargs="+" if kind.startswith("list") else None,
                           help=doc if f.default is None else f"{doc} (default {f.default})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    command, reads = _COMMANDS[args.command]
    try:
        return command(RunConfig.load(args, reads))
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
