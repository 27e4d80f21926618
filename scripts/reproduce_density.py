#!/usr/bin/env python3
"""Best-bid location density: Monte Carlo occupation vs the exact curve.

Runs the ordinary book for n arrivals with uniform laws, records the
occupation measure of the best-bid bin on a 100-bin grid (first half
discarded as burn-in), solves the ODE for the same law, and writes one CSV
with both curves per bin.  Any plotter can overlay the two columns.
"""

import argparse
from pathlib import Path

import numpy as np

from lobphase import analytics, sim
from lobphase.book import ORDINARY, BookState, MatchRule
from lobphase.dist import ArrivalSpec, make_partition, uniform_dist
from lobphase.output import config_hash, write_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--bins", type=int, default=100)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="out/density")
    args = ap.parse_args()

    spec = ArrivalSpec(uniform_dist(), uniform_dist())
    part = make_partition(args.bins, spec)
    trace = sim.run(MatchRule(ORDINARY), BookState(),
                    sim.ArrivalStream(args.seed, args.n, spec),
                    max(1, args.n // 100), record_partition=part)
    pi_b, pi_a = sim.empirical_pi(trace)

    sol = analytics.shoot_kappa(spec, tol=1e-10)
    centers = 0.5 * (part.edges[:-1] + part.edges[1:])
    exact = np.zeros(part.n_bins)
    inside = (centers >= sol.kappa_b) & (centers <= sol.kappa_a)
    exact[inside] = np.interp(centers[inside], sol.grid, sol.varpi_b)
    widths = part.widths()

    cfg = vars(args)
    write_csv(Path(args.out) / "density_comparison.csv",
              ["bin_center", "empirical_pi_b", "exact_density_times_width",
               "empirical_pi_a"],
              zip(centers, pi_b, exact * widths, pi_a),
              {"seed": args.seed, "config": config_hash(cfg)})
    tv = 0.5 * float(np.sum(np.abs(pi_b - exact * widths)))
    print(f"kappa_b={sol.kappa_b:.6f}; TV(empirical, exact)={tv:.4f}")
    print(f"wrote {args.out}/density_comparison.csv")


if __name__ == "__main__":
    main()
