#!/usr/bin/env python3
"""Five-bin recurrence evidence: certificates, empirical drifts, joint shape.

Writes (a) the exact drift-negativity certificate for both the published
drift table and the one-arrival enumeration, (b) the per-region empirical
drift table from a reservoir-book run, and (c) joint best-bid/best-ask and
top-of-book shape histograms from the same arrivals.
"""

import argparse
from fractions import Fraction
from pathlib import Path

import numpy as np

from lobphase import lyapunov, sim
from lobphase.book import ORDINARY_BINNED, BookState, MatchRule
from lobphase.dist import ArrivalSpec, uniform_dist
from lobphase.output import config_hash, write_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.01)
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--K", type=float, default=20.0)
    ap.add_argument("--out", default="out/recurrence")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    eps = Fraction(str(args.eps))

    cert = lyapunov.certify_drift(eps)
    (out / "certificate_published.txt").write_text(cert.render_text() + "\n")
    enum_table = {c: lyapunov.enumerated_drift_affine(c)
                  for c in lyapunov.DRIFT_REGIONS}
    cert_enum = lyapunov.certify_drift(eps, drifts=enum_table)
    (out / "certificate_enumerated.txt").write_text(cert_enum.render_text() + "\n")
    print(f"published table: {'PASS' if cert.passed else 'FAIL'} on [0, {eps}], "
          f"limit {cert.eps_star}")
    print(f"enumerated table: {'PASS' if cert_enum.passed else 'FAIL'} on "
          f"[0, {eps}], limit {cert_enum.eps_star} "
          "(valid window for the exact drifts opens at 2/35)")

    rep = lyapunov.simulate_5bin(args.eps, args.n, args.seed, K=args.K)
    rows = []
    for code, st in sorted(rep.regions.items()):
        mean_dx = 2.0 * st.mean_dx()
        exact = [float(c0 + c1 * args.eps)
                 for c0, c1 in lyapunov.enumerated_drift_affine(code)]
        rows.append((code, st.visits, *np.round(mean_dx, 4), *np.round(exact, 4),
                     st.visits_hi, round(st.mean_dgauge(), 4)))
    write_csv(out / "empirical_drifts.csv",
              ["region", "visits", "dx1", "dx2", "dx3",
               "exact1", "exact2", "exact3", "visits_above_K", "mean_dgauge"],
              rows, {"seed": args.seed, "config": config_hash(vars(args))})
    print(f"wrote {out}/empirical_drifts.csv "
          f"({len(rep.excursion_lengths)} excursions above K={args.K})")

    # joint and top-shape histograms from the same reservoir book
    part = lyapunov.five_bin_partition(args.eps)
    lo = 0.5 * (0.2 + args.eps)
    spec = ArrivalSpec(uniform_dist(), uniform_dist())
    trace = sim.run(MatchRule(ORDINARY_BINNED, part),
                    BookState(bid_reservoir=lo, ask_reservoir=1.0 - lo),
                    sim.ArrivalStream(args.seed, args.n, spec),
                    max(1, args.n // 100), record_partition=part,
                    record_joint=True, record_top_shape=True)
    sim.write_trace_csvs(trace, out, vars(args))
    print(f"wrote occupation, joint and top-shape histograms to {out}/")


if __name__ == "__main__":
    main()
