"""Bit-for-bit pins of the analytic routes' outputs.

A speedup of the shooter, the Magnus integrator, the certificate scan or the
balance solve must return the same floats, not merely close ones.  Each
float is pinned as its `float.hex`, each array as a digest of its bytes, on
the uniform law, the tent law and the uniform law as a 17-row CDF table
(`n_scan=64`, `tol=1e-10`, as the benchmark's analytic workload runs them).
The pins were recorded with numpy 2.4 on x86-64; the balance solve goes
through LAPACK, so another numpy build may round it differently.
"""

import hashlib

import numpy as np
import pytest

from lobphase import analytics
from lobphase.dist import (ArrivalSpec, cdf_table_dist, make_partition,
                           piecewise_linear_dist, uniform_dist)


def spec_of(name: str) -> ArrivalSpec:
    if name == "uniform":
        return ArrivalSpec(uniform_dist(), uniform_dist())
    if name == "tent":
        tent = piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
        return ArrivalSpec(tent, tent)
    xs = np.linspace(0.0, 1.0, 17)
    return ArrivalSpec(cdf_table_dist(xs, xs), cdf_table_dist(xs, xs))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def observed(name: str) -> dict:
    spec = spec_of(name)
    sol = analytics.shoot_kappa(spec, tol=1e-10, n_scan=64)
    _, u, v, _ = analytics.integrate_varpi(spec, 0.22, grid_n=64)
    part = make_partition(100, spec)
    pi = analytics.solve_binned_pi(spec, part, part.index(sol.kappa_b), part.index(sol.kappa_a),
                                   float(spec.bid_dist.cdf(sol.kappa_b)))
    return {
        **{k: getattr(sol, k).hex() for k in ("kappa_b", "kappa_a", "u_end", "v_end",
                                               "mass_b", "mass_a")},
        "varpi": digest(sol.varpi_b, sol.varpi_a),
        "integrate_varpi_0.22": digest(u, v),
        "finiteness": analytics.finiteness_lower_bound(spec).hex(),
        "binned_pi_100": digest(pi.pi_b, pi.pi_a),
    }


PINS = {
    "uniform": {"kappa_b": "0x1.be14104609c73p-3", "kappa_a": "0x1.907afbee7d8e3p-1",
                "u_end": "0x1.c524000000000p-38", "v_end": "0x1.fffffffffc0fap-1",
                "mass_b": "0x1.000006c951e3dp+0", "mass_a": "0x1.000006c94ccd4p+0",
                "varpi": "3fe51eacdd84a015", "integrate_varpi_0.22": "ce43ebe9318a4812",
                "finiteness": "0x1.c71c71c71c71cp-4", "binned_pi_100": "9cec61ececd711cd"},
    "tent": {"kappa_b": "0x1.51edd83b3a0c8p-2", "kappa_a": "0x1.570913e262f9cp-1",
             "u_end": "0x1.07b0000000000p-40", "v_end": "0x1.ffffffffff8e8p-1",
             "mass_b": "0x1.0000004de9592p+0", "mass_a": "0x1.0000004de8a48p+0",
             "varpi": "3157dbef9952cd6e", "integrate_varpi_0.22": "31cd79d7abfc4ba6",
             "finiteness": "0x1.c71c71c71c729p-4", "binned_pi_100": "612aceea3bcc1604"},
    # the table's density is 1 between its knots, and every output equals the
    # uniform law's to the bit
    "table": {"kappa_b": "0x1.be14104609c73p-3", "kappa_a": "0x1.907afbee7d8e3p-1",
              "u_end": "0x1.c524000000000p-38", "v_end": "0x1.fffffffffc0fap-1",
              "mass_b": "0x1.000006c951e3dp+0", "mass_a": "0x1.000006c94ccd4p+0",
              "varpi": "3fe51eacdd84a015", "integrate_varpi_0.22": "ce43ebe9318a4812",
              "finiteness": "0x1.c71c71c71c71cp-4", "binned_pi_100": "9cec61ececd711cd"},
}
UNIFORM_EXACT = ("0x1.be1410460527ep-3", "0x1.907afbee7eb60p-1")
UNIFORM_VARPI = "f7e2b8aba2023ea4"


@pytest.mark.parametrize("name", list(PINS))
def test_analytic_outputs_are_pinned(name):
    assert observed(name) == PINS[name]


def test_uniform_closed_form_is_pinned():
    kb, ka = analytics.kappa_uniform_exact()
    assert (kb.hex(), ka.hex()) == UNIFORM_EXACT
    assert digest(analytics.varpi_uniform_exact(np.linspace(kb, ka, 101))) == UNIFORM_VARPI
