"""Golden traces: sha256 digests of every recorded trace field for fixed runs.

The digests were recorded with the per-event reference loop (one
`apply_arrival` call per arrival).  Any change to the event loop, the
recorders or the arrival draw that moves a single bit of a checkpoint,
counter, occupation sum, histogram or series changes a digest.
"""

import hashlib

import numpy as np
import pytest

from lobphase import sim
from lobphase.book import ORDINARY, ORDINARY_BINNED, STRICT_BINNED, BookState, MatchRule
from lobphase.dist import make_partition

TRACE_FIELDS = ("cp_time", "cp_bids", "cp_asks", "cp_beta", "cp_alpha",
                "bid_arrivals", "ask_arrivals", "bid_exec_by_ask", "ask_exec_by_bid",
                "reservoir_executions", "elapsed", "final_bids", "final_asks",
                "occupation_b", "occupation_a", "occupation_elapsed", "joint_hist",
                "top_shape_sums", "top_shape_visits", "runmax_bins",
                "runmax_last_jump", "runmax_value", "runmax_series")


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name in TRACE_FIELDS:
        value = getattr(trace, name)
        h.update(name.encode())
        if value is None:
            h.update(b"N")
        elif isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, tuple):
            h.update(repr(tuple(int(v) for v in value)).encode())
        elif isinstance(value, (float, np.floating)):
            h.update(float(value).hex().encode())
        else:
            h.update(str(int(value)).encode())
    return h.hexdigest()


def _ordinary_1e6(spec):
    return sim.run(MatchRule(ORDINARY), BookState(),
                   sim.ArrivalStream(7, 1_000_000, spec), 10_000)


def _binned_recorders(spec):
    part = make_partition(100, spec)
    return sim.run(MatchRule(ORDINARY_BINNED, part), BookState(),
                   sim.ArrivalStream(3, 60_000, spec), 600,
                   record_partition=part, record_joint=True, record_top_shape=True,
                   runmax_bins=(21, 78), runmax_series=True)


def _reservoirs(spec):
    part = make_partition(20, spec)
    return sim.run(MatchRule(ORDINARY), BookState(bid_reservoir=0.4, ask_reservoir=0.6),
                   sim.ArrivalStream(11, 100_000, spec), 1000,
                   record_partition=part, record_joint=True,
                   runmax_bins=(8, 11), runmax_series=True)


def _strict_poisson(spec):
    part = make_partition(20, spec)
    return sim.run(MatchRule(STRICT_BINNED, part),
                   BookState(bids=[0.05, 0.3], asks=[0.7, 0.92],
                             bid_reservoir=0.02, ask_reservoir=0.98),
                   sim.ArrivalStream(5, 50_000, spec, time_mode="poisson"), 500,
                   record_partition=part, record_joint=True, record_top_shape=True)


# name -> (run, sha256 of its trace fields)
GOLDEN = {
    "ordinary_1e6": (
        _ordinary_1e6, "106aed7dac23b3bd27cdf2334e7fcb83e5b4163957c4e6d04c620cbfdb83d82b"),
    "binned_recorders": (
        _binned_recorders, "4bce51818ab1d2017adbbf059db1565500fd632f21d5091731c30d17bc535a97"),
    "reservoirs": (
        _reservoirs, "066bce45c7bd90842bfef3fc210c3bcf3f63287078e2497e5dc3b6babeccb0e4"),
    "strict_poisson": (
        _strict_poisson, "8af2d6cc46aaceca66297241a27bb7448ad3f897b1bf9806ce6701c9fc97c8ae"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace(name, uniform_spec):
    make, digest = GOLDEN[name]
    assert trace_digest(make(uniform_spec)) == digest
