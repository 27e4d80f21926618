"""Golden traces: sha256 digests of every recorded trace field for fixed runs.

The digests were recorded with the per-event reference loop (one
`apply_arrival` call per arrival).  Any change to the event loop, the
recorders or the arrival draw that moves a single bit of a checkpoint,
counter, occupation sum, histogram or series changes a digest.  Every run is
checked under the kernel `match_arrivals` loads (the compiled one where a C
compiler is available) and again under the Python loop and the numpy
top-shape pass, so the digests that record top shape pin both of its
implementations.
"""

import hashlib

import numpy as np
import pytest

from lobphase import book, lyapunov, sim
from lobphase.book import ORDINARY, ORDINARY_BINNED, STRICT_BINNED, BookState, MatchRule
from lobphase.dist import make_partition

TRACE_FIELDS = ("cp_time", "cp_bids", "cp_asks", "cp_beta", "cp_alpha",
                "bid_arrivals", "ask_arrivals", "bid_exec_by_ask", "ask_exec_by_bid",
                "reservoir_executions", "elapsed", "final_bids", "final_asks",
                "occupation_b", "occupation_a", "occupation_elapsed", "joint_hist",
                "top_shape_sums", "top_shape_visits",
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
                   record_partition=part, runmax_band=lyapunov._band_prices(part, 21, 78))


def _reservoirs(spec):
    part = make_partition(20, spec)
    return sim.run(MatchRule(ORDINARY), BookState(bid_reservoir=0.4, ask_reservoir=0.6),
                   sim.ArrivalStream(11, 100_000, spec), 1000,
                   record_partition=part, runmax_band=lyapunov._band_prices(part, 8, 11))


def _strict_poisson(spec):
    part = make_partition(20, spec)
    return sim.run(MatchRule(STRICT_BINNED, part),
                   BookState(bids=[0.05, 0.3], asks=[0.7, 0.92],
                             bid_reservoir=0.02, ask_reservoir=0.98),
                   sim.ArrivalStream(5, 50_000, spec, time_mode="poisson"), 500,
                   record_partition=part)


# name -> (run, sha256 of its trace fields).  The reservoirs and
# strict_poisson digests were re-recorded when the occupation recorder began
# to bin the first inter-arrival interval with the initial book's best
# quotes (it had binned it as an empty book); no other field moved.  All
# four were re-recorded when `runmax_bins`, an echo of an input, left the
# fields and the reservoirs run began to record top shape too.
GOLDEN = {
    "ordinary_1e6": (
        _ordinary_1e6, "02c9ccf12bfc799c9cc022544605d282e815b00a0efa870cdf9933b10c6e06bb"),
    "binned_recorders": (
        _binned_recorders, "9745fa7790c6efc04c721d71f7c1914ebd2abd744302969d2d50c641f02cb4c6"),
    "reservoirs": (
        _reservoirs, "efcdc42eccda13960c52bab0e2d57779360bf09007105be26f7db46172059829"),
    "strict_poisson": (
        _strict_poisson, "316cecf4b31ed6dc74876b04397b45337b6bc5d21918a6b373abaa5cd3c813ee"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace(name, uniform_spec):
    make, digest = GOLDEN[name]
    assert trace_digest(make(uniform_spec)) == digest


@pytest.fixture
def python_loop(monkeypatch):
    monkeypatch.setattr(book, "_loaded", book._PYTHON_KERNEL)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_on_python_loop(name, uniform_spec, python_loop):
    make, digest = GOLDEN[name]
    assert book._kernel() == book._PYTHON_KERNEL
    assert trace_digest(make(uniform_spec)) == digest


def test_golden_trace_without_compiler(monkeypatch, tmp_path, uniform_spec):
    monkeypatch.setattr(book, "_cache_dirs", lambda: (tmp_path,))
    monkeypatch.setattr(book, "_CC", str(tmp_path / "missing-cc"))
    monkeypatch.setattr(book, "_loaded", None)
    make, digest = GOLDEN["strict_poisson"]     # reservoirs and top shape
    assert trace_digest(make(uniform_spec)) == digest
    assert book._kernel() == book._PYTHON_KERNEL


def five_bin_digest(rep) -> str:
    h = hashlib.sha256()
    for code, st in rep.regions.items():
        h.update(f"{code}{st.visits},{st.visits_hi},".encode())
        h.update(st.dx_sum.tobytes())
        h.update(f"{float(st.dgauge_sum).hex()},{float(st.dgauge_sq).hex()}".encode())
    h.update(repr(rep.excursion_lengths).encode())
    h.update(repr(rep.final_state).encode())
    return h.hexdigest()


# (eps, n_events, K) -> sha256 of simulate_5bin's region statistics,
# excursion lengths and final state at seed 4.  The short runs straddle a
# 256-event boundary and use a low K so that their gauge sums are not empty.
FIVE_BIN_GOLDEN = {
    (0.01, 0, 20.0):
        "a28ef624af07415cfb9cdafdfee556ee49fe915f2cd369ba6ceb9d4297ac3206",
    (0.01, 255, 1.0):
        "dce1e87c7eb2dcbb10f3ecd751ce5e20137ad8cf96645f79b1085adb0c516a29",
    (0.01, 257, 1.0):
        "2be51d08c3df6c0c25e4f978a184db4c64adc9fa7e236ed4d243faddae475409",
    (0.01, 200_000, 20.0):
        "31583d7e4d371d24c6e952ff11864b734b76f0fdff652477aac2fb3aaa2701f0",
    (0.1, 200_000, 20.0):
        "0bfc44e4e4995f74770fe99167be31e3d4d37ceddeaf5ae4fb3e319458a90dc4",
}


@pytest.mark.parametrize("eps, n, K", sorted(FIVE_BIN_GOLDEN))
def test_golden_five_bin(eps, n, K):
    rep = lyapunov.simulate_5bin(eps, n, seed=4, K=K)
    assert five_bin_digest(rep) == FIVE_BIN_GOLDEN[eps, n, K]


def runmax_digest(evidence) -> str:
    h = hashlib.sha256()
    for ev in evidence:
        h.update(repr((int(ev.k_b), int(ev.k_a), ev.last_jump_index, ev.max_value)).encode())
        h.update(f"{ev.series.dtype.str}{ev.series.shape}".encode())
        h.update(np.ascontiguousarray(ev.series).tobytes())
    return h.hexdigest()


# (k_b, k_a) -> sha256 of running_max_evidence's bins, last jump, maximum
# and series over seeds 0-2 at 20k arrivals and 100 bins: the bins holding
# the thresholds, a control band, the whole book and an empty band.
RUNMAX_GOLDEN = {
    (None, None): "2a91a5c2b86e74d483c4b73e7e052c214a6afc25fd449157a8a7b53ffe783b52",
    (10, 89): "7d053fb7a6f1fce9685ce2697a382112c65ce5a70ddc4af8f6f5b636a75085b4",
    (-1, 100): "bebb5cd5c4b89f539031af5388da462f9712715fe4461e0214eb8a0f341478fb",
    (99, 0): "e0dd3b0a7ddcc204c1a3847bf64ee68cd8422b1680e377d98874576912e1bed7",
}


@pytest.mark.parametrize("k_b, k_a", list(RUNMAX_GOLDEN))
def test_golden_running_max(k_b, k_a, uniform_spec):
    evidence = [lyapunov.running_max_evidence(uniform_spec, 20_000, seed, k_b=k_b, k_a=k_a,
                                              series=True) for seed in range(3)]
    assert runmax_digest(evidence) == RUNMAX_GOLDEN[k_b, k_a]
