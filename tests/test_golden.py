"""Golden traces: sha256 digests of every recorded trace field for fixed runs.

The digests were recorded with the per-event reference loop (one
`apply_arrival` call per arrival).  Any change to the event loop, the
recorders or the arrival draw that moves a single bit of a checkpoint,
counter, occupation sum, histogram or series changes a digest.  Every run is
checked under the kernel `book.KERNEL` names (the compiled one where a C
compiler is available) and again under the Python loop and the numpy
recorder passes, so the digests of the binned recorders and of the five-bin
pass pin both of their implementations.
"""

import hashlib

import numpy as np
import pytest

from lobphase import book, dist, lyapunov, sim
from lobphase.book import ORDINARY, ORDINARY_BINNED, STRICT_BINNED, BookState, MatchRule
from lobphase.dist import make_partition

from helpers import match_arrivals

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


# Each run takes its length n, with a checkpoint every n // 100 arrivals.

def _ordinary_1e6(spec, n=1_000_000):
    return sim.run(MatchRule(ORDINARY), BookState(), sim.ArrivalStream(7, n, spec), n // 100)


def _binned_recorders(spec, n=60_000):
    part = make_partition(100, spec)
    return sim.run(MatchRule(ORDINARY_BINNED, part), BookState(),
                   sim.ArrivalStream(3, n, spec), n // 100,
                   record_partition=part, runmax_band=lyapunov._band_prices(part, 21, 78))


def _reservoirs(spec, n=100_000):
    part = make_partition(20, spec)
    return sim.run(MatchRule(ORDINARY), BookState(bid_reservoir=0.4, ask_reservoir=0.6),
                   sim.ArrivalStream(11, n, spec), n // 100,
                   record_partition=part, runmax_band=lyapunov._band_prices(part, 8, 11))


def _strict_poisson(spec, n=50_000):
    part = make_partition(20, spec)
    return sim.run(MatchRule(STRICT_BINNED, part),
                   BookState(bids=[0.05, 0.3], asks=[0.7, 0.92],
                             bid_reservoir=0.02, ask_reservoir=0.98),
                   sim.ArrivalStream(5, n, spec, time_mode="poisson"), n // 100,
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


@pytest.mark.parametrize("eps, n, K", sorted(FIVE_BIN_GOLDEN))
def test_golden_five_bin_on_python_loop(eps, n, K, python_loop):
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


# -- the chunked loop ----------------------------------------------------------
#
# sim.run draws, matches and records `sim.CHUNK` arrivals at a time.  Every
# golden run must give the same digest whatever the chunk size: one arrival
# per chunk, seven, 4096 and one chunk for the whole run, under both kernels.
# Where many chunks would be slow the runs are shortened; their digests below
# were recorded with the whole-run recorder passes that the chunked fold
# replaced.  The 1e6-arrival run is shortened to 1e5 throughout.

WHOLE = 2**62       # one chunk, whatever the run's length
CHUNKED_LENGTHS = {1: 600, 7: 3000, 4096: None, WHOLE: None}    # None: the golden length
SHORT_GOLDEN = {
    ("binned_recorders", 600): "1140d1ce7f0eb35a741a7645d37e17c01af0e82059096c3ee4a1adca9335bfa3",
    ("binned_recorders", 3000): "db350d037813bdaf6d384fd21d0be483e5d5f842c616b0abb5e1538d0daa353e",
    ("ordinary_1e6", 600): "14a9fe87c4bcb58359a4181109925d370d6a2a936ddea9219f8a3bd75212d7e0",
    ("ordinary_1e6", 3000): "05fd328d7c89ab0f17d148c6288957e7d9d1f573c931bb9866963f769297145c",
    ("ordinary_1e6", 100_000):
        "00d5202a264383bc357b54c2eac3c56974358b1630d2da591d158d3b623882d4",
    ("reservoirs", 600): "592da874c4e0405491744d2bd4daae6ae37ad9a6551ce9570b002c06f92bf46d",
    ("reservoirs", 3000): "21408e40c064fa744d9c49bdf90554ef52edc4cbe3ef277bf1d1f9a2b925cbd7",
    ("strict_poisson", 600): "2231022e33b4b5b2287b3b3f99f46419e6402c35b8d3c961349f213d648d4152",
    ("strict_poisson", 3000): "7e14bc6fb68f1a7e301bbc36807ed0ce703d6f0fa4c216d72b95b14ac4b37436",
}
# (k_b, k_a, n) -> RUNMAX_GOLDEN's digest with the runs shortened to n arrivals
SHORT_RUNMAX_GOLDEN = {
    (None, None, 600): "261bafafcaad0e0df3f5bf15aae3a01dbc4ac6d4d3c1bde23eafa176648f1fe8",
    (None, None, 3000): "727cc95450def989ca1644fbe83c42141626ecb9a86043c389577472aa5423e7",
    (10, 89, 600): "e59227e289a7f4e8f651f3a6b0636f254b73c91df85ca412a8ce19c4a7733aec",
    (10, 89, 3000): "82becc64d64122b54f23e39097de7c9c5938409ddaee7159bde98d42a0aae0f6",
    (-1, 100, 600): "aef9d26daf0907ac224ea2b4b658fd38c1ca2eba090424e9e2ea083f8c2b7b48",
    (-1, 100, 3000): "b5508be02c0f479ae672778f071b1a4b49a802c27a5b8811d206cb65443f122f",
    (99, 0, 600): "e3bdeb83b237e25ed97a05688d4f4bf346334ca3c0c6c264bbd42a928d918f8f",
    (99, 0, 3000): "959cce57a03dcce57e7cb939631c15af8620d5f9168679d7ab85f63016f3d179",
}


@pytest.fixture(params=["c", "python"])
def kernel(request, monkeypatch):
    """Run the test under the compiled kernel or the Python loop."""
    if request.param == "python":
        monkeypatch.setattr(book, "_loaded", book._PYTHON_KERNEL)
    elif book._kernel().name != "c":
        pytest.skip("no C compiler: the compiled kernel cannot be built")
    return request.param


@pytest.fixture(params=list(CHUNKED_LENGTHS), ids=lambda c: "whole" if c == WHOLE else str(c))
def chunk(request, monkeypatch):
    monkeypatch.setattr(sim, "CHUNK", request.param)
    return request.param


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_chunked_golden_trace(name, chunk, kernel, uniform_spec):
    make, digest = GOLDEN[name]
    n = CHUNKED_LENGTHS[chunk] or (100_000 if name == "ordinary_1e6" else None)
    if n is not None:
        digest = SHORT_GOLDEN[name, n]
    assert trace_digest(make(uniform_spec) if n is None else make(uniform_spec, n)) == digest


@pytest.mark.parametrize("k_b, k_a", list(RUNMAX_GOLDEN))
def test_chunked_golden_running_max(k_b, k_a, chunk, kernel, uniform_spec):
    n = CHUNKED_LENGTHS[chunk]
    digest = RUNMAX_GOLDEN[k_b, k_a] if n is None else SHORT_RUNMAX_GOLDEN[k_b, k_a, n]
    evidence = [lyapunov.running_max_evidence(uniform_spec, n or 20_000, seed, k_b=k_b,
                                              k_a=k_a, series=True) for seed in range(3)]
    assert runmax_digest(evidence) == digest


# (eps, n) -> FIVE_BIN_GOLDEN's digest at K = 20 with the run shortened to n
# arrivals, for seven-arrival chunks, recorded with the whole-run region pass
SHORT_FIVE_BIN_GOLDEN = {
    (0.01, 20_000): "88e2fcc2de54521fce75474751dced79d6b2ca3bbefbfc504187fd78d1fabe65",
    (0.1, 20_000): "b42848e30871e9d973d8a5751c8eb7adbdfe2d1f197974d74764c1868e4add53",
}


@pytest.mark.parametrize("eps, n, K", sorted(FIVE_BIN_GOLDEN))
@pytest.mark.parametrize("size", [7, 4096, WHOLE], ids=["7", "4096", "whole"])
def test_chunked_golden_five_bin(eps, n, K, size, kernel, monkeypatch):
    monkeypatch.setattr(sim, "CHUNK", size)
    digest = FIVE_BIN_GOLDEN[eps, n, K]
    if size == 7 and n > 20_000:
        n, digest = 20_000, SHORT_FIVE_BIN_GOLDEN[eps, 20_000]
    assert five_bin_digest(lyapunov.simulate_5bin(eps, n, seed=4, K=K)) == digest


def first_of_a_chunk(chunk: int) -> int:
    """The first arrival of the third chunk, or of the only one."""
    return 0 if chunk == WHOLE else 2 * chunk


def reservoir_collision(at: int, n: int = 3 * 4096 + 5) -> sim.Arrivals:
    """Arrivals that never cross the bid reservoir at 0.5 (bids below it, asks
    above it), but for an ask at exactly 0.5, arrival `at`."""
    rng = np.random.default_rng(8)
    is_bid = rng.random(n) < 0.5
    prices = np.where(is_bid, 0.5 * rng.random(n), 0.5 + 0.5 * rng.random(n))
    is_bid[at], prices[at] = False, 0.5
    return sim.Arrivals(is_bid, prices, 0.5 * np.arange(1, n + 1), 0.5)


def test_chunked_collision_names_the_global_arrival(chunk, kernel):
    at = first_of_a_chunk(chunk)
    arr = reservoir_collision(at)
    expected = f"arrival {at} at 0.5 collides with the opposite best quote"
    with pytest.raises(book.BookInvariantError) as whole:
        match_arrivals(BookState(bid_reservoir=0.5), MatchRule(ORDINARY), arr.is_bid,
                       arr.prices)
    with pytest.raises(book.BookInvariantError) as chunked:
        sim.run_arrivals(MatchRule(ORDINARY), BookState(bid_reservoir=0.5), arr, 100)
    assert str(chunked.value) == str(whole.value) == expected


def test_chunked_crossed_book_names_the_global_arrival(chunk, kernel, monkeypatch,
                                                       uniform_spec):
    # A loop that reports the book crossed after arrival `at`, the first of a
    # chunk: the order check after each chunk must name it by its index in
    # the whole run.
    at = first_of_a_chunk(chunk)
    loop = book._kernel()

    def crossing(state, rule, log):
        tie = loop.run(state, rule, log)
        start = done[0]
        done[0] += log.prices.size
        if start <= at < done[0]:
            log.beta[at - start] = log.alpha[at - start]
        return tie

    monkeypatch.setattr(book, "_loaded", loop._replace(run=crossing))
    arr = sim.materialize(sim.ArrivalStream(2, 3 * 4096 + 5, uniform_spec))
    messages = []
    for call in (lambda: match_arrivals(BookState(), MatchRule(ORDINARY), arr.is_bid,
                                        arr.prices),
                 lambda: sim.run_arrivals(MatchRule(ORDINARY), BookState(), arr, 100)):
        done = [0]
        with pytest.raises(book.BookInvariantError, match="out of order") as err:
            call()
        messages.append(str(err.value))
    assert messages[0] == messages[1] and messages[0].endswith(f"after arrival {at}")


# -- the arrival draw ------------------------------------------------------------
#
# sha256 of `sim.materialize`'s three arrays for each law kind, recorded with
# the numpy draw (one quantile call per side and chunk).  The built-in laws
# draw in C where the compiled kernel loads; the pushforward and custom laws
# always call their quantile.  Every case is checked under both kernels and
# with no compiler.

SHIFTED = dist.uniform_dist(2.5, 4.0)
TENT = dist.piecewise_linear_dist([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
# a flat segment, a zero-density one and asymmetric knots
STEPPED = dist.piecewise_linear_dist([0.0, 0.2, 0.45, 0.6, 0.8, 1.0],
                                     [1.0, 1.0, 0.0, 0.0, 3.0, 0.5])
TABLE_17 = dist.cdf_table_dist(np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 17))
UNEVEN = dist.cdf_table_dist([0.0, 0.1, 0.35, 0.4, 0.8, 1.0],
                             [0.0, 0.05, 0.5, 0.55, 0.9, 1.0])
SQUARE = dist.PriceDist(lambda x: 2.0 * np.asarray(x), lambda x: np.asarray(x) ** 2,
                        lambda u: np.sqrt(np.asarray(u, dtype=float)), (0.0, 1.0))
DRAW_LAWS = {
    "uniform": dist.ArrivalSpec(dist.uniform_dist(), dist.uniform_dist()),
    "shifted": dist.ArrivalSpec(SHIFTED, dist.uniform_dist(-1.0, 0.5)),
    "tent": dist.ArrivalSpec(TENT, TENT),
    "stepped": dist.ArrivalSpec(STEPPED, TENT),
    "table_17": dist.ArrivalSpec(TABLE_17, TABLE_17),
    "uneven": dist.ArrivalSpec(UNEVEN, STEPPED),
    "pushforward": dist.transform_to_uniform_bid(dist.ArrivalSpec(TENT, UNEVEN)),
    "custom": dist.ArrivalSpec(SQUARE, TABLE_17),
}
C1 = sim.CHUNK + 1
# (law, n, p_b, time mode) -> sha256 of is_bid, prices and times at seed 9.
# TABLE_17 is the uniform law as a table, and its interpolation gives back
# every draw exactly, so its digest at C1 is the uniform law's.
DRAW_GOLDEN = {
    ("uniform", 0, 0.5, "event_count"):
        "944b25cf2c7a4b7c5da6ddb66ec22dc6e28fec1de58a34c3a86fee6c28431a3c",
    ("uniform", 1, 0.5, "event_count"):
        "d56d7133295018699fbdb57c08ca95af32b3b70ce95c883a95e7f927278605bd",
    ("uniform", sim.CHUNK, 0.5, "event_count"):
        "3282d8126a9a78d1b4728f95a2196aedc398ccce444f7cca9186ec2bdd78b776",
    ("uniform", C1, 0.5, "event_count"):
        "454950e60c35f624a43e405c9a30a3ba42d376f2e8005991dca231677feac285",
    ("shifted", C1, 0.5, "event_count"):
        "0a27089ca980b9bf31b43131b9d9b9e9da989de7f90cbe2f2d18a6eb60cdf56e",
    ("tent", C1, 0.5, "event_count"):
        "1fb122c2a213b6b87a8fba74c5ccf0937c0d1ad0891c3def96523fa85608c7b6",
    ("tent", C1, 0.3, "poisson"):
        "4ee4bfa79a59ce349e505208083e20bd8b0ac482be0a47d9799a859039cd8aee",
    ("stepped", C1, 0.5, "event_count"):
        "9d3e026809759eca450173308d8a08605c1ad350f42835c320a4719c15fc711f",
    ("table_17", C1, 0.5, "event_count"):
        "454950e60c35f624a43e405c9a30a3ba42d376f2e8005991dca231677feac285",
    ("table_17", 1, 0.3, "poisson"):
        "4300107b3acbd111d3bc338a4fe863f488526a6f75ff438489ad330776a52340",
    ("uneven", C1, 0.3, "event_count"):
        "5f2da1516839799e5068602f38963f5f8243a58c791a109214f1a59935ae5600",
    ("pushforward", C1, 0.5, "event_count"):
        "a49b65849cba2e9358eb9917ab09dd6893788760708b13dedcaaa4569187b582",
    ("custom", C1, 0.5, "poisson"):
        "f261c87e473fde0716c0855d00c8125e1e5c31ec2ecf90363177ccbb16bb7167",
}


def draw_digest(law: str, n: int, p_b: float, time_mode: str) -> str:
    spec = DRAW_LAWS[law]
    spec = dist.ArrivalSpec(spec.bid_dist, spec.ask_dist, p_b)
    arr = sim.materialize(sim.ArrivalStream(9, n, spec, time_mode))
    h = hashlib.sha256()
    for a in (arr.is_bid, arr.prices, arr.times):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(DRAW_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_draw(case, kernel):
    assert draw_digest(*case) == DRAW_GOLDEN[case]


def test_golden_draw_without_compiler(monkeypatch, tmp_path):
    monkeypatch.setattr(book, "_cache_dirs", lambda: (tmp_path,))
    monkeypatch.setattr(book, "_CC", str(tmp_path / "missing-cc"))
    monkeypatch.setattr(book, "_loaded", None)
    for case, digest in DRAW_GOLDEN.items():
        assert draw_digest(*case) == digest, case
    assert book._kernel() == book._PYTHON_KERNEL
