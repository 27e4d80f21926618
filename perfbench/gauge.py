"""A fixed computation run every quarter second to gauge the machine's current speed.

The benchmark runs on shared virtual machines whose speed drifts by a third
or more over tens of seconds, as other tenants' jobs come and go.  That drift
moves a raw pass time more than most changes to the program would.  So the
benchmark splits every untraced pass into stretches of about a quarter second,
times this computation between stretches, and reports each stretch in units
of the gauge runs on either side of it: a pass that costs 30 gauges costs that
on a slow minute and on a fast one.

The gauge does the kind of work the program does (a pure-Python heap-matched
double auction on floats and small numpy calls) but never touches lobphase,
so a change to the program moves the pass time and leaves the gauge alone.
Its inputs are fixed, so every run does the same work.  Set-up time, which
has to be reported in seconds, is timed against the gauge too and then
scaled to seconds at the gauge's reference speed, GAUGE_REFERENCE_S.
"""

from __future__ import annotations

import heapq
import random
import resource
import signal
import time

import numpy as np

GAUGE_ORDERS = 40_000
GAUGE_SEED = 20240917
# Median wall seconds of one gauge run over 40 benchmark runs on a 2-vCPU
# Intel Xeon virtual machine: set-up times are reported at this speed.
GAUGE_REFERENCE_S = 0.038
SPLIT_EVERY_S = 0.25


def gauge_work() -> float:
    rng = random.Random(GAUGE_SEED)
    bids: list[float] = []
    asks: list[float] = []
    acc = 0.0
    for _ in range(GAUGE_ORDERS):
        price = rng.random()
        if rng.random() < 0.5:
            if asks and asks[0] <= price:
                acc += heapq.heappop(asks)
            else:
                heapq.heappush(bids, -price)
        elif bids and -bids[0] >= price:
            acc -= heapq.heappop(bids)
        else:
            heapq.heappush(asks, price)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(GAUGE_ORDERS // 10):
        acc += float(np.cumsum(grid)[-1])
    return acc


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def time_gauge() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the gauge."""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    gauge_work()
    return time.perf_counter() - t0, cpu_seconds() - cpu0


class GaugedClock:
    """Context manager that times one pass in stretches of about SPLIT_EVERY_S
    seconds with a gauge run between stretches, starting from the gauge run
    that precedes the pass.

    A one-shot interval timer ends each stretch.  Python runs the SIGALRM
    handler in the main thread between two bytecodes of the pass (after a
    long C call returns), so the split needs no help from the program and
    does not depend on how its calls are cut up.  The handler times the
    gauge and re-arms the timer."""

    def __init__(self, before: tuple[float, float]):
        self.gauges = [before]          # (wall, cpu) of each gauge run
        self.segments: list[tuple[float, float]] = []   # (wall, cpu) of each stretch
        self._running = False

    def __enter__(self) -> "GaugedClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._start()
        signal.setitimer(signal.ITIMER_REAL, SPLIT_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False           # an alarm already on its way is ignored
        signal.signal(signal.SIGALRM, self._previous)
        self._split()

    def _on_alarm(self, signum, frame) -> None:
        if self._running:
            self._split()
            signal.setitimer(signal.ITIMER_REAL, SPLIT_EVERY_S)

    def _start(self) -> None:
        self._cpu0 = cpu_seconds()
        self._wall0 = time.perf_counter()

    def _split(self) -> None:
        """End the current stretch, run the gauge, start the next stretch."""
        wall = time.perf_counter() - self._wall0
        self.segments.append((wall, cpu_seconds() - self._cpu0))
        self.gauges.append(time_gauge())
        self._start()

    def totals(self) -> tuple[float, float]:
        """Raw wall and CPU seconds of the pass, without the gauge runs."""
        return (sum(w for w, _ in self.segments), sum(c for _, c in self.segments))

    def in_gauges(self) -> tuple[float, float]:
        """Wall and CPU time of the pass, each stretch divided by the mean of the
        gauge runs just before and just after it."""
        wall = cpu = 0.0
        for (w, c), g0, g1 in zip(self.segments, self.gauges, self.gauges[1:]):
            wall += w / ((g0[0] + g1[0]) / 2)
            cpu += c / ((g0[1] + g1[1]) / 2)
        return wall, cpu
