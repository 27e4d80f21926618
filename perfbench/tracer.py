"""In-memory spans around calls into lobphase's public functions.

The tracer replaces a function at the module attribute its callers look up
(``apply_arrival`` inside ``lobphase.sim``, ``lobphase.coupling`` and
``lobphase.lyapunov``; ``run_arrivals`` wherever it is imported by name; and
so on) with a wrapper, and puts the original back afterwards.  Coarse calls
get one span each: name, start, end and parent span.  Per-event calls
(``apply_arrival``, ``BinPartition.index`` and the price-law callables) get
no span; they are folded into a call count and a total time under the
enclosing span.  A span's self time is its duration minus the part covered
by its child spans and by the per-event calls made directly under it.

A call site that no longer exists (the attribute is gone after a refactor)
is skipped and reported in ``absent``; it never stops the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
from time import perf_counter

SPAN = "span"
EVENT = "event"


def _effect(tracer: "Tracer", eff) -> None:
    # Read defensively: a refactor may change what apply_arrival returns.
    if getattr(eff, "outcome", None) == "executed":
        tracer.bump("book.executions")
        if getattr(eff, "counterparty_is_reservoir", False):
            tracer.bump("book.reservoir_executions")


def _violations(tracer: "Tracer", report) -> None:
    tracer.bump("coupling.violations", int(getattr(report, "violations", 0)))


def _bytes(tracer: "Tracer", path) -> None:
    try:
        tracer.bump("output.bytes_written", os.path.getsize(path))
    except (TypeError, OSError):
        pass


# (module, attribute path, span name, kind, result hook).  The attribute path
# may name a class attribute, as in "BinPartition.index".
SITES = [
    ("lobphase.sim", "apply_arrival", "book.apply_arrival", EVENT, _effect),
    ("lobphase.coupling", "apply_arrival", "book.apply_arrival", EVENT, _effect),
    ("lobphase.lyapunov", "apply_arrival", "book.apply_arrival", EVENT, _effect),
    ("lobphase.dist", "BinPartition.index", "dist.BinPartition.index", EVENT, None),
    ("lobphase.sim", "materialize", "sim.materialize", SPAN, None),
    ("lobphase.coupling", "materialize", "sim.materialize", SPAN, None),
    ("lobphase.lyapunov", "materialize", "sim.materialize", SPAN, None),
    ("lobphase.sim", "run_arrivals", "sim.run_arrivals", SPAN, None),
    ("lobphase.coupling", "run_arrivals", "sim.run_arrivals", SPAN, None),
    ("lobphase.lyapunov", "run_arrivals", "sim.run_arrivals", SPAN, None),
    ("lobphase.sim", "estimate_kappa", "sim.estimate_kappa", SPAN, None),
    ("lobphase.coupling", "estimate_kappa", "sim.estimate_kappa", SPAN, None),
    ("lobphase.sim", "write_trace_csvs", "sim.write_trace_csvs", SPAN, None),
    ("lobphase.coupling", "check_extra_order", "coupling.check_extra_order", SPAN, _violations),
    ("lobphase.coupling", "check_bounded_perturbation", "coupling.check_bounded_perturbation",
     SPAN, _violations),
    ("lobphase.coupling", "check_refinement", "coupling.check_refinement", SPAN, _violations),
    ("lobphase.coupling", "estimate_sandwich", "coupling.estimate_sandwich", SPAN, None),
    ("lobphase.analytics", "shoot_kappa", "analytics.shoot_kappa", SPAN, None),
    ("lobphase.analytics", "integrate_varpi", "analytics.integrate_varpi", SPAN, None),
    ("lobphase.analytics", "solve_binned_pi", "analytics.solve_binned_pi", SPAN, None),
    ("lobphase.analytics", "finiteness_lower_bound", "analytics.finiteness_lower_bound",
     SPAN, None),
    ("lobphase.lyapunov", "simulate_5bin", "lyapunov.simulate_5bin", SPAN, None),
    ("lobphase.lyapunov", "check_geometric_bound", "lyapunov.check_geometric_bound",
     SPAN, None),
    ("lobphase.lyapunov", "running_max_evidence", "lyapunov.running_max_evidence", SPAN, None),
    ("lobphase.lyapunov", "certify_drift", "lyapunov.certify_drift", SPAN, None),
    ("lobphase.lyapunov", "verify_level_fixture", "lyapunov.verify_level_fixture", SPAN, None),
    ("lobphase.output", "write_csv", "output.write_csv", SPAN, _bytes),
    ("lobphase.cli", "write_csv", "output.write_csv", SPAN, _bytes),
    ("lobphase.output", "write_json", "output.write_json", SPAN, _bytes),
    ("lobphase.cli", "write_json", "output.write_json", SPAN, _bytes),
    ("lobphase.cli", "main", "cli.main", SPAN, None),
]

LAW_EVALS = "dist.law_evals"


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Spans, per-event aggregates and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        # (parent span id, name, nested inside another per-event call) -> [calls, seconds]
        self.events: dict[tuple, list] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._in_event = False
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def event_wrapper(self, name: str, fn, hook=None):
        tracer = self
        events = self.events
        stack = self._stack

        def counted(*args, **kwargs):
            outer = tracer._in_event
            tracer._in_event = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_event = outer
                key = (stack[-1] if stack else None, name, outer)
                rec = events.get(key)
                if rec is None:
                    events[key] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt
            if hook is not None:
                hook(tracer, result)
            return result

        return counted

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every call site in SITES that exists; note the ones that do not."""
        for module_name, path, name, kind, hook in SITES:
            site = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(site)
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(site)
                continue
            make = self.span_wrapper if kind == SPAN else self.event_wrapper
            setattr(owner, attr, make(name, original, hook))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def wrap_law(self, law):
        """Copy of a PriceDist whose density, cdf and quantile count their calls."""
        return dataclasses.replace(
            law, **{f: self.event_wrapper(LAW_EVALS, getattr(law, f))
                    for f in ("density", "cdf", "quantile")})

    # -- summarising ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered = {s.id: 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        for (parent, _, nested), (_, seconds) in self.events.items():
            if parent is not None and not nested:
                covered[parent] += seconds
        return {s.id: (s.end - s.start) - covered[s.id] for s in self.spans}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of this pass, keyed by the benchmark's metric names."""
        self_t = self.self_times()
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s in self.spans:
            total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
            own[s.name] = own.get(s.name, 0.0) + self_t[s.id]
            calls[s.name] = calls.get(s.name, 0) + 1
        ev_calls: dict[str, int] = {}
        ev_s: dict[str, float] = {}
        for (_, name, _), (n, seconds) in self.events.items():
            ev_calls[name] = ev_calls.get(name, 0) + n
            ev_s[name] = ev_s.get(name, 0.0) + seconds
        c = self.counters
        arrivals = ev_calls.get("book.apply_arrival", 0)
        arrival_s = ev_s.get("book.apply_arrival", 0.0)
        return {
            "book.apply_arrival.calls": arrivals,
            "book.apply_arrival.s": arrival_s,
            "book.apply_arrival.us_per_call": 1e6 * arrival_s / arrivals if arrivals else 0.0,
            "book.exec_share": c.get("book.executions", 0) / arrivals if arrivals else 0.0,
            "book.reservoir_executions": c.get("book.reservoir_executions", 0),
            "sim.materialize.s": total.get("sim.materialize", 0.0),
            "sim.run_arrivals.s": total.get("sim.run_arrivals", 0.0),
            "sim.run_arrivals.self_s": own.get("sim.run_arrivals", 0.0),
            "sim.estimate_kappa.s": total.get("sim.estimate_kappa", 0.0),
            "sim.write_trace_csvs.s": total.get("sim.write_trace_csvs", 0.0),
            "dist.BinPartition.index.calls": ev_calls.get("dist.BinPartition.index", 0),
            "dist.law_evals": ev_calls.get(LAW_EVALS, 0),
            "coupling.check_extra_order.self_s": own.get("coupling.check_extra_order", 0.0),
            "coupling.check_bounded_perturbation.self_s":
                own.get("coupling.check_bounded_perturbation", 0.0),
            "coupling.check_refinement.self_s": own.get("coupling.check_refinement", 0.0),
            "coupling.estimate_sandwich.s": total.get("coupling.estimate_sandwich", 0.0),
            "coupling.violations": c.get("coupling.violations", 0),
            "analytics.shoot_kappa.s": total.get("analytics.shoot_kappa", 0.0),
            "analytics.integrate_varpi.calls": calls.get("analytics.integrate_varpi", 0),
            "analytics.integrate_varpi.s": total.get("analytics.integrate_varpi", 0.0),
            "analytics.solve_binned_pi.s": total.get("analytics.solve_binned_pi", 0.0),
            "analytics.finiteness_lower_bound.s":
                total.get("analytics.finiteness_lower_bound", 0.0),
            "lyapunov.simulate_5bin.self_s": own.get("lyapunov.simulate_5bin", 0.0),
            "lyapunov.check_geometric_bound.self_s":
                own.get("lyapunov.check_geometric_bound", 0.0),
            "lyapunov.running_max_evidence.s": total.get("lyapunov.running_max_evidence", 0.0),
            "lyapunov.certify_drift.s": total.get("lyapunov.certify_drift", 0.0),
            "output.write_csv.calls": calls.get("output.write_csv", 0),
            "output.write_csv.s": total.get("output.write_csv", 0.0),
            "output.bytes_written": c.get("output.bytes_written", 0),
            "cli.main.self_s": own.get("cli.main", 0.0),
        }

    def absent_layers(self) -> list[str]:
        """Layers none of whose call sites could be wrapped."""
        present = {name.split(".")[0] for m, p, name, _, _ in SITES
                   if f"{m}.{p}" not in self.absent}
        return sorted({name.split(".")[0] for _, _, name, _, _ in SITES} - present)

    def dump(self) -> dict:
        return {
            "spans": [dataclasses.asdict(s) for s in self.spans],
            "events": [{"parent": p, "name": n, "nested": nested, "calls": c, "s": s}
                       for (p, n, nested), (c, s) in self.events.items()],
            "counters": self.counters,
            "absent": self.absent,
        }
