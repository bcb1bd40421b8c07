"""Span tracing around the public callables of cavityspin, from outside.

A `Tracer` patches module and class attributes with wrappers that record
one span per call (name, start, end, parent span, iteration id) and the
per-call counts named in `COUNT_METRICS`. Patches are installed only for
the traced iterations and restored afterwards, so untraced iterations run
the program exactly as shipped.

Self time of a span is its duration minus the part covered by its direct
children; every layer metric ending in `_s` is a sum of self times, so the
layer times of one iteration add up to the iteration's root span.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import contextmanager

ROOT = "iteration"

# Time metrics: layer name -> span names whose self time it sums.
TIME_METRICS = {
    "cli.main_self_s": ("cli.main",),
    "harness.config_s": ("harness.ScenarioConfig.from_mapping",),
    "harness.run_self_s": ("harness.run_scenario",),
    "harness.write_s": ("harness.write_outputs",),
    "volterra.kernel_s": ("volterra.KernelCache.values",),
    "volterra.march_s": ("volterra.solve",),
    "volterra.collective_spin_s": ("volterra.collective_spin",),
    "volterra.steady_state_s": ("volterra.steady_state",),
    "lorentz.fit_s": ("lorentz.equivalent_lorentzian",),
    "spectral.grid_s": ("spectral.grid_for_density",),
    "spectral.lamb_shift_s": ("spectral.lamb_shift",),
    "laplace.find_poles_s": ("laplace.find_poles",),
    "laplace.cut_sum_s": ("laplace.invert",),
    "laplace.timefit_s": ("laplace.decay_rate_timefit",),
    "laplace.estimators_s": ("laplace.gamma_markov", "laplace.gamma_asymptotic",
                             "laplace.gamma_lorentz_formula",
                             "laplace.gamma_no_broadening"),
    "trace.unattributed_s": (ROOT,),
}

# Count metrics, summed by the wrapper hooks below (n_freq_max is a maximum).
COUNT_METRICS = (
    "volterra.kernel_lags",
    "volterra.node_steps",
    "volterra.segments",
    "volterra.solve_calls",
    "spectral.n_freq_max",
    "spectral.lamb_shift_points",
    "laplace.pdf_calls",
    "laplace.poles_found",
    "harness.csv_bytes",
)

# Per-iteration ratio and wall time; overhead is traced minus untraced wall.
DERIVED_METRICS = (
    "harness.useful_solve_ratio",
    "trace.wall_s",
    "trace.overhead_s",
)


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int
    notes: dict = dataclasses.field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _segments(protocol, tgrid) -> int:
    # Constant-drive segments the marcher restarts on: drive intervals that
    # start inside the grid, plus a zero-drive tail when the drive ends early.
    n_int = tgrid.n_steps - 1
    used = count = 0
    for duration, _ in protocol.segments:
        if used >= n_int:
            break
        used += int(round(duration / tgrid.dt))
        count += 1
    return count + (used < n_int)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.iteration = -1
        self._stack: list[int] = []

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.iteration))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def iteration_span(self, iteration: int):
        """Root span of one workload iteration; counts restart with it."""
        self.iteration = iteration
        self.counts = {}
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str, hook=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self, self.spans[index], args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced callable for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook in _targets():
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(self.wrap(raw.__func__, name, hook)))
                else:
                    setattr(owner, attr, self.wrap(raw, name, hook))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def iteration_metrics(self, iteration: int, useful_solves: int) -> dict[str, float]:
        """Per-layer values of one traced iteration."""
        picked = [i for i, s in enumerate(self.spans) if s.iteration == iteration]
        own = self_times(self.spans)
        by_name: dict[str, float] = {}
        for i in picked:
            by_name[self.spans[i].name] = by_name.get(self.spans[i].name, 0.0) + own[i]
        out = {metric: sum(by_name.get(n, 0.0) for n in names)
               for metric, names in TIME_METRICS.items()}
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0)
        solves = out["volterra.solve_calls"]
        out["harness.useful_solve_ratio"] = useful_solves / solves if solves else 0.0
        root = next(self.spans[i] for i in picked if self.spans[i].name == ROOT)
        out["trace.wall_s"] = root.end - root.start
        return out


def counting_density(density, tracer: Tracer):
    """Copy of `density` whose pdf counts the points it evaluates."""
    base = type(density)

    class Counting(base):
        def pdf(self, omega):
            tracer.add("laplace.pdf_calls",
                       1 if isinstance(omega, float) else getattr(omega, "size", 1))
            return super().pdf(omega)

    Counting.__name__ = Counting.__qualname__ = "Counting" + base.__name__
    return Counting(**{f.name: getattr(density, f.name)
                       for f in dataclasses.fields(density)})


# --- count hooks: (tracer, span, args, kwargs, result) ---------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _on_grid(tracer, span, args, kwargs, grid):
    tracer.counts["spectral.n_freq_max"] = max(
        tracer.counts.get("spectral.n_freq_max", 0), grid.n)
    if span.parent is not None:
        tracer.spans[span.parent].notes["n_freq"] = grid.n


def _on_solve(tracer, span, args, kwargs, series):
    protocol, tgrid = _arg(args, kwargs, 2, "protocol"), _arg(args, kwargs, 3, "tgrid")
    grid = _arg(args, kwargs, 5, "grid")
    n_freq = grid.n if grid is not None else span.notes.get("n_freq", 0)
    tracer.add("volterra.solve_calls", 1)
    tracer.add("volterra.node_steps", tgrid.n_steps * n_freq)
    tracer.add("volterra.segments", _segments(protocol, tgrid))


def _on_kernel(tracer, span, args, kwargs, values):
    tracer.add("volterra.kernel_lags", _arg(args, kwargs, 1, "n_lags"))


def _on_lamb_shift(tracer, span, args, kwargs, values):
    omega = _arg(args, kwargs, 2, "omega")
    tracer.add("spectral.lamb_shift_points", getattr(omega, "size", 1))


def _on_poles(tracer, span, args, kwargs, poles):
    tracer.add("laplace.poles_found", len(poles))


def _on_write(tracer, span, args, kwargs, paths):
    tracer.add("harness.csv_bytes", os.path.getsize(paths[0]))


def _targets():
    """(owner, attribute, span name, count hook) for every traced callable.

    A function imported by name into another module is patched at each
    binding the program calls it through.
    """
    from cavityspin import cli, harness, laplace, lorentz, spectral, volterra

    grid = "spectral.grid_for_density"
    lamb = "spectral.lamb_shift"
    return [
        (cli, "main", "cli.main", None),
        (harness.ScenarioConfig, "from_mapping", "harness.ScenarioConfig.from_mapping", None),
        (harness, "run_scenario", "harness.run_scenario", None),
        (harness, "write_outputs", "harness.write_outputs", _on_write),
        (volterra, "solve", "volterra.solve", _on_solve),
        (volterra.KernelCache, "values", "volterra.KernelCache.values", _on_kernel),
        (volterra, "collective_spin", "volterra.collective_spin", None),
        (volterra, "steady_state", "volterra.steady_state", None),
        (volterra, "grid_for_density", grid, _on_grid),
        (spectral, "grid_for_density", grid, _on_grid),
        (laplace, "grid_for_density", grid, _on_grid),
        (spectral, "lamb_shift", lamb, _on_lamb_shift),
        (laplace, "lamb_shift", lamb, _on_lamb_shift),
        (lorentz, "equivalent_lorentzian", "lorentz.equivalent_lorentzian", None),
        (laplace, "find_poles", "laplace.find_poles", _on_poles),
        (laplace, "invert", "laplace.invert", None),
        (laplace, "decay_rate_timefit", "laplace.decay_rate_timefit", None),
        (laplace, "gamma_markov", "laplace.gamma_markov", None),
        (laplace, "gamma_asymptotic", "laplace.gamma_asymptotic", None),
        (laplace, "gamma_lorentz_formula", "laplace.gamma_lorentz_formula", None),
        (laplace, "gamma_no_broadening", "laplace.gamma_no_broadening", None),
    ]
