"""Scenario runners, configuration parsing, and tabular output.

Everything the command line can do lives here as plain functions: parse a
JSON document into typed specs, run one of the named scenarios through
the time-domain solver, the resolvent machinery or the Lorentzian closed
form, and serialize the result as a CSV table plus a JSON manifest
recording every derived constant (snapped pulse durations, fitted
comparison parameters, decay diagnostics).

Every scenario is one point function mapped over its sweep assignments
(a sweep-free config is one point). The pool size is the smallest of
the CPU count, the CAVITYSPIN_MAX_WORKERS cap and the number of points,
so a single point never starts a pool.

Determinism contract: a given config maps to bit-identical CSV bytes
whether sweep points run serially or on a process pool. Points are
independent, assembly is ordered by sweep index, and no reduction mixes
results across workers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Callable

import numpy as np

from . import __version__, laplace, lorentz, volterra
from .core import (
    SystemParams,
    TimeGrid,
    angular_to_mhz,
    ghz_to_angular,
    mhz_to_angular,
    phase_switched_train,
    rect_pulse,
)
from .spectral import (
    DiracDeltaDensity,
    LorentzianDensity,
    QGaussianDensity,
    SpinDensity,
    delta_from_fwhm,
    grid_for_density,
    normalize,
)

# Parameters a sweep axis may vary. Couplings and drive gaps are the two
# physical knobs the scenarios scan; probe offsets express detuned runs
# relative to the cavity so configs stay valid when the cavity moves.
SWEEPABLE = ("coupling_mhz", "probe_offset_mhz", "tau_ns")

WORKER_ENV = "CAVITYSPIN_MAX_WORKERS"

# Free-decay traces are extended until the intensity envelope has
# dropped three decades, so rate fits see real dynamic range; the cap
# keeps a non-decaying trace from growing unboundedly. Growth is x4 per
# attempt: each attempt rebuilds the spectral kernel, and quadrupling
# reaches protected (slow) decays in a handful of rebuilds while the
# final attempt still dominates total cost.
_ENVELOPE_DROP = 1e-3
_T_GROWTH = 4.0
_T_MAX_CAP = 16384.0
_SETTLED_FRACTION = 0.2


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


# ---------------------------------------------------------------------------
# configuration specs


def _reject_unknown(mapping, spec, where):
    """Check that ``mapping`` is an object whose keys are fields of ``spec``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(mapping).__name__}")
    unknown = set(mapping) - {f.name for f in fields(spec)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _as_float(value, name):
    # The bound also refuses NaN, infinities and ints beyond float range.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _opt_float(mapping, key, where, default=None):
    value = mapping.get(key)
    if value is None:
        return default
    return _as_float(value, f"{where}.{key}")


def _floats(mapping, spec, where, **defaults):
    """The float fields of ``spec``. A missing or null field takes its
    value from ``defaults`` or the dataclass default; without either, a
    ``float | None`` field is None and a ``float`` field is required."""
    out = {}
    for f in fields(spec):
        if f.type not in ("float", "float | None"):
            continue
        default = defaults.get(f.name, f.default)
        if default is MISSING:
            if f.type == "float" and mapping.get(f.name) is None:
                raise ConfigError(f"{where}.{f.name} is required")
            default = None
        out[f.name] = _opt_float(mapping, f.name, where, default)
    return out


def _opt_count(value, name):
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)
                              or value < 1):
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SystemSpec:
    """Frequencies in laboratory units: GHz for carriers, MHz for rates.

    ``coupling_mhz`` is the collective coupling over 2*pi; manifests echo
    its double as well, because half the scan tables in circulation are
    labeled by the doubled value and the factor of two is a classic trap.
    """

    cavity_ghz: float
    kappa_mhz: float
    coupling_mhz: float
    spin_ghz: float
    probe_ghz: float

    @staticmethod
    def from_mapping(mapping) -> "SystemSpec":
        _reject_unknown(mapping, SystemSpec, "system")
        values = _floats(mapping, SystemSpec, "system", spin_ghz=None, probe_ghz=None)
        # The ensemble and the probe default to the cavity line.
        carriers = {k: values["cavity_ghz"] for k in ("spin_ghz", "probe_ghz")
                    if values[k] is None}
        return SystemSpec(**values | carriers)

    def to_params(self) -> SystemParams:
        try:
            return SystemParams(
                omega_c=ghz_to_angular(self.cavity_ghz),
                omega_s=ghz_to_angular(self.spin_ghz),
                omega_p=ghz_to_angular(self.probe_ghz),
                kappa=mhz_to_angular(self.kappa_mhz),
                Omega=mhz_to_angular(self.coupling_mhz),
            )
        except ValueError as exc:
            raise ConfigError(f"system config rejected: {exc}") from exc


@dataclass(frozen=True)
class DensitySpec:
    """Spin line shape: kind plus lab-unit width and center."""

    kind: str
    fwhm_mhz: float | None
    q: float | None
    center_ghz: float

    @staticmethod
    def from_mapping(mapping, system: SystemSpec) -> "DensitySpec":
        _reject_unknown(mapping, DensitySpec, "density")
        kind = mapping.get("kind")
        if kind not in ("qgauss", "lorentz", "delta"):
            raise ConfigError(f"density.kind must be qgauss|lorentz|delta, got {kind!r}")
        values = _floats(mapping, DensitySpec, "density", center_ghz=system.spin_ghz)
        if kind in ("qgauss", "lorentz") and values["fwhm_mhz"] is None:
            raise ConfigError(f"density.fwhm_mhz is required for kind {kind!r}")
        if kind == "qgauss" and values["q"] is None:
            raise ConfigError("density.q is required for kind 'qgauss'")
        if kind in ("lorentz", "delta"):
            values["q"] = None
        if kind == "delta":
            values["fwhm_mhz"] = None
        return DensitySpec(kind=kind, **values)

    def build(self) -> SpinDensity:
        center = ghz_to_angular(self.center_ghz)
        try:
            if self.kind == "qgauss":
                width = delta_from_fwhm(self.q, mhz_to_angular(self.fwhm_mhz))
                return QGaussianDensity(center, self.q, width)
            if self.kind == "lorentz":
                return LorentzianDensity(center, mhz_to_angular(self.fwhm_mhz) / 2.0)
            return DiracDeltaDensity(center)
        except ValueError as exc:
            raise ConfigError(f"density config rejected: {exc}") from exc


@dataclass(frozen=True)
class DriveSpec:
    """Rectangular pulse or phase-switched train; amplitude defaults to
    the cavity loss rate when left null."""

    kind: str = "rect"
    amplitude_mhz: float | None = None
    duration_ns: float | None = None
    tau_ns: float | None = None
    n_pulses: int | None = None

    @staticmethod
    def from_mapping(mapping) -> "DriveSpec":
        _reject_unknown(mapping, DriveSpec, "drive")
        kind = mapping.get("kind", DriveSpec.kind)
        if kind not in ("rect", "train"):
            raise ConfigError(f"drive.kind must be rect|train, got {kind!r}")
        n_pulses = _opt_count(mapping.get("n_pulses"), "drive.n_pulses")
        return DriveSpec(kind=kind, n_pulses=n_pulses,
                         **_floats(mapping, DriveSpec, "drive"))

    def amplitude(self, params: SystemParams) -> float:
        if self.amplitude_mhz is None:
            return params.kappa
        return mhz_to_angular(self.amplitude_mhz)


@dataclass(frozen=True)
class GridSpec:
    # Default time step (ns): small enough to resolve the fastest Rabi
    # dynamics the RWA bound on Omega allows.
    dt_ns: float = 0.05
    t_end_ns: float | None = None

    @staticmethod
    def from_mapping(mapping) -> "GridSpec":
        _reject_unknown(mapping, GridSpec, "grid")
        grid = GridSpec(**_floats(mapping, GridSpec, "grid"))
        if grid.dt_ns <= 0:
            raise ConfigError(f"grid.dt_ns must be positive, got {grid.dt_ns}")
        if grid.t_end_ns is not None and grid.t_end_ns <= grid.dt_ns:
            raise ConfigError(f"grid.t_end_ns must exceed dt_ns, got {grid.t_end_ns}")
        return grid


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]

    @staticmethod
    def from_mapping(mapping) -> "SweepSpec":
        _reject_unknown(mapping, SweepSpec, "sweep axis")
        parameter = mapping.get("parameter")
        if parameter not in SWEEPABLE:
            raise ConfigError(
                f"sweep parameter must be one of {SWEEPABLE}, got {parameter!r}"
            )
        values = mapping.get("values")
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise ConfigError(f"sweep values for {parameter} must be a non-empty list")
        return SweepSpec(
            parameter=parameter,
            values=tuple(_as_float(v, f"sweep value of {parameter}") for v in values),
        )


@dataclass(frozen=True)
class CompareSpec:
    """Derived-constant knobs for the comparison columns.

    ``twin_rabi_mhz`` and ``twin_coupling_mhz`` pin the fitted Lorentzian
    used by train-compare: the fit matches that oscillation period and
    the steady-state amplitude of the configured density at the reference
    coupling. ``formula_delta_mhz`` is the half-width the gamma-sweep
    closed-form column assumes.
    """

    twin_rabi_mhz: float = 19.2
    twin_coupling_mhz: float = 8.56
    formula_delta_mhz: float = 4.4

    @staticmethod
    def from_mapping(mapping) -> "CompareSpec":
        _reject_unknown(mapping, CompareSpec, "compare")
        return CompareSpec(**_floats(mapping, CompareSpec, "compare"))


@dataclass(frozen=True)
class ScenarioConfig:
    """One runnable scenario: system, line shape, drive, grid, sweep axes.

    ``from_mapping`` applies defaults eagerly, so emit -> parse -> emit is
    the identity and two configs are interchangeable iff they are equal.
    """

    scenario: str
    system: SystemSpec
    density: DensitySpec
    drive: DriveSpec
    grid: GridSpec
    sweep: tuple[SweepSpec, ...] = ()
    compare: CompareSpec = CompareSpec()
    output: str | None = None

    @staticmethod
    def from_mapping(mapping) -> "ScenarioConfig":
        _reject_unknown(mapping, ScenarioConfig, "config")
        scenario = mapping.get("scenario")
        if scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
        system = SystemSpec.from_mapping(mapping.get("system") or {})
        sweep_raw = mapping.get("sweep") or []
        if not isinstance(sweep_raw, (list, tuple)):
            raise ConfigError("sweep must be a list of axes")
        output = mapping.get("output")
        if output is not None and (not isinstance(output, str)
                                   or os.path.basename(output) in ("", ".", "..")):
            raise ConfigError(f"output must be a path string ending in a file "
                              f"name, got {output!r}")
        config = ScenarioConfig(
            scenario=scenario,
            system=system,
            density=DensitySpec.from_mapping(mapping.get("density") or {}, system),
            drive=DriveSpec.from_mapping(mapping.get("drive") or {}),
            grid=GridSpec.from_mapping(mapping.get("grid") or {}),
            sweep=tuple(SweepSpec.from_mapping(ax) for ax in sweep_raw),
            compare=CompareSpec.from_mapping(mapping.get("compare") or {}),
            output=output,
        )
        # Constructor-validate the base point and every sweep point now,
        # so bad physics parameters fail at parse time (exit code 1)
        # rather than mid-run.
        for assignment in iter_assignments(config):
            point = apply_assignment(config, assignment)
            point.system.to_params()
            point.density.build()
        return config

    def to_mapping(self) -> dict:
        out = asdict(self)
        out["sweep"] = [asdict(ax) | {"values": list(ax.values)} for ax in self.sweep]
        return out


def config_hash(config: ScenarioConfig) -> str:
    payload = json.dumps(config.to_mapping(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def iter_assignments(config: ScenarioConfig) -> list[tuple[tuple[str, float], ...]]:
    """Cartesian product of the sweep axes, in document order (last axis
    fastest); a sweep-free config yields one empty assignment."""
    if not config.sweep:
        return [()]
    axes = [[(ax.parameter, v) for v in ax.values] for ax in config.sweep]
    return [tuple(combo) for combo in itertools.product(*axes)]


def apply_assignment(config: ScenarioConfig,
                     assignment: tuple[tuple[str, float], ...]) -> ScenarioConfig:
    cfg = config
    for name, value in assignment:
        if name == "coupling_mhz":
            cfg = replace(cfg, system=replace(cfg.system, coupling_mhz=value))
        elif name == "probe_offset_mhz":
            probe = cfg.system.cavity_ghz + value * 1e-3
            cfg = replace(cfg, system=replace(cfg.system, probe_ghz=probe))
        elif name == "tau_ns":
            cfg = replace(cfg, drive=replace(cfg.drive, tau_ns=value))
        else:
            raise ConfigError(f"unknown sweep parameter {name!r}")
    return cfg


def snap_to_grid(duration: float, dt: float) -> float:
    """Nearest positive grid multiple of dt; the solver requires drive
    segments commensurate with the step."""
    if not duration > 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    return max(1, round(duration / dt)) * dt


# ---------------------------------------------------------------------------
# result table


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Rectangular all-finite numeric table with provenance metadata."""

    columns: tuple[str, ...]
    rows: np.ndarray
    provenance: dict

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
        if rows.shape[1] != len(self.columns):
            raise ValueError(
                f"{len(self.columns)} columns declared but rows have "
                f"{rows.shape[1]} fields"
            )
        if not np.all(np.isfinite(rows)):
            raise ValueError("table contains non-finite values")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.rows[:, self.columns.index(name)]
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None

    def write_csv(self, path) -> None:
        # repr() is the shortest digit string that round-trips the float,
        # which is what makes byte-level determinism checks meaningful.
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            # Rows as Python floats from tolist(), a block at a time: no
            # per-value float() call and no whole-table list at the peak.
            for start in range(0, self.n_rows, 4096):
                for row in self.rows[start:start + 4096].tolist():
                    fh.write(",".join(map(repr, row)) + "\n")


def _versions() -> dict:
    return {
        "cavityspin": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _json_default(obj):
    # Diagnostics dicts are assembled from numeric code and routinely
    # carry numpy scalars; np.float64 already subclasses float but
    # np.bool_ and the integer types do not subclass their builtins.
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_outputs(table: ResultTable, config: ScenarioConfig, base_path,
                  timings: dict | None = None) -> tuple[str, str]:
    """Write <base>.csv and <base>.manifest.json; returns both paths.

    ``timings`` is informational and must be ignored by any equality
    check between manifests.
    """
    base = os.fspath(base_path)
    directory = os.path.dirname(base)
    if directory:
        os.makedirs(directory, exist_ok=True)
    csv_path = base + ".csv"
    manifest_path = base + ".manifest.json"
    table.write_csv(csv_path)
    manifest = {
        "config": config.to_mapping(),
        **table.provenance,
        "columns": list(table.columns),
        "n_rows": table.n_rows,
        "timings": timings or {},
    }
    with open(manifest_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    return csv_path, manifest_path


# ---------------------------------------------------------------------------
# point execution (one sweep point per task, ordered assembly)


def _worker_count(n_tasks: int) -> int:
    limit = os.cpu_count() or 1
    cap = os.environ.get(WORKER_ENV)
    if cap is not None:
        try:
            cap_value = int(cap)
        except ValueError:
            raise ConfigError(f"{WORKER_ENV} must be an integer, got {cap!r}") from None
        if cap_value < 1:
            raise ConfigError(f"{WORKER_ENV} must be >= 1, got {cap_value}")
        limit = min(limit, cap_value)
    return max(1, min(limit, n_tasks))


def _map_points(point, config, items):
    """``point(config, item)`` for every item, in item order, serially or
    on the process pool; ``point`` must be a module-level function."""
    workers = _worker_count(len(items))
    if workers <= 1:
        return [point(config, item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(point, itertools.repeat(config), items))


def _build_point(config):
    params = config.system.to_params()
    density = config.density.build()
    eta = config.drive.amplitude(params)
    return params, density, eta


def _rect_pulse_grid(config):
    """Requested/snapped pulse duration and the grid up to grid.t_end_ns."""
    dt = config.grid.dt_ns
    requested = config.drive.duration_ns
    pair = {"requested": requested, "snapped": snap_to_grid(requested, dt)}
    return pair, TimeGrid(0.0, dt, int(round(config.grid.t_end_ns / dt)) + 1)


def _duration(config, diags):
    return {"duration_ns": diags[0]["duration_ns"]}


# --- long-pulse ---


def _long_pulse_point(config, assignment):
    cfg = apply_assignment(config, assignment)
    params, density, eta = _build_point(cfg)
    duration, tgrid = _rect_pulse_grid(cfg)
    a = volterra.solve(params, density, rect_pulse(eta, duration["snapped"]), tgrid)
    j = volterra.collective_spin(params, density, a)
    rows = np.column_stack([
        tgrid.times(),
        a.abs2(),
        j.values.real ** 2,
        j.values.imag ** 2,
    ])
    return rows, {"duration_ns": duration}


# --- train-map ---


def _train_point(config, assignment, density=None):
    """(t, |A|^2) rows of drive.n_pulses phase-switched pulses of the
    snapped tau; ``density`` replaces the configured line shape."""
    cfg = apply_assignment(config, assignment)
    params, own_density, eta = _build_point(cfg)
    dt = cfg.grid.dt_ns
    tau = snap_to_grid(cfg.drive.tau_ns, dt)
    tgrid = TimeGrid(0.0, dt, cfg.drive.n_pulses * int(round(tau / dt)) + 1)
    protocol = phase_switched_train(eta, tau, cfg.drive.n_pulses)
    a = volterra.solve(params, own_density if density is None else density,
                       protocol, tgrid)
    rows = np.column_stack([tgrid.times(), a.abs2()])
    return rows, {"tau_ns": {"requested": cfg.drive.tau_ns, "snapped": tau}}


# --- gamma-sweep ---


def _free_decay_rate(params, density, dt, markov):
    """Timefit rate from the single-photon free decay.

    The trace is marched in the time domain (a(0) = 1, drive off); the
    time-domain march stays stable at every coupling, including near
    the coupling where the isolated resonances appear and the contour
    reconstruction needs a much finer cut grid than the default. The
    window starts at 5 / ``markov``, the golden-rule lifetime estimate,
    and grows until the intensity envelope has dropped three decades
    (the fit needs dynamic range; protected strong-coupling decay is far
    slower than the weak-coupling estimate suggests).

    The envelope is read over the last tenth of the trace, reaching back
    to its last interior |A|^2 maximum: a trace that ends inside a node
    is near zero there, but the peak before the node is not. A trace
    that has passed a node without any later peak has not shown its
    envelope yet, so it has not reached the floor.
    """
    t_max = max(5.0 / markov, 64 * dt)
    extensions = 0
    while True:
        n_steps = int(round(t_max / dt)) + 1
        tgrid = TimeGrid(0.0, dt, n_steps)
        protocol = rect_pulse(0.0, tgrid.t_end)
        series = volterra.solve(params, density, protocol, tgrid, a0=1.0)
        a2 = series.abs2()
        start = len(a2) - max(1, len(a2) // 10)
        peaks = laplace.intensity_peaks(a2)
        if len(peaks):
            start = min(start, peaks[-1])
        # Without a peak, a rising end means the trace is climbing out
        # of a node toward a revival it has not reached.
        past_node = not len(peaks) and a2[-1] > a2[-2]
        floor_reached = not past_node and a2[start:].max() <= _ENVELOPE_DROP * a2[0]
        if floor_reached or t_max >= _T_MAX_CAP:
            break
        t_max *= _T_GROWTH
        extensions += 1
    estimate = laplace.decay_rate_timefit(series)
    diag = {
        "t_max_ns": t_max,
        "extensions": extensions,
        "envelope_floor_reached": floor_reached,
        "fit_note": estimate.note,
    }
    return estimate.gamma, diag


def _gamma_point(config, assignment):
    cfg = apply_assignment(config, assignment)
    params, density, _ = _build_point(cfg)
    markov = laplace.gamma_markov(params, density).gamma
    asymptotic = laplace.gamma_asymptotic(params, density).gamma
    formula_delta = mhz_to_angular(cfg.compare.formula_delta_mhz)
    # Two-branch estimators list the slow (long-time dominant) branch
    # first; the sweep column reports that one.
    lor = laplace.gamma_lorentz_formula(params.Omega, formula_delta, params.kappa)[0].gamma
    nob = laplace.gamma_no_broadening(params.Omega, params.kappa)[0].gamma
    timefit, diag = _free_decay_rate(params, density, cfg.grid.dt_ns, markov)
    row = np.array([[
        cfg.system.coupling_mhz,
        angular_to_mhz(timefit),
        angular_to_mhz(markov),
        angular_to_mhz(asymptotic),
        angular_to_mhz(lor),
        angular_to_mhz(nob),
    ]])
    return row, diag


# --- train-compare ---


def fitted_twin(config: ScenarioConfig):
    """Lorentzian (coupling, half-width) matched to the configured density.

    The fit pins the oscillation period to compare.twin_rabi_mhz and the
    driven steady-state amplitude to the configured density's at the
    reference coupling, following the matching recipe used for the
    side-by-side comparisons.
    """
    params, density, eta = _build_point(config)
    ref = replace(params, Omega=mhz_to_angular(config.compare.twin_coupling_mhz))
    a_st, _ = volterra.steady_state(ref, density, eta=eta)
    return lorentz.equivalent_lorentzian(
        mhz_to_angular(config.compare.twin_rabi_mhz), abs(a_st), params.kappa, eta
    )


def _train_compare_point(config, assignment):
    """Identical pulse train through the configured density and through
    its fitted Lorentzian twin, side by side on one time column."""
    twin_omega, twin_delta = fitted_twin(config)
    twin = LorentzianDensity(config.system.to_params().omega_s, twin_delta)
    main_rows, diag = _train_point(config, assignment)
    twin_rows, _ = _train_point(config, assignment, twin)
    rows = np.column_stack([main_rows, twin_rows[:, 1]])
    return rows, diag | {"twin_coupling_mhz": angular_to_mhz(twin_omega),
                         "twin_half_width_mhz": angular_to_mhz(twin_delta)}


def _twin_derived(config, diags):
    return {
        "twin_coupling_mhz": diags[0]["twin_coupling_mhz"],
        "twin_half_width_mhz": diags[0]["twin_half_width_mhz"],
        "twin_reference_coupling_mhz": config.compare.twin_coupling_mhz,
        "twin_rabi_mhz": config.compare.twin_rabi_mhz,
        **_tau_pairs(config, diags),
    }


# --- max-scan ---


def _max_scan_point(config, assignment):
    rows, diag = _train_point(config, assignment)
    a2 = rows[:, 1]
    settled = a2[int(len(a2) * (1.0 - _SETTLED_FRACTION)):]
    detuning = dict(assignment).get(
        "probe_offset_mhz",
        (config.system.probe_ghz - config.system.cavity_ghz) * 1e3,
    )
    row = np.array([[math.pi / diag["tau_ns"]["snapped"], detuning, settled.max()]])
    return row, diag


# --- lorentz-analytic ---


def _lorentz_analytic_point(config, assignment):
    """Closed-form rectangular-pulse response of the Lorentzian model."""
    cfg = apply_assignment(config, assignment)
    params, _, eta = _build_point(cfg)
    duration, tgrid = _rect_pulse_grid(cfg)
    p = lorentz.LorentzParams(
        Omega=params.Omega,
        Delta=mhz_to_angular(cfg.density.fwhm_mhz) / 2.0,
        kappa=params.kappa,
        eta=eta,
        tau_d=duration["snapped"],
    )
    t = tgrid.times()
    a, jx = lorentz.pulse_response(p, t)
    rows = np.column_stack([t, a**2, jx**2, np.zeros_like(t)])
    return rows, {"duration_ns": duration}


# ---------------------------------------------------------------------------
# scenario table


@dataclass(frozen=True)
class _Scenario:
    """One scenario's shape rules, checked before any solve, and how its
    table is built: ``point(config, assignment) -> (rows, diagnostics)``
    mapped over the sweep, plus ``derived(config, diagnostics)`` manifest
    fields. ``resonant`` pins spins, probe and line center to the cavity.
    """

    columns: tuple[str, ...]
    point: Callable
    axes: tuple[str, ...] = ()
    required_axis: str | None = None
    drive: str | None = None
    required: tuple[str, ...] = ()
    densities: tuple[str, ...] | None = None
    resonant: bool = False
    axis_columns: bool = False
    derived: Callable = lambda config, diags: {}

    def check(self, config: ScenarioConfig) -> None:
        name = config.scenario
        axes = [ax.parameter for ax in config.sweep]
        for axis in axes:
            if axis not in self.axes:
                raise ConfigError(f"{name} cannot sweep {axis}; its sweep axes "
                                  f"are {list(self.axes)}")
        if len(set(axes)) < len(axes):
            raise ConfigError(f"{name} sweeps a parameter on two axes: {axes}")
        if self.required_axis and self.required_axis not in axes:
            raise ConfigError(f"{name} needs a {self.required_axis} sweep axis")
        if self.drive and config.drive.kind != self.drive:
            raise ConfigError(f"{name} needs drive.kind {self.drive!r}, "
                              f"got {config.drive.kind!r}")
        for field in self.required:
            if _field(config, field) is None:
                raise ConfigError(f"{name} needs {field}")
        if self.densities and config.density.kind not in self.densities:
            raise ConfigError(f"{name} needs density.kind in {list(self.densities)}, "
                              f"got {config.density.kind!r}")
        if self.resonant:
            cavity = config.system.cavity_ghz
            for field in ("system.spin_ghz", "system.probe_ghz", "density.center_ghz"):
                if _field(config, field) != cavity:
                    raise ConfigError(
                        f"{name} is resonant: {field} must be {cavity}, "
                        f"got {_field(config, field)}")


def _field(config, dotted):
    group, key = dotted.split(".")
    return getattr(getattr(config, group), key)


def _tau_pairs(config, diags):
    return {"tau_pairs_ns": [d["tau_ns"] for d in diags]}


_SCENARIO_TABLE = {
    # One rectangular pulse: cavity intensity and both collective-spin
    # quadratures over the full grid (drive plus free-decay tail).
    "long-pulse": _Scenario(
        columns=("t_ns", "abs_A2", "Jx2", "Jy2"),
        axes=("coupling_mhz", "probe_offset_mhz"),
        drive="rect",
        required=("drive.duration_ns", "grid.t_end_ns"),
        point=_long_pulse_point,
        axis_columns=True,
        derived=_duration,
    ),
    # Phase-switched train for every tau on the sweep axis, long format
    # (tau, t, intensity). The tau column carries the snapped value.
    "train-map": _Scenario(
        columns=("t_ns", "abs_A2"),
        axes=SWEEPABLE,
        required_axis="tau_ns",
        drive="train",
        required=("drive.n_pulses",),
        point=_train_point,
        axis_columns=True,
        derived=_tau_pairs,
    ),
    # Intensity decay rate of the single-photon free decay versus
    # coupling, next to the four closed-form estimates, in MHz (rate / 2 pi).
    "gamma-sweep": _Scenario(
        columns=("Omega_mhz", "Gamma_timefit_mhz", "Gamma_markov_mhz",
                 "Gamma_asymptotic_mhz", "Gamma_lorentz_mhz",
                 "Gamma_nobroadening_mhz"),
        axes=("coupling_mhz",),
        required_axis="coupling_mhz",
        resonant=True,
        point=_gamma_point,
        derived=lambda config, diags: {
            "formula_delta_mhz": config.compare.formula_delta_mhz,
            "rate_units": "MHz (Gamma / 2 pi), intensity rates",
        },
    ),
    # One train through the configured line and through its fitted
    # Lorentzian twin; the twin fit needs the resonant steady state.
    "train-compare": _Scenario(
        columns=("t_ns", "abs_A2_main", "abs_A2_twin"),
        drive="train",
        required=("drive.tau_ns", "drive.n_pulses"),
        densities=("qgauss",),
        resonant=True,
        point=_train_compare_point,
        derived=_twin_derived,
    ),
    # Settled oscillation maximum of a long train over a (detuning, tau)
    # product scan; pi/tau in rad/ns, so the resonance condition reads
    # pi/tau = half the oscillation frequency.
    "max-scan": _Scenario(
        columns=("pi_over_tau_rad_ns", "detuning_mhz", "max_abs_A2"),
        axes=("probe_offset_mhz", "tau_ns"),
        required_axis="tau_ns",
        drive="train",
        required=("drive.n_pulses",),
        point=_max_scan_point,
        derived=lambda config, diags: {"settled_fraction": _SETTLED_FRACTION,
                                       **_tau_pairs(config, diags)},
    ),
    "lorentz-analytic": _Scenario(
        columns=("t_ns", "abs_A2", "Jx2", "Jy2"),
        drive="rect",
        required=("drive.duration_ns", "grid.t_end_ns"),
        densities=("lorentz",),
        resonant=True,
        point=_lorentz_analytic_point,
        derived=_duration,
    ),
}

SCENARIOS = tuple(_SCENARIO_TABLE)


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Check the config against its scenario's shape rules, then run one
    point per sweep assignment and stack them in order; axis columns
    carry the values the point ran at (for tau, the snapped one)."""
    scenario = _SCENARIO_TABLE[config.scenario]
    scenario.check(config)
    assignments = iter_assignments(config)
    results = _map_points(scenario.point, config, assignments)
    blocks, diags = [], []
    for assignment, (rows, diag) in zip(assignments, results):
        if scenario.axis_columns:
            values = [diag["tau_ns"]["snapped"] if name == "tau_ns" else value
                      for name, value in assignment]
            rows = np.column_stack([np.full((len(rows), len(values)), values), rows])
        blocks.append(rows)
        diags.append(diag | {"assignment": dict(assignment)})
    axes = [name for name, _ in assignments[0]] if scenario.axis_columns else []
    provenance = {
        "config_hash": config_hash(config),
        "versions": _versions(),
        "derived": _common_derived(config) | scenario.derived(config, diags),
        "diagnostics": diags,
    }
    return ResultTable(columns=tuple(axes) + scenario.columns,
                       rows=np.vstack(blocks), provenance=provenance)


def _common_derived(config: ScenarioConfig) -> dict:
    params = config.system.to_params()
    density = config.density.build()
    derived = {
        "two_omega_mhz": 2.0 * config.system.coupling_mhz,
        "eta_rad_ns": config.drive.amplitude(params),
        "dt_ns": config.grid.dt_ns,
    }
    if isinstance(density, (QGaussianDensity, LorentzianDensity)):
        derived["density_width_rad_ns"] = density.delta
        derived["density_width_mhz"] = angular_to_mhz(density.delta)
    return derived


# ---------------------------------------------------------------------------
# fast invariant suite (the CLI's validate subcommand)


def run_validation() -> list[tuple[str, bool, str, float]]:
    """Cheap end-to-end invariants; the whole list runs in well under a
    minute. Returns (name, passed, detail, seconds) per check; seconds is
    the wall time since the previous check was recorded."""
    checks: list[tuple[str, bool, str, float]] = []
    clock = time.perf_counter()

    def check(name: str, passed, detail: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        checks.append((name, bool(passed), detail, now - clock))
        clock = now

    omega_c = ghz_to_angular(2.6915)
    kappa = mhz_to_angular(0.8)
    params = SystemParams(omega_c=omega_c, omega_s=omega_c, omega_p=omega_c,
                          kappa=kappa, Omega=mhz_to_angular(8.56))
    density = QGaussianDensity(omega_c, 1.39,
                               delta_from_fwhm(1.39, mhz_to_angular(9.4)))

    try:
        norm = normalize(density)
        check("density normalization (grid sum + tail)", True,
              f"norm constant {norm:.6f}")
    except ValueError as exc:
        check("density normalization (grid sum + tail)", False, str(exc))

    tgrid = TimeGrid(0.0, 0.1, 1001)
    protocol = rect_pulse(kappa, 60.0)
    a1 = volterra.solve(params, density, protocol, tgrid)
    a2 = volterra.solve(params, density, rect_pulse(2.0 * kappa, 60.0), tgrid)
    lin = np.max(np.abs(2.0 * a1.values - a2.values)) / np.max(np.abs(a2.values))
    check("drive linearity", lin < 1e-12, f"relative defect {lin:.2e}")

    fgrid = grid_for_density(density, t_max=tgrid.t_end)
    table = volterra.KernelCache(params, density, fgrid, tgrid.dt).values(tgrid.n_steps)
    lags = np.array([1, tgrid.n_steps // 2, tgrid.n_steps - 1])
    direct_k = volterra.kernel_K(params, density, tgrid.dt * lags, grid=fgrid)
    kerr = np.max(np.abs(table[lags] - direct_k)) / np.max(np.abs(table))
    check("chirp-z kernel table vs direct sums",
          kerr < 1e-12, f"relative {kerr:.2e} at lags {tuple(lags.tolist())}")

    direct = volterra.solve_direct(params, density, protocol, tgrid)
    rec = np.max(np.abs(a1.values - direct.values)) / np.max(np.abs(direct.values))
    check("Toeplitz solve vs step-by-step march",
          rec < 1e-6, f"relative L-inf {rec:.2e}")

    j = volterra.collective_spin(params, density, a1)
    jy = np.max(np.abs(j.values.imag)) / max(np.max(np.abs(j.values)), 1e-300)
    check("resonant spin quadrature J_y ~ 0", jy < 1e-8, f"relative J_y {jy:.2e}")

    closure = laplace.invert(params, density, TimeGrid(0.0, 0.05, 2)).values[0]
    err = abs(closure - 1.0)
    check("single-photon weight closure at t = 0",
          err < 1e-3, f"|A(0) - 1| = {err:.2e}")

    lp = lorentz.LorentzParams(Omega=mhz_to_angular(9.786),
                               Delta=mhz_to_angular(4.598),
                               kappa=kappa, eta=kappa, tau_d=300.0)
    ldensity = LorentzianDensity(omega_c, lp.Delta)
    lgrid = TimeGrid(0.0, 0.1, 1501)
    lnum = volterra.solve(replace(params, Omega=lp.Omega), ldensity,
                          rect_pulse(kappa, 300.0), lgrid)
    closed = lorentz.cavity_on(lp, lgrid.times())
    lerr = np.max(np.abs(lnum.values - closed)) / np.max(np.abs(closed))
    check("closed-form Lorentzian vs solver", lerr < 1e-3, f"relative L-inf {lerr:.2e}")

    return checks
