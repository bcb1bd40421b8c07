"""Workload definitions: seeded inputs, one timed iteration, output checks.

Seed 0 reproduces `docs/examples/{long_pulse,train_compare,gamma_sweep}.json`
and the criterion-7 resolvent calls exactly. Any other seed scales every
coupling by a factor in [1 - COUPLING_JITTER, 1 + COUPLING_JITTER] and
every pulse length by one in [1 - LENGTH_JITTER, 1 + LENGTH_JITTER], drawn
independently per value. Both keep every point inside its coupling regime,
and the coupling jitter keeps every gamma-sweep point at its seed-0 number
of window extensions (the 20 MHz point loses one at -0.15 %), so every
seed does the same work.

The program receives only the generated inputs: a config file plus an
`output=` override for the CLI workloads, public-API arguments for the
resolvent workload.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import random

COUPLING_JITTER = 0.001
LENGTH_JITTER = 0.005
PREFIX_STEPS = 4096      # longest grid solve_direct accepts
SOLVER_BOUND = 1e-6      # solve vs solve_direct, relative L-inf
RESOLVENT_BOUND = 1e-3   # pole + cut reconstruction and |A(0) - 1|

_SYSTEM = {"cavity_ghz": 2.6915, "kappa_mhz": 0.8, "coupling_mhz": 8.56}
_DENSITY = {"kind": "qgauss", "fwhm_mhz": 9.4, "q": 1.39}

BASE_CONFIGS = {
    "long-pulse": {
        "system": _SYSTEM,
        "density": _DENSITY,
        "drive": {"kind": "rect", "duration_ns": 800.0},
        "grid": {"dt_ns": 0.05, "t_end_ns": 1200.0},
    },
    "train-compare": {
        "system": dict(_SYSTEM, coupling_mhz=25.0),
        "density": _DENSITY,
        "drive": {"kind": "train", "tau_ns": 19.5, "n_pulses": 70},
        "grid": {"dt_ns": 0.05},
        "compare": {"twin_rabi_mhz": 19.2, "twin_coupling_mhz": 8.56},
    },
    "gamma-sweep": {
        "system": _SYSTEM,
        "density": _DENSITY,
        "grid": {"dt_ns": 0.2},
        "sweep": [{"parameter": "coupling_mhz", "values": [
            0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0, 4.0, 5.0, 6.5, 8.56, 10.0,
            12.5, 15.0, 17.5, 20.0, 22.5, 25.0, 27.5, 30.0]}],
    },
}

# (coupling MHz, window ns) for invert; couplings for find_poles with the
# pole count each regime has: single pole, pole-free, just below pair birth.
RESOLVENT_BASE = {
    "system": {k: v for k, v in _SYSTEM.items() if k != "coupling_mhz"},
    "density": _DENSITY,
    "dt_ns": 0.05,
    "invert": [[8.56, 300.0], [25.0, 200.0]],
    "find_poles": [[1.3, 1], [2.1, 0], [19.5, 0]],
    "pair_coupling_mhz": 25.0,
}

WORKLOADS = ("long-pulse", "train-compare", "gamma-sweep", "resolvent")


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload for one seed (a JSON-ready mapping)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")

    def jitter(value, share):
        if seed == 0:
            return value
        return round(value * (1.0 + share * rng.uniform(-1.0, 1.0)), 6)

    if workload == "resolvent":
        out = copy.deepcopy(RESOLVENT_BASE)
        out["invert"] = [[jitter(om, COUPLING_JITTER), t] for om, t in out["invert"]]
        out["find_poles"] = [[jitter(om, COUPLING_JITTER), n] for om, n in out["find_poles"]]
        return out
    config = copy.deepcopy(BASE_CONFIGS[workload])
    config["system"]["coupling_mhz"] = jitter(config["system"]["coupling_mhz"], COUPLING_JITTER)
    drive = config.get("drive", {})
    for key in ("duration_ns", "tau_ns"):
        if key in drive:
            drive[key] = jitter(drive[key], LENGTH_JITTER)
    for axis in config.get("sweep", []):
        axis["values"] = [jitter(v, COUPLING_JITTER) for v in axis["values"]]
    return config


def _rel_err(a, b):
    import numpy as np

    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(b).max())


def _check(name, value, bound, op="<="):
    ok = value <= bound if op == "<=" else value == bound
    return {"name": name, "ok": bool(ok), "value": value, "bound": bound}


# ---------------------------------------------------------------------------
# CLI workloads


class CliWorkload:
    """A scenario run end to end through `cavityspin.cli.main`."""

    def __init__(self, name: str, inputs: dict, workdir: str):
        from cavityspin import harness

        self.name = name
        self.config_path = os.path.join(workdir, "config.json")
        self.base = os.path.join(workdir, "out")
        with open(self.config_path, "w") as fh:
            json.dump(inputs, fh, indent=2)
        # Config parse and density build, as the CLI will do them again.
        self.config = harness.ScenarioConfig.from_mapping(dict(inputs, scenario=name))
        self.density = self.config.density.build()
        self.params = self.config.system.to_params()

    def run(self, tracer=None):
        from cavityspin import cli

        rc = cli.main([self.name, self.config_path, f"output={self.base}"])
        if rc != 0:
            raise RuntimeError(f"cli.main returned {rc}")

    def digest(self) -> str:
        with open(self.base + ".csv", "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def _table(self):
        import numpy as np

        with open(self.base + ".csv") as fh:
            columns = fh.readline().strip().split(",")
        rows = np.loadtxt(self.base + ".csv", delimiter=",", skiprows=1, ndmin=2)
        with open(self.base + ".manifest.json") as fh:
            manifest = json.load(fh)
        return {c: rows[:, i] for i, c in enumerate(columns)}, manifest

    def _prefix_checks(self, label, params, density, protocol, full, column, a0=0.0):
        """solve vs solve_direct on the first PREFIX_STEPS samples of the
        time grid `full`, on the frequency grid the full run uses, and the
        CSV intensity column against the direct reference."""
        from cavityspin import TimeGrid, grid_for_density, volterra

        fgrid = grid_for_density(density, t_max=full.t_end)
        n = min(PREFIX_STEPS, full.n_steps)
        tgrid = TimeGrid(0.0, full.dt, n)
        fast = volterra.solve(params, density, protocol, tgrid, a0=a0, grid=fgrid)
        direct = volterra.solve_direct(params, density, protocol, tgrid, a0=a0, grid=fgrid)
        out = [_check(f"{label}: solve vs solve_direct, {n} steps",
                      _rel_err(fast.values, direct.values), SOLVER_BOUND)]
        if column is not None:
            out.append(_check(f"{label}: CSV |A|^2 vs solve_direct, {n} steps",
                              _rel_err(column[:n], direct.abs2()), SOLVER_BOUND))
        return out, direct, fgrid


class LongPulse(CliWorkload):
    useful_solves = 1

    def _grid(self):
        from cavityspin import TimeGrid

        dt = self.config.grid.dt_ns
        return TimeGrid(0.0, dt, int(round(self.config.grid.t_end_ns / dt)) + 1)

    def sizes(self):
        from cavityspin import grid_for_density

        tgrid = self._grid()
        return {"n_steps": tgrid.n_steps,
                "n_freq": grid_for_density(self.density, t_max=tgrid.t_end).n}

    def check(self, seed: int) -> list[dict]:
        from cavityspin import rect_pulse, volterra
        from cavityspin.harness import snap_to_grid

        table, _ = self._table()
        cfg, tgrid = self.config, self._grid()
        duration = snap_to_grid(cfg.drive.duration_ns, cfg.grid.dt_ns)
        protocol = rect_pulse(cfg.drive.amplitude(self.params), duration)
        out = [_check("rows", len(table["t_ns"]), tgrid.n_steps, "==")]
        checks, direct, fgrid = self._prefix_checks(
            "cavity", self.params, self.density, protocol, tgrid, table["abs_A2"])
        out += checks
        spin = volterra.collective_spin(self.params, self.density, direct, grid=fgrid)
        n = len(direct.values)
        out.append(_check(f"spin: CSV Jx^2 vs collective_spin(solve_direct), {n} steps",
                          _rel_err(table["Jx2"][:n], spin.values.real ** 2), SOLVER_BOUND))
        out.append(_check("spin: resonant max |J_y| / max |J_x|",
                          math.sqrt(table["Jy2"].max() / table["Jx2"].max()), 1e-8))
        if seed == 0:
            out += _green_targets(self.params, self.density, table, duration)
        return out


def _green_targets(params, density, table, duration):
    """Acceptance criteria 1 and 2 on the seed-0 long pulse."""
    import numpy as np
    from scipy.signal import find_peaks
    from cavityspin import volterra

    t, a2 = table["t_ns"], table["abs_A2"]
    post = t > duration
    peaks, _ = find_peaks(a2[post], prominence=1e-3 * a2[post].max())
    rabi_mhz = 1e3 / float(np.diff(t[post][peaks]).mean())
    a_st, _ = volterra.steady_state(params, density)
    first, _ = find_peaks(a2[post])
    overshoot = float(a2[post][first[0]] / abs(a_st) ** 2)
    return [
        _check("criterion 1: |Rabi period / 19.2 MHz - 1|", abs(rabi_mhz / 19.2 - 1.0), 0.02),
        _check("criterion 2: |overshoot - 2.0| (band [1.7, 2.3])", abs(overshoot - 2.0), 0.3),
    ]


class TrainCompare(CliWorkload):
    useful_solves = 2  # main and twin trace

    def _train(self):
        from cavityspin import TimeGrid, phase_switched_train
        from cavityspin.harness import snap_to_grid

        drive, dt = self.config.drive, self.config.grid.dt_ns
        tau = snap_to_grid(drive.tau_ns, dt)
        n_steps = drive.n_pulses * int(round(tau / dt)) + 1
        protocol = phase_switched_train(drive.amplitude(self.params), tau, drive.n_pulses)
        return protocol, TimeGrid(0.0, dt, n_steps)

    def _twin(self):
        from cavityspin import LorentzianDensity
        from cavityspin.harness import fitted_twin

        _, twin_delta = fitted_twin(self.config)
        return LorentzianDensity(self.params.omega_s, twin_delta)

    def sizes(self):
        from cavityspin import grid_for_density

        _, tgrid = self._train()
        return {"n_steps": tgrid.n_steps,
                "n_freq": grid_for_density(self.density, t_max=tgrid.t_end).n,
                "n_freq_twin": grid_for_density(self._twin(), t_max=tgrid.t_end).n}

    def check(self, seed: int) -> list[dict]:
        from cavityspin import angular_to_mhz

        table, manifest = self._table()
        protocol, tgrid = self._train()
        twin = self._twin()
        out = [_check("rows", len(table["t_ns"]), tgrid.n_steps, "=="),
               _check("twin half-width in manifest",
                      abs(manifest["derived"]["twin_half_width_mhz"]
                          - angular_to_mhz(twin.delta)), 1e-9)]
        out += self._prefix_checks("main", self.params, self.density, protocol,
                                   tgrid, table["abs_A2_main"])[0]
        out += self._prefix_checks("twin", self.params, twin, protocol,
                                   tgrid, table["abs_A2_twin"])[0]
        return out


class GammaSweep(CliWorkload):
    @property
    def useful_solves(self):
        return len(self.config.sweep[0].values)  # one final window per point

    def sizes(self):
        return {"n_points": self.useful_solves}

    def check(self, seed: int) -> list[dict]:
        import numpy as np
        from cavityspin import TimeGrid, angular_to_mhz, laplace, mhz_to_angular, rect_pulse
        from cavityspin.harness import apply_assignment, iter_assignments

        table, manifest = self._table()
        couplings = np.asarray(self.config.sweep[0].values)
        points = [apply_assignment(self.config, a).system.to_params()
                  for a in iter_assignments(self.config)]
        out = [_check("coupling column", _rel_err(table["Omega_mhz"], couplings), 0.0)]
        delta = mhz_to_angular(self.config.compare.formula_delta_mhz)
        expect = {
            "markov": [laplace.gamma_markov(p, self.density).gamma for p in points],
            "asymptotic": [laplace.gamma_asymptotic(p, self.density).gamma for p in points],
            "lorentz": [laplace.gamma_lorentz_formula(p.Omega, delta, p.kappa)[0].gamma
                        for p in points],
            "nobroadening": [laplace.gamma_no_broadening(p.Omega, p.kappa)[0].gamma
                             for p in points],
        }
        for key, values in expect.items():
            out.append(_check(f"{key} column", _rel_err(
                table[f"Gamma_{key}_mhz"], angular_to_mhz(np.asarray(values))), 1e-12))
        fit = table["Gamma_timefit_mhz"]
        out.append(_check("timefit positive and finite",
                          int(np.all(np.isfinite(fit) & (fit > 0))), 1, "=="))
        out.append(_check("cavity protection: interior rate maximum",
                          int(0 < int(np.argmax(fit)) < len(fit) - 1), 1, "=="))
        # The longest free-decay window solve_direct can take whole: the
        # prefix check covers the solver, the refit covers the CSV column.
        dt = self.config.grid.dt_ns
        windows = [TimeGrid(0.0, dt, int(round(d["t_max_ns"] / dt)) + 1)
                   for d in manifest["diagnostics"]]
        k = max((i for i, w in enumerate(windows) if w.n_steps <= PREFIX_STEPS),
                key=lambda i: windows[i].n_steps)
        label = f"free decay at {couplings[k]} MHz"
        checks, direct, _ = self._prefix_checks(
            label, points[k], self.density, rect_pulse(0.0, windows[k].t_end),
            windows[k], None, a0=1.0)
        out += checks
        refit = angular_to_mhz(laplace.decay_rate_timefit(direct).gamma)
        out.append(_check(f"{label}: CSV timefit vs solve_direct refit",
                          abs(fit[k] / refit - 1.0), SOLVER_BOUND))
        return out


# ---------------------------------------------------------------------------
# resolvent workload


class Resolvent:
    """`laplace.invert` and `laplace.find_poles` called directly."""

    name = "resolvent"
    useful_solves = 0

    def __init__(self, name: str, inputs: dict, workdir: str):
        from cavityspin import (QGaussianDensity, SystemParams, TimeGrid,
                                delta_from_fwhm, ghz_to_angular, mhz_to_angular)

        sysm, dens = inputs["system"], inputs["density"]
        omega_c = ghz_to_angular(sysm["cavity_ghz"])
        kappa = mhz_to_angular(sysm["kappa_mhz"])
        self.density = QGaussianDensity(
            omega_c, dens["q"], delta_from_fwhm(dens["q"], mhz_to_angular(dens["fwhm_mhz"])))

        def params(coupling_mhz):
            return SystemParams(omega_c=omega_c, omega_s=omega_c, omega_p=omega_c,
                                kappa=kappa, Omega=mhz_to_angular(coupling_mhz))

        dt = inputs["dt_ns"]
        self.inverts = [(params(om), TimeGrid(0.0, dt, int(round(t / dt)) + 1))
                        for om, t in inputs["invert"]]
        self.pole_points = [(params(om), n) for om, n in inputs["find_poles"]]
        self.pair = params(inputs["pair_coupling_mhz"])
        self.output = None

    def run(self, tracer=None):
        from cavityspin import laplace
        from tracing import counting_density

        density = self.density if tracer is None else counting_density(self.density, tracer)
        traces = [laplace.invert(p, density, tgrid) for p, tgrid in self.inverts]
        poles = [laplace.find_poles(p, density) for p, _ in self.pole_points]
        self.output = (traces, poles)

    def digest(self) -> str:
        traces, poles = self.output
        h = hashlib.sha256()
        for series in traces:
            h.update(series.values.tobytes())
        h.update(repr([[(p.sigma, p.omega, p.residue) for p in ps] for ps in poles]).encode())
        return h.hexdigest()

    def sizes(self):
        from cavityspin import grid_for_density

        return {"invert": [{"n_steps": tgrid.n_steps,
                            "n_freq": grid_for_density(self.density, t_max=tgrid.t_end).n}
                           for _, tgrid in self.inverts]}

    def check(self, seed: int) -> list[dict]:
        from cavityspin import angular_to_mhz, laplace, rect_pulse, volterra

        traces, poles = self.output
        out = []
        for (p, tgrid), recon in zip(self.inverts, traces):
            label = f"{angular_to_mhz(p.Omega):.6g} MHz"
            marched = volterra.solve(p, self.density, rect_pulse(0.0, 1.0), tgrid, a0=1.0)
            out.append(_check(f"invert vs marched trace at {label}",
                              _rel_err(recon.values, marched.values), RESOLVENT_BOUND))
            out.append(_check(f"|A(0) - 1| at {label}",
                              abs(complex(recon.values[0]) - 1.0), RESOLVENT_BOUND))
        for (p, expected), found in zip(self.pole_points, poles):
            out.append(_check(f"pole count at {angular_to_mhz(p.Omega):.6g} MHz",
                              len(found), expected, "=="))
        out.append(_check("pole count in the pair regime",
                          len(laplace.find_poles(self.pair, self.density)), 2, "=="))
        return out


def make(workload: str, inputs: dict, workdir: str):
    cls = {"long-pulse": LongPulse, "train-compare": TrainCompare,
           "gamma-sweep": GammaSweep, "resolvent": Resolvent}[workload]
    return cls(workload, inputs, workdir)

