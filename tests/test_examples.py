"""The shipped example configs, the demos and the config schema.

Every `docs/examples/*.json` runs through the CLI on a coarse grid, every
demo runs and prints its headline number, and
`docs/config_schema.json` must describe the parser: the same scenarios,
sweep parameters, group keys and defaults.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityspin
from cavityspin import harness
from cavityspin.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
EXAMPLES = sorted((DOCS / "examples").glob("*.json"))

COLUMNS = {
    "long-pulse": ["t_ns", "abs_A2", "Jx2", "Jy2"],
    "train-map": ["tau_ns", "t_ns", "abs_A2"],
    "gamma-sweep": ["Omega_mhz", "Gamma_timefit_mhz", "Gamma_markov_mhz",
                    "Gamma_asymptotic_mhz", "Gamma_lorentz_mhz",
                    "Gamma_nobroadening_mhz"],
    "train-compare": ["t_ns", "abs_A2_main", "abs_A2_twin"],
    "max-scan": ["pi_over_tau_rad_ns", "detuning_mhz", "max_abs_A2"],
    "lorentz-analytic": ["t_ns", "abs_A2", "Jx2", "Jy2"],
}


def test_every_scenario_has_an_example():
    scenarios = {json.loads(p.read_text())["scenario"] for p in EXAMPLES}
    assert scenarios == set(harness.SCENARIOS) == set(COLUMNS)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_through_cli(path, tmp_path, capsys):
    scenario = json.loads(path.read_text())["scenario"]
    base = tmp_path / path.stem
    assert main([scenario, str(path), "grid.dt_ns=0.5", f"output={base}"]) == 0
    lines = Path(f"{base}.csv").read_text().splitlines()
    assert lines[0].split(",") == COLUMNS[scenario]
    assert len(lines) > 1
    manifest = json.loads(Path(f"{base}.manifest.json").read_text())
    assert manifest["columns"] == COLUMNS[scenario]
    assert manifest["n_rows"] == len(lines) - 1


# Exit code of each scenario on the unbroadened (Dirac) line: the time
# march runs on its one-atom grid, while the decay-rate sweep (whose
# resolvent estimators need a branch cut) and the Lorentzian-model
# scenarios reject the density kind as a configuration error.
DIRAC_EXIT = {
    "long-pulse": 0,
    "train-map": 0,
    "max-scan": 0,
    "gamma-sweep": 1,
    "train-compare": 1,
    "lorentz-analytic": 1,
}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_on_the_dirac_line(path, tmp_path):
    scenario = json.loads(path.read_text())["scenario"]
    base = tmp_path / path.stem
    code = main([scenario, str(path), "density.kind=delta", "grid.dt_ns=0.5",
                 f"output={base}"])
    assert code == DIRAC_EXIT[scenario]
    assert Path(f"{base}.csv").exists() == (code == 0)


@pytest.mark.parametrize("kind", ["qgauss", "lorentz"])
def test_narrow_line_meets_the_dirac_line(kind, tmp_path):
    # A 1 kHz line against the unbroadened one over 5 ns. The grid leaves
    # the line's tail_mass() out, so the collective spin J and its square
    # fall short by about 1 and 2 * tail_mass(): 1e-6 of a q-Gaussian,
    # 3.2e-3 of a Lorentzian.
    config = DOCS / "examples" / "long_pulse.json"

    def run(*overrides):
        base = tmp_path / "run"
        assert main(["long-pulse", str(config), "grid.t_end_ns=5", *overrides,
                     f"output={base}"]) == 0
        return np.loadtxt(f"{base}.csv", delimiter=",", skiprows=1)

    dirac = run("density.kind=delta")
    line = run(f"density.kind={kind}", "density.fwhm_mhz=1e-3")
    mapping = json.loads(config.read_text())
    tail = harness.DensitySpec.from_mapping(
        {**mapping["density"], "kind": kind, "fwhm_mhz": 1e-3},
        harness.SystemSpec.from_mapping(mapping["system"])).build().tail_mass()
    # Jy2 is exactly 0 on both resonant runs: compare t, |A|^2 and Jx2.
    gap = np.abs(line - dirac)[:, :3].max(axis=0) / np.abs(dirac)[:, :3].max(axis=0)
    assert gap[1] < 2 * tail  # |A|^2
    assert gap[2] < 1.1 * 2 * tail  # Jx2


# Each demo's headline number, as its docstring claims it: the pattern
# that prints it and the check it must pass.
DEMOS = {
    "rabi_oscillations": (r"ring-down overshoot \(first post-pulse peak / steady\) = (\S+)",
                          lambda x: 1.7 <= x <= 2.3),
    "cavity_protection": (r"protection factor \(settled ratio\) = (\S+)",
                          lambda x: x >= 10.0),
    "pulse_train_revival": (r"resonant tau = (\S+) ns", lambda x: x == 52.0),
    "decay_vs_coupling": (r"fit at 25 MHz / fit maximum = (\S+);", lambda x: x < 0.5),
    "resolvent_poles": (r"at 8\.56 MHz: L-inf relative error (\S+)", lambda x: x < 1e-3),
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # Every demo runs without matplotlib and prints its headline number.
    src = str(Path(cavityspin.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    pattern, holds = DEMOS[demo]
    found = re.search(pattern, proc.stdout)
    assert found and holds(float(found.group(1))), proc.stdout


SCHEMA = json.loads((DOCS / "config_schema.json").read_text())
GROUPS = {
    "system": harness.SystemSpec,
    "density": harness.DensitySpec,
    "drive": harness.DriveSpec,
    "grid": harness.GridSpec,
    "compare": harness.CompareSpec,
}


def test_schema_enums_match_parser():
    props = SCHEMA["properties"]
    assert tuple(props["scenario"]["enum"]) == harness.SCENARIOS
    axis = props["sweep"]["items"]["properties"]["parameter"]
    assert tuple(axis["enum"]) == harness.SWEEPABLE


@pytest.mark.parametrize("node, spec", [
    (SCHEMA, harness.ScenarioConfig),
    (SCHEMA["properties"]["sweep"]["items"], harness.SweepSpec),
    *[(SCHEMA["properties"][name], spec) for name, spec in GROUPS.items()],
], ids=["config", "sweep", *GROUPS])
def test_schema_keys_and_defaults_match_parser(node, spec):
    fields = {f.name: f for f in dataclasses.fields(spec)}
    assert set(node["properties"]) == set(fields)
    for name, prop in node["properties"].items():
        if "default" in prop:
            assert prop["default"] == fields[name].default, name
    if spec in GROUPS.values():
        # Every scalar default of a group is documented.
        for name, field in fields.items():
            if field.default not in (dataclasses.MISSING, None):
                assert node["properties"][name].get("default") == field.default, name


# The admissible q range, as the schema quotes it: the smallest and the
# largest q whose default frequency grid fits under the node cap.
Q_LO, Q_HI = (float(end) for end in re.search(
    r"q must lie in \[([\d.]+), ([\d.]+)\]",
    SCHEMA["properties"]["density"]["properties"]["q"]["description"]).groups())


@pytest.mark.parametrize("fwhm_mhz", [0.5, 9.4, 100.0])
@pytest.mark.parametrize("q, builds", [
    (Q_LO, True), (Q_HI, True), (1.0058, True), (1.01, True), (1.39, True), (1.85, True),
    (Q_LO - 1e-12, False), (Q_HI + 1e-4, False),
], ids=["lower-end", "upper-end", "1.0058", "1.01", "1.39", "1.85", "below", "above"])
def test_schema_q_range_meets_the_grid_cap(q, builds, fwhm_mhz):
    # Each quoted end builds and a q just outside it is refused at every
    # width: the default grid's node count depends on q only.
    system = harness.SystemSpec.from_mapping({"cavity_ghz": 2.6915, "kappa_mhz": 0.8,
                                              "coupling_mhz": 8.56})
    spec = harness.DensitySpec.from_mapping(
        {"kind": "qgauss", "q": q, "fwhm_mhz": fwhm_mhz}, system)
    if builds:
        assert spec.build().q == q
    else:
        with pytest.raises(harness.ConfigError, match="4,194,304 nodes"):
            spec.build()


# The smallest line width the schema quotes, at a 2.6915 GHz center.
FWHM_MIN = float(re.search(
    r"smallest admissible width is ([\d.e-]+) MHz",
    SCHEMA["properties"]["density"]["properties"]["fwhm_mhz"]["description"]).group(1))


@pytest.mark.parametrize("kind", ["qgauss", "lorentz"])
def test_schema_width_floor_meets_the_grid_rule(kind):
    system = harness.SystemSpec.from_mapping({"cavity_ghz": 2.6915, "kappa_mhz": 0.8,
                                              "coupling_mhz": 8.56})

    def build(fwhm_mhz):
        return harness.DensitySpec.from_mapping(
            {"kind": kind, "q": 1.39, "fwhm_mhz": fwhm_mhz}, system).build()

    build(FWHM_MIN)
    with pytest.raises(harness.ConfigError, match="density.fwhm_mhz .* density.kind=delta"):
        build(FWHM_MIN * (1 - 1e-3))
