"""CLI contract: subcommands, overrides, exit codes, output files."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavityspin.cli import main

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "docs" / "examples").glob("*.json"))


@pytest.fixture()
def small_config(tmp_path):
    mapping = {
        "scenario": "long-pulse",
        "system": {"cavity_ghz": 2.6915, "kappa_mhz": 0.8,
                   "coupling_mhz": 8.56},
        "density": {"kind": "qgauss", "fwhm_mhz": 9.4, "q": 1.39},
        "drive": {"kind": "rect", "duration_ns": 30.0},
        "grid": {"dt_ns": 0.5, "t_end_ns": 50.0},
        "output": str(tmp_path / "run"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    return path, tmp_path


def test_run_writes_csv_and_manifest(small_config, capsys):
    path, tmp_path = small_config
    assert main(["long-pulse", str(path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "101 rows" in out
    assert (tmp_path / "run.csv").exists()
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["config"]["scenario"] == "long-pulse"


def test_overrides_reach_the_manifest(small_config, capsys):
    path, tmp_path = small_config
    assert main([
        "long-pulse", str(path),
        "grid.dt_ns=0.25",
        f"output={tmp_path / 'other'}",
    ]) == 0
    manifest = json.loads((tmp_path / "other.manifest.json").read_text())
    assert manifest["config"]["grid"]["dt_ns"] == 0.25
    assert manifest["n_rows"] == 201


def test_subcommand_overrides_scenario_key(small_config, capsys):
    # The config says long-pulse; invoking another subcommand must win
    # (and then fail its own requirements, proving it was applied).
    path, _ = small_config
    assert main(["train-map", str(path)]) == 1
    assert "tau_ns" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["warp-drive", "x.json"])
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_missing_config_file_exits_1(capsys):
    assert main(["long-pulse", "/does/not/exist.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["long-pulse", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unphysical_value_exits_1(small_config, capsys):
    path, _ = small_config
    assert main(["long-pulse", str(path), "system.kappa_mhz=-1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_line_center_is_one_number(small_config, capsys):
    # The solvers read only the density's center: a system.spin_ghz that
    # disagrees with it is refused, and spin_ghz alone still moves the line.
    path, tmp_path = small_config
    off = "system.spin_ghz=2.7015"
    assert main(["long-pulse", str(path), off, "density.center_ghz=2.6915"]) == 1
    err = capsys.readouterr().err
    assert "density.center_ghz" in err and "system.spin_ghz" in err
    assert main(["long-pulse", str(path), off, f"output={tmp_path / 'off'}"]) == 0
    assert main(["long-pulse", str(path)]) == 0
    assert (tmp_path / "off.csv").read_bytes() != (tmp_path / "run.csv").read_bytes()


def test_missing_output_exits_1(small_config, capsys):
    path, tmp_path = small_config
    mapping = json.loads(path.read_text())
    del mapping["output"]
    path.write_text(json.dumps(mapping))
    assert main(["long-pulse", str(path)]) == 1
    assert "output" in capsys.readouterr().err


def test_unwritable_output_exits_1(small_config, capsys):
    # The output's parent directory is a regular file.
    path, tmp_path = small_config
    (tmp_path / "blocker").write_text("")
    assert main(["long-pulse", str(path), f"output={tmp_path / 'blocker' / 'run'}"]) == 1
    assert "config error: cannot write output" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["workers=2", "system.spin_loss_mhz=0"])
def test_removed_settings_exit_1(small_config, capsys, override):
    # Sweep points run serially, so there is no worker count to set, and
    # the model has no single-spin loss: both are unknown keys.
    path, _ = small_config
    assert main(["long-pulse", str(path), override]) == 1
    err = capsys.readouterr().err
    assert "config error: unknown" in err
    assert override.split("=")[0].split(".")[-1] in err


@pytest.mark.parametrize("scenario,example,override", [
    ("long-pulse", "long_pulse.json", "grid.dt_ns=NaN"),
    ("long-pulse", "long_pulse.json", "grid.t_end_ns=Infinity"),
    ("long-pulse", "long_pulse.json", "drive.amplitude_mhz=NaN"),
    ("long-pulse", "long_pulse.json", "system.spin_ghz=NaN"),
    pytest.param("long-pulse", "long_pulse.json", "grid.t_end_ns=1" + "0" * 400,
                 id="long-pulse-long_pulse.json-grid.t_end_ns=1e400-int"),
    ("gamma-sweep", "gamma_sweep.json", "compare.formula_delta_mhz=NaN"),
])
def test_non_finite_number_exits_1(tmp_path, capsys, scenario, example, override):
    # JSON overrides parse NaN and Infinity to floats, and a long digit
    # string to an int beyond float range; the config must refuse them
    # before they reach a grid size or a density.
    config = EXAMPLES[0].parent / example
    assert main([scenario, str(config), override,
                 f"output={tmp_path / 'run'}"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "finite number" in err
    assert not (tmp_path / "run.csv").exists()


def test_negative_formula_half_width_exits_1(tmp_path, capsys):
    # The Lorentz-formula column's line has a half-width of at least 0.
    config = EXAMPLES[0].parent / "gamma_sweep.json"
    assert main(["gamma-sweep", str(config), "compare.formula_delta_mhz=-0.1",
                 f"output={tmp_path / 'run'}"]) == 1
    assert "config error: compare.formula_delta_mhz must be" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("scenario,example,override,code", [
    ("train-map", "train_map.json", "grid=0", 1),
    ("train-map", "train_map.json", "grid=[]", 1),
    ("gamma-sweep", "gamma_sweep.json", "grid=0", 1),
    ("gamma-sweep", "gamma_sweep.json", "drive=false", 1),
    ("gamma-sweep", "gamma_sweep.json", 'drive=""', 1),
    ("gamma-sweep", "gamma_sweep.json", "compare=[]", 1),
    ("long-pulse", "long_pulse.json", "sweep={}", 1),
    ("long-pulse", "long_pulse.json", "sweep=0", 1),
    ("long-pulse", "long_pulse.json", 'sweep=""', 1),
    ("train-map", "train_map.json", "grid=null", 0),
    ("train-map", "train_map.json", "grid={}", 0),
    ("train-map", "train_map.json", "drive.n_pulses=0", 1),
    ("long-pulse", "long_pulse.json", "drive.kind=null", 0),
])
def test_falsy_section_is_not_read_as_defaults(tmp_path, capsys, scenario, example,
                                               override, code):
    # Only a missing section or key, or null, means "use the defaults"
    # (a null drive.kind is "rect"); 0, false, "" or [] for an object, {}
    # for the sweep list and 0 pulses are refused.
    config = EXAMPLES[0].parent / example
    assert main([scenario, str(config), override, f"output={tmp_path / 'run'}"]) == code
    assert (tmp_path / "run.csv").exists() == (code == 0)
    if code:
        assert f"config error: {override.split('=')[0]} must be" in capsys.readouterr().err


_TWO_COUPLING_AXES = ('sweep=[{"parameter": "coupling_mhz", "values": [1]}, '
                      '{"parameter": "coupling_mhz", "values": [2]}]')


@pytest.mark.parametrize("scenario,example,override,key", [
    ("long-pulse", "long_pulse.json", "system.kappa_mhz=null", "system.kappa_mhz"),
    ("long-pulse", "long_pulse.json", "density.fwhm_mhz=null", "density.fwhm_mhz"),
    ("long-pulse", "long_pulse.json", "density.q=null", "density.q"),
    ("long-pulse", "long_pulse.json", "density.q=3.5", "density.q"),
    ("long-pulse", "long_pulse.json", "drive.kind=pulse", "drive.kind"),
    ("long-pulse", "long_pulse.json", "grid.dt_ns=-0.05", "grid.dt_ns"),
    ("long-pulse", "long_pulse.json", "grid.t_end_ns=0.01", "grid.t_end_ns"),
    ("long-pulse", "long_pulse.json", "grid.t_end_ns=null", "grid.t_end_ns"),
    ("long-pulse", "long_pulse.json", "drive.duration_ns=-5", "drive.duration_ns"),
    ("train-compare", "train_compare.json", "drive.tau_ns=-19.5", "drive.tau_ns"),
    pytest.param("gamma-sweep", "gamma_sweep.json",
                 'sweep=[{"parameter": "coupling_mhz", "values": []}]', "sweep[0].values",
                 id="gamma-sweep-empty-values"),
    pytest.param("long-pulse", "long_pulse.json", _TWO_COUPLING_AXES, "sweep[1].parameter",
                 id="long-pulse-two-coupling-axes"),
    # System values are refused in the config's units, not in rad/ns.
    pytest.param("long-pulse", "long_pulse.json", "system.coupling_mhz=-1",
                 "system.coupling_mhz must be non-negative, got -1.0",
                 id="long-pulse-negative-coupling"),
    pytest.param("long-pulse", "long_pulse.json", "system.coupling_mhz=100",
                 "system.coupling_mhz must be below system.cavity_ghz * 1000 / 50 = 53.83 MHz",
                 id="long-pulse-coupling-above-the-bound"),
    pytest.param("long-pulse", "long_pulse.json", "system.cavity_ghz=-2.69",
                 "system.cavity_ghz must be positive, got -2.69",
                 id="long-pulse-negative-cavity"),
    pytest.param("long-pulse", "long_pulse.json", "system.kappa_mhz=-0.8",
                 "system.kappa_mhz must be positive, got -0.8",
                 id="long-pulse-negative-kappa"),
    pytest.param("gamma-sweep", "gamma_sweep.json",
                 'sweep=[{"parameter": "coupling_mhz", "values": [8.56, -1]}]',
                 "system.coupling_mhz must be non-negative, got -1.0",
                 id="gamma-sweep-negative-coupling-point"),
    pytest.param("long-pulse", "long_pulse.json",
                 'sweep=[{"parameter": "coupling_mhz", "values": [8.56, 100]}]',
                 "system.coupling_mhz must be below system.cavity_ghz * 1000 / 50 = 53.83 MHz",
                 id="long-pulse-coupling-point-above-the-bound"),
])
def test_refusal_names_its_key(tmp_path, capsys, scenario, example, override, key):
    # Each of these refusals names the key to mend and comes before any output.
    config = EXAMPLES[0].parent / example
    assert main([scenario, str(config), override, f"output={tmp_path / 'run'}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "run.csv").exists()


def test_config_document_must_be_an_object(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([{"system": {}}]))
    assert main(["long-pulse", str(bad), f"output={tmp_path / 'run'}"]) == 1
    assert "config error: config document must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("output", ["", "out/", ".", "out/.."])
def test_empty_output_basename_exits_1(small_config, capsys, monkeypatch, output):
    # Without a file name the run would write hidden ".csv" (or "..csv")
    # and ".manifest.json" files.
    path, tmp_path = small_config
    monkeypatch.chdir(tmp_path)
    assert main(["long-pulse", str(path), f"output={output}"]) == 1
    assert "config error: output" in capsys.readouterr().err
    assert not list(tmp_path.rglob(".*csv"))


def test_malformed_override_exits_1(small_config, capsys):
    path, _ = small_config
    assert main(["long-pulse", str(path), "grid.dt_ns"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_override_through_scalar_exits_1(small_config, capsys):
    path, _ = small_config
    assert main(["long-pulse", str(path), "grid.dt_ns.deep=1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_numerical_failure_exits_2(tmp_path, capsys):
    # An uncoupled cavity leaking at 1 Hz loses 2e-4 of its intensity in
    # the longest (16,384 ns) window, so gamma-sweep's rate fit raises
    # past config validation: exit code 2.
    mapping = {
        "scenario": "gamma-sweep",
        "system": {"cavity_ghz": 2.6915, "kappa_mhz": 1e-6,
                   "coupling_mhz": 0.0},
        "density": {"kind": "qgauss", "fwhm_mhz": 9.4, "q": 1.39},
        "grid": {"dt_ns": 1.0},
        "sweep": [{"parameter": "coupling_mhz", "values": [0.0]}],
        "output": str(tmp_path / "run"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    assert main(["gamma-sweep", str(path)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_oversized_frequency_grid_exits_2(small_config, capsys):
    # q = 1.85 passes the parse (its default grid has 4,045,861 nodes),
    # but a 3,000 ns window tightens the spacing to pi/(4 t_max), past
    # the cap; the grid is refused before anything is allocated.
    path, _ = small_config
    assert main(["long-pulse", str(path), "density.q=1.85", "grid.t_end_ns=3000"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_oversized_time_grid_exits_1(tmp_path, capsys):
    # 1.2e15 samples: the config fixes the grid's size, so the parse
    # refuses it, naming the keys, before anything is allocated.
    config = EXAMPLES[0].parent / "long_pulse.json"
    assert main(["long-pulse", str(config), "grid.dt_ns=1e-12",
                 f"output={tmp_path / 'run'}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.t_end_ns / grid.dt_ns = 1200.0 / 1e-12 gives "
                          "1,200,000,000,000,001 time samples, more than the cap of 4,194,304")
    assert not (tmp_path / "run.csv").exists()


@pytest.fixture()
def spied_solves(monkeypatch):
    """Calls of `volterra.solve`, recorded and passed through."""
    from cavityspin import volterra

    calls = []

    def spy(*args, _solve=volterra.solve, **kwargs):
        calls.append(args)
        return _solve(*args, **kwargs)
    monkeypatch.setattr(volterra, "solve", spy)
    return calls


@pytest.mark.parametrize("scenario,example,overrides,message", [
    ("train-map", "train_map.json", ["drive.n_pulses=1000000"],
     "drive.n_pulses x drive.tau_ns / grid.dt_ns = 1000000 x 46.0 / 0.05 gives "
     "920,000,001 time samples"),
    # The last sweep point is the one too long.
    ("train-map", "train_map.json",
     ["drive.n_pulses=4000", 'sweep=[{"parameter": "tau_ns", "values": [46, 60]}]'],
     "drive.n_pulses x drive.tau_ns / grid.dt_ns = 4000 x 60.0 / 0.05 gives "
     "4,800,001 time samples"),
    ("max-scan", "max_scan.json", ["drive.n_pulses=1000000"], "drive.n_pulses x drive.tau_ns"),
    ("train-compare", "train_compare.json", ["grid.dt_ns=1e-320"],
     "drive.n_pulses x drive.tau_ns / grid.dt_ns = 70 x 19.5 / 1e-320 gives inf time samples"),
    ("long-pulse", "long_pulse.json", ["grid.t_end_ns=1e9"],
     "grid.t_end_ns / grid.dt_ns = 1000000000.0 / 0.05 gives 20,000,000,001 time samples"),
    ("lorentz-analytic", "lorentz_analytic.json", ["grid.dt_ns=1e-6"],
     "grid.t_end_ns / grid.dt_ns"),
])
def test_time_grid_past_the_cap_is_refused_at_parse(tmp_path, capsys, spied_solves,
                                                     scenario, example, overrides, message):
    # The grid each point builds is fixed by the config: past the sample
    # cap it exits 1, naming the keys, before any solve.
    config = EXAMPLES[0].parent / example
    assert main([scenario, str(config), *overrides, f"output={tmp_path / 'run'}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "cap of 4,194,304" in err
    assert spied_solves == []
    assert not (tmp_path / "run.csv").exists()


def test_train_ignores_a_long_t_end(tmp_path):
    # A train's trace ends with its last pulse, so a grid.t_end_ns past
    # the sample cap is no reason to refuse it.
    config = EXAMPLES[0].parent / "train_map.json"
    assert main(["train-map", str(config), "grid.t_end_ns=1e9", "grid.dt_ns=0.5",
                 "drive.n_pulses=2", f"output={tmp_path / 'run'}"]) == 0
    assert (tmp_path / "run.csv").exists()


def test_non_positive_sweep_tau_is_refused_before_any_solve(tmp_path, capsys, spied_solves):
    # The first tau is good; the second one is refused at parse, so the
    # first never solves.
    config = EXAMPLES[0].parent / "train_map.json"
    assert main(["train-map", str(config),
                 'sweep=[{"parameter": "tau_ns", "values": [46, -5]}]',
                 f"output={tmp_path / 'run'}"]) == 1
    assert "config error: drive.tau_ns must be positive, got -5.0" in capsys.readouterr().err
    assert spied_solves == []
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("q", [1.86, 2.2, 2.95, 2.99, 1.0000000001])
def test_line_without_a_buildable_grid_exits_1(small_config, capsys, q):
    # Such a line's default grid exceeds the node cap at any width, so
    # no solve of it can run; at q = 2.99 the support half-width itself
    # overflowed a float.
    path, tmp_path = small_config
    assert main(["long-pulse", str(path), f"density.q={q}"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"density.q = {q} " in err and "4,194,304 nodes" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("kind, fwhm_mhz", [
    ("qgauss", 1e-14), ("qgauss", 1e-310), ("lorentz", 1e-300), ("lorentz", 1e-320),
    ("qgauss", 1e-322), ("lorentz", 1e-322), ("qgauss", 1e-330), ("lorentz", 1e-330),
    ("qgauss", 1e-321), ("lorentz", 1e-321)])
def test_line_too_narrow_for_its_grid_exits_1(small_config, capsys, kind, fwhm_mhz):
    # Spacings of FWHM/200 that floats cannot place around 2.6915 GHz:
    # nodes rounded onto each other (1e-14), subnormal widths (1e-310,
    # 1e-300), a spacing that underflows to 0 (1e-320), a width that
    # underflows to 0 rad/ns (1e-322), one that is 0 as a float (1e-330)
    # and one whose half-width underflows to 0 rad/ns (1e-321). Each is
    # the width's fault, not the shape's, and none may reach the solver.
    path, tmp_path = small_config
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["long-pulse", str(path), f"density.kind={kind}",
                     f"density.fwhm_mhz={fwhm_mhz}"]) == 1
    err = capsys.readouterr().err
    assert f"density.fwhm_mhz = {fwhm_mhz} " in err and "density.kind=delta" in err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("kind", ["qgauss", "lorentz"])
def test_negative_width_names_its_key(small_config, capsys, kind):
    path, tmp_path = small_config
    assert main(["long-pulse", str(path), f"density.kind={kind}",
                 "density.fwhm_mhz=-9.4"]) == 1
    assert "density.fwhm_mhz must be positive, got -9.4" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def test_line_near_the_gaussian_limit_runs(tmp_path):
    # Gamma(p) overflows a float from q = 1.0058 on; the norm constant
    # is taken in log space.
    config = EXAMPLES[0].parent / "long_pulse.json"
    assert main(["long-pulse", str(config), "density.q=1.005",
                 f"output={tmp_path / 'run'}"]) == 0
    rows = np.loadtxt(tmp_path / "run.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows)) and rows[:, 1].max() > 0


def test_solver_residual_failure_exits_2(small_config, capsys, monkeypatch):
    # A Toeplitz solve whose residual check fails is a numerical failure.
    from cavityspin import volterra

    exact = volterra._series_inverse
    monkeypatch.setattr(volterra, "_series_inverse",
                        lambda *args: exact(*args) * (1.0 + 1e-6))
    path, _ = small_config
    assert main(["long-pulse", str(path)]) == 2
    assert "residual" in capsys.readouterr().err


def test_validate_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out
    checks = out.splitlines()[:-1]
    assert checks and all(line.endswith(" s)") for line in checks)


def test_lorentz_analytic_at_zero_coupling(tmp_path):
    # The spins decouple at Omega = 0: the run succeeds with J_x = 0.
    example = next(p for p in EXAMPLES if p.stem == "lorentz_analytic")
    base = tmp_path / "zero"
    assert main(["lorentz-analytic", str(example), "system.coupling_mhz=0",
                 "grid.dt_ns=0.5", f"output={base}"]) == 0
    rows = np.loadtxt(f"{base}.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] > 1
    assert np.all(rows[:, 2] == 0.0)


def test_module_entry_point(small_config):
    path, tmp_path = small_config
    proc = subprocess.run(
        [sys.executable, "-m", "cavityspin", "long-pulse", str(path),
         f"output={tmp_path / 'sub'}"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub.csv").exists()


# scipy's submodules cost 0.3-0.6 s of import and 45 MiB of memory; the
# time-domain path needs numpy only. Tests may import scipy, so each check
# runs in a fresh interpreter.
_SCIPY_SUBMODULES = ("scipy.integrate", "scipy.special", "scipy.fft",
                     "scipy.optimize", "scipy.signal")

_RUN_SCENARIOS = """
import json, sys
from cavityspin import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
"""

_CALL_RESOLVENT = """
import json, sys
from cavityspin import QGaussianDensity, SystemParams, TimeGrid, laplace
from cavityspin import delta_from_fwhm, ghz_to_angular, mhz_to_angular
w = ghz_to_angular(2.6915)
rho = QGaussianDensity(w, 1.39, delta_from_fwhm(1.39, mhz_to_angular(9.4)))
params = SystemParams(w, w, w, kappa=mhz_to_angular(0.8), Omega=mhz_to_angular(1.3))
poles = laplace.find_poles(params, rho)
weight = laplace.residue_weight(params, rho, poles[0].sigma, poles[0].omega)
a0 = laplace.invert(params, rho, TimeGrid(0.0, 0.05, 2)).values[0]
loaded = [m for m in json.loads(sys.argv[1]) if m in sys.modules]
print(json.dumps([len(poles), abs(weight), abs(a0), loaded]))
"""


# The runtime needs numpy only: with every scipy import made to fail,
# validate, every shipped example (coarse) and the resolvent API succeed.
_WITHOUT_SCIPY = """
import json, sys

blocked = []

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            blocked.append(name)
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, _NoScipy())
from cavityspin import QGaussianDensity, SystemParams, TimeGrid, cli, laplace
from cavityspin import delta_from_fwhm, ghz_to_angular, mhz_to_angular
assert cli.main(["validate"]) == 0
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
w = ghz_to_angular(2.6915)
rho = QGaussianDensity(w, 1.39, delta_from_fwhm(1.39, mhz_to_angular(9.4)))
params = SystemParams(w, w, w, kappa=mhz_to_angular(0.8), Omega=mhz_to_angular(1.3))
poles = laplace.find_poles(params, rho)
a0 = laplace.invert(params, rho, TimeGrid(0.0, 0.05, 2), poles=poles).values[0]
print(json.dumps([len(poles), abs(a0), blocked]))
"""


def _fresh_python(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_leaves_scipy_signal_out(tmp_path):
    # Every shipped example, coarse, in one process: the time-domain
    # scenarios (and lorentz-analytic) must not load a scipy submodule.
    runs = [[json.loads(path.read_text())["scenario"], str(path), "grid.dt_ns=0.5",
             f"output={tmp_path / path.stem}"] for path in EXAMPLES]
    loaded = _fresh_python(_RUN_SCENARIOS, json.dumps(runs), json.dumps(_SCIPY_SUBMODULES))
    assert loaded == []
    for path in EXAMPLES:
        assert (tmp_path / f"{path.stem}.csv").exists()


def test_resolvent_api_leaves_scipy_integrate_out():
    # The pole search and pole weights are node sums on the density grid.
    n_poles, weight, a0, loaded = _fresh_python(_CALL_RESOLVENT,
                                                json.dumps(_SCIPY_SUBMODULES))
    assert n_poles == 1 and weight > 0
    assert abs(a0 - 1.0) < 1e-3
    assert loaded == []


_POOL_MODULES = ("concurrent.futures", "multiprocessing")

_IMPORT_CLI = """
import json, sys
import cavityspin.cli
print(json.dumps([m for m in json.loads(sys.argv[1]) if m in sys.modules]))
"""


def test_import_leaves_process_pools_out():
    # Sweep points run serially; the pool modules cost a fresh process
    # about 27 ms of import.
    assert _fresh_python(_IMPORT_CLI, json.dumps(_POOL_MODULES)) == []


def test_runtime_needs_numpy_only(tmp_path):
    runs = [[json.loads(path.read_text())["scenario"], str(path), "grid.dt_ns=0.5",
             f"output={tmp_path / path.stem}"] for path in EXAMPLES]
    n_poles, a0, blocked = _fresh_python(_WITHOUT_SCIPY, json.dumps(runs))
    assert n_poles == 1 and abs(a0 - 1.0) < 1e-3
    assert blocked == []
    for path in EXAMPLES:
        assert (tmp_path / f"{path.stem}.csv").exists()
