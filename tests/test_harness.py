"""Scenario harness: config parsing, sweeps, result tables, provenance,
and the physics-level behavior of each runner on small grids."""

import json
import math
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from cavityspin import TimeGrid, rect_pulse, volterra
from cavityspin.harness import (
    ConfigError,
    ResultTable,
    ScenarioConfig,
    apply_assignment,
    config_hash,
    iter_assignments,
    run_scenario,
    run_validation,
    snap_to_grid,
    write_outputs,
)

CAVITY_GHZ = 2.6915


def base_mapping(scenario="long-pulse", **extra):
    mapping = {
        "scenario": scenario,
        "system": {"cavity_ghz": CAVITY_GHZ, "kappa_mhz": 0.8,
                   "coupling_mhz": 8.56},
        "density": {"kind": "qgauss", "fwhm_mhz": 9.4, "q": 1.39},
        "drive": {"kind": "rect", "duration_ns": 800.0},
        "grid": {"dt_ns": 0.2, "t_end_ns": 800.0},
    }
    mapping.update(extra)
    return mapping


class TestConfigParsing:
    def test_round_trip_is_identity(self):
        mapping = base_mapping(
            sweep=[{"parameter": "tau_ns", "values": [10.0, 20.0]}],
            output="somewhere/run",
        )
        cfg = ScenarioConfig.from_mapping(mapping)
        again = ScenarioConfig.from_mapping(
            json.loads(json.dumps(cfg.to_mapping()))
        )
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_defaults_fill_eagerly(self):
        cfg = ScenarioConfig.from_mapping(base_mapping())
        # Ensemble center and probe default to the cavity line, the drive
        # amplitude to kappa, and all of that must be visible in the
        # emitted mapping rather than resolved lazily at run time.
        assert cfg.system.spin_ghz == CAVITY_GHZ
        assert cfg.system.probe_ghz == CAVITY_GHZ
        emitted = cfg.to_mapping()
        assert emitted["system"]["probe_ghz"] == CAVITY_GHZ
        assert emitted["grid"]["dt_ns"] == 0.2
        params = cfg.system.to_params()
        assert cfg.drive.amplitude(params) == pytest.approx(params.kappa)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ScenarioConfig.from_mapping(base_mapping(extra_knob=1))

    def test_unknown_group_key_rejected(self):
        mapping = base_mapping()
        mapping["system"]["kappa_ghz"] = 0.8
        with pytest.raises(ConfigError, match="kappa_ghz"):
            ScenarioConfig.from_mapping(mapping)

    def test_group_must_be_mapping(self):
        mapping = base_mapping()
        mapping["system"] = [1, 2, 3]
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping(mapping)

    def test_bad_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            ScenarioConfig.from_mapping(base_mapping(scenario="warp-drive"))

    def test_bad_density_kind_rejected(self):
        mapping = base_mapping()
        mapping["density"] = {"kind": "gauss"}
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping(mapping)

    def test_bad_sweep_parameter_rejected(self, monkeypatch):
        mapping = base_mapping(
            sweep=[{"parameter": "kappa_mhz", "values": [1.0]}]
        )
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping(mapping)
        # A known parameter the scenario cannot sweep: tau_ns changes
        # nothing in a single rectangular pulse. It fails before any solve.
        monkeypatch.setattr(volterra, "solve", None)
        cfg = ScenarioConfig.from_mapping(base_mapping(
            sweep=[{"parameter": "tau_ns", "values": [10.0, 20.0]}]
        ))
        with pytest.raises(ConfigError, match="tau_ns"):
            run_scenario(cfg)

    def test_bool_is_not_a_number(self):
        mapping = base_mapping()
        mapping["system"]["kappa_mhz"] = True
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping(mapping)

    def test_sweep_points_validated_at_parse_time(self):
        # A sweep value that would build unphysical parameters must fail
        # when the config is parsed, not minutes later inside a worker.
        mapping = base_mapping(
            sweep=[{"parameter": "coupling_mhz", "values": [8.56, -1.0]}]
        )
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping(mapping)

    def test_negative_kappa_rejected(self):
        mapping = base_mapping()
        mapping["system"]["kappa_mhz"] = -0.8
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping(mapping)


class TestAssignments:
    def test_product_order_last_axis_fastest(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            sweep=[
                {"parameter": "probe_offset_mhz", "values": [0.0, 1.0]},
                {"parameter": "tau_ns", "values": [10.0, 20.0, 30.0]},
            ],
        ))
        combos = iter_assignments(cfg)
        assert len(combos) == 6
        assert combos[0] == (("probe_offset_mhz", 0.0), ("tau_ns", 10.0))
        assert combos[1] == (("probe_offset_mhz", 0.0), ("tau_ns", 20.0))
        assert combos[3] == (("probe_offset_mhz", 1.0), ("tau_ns", 10.0))

    def test_no_sweep_yields_single_empty_assignment(self):
        cfg = ScenarioConfig.from_mapping(base_mapping())
        assert iter_assignments(cfg) == [()]

    def test_probe_offset_moves_probe_not_cavity(self):
        cfg = ScenarioConfig.from_mapping(base_mapping())
        shifted = apply_assignment(cfg, (("probe_offset_mhz", 9.6),))
        assert shifted.system.cavity_ghz == CAVITY_GHZ
        assert shifted.system.probe_ghz == pytest.approx(CAVITY_GHZ + 9.6e-3)

    def test_snap_to_grid_examples(self):
        assert snap_to_grid(30.07, 0.1) == pytest.approx(30.1)
        assert snap_to_grid(52.0, 0.05) == pytest.approx(52.0)
        # Anything below half a step still snaps to one full step.
        assert snap_to_grid(0.01, 0.1) == pytest.approx(0.1)

    @given(
        duration=st.floats(min_value=1e-3, max_value=1e4),
        dt=st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_snap_to_grid_properties(self, duration, dt):
        snapped = snap_to_grid(duration, dt)
        k = snapped / dt
        assert k >= 1
        assert abs(k - round(k)) < 1e-9 * max(1.0, k)
        # Never moves by more than half a step unless clamped up to one.
        assert abs(snapped - duration) <= 0.5 * dt + 1e-9 * duration or k == 1


class TestResultTable:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ResultTable(columns=("a", "b"), rows=np.zeros((3, 3)),
                        provenance={})

    def test_rejects_non_finite(self):
        rows = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            ResultTable(columns=("a", "b"), rows=rows, provenance={})

    def test_column_lookup(self):
        table = ResultTable(columns=("a", "b"),
                            rows=np.array([[1.0, 2.0], [3.0, 4.0]]),
                            provenance={})
        assert table.n_rows == 2
        np.testing.assert_allclose(table.column("b"), [2.0, 4.0])
        with pytest.raises(KeyError):
            table.column("c")

    def test_rows_are_read_only(self):
        table = ResultTable(columns=("a",), rows=np.array([[1.0]]),
                            provenance={})
        with pytest.raises(ValueError):
            table.rows[0, 0] = 5.0

    def test_csv_bytes(self, tmp_path):
        table = ResultTable(columns=("t_ns", "abs_A2"),
                            rows=np.array([[0.0, 1.0 / 3.0]]),
                            provenance={})
        path = tmp_path / "out.csv"
        table.write_csv(path)
        raw = path.read_bytes()
        # Unix newlines only, a trailing newline, and repr-exact floats so
        # the file round-trips bit for bit.
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode().splitlines()
        assert lines[0] == "t_ns,abs_A2"
        assert float(lines[1].split(",")[1]) == 1.0 / 3.0


class TestOutputs:
    def test_manifest_records_config_and_versions(self, tmp_path):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            grid={"dt_ns": 0.5, "t_end_ns": 50.0},
            drive={"kind": "rect", "duration_ns": 30.0},
        ))
        table = run_scenario(cfg)
        csv_path, manifest_path = write_outputs(
            table, cfg, tmp_path / "run", timings={"wall_s": 0.1}
        )
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(cfg)
        assert ScenarioConfig.from_mapping(manifest["config"]) == cfg
        assert manifest["n_rows"] == table.n_rows
        assert list(manifest["columns"]) == list(table.columns)
        assert "numpy" in manifest["versions"]
        assert manifest["versions"]["python"] == platform.python_version()
        assert manifest["timings"] == {"wall_s": 0.1}
        n_lines = (tmp_path / "run.csv").read_text().count("\n")
        assert n_lines == table.n_rows + 1


class TestLongPulse:
    def test_columns_and_snap(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            grid={"dt_ns": 0.5, "t_end_ns": 120.0},
            drive={"kind": "rect", "duration_ns": 80.2},
        ))
        table = run_scenario(cfg)
        assert table.columns == ("t_ns", "abs_A2", "Jx2", "Jy2")
        assert table.n_rows == 241
        derived = table.provenance["derived"]
        assert derived["duration_ns"]["requested"] == 80.2
        assert derived["duration_ns"]["snapped"] == pytest.approx(80.0)
        # Resonant drive puts nothing into the out-of-phase quadrature:
        # the resonant solve is real, so J_y^2 is exactly 0.
        assert np.max(table.column("Jx2")) > 0
        assert not np.any(table.column("Jy2"))

    def test_intensity_rises_then_decays(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            grid={"dt_ns": 0.2, "t_end_ns": 400.0},
            drive={"kind": "rect", "duration_ns": 200.0},
        ))
        a2 = run_scenario(cfg).column("abs_A2")
        assert a2[0] == 0.0
        assert a2.max() > 0
        # After the pulse ends the field leaks out; the trace end must sit
        # far below the global maximum.
        assert a2[-1] < 0.05 * a2.max()

    def test_sweep_adds_prefix_column(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            grid={"dt_ns": 0.5, "t_end_ns": 50.0},
            drive={"kind": "rect", "duration_ns": 50.0},
            sweep=[{"parameter": "coupling_mhz", "values": [2.0, 8.56]}],
        ))
        table = run_scenario(cfg)
        assert table.columns[0] == "coupling_mhz"
        col = table.column("coupling_mhz")
        assert set(np.unique(col)) == {2.0, 8.56}
        assert table.n_rows == 2 * 101

    def test_polariton_peaks_respond_strongest(self):
        # With a 19.2 MHz oscillation splitting, driving 9.6 MHz off the
        # cavity line sits on a dressed mode and settles far above the
        # absorbed on-resonance response, symmetrically on both sides.
        cfg = ScenarioConfig.from_mapping(base_mapping(
            sweep=[{"parameter": "probe_offset_mhz",
                    "values": [-9.6, 0.0, 9.6]}],
        ))
        table = run_scenario(cfg)
        off = table.column("probe_offset_mhz")
        a2 = table.column("abs_A2")
        settled = {}
        for v in (-9.6, 0.0, 9.6):
            block = a2[off == v]
            settled[v] = block[int(0.8 * len(block)):].max()
        assert settled[9.6] > 10 * settled[0.0]
        assert settled[-9.6] == pytest.approx(settled[9.6], rel=1e-6)

    def test_oscillations_vanish_below_pole_merge(self):
        # Weak coupling (well under the two-pole boundary near 1.68 MHz)
        # rises monotonically to steady state: no interior intensity peak
        # of even 1% prominence while the drive is on. Strong coupling on
        # the same grid shows clear oscillation peaks.
        weak = base_mapping()
        weak["system"]["coupling_mhz"] = 1.06
        a2_weak = run_scenario(ScenarioConfig.from_mapping(weak)).column("abs_A2")
        peaks_weak, _ = find_peaks(a2_weak, prominence=0.01 * a2_weak.max())
        assert len(peaks_weak) == 0

        strong = base_mapping()
        a2_strong = run_scenario(ScenarioConfig.from_mapping(strong)).column("abs_A2")
        peaks_strong, _ = find_peaks(a2_strong, prominence=0.01 * a2_strong.max())
        assert len(peaks_strong) >= 3


class TestTrainMap:
    def test_requires_tau_axis(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="train-map",
            drive={"kind": "train", "n_pulses": 3},
        ))
        with pytest.raises(ConfigError, match="tau_ns"):
            run_scenario(cfg)
        # The tau axis drives a train, so the drive must say so.
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="train-map",
            drive={"kind": "rect", "n_pulses": 3},
            sweep=[{"parameter": "tau_ns", "values": [30.0]}],
        ))
        with pytest.raises(ConfigError, match="drive.kind"):
            run_scenario(cfg)

    def test_tau_column_carries_snapped_value(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="train-map",
            drive={"kind": "train", "n_pulses": 3},
            grid={"dt_ns": 0.1},
            sweep=[{"parameter": "tau_ns", "values": [30.07]}],
        ))
        table = run_scenario(cfg)
        np.testing.assert_allclose(table.column("tau_ns"), 30.1)
        pair = table.provenance["derived"]["tau_pairs_ns"][0]
        assert pair["requested"] == 30.07
        assert pair["snapped"] == pytest.approx(30.1)

    def test_matched_tau_builds_up(self):
        # Switching the drive phase every half oscillation period (52 ns
        # at 8.56 MHz coupling) pumps the system coherently; a mismatched
        # 30 ns train reaches far less intensity on the same pulse budget.
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="train-map",
            drive={"kind": "train", "n_pulses": 8},
            grid={"dt_ns": 0.1},
            sweep=[{"parameter": "tau_ns", "values": [30.0, 52.0]}],
        ))
        table = run_scenario(cfg)
        tau = table.column("tau_ns")
        a2 = table.column("abs_A2")
        assert a2[tau == 52.0].max() > 2.5 * a2[tau == 30.0].max()


class TestGammaSweep:
    def test_columns_and_bounds(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="gamma-sweep",
            grid={"dt_ns": 0.2},
            sweep=[{"parameter": "coupling_mhz", "values": [3.0, 8.56]}],
        ))
        table = run_scenario(cfg)
        assert table.columns == (
            "Omega_mhz", "Gamma_timefit_mhz", "Gamma_markov_mhz",
            "Gamma_asymptotic_mhz", "Gamma_lorentz_mhz",
            "Gamma_nobroadening_mhz",
        )
        assert table.n_rows == 2
        rates = table.rows[:, 1:]
        assert np.all(rates > 0)
        # Removing the broadening removes the ensemble decay channel, so
        # that column lower-bounds the fitted rate everywhere.
        assert np.all(table.column("Gamma_timefit_mhz")
                      >= 0.999 * table.column("Gamma_nobroadening_mhz"))
        # At 3 MHz the amplitude changes sign just before the first window
        # ends. The trace must reach past that node to the revival peak,
        # and the rate must not come from a window that ends at the node.
        cfg3 = apply_assignment(cfg, (("coupling_mhz", 3.0),))
        tgrid = TimeGrid(0.0, 0.2, 1001)
        a2 = volterra.solve(cfg3.system.to_params(), cfg3.density.build(),
                            rect_pulse(0.0, tgrid.t_end), tgrid, a0=1.0).abs2()
        t = tgrid.times()
        nodes = np.nonzero((a2[1:-1] < a2[:-2]) & (a2[1:-1] <= a2[2:]))[0] + 1
        revival = np.nonzero((a2[1:-1] > a2[:-2]) & (a2[1:-1] >= a2[2:]))[0] + 1
        diag = table.provenance["diagnostics"][0]
        assert t[nodes[0]] < t[revival[0]] < diag["t_max_ns"]
        assert "window" not in diag["fit_note"]

    def test_requires_single_coupling_axis(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="gamma-sweep",
            grid={"dt_ns": 0.2},
            sweep=[{"parameter": "tau_ns", "values": [10.0]}],
        ))
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    @pytest.mark.parametrize("group,key,value", [
        ("system", "spin_ghz", CAVITY_GHZ + 0.01),
        ("system", "probe_ghz", CAVITY_GHZ + 0.01),
        ("density", "center_ghz", CAVITY_GHZ - 0.01),
        ("system", "spin_loss_mhz", 5.0),
    ])
    def test_rejects_detuned_or_lossy(self, group, key, value, monkeypatch):
        # The resolvent rates assume the resonant configuration: a config
        # error (exit 1) before any solve, not a numerical one. The model
        # has no single-spin loss, so that key is unknown.
        monkeypatch.setattr(volterra, "solve", None)
        mapping = base_mapping(
            scenario="gamma-sweep",
            grid={"dt_ns": 0.2},
            sweep=[{"parameter": "coupling_mhz", "values": [8.56]}],
        )
        mapping[group][key] = value
        match = "unknown system keys" if key == "spin_loss_mhz" else f"{group}.{key}"
        with pytest.raises(ConfigError, match=match):
            run_scenario(ScenarioConfig.from_mapping(mapping))

    @pytest.mark.parametrize("kappa_mhz, reached", [(0.05, True), (0.02, False)])
    def test_free_decay_windows_stop_at_the_cap(self, monkeypatch, kappa_mhz, reached):
        # At coupling 0.01 MHz the golden-rule start 5 / markov is 7,953 ns
        # at kappa 0.05 MHz, so one x4 growth would pass the cap, and
        # 19,866 ns at 0.02 MHz, past it already: every window, the first
        # included, is clamped to 16,384 ns.
        ends = []
        solve = volterra.solve
        monkeypatch.setattr(volterra, "solve",
                            lambda *args, **kw: ends.append(args[3].t_end) or solve(*args, **kw))
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="gamma-sweep",
            system={"cavity_ghz": CAVITY_GHZ, "kappa_mhz": kappa_mhz, "coupling_mhz": 0.01},
            grid={"dt_ns": 0.2},
            sweep=[{"parameter": "coupling_mhz", "values": [0.01]}],
        ))
        diag = run_scenario(cfg).provenance["diagnostics"][0]
        assert max(ends) == diag["t_max_ns"] == 16384.0
        assert diag["envelope_floor_reached"] is reached

    def test_manifest_serializes_diagnostics(self, tmp_path):
        # The per-point diagnostics are plain Python values: the manifest
        # is written by json.dump with no fallback for numpy scalars.
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="gamma-sweep",
            grid={"dt_ns": 0.2},
            sweep=[{"parameter": "coupling_mhz", "values": [8.56]}],
        ))
        table = run_scenario(cfg)
        _, manifest_path = write_outputs(table, cfg, tmp_path / "sweep")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        diag = manifest["diagnostics"][0]
        assert diag["envelope_floor_reached"] is True
        assert diag["fit_note"]


class TestTrainCompare:
    def test_twin_fit_and_columns(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="train-compare",
            drive={"kind": "train", "tau_ns": 19.5, "n_pulses": 6},
            grid={"dt_ns": 0.1},
        ))
        cfg = ScenarioConfig.from_mapping(
            {**cfg.to_mapping(),
             "system": {**cfg.to_mapping()["system"], "coupling_mhz": 25.0}}
        )
        table = run_scenario(cfg)
        assert table.columns == ("t_ns", "abs_A2_main", "abs_A2_twin")
        derived = table.provenance["derived"]
        # The matched Lorentzian for the 8.56 MHz reference point: the
        # fitted pair is pinned by the 19.2 MHz splitting and the driven
        # steady-state amplitude.
        assert derived["twin_coupling_mhz"] == pytest.approx(9.786, rel=0.02)
        assert derived["twin_half_width_mhz"] == pytest.approx(4.598, rel=0.02)
        assert np.all(table.column("abs_A2_main") >= 0)
        assert np.all(table.column("abs_A2_twin") >= 0)
        # One point: its diagnostics carry the twin next to the snapped tau.
        (diag,) = table.provenance["diagnostics"]
        assert diag["assignment"] == {}
        assert diag["tau_ns"] == derived["tau_pairs_ns"][0]
        assert diag["twin_half_width_mhz"] == derived["twin_half_width_mhz"]

    def test_rejects_lorentz_main_density(self):
        # A delta line has no steady state to fit the twin to either.
        for density in ({"kind": "lorentz", "fwhm_mhz": 9.2}, {"kind": "delta"}):
            mapping = base_mapping(
                scenario="train-compare",
                drive={"kind": "train", "tau_ns": 19.5, "n_pulses": 3},
            )
            mapping["density"] = density
            with pytest.raises(ConfigError, match="density.kind"):
                run_scenario(ScenarioConfig.from_mapping(mapping))

    @pytest.mark.parametrize("group, key, value", [
        ("system", "probe_ghz", CAVITY_GHZ + 0.01),
        ("density", "center_ghz", CAVITY_GHZ + 0.001),
    ])
    def test_rejects_detuned(self, group, key, value, monkeypatch):
        # The twin fit needs the resonant steady state: a probe off the
        # cavity, or a line centred 1 MHz off it, is a config error
        # before any solve, not a numerical failure or a silent fit.
        monkeypatch.setattr(volterra, "solve", None)
        monkeypatch.setattr(volterra, "steady_state", None)
        mapping = base_mapping(
            scenario="train-compare",
            drive={"kind": "train", "tau_ns": 19.5, "n_pulses": 3},
        )
        mapping[group][key] = value
        with pytest.raises(ConfigError, match=f"{group}.{key}"):
            run_scenario(ScenarioConfig.from_mapping(mapping))

    def test_rejects_sweep(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="train-compare",
            drive={"kind": "train", "tau_ns": 19.5, "n_pulses": 3},
            sweep=[{"parameter": "tau_ns", "values": [10.0]}],
        ))
        with pytest.raises(ConfigError):
            run_scenario(cfg)
        # Nor a rectangular drive in place of the train.
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="train-compare",
            drive={"kind": "rect", "tau_ns": 19.5, "n_pulses": 3},
        ))
        with pytest.raises(ConfigError, match="drive.kind"):
            run_scenario(cfg)


class TestMaxScan:
    def test_grid_and_resonant_dominance(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="max-scan",
            drive={"kind": "train", "n_pulses": 8},
            grid={"dt_ns": 0.1},
            sweep=[
                {"parameter": "probe_offset_mhz", "values": [0.0, 9.6]},
                {"parameter": "tau_ns", "values": [30.0, 52.0]},
            ],
        ))
        table = run_scenario(cfg)
        assert table.columns == ("pi_over_tau_rad_ns", "detuning_mhz",
                                 "max_abs_A2")
        assert table.n_rows == 4
        best = np.argmax(table.column("max_abs_A2"))
        assert table.column("detuning_mhz")[best] == 0.0
        assert table.column("pi_over_tau_rad_ns")[best] == pytest.approx(
            math.pi / 52.0)
        assert len(table.provenance["derived"]["tau_pairs_ns"]) == 4

    def test_rejects_coupling_axis(self):
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="max-scan",
            drive={"kind": "train", "n_pulses": 3},
            sweep=[
                {"parameter": "tau_ns", "values": [30.0]},
                {"parameter": "coupling_mhz", "values": [8.56]},
            ],
        ))
        with pytest.raises(ConfigError):
            run_scenario(cfg)
        # Nor a rectangular drive in place of the train.
        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="max-scan",
            drive={"kind": "rect", "n_pulses": 3},
            sweep=[{"parameter": "tau_ns", "values": [30.0]}],
        ))
        with pytest.raises(ConfigError, match="drive.kind"):
            run_scenario(cfg)


class TestLorentzAnalytic:
    def test_runs_closed_form(self):
        mapping = base_mapping(
            scenario="lorentz-analytic",
            grid={"dt_ns": 0.2, "t_end_ns": 300.0},
            drive={"kind": "rect", "duration_ns": 200.0},
        )
        mapping["density"] = {"kind": "lorentz", "fwhm_mhz": 9.196}
        mapping["system"]["coupling_mhz"] = 9.786
        table = run_scenario(ScenarioConfig.from_mapping(mapping))
        assert table.columns == ("t_ns", "abs_A2", "Jx2", "Jy2")
        a2 = table.column("abs_A2")
        assert a2[0] == 0.0
        assert np.all(np.isfinite(a2))
        # The closed form has no out-of-phase spin quadrature on resonance.
        assert np.max(table.column("Jy2")) == 0.0

    @pytest.mark.parametrize("duration, coupling", [
        pytest.param(20.0, 9.786, id="20.0"),
        pytest.param(100.0, 9.786, id="100.0"),
        # 4 Omega^2 = (Delta - kappa)^2 exactly: the two roots merge.
        pytest.param(20.0, 1.899, id="20.0-critical"),
    ])
    def test_short_pulse_matches_solver(self, duration, coupling):
        # An unsettled drive: the ring-down must start from the actual
        # switch-off state. Same bound as criterion 3's closed-form check.
        from cavityspin import LorentzianDensity, mhz_to_angular
        from conftest import OMEGA_C, resonant_system

        mapping = base_mapping(
            scenario="lorentz-analytic",
            grid={"dt_ns": 0.05, "t_end_ns": duration + 400.0},
            drive={"kind": "rect", "duration_ns": duration},
        )
        mapping["density"] = {"kind": "lorentz", "fwhm_mhz": 9.196}
        mapping["system"]["coupling_mhz"] = coupling
        table = run_scenario(ScenarioConfig.from_mapping(mapping))
        t = table.column("t_ns")
        params = resonant_system(coupling)
        density = LorentzianDensity(OMEGA_C, mhz_to_angular(9.196) / 2.0)
        numeric = volterra.solve(params, density, rect_pulse(params.kappa, duration),
                                 TimeGrid(0.0, 0.05, len(t))).abs2()
        err = np.abs(table.column("abs_A2") - numeric).max() / numeric.max()
        assert err <= 1e-3

    @pytest.mark.parametrize("group, key, value", [
        ("system", "probe_ghz", CAVITY_GHZ + 0.01),
        ("system", "spin_ghz", CAVITY_GHZ + 0.01),
        ("density", "center_ghz", CAVITY_GHZ - 0.01),
        ("system", "spin_loss_mhz", 5.0),
    ])
    def test_rejects_detuned_or_lossy(self, group, key, value):
        # The closed form is resonant; anything else would come back as
        # the resonant table, silently. Spin loss is an unknown key.
        mapping = base_mapping(
            scenario="lorentz-analytic",
            grid={"dt_ns": 0.2, "t_end_ns": 300.0},
            drive={"kind": "rect", "duration_ns": 200.0},
        )
        mapping["density"] = {"kind": "lorentz", "fwhm_mhz": 9.196}
        mapping[group][key] = value
        match = "unknown system keys" if key == "spin_loss_mhz" else f"{group}.{key}"
        with pytest.raises(ConfigError, match=match):
            run_scenario(ScenarioConfig.from_mapping(mapping))


class TestDeterminism:
    def test_gamma_sweep_bytes_do_not_depend_on_sweep_order(self):
        # Points from 15 MHz on ask for the same windows, so inside a run
        # they share kernel tables; the bytes must not depend on which
        # points shared, or in what order.
        couplings = [15.0, 20.0, 25.0]
        tables = []
        for values in (couplings, couplings[::-1]):
            cfg = ScenarioConfig.from_mapping(base_mapping(
                scenario="gamma-sweep",
                grid={"dt_ns": 0.5},
                sweep=[{"parameter": "coupling_mhz", "values": values}],
            ))
            tables.append(run_scenario(cfg))
        assert tables[1].rows[::-1].tobytes() == tables[0].rows.tobytes()


class TestKernelShare:
    def test_share_lives_for_one_run(self, monkeypatch):
        # The solves of a run share kernel tables; after the run, whether
        # it returns or raises, nothing is left to warm the next one.
        from cavityspin import laplace

        cfg = ScenarioConfig.from_mapping(base_mapping(
            scenario="gamma-sweep",
            grid={"dt_ns": 0.5},
            sweep=[{"parameter": "coupling_mhz", "values": [20.0, 25.0]}],
        ))
        held = []
        timefit = laplace.decay_rate_timefit

        def spy(series):
            held.append(len(volterra._share.get()))
            return timefit(series)

        monkeypatch.setattr(laplace, "decay_rate_timefit", spy)
        run_scenario(cfg)
        assert volterra._share.get() is None
        assert held and min(held) > 0

        def fail(series):
            held.append(len(volterra._share.get()))
            raise ValueError("fit failed")

        monkeypatch.setattr(laplace, "decay_rate_timefit", fail)
        with pytest.raises(ValueError, match="fit failed"):
            run_scenario(cfg)
        assert volterra._share.get() is None
        assert held[-1] > 0


    def test_coupling_sweep_points_keep_their_bytes(self):
        # Each point of a 3-coupling long-pulse sweep keeps the bytes it
        # has when run alone.
        def mapping(**extra):
            return base_mapping(grid={"dt_ns": 0.5, "t_end_ns": 150.0},
                                drive={"kind": "rect", "duration_ns": 100.0}, **extra)

        couplings = [4.0, 8.56, 15.0]
        alone = [run_scenario(ScenarioConfig.from_mapping(mapping(
            system={"cavity_ghz": CAVITY_GHZ, "kappa_mhz": 0.8, "coupling_mhz": c})))
            for c in couplings]
        swept = run_scenario(ScenarioConfig.from_mapping(mapping(
            sweep=[{"parameter": "coupling_mhz", "values": couplings}])))
        blocks = swept.rows.reshape(len(couplings), alone[0].n_rows, -1)
        for block, table in zip(blocks, alone):
            assert np.ascontiguousarray(block[:, 1:]).tobytes() == table.rows.tobytes()

    def test_gamma_sweep_builds_each_block_once(self, monkeypatch):
        # The example gamma-sweep asks its 8,015-node kernel key for 62
        # windows of 34 lengths, from 65 to 9,137 lags. The key's table
        # grows in fixed lag blocks, so the run builds at most 2 blocks
        # there, with one node transform per extension.
        from pathlib import Path

        from cavityspin import volterra

        path = Path(__file__).resolve().parent.parent / "docs" / "examples" / "gamma_sweep.json"
        config = ScenarioConfig.from_mapping(json.loads(path.read_text()))
        built = {"node": [], "block": []}
        for name, kind, grid_at in (("_node_chirp", "node", 1), ("_chirp_z", "block", 2)):
            def wrapper(*args, _f=getattr(volterra, name), _kind=kind, _at=grid_at):
                built[_kind].append(args[_at].n)
                return _f(*args)
            monkeypatch.setattr(volterra, name, wrapper)
        run_scenario(config)
        assert built["node"].count(8015) == 2
        assert 1 <= built["block"].count(8015) <= 2

    @pytest.mark.parametrize("example", ["gamma_sweep.json", "long_pulse.json"])
    def test_share_holds_tables_and_inverses_only(self, monkeypatch, example):
        # Inside a run the share keeps kernel tables and the Toeplitz
        # inverses of the latest kernel, nothing else: spied after every
        # solve and collective-spin readout of the example gamma-sweep and
        # long pulse.
        from pathlib import Path

        from cavityspin import volterra

        path = Path(__file__).resolve().parent.parent / "docs" / "examples" / example
        mapping = json.loads(path.read_text())
        held = []
        for name in ("solve", "collective_spin"):
            def spy(*args, _f=getattr(volterra, name), _name=name, **kwargs):
                out = _f(*args, **kwargs)
                held.append((_name, set(volterra._share.get())))
                return out
            monkeypatch.setattr(volterra, name, spy)
        run_scenario(ScenarioConfig.from_mapping(mapping))
        assert held and all(keys == {"tables", "inverses"} for _, keys in held)
        if example == "long_pulse.json":
            assert [name for name, _ in held] == ["solve", "collective_spin"]


class TestValidation:
    def test_all_checks_pass(self):
        results = run_validation()
        failed = [(name, detail) for name, ok, detail, _ in results if not ok]
        assert failed == []
        assert len(results) >= 6
        assert all(seconds >= 0.0 for *_, seconds in results)
