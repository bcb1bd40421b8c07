"""Acceptance suite: one test per headline behavior target, asserted at
its posted tolerance on desk-scale grids.

Every test prints the numbers it asserts, so a failing line carries its
own evidence. Targets that the implementation does not reproduce are
still asserted literally rather than loosened; within a test the
expected-green clauses come first so a known-red final clause cannot
mask them.
"""

import math
import time

import numpy as np
import pytest
from scipy.signal import find_peaks

from cavityspin import (
    LorentzianDensity,
    QGaussianDensity,
    SystemParams,
    TimeGrid,
    angular_to_mhz,
    delta_from_fwhm,
    ghz_to_angular,
    grid_for_density,
    lamb_shift,
    mhz_to_angular,
    normalize,
    rect_pulse,
)
from cavityspin import laplace, lorentz, volterra
from cavityspin.harness import ScenarioConfig, run_scenario
from cavityspin.lorentz import LorentzParams

OMEGA_C = ghz_to_angular(2.6915)
KAPPA = mhz_to_angular(0.8)
Q_SHAPE = 1.39
FWHM_MHZ = 9.4

# Lorentzian twin of the q-Gaussian working point, pinned by the 19.2 MHz
# splitting and the driven steady-state amplitude at 8.56 MHz coupling.
TWIN_OMEGA_MHZ = 9.786
TWIN_DELTA_MHZ = 4.598


def qgauss_density() -> QGaussianDensity:
    return QGaussianDensity(
        omega_s=OMEGA_C, q=Q_SHAPE,
        delta=delta_from_fwhm(Q_SHAPE, mhz_to_angular(FWHM_MHZ)),
    )


def resonant(omega_mhz: float) -> SystemParams:
    return SystemParams(omega_c=OMEGA_C, omega_s=OMEGA_C, omega_p=OMEGA_C,
                        kappa=KAPPA, Omega=mhz_to_angular(omega_mhz))


def base_system_mapping(coupling_mhz: float = 8.56) -> dict:
    return {
        "system": {"cavity_ghz": 2.6915, "kappa_mhz": 0.8,
                   "coupling_mhz": coupling_mhz},
        "density": {"kind": "qgauss", "fwhm_mhz": FWHM_MHZ, "q": Q_SHAPE},
    }


@pytest.fixture(scope="session")
def rabi_run():
    """800 ns resonant drive at 8.56 MHz coupling, dt = 0.05 ns, watched
    for 1.2 us; shared by the period, overshoot, and property tests."""
    mapping = {
        "scenario": "long-pulse",
        **base_system_mapping(),
        "drive": {"kind": "rect", "duration_ns": 800.0},
        "grid": {"dt_ns": 0.05, "t_end_ns": 1200.0},
    }
    t0 = time.perf_counter()
    table = run_scenario(ScenarioConfig.from_mapping(mapping))
    return table, time.perf_counter() - t0


@pytest.fixture(scope="session")
def rate_sweep():
    """Twenty-point decay-rate sweep over coupling at dt = 0.2 ns."""
    mapping = {
        "scenario": "gamma-sweep",
        **base_system_mapping(),
        "grid": {"dt_ns": 0.2},
        "sweep": [{"parameter": "coupling_mhz", "values": [
            0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 3.0, 4.0, 5.0, 6.5,
            8.56, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0, 27.5, 30.0,
        ]}],
    }
    t0 = time.perf_counter()
    table = run_scenario(ScenarioConfig.from_mapping(mapping))
    return table, time.perf_counter() - t0


def test_criterion_01_rabi_period(rabi_run):
    table, elapsed = rabi_run
    t = table.column("t_ns")
    a2 = table.column("abs_A2")
    # After switch-off the envelope is a decaying cos^2, so intensity
    # maxima sit one full oscillation period apart.
    post = t > 800.0
    peaks, _ = find_peaks(a2[post], prominence=1e-3 * a2[post].max())
    spacing = np.diff(t[post][peaks]).mean()
    measured_mhz = 1e3 / spacing
    print(f"criterion 1: peak spacing {spacing:.2f} ns -> "
          f"{measured_mhz:.2f} MHz (target 19.2 +- 2%), "
          f"runtime {elapsed:.1f} s (limit 30 s)")
    assert elapsed < 30.0
    assert len(peaks) >= 4
    assert measured_mhz == pytest.approx(19.2, rel=0.02)


def test_criterion_02_overshoot(rabi_run):
    table, _ = rabi_run
    t = table.column("t_ns")
    a2 = table.column("abs_A2")
    a_st, _ = volterra.steady_state(resonant(8.56), qgauss_density())
    post = t > 800.0
    peaks, _ = find_peaks(a2[post])
    ratio = a2[post][peaks[0]] / abs(a_st) ** 2
    print(f"criterion 2: first post-pulse peak / steady intensity = "
          f"{ratio:.3f} (target band [1.7, 2.3])")
    assert 1.7 <= ratio <= 2.3


def test_criterion_03_solver_equivalence():
    # (a) Lorentzian density: marching solver against the closed forms,
    # through switch-on and an 800 ns settled switch-off.
    p = LorentzParams(Omega=mhz_to_angular(TWIN_OMEGA_MHZ),
                      Delta=mhz_to_angular(TWIN_DELTA_MHZ),
                      kappa=KAPPA, eta=KAPPA, tau_d=800.0)
    params = resonant(TWIN_OMEGA_MHZ)
    density = LorentzianDensity(OMEGA_C, p.Delta)
    tgrid = TimeGrid(0.0, 0.1, 12001)
    t = tgrid.times()
    numeric = volterra.solve(params, density, rect_pulse(KAPPA, 800.0), tgrid)
    closed = np.where(t <= 800.0, lorentz.cavity_on(p, t),
                      lorentz.cavity_off(p, t))
    err_closed = (np.abs(numeric.values - closed).max()
                  / np.abs(closed).max())
    # (b) Toeplitz solver against the direct O(N^2) discretization on
    # a 4000-step window.
    params_q = resonant(8.56)
    density_q = qgauss_density()
    tgrid4k = TimeGrid(0.0, 0.05, 4000)
    drive = rect_pulse(KAPPA, 100.0)
    fast = volterra.solve(params_q, density_q, drive, tgrid4k)
    direct = volterra.solve_direct(params_q, density_q, drive, tgrid4k)
    err_direct = (np.abs(fast.values - direct.values).max()
                  / np.abs(direct.values).max())
    print(f"criterion 3: closed-form L-inf {err_closed:.2e} (limit 1e-3), "
          f"solve-vs-direct L-inf {err_direct:.2e} (limit 1e-6)")
    assert err_closed <= 1e-3
    assert err_direct <= 1e-6


def test_criterion_04_lorentz_decay_law():
    delta = mhz_to_angular(TWIN_DELTA_MHZ)
    density = LorentzianDensity(OMEGA_C, delta)
    # Underdamped: release from the driven steady state; the intensity
    # envelope must decay at Delta + kappa.
    params = resonant(TWIN_OMEGA_MHZ)
    series = volterra.decay_from_steady_state(
        params, density, TimeGrid(0.0, 0.1, 6001))
    fitted = laplace.decay_rate_timefit(series).gamma
    target = delta + KAPPA
    err_under = abs(fitted - target) / target
    # Overdamped: free decay splits into two real exponentials whose
    # rates are the characteristic roots; fit the slow one on a late
    # window and the fast one on the early residual.
    params_od = resonant(0.5)
    roots = lorentz.exponents(LorentzParams(
        Omega=params_od.Omega, Delta=delta, kappa=KAPPA, eta=KAPPA,
        tau_d=0.0))
    s_slow, s_fast = roots[0].real, roots[1].real
    tgrid = TimeGrid(0.0, 0.1, 8001)
    t = tgrid.times()
    amp = volterra.solve(params_od, density, rect_pulse(0.0, 1.0), tgrid,
                         a0=1.0).values.real
    late = (t >= 300.0) & (t <= 700.0)
    slope_slow, intercept = np.polyfit(t[late], np.log(np.abs(amp[late])), 1)
    resid = np.abs(amp - np.sign(amp[0]) * np.exp(intercept + slope_slow * t))
    early = (t >= 2.0) & (t <= 60.0) & (resid > 1e-12)
    slope_fast, _ = np.polyfit(t[early], np.log(resid[early]), 1)
    err_slow = abs(slope_slow - s_slow) / abs(s_slow)
    err_fast = abs(slope_fast - s_fast) / abs(s_fast)
    print(f"criterion 4: underdamped timefit {angular_to_mhz(fitted):.4f} "
          f"vs Delta+kappa {angular_to_mhz(target):.4f} MHz "
          f"(rel {err_under:.2e}); overdamped roots rel "
          f"{err_slow:.2e}/{err_fast:.2e} (limits 2%)")
    assert err_under <= 0.02
    assert err_slow <= 0.02
    assert err_fast <= 0.02


def test_criterion_05_overshoot_threshold():
    # Numerically located first-peak = steady-state crossing for the
    # derived Lorentzian pair, plus the same search at the 4.4 MHz
    # half-width variant for reference.
    th_derived = angular_to_mhz(lorentz.overshoot_threshold(
        mhz_to_angular(TWIN_DELTA_MHZ), KAPPA))
    th_variant = angular_to_mhz(lorentz.overshoot_threshold(
        mhz_to_angular(4.4), KAPPA))
    # The verbatim closed-form first-peak estimate, evaluated at the
    # located crossing: as written it never reaches the steady state
    # (a property discrepancy, so it is reported, not asserted).
    p = LorentzParams(Omega=mhz_to_angular(th_derived),
                      Delta=mhz_to_angular(TWIN_DELTA_MHZ), kappa=KAPPA,
                      eta=1.0, tau_d=0.0)
    a_st, _ = lorentz.steady_values(p)
    formula_ratio = lorentz.overshoot_formula(p) / a_st**2
    print(f"criterion 5: located threshold {th_derived:.3f} MHz "
          f"(Delta = {TWIN_DELTA_MHZ}); {th_variant:.3f} MHz (Delta = 4.4); "
          f"verbatim formula first-peak/steady at the crossing = "
          f"{formula_ratio:.3f} (cannot exceed 1, so it admits no "
          f"threshold); asserted target 7.15 MHz +- 2%")
    assert th_derived == pytest.approx(7.15, rel=0.02)


def test_criterion_06_decay_rate_sweep(rate_sweep):
    table, elapsed = rate_sweep
    omega = table.column("Omega_mhz")
    fit = table.column("Gamma_timefit_mhz")
    markov = table.column("Gamma_markov_mhz")
    asym = table.column("Gamma_asymptotic_mhz")
    nob = table.column("Gamma_nobroadening_mhz")
    i_max = int(np.argmax(fit))
    g_max = fit[i_max]
    g_25 = fit[omega == 25.0][0]
    markov_rel = np.abs(fit - markov) / fit
    asym_rel = np.abs(fit - asym) / fit
    # Cavity protection suppresses the broadening-induced part of the
    # decay; the no-broadening column is the floor that part sits on.
    floor_25 = nob[omega == 25.0][0]
    floor_max = nob[i_max]
    total_ratio = g_25 / g_max
    induced_ratio = (g_25 - floor_25) / (g_max - floor_max)
    print(f"criterion 6: runtime {elapsed:.0f} s (limit 600); "
          f"max Gamma {g_max:.3f} MHz at {omega[i_max]} MHz "
          f"(target 2.25 +- 15%); Gamma(25) = {g_25:.3f}; "
          f"broadening-induced ratio (floor {floor_25:.1f} MHz) "
          f"{induced_ratio:.3f} vs limit 0.08; total ratio {total_ratio:.3f}")
    print("  markov rel err:", np.array2string(markov_rel, precision=3))
    print("  asymptote rel err:", np.array2string(asym_rel, precision=3))
    assert elapsed < 600.0
    # Rises to an interior maximum, then falls: non-monotonic.
    assert 0 < i_max < len(omega) - 1
    assert fit[0] < g_max and fit[-1] < g_max
    # Weak-coupling formula holds early and must break beyond the ridge.
    assert np.all(markov_rel[omega <= 1.0] <= 0.10)
    assert np.all(markov_rel[omega >= 2.5] > 0.10)
    # Large-coupling asymptote within 15% from 25 MHz up.
    assert np.all(asym_rel[omega >= 25.0] <= 0.15)
    # Removing the broadening removes a decay channel everywhere.
    assert np.all(nob <= fit * (1.0 + 1e-3))
    # Protection clause: the broadening-induced rate at 25 MHz vs at the
    # sweep maximum. Read on the total rate, the bound would need a
    # maximum above 10 MHz, since the rate at 25 MHz cannot drop below
    # the 0.8 MHz floor asserted just above.
    assert g_25 - floor_25 < 0.08 * (g_max - floor_max)
    # The band from 2 to 4 MHz has nodes and revivals but too few peaks
    # for the peak-sequence fit, so its rate comes from the t = 0 sample
    # plus the revival peaks; the ridge peaks at 2.0 MHz.
    assert omega[i_max] == pytest.approx(2.25, rel=0.15)


def test_criterion_07_resolvent_cross_check():
    density = qgauss_density()
    # Free single-photon decay: contour reconstruction against the
    # time-domain marcher, plus exact weight at t = 0.
    for omega_mhz, t_end in ((8.56, 300.0), (25.0, 200.0)):
        params = resonant(omega_mhz)
        tgrid = TimeGrid(0.0, 0.05, int(round(t_end / 0.05)) + 1)
        marched = volterra.solve(params, density, rect_pulse(0.0, 1.0),
                                 tgrid, a0=1.0)
        recon = laplace.invert(params, density, tgrid)
        err = (np.abs(marched.values - recon.values).max()
               / np.abs(marched.values).max())
        closure = abs(recon.values[0] - 1.0)
        print(f"criterion 7: Omega = {omega_mhz} MHz, reconstruction "
              f"L-inf {err:.2e} (limit 1e-3), |A(0)-1| = {closure:.2e}")
        assert err <= 1e-3
        assert closure <= 1e-3

    def n_poles(omega_mhz):
        return len(laplace.find_poles(resonant(omega_mhz), density))

    # First-sheet pole census: one pole at weak coupling, none in the
    # middle band, a symmetric pair at strong coupling. Bisect both
    # regime boundaries.
    assert n_poles(1.3) == 1
    assert n_poles(25.0) == 2
    lo, hi = 1.3, 2.1
    while hi - lo > 0.05:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if n_poles(mid) >= 1 else (lo, mid)
    single_upper = 0.5 * (lo + hi)
    lo, hi = 19.5, 25.0
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if n_poles(mid) == 0 else (lo, mid)
    pair_lower = 0.5 * (lo + hi)
    pair = laplace.find_poles(resonant(25.0), density)
    # Pole frequencies are stored in the e^{i omega t} phase convention,
    # so a pair symmetric about the cavity line shows up symmetric about
    # -omega_c.
    rel = [p.omega + OMEGA_C for p in pair]
    pair_asym = abs(rel[0] + rel[1]) / abs(rel[0])
    sigma_gap = abs(pair[0].sigma - pair[1].sigma) / abs(pair[0].sigma)
    print(f"criterion 7: single-pole regime ends at {single_upper:.2f} MHz "
          f"(target 1.7 +- 20%), pair reappears at {pair_lower:.2f} MHz "
          f"(target 25 - 20% or above); pair symmetry defects "
          f"{pair_asym:.1e}/{sigma_gap:.1e}")
    assert single_upper == pytest.approx(1.7, rel=0.20)
    assert 0.8 * 25.0 <= pair_lower <= 1.2 * 25.0
    assert pair_asym <= 1e-6
    assert sigma_gap <= 1e-6


def test_criterion_08_pulse_train_resonance():
    mapping = {
        "scenario": "train-map",
        **base_system_mapping(),
        "drive": {"kind": "train", "n_pulses": 11},
        "grid": {"dt_ns": 0.1},
        "sweep": [{"parameter": "tau_ns",
                   "values": [46.0, 48.0, 50.0, 52.0, 54.0, 56.0, 58.0]}],
    }
    table = run_scenario(ScenarioConfig.from_mapping(mapping))
    tau = table.column("tau_ns")
    a2 = table.column("abs_A2")
    maxima = {float(v): a2[tau == v].max() for v in np.unique(tau)}
    best = max(maxima, key=maxima.get)
    a_st, _ = volterra.steady_state(resonant(8.56), qgauss_density())
    ridge = maxima[best] / abs(a_st) ** 2
    print(f"criterion 8: map maxima {{tau: max}} = "
          f"{ {k: float(f'{v:.4g}') for k, v in maxima.items()} }; "
          f"best tau {best} ns (target 52 within one 2 ns cell), "
          f"ridge/steady = {ridge:.1f} (limit >= 50)")
    assert ridge >= 50.0
    assert abs(best - 52.0) <= 2.0


def test_criterion_09_protection_payoff(rate_sweep):
    mapping = {
        "scenario": "train-compare",
        **base_system_mapping(coupling_mhz=25.0),
        "drive": {"kind": "train", "tau_ns": 19.5, "n_pulses": 70},
        "grid": {"dt_ns": 0.05},
    }
    table = run_scenario(ScenarioConfig.from_mapping(mapping))
    settled = slice(int(0.8 * table.n_rows), None)
    amp_ratio = (table.column("abs_A2_main")[settled].max()
                 / table.column("abs_A2_twin")[settled].max())
    sweep_table, _ = rate_sweep
    omega = sweep_table.column("Omega_mhz")
    fit = sweep_table.column("Gamma_timefit_mhz")
    gamma_ratio = fit[omega == 8.56][0] / fit[omega == 25.0][0]
    print(f"criterion 9: settled train intensity ratio "
          f"(heavy-tailed / Lorentzian twin) = {amp_ratio:.1f} "
          f"(target 20 x/ 1.5); decay-rate ratio "
          f"Gamma(8.56)/Gamma(25) = {gamma_ratio:.2f} "
          f"(target 3.7 +- 15%)")
    assert 20.0 / 1.5 <= amp_ratio <= 20.0 * 1.5
    # Asserted last: the measured slow-branch fit at 8.56 MHz comes out
    # near 3.2 MHz, so the rate ratio lands near 2.7 instead of 3.7.
    assert gamma_ratio == pytest.approx(3.7, rel=0.15)


def test_criterion_10_property_suite(rabi_run):
    density = qgauss_density()
    params = resonant(8.56)
    # Linearity in the drive amplitude.
    tgrid = TimeGrid(0.0, 0.1, 1001)
    one = volterra.solve(params, density, rect_pulse(KAPPA, 60.0), tgrid)
    two = volterra.solve(params, density,
                         rect_pulse(2.0 * KAPPA, 60.0), tgrid)
    lin = (np.abs(two.values - 2.0 * one.values).max()
           / np.abs(two.values).max())
    # Normalization, symmetry, positivity of the line shape.
    normalize(density)
    grid = grid_for_density(density)
    x = grid.omegas - OMEGA_C
    rho = density.pdf(grid.omegas)
    sym = np.abs(rho - rho[::-1]).max() / rho.max()
    assert np.all(rho >= 0.0)
    # Lamb shift is odd about the line center and vanishes there.
    probe = mhz_to_angular(3.0)
    d_plus = lamb_shift(density, grid, OMEGA_C + probe)
    d_minus = lamb_shift(density, grid, OMEGA_C - probe)
    odd = abs(d_plus + d_minus) / abs(d_plus)
    center = abs(lamb_shift(density, grid, OMEGA_C)) / abs(d_plus)
    # Resonant drive keeps the collective spin in one quadrature.
    table, _ = rabi_run
    jy_rel = (np.sqrt(table.column("Jy2").max())
              / np.sqrt((table.column("Jx2") + table.column("Jy2")).max()))
    # Cavity and spin intensities exchange energy: their maxima interleave.
    t = table.column("t_ns")
    on = t <= 800.0
    a2 = table.column("abs_A2")[on]
    jx2 = table.column("Jx2")[on]
    pa, _ = find_peaks(a2, prominence=0.01 * a2.max())
    pj, _ = find_peaks(jx2, prominence=0.01 * jx2.max())
    ta, tj = t[on][pa], t[on][pj]
    between = [int(np.sum((tj > ta[i]) & (tj < ta[i + 1])))
               for i in range(len(ta) - 1)]
    # Second-order quadrature: halving dt must cut the error by ~4.
    drive = rect_pulse(KAPPA, 48.0)
    traces = {}
    for dt in (0.4, 0.2, 0.1):
        tg = TimeGrid(0.0, dt, int(round(96.0 / dt)) + 1)
        traces[dt] = volterra.solve(params, density, drive, tg).values
    ratio = (np.abs(traces[0.4] - traces[0.2][::2]).max()
             / np.abs(traces[0.2][::2] - traces[0.1][::4]).max())
    print(f"criterion 10: linearity {lin:.1e} (limit 1e-12); symmetry "
          f"{sym:.1e}; lamb-shift odd/center defects {odd:.1e}/{center:.1e}; "
          f"J_y/|J| = {jy_rel:.1e} (limit 1e-8); spin peaks between "
          f"cavity peaks = {between}; dt-convergence ratio {ratio:.2f} "
          f"(band [3.5, 4.5])")
    assert lin <= 1e-12
    assert sym <= 1e-12
    assert odd <= 1e-10
    assert center <= 1e-10
    assert jy_rel <= 1e-8
    assert all(b == 1 for b in between)
    assert 3.5 <= ratio <= 4.5
