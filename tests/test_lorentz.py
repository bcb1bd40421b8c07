import cmath
import math

import numpy as np
import pytest

from cavityspin import mhz_to_angular
from cavityspin.lorentz import (
    LorentzParams,
    cavity_off,
    cavity_on,
    equivalent_lorentzian,
    exponents,
    modal_form,
    overshoot_first_peak,
    overshoot_formula,
    overshoot_threshold,
    pulse_response,
    rabi_frequency,
    spin_off,
    spin_on,
    steady_values,
)
from conftest import KAPPA

OMEGA = mhz_to_angular(8.56)
DELTA = mhz_to_angular(4.598)


def make(omega=OMEGA, delta=DELTA, kappa=KAPPA, eta=KAPPA, tau_d=2000.0):
    return LorentzParams(Omega=omega, Delta=delta, kappa=kappa, eta=eta, tau_d=tau_d)


def trig_form(p, phase, t):
    """The docstring formulas of the four public functions, with Omega_R
    continued to i |Omega_R| when overdamped: an oracle for the two-mode
    evaluator that shares none of its code."""
    wr = cmath.sqrt(4.0 * p.Omega**2 - (p.Delta - p.kappa) ** 2)
    denom = p.Omega**2 + p.Delta * p.kappa
    x = t if phase.endswith("_on") else t - p.tau_d
    damp = np.exp(-(p.Delta + p.kappa) * x / 2.0)
    cos, sin = np.cos(wr * x / 2.0), np.sin(wr * x / 2.0)
    cavity = 2.0 * wr * p.Delta * cos - (wr**2 - p.Delta**2 + p.kappa**2) * sin
    spin = (p.Delta + p.kappa) * sin + wr * cos
    val = {
        "cavity_on": -p.Delta * p.eta / denom + p.eta * damp * cavity / (2.0 * wr * denom),
        "spin_on": p.eta * p.Omega / (2.0 * denom)
                   - p.eta * p.Omega * damp * spin / (2.0 * wr * denom),
        "cavity_off": -p.eta * damp * cavity / (2.0 * wr * denom),
        "spin_off": p.eta * p.Omega * damp * spin / (2.0 * wr * denom),
    }[phase]
    return val.real


PHASES = {
    "cavity_on": cavity_on,
    "spin_on": spin_on,
    "cavity_off": cavity_off,
    "spin_off": spin_off,
}


class TestClosedFormsAgainstModal:
    """The two-mode evaluator must be the function its docstring's trig
    form describes; this pins the half-angle and 1/2 factors."""

    @pytest.mark.parametrize("phase", list(PHASES))
    @pytest.mark.parametrize("omega_mhz", [8.56, 12.0, 2.2, 1.5])
    def test_trig_equals_modal(self, phase, omega_mhz):
        # 1.5 MHz is overdamped for Delta = 4.598 MHz: the forms must
        # continue analytically through Omega_R -> i |Omega_R|.
        p = make(omega=mhz_to_angular(omega_mhz))
        x = np.linspace(0.0, 400.0, 2001)
        t = x if phase.endswith("_on") else p.tau_d + x
        got = PHASES[phase](p, t)
        want = trig_form(p, phase, t)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 1e-12 * scale

    def test_zero_coupling_spins_vanish(self):
        # At Omega = 0 the spins decouple: J_x = 0 in both phases, and the
        # spin modes have zero coefficients instead of a 1/Omega blow-up.
        p = make(omega=0.0)
        t = np.linspace(0.0, 600.0, 301)
        assert np.all(spin_on(p, t) == 0.0)
        assert np.all(spin_off(p, p.tau_d + t) == 0.0)
        for phase in ("spin_on", "spin_off"):
            const, coeffs, _ = modal_form(p, phase)
            assert const == 0.0 and coeffs == (0.0, 0.0)

    def test_zero_coupling_drive_limit(self):
        # Omega = 0 must collapse to the bare driven cavity.
        p = make(omega=0.0)
        t = np.linspace(0.0, 600.0, 301)
        expected = -(p.eta / p.kappa) * (1.0 - np.exp(-p.kappa * t))
        got = cavity_on(p, t)
        assert np.abs(got - expected).max() < 1e-12 * (p.eta / p.kappa)

    def test_zero_broadening_is_pure_rabi(self):
        # Delta = 0 reduces to the undamped-ensemble oscillator used as
        # the time-domain solver oracle.
        p = make(delta=0.0, omega=mhz_to_angular(10.0))
        nu = math.sqrt(p.Omega**2 - p.kappa**2 / 4.0)
        t = np.linspace(0.0, 300.0, 1501)
        expected = -(p.eta / nu) * np.exp(-p.kappa * t / 2.0) * np.sin(nu * t)
        got = cavity_on(p, t)
        assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()

    def test_scalar_and_array_agree(self):
        p = make()
        ts = [0.0, 3.7, 120.0]
        arr = cavity_on(p, np.array(ts))
        for t, v in zip(ts, arr):
            assert cavity_on(p, t) == v


class TestOscillatorResiduals:
    """Residual of A'' + (Delta+kappa) A' + (Omega^2 + Delta kappa) A
    against the phase's inhomogeneity, from analytic modal derivatives."""

    @pytest.mark.parametrize("phase,rhs_key", [
        ("cavity_on", "drive"), ("spin_on", "spin_drive"),
        ("cavity_off", "zero"), ("spin_off", "zero"),
    ])
    def test_residual(self, phase, rhs_key):
        # 1.5 MHz is overdamped for Delta = 4.598 MHz: the modes continue
        # analytically through Omega_R -> i |Omega_R| and must still
        # solve the oscillator equation.
        for omega_mhz in (8.56, 12.0, 2.2, 1.5):
            p = make(omega=mhz_to_angular(omega_mhz))
            s = p.Delta + p.kappa
            pole = p.Omega**2 + p.Delta * p.kappa
            const, (c1, c2), (l1, l2) = modal_form(p, phase)
            x = np.linspace(0.0, 400.0, 801)
            e1, e2 = np.exp(l1 * x), np.exp(l2 * x)
            f = const + c1 * e1 + c2 * e2
            df = c1 * l1 * e1 + c2 * l2 * e2
            d2f = c1 * l1**2 * e1 + c2 * l2**2 * e2
            rhs = {"drive": -p.eta * p.Delta,
                   "spin_drive": p.eta * p.Omega / 2.0,
                   "zero": 0.0}[rhs_key]
            resid = d2f + s * df + pole * f - rhs
            scale = max(np.abs(d2f).max(), pole * np.abs(f).max(), abs(rhs), 1e-300)
            assert np.abs(resid).max() < 1e-8 * scale, omega_mhz

    def test_switch_on_initial_conditions(self):
        p = make()
        _, (c1, c2), (l1, l2) = modal_form(p, "cavity_on")
        a_st, _ = steady_values(p)
        assert abs(a_st + c1 + c2) < 1e-15 * abs(a_st)          # A(0) = 0
        assert complex(c1 * l1 + c2 * l2) == pytest.approx(-p.eta, rel=1e-12)
        assert abs(cavity_on(p, 0.0)) < 1e-13 * abs(a_st)
        assert abs(spin_on(p, 0.0)) < 1e-13 * steady_values(p)[1]

    def test_switch_off_initial_conditions(self):
        p = make()
        _, (c1, c2), (l1, l2) = modal_form(p, "cavity_off")
        a_st, _ = steady_values(p)
        assert complex(c1 + c2) == pytest.approx(a_st, rel=1e-13)
        assert complex(c1 * l1 + c2 * l2) == pytest.approx(p.eta, rel=1e-12)


class TestContinuityAtSwitchOff:
    def test_cavity_and_spin_joined(self):
        # After a drive much longer than the transient, the on-phase
        # solution has settled and both branches must agree at tau_d.
        p = make(tau_d=2000.0)
        a_st, j_st = steady_values(p)
        assert cavity_on(p, p.tau_d) == pytest.approx(cavity_off(p, p.tau_d), rel=1e-12)
        assert spin_on(p, p.tau_d) == pytest.approx(spin_off(p, p.tau_d), rel=1e-12)
        assert cavity_off(p, p.tau_d) == pytest.approx(a_st, rel=1e-12)
        assert spin_off(p, p.tau_d) == pytest.approx(j_st, rel=1e-12)


class TestPulseResponse:
    """`pulse_response` switches off from the actual drive-phase state."""

    def test_settled_pulse_joins_steady_state_branches(self):
        p = make(tau_d=2000.0)
        t = np.linspace(0.0, 2600.0, 5201)
        a, jx = pulse_response(p, t)
        on, off = t <= p.tau_d, t > p.tau_d
        np.testing.assert_array_equal(a[on], cavity_on(p, t[on]))
        np.testing.assert_array_equal(jx[on], spin_on(p, t[on]))
        scale = abs(steady_values(p)[0])
        assert np.abs(a[off] - cavity_off(p, t[off])).max() < 1e-12 * scale
        assert np.abs(jx[off] - spin_off(p, t[off])).max() < 1e-12 * scale

    @pytest.mark.parametrize("omega_mhz", [8.56, 1.5])
    def test_short_pulse_continuity_and_spin_identity(self, omega_mhz):
        # 20 ns is far from settled: A and J_x must still be continuous at
        # tau_d, and after it J_x = (A' + kappa A) / (2 Omega).
        p = make(omega=mhz_to_angular(omega_mhz), tau_d=20.0)
        h = 1e-3
        a, jx = pulse_response(p, np.array([p.tau_d, p.tau_d + 1e-9]))
        scale = abs(steady_values(p)[0])
        assert abs(a[1] - a[0]) < 1e-9 * scale
        assert abs(jx[1] - jx[0]) < 1e-9 * scale
        t = p.tau_d + np.linspace(1.0, 300.0, 600)
        a, jx = pulse_response(p, t)
        da = (pulse_response(p, t + h)[0] - pulse_response(p, t - h)[0]) / (2.0 * h)
        rhs = (da + p.kappa * a) / (2.0 * p.Omega)
        assert np.abs(jx - rhs).max() < 1e-8 * np.abs(jx).max()

    def test_ring_down_tail_keeps_relative_precision(self):
        # 2,200 ns after switch-off A is about 4e-17 of A_st, below the
        # rounding of the steady state itself.
        p = make(omega=mhz_to_angular(9.786), delta=mhz_to_angular(4.598), tau_d=800.0)
        t = p.tau_d + np.array([700.0, 1200.0, 1700.0, 2200.0])
        a, jx = pulse_response(p, t)
        from_zero = make(omega=p.Omega, delta=p.Delta, tau_d=0.0)
        for phase, got in (("cavity_off", a), ("spin_off", jx)):
            want = trig_form(p, phase, t) - trig_form(from_zero, phase, t)
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want)), phase


class TestSpinCavityIdentity:
    """J_x is slaved to the cavity: J_x = (A' + kappa A + eta(t)) / (2 Omega)."""

    def fd_derivative(self, f, p, t, h=1e-3):
        return (f(p, t + h) - f(p, t - h)) / (2.0 * h)

    def test_during_drive(self):
        p = make()
        t = np.linspace(1.0, 300.0, 600)
        lhs = spin_on(p, t)
        rhs = (self.fd_derivative(cavity_on, p, t) + p.kappa * cavity_on(p, t)
               + p.eta) / (2.0 * p.Omega)
        assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(lhs).max()

    def test_after_switch_off(self):
        p = make(tau_d=500.0)
        t = p.tau_d + np.linspace(1.0, 300.0, 600)
        lhs = spin_off(p, t)
        rhs = (self.fd_derivative(cavity_off, p, t)
               + p.kappa * cavity_off(p, t)) / (2.0 * p.Omega)
        assert np.abs(lhs - rhs).max() < 1e-8 * np.abs(lhs).max()


class TestRabiFrequency:
    def test_value(self):
        p = make()
        assert rabi_frequency(p) == pytest.approx(
            math.sqrt(4.0 * p.Omega**2 - (p.Delta - p.kappa) ** 2), rel=1e-15)

    def test_overdamped_raises(self):
        delta = mhz_to_angular(6.0)
        with pytest.raises(ValueError, match="overdamped"):
            rabi_frequency(make(omega=(delta - KAPPA) / 2.0, delta=delta))

    def test_exponents_conjugate_when_underdamped(self):
        l1, l2 = exponents(make())
        assert l1 == l2.conjugate()
        assert l1.real == pytest.approx(-(DELTA + KAPPA) / 2.0, rel=1e-15)


class TestOvershoot:
    def first_peak_closed_form(self, p):
        # Exact first-peak value and time worked out from the two-mode
        # representation: A_1^2 = A_st^2 (Omega/Delta)^2 e^{-(Delta+kappa) t1},
        # t1 = 2 arccos(-(Delta-kappa)/(2 Omega)) / Omega_R past switch-off.
        wr = rabi_frequency(p)
        a_st, _ = steady_values(p)
        t1 = 2.0 * math.acos(-(p.Delta - p.kappa) / (2.0 * p.Omega)) / wr
        peak2 = (a_st * p.Omega / p.Delta) ** 2 * math.exp(-(p.Delta + p.kappa) * t1)
        return p.tau_d + t1, peak2

    @pytest.mark.parametrize("omega_mhz", [8.56, 12.0, 6.0])
    def test_locator_against_closed_form(self, omega_mhz):
        p = make(omega=mhz_to_angular(omega_mhz), tau_d=0.0)
        t_peak, peak2 = overshoot_first_peak(p)
        t_want, peak2_want = self.first_peak_closed_form(p)
        assert t_peak == pytest.approx(t_want, abs=2e-5)
        assert peak2 == pytest.approx(peak2_want, rel=1e-9)

    def test_locator_against_dense_scan(self):
        p = make(omega=mhz_to_angular(12.0), tau_d=0.0)
        t_peak, peak2 = overshoot_first_peak(p)
        t = np.arange(0.0, 2.0 * math.pi / rabi_frequency(p), 1e-3)
        a2 = cavity_off(p, t) ** 2
        i = int(np.argmax(a2))
        assert t_peak == pytest.approx(t[i], abs=2e-3)
        assert peak2 == pytest.approx(a2[i], rel=1e-5)

    def test_printed_estimate_misses_coupling_prefactor(self):
        # The analytic estimate tracks the located peak only after
        # multiplying by (Omega/Delta)^2; both are exposed unmodified.
        for omega_mhz in (6.0, 8.56, 12.0):
            p = make(omega=mhz_to_angular(omega_mhz), tau_d=0.0)
            _, peak2 = overshoot_first_peak(p)
            est = overshoot_formula(p)
            assert peak2 == pytest.approx(est * (p.Omega / p.Delta) ** 2, rel=1e-6)

    def test_ratio_grows_with_coupling(self):
        ratios = []
        for omega_mhz in (5.0, 7.0, 9.0, 12.0, 16.0):
            p = make(omega=mhz_to_angular(omega_mhz), tau_d=0.0)
            a_st, _ = steady_values(p)
            ratios.append(overshoot_first_peak(p)[1] / a_st**2)
        assert all(x < y for x, y in zip(ratios, ratios[1:]))

    def test_peak_vanishes_at_damping_boundary(self):
        delta = mhz_to_angular(6.0)
        omega = (delta - KAPPA) / 2.0 * (1.0 + 1e-4)
        p = make(omega=omega, delta=delta, tau_d=0.0)
        _, peak2_want = self.first_peak_closed_form(p)
        a_st, _ = steady_values(p)
        assert peak2_want < 1e-30 * a_st**2


class TestOvershootThreshold:
    def threshold_oracle(self, delta, kappa):
        # Root of the exact first-peak ratio: (Omega/Delta)^2
        # e^{-(Delta+kappa) t1(Omega)} = 1, solved by brentq.
        from scipy.optimize import brentq

        def log_ratio(omega):
            p = LorentzParams(Omega=omega, Delta=delta, kappa=kappa,
                              eta=1.0, tau_d=0.0)
            wr = rabi_frequency(p)
            t1 = 2.0 * math.acos(-(delta - kappa) / (2.0 * omega)) / wr
            return 2.0 * math.log(omega / delta) - (delta + kappa) * t1

        lo = (delta - kappa) / 2.0 * (1.0 + 1e-9)
        return brentq(log_ratio, lo, 20.0 * delta, xtol=1e-12)

    def test_bisection_matches_root_oracle(self):
        got = overshoot_threshold(DELTA, KAPPA)
        want = self.threshold_oracle(DELTA, KAPPA)
        assert got == pytest.approx(want, abs=2.0 * math.pi * 2e-7)

    def test_scale_invariance(self):
        base = overshoot_threshold(DELTA, KAPPA)
        doubled = overshoot_threshold(2.0 * DELTA, 2.0 * KAPPA)
        assert doubled == pytest.approx(2.0 * base, rel=3e-5)

    def test_monotone_in_linewidth(self):
        vals = [overshoot_threshold(mhz_to_angular(d), KAPPA)
                for d in (3.0, 4.598, 6.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_requires_delta_above_kappa(self):
        with pytest.raises(ValueError):
            overshoot_threshold(KAPPA / 2.0, KAPPA)

    def test_threshold_ratio_is_unity(self):
        omega_th = overshoot_threshold(DELTA, KAPPA)
        p = LorentzParams(Omega=omega_th, Delta=DELTA, kappa=KAPPA,
                          eta=1.0, tau_d=0.0)
        a_st, _ = steady_values(p)
        _, peak2 = overshoot_first_peak(p)
        assert peak2 / a_st**2 == pytest.approx(1.0, abs=2e-4)


class TestEquivalentLorentzian:
    def test_reproduces_requested_pair(self):
        target_wr = mhz_to_angular(19.2)
        target_ast = -0.0367  # plausible deep-dip steady amplitude
        omega, delta = equivalent_lorentzian(target_wr, target_ast, KAPPA, KAPPA)
        p = LorentzParams(Omega=omega, Delta=delta, kappa=KAPPA,
                          eta=KAPPA, tau_d=0.0)
        assert rabi_frequency(p) == pytest.approx(target_wr, rel=1e-9)
        assert steady_values(p)[0] == pytest.approx(-abs(target_ast), rel=1e-9)

    def test_matches_broadened_ensemble_operating_point(self, ensemble):
        # Fitting the observed oscillation frequency and dip depth of the
        # q = 1.39 ensemble at Omega/2pi = 8.56 MHz lands near
        # (9.79, 4.60) MHz; frozen from an independent evaluation.
        from cavityspin.volterra import steady_state
        from conftest import resonant_system

        a_st, _ = steady_state(resonant_system(8.56), ensemble, eta=KAPPA)
        omega, delta = equivalent_lorentzian(
            mhz_to_angular(19.2), a_st.real, KAPPA, KAPPA)
        assert omega == pytest.approx(mhz_to_angular(9.786), rel=5e-3)
        assert delta == pytest.approx(mhz_to_angular(4.598), rel=5e-3)

    def test_rejects_impossible_targets(self):
        with pytest.raises(ValueError):
            equivalent_lorentzian(mhz_to_angular(19.2), -1.5, KAPPA, KAPPA)

    def test_rejects_a_pair_no_lorentzian_reaches(self):
        # A dip this shallow caps the Rabi frequency far below 19.2 MHz.
        with pytest.raises(ValueError, match="no Lorentzian matches"):
            equivalent_lorentzian(mhz_to_angular(19.2), -0.9, KAPPA, KAPPA)
