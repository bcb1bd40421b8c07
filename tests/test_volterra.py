import math
from dataclasses import replace

import numpy as np
import pytest

from cavityspin import (
    DiracDeltaDensity,
    DriveProtocol,
    LorentzianDensity,
    QGaussianDensity,
    TimeGrid,
    delta_from_fwhm,
    grid_for_density,
    mhz_to_angular,
    phase_switched_train,
    rect_pulse,
)
from cavityspin.lorentz import LorentzParams, cavity_off
from cavityspin.volterra import (
    KernelCache,
    collective_spin,
    _forcing,
    decay_from_steady_state,
    kernel_K,
    solve,
    solve_direct,
    steady_state,
)
from conftest import FWHM, KAPPA, OMEGA_C, Q_SHAPE, detuned_system, resonant_system

DT = 0.05


def rel_linf(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.abs(a - b).max() / np.abs(b).max()


class TestKernel:
    def test_dirac_resonant_closed_form(self):
        # For an unbroadened ensemble on resonance the kernel integrates
        # to -(Omega^2/kappa) (1 - e^{-kappa x}).
        p = resonant_system(8.56)
        lags = np.linspace(0.0, 400.0, 161)
        expected = -(p.Omega**2 / p.kappa) * (1.0 - np.exp(-p.kappa * lags))
        got = kernel_K(p, DiracDeltaDensity(omega_s=OMEGA_C), lags)
        assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()

    def test_zero_lag_is_zero(self, ensemble):
        p = resonant_system(8.56)
        assert kernel_K(p, ensemble, 0.0) == 0.0

    def test_cache_matches_single_recompute(self, ensemble):
        p = detuned_system(8.56, probe_offset=mhz_to_angular(1.3))
        grid = grid_for_density(ensemble, t_max=100.0)
        vals = KernelCache(p, ensemble, grid, DT).values(1200)
        assert vals[0] == 0.0
        scale = np.abs(vals).max()
        lags = np.array([1, 17, 511, 512, 513, 1024, 1199])
        direct = kernel_K(p, ensemble, DT * lags, grid=grid)
        assert np.abs(vals[lags] - direct).max() < 1e-12 * scale

    @pytest.mark.parametrize("lorentz,n_lags,n_freq", [
        (False, 24_001, 8_015),   # long-pulse table
        (True, 27_301, 40_001),   # train-compare twin table
    ])
    def test_chirp_z_table_matches_direct_sums(self, ensemble, lorentz, n_lags, n_freq):
        if lorentz:
            p = resonant_system(9.786)
            density = LorentzianDensity(omega_s=OMEGA_C, delta=mhz_to_angular(4.598))
        else:
            p, density = detuned_system(8.56, probe_offset=mhz_to_angular(1.3)), ensemble
        grid = grid_for_density(density, t_max=(n_lags - 1) * DT)
        assert grid.n == n_freq
        vals = KernelCache(p, density, grid, DT).values(n_lags)
        scale = np.abs(vals).max()
        lags = np.linspace(1, n_lags - 1, 41).astype(int)
        direct = kernel_K(p, density, DT * lags, grid=grid)
        assert np.abs(vals[lags] - direct).max() <= 1e-12 * scale

    def test_kernel_K_agrees_with_cache(self, ensemble):
        p = resonant_system(8.56)
        grid = grid_for_density(ensemble, t_max=50.0)
        cache = KernelCache(p, ensemble, grid, DT)
        vals = cache.values(200)
        lags = DT * np.arange(200)
        direct = kernel_K(p, ensemble, lags, grid=grid)
        assert np.abs(direct - vals).max() < 1e-12 * np.abs(vals).max()


def closed_form_forcing(p, prot, t):
    """Reference F(t) at arbitrary times, one masked closed form per
    segment: F(t) = -sum_k eta_k int_{a_k}^{min(t, b_k)} e^{-i omega_bar (t - tau)} dtau."""
    out = np.zeros(len(t), dtype=complex)
    wb = p.omega_bar
    a = 0.0
    for duration, eta in prot.segments:
        b = a + duration
        active = t > a
        ta = t[active]
        out[active] += -eta * (np.exp(-1j * wb * (ta - np.minimum(ta, b)))
                               - np.exp(-1j * wb * (ta - a))) / (1j * wb)
        a = b
    return out


class TestForcing:
    def test_resonant_rect_closed_form(self):
        p = resonant_system(0.0)
        eta = KAPPA
        tau_d = 80.0
        prot = rect_pulse(eta, tau_d)
        tgrid = TimeGrid(0.0, 0.5, 401)
        t = tgrid.times()
        inside = t <= tau_d
        expected = np.where(
            inside,
            -(eta / p.kappa) * (1.0 - np.exp(-p.kappa * t)),
            -(eta / p.kappa) * (np.exp(-p.kappa * (t - tau_d)) - np.exp(-p.kappa * t)),
        )
        got = _forcing(p, prot, tgrid, 0.0)
        np.testing.assert_allclose(got.real, expected, rtol=0, atol=1e-14 * abs(expected).max())
        assert np.abs(got.imag).max() < 1e-14

    def test_off_resonance_against_dense_quadrature(self):
        p = detuned_system(0.0, probe_offset=mhz_to_angular(3.0))
        eta = KAPPA * (0.3 + 0.8j)
        prot = DriveProtocol(((12.0, eta), (7.0, -eta)))
        from scipy.integrate import trapezoid

        wb = p.omega_bar
        got = _forcing(p, prot, TimeGrid(0.0, 0.1, 451), 0.0)
        for t_eval in (5.7, 12.0, 16.3, 45.0):
            expected = 0j
            # Quadrature segment by segment: the integrand is smooth inside
            # each drive segment, discontinuous across boundaries.
            a = 0.0
            for duration, eta_seg in prot.segments:
                b = min(a + duration, t_eval)
                if b > a:
                    tau = np.linspace(a, b, 100_001)
                    expected += trapezoid(-eta_seg * np.exp(-1j * wb * (t_eval - tau)), tau)
                a += duration
            assert got[round(t_eval / 0.1)] == pytest.approx(expected, rel=1e-9, abs=1e-13)

    def test_empty_protocol_is_zero(self):
        p = resonant_system(0.0)
        assert not _forcing(p, DriveProtocol(()), TimeGrid(0.0, DT, 201), 0.0).any()

    @pytest.mark.parametrize("probe_mhz", [0.0, 9.6])
    @pytest.mark.parametrize("n_pulses,n_steps", [
        (70, 27_301),  # the train fills the grid
        (70, 10_001),  # drive longer than the grid, cut mid-segment
        (30, 27_301),  # drive ends early, zero-drive tail
    ])
    def test_matches_per_segment_closed_form(self, probe_mhz, n_pulses, n_steps):
        p = detuned_system(0.0, probe_offset=mhz_to_angular(probe_mhz))
        prot = phase_switched_train(KAPPA, 19.5, n_pulses)
        tgrid = TimeGrid(0.0, DT, n_steps)
        expected = closed_form_forcing(p, prot, tgrid.times())
        assert rel_linf(_forcing(p, prot, tgrid, 0.0), expected) <= 1e-12

    def test_only_segments_inside_the_grid_are_checked(self):
        p = resonant_system(0.0)
        tgrid = TimeGrid(0.0, DT, 401)
        prot = DriveProtocol(((20.0, KAPPA), (19.53, -KAPPA)))
        expected = closed_form_forcing(p, prot, tgrid.times())
        assert rel_linf(_forcing(p, prot, tgrid, 0.0), expected) <= 1e-12
        with pytest.raises(ValueError, match="multiple of dt"):
            _forcing(p, prot, TimeGrid(0.0, DT, 402), 0.0)


class TestSolveBasics:
    def test_zero_coupling_equals_forcing(self, ensemble):
        p = resonant_system(0.0)
        prot = phase_switched_train(KAPPA, 20.0, 3)
        tgrid = TimeGrid(0.0, DT, 2001)
        a = solve(p, ensemble, prot, tgrid)
        expected = closed_form_forcing(p, prot, tgrid.times())
        assert np.abs(a.values - expected).max() < 1e-13 * np.abs(expected).max()

    def test_zero_coupling_solve_matches_direct(self, ensemble):
        p = detuned_system(0.0, probe_offset=mhz_to_angular(1.0))
        prot = rect_pulse(KAPPA, 30.0)
        tgrid = TimeGrid(0.0, DT, 1601)
        a = solve(p, ensemble, prot, tgrid)
        b = solve_direct(p, ensemble, prot, tgrid)
        assert np.abs(a.values - b.values).max() <= 1e-10 * np.abs(b.values).max()

    def test_initial_amplitude_free_decay(self, ensemble):
        # Omega = 0: an initial amplitude just rings down at omega_bar.
        p = detuned_system(0.0, probe_offset=mhz_to_angular(0.7))
        tgrid = TimeGrid(0.0, DT, 1001)
        a = solve(p, ensemble, DriveProtocol(()), tgrid, a0=0.4 - 0.1j)
        expected = (0.4 - 0.1j) * np.exp(-1j * p.omega_bar * tgrid.times())
        assert np.abs(a.values - expected).max() < 1e-13

    def test_causality(self, ensemble):
        p = resonant_system(8.56)
        prot = DriveProtocol(((40.0, 0.0), (40.0, KAPPA)))
        tgrid = TimeGrid(0.0, DT, 2001)
        a = solve(p, ensemble, prot, tgrid)
        t = tgrid.times()
        assert np.all(a.values[t <= 40.0] == 0.0)
        assert np.abs(a.values[t > 45.0]).max() > 0

    def test_linearity_in_drive_and_initial_state(self, ensemble):
        p = resonant_system(8.56)
        c = 0.7 - 1.3j
        prot = rect_pulse(KAPPA, 25.0)
        prot_scaled = rect_pulse(c * KAPPA, 25.0)
        tgrid = TimeGrid(0.0, DT, 1201)
        base = solve(p, ensemble, prot, tgrid, a0=0.2)
        scaled = solve(p, ensemble, prot_scaled, tgrid, a0=c * 0.2)
        assert rel_linf(scaled.values, c * base.values) < 1e-12

    def test_corrupted_inverse_trips_residual_check(self, ensemble, monkeypatch):
        from cavityspin import volterra

        exact = volterra._series_inverse
        monkeypatch.setattr(volterra, "_series_inverse",
                            lambda b, n: exact(b, n) * (1.0 + 1e-6))
        with pytest.raises(ValueError, match="residual"):
            solve(resonant_system(8.56), ensemble, rect_pulse(KAPPA, 25.0),
                  TimeGrid(0.0, DT, 1201))

    def test_duration_not_divisible_raises(self, ensemble):
        p = resonant_system(8.56)
        with pytest.raises(ValueError):
            solve(p, ensemble, rect_pulse(KAPPA, 10.03), TimeGrid(0.0, DT, 500))

    @pytest.mark.parametrize("solver", [solve, solve_direct])
    def test_segment_not_multiple_of_dt_raises(self, ensemble, solver):
        with pytest.raises(ValueError, match="multiple of dt"):
            solver(resonant_system(8.56), ensemble, phase_switched_train(KAPPA, 19.53, 3),
                   TimeGrid(0.0, DT, 2001))

    def test_direct_step_cap(self, ensemble):
        p = resonant_system(8.56)
        with pytest.raises(ValueError):
            solve_direct(p, ensemble, rect_pulse(KAPPA, 10.0), TimeGrid(0.0, DT, 4097))


class TestDiracRabiOracle:
    """Unbroadened ensemble on resonance: the memory equation reduces to
    A'' + kappa A' + Omega^2 A = 0 with A(0) = 0, A'(0) = -eta, i.e.
    A(t) = -(eta/nu) e^{-kappa t/2} sin(nu t), nu = sqrt(Omega^2 - kappa^2/4)."""

    @staticmethod
    def oracle(p, eta, t):
        nu = math.sqrt(p.Omega**2 - p.kappa**2 / 4.0)
        return -(eta / nu) * np.exp(-p.kappa * t / 2.0) * np.sin(nu * t)

    def test_solver_matches_ode_solution(self):
        p = resonant_system(10.0)
        d = DiracDeltaDensity(omega_s=OMEGA_C)
        tgrid = TimeGrid(0.0, DT, 3001)
        a = solve(p, d, rect_pulse(KAPPA, 200.0), tgrid)
        expected = self.oracle(p, KAPPA, tgrid.times())
        assert np.abs(a.values.imag).max() < 1e-12 * np.abs(a.values).max()
        assert rel_linf(a.values.real, expected) < 1e-4

    def test_direct_solver_matches_too(self):
        p = resonant_system(10.0)
        d = DiracDeltaDensity(omega_s=OMEGA_C)
        tgrid = TimeGrid(0.0, DT, 3001)
        a = solve_direct(p, d, rect_pulse(KAPPA, 200.0), tgrid)
        expected = self.oracle(p, KAPPA, tgrid.times())
        assert rel_linf(a.values.real, expected) < 1e-4

    def test_richardson_convergence_ratio(self):
        # Trapezoidal product integration is second order: halving dt
        # should cut the closed-form deviation by about 4.
        p = resonant_system(10.0)
        d = DiracDeltaDensity(omega_s=OMEGA_C)
        t_end = 100.0
        errs = []
        for dt in (0.2, 0.1, 0.05):
            n = int(round(t_end / dt)) + 1
            tgrid = TimeGrid(0.0, dt, n)
            a = solve(p, d, rect_pulse(KAPPA, 200.0), tgrid)
            expected = self.oracle(p, KAPPA, tgrid.times())
            errs.append(np.abs(a.values - expected).max())
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 < coarse / fine < 4.5


class TestSegmentedVsDirect:
    """The Toeplitz solve must reproduce the step-by-step full-history
    trapezoid rule; they are the same discretization solved two ways."""

    def run_both(self, p, density, prot, n_steps=4001):
        tgrid = TimeGrid(0.0, DT, n_steps)
        a = solve(p, density, prot, tgrid)
        b = solve_direct(p, density, prot, tgrid)
        return np.abs(a.values), np.abs(b.values)

    def test_resonant_qgaussian(self, ensemble):
        p = resonant_system(8.56)
        a, b = self.run_both(p, ensemble, rect_pulse(KAPPA, 100.0))
        assert np.abs(a - b).max() <= 1e-6 * b.max()

    def test_detuned_probe(self, ensemble):
        p = detuned_system(8.56, probe_offset=mhz_to_angular(2.4))
        a, b = self.run_both(p, ensemble, rect_pulse(KAPPA, 100.0))
        assert np.abs(a - b).max() <= 1e-6 * b.max()

    def test_pulse_train(self, ensemble):
        p = resonant_system(8.56)
        a, b = self.run_both(p, ensemble, phase_switched_train(KAPPA, 25.0, 6))
        assert np.abs(a - b).max() <= 1e-6 * b.max()

    def test_free_decay_from_photon(self, ensemble):
        p = resonant_system(8.56)
        tgrid = TimeGrid(0.0, DT, 4001)
        a = solve(p, ensemble, DriveProtocol(()), tgrid, a0=1.0)
        b = solve_direct(p, ensemble, DriveProtocol(()), tgrid, a0=1.0)
        assert np.abs(a.values - b.values).max() <= 1e-6 * np.abs(b.values).max()


class TestSteadyState:
    def test_lorentzian_closed_form(self):
        delta = mhz_to_angular(4.6)
        lor = LorentzianDensity(omega_s=OMEGA_C, delta=delta)
        p = resonant_system(9.79)
        eta = KAPPA
        a_st, j_st = steady_state(p, lor, eta=eta)
        denom = p.Omega**2 + delta * p.kappa
        assert a_st.real == pytest.approx(-eta * delta / denom, rel=1e-6)
        assert j_st.real == pytest.approx(eta * p.Omega / (2.0 * denom), rel=1e-6)
        assert abs(a_st.imag) < 1e-10 * abs(a_st)
        assert abs(j_st.imag) < 1e-10 * abs(j_st)

    def test_qgaussian_formula(self, ensemble):
        p = resonant_system(8.56)
        eta = KAPPA
        a_st, j_st = steady_state(p, ensemble, eta=eta)
        g = math.pi * p.Omega**2 * ensemble.pdf(OMEGA_C)
        assert a_st.real == pytest.approx(-eta / (p.kappa + g), rel=1e-9)
        assert j_st.real == pytest.approx(
            eta * p.Omega * math.pi * ensemble.pdf(OMEGA_C) / (2.0 * (p.kappa + g)),
            rel=1e-9,
        )

    def test_zero_coupling(self, ensemble):
        p = resonant_system(0.0)
        a_st, j_st = steady_state(p, ensemble, eta=KAPPA)
        assert a_st == pytest.approx(-1.0)
        assert j_st == 0

    def test_amplitude_shrinks_with_coupling(self, ensemble):
        mags = []
        for omega_mhz in (0.0, 1.0, 2.0, 5.0, 10.0, 25.0):
            a_st, _ = steady_state(resonant_system(omega_mhz), ensemble, eta=KAPPA)
            mags.append(abs(a_st))
        assert all(x > y for x, y in zip(mags, mags[1:]))

    def test_requires_resonance(self, ensemble):
        p = detuned_system(8.56, probe_offset=mhz_to_angular(1.0))
        with pytest.raises(ValueError):
            steady_state(p, ensemble, eta=KAPPA)

    def test_requires_line_centred_on_the_resonance(self):
        # Drive, cavity and params.omega_s agree, but the line itself sits
        # 1 MHz off: its centred value would be a silently wrong number.
        shifted = QGaussianDensity(OMEGA_C + mhz_to_angular(1.0), Q_SHAPE,
                                   delta_from_fwhm(Q_SHAPE, FWHM))
        p = resonant_system(8.56)
        with pytest.raises(ValueError, match="line center"):
            steady_state(p, shifted, eta=KAPPA)
        with pytest.raises(ValueError, match="line center"):
            decay_from_steady_state(p, shifted, TimeGrid(0.0, DT, 11), eta=KAPPA)


class TestDecayFromSteadyState:
    def test_starts_at_steady_state_and_pushes_up(self, ensemble):
        p = resonant_system(8.56)
        tgrid = TimeGrid(0.0, DT, 2001)
        a = decay_from_steady_state(p, ensemble, tgrid, eta=KAPPA)
        a_st, _ = steady_state(p, ensemble, eta=KAPPA)
        assert a.values[0] == pytest.approx(a_st, rel=1e-12)
        # The ensemble pushes back: dA/dt(0) = +eta.  Second-order
        # one-sided difference so dt^2 curvature does not pollute it.
        slope = (-3.0 * a.values[0] + 4.0 * a.values[1] - a.values[2]).real / (2.0 * DT)
        assert slope == pytest.approx(KAPPA, rel=1e-3)

    def test_zero_coupling_exponential(self, ensemble):
        p = resonant_system(0.0)
        tgrid = TimeGrid(0.0, DT, 1001)
        a = decay_from_steady_state(p, ensemble, tgrid, eta=KAPPA)
        expected = -np.exp(-p.kappa * tgrid.times())
        assert np.abs(a.values - expected).max() < 1e-12

    def test_matches_sinc_source_formulation(self, ensemble):
        # Independent discretization of the same ring-down: the stored
        # excitation re-emits through the source
        #   S(t) = A_st Omega^2 [int rho sin(x t)/x d omega - pi rho(omega_s)],
        # summed node by node, folded with e^{-kappa t} by its scalar
        # recurrence, and marched step by step with a per-lag kernel.
        # Both schemes are second order, so the gap shrinks as dt^2.
        from cavityspin.volterra import _march_full

        p = resonant_system(8.56)
        a_st, _ = steady_state(p, ensemble, eta=KAPPA)

        def gap(dt):
            tgrid = TimeGrid(0.0, dt, int(round(100.0 / dt)) + 1)
            a = decay_from_steady_state(p, ensemble, tgrid, eta=KAPPA)
            grid = grid_for_density(ensemble, t_max=tgrid.t_end)
            t = tgrid.times()
            x = grid.omegas - OMEGA_C
            mass = ensemble.pdf(grid.omegas) * grid.weights
            source = np.concatenate([(tb[:, None] * np.sinc(x * tb[:, None] / math.pi)) @ mass
                                     for tb in np.array_split(t, 16)])
            source = a_st * p.Omega**2 * (source - math.pi * ensemble.pdf(OMEGA_C))
            step = math.exp(-p.kappa * dt)
            fold = np.zeros(len(t), dtype=complex)
            for j in range(1, len(t)):
                fold[j] = step * fold[j - 1] + 0.5 * dt * (step * source[j - 1] + source[j])
            k = kernel_K(p, ensemble, t, grid=grid)
            ref = _march_full(k, a_st * np.exp(-p.kappa * t) + fold, dt)
            return rel_linf(a.values, ref)

        coarse, fine = gap(0.05), gap(0.025)
        assert coarse <= 1e-6
        assert 3.5 <= coarse / fine <= 4.5

    def test_lorentzian_matches_closed_form(self):
        delta = mhz_to_angular(4.6)
        lor = LorentzianDensity(omega_s=OMEGA_C, delta=delta)
        p = resonant_system(9.79)
        tgrid = TimeGrid(0.0, DT, 8001)
        a = decay_from_steady_state(p, lor, tgrid, eta=KAPPA)
        lp = LorentzParams(Omega=p.Omega, Delta=delta, kappa=p.kappa,
                           eta=KAPPA, tau_d=0.0)
        expected = cavity_off(lp, tgrid.times())
        assert np.abs(a.values.real - expected).max() < 1e-3 * np.abs(expected).max()
        assert np.abs(a.abs2() - expected**2).max() < 1e-3 * (expected**2).max()


class TestCollectiveSpin:
    def test_zero_cavity_gives_zero_spin(self, ensemble):
        p = resonant_system(8.56)
        tgrid = TimeGrid(0.0, DT, 501)
        from cavityspin import ComplexSeries

        j = collective_spin(p, ensemble, ComplexSeries(tgrid, np.zeros(501)))
        assert np.all(j.values == 0)

    def test_jy_vanishes_at_resonance(self, ensemble):
        p = resonant_system(8.56)
        tgrid = TimeGrid(0.0, DT, 3001)
        a = solve(p, ensemble, rect_pulse(KAPPA, 150.0), tgrid)
        j = collective_spin(p, ensemble, a)
        assert np.abs(j.values.imag).max() < 1e-8 * np.abs(j.values).max()

    def test_matches_brute_force_quadrature(self, ensemble):
        p = detuned_system(8.56, probe_offset=mhz_to_angular(2.0))
        tgrid = TimeGrid(0.0, DT, 201)
        a = solve(p, ensemble, rect_pulse(KAPPA, 10.0), tgrid)
        grid = grid_for_density(ensemble, t_max=tgrid.t_end)
        j = collective_spin(p, ensemble, a, grid=grid)

        mass = ensemble.pdf(grid.omegas) * grid.weights
        nu = grid.omegas - p.omega_p
        t = tgrid.times()
        expected = np.zeros(len(t), dtype=complex)
        for idx in range(1, len(t)):
            tau = t[: idx + 1]
            w = np.full(idx + 1, DT)
            w[0] = w[-1] = DT / 2.0
            phases = np.exp(-1j * np.outer(nu, t[idx] - tau))
            inner = phases @ (w * a.values[: idx + 1])
            expected[idx] = -(p.Omega / 2.0) * (mass @ inner)
        assert rel_linf(j.values[1:], expected[1:]) < 1e-10

    def test_matches_per_step_recurrence(self, ensemble):
        # The per-step recurrence the convolution replaced: one phase
        # accumulator per frequency node, advanced step by step.
        p = detuned_system(8.56, probe_offset=mhz_to_angular(2.0))
        tgrid = TimeGrid(0.0, DT, 4001)
        a = solve(p, ensemble, phase_switched_train(KAPPA, 25.0, 6), tgrid)
        grid = grid_for_density(ensemble, t_max=tgrid.t_end)
        j = collective_spin(p, ensemble, a, grid=grid)

        mass = ensemble.pdf(grid.omegas) * grid.weights
        step = np.exp(-1j * (grid.omegas - p.omega_p) * DT)
        phi = np.zeros(grid.n, dtype=complex)
        ref = np.zeros(len(a), dtype=complex)
        for n in range(1, len(a)):
            phi = step * phi + 0.5 * DT * (step * a.values[n - 1] + a.values[n])
            ref[n] = mass @ phi
        ref *= -p.Omega / 2.0
        assert rel_linf(j.values, ref) <= 1e-12


class TestSpinModeAmplitude:
    # A single spin mode omega_k coupled at g_k is the collective spin of
    # a Dirac line at omega_k with Omega = 2 g_k.
    def test_constant_amplitude_linear_growth(self):
        from cavityspin import ComplexSeries

        p = resonant_system(8.56)
        tgrid = TimeGrid(0.0, DT, 801)
        a0 = 0.3 - 0.4j
        a = ComplexSeries(tgrid, np.full(801, a0))
        b = collective_spin(replace(p, Omega=2 * 2e-4), DiracDeltaDensity(p.omega_p), a)
        t = tgrid.times()
        expected = -2e-4 * a0 * t
        assert np.abs(b.values - expected).max() < 1e-12

    def test_detuned_mode_closed_form(self):
        import cavityspin

        p = resonant_system(0.0)
        tgrid = TimeGrid(0.0, 0.01, 2001)
        a0 = 1.0 + 0j
        a = cavityspin.ComplexSeries(tgrid, np.full(2001, a0))
        mu = mhz_to_angular(5.0)
        b = collective_spin(replace(p, Omega=2 * 1e-3), DiracDeltaDensity(OMEGA_C + mu), a)
        z = 1j * mu
        expected = -1e-3 * a0 * (1.0 - np.exp(-z * tgrid.times())) / z
        assert np.abs(b.values - expected).max() < 1e-6 * np.abs(expected).max()
