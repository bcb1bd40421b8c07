"""Resolvent-inversion tests: poles, branch cut, and decay-rate estimators.

The closed-form free decay for a Lorentzian line is re-derived locally and
used as an oracle; pole locations are re-verified with an independent
quadrature of the fixed-point equations written in this file. The same
adaptive-quadrature oracles check the node-sum pole map and pole weights.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from cavityspin import (
    ComplexSeries,
    DriveProtocol,
    LorentzianDensity,
    TimeGrid,
    grid_for_density,
    lamb_shift,
    mhz_to_angular,
)
from cavityspin import laplace, spectral, volterra

from conftest import KAPPA, OMEGA_C, resonant_system

DT = 0.05

# Boundary of the single-pole regime: the weak-coupling root sits at
# sigma = -(kappa - pi*Omega^2*rho(omega_s)) and is swallowed by the cut
# when the ensemble absorption at line center reaches kappa.
def single_pole_boundary(density):
    return math.sqrt(KAPPA / (math.pi * density.pdf(OMEGA_C)))


def lorentz_free_decay(t, Omega, Delta, kappa):
    """Closed-form A(t) for one photon decaying into a Lorentzian line.

    Both resolvent poles survive analytic continuation through the
    (full-line) cut; partial fractions give
    A = [(l1 + Delta) e^{l1 t} - (l2 + Delta) e^{l2 t}] / (l1 - l2).
    """
    disc = complex((Delta - kappa) ** 2 - 4.0 * Omega**2)
    root = np.sqrt(disc)
    l1 = (-(Delta + kappa) + root) / 2.0
    l2 = (-(Delta + kappa) - root) / 2.0
    t = np.asarray(t, dtype=float)
    return ((l1 + Delta) * np.exp(l1 * t) - (l2 + Delta) * np.exp(l2 * t)) / (l1 - l2)


def twin_or(ensemble, kind):
    """The canonical q-Gaussian, or its train-compare Lorentzian twin."""
    if kind == "qgauss":
        return ensemble
    return LorentzianDensity(omega_s=OMEGA_C, delta=mhz_to_angular(4.598))


def fixed_point_residual(params, density, pole):
    """Independent quadrature of the two pole equations at a solution."""
    lo, hi = density.support
    s2 = pole.sigma**2

    def den(w):
        x = pole.omega + w
        return s2 + x * x

    pts = [p for p in (-pole.omega,) if lo < p < hi]
    kw = dict(points=pts or None, limit=500, epsabs=1e-12, epsrel=1e-11)
    i2 = quad(lambda w: density.pdf(w) / den(w), lo, hi, **kw)[0]
    i1 = quad(lambda w: density.pdf(w) * (pole.omega + w) / den(w), lo, hi, **kw)[0]
    om2 = params.Omega**2
    sig_fix = -params.kappa / (1.0 + om2 * i2)
    om_fix = -params.omega_c + om2 * i1
    return max(
        abs(sig_fix - pole.sigma) / params.kappa,
        abs(om_fix - pole.omega) / max(params.omega_c, 1.0),
    )


def _quad_kwargs(density, sigma, omega_j):
    # The integrands carry a spike of half-width |sigma| at -omega_j;
    # adaptive subdivision finds it when told where to look.
    lo, hi = density.support
    pts = [-omega_j + f * abs(sigma) for f in (-50.0, -5.0, 0.0, 5.0, 50.0)]
    pts = [p for p in pts if lo < p < hi]
    return dict(points=pts or None, limit=500, epsabs=1e-13, epsrel=1e-12)


def quad_pole_map(params, density, sigma, omega_j):
    """The two fixed-point updates by adaptive quadrature over the support."""
    lo, hi = density.support
    s2 = sigma**2
    kw = _quad_kwargs(density, sigma, omega_j)

    def den(w):
        x = omega_j + w
        return s2 + x * x

    with warnings.catch_warnings():
        # quad reports round-off once the spike is far below its scale.
        warnings.simplefilter("ignore", IntegrationWarning)
        i2 = quad(lambda w: density.pdf(w) / den(w), lo, hi, **kw)[0]
        i1 = quad(lambda w: density.pdf(w) * (omega_j + w) / den(w), lo, hi, **kw)[0]
    om2 = params.Omega**2
    return -params.kappa / (1.0 + om2 * i2), -params.omega_c + om2 * i1


def quad_residue(params, density, sigma, omega_j):
    """1/D'(s) with D' = 1 - Omega^2 Integral rho / (sigma + i x)^2."""
    lo, hi = density.support
    s2 = sigma**2
    kw = _quad_kwargs(density, sigma, omega_j)

    # 1/(sigma + i x)^2 = (sigma^2 - x^2 - 2 i sigma x) / (sigma^2 + x^2)^2
    def j1(w):
        x = omega_j + w
        return density.pdf(w) * (s2 - x * x) / (s2 + x * x) ** 2

    def j2(w):
        x = omega_j + w
        return density.pdf(w) * x / (s2 + x * x) ** 2

    with warnings.catch_warnings():
        # j2 is odd about a pole on the line centre and integrates to ~0.
        warnings.simplefilter("ignore", IntegrationWarning)
        v1 = quad(j1, lo, hi, **kw)[0]
        v2 = quad(j2, lo, hi, **kw)[0]
    return 1.0 / (1.0 - params.Omega**2 * complex(v1, -2.0 * sigma * v2))


class TestPoleRegimes:
    def test_uncoupled_pole_is_bare_cavity(self, ensemble):
        p = resonant_system(0.0)
        poles = laplace.find_poles(p, ensemble)
        assert len(poles) == 1
        assert poles[0].sigma == pytest.approx(-KAPPA, rel=1e-10)
        assert poles[0].omega == pytest.approx(-OMEGA_C, rel=1e-12)
        assert poles[0].residue == pytest.approx(1.0 + 0.0j, abs=1e-10)

    def test_weak_coupling_single_pole_value(self, ensemble):
        p = resonant_system(1.0)
        poles = laplace.find_poles(p, ensemble)
        assert len(poles) == 1
        pole = poles[0]
        # Leading-order root of the sigma equation; Lorentzian smearing
        # of the line center corrects it at first order in |sigma|/Delta
        # (about 6% here), hence the loose tolerance.
        expected = -(KAPPA - math.pi * p.Omega**2 * ensemble.pdf(OMEGA_C))
        assert pole.sigma == pytest.approx(expected, rel=1e-1)
        assert pole.omega == pytest.approx(-OMEGA_C, abs=1e-9)
        assert -KAPPA < pole.sigma < 0

    def test_single_pole_regime_boundary(self, ensemble):
        # The derived boundary sits at 1.68 MHz (the posted value is
        # "about 1.7"); bracketing at +-5% pins it far tighter than the
        # quoted +-20%.
        omega_b = single_pole_boundary(ensemble)
        base = resonant_system(0.0)
        p_lo = replace(base, Omega=0.95 * omega_b)
        p_hi = replace(base, Omega=1.05 * omega_b)
        assert len(laplace.find_poles(p_lo, ensemble)) == 1
        assert len(laplace.find_poles(p_hi, ensemble)) == 0
        assert abs(omega_b - mhz_to_angular(1.7)) < 0.2 * mhz_to_angular(1.7)

    def test_intermediate_regime_has_no_poles(self, ensemble):
        assert laplace.find_poles(resonant_system(8.56), ensemble) == []
        assert laplace.find_poles(resonant_system(15.0), ensemble) == []

    def test_strong_coupling_symmetric_pair(self, ensemble):
        p = resonant_system(25.0)
        poles = laplace.find_poles(p, ensemble)
        assert len(poles) == 2
        a, b = poles
        assert a.sigma == pytest.approx(b.sigma, rel=1e-8)
        assert a.omega + b.omega == pytest.approx(-2 * OMEGA_C, abs=1e-8)
        # Protected pair: strictly inside the bare-cavity rate.
        assert -KAPPA < a.sigma < -0.05 * KAPPA
        split = abs(a.omega + OMEGA_C)
        assert 0.8 * p.Omega < split < 1.2 * p.Omega
        # Each polariton carries about half the photon weight.
        assert a.residue == pytest.approx(np.conj(b.residue), rel=1e-6)
        assert abs(a.residue) == pytest.approx(0.5, rel=0.2)

    @pytest.mark.parametrize("kind, omega_mhz", [
        ("qgauss", 22.25), ("qgauss", 25.0), ("qgauss", 30.0), ("lorentz", 1.3)])
    def test_lower_polariton_start_follows_the_mirror_image(self, ensemble, kind, omega_mhz):
        # find_poles runs only the +Omega start and mirrors its root about
        # -omega_c; here the -Omega start runs for real and must land on
        # that image.
        density = twin_or(ensemble, kind)
        p = resonant_system(omega_mhz)
        grid = grid_for_density(density)
        rho = density.pdf(grid.omegas)
        upper = laplace._solve_pole(p, density, -KAPPA / 10.0, -OMEGA_C + p.Omega, grid, rho)
        lower = laplace._solve_pole(p, density, -KAPPA / 10.0, -OMEGA_C - p.Omega, grid, rho)
        assert upper is not None and lower is not None
        assert lower[0] == pytest.approx(upper[0], rel=1e-12)
        assert lower[1] + upper[1] == pytest.approx(-2.0 * OMEGA_C, abs=1e-12)
        # And find_poles returns exactly the +Omega root and its image: a
        # pair on the q-Gaussian, and on the Lorentzian at 1.3 MHz one
        # root on the axis, which is its own image.
        sigma, omega, resid = upper
        image = -2.0 * OMEGA_C - omega
        omegas = sorted([omega, image]) if kind == "qgauss" else [omega]
        poles = laplace.find_poles(p, density)
        assert [(q.sigma, q.omega, q.residual) for q in poles] == [
            (sigma, w, resid) for w in omegas]

    @pytest.mark.parametrize("kind, omega_mhz", [
        ("qgauss", 0.5), ("qgauss", 1.0), ("qgauss", 1.3), ("qgauss", 22.25),
        ("qgauss", 25.0), ("qgauss", 30.0),
        ("lorentz", 0.5), ("lorentz", 1.3), ("lorentz", 1.8)])
    def test_bare_cavity_start_finds_no_other_pole(self, ensemble, kind, omega_mhz):
        # find_poles no longer starts at the bare cavity (-kappa, -omega_c);
        # where that start converges, its root is one find_poles returns.
        density = twin_or(ensemble, kind)
        p = resonant_system(omega_mhz)
        grid = grid_for_density(density)
        rho = density.pdf(grid.omegas)
        bare = laplace._solve_pole(p, density, -KAPPA, -OMEGA_C, grid, rho)
        assert bare is not None
        poles = laplace.find_poles(p, density)
        assert any(abs(q.sigma - bare[0]) <= 1e-8 * abs(bare[0])
                   and abs(q.omega - bare[1]) <= 1e-12 for q in poles)

    # The two stretches where the search is known to miss real poles
    # (19.3-20.2 MHz on the q-Gaussian, 1.85-1.95 MHz on the twin) are
    # left out; the Nyquist census is to settle them.
    @pytest.mark.parametrize("kind, omega_mhz, n_poles", [
        *[("qgauss", w, 1) for w in (0.0, 0.5, 1.0, 1.3, 1.6)],
        *[("qgauss", w, 0) for w in (1.7, 2.0, 2.1, 4.0, 8.56, 15.0, 19.0)],
        *[("qgauss", w, 2) for w in (20.5, 22.25, 25.0, 30.0)],
        *[("lorentz", w, 1) for w in (0.0, 0.5, 1.0, 1.3, 1.6, 1.8)],
        *[("lorentz", w, 0) for w in (2.0, 4.0, 8.56, 25.0, 30.0)]])
    def test_pole_count(self, ensemble, kind, omega_mhz, n_poles):
        assert len(laplace.find_poles(resonant_system(omega_mhz), twin_or(ensemble, kind))) \
            == n_poles

    def test_pole_equations_verified_independently(self, ensemble):
        for omega_mhz in (1.0, 25.0):
            p = resonant_system(omega_mhz)
            for pole in laplace.find_poles(p, ensemble):
                assert pole.residual < 1e-10
                assert fixed_point_residual(p, ensemble, pole) < 1e-9

    def test_requires_resonance_and_broadening(self, ensemble):
        from cavityspin import DiracDeltaDensity, SystemParams

        detuned = SystemParams(
            omega_c=OMEGA_C,
            omega_s=OMEGA_C,
            omega_p=OMEGA_C + mhz_to_angular(2.0),
            kappa=KAPPA,
            Omega=mhz_to_angular(8.56),
        )
        with pytest.raises(ValueError, match="resonant"):
            laplace.find_poles(detuned, ensemble)
        with pytest.raises(ValueError, match="delta density"):
            laplace.find_poles(resonant_system(8.56), DiracDeltaDensity(OMEGA_C))


class TestNodeSumsAgainstQuad:
    """The quadrature-free pole map and pole weights against quad."""

    SIGMAS = (-1e-2, -1e-3, -3e-4, -1e-4, -1e-5, -1e-6)

    @pytest.mark.parametrize("kind", ["qgauss", "lorentz"])
    @pytest.mark.parametrize("omega_mhz", [1.3, 20.0])
    def test_pole_map_matches_quadrature(self, ensemble, kind, omega_mhz):
        density = ensemble if kind == "qgauss" else LorentzianDensity(
            omega_s=OMEGA_C, delta=mhz_to_angular(4.598))
        grid = grid_for_density(density)
        assert grid.n == (8015 if kind == "qgauss" else 40001)
        rho = density.pdf(grid.omegas)
        p = resonant_system(omega_mhz)
        # Spike at the centre node, between two nodes, and at +-Omega.
        centres = (OMEGA_C, OMEGA_C + 0.37 * grid.d_omega,
                   OMEGA_C + p.Omega, OMEGA_C - p.Omega)
        worst = 0.0
        for sigma in self.SIGMAS:
            for w0 in centres:
                got = laplace._pole_map(p, density, sigma, -w0, grid, rho)
                ref = quad_pole_map(p, density, sigma, -w0)
                worst = max(worst, abs(got[0] - ref[0]) / p.kappa,
                            abs(got[1] - ref[1]) / max(p.omega_c, 1.0))
        assert worst < 1e-9

    @pytest.mark.parametrize("omega_mhz, n_poles",
                             [(1.0, 1), (1.3, 1), (1.6, 1), (25.0, 2)])
    def test_residue_weight_matches_quadrature(self, ensemble, omega_mhz, n_poles):
        p = resonant_system(omega_mhz)
        poles = laplace.find_poles(p, ensemble)
        assert len(poles) == n_poles
        for pole in poles:
            got = laplace.residue_weight(p, ensemble, pole.sigma, pole.omega)
            assert got == pole.residue
            ref = quad_residue(p, ensemble, pole.sigma, pole.omega)
            assert abs(got - ref) < 1e-9 * abs(ref)


def masked_remainder(density, grid, rho, w0):
    """Taylor remainder with every node within 1e-6 spacings of w0 zeroed."""
    x = grid.omegas - w0
    h = grid.d_omega
    r1 = density.pdf_derivative(w0)
    r2 = 0.5 * (density.pdf_derivative(w0 + 0.5 * h)
                - density.pdf_derivative(w0 - 0.5 * h)) / h
    rem = rho - density.pdf(w0) - x * (r1 + r2 * x)
    rem[np.abs(x) < 1e-6 * h] = 0.0
    return rem


class TestTaylorRemainder:
    @pytest.mark.parametrize("where, zeroed", [
        ("centre node", True), ("polariton node", True),
        ("1e-7 spacings above a node", True), ("1e-7 spacings below a node", True),
        ("halfway between nodes", False)])
    def test_nearest_node_zeroing_matches_the_whole_grid_mask(self, ensemble, where, zeroed):
        grid = grid_for_density(ensemble)
        rho = ensemble.pdf(grid.omegas)
        h = grid.d_omega
        k = grid.n_half + round(resonant_system(25.0).Omega / h)
        w0 = {"centre node": grid.omegas[grid.n_half],
              "polariton node": grid.omegas[k],
              "1e-7 spacings above a node": grid.omegas[k] + 1e-7 * h,
              "1e-7 spacings below a node": grid.omegas[k] - 1e-7 * h,
              "halfway between nodes": grid.omegas[k] + 0.5 * h}[where]
        x, rem, taylor = laplace._taylor_remainder(ensemble, grid, rho, w0)
        expected = masked_remainder(ensemble, grid, rho, w0)
        assert np.array_equal(rem, expected)
        assert np.count_nonzero(rem == 0.0) == (1 if zeroed else 0)
        assert taylor is not None

    def test_outside_the_grid_the_remainder_is_rho(self, ensemble):
        grid = grid_for_density(ensemble)
        rho = ensemble.pdf(grid.omegas)
        w0 = grid.omegas[-1] + grid.d_omega
        x, rem, taylor = laplace._taylor_remainder(ensemble, grid, rho, w0)
        assert rem is rho and taylor is None
        assert np.array_equal(x, grid.omegas - w0)


class TestTypes:
    def test_pole_must_decay(self):
        with pytest.raises(ValueError, match="decay"):
            laplace.PoleSolution(sigma=1e-3, omega=-OMEGA_C, residue=1.0, residual=0.0)

    def test_estimate_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            laplace.DecayRateEstimate(gamma=-1.0, note="weak coupling")
        est = laplace.DecayRateEstimate(gamma=0.0, note="no decay")
        assert est.gamma == 0.0


class TestKernelU:
    def test_uncoupled_peak_at_cavity_with_kappa_width(self, ensemble):
        p = resonant_system(0.0)
        x = np.linspace(-5 * KAPPA, 5 * KAPPA, 2001)
        u = laplace.kernel_U(p, ensemble, OMEGA_C + x)
        peak = np.argmax(u)
        assert abs(x[peak]) <= x[1] - x[0]
        # Half-max points of rho/((w-w_c)^2 + kappa^2) sit at +-kappa.
        half = u > 0.5 * u[peak]
        width = x[half][-1] - x[half][0]
        assert width == pytest.approx(2 * KAPPA, rel=5e-2)

    def test_strong_coupling_polariton_doublet(self, ensemble):
        p = resonant_system(25.0)
        grid = grid_for_density(ensemble)
        win = np.abs(grid.omegas - OMEGA_C) < 2.0 * p.Omega
        om = grid.omegas[win]
        u = laplace.kernel_U(p, ensemble, om)
        interior = (u[1:-1] > u[:-2]) & (u[1:-1] >= u[2:])
        idx = np.nonzero(interior)[0] + 1
        idx = idx[u[idx] > 0.1 * u.max()]
        assert len(idx) == 2
        for sign, w_r in zip((-1, 1), np.sort(om[idx])):
            assert w_r == pytest.approx(OMEGA_C + sign * p.Omega, abs=0.15 * p.Omega)
            # Peak condition: dressed detuning crosses zero there.
            m = w_r - OMEGA_C - p.Omega**2 * lamb_shift(ensemble, grid, w_r)
            assert abs(m) < 3 * grid.d_omega

    def test_scalar_matches_array(self, ensemble):
        p = resonant_system(8.56)
        w = OMEGA_C + 0.3 * p.Omega
        scalar = laplace.kernel_U(p, ensemble, w)
        arr = laplace.kernel_U(p, ensemble, np.array([w]))
        assert scalar == arr[0]
        assert isinstance(scalar, float)


class TestSumRuleAndReading:
    """The t = 0 weight closure, and the discrimination between the two
    readings of the printed cut kernel (complex (M + i*kappa)^2 + G^2
    versus all-real M^2 + (kappa + G)^2)."""

    @pytest.fixture(autouse=True)
    def _setup(self, ensemble):
        self.ensemble = ensemble

    def _readings(self, omega_mhz):
        p = resonant_system(omega_mhz)
        grid = grid_for_density(self.ensemble)
        om = grid.omegas[1:-1]
        w = grid.weights[1:-1]
        rho = self.ensemble.pdf(om)
        delta = lamb_shift(self.ensemble, grid, om)
        m = om - OMEGA_C - p.Omega**2 * delta
        g = math.pi * p.Omega**2 * rho
        u_complex = rho / ((m + 1j * KAPPA) ** 2 + g**2)
        u_real = rho / (m**2 + (KAPPA + g) ** 2)
        poles = laplace.find_poles(p, self.ensemble)
        pole_sum = sum(q.residue for q in poles)
        cut_c = p.Omega**2 * np.sum(w * u_complex)
        cut_r = p.Omega**2 * np.sum(w * u_real)
        return pole_sum + cut_c, pole_sum + cut_r

    def test_complex_reading_closes_in_every_regime(self):
        for omega_mhz in (1.0, 8.56, 25.0):
            total, _ = self._readings(omega_mhz)
            assert abs(total - 1.0) < 1e-3, omega_mhz

    def test_real_reading_fails_closure(self):
        _, total_real = self._readings(8.56)
        assert abs(total_real - 1.0) > 0.1

    def test_kernel_u_is_modulus_of_complex_reading(self):
        p = resonant_system(8.56)
        grid = grid_for_density(self.ensemble)
        om = grid.omegas[2000:2010]
        rho = self.ensemble.pdf(om)
        delta = np.asarray(lamb_shift(self.ensemble, grid, om))
        m = om - OMEGA_C - p.Omega**2 * delta
        g = math.pi * p.Omega**2 * rho
        expected = np.abs(rho / ((m + 1j * KAPPA) ** 2 + g**2))
        got = laplace.kernel_U(p, self.ensemble, om)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestInvert:
    def test_uncoupled_decay_is_exponential(self, ensemble):
        p = resonant_system(0.0)
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=2001)
        series = laplace.invert(p, ensemble, tgrid)
        expected = np.exp(-KAPPA * tgrid.times())
        assert np.max(np.abs(series.values - expected)) < 1e-6

    def test_matches_volterra_intermediate_coupling(self, ensemble):
        # Pole-free regime: the branch cut alone must carry the full
        # Rabi-oscillating decay. About three decay times of the
        # equivalent-Lorentzian rate fit in 200 ns.
        p = resonant_system(8.56)
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=4001)
        inv = laplace.invert(p, ensemble, tgrid)
        ref = volterra.solve(p, ensemble, DriveProtocol(()), tgrid, a0=1.0)
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(inv.values - ref.values)) < 1e-3 * scale
        # Resonant symmetric decay stays real.
        assert np.max(np.abs(inv.values.imag)) < 1e-6 * scale

    def test_matches_volterra_strong_coupling(self, ensemble):
        p = resonant_system(25.0)
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=2001)
        inv = laplace.invert(p, ensemble, tgrid)
        ref = volterra.solve(p, ensemble, DriveProtocol(()), tgrid, a0=1.0)
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(inv.values - ref.values)) < 1e-3 * scale

    def test_lorentz_closed_form_against_volterra(self):
        # Validates the local analytic oracle (used below for time fits)
        # against the time-domain solver on an actual Lorentzian line.
        delta = mhz_to_angular(4.598)
        p = resonant_system(9.786)
        density = LorentzianDensity(omega_s=OMEGA_C, delta=delta)
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=2401)
        ref = volterra.solve(p, density, DriveProtocol(()), tgrid, a0=1.0)
        oracle = lorentz_free_decay(tgrid.times(), p.Omega, delta, KAPPA)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(ref.values - oracle)) < 1e-3 * scale

    def test_cut_sum_matches_dense_phase_matrix(self, ensemble):
        # The chirp-z cut sum against the time x frequency phase matrix.
        p = resonant_system(25.0)
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=401)
        grid = laplace._cut_grid(p, ensemble, tgrid.t_end)
        shift = spectral.lamb_shift_nodes(ensemble, grid)
        wu = p.Omega**2 * grid.weights * laplace._cut_kernel(p, ensemble, grid.omegas, shift)
        dense = np.exp(-1j * np.outer(tgrid.times(), grid.omegas - p.omega_p)) @ wu
        got = laplace.invert(p, ensemble, tgrid, poles=[]).values
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_closure_miss_warns_only_with_own_poles(self, ensemble):
        # Just past the pair's birth the pole search returns no pole, and
        # the t = 0 sum rule misses by 0.96: invert says so.
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=2)
        with pytest.warns(RuntimeWarning, match=r"coupling 20 MHz: \|A\(0\) - 1\| = 0\.96"):
            laplace.invert(resonant_system(20.0), ensemble, tgrid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for omega_mhz in (8.56, 25.0):
                laplace.invert(resonant_system(omega_mhz), ensemble, tgrid)
            # Poles left out on purpose: the caller owns the closure.
            laplace.invert(resonant_system(25.0), ensemble, tgrid, poles=[])

    def test_free_decay_must_start_at_zero(self, ensemble):
        p = resonant_system(8.56)
        with pytest.raises(ValueError, match="t = 0"):
            laplace.invert(p, ensemble, TimeGrid(t_start=5.0, dt=DT, n_steps=10))


class TestTimeFit:
    def test_pure_exponential_window_fit(self):
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=20001)
        t = tgrid.times()
        series = ComplexSeries(grid=tgrid, values=np.exp(-KAPPA * t))
        est = laplace.decay_rate_timefit(series)
        assert est.gamma == pytest.approx(2 * KAPPA, rel=1e-3)
        # No node, no interior maximum: the window path.
        assert len(laplace.intensity_peaks(series.abs2())) == 0
        assert "window" in est.note

    def test_damped_oscillation_peak_fit(self):
        gamma, nu = 0.02, 2 * math.pi / 20.0
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=12001)
        t = tgrid.times()
        # The fit must not depend on the trace's scale: a ring-down from a
        # small steady state starts far below |A(0)|^2 = 1.
        for scale in (1.0, 1e-7):
            values = scale * np.exp(-gamma * t / 2) * np.cos(nu * t)
            est = laplace.decay_rate_timefit(ComplexSeries(grid=tgrid, values=values))
            assert "peaks" in est.note
            assert est.gamma == pytest.approx(gamma, rel=1e-2)

    @pytest.mark.parametrize("t_end, n_peaks", [(40.0, 1), (70.0, 2)])
    def test_few_peak_revival_envelope_fit(self, t_end, n_peaks):
        # A slowly damped cosine cut off after one or two revivals: too few
        # peaks for the peak-sequence fit, and the [1e-6, 1e-1] window
        # would end at the first zero of A and read the plunge into it.
        gamma, nu = 0.005, 2 * math.pi / 60.0
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=int(round(t_end / DT)) + 1)
        t = tgrid.times()
        series = ComplexSeries(grid=tgrid, values=np.exp(-gamma * t / 2) * np.cos(nu * t))
        est = laplace.decay_rate_timefit(series)
        assert len(laplace.intensity_peaks(series.abs2())) == n_peaks
        assert "envelope" in est.note
        assert est.gamma == pytest.approx(gamma, rel=2e-2)

    def test_lorentzian_line_rate(self):
        # Posted example: the broadened single-photon decay rate for a
        # Lorentzian line is Delta + kappa, independent of coupling.
        delta = mhz_to_angular(4.598)
        omega = mhz_to_angular(9.786)
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=6001)
        vals = lorentz_free_decay(tgrid.times(), omega, delta, KAPPA)
        est = laplace.decay_rate_timefit(ComplexSeries(grid=tgrid, values=vals))
        assert est.gamma == pytest.approx(delta + KAPPA, rel=2e-2)

    def test_rejects_non_decaying_trace(self):
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=500)
        flat = ComplexSeries(grid=tgrid, values=np.ones(500, dtype=complex))
        with pytest.raises(ValueError):
            laplace.decay_rate_timefit(flat)

    def test_rejects_truncated_trace(self):
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=40)
        vals = np.exp(-KAPPA * tgrid.times())
        with pytest.raises(ValueError):
            laplace.decay_rate_timefit(ComplexSeries(grid=tgrid, values=vals))

    def test_rejects_trace_starting_at_zero(self):
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=500)
        vals = np.sin(KAPPA * tgrid.times())
        with pytest.raises(ValueError, match="starts at zero intensity"):
            laplace.decay_rate_timefit(ComplexSeries(grid=tgrid, values=vals))

    def test_rejects_window_of_fewer_than_8_samples(self):
        # |A|^2 = exp(-2t) falls from 1e-1 to 1e-6 between t = 1.2 and 6.9:
        # five samples at dt = 1.
        tgrid = TimeGrid(t_start=0.0, dt=1.0, n_steps=20)
        vals = np.exp(-tgrid.times())
        with pytest.raises(ValueError, match="only 5 samples inside the fit window"):
            laplace.decay_rate_timefit(ComplexSeries(grid=tgrid, values=vals))

    def test_rejects_growing_oscillation(self):
        # Three peaks within three decades of the strongest, rising.
        tgrid = TimeGrid(t_start=0.0, dt=DT, n_steps=2001)
        t = tgrid.times()
        vals = np.exp(0.01 * t) * np.cos(2 * math.pi * t / 20.0)
        with pytest.raises(ValueError, match="does not decay"):
            laplace.decay_rate_timefit(ComplexSeries(grid=tgrid, values=vals))


class TestEnvelopeFloor:
    """The three-decade rule that gamma-sweep grows its free-decay
    windows by, on synthetic amplitudes over t in [0, 1]."""

    T = np.linspace(0.0, 1.0, 2001)

    def test_smooth_decay_below_the_floor(self):
        # A plain bool, so that manifests hold it as JSON true or false.
        assert laplace.envelope_floor_reached(np.exp(-10.0 * self.T)) is True

    def test_decay_short_of_three_decades(self):
        assert laplace.envelope_floor_reached(np.exp(-2.0 * self.T)) is False

    @pytest.mark.parametrize("revival, reached", [(0.3, False), (0.01, True)])
    def test_trace_ending_inside_a_node_reads_its_last_peak(self, revival, reached):
        # A plunge through a node, one revival of amplitude ``revival``
        # at t = 0.5, and a node again at the end: the last tenth alone is
        # below the floor, so only the peak before it can tell.
        a2 = (np.exp(-30.0 * self.T) - revival * np.sin(np.pi * self.T) ** 3) ** 2
        assert a2[int(0.9 * len(a2)):].max() < 1e-3
        assert len(laplace.intensity_peaks(a2)) == 1
        assert laplace.envelope_floor_reached(a2) == reached

    def test_trace_past_a_node_without_a_peak_has_not_reached_it(self):
        # Through a node at t = 0.9 and rising toward a revival it has not
        # reached; the last tenth is 15 decades down.
        a2 = (np.exp(-20.0 * self.T) - math.exp(-18.0)) ** 2
        assert a2[int(0.9 * len(a2)):].max() < 1e-15
        assert len(laplace.intensity_peaks(a2)) == 0
        assert not laplace.envelope_floor_reached(a2)


def lorentz_rates_oracle(Omega, Delta, kappa):
    """The textbook Lorentzian rates Delta + kappa -+ sqrt(disc), disc =
    (Delta-kappa)^2 - 4 Omega^2, as (gamma, note) pairs: both real
    branches while disc >= 0, else one rate with Rabi frequency
    sqrt(-disc). Written out here so the estimator, which reads the
    characteristic roots, is checked against a separate derivation."""
    disc = (Delta - kappa) ** 2 - 4.0 * Omega**2
    base = Delta + kappa
    if disc >= 0:
        root = math.sqrt(disc)
        return [(base - root, "overdamped, slow"), (base + root, "overdamped, fast")]
    return [(base, f"underdamped, Rabi {math.sqrt(-disc):g} rad/ns")]


class TestFormulaEstimators:
    def test_markov_uncoupled_and_quadratic_scaling(self, ensemble):
        assert laplace.gamma_markov(resonant_system(0.0), ensemble).gamma == pytest.approx(
            2 * KAPPA, rel=1e-14
        )
        g1 = laplace.gamma_markov(resonant_system(5.0), ensemble).gamma
        g2 = laplace.gamma_markov(resonant_system(10.0), ensemble).gamma
        assert g2 - 2 * KAPPA == pytest.approx(4 * (g1 - 2 * KAPPA), rel=1e-12)

    def test_asymptotic_decreases_toward_kappa(self, ensemble):
        rates = [
            laplace.gamma_asymptotic(resonant_system(f), ensemble).gamma
            for f in (20.0, 30.0, 40.0)
        ]
        assert rates[0] > rates[1] > rates[2] > KAPPA
        assert rates[2] - KAPPA < 0.2 * (rates[0] - KAPPA)

    def test_asymptotic_lorentzian_saturates_at_delta_plus_kappa(self):
        delta = mhz_to_angular(4.598)
        density = LorentzianDensity(omega_s=OMEGA_C, delta=delta)
        est = laplace.gamma_asymptotic(resonant_system(40.0), density)
        assert est.gamma == pytest.approx(delta + KAPPA, rel=2e-2)

    def test_lorentz_formula_branches(self):
        delta = mhz_to_angular(4.4)
        slow, fast = laplace.gamma_lorentz_formula(0.0, delta, KAPPA)
        assert slow.gamma == pytest.approx(2 * KAPPA, rel=1e-14)
        assert fast.gamma == pytest.approx(2 * delta, rel=1e-14)
        # Damping boundary at |Delta - kappa|/2 = 2pi * 1.8 MHz for the
        # posted green-curve parameters.
        boundary = (delta - KAPPA) / 2.0
        assert boundary == pytest.approx(mhz_to_angular(1.8), rel=1e-12)
        assert len(laplace.gamma_lorentz_formula(0.995 * boundary, delta, KAPPA)) == 2
        (only,) = laplace.gamma_lorentz_formula(1.005 * boundary, delta, KAPPA)
        assert only.gamma == delta + KAPPA
        # Continuity across the boundary.
        slow_b, fast_b = laplace.gamma_lorentz_formula(0.9999 * boundary, delta, KAPPA)
        assert slow_b.gamma == pytest.approx(delta + KAPPA, rel=2e-2)
        assert fast_b.gamma == pytest.approx(delta + KAPPA, rel=2e-2)

    def test_no_broadening_branches(self):
        slow, fast = laplace.gamma_no_broadening(0.0, KAPPA)
        # +0.0: a coupling-0 gamma-sweep row prints it, and -0.0 has other bytes.
        assert slow.gamma == 0.0 and math.copysign(1.0, slow.gamma) == 1.0
        assert fast.gamma == pytest.approx(2 * KAPPA, rel=1e-14)
        # Branch point of the formula itself is kappa/2 (2pi * 0.4 MHz);
        # the posted caption says 0.2 MHz, recorded as a discrepancy.
        boundary = KAPPA / 2.0
        assert boundary == pytest.approx(mhz_to_angular(0.4), rel=1e-12)
        assert len(laplace.gamma_no_broadening(0.99 * boundary, KAPPA)) == 2
        (only,) = laplace.gamma_no_broadening(1.01 * boundary, KAPPA)
        assert only.gamma == KAPPA
        assert "underdamped" in only.note

    @pytest.mark.parametrize("omega,delta,kappa", [
        (mhz_to_angular(8.56), mhz_to_angular(4.4), KAPPA),  # underdamped
        (mhz_to_angular(1.0), mhz_to_angular(4.4), KAPPA),   # overdamped
        (0.25, 0.75, 0.25),  # binary fractions: the discriminant is exactly 0
        (0.125, 0.0, 0.25),
        (0.0, mhz_to_angular(4.4), KAPPA),                   # uncoupled
        (0.0, 0.0, KAPPA),
        (mhz_to_angular(25.0), 0.0, KAPPA),
    ])
    def test_rates_match_textbook_oracle_bitwise(self, omega, delta, kappa):
        got = laplace.gamma_lorentz_formula(omega, delta, kappa)
        assert [(e.gamma, e.note) for e in got] == lorentz_rates_oracle(omega, delta, kappa)
        got = laplace.gamma_no_broadening(omega, kappa)
        assert [(e.gamma, e.note) for e in got] == lorentz_rates_oracle(omega, 0.0, kappa)

    def test_rates_match_textbook_oracle_on_a_grid(self):
        for omega in np.linspace(0.0, mhz_to_angular(30.0), 41):
            for delta in np.linspace(0.0, mhz_to_angular(12.0), 25):
                got = laplace.gamma_lorentz_formula(float(omega), float(delta), KAPPA)
                want = lorentz_rates_oracle(float(omega), float(delta), KAPPA)
                assert [(e.gamma, e.note) for e in got] == want, (omega, delta)

    def test_broadened_rate_bounded_below_by_no_broadening(self, ensemble):
        # Light three-point version of the sweep invariant (the official
        # ten-point sweep runs with the acceptance scenarios): with
        # broadening the fitted rate sits above the broadening-free slow
        # branch at the same coupling.
        for omega_mhz, t_max in ((0.5, 650.0), (2.0, 300.0), (4.0, 500.0)):
            p = resonant_system(omega_mhz)
            n = int(round(t_max / DT)) + 1
            series = laplace.invert(p, ensemble, TimeGrid(0.0, DT, n))
            fitted = laplace.decay_rate_timefit(series).gamma
            floor = laplace.gamma_no_broadening(p.Omega, KAPPA)[0].gamma
            assert fitted >= floor, omega_mhz
