import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize
from scipy.fft import next_fast_len
from scipy.special import gammaln

from cavityspin import (
    DiracDeltaDensity,
    FrequencyGrid,
    LorentzianDensity,
    QGaussianDensity,
    angular_to_mhz,
    delta_from_fwhm,
    fwhm_relation,
    grid_for_density,
    lamb_shift,
    mhz_to_angular,
    normalize,
)
from cavityspin import laplace, volterra
from cavityspin.spectral import (
    _GRID_SNAP,
    _NODE_ROUNDING,
    MAX_GRID_NODES,
    _conv,
    _fast_len,
    _folded_sum,
    _node_sum,
    lamb_shift_nodes,
    qgauss_norm,
    uniform_grid,
)
from conftest import FWHM, OMEGA_C, Q_SHAPE, resonant_system


@pytest.fixture(scope="module")
def qg(ensemble):
    return ensemble


class TestQGaussianShape:
    def test_norm_constant_against_adaptive_quadrature(self, qg):
        # Oracle: integrate the *unnormalized* shape and invert.
        p = 1.0 / (qg.q - 1.0)
        raw = lambda x: (1.0 + (qg.q - 1.0) * (x / qg.delta) ** 2) ** (-p)
        mass, _ = integrate.quad(raw, -np.inf, np.inf, limit=400)
        assert qgauss_norm(qg.q, qg.delta) == pytest.approx(1.0 / mass, rel=1e-9)

    @pytest.mark.parametrize("q", [1.001, 1.005, 1.0058, 1.02, Q_SHAPE, 1.8, 2.5, 2.99])
    def test_norm_constant_against_log_gamma(self, q):
        # Gamma(p) overflows a float from q = 1.0058 on (p > 171.6).
        p = 1.0 / (q - 1.0)
        expected = math.exp(gammaln(p) - gammaln(p - 0.5)) / math.sqrt(math.pi / (q - 1.0))
        assert qgauss_norm(q, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_half_maximum_sits_at_half_fwhm(self, qg):
        peak = qg.pdf(qg.omega_s)
        for sign in (+1, -1):
            val = qg.pdf(qg.omega_s + sign * qg.fwhm / 2.0)
            assert abs(val - peak / 2.0) < 1e-10 * peak

    def test_delta_from_fwhm_against_root_find(self):
        # Independent oracle: find the half-maximum crossing numerically.
        delta = delta_from_fwhm(Q_SHAPE, FWHM)
        d = QGaussianDensity(omega_s=0.0, q=Q_SHAPE, delta=delta)
        peak = d.pdf(0.0)
        half_cross = optimize.brentq(
            lambda x: d.pdf(x) - peak / 2.0, 1e-6, 10.0 * delta, xtol=1e-14
        )
        assert 2.0 * half_cross == pytest.approx(FWHM, rel=1e-10)
        assert angular_to_mhz(delta) == pytest.approx(5.2684, rel=5e-4)

    def test_fwhm_round_trip(self):
        gamma_q = mhz_to_angular(9.4)
        delta = delta_from_fwhm(1.39, gamma_q)
        assert fwhm_relation(1.39, delta) == pytest.approx(gamma_q, rel=1e-12)

    @given(st.floats(min_value=1.01, max_value=2.99),
           st.floats(min_value=1e-4, max_value=10.0))
    def test_fwhm_round_trip_property(self, q, gamma_q):
        assert fwhm_relation(q, delta_from_fwhm(q, gamma_q)) == pytest.approx(
            gamma_q, rel=1e-12
        )

    def test_gaussian_limit_rejected(self):
        with pytest.raises(ValueError):
            delta_from_fwhm(1.0, 1.0)
        with pytest.raises(ValueError):
            QGaussianDensity(omega_s=0.0, q=3.0, delta=1.0)

    def test_q2_is_exactly_lorentzian(self):
        qg2 = QGaussianDensity(omega_s=5.0, q=2.0, delta=0.3)
        lor = LorentzianDensity(omega_s=5.0, delta=0.3)
        x = np.linspace(-50, 50, 1001) + 5.0
        assert np.allclose(qg2.pdf(x), lor.pdf(x), rtol=1e-12)

    def test_symmetry_and_positivity(self, qg):
        x = np.geomspace(1e-6, 1e3, 400)
        left = qg.pdf(qg.omega_s - x)
        right = qg.pdf(qg.omega_s + x)
        np.testing.assert_allclose(left, right, rtol=1e-13)
        assert (right > 0).all()

    def test_tail_slope_matches_exponent(self, qg):
        # log-log slope of the far tail is -2/(q-1), checked between
        # 10 and 100 FWHM from the line center.
        x = np.geomspace(10 * qg.fwhm, 100 * qg.fwhm, 50)
        slope = np.polyfit(np.log(x), np.log(qg.pdf(qg.omega_s + x)), 1)[0]
        assert slope == pytest.approx(-2.0 / (qg.q - 1.0), rel=0.05)

    def test_eval_outside_support_is_analytic(self, qg):
        lo, hi = qg.support
        outside = hi + 5.0 * qg.fwhm
        p = 1.0 / (qg.q - 1.0)
        expected = qg.norm_constant * (
            1.0 + (qg.q - 1.0) * ((outside - qg.omega_s) / qg.delta) ** 2
        ) ** (-p)
        assert qg.pdf(outside) == pytest.approx(expected, rel=1e-14)
        assert qg.pdf(outside) > 0


class TestNormalization:
    def test_qgaussian_unit_mass(self, qg):
        assert normalize(qg) == pytest.approx(qg.norm_constant, rel=1e-14)

    def test_lorentzian_truncation_policy(self):
        # At the default +-200 delta support the enclosed mass is ~0.9968;
        # the analytic arctan tail makes the check exact.
        lor = LorentzianDensity(omega_s=0.0, delta=0.05)
        grid = grid_for_density(lor)
        enclosed = lor.pdf(grid.omegas) @ grid.weights
        assert enclosed == pytest.approx(0.99682, abs=2e-4)
        assert normalize(lor) == pytest.approx(lor.delta / math.pi, rel=1e-14)

    def test_dirac_delta(self):
        assert normalize(DiracDeltaDensity(omega_s=1.0)) == 1.0

    @pytest.mark.parametrize("q", [1.02, 1.05, 1.2, 1.3, 1.6, 1.8])
    def test_qgaussian_grid_sum_closes_over_q(self, q):
        # The grid sum plus the exact tail closes within _NORM_TOL for every
        # q; a leading-order tail estimate misses by up to 1e-6 at q <= 1.3.
        # The canonical q and the Lorentzian are checked above.
        d = QGaussianDensity(OMEGA_C, q, delta_from_fwhm(q, FWHM))
        assert normalize(d) == d.norm_constant

    @pytest.mark.parametrize("q", [1.006, 1.02, 1.05, 1.2, 1.39, 1.8])
    def test_tail_mass_against_quadrature(self, q):
        # Oracle: adaptive quadrature of the tail in units of delta.
        d = QGaussianDensity(0.0, q, 1.0)
        p = 1.0 / (q - 1.0)
        one_side, _ = integrate.quad(lambda u: (1.0 + (q - 1.0) * u * u) ** (-p),
                                     d.half_width, np.inf, epsabs=0.0, epsrel=1e-13,
                                     limit=500)
        assert d.tail_mass() == pytest.approx(2.0 * d.norm_constant * one_side, rel=1e-10)

    def test_grid_mass_matches_tail_prediction(self, qg):
        grid = grid_for_density(qg)
        mass = qg.pdf(grid.omegas) @ grid.weights
        # Trapezoid error on this grid is O(d_omega^2) ~ 5e-6; the missing
        # tail is QGAUSS_TAIL_MASS = 1e-6.
        assert abs(mass - (1.0 - qg.tail_mass())) < 2e-5


class TestFrequencyGrid:
    @pytest.mark.parametrize("q", [1.006, 1.01, Q_SHAPE, 1.8])
    def test_support_in_delta_units_depends_on_q_only(self, q):
        # A narrow line near q = 1 once underflowed to a one-node grid
        # (q = 1.01, 0.5 MHz) or overflowed (q = 1.006).
        lines = [QGaussianDensity(OMEGA_C, q, delta_from_fwhm(q, mhz_to_angular(f)))
                 for f in (0.5, 9.4, 100.0)]
        ratios = [d.half_width / d.delta for d in lines]
        assert ratios[0] > 1.0
        assert ratios == pytest.approx([ratios[1]] * 3, rel=1e-14)
        assert len({grid_for_density(d).n for d in lines}) == 1

    def test_grid_covers_support_with_center_node(self, qg):
        grid = grid_for_density(qg)
        lo, hi = qg.support
        assert grid.omegas[0] <= lo and grid.omegas[-1] >= hi
        assert np.abs(grid.omegas - qg.omega_s).min() < 1e-9 * abs(qg.omega_s)
        assert (grid.weights > 0).all()
        assert np.allclose(np.diff(grid.omegas), grid.d_omega, rtol=1e-12)

    def test_time_horizon_refines_spacing(self, qg):
        coarse = grid_for_density(qg)
        t_max = 10_000.0
        fine = grid_for_density(qg, t_max=t_max)
        assert fine.d_omega <= coarse.d_omega
        assert fine.d_omega * t_max < math.pi / 4.0 + 1e-12

    def test_dirac_grid_is_single_atom(self):
        grid = grid_for_density(DiracDeltaDensity(omega_s=2.0))
        assert grid.n == 1
        assert grid.omegas[0] == 2.0
        assert grid.weights[0] == 1.0

    def test_lorentzian_node_count_ignores_last_ulp_of_delta(self):
        # support[1] - omega_s is 20,000 default spacings in exact
        # arithmetic; the rounded ratio falls on either side of it.
        delta = mhz_to_angular(4.597483440247793)
        deltas = [delta]
        for _ in range(8):
            deltas = [np.nextafter(deltas[0], 0.0), *deltas, np.nextafter(deltas[-1], 1.0)]
        counts = {grid_for_density(LorentzianDensity(OMEGA_C, d), t_max=1365.0).n
                  for d in deltas}
        assert counts == {40_001}

    @pytest.mark.parametrize("q", [2.2, 2.5])
    def test_grid_beyond_node_cap_raises_before_allocating(self, q):
        # The support grows without bound as q -> 2: 1.1e11 nodes at
        # q = 2.2, which numpy cannot allocate.
        line = QGaussianDensity(OMEGA_C, q, delta_from_fwhm(q, FWHM))
        with pytest.raises(ValueError, match="nodes exceeds the cap"):
            grid_for_density(line)

    def test_nodes_and_weights_keep_their_bits(self, qg):
        # The grid derives its arrays from (center, d_omega, n_half) with
        # the expressions it was once built from: the canonical grid, the
        # 40,001-node Lorentzian twin and a cut grid widened past a
        # narrow line's support.
        twin = LorentzianDensity(OMEGA_C, mhz_to_angular(4.598))
        narrow = QGaussianDensity(OMEGA_C, Q_SHAPE, delta_from_fwhm(Q_SHAPE, mhz_to_angular(0.5)))
        p = resonant_system(25.0)
        cases = [
            (grid_for_density(qg), qg.fwhm / 200, qg.half_width),
            (grid_for_density(twin, t_max=1365.0), twin.fwhm / 200, twin.half_width),
            (laplace._cut_grid(p, narrow, 300.0), narrow.fwhm / 200, 2.0 * p.Omega),
        ]
        assert cases[1][0].n == 40_001
        assert cases[2][0].n > grid_for_density(narrow, 300.0).n
        for grid, d_omega, half_width in cases:
            assert grid == uniform_grid(OMEGA_C, d_omega, half_width)
            n_half = math.ceil(half_width / d_omega - _GRID_SNAP)
            omegas = OMEGA_C + d_omega * np.arange(-n_half, n_half + 1)
            weights = np.full(len(omegas), d_omega)
            weights[0] *= 0.5
            weights[-1] *= 0.5
            assert grid.omegas.tobytes() == omegas.tobytes()
            assert grid.weights.tobytes() == weights.tobytes()

    def test_equal_grids_are_equal_values(self, qg):
        a, b = grid_for_density(qg), grid_for_density(qg)
        a.omegas  # the cached arrays are not part of the value
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != grid_for_density(qg, t_max=10_000.0)

    def test_grid_over_cap_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the cap"):
                FrequencyGrid(OMEGA_C, 1e-3, MAX_GRID_NODES // 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert FrequencyGrid(OMEGA_C, 1e-3, MAX_GRID_NODES // 2 - 1).n == MAX_GRID_NODES - 1

    @pytest.mark.parametrize("d_omega, n_half", [
        (0.0, 1), (-1e-3, 1), (math.nan, 1), (1e-3, -1), (1e-3, 1.5)])
    def test_degenerate_grid_is_refused(self, d_omega, n_half):
        with pytest.raises(ValueError, match="d_omega must be positive|n_half must be"):
            FrequencyGrid(OMEGA_C, d_omega, n_half)

    def test_spacing_below_float_resolution_is_refused(self):
        # Floats step by math.ulp(OMEGA_C) = 3.6e-15 rad/ns near the line
        # center; a spacing must span _NODE_ROUNDING**-1 of those steps.
        least = math.ulp(OMEGA_C) / _NODE_ROUNDING
        assert FrequencyGrid(OMEGA_C, least, 1000).n == 2001
        with pytest.raises(FloatingPointError, match="float resolution"):
            FrequencyGrid(OMEGA_C, 0.99 * least, 1000)

    def test_node_cap_counts_both_halves(self):
        d_omega = 1e-3
        n_half = (MAX_GRID_NODES - 1) // 2
        assert uniform_grid(0.0, d_omega, n_half * d_omega).n == MAX_GRID_NODES - 1
        with pytest.raises(ValueError, match=f"{MAX_GRID_NODES + 1:,} nodes"):
            uniform_grid(0.0, d_omega, (n_half + 1) * d_omega)


def test_fast_len_matches_scipy():
    # scipy's complex-transform rule; the package itself may not import
    # scipy.fft, so the rule is rebuilt there and checked here.
    assert all(_fast_len(n) == next_fast_len(n) for n in range(1, 20_001))
    rng = np.random.default_rng(7)
    for n in rng.integers(20_001, 5_000_001, size=2_000).tolist():
        assert _fast_len(n) == next_fast_len(n), n


def test_conv_follows_the_dtype_of_its_inputs():
    # Real inputs take real FFTs and give a real result; one complex
    # input gives the complex convolution.
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(300), rng.standard_normal(200)
    real = _conv(a, b, 250)
    assert np.isrealobj(real)
    assert np.abs(real - np.convolve(a, b)[:250]).max() <= 1e-13 * np.abs(real).max()
    mixed = _conv(a, 1j * b, 250)
    assert np.iscomplexobj(mixed)
    assert np.abs(mixed - 1j * real).max() <= 1e-13 * np.abs(real).max()


@pytest.mark.parametrize("kind", ["qgauss", "lorentz"])
def test_pdf_is_even_about_the_line_centre(qg, kind):
    # The real path folds node sums about the grid's centre on the
    # strength of this symmetry: over the grid's offsets x the two sides
    # agree within a few ulps of the line's peak (about 1e-20 of it
    # for the q-Gaussian, 4e-18 for the Lorentzian: only the rounding
    # of omega_s +- x differs). A Dirac line is one node on the centre.
    density = qg if kind == "qgauss" else LorentzianDensity(OMEGA_C, mhz_to_angular(4.598))
    grid = grid_for_density(density)
    x = grid.d_omega * np.arange(grid.n_half + 1)
    upper, lower = density.pdf(density.omega_s + x), density.pdf(density.omega_s - x)
    assert np.abs(upper - lower).max() <= 4 * np.spacing(upper.max())


class TestFoldedSum:
    """`_folded_sum` against `.real` of the full complex `_node_sum`."""

    @staticmethod
    def coefficients(qg, kind, grid):
        p = resonant_system(8.56)
        if kind == "kernel":
            return volterra._kernel_coefficients(p, qg, grid)
        if kind == "mass":
            return volterra._mass_weights(qg, grid)
        if kind == "cut":
            u = laplace._cut_kernel(p, qg, grid.omegas, lamb_shift_nodes(qg, grid))
            return p.Omega**2 * grid.weights * u
        # Any coefficients at all: the fold is exact for the real part.
        rng = np.random.default_rng(grid.n)
        return rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)

    @pytest.mark.parametrize("kind", ["kernel", "mass", "cut", "random"])
    @pytest.mark.parametrize("n_half", [1, 2, 999, 1000])
    def test_matches_real_part_of_full_sum(self, qg, kind, n_half):
        n, dt = 1500, 0.2
        d_omega = grid_for_density(qg, t_max=(n - 1) * dt).d_omega
        grid = FrequencyGrid(OMEGA_C, d_omega, n_half)
        coef = self.coefficients(qg, kind, grid)
        folded = _folded_sum(coef, grid, dt, n)
        full = _node_sum(coef, grid, grid.center, dt, n).real
        assert np.isrealobj(folded) and len(folded) == n
        assert np.abs(folded - full).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("kind", ["kernel", "mass"])
    def test_one_node_dirac_grid(self, kind):
        dirac = DiracDeltaDensity(omega_s=OMEGA_C)
        grid = grid_for_density(dirac)
        coef = self.coefficients(dirac, kind, grid)
        folded = _folded_sum(coef, grid, 0.2, 50)
        full = _node_sum(coef, grid, grid.center, 0.2, 50).real
        assert np.abs(folded - full).max() <= 1e-13 * np.abs(full).max()


class TestLambShift:
    def test_zero_at_center(self, qg):
        grid = grid_for_density(qg)
        assert abs(lamb_shift(qg, grid, qg.omega_s)) < 1e-10

    def test_odd_symmetry(self, qg):
        grid = grid_for_density(qg)
        for x in (0.3 * qg.fwhm, qg.fwhm, 8.0 * qg.fwhm):
            plus = lamb_shift(qg, grid, qg.omega_s + x)
            minus = lamb_shift(qg, grid, qg.omega_s - x)
            assert plus == pytest.approx(-minus, rel=1e-9, abs=1e-12)

    def test_lorentzian_hilbert_transform_oracle(self):
        # P-integral of a Lorentzian has the closed form
        # (omega - omega_s) / ((omega - omega_s)^2 + delta^2).
        delta = mhz_to_angular(4.6)
        lor = LorentzianDensity(omega_s=OMEGA_C, delta=delta)
        grid = uniform_grid(OMEGA_C, lor.fwhm / 2000, lor.half_width)
        w = OMEGA_C + delta
        expected = delta / (delta**2 + delta**2)
        assert lamb_shift(lor, grid, w) == pytest.approx(expected, rel=1e-6)

    def test_far_field_approaches_inverse_distance(self, qg):
        grid = grid_for_density(qg)
        x = 100.0 * qg.delta
        val = lamb_shift(qg, grid, qg.omega_s + x)
        assert val == pytest.approx(1.0 / x, rel=1e-2)

    def test_vector_evaluation_matches_scalar(self, qg):
        grid = grid_for_density(qg)
        xs = qg.omega_s + np.array([-2.0, -0.5, 0.17, 3.3]) * qg.fwhm
        vec = lamb_shift(qg, grid, xs)
        scalars = np.array([lamb_shift(qg, grid, float(x)) for x in xs])
        np.testing.assert_allclose(vec, scalars, rtol=1e-13)

    def test_dirac_pole(self):
        d = DiracDeltaDensity(omega_s=3.0)
        grid = grid_for_density(d)
        assert lamb_shift(d, grid, 4.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("lorentz, n_freq", [(False, 8015), (True, 40001)])
    def test_node_transform_matches_per_point_sum(self, qg, lorentz, n_freq):
        # The discrete Hilbert transform against the per-node loop, on the
        # q-Gaussian grid and on the Lorentzian cut grid at 25 MHz.
        if lorentz:
            density = LorentzianDensity(omega_s=OMEGA_C, delta=mhz_to_angular(4.598))
            grid = laplace._cut_grid(resonant_system(25.0), density, 200.0)
        else:
            density, grid = qg, grid_for_density(qg, t_max=300.0)
        assert grid.n == n_freq
        fast = lamb_shift_nodes(density, grid)
        slow = lamb_shift(density, grid, grid.omegas[1:-1])
        assert fast[0] == fast[-1] == 0.0
        assert np.abs(fast[1:-1] - slow).max() <= 1e-12 * np.abs(slow).max()


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3))
def test_qgaussian_positive_everywhere(x):
    d = QGaussianDensity(omega_s=0.0, q=1.39, delta=0.033)
    assert d.pdf(x) > 0
