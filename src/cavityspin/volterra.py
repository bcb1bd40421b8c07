"""Time-domain integration of the cavity amplitude memory equation.

The cavity amplitude obeys a Volterra equation of the second kind,

    A(t) = int_0^t K(t - tau) A(tau) dtau + F(t),

in the frame rotating at the drive frequency. The memory kernel K folds
the spin ensemble's line shape with the cavity response; F collects the
drive and any initial amplitude. Both are evaluated in closed form on
the time grid, so the only discretization is the trapezoidal product
integration of the memory term. The drive is piecewise constant and dt
divides each of its segments, so `_forcing` walks the segments once as
whole-step runs: F steps from one run start to the next by its closed
form, and each run's samples are one vectorized expression, O(steps)
for any number of segments.

Both sums over the uniform frequency grid (the kernel table and the
collective-spin propagator) are chirp-z sums, evaluated as one FFT
convolution by `spectral._node_sum` (Bluestein; Rabiner, Schafer &
Rader 1969); the time convolutions use `spectral._conv`. Because
K(0) = 0, the trapezoid rule over the whole time grid is a unit
lower-triangular Toeplitz system: `solve` inverts its symbol as a power
series by Newton doubling and applies the inverse with one more FFT
convolution (Hairer, Lubich & Schlichte 1985), then checks the residual
of the discrete system it solved. `solve_direct` marches the same rule
step by step, with a kernel from per-lag direct sums, as the O(n^2)
reference on short grids. The ring-down from the driven steady state is
that state minus `solve`'s switch-on response.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ComplexSeries,
    DriveProtocol,
    SystemParams,
    TimeGrid,
    rect_pulse,
    require_resonant,
)
from .spectral import (
    DiracDeltaDensity,
    FrequencyGrid,
    SpinDensity,
    _conv,
    _node_sum,
    grid_for_density,
)

# Largest relative residual (normwise backward error) of the discrete
# trapezoid system that `solve` accepts; FFT round-off leaves <= 2e-13
# on the example configs.
RESIDUAL_TOL = 1e-10


def _mass_weights(density: SpinDensity, grid: FrequencyGrid) -> np.ndarray:
    """Quadrature mass rho(omega_i) * w_i; a Dirac line is a unit atom."""
    if isinstance(density, DiracDeltaDensity):
        return np.array([1.0])
    return density.pdf(grid.omegas) * grid.weights


def _kernel_coefficients(params: SystemParams, density: SpinDensity,
                         grid: FrequencyGrid) -> np.ndarray:
    """Node coefficients c_i = m_i / (i u_i) of the kernel sum."""
    u = grid.omegas - params.omega_c + 1j * params.kappa
    return _mass_weights(density, grid) / (1j * u)


class KernelCache:
    """Kernel table K(m*dt) on the lag grid, one chirp-z sum.

    K(x) = Omega^2 * sum_i c_i (e^{-i nu_i x} - e^{-i omega_bar x}),
    c_i = m_i / (i u_i), u_i = omega_i - omega_c + i kappa,
    nu_i = omega_i - omega_p, omega_bar = omega_c - omega_p - i kappa.

    K(0) = 0 exactly (the two phase factors coincide at zero lag).
    """

    def __init__(self, params: SystemParams, density: SpinDensity,
                 grid: FrequencyGrid, dt: float):
        self.dt = dt
        self._params = params
        self._grid = grid
        self._c = _kernel_coefficients(params, density, grid)

    def values(self, n_lags: int) -> np.ndarray:
        """K at lags 0 .. n_lags-1: the sum from lag 1 on, after K(0) = 0."""
        p = self._params
        m = np.arange(1, n_lags)
        k = (_node_sum(self._c, self._grid, p.omega_p, self.dt, n_lags - 1, 1)
             - complex(self._c.sum()) * np.exp(-1j * p.omega_bar * self.dt * m))
        return np.concatenate([np.zeros(1, dtype=complex), p.Omega**2 * k])


def kernel_K(params: SystemParams, density: SpinDensity, lag,
             grid: FrequencyGrid | None = None):
    """Memory kernel K(lag) by direct sums over the nodes (scalar or array
    lag), one lag at a time: the reference for the chirp-z table."""
    lag_arr = np.atleast_1d(np.asarray(lag, dtype=float))
    if grid is None:
        grid = grid_for_density(density, t_max=float(lag_arr.max()) or None)
    c = _kernel_coefficients(params, density, grid)
    nu = grid.omegas - params.omega_p
    wb = params.omega_bar
    # Subtract the cavity phase inside the bracket so K(0) comes out as
    # an exact 0 instead of the difference of two large reductions.
    out = params.Omega**2 * np.array(
        [(np.exp(-1j * nu * x) - np.exp(-1j * wb * x)) @ c for x in lag_arr])
    return complex(out[0]) if np.ndim(lag) == 0 else out


def _forcing(params: SystemParams, protocol: DriveProtocol, tgrid: TimeGrid,
             a0: complex) -> np.ndarray:
    """Drive forcing F(t) = -int_0^t eta(tau) e^{-i omega_bar (t-tau)} dtau
    on the grid, plus the free ring-down a0 e^{-i omega_bar t}.

    One walk over the segments turns them into whole-step runs: dt must
    divide every segment that starts inside the grid, a drive that ends
    early leaves a zero-drive run, and one longer than the grid is cut.
    Over a run of constant eta from sample a, with z = e^{-i omega_bar dt},

        F(a + l dt) = z^l F(a) - eta (1 - z^l) / (i omega_bar),

    so every sample of the run is one vectorized closed form from the
    run's start, and its last sample starts the next run.
    """
    wb = params.omega_bar
    z = np.exp(-1j * wb * tgrid.times())  # z^l, since t_l = l dt
    forcing = np.zeros(tgrid.n_steps, dtype=complex)
    last = tgrid.n_steps - 1
    start = 0
    for dur, eta in protocol.segments + ((None, 0j),):
        if start == last:
            break
        if dur is None:
            stop = last
        else:
            steps = int(round(dur / tgrid.dt))
            if steps < 1 or abs(steps * tgrid.dt - dur) > 1e-9 * max(dur, 1.0):
                raise ValueError(f"segment duration {dur} is not a positive "
                                 f"multiple of dt = {tgrid.dt}")
            stop = min(start + steps, last)
        zl = z[1:stop - start + 1]
        forcing[start + 1:stop + 1] = zl * forcing[start] - eta * (1.0 - zl) / (1j * wb)
        start = stop
    if a0 != 0.0:
        forcing += a0 * z
    return forcing


def _series_inverse(b: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1/b(z) for b[0] = 1, by Newton doubling:
    y <- y (2 - b y) doubles the number of correct terms."""
    y = np.ones(1, dtype=complex)
    while len(y) < n:
        m = min(2 * len(y), n)
        err = _conv(b, y, m)[len(y):]  # b y = 1 + z^len(y) err
        y = np.concatenate([y, -_conv(y, err, m - len(y))])
    return y


def _march(k: np.ndarray, forcing: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid rule a_j = F_j + dt [K_j a_0 / 2 + sum_{0<l<j} K_{j-l} a_l].

    With K(0) = 0 this is a unit lower-triangular Toeplitz system, solved
    by one series inverse and one convolution. Before the first non-zero
    forcing sample the amplitude is exactly 0, and that sample is an
    interior point with full weight; only a t = 0 start has half weight,
    whose missing half moves to the right-hand side. Raises ValueError
    when the relative residual of the solved system exceeds RESIDUAL_TOL.
    """
    n = len(forcing)
    a = np.zeros(n, dtype=complex)
    nonzero = np.flatnonzero(forcing)
    if nonzero.size == 0:
        return a
    s = nonzero[0]
    rhs = forcing[s:]
    if s == 0:
        rhs = rhs - (0.5 * dt * forcing[0]) * k
    kdt = dt * k[:n - s]
    symbol = -kdt
    symbol[0] = 1.0  # K(0) = 0
    x = _conv(_series_inverse(symbol, n - s), rhs, n - s)
    # Normwise backward error, max norm: |r| / (|I - T| |x| + |rhs|).
    scale = (1.0 + np.abs(kdt).sum()) * np.abs(x).max() + np.abs(rhs).max()
    residual = np.abs(x - _conv(kdt, x, n - s) - rhs).max() / scale
    if not residual <= RESIDUAL_TOL:
        raise ValueError(f"trapezoid system residual {residual:.2e} exceeds "
                         f"{RESIDUAL_TOL:.0e}")
    a[s:] = x
    return a


def solve(params: SystemParams, density: SpinDensity, protocol: DriveProtocol,
          tgrid: TimeGrid, a0: complex = 0.0,
          grid: FrequencyGrid | None = None) -> ComplexSeries:
    """March the memory equation over the whole grid in one Toeplitz solve.

    The time grid must start at 0 and dt must divide every drive segment
    (the harness snaps requested durations before calling). ``a0`` is an
    optional initial cavity amplitude; the spins always start in vacuum.
    """
    if tgrid.t_start != 0.0:
        raise ValueError("solve expects a grid starting at t = 0")
    forcing = _forcing(params, protocol, tgrid, a0)
    if params.Omega == 0.0:
        return ComplexSeries(grid=tgrid, values=forcing)
    if grid is None:
        grid = grid_for_density(density, t_max=tgrid.t_end)
    k = KernelCache(params, density, grid, tgrid.dt).values(tgrid.n_steps)
    return ComplexSeries(grid=tgrid, values=_march(k, forcing, tgrid.dt))


MAX_DIRECT_STEPS = 4096


def _march_full(k: np.ndarray, forcing: np.ndarray, dt: float) -> np.ndarray:
    """Full-history trapezoidal product integration (O(n^2))."""
    n = len(forcing)
    a = np.empty(n, dtype=complex)
    a[0] = forcing[0]
    rev = np.zeros(n, dtype=complex)
    rev[n - 1] = a[0]
    for j in range(1, n):
        s = 0.5 * k[j] * a[0]
        if j > 1:
            s += k[1:j] @ rev[n - j:n - 1]
        a[j] = forcing[j] + dt * s
        rev[n - 1 - j] = a[j]
    return a


def solve_direct(params: SystemParams, density: SpinDensity,
                 protocol: DriveProtocol, tgrid: TimeGrid, a0: complex = 0.0,
                 grid: FrequencyGrid | None = None) -> ComplexSeries:
    """Reference solver: step-by-step march, kernel from per-lag sums.

    Quadratic in n_steps, so grids beyond MAX_DIRECT_STEPS samples are
    refused; use `solve` for production runs.
    """
    if tgrid.t_start != 0.0:
        raise ValueError("solve_direct expects a grid starting at t = 0")
    if tgrid.n_steps > MAX_DIRECT_STEPS:
        raise ValueError(
            f"solve_direct is capped at {MAX_DIRECT_STEPS} samples, "
            f"got {tgrid.n_steps}; use solve for long grids"
        )
    forcing = _forcing(params, protocol, tgrid, a0)
    if grid is None:
        grid = grid_for_density(density, t_max=tgrid.t_end)
    k = kernel_K(params, density, tgrid.dt * np.arange(tgrid.n_steps), grid=grid)
    return ComplexSeries(grid=tgrid, values=_march_full(k, forcing, tgrid.dt))


def _trapezoid_fold(g: np.ndarray, a: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid rule for int_0^{t_n} g(t_n - tau) a(tau) dtau on every n.

    One FFT convolution over the samples from the first non-zero one on,
    so the fold stays exactly 0 before it.
    """
    n = len(a)
    out = np.zeros(n, dtype=complex)
    nonzero = np.flatnonzero(a)
    if nonzero.size == 0:
        return out
    s = nonzero[0]
    out[s:] = dt * _conv(g, a[s:], n - s)
    out -= 0.5 * dt * (g * a[0] + g[0] * a)
    out[0] = 0.0
    return out


def collective_spin(params: SystemParams, density: SpinDensity,
                    a_series: ComplexSeries,
                    grid: FrequencyGrid | None = None) -> ComplexSeries:
    """Collective spin quadratures J_x + i J_y driven by a cavity record.

    J(t) = -(Omega/2) int d omega rho(omega)
           int_0^t e^{-i (omega - omega_p)(t - tau)} A(tau) dtau,

    one trapezoid convolution of A with g(m) = sum_i m_i e^{-i nu_i m dt},
    whose node sum is a chirp-z sum.
    """
    if grid is None:
        grid = grid_for_density(density, t_max=a_series.grid.t_end)
    dt = a_series.grid.dt
    g = _node_sum(_mass_weights(density, grid), grid, params.omega_p, dt, len(a_series))
    out = _trapezoid_fold(g, a_series.values, dt)
    return ComplexSeries(grid=a_series.grid, values=-(params.Omega / 2.0) * out)


def steady_state(params: SystemParams, density: SpinDensity,
                 eta: float | None = None) -> tuple[complex, complex]:
    """Driven steady state (A_st, J_x^st + i J_y^st) at exact resonance.

    A_st = eta / (-kappa + i Omega^2 [PV + i pi rho(omega_s)]) and
    J_st = i A_st (Omega / 2) [PV + i pi rho(omega_s)]. Every line shape
    is even about omega_s, so the principal value vanishes and both are
    real: A_st = -eta / (kappa + pi Omega^2 rho(omega_s)).
    """
    require_resonant(params, density.omega_s, "steady_state")
    if eta is None:
        eta = params.kappa
    if params.Omega == 0.0:
        return (-eta / params.kappa, 0j)
    if isinstance(density, DiracDeltaDensity):
        raise ValueError("steady state needs a broadened density (or Omega = 0)")
    absorption = math.pi * density.pdf(density.omega_s)
    a_st = -eta / (params.kappa + params.Omega**2 * absorption)
    j_st = -a_st * (params.Omega / 2.0) * absorption
    return (complex(a_st), complex(j_st))


def decay_from_steady_state(params: SystemParams, density: SpinDensity,
                            tgrid: TimeGrid, eta: float | None = None) -> ComplexSeries:
    """Free decay after switching off a long resonant drive.

    By linearity and time invariance it is the driven steady state minus
    the response to the same drive switched on at t = 0,
    A(t) = A_st - solve(rect_pulse(eta, t_end))(t), so A(0) = A_st exactly.
    """
    require_resonant(params, density.omega_s, "decay_from_steady_state")
    eta = params.kappa if eta is None else eta
    a_st, _ = steady_state(params, density, eta=eta)
    switch_on = solve(params, density, rect_pulse(eta, tgrid.t_end), tgrid)
    return ComplexSeries(grid=tgrid, values=a_st - switch_on.values)
