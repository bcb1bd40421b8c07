"""Spin spectral densities and frequency-domain quadrature.

Three ensemble line shapes are supported: a q-Gaussian (heavy algebraic
tails, the physically interesting case), a Lorentzian (admits closed-form
dynamics, used for cross checks), and a Dirac delta (no broadening).
Densities are normalized to unit area analytically; quadrature happens on
truncated supports, with the truncated tail mass known exactly so
normalization checks stay honest.
Every sum over the uniform grid has its one home here: the chirp-z node
sum, FFT convolution and the discrete Hilbert transform (Lamb shift).
A node sum whose coefficients are Hermitian about the grid's centre is
real, and `_folded_sum` computes it over the grid's upper half
(`_fold`); `_conv` takes real FFTs when both its inputs are real.
`normalize` checks unit mass with the same node sum on the same grid the
solvers integrate. The module, like the package, imports numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

# Support half-width of a Lorentzian line, in units of its delta.
LORENTZ_HALF_WIDTH = 200.0
# Leading-order tail mass a q-Gaussian's support leaves out; it sets
# the support, and `tail_mass` gives the exact remainder.
QGAUSS_TAIL_MASS = 1e-6
# Default frequency-grid spacing, in nodes per FWHM of the line.
_POINTS_PER_FWHM = 200
# Largest deviation from unit mass that `normalize` accepts.
_NORM_TOL = 1e-8
# Tolerance, in node spacings, below which a support edge past a node
# is taken to sit on it (rounding of the half-width, not a real overhang).
_GRID_SNAP = 1e-6
# Most nodes a frequency grid may have. The largest grid any test, example
# or benchmark builds is the q = 1.8 default grid (1,571,663 nodes); the
# cap still admits the default grid up to q = 1.85 (4,045,861 nodes) and
# keeps one complex node array at 64 MiB, so a chirp-z sum stays within a
# few hundred MiB. The q-Gaussian support grows without bound as q -> 2
# (1.3e8 nodes at q = 2.0, 1.1e11 at q = 2.2): such a grid is refused
# by `FrequencyGrid` before anything is allocated, at config parse too.
MAX_GRID_NODES = 2**22
# Largest float step at a grid's outermost node, in node spacings: no
# node is rounded by more than this share of d_omega.
_NODE_ROUNDING = 1e-6


def fwhm_relation(q: float, delta: float) -> float:
    """Full width at half maximum of a q-Gaussian of width parameter delta."""
    _check_q(q)
    return 2.0 * delta * math.sqrt((2.0**q - 2.0) / (2.0 * q - 2.0))


def delta_from_fwhm(q: float, gamma_q: float) -> float:
    """Invert :func:`fwhm_relation` for the width parameter."""
    _check_q(q)
    if not gamma_q > 0:
        raise ValueError(f"FWHM must be positive, got {gamma_q}")
    return gamma_q / (2.0 * math.sqrt((2.0**q - 2.0) / (2.0 * q - 2.0)))


def _check_q(q: float) -> None:
    # q = 1 is the Gaussian limit, q >= 3 is non-normalizable; both are out
    # of scope for the algebra used here.
    if not 1.0 < q < 3.0:
        raise ValueError(f"q must lie in (1, 3), got {q}")


def qgauss_norm(q: float, delta: float) -> float:
    """Analytic normalization constant of the unit-area q-Gaussian."""
    _check_q(q)
    p = 1.0 / (q - 1.0)
    # Gamma(p) / Gamma(p - 1/2) in log space: Gamma(p) overflows from
    # q = 1.0058 on, while the ratio grows only like sqrt(p).
    ratio = math.exp(math.lgamma(p) - math.lgamma(p - 0.5))
    return ratio / (delta * math.sqrt(math.pi / (q - 1.0)))


def _log_support(q: float) -> float:
    """log(W / delta) of a q-Gaussian's support half-width W.

    Leading-order tail: rho ~ C (q-1)^(-p) delta^(2p) x^(-2p), so the
    two-sided mass beyond W is 2 c (q-1)^(-p) (W/delta)^(1-2p)/(2p-1)
    with c = C delta, set equal to QGAUSS_TAIL_MASS. W/delta depends on
    q only; in log space no power of delta or (q-1) under- or overflows.
    """
    q1 = q - 1.0
    p = 1.0 / q1
    log_c = math.lgamma(p) - math.lgamma(p - 0.5) + 0.5 * math.log(q1 / math.pi)
    log_amp = math.log(2.0 / (QGAUSS_TAIL_MASS * (2.0 * p - 1.0))) + log_c - p * math.log(q1)
    return log_amp / (2.0 * p - 1.0)


@dataclass(frozen=True)
class QGaussianDensity:
    """q-Gaussian line centered at omega_s.

    rho(omega) = C * [1 - (1-q) (omega-omega_s)^2 / delta^2]^(1/(1-q))

    For 1 < q < 3 the bracket is always positive, so the analytic form is
    global; ``support`` only marks where quadrature happens. Its
    half-width is the W at which the leading-order power-law tail mass
    equals QGAUSS_TAIL_MASS.
    """

    omega_s: float
    q: float
    delta: float

    def __post_init__(self):
        _check_q(self.q)
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    # Constants are cached in the instance dict, not declared as fields,
    # so equality, hashing and dataclasses.fields see only the parameters.
    @cached_property
    def norm_constant(self) -> float:
        return qgauss_norm(self.q, self.delta)

    @property
    def fwhm(self) -> float:
        return fwhm_relation(self.q, self.delta)

    @cached_property
    def half_width(self) -> float:
        return self.delta * math.exp(_log_support(self.q))

    @property
    def support(self) -> tuple[float, float]:
        w = self.half_width
        return (self.omega_s - w, self.omega_s + w)

    def pdf(self, omega):
        x = np.asarray(omega, dtype=float) - self.omega_s
        p = 1.0 / (self.q - 1.0)
        val = self.norm_constant * (1.0 + (self.q - 1.0) * (x / self.delta) ** 2) ** (-p)
        return val if val.shape else float(val)

    def pdf_derivative(self, omega):
        x = np.asarray(omega, dtype=float) - self.omega_s
        p = 1.0 / (self.q - 1.0)
        g = 1.0 + (self.q - 1.0) * (x / self.delta) ** 2
        val = -2.0 * p * (self.q - 1.0) * self.norm_constant * x / self.delta**2 * g ** (-p - 1.0)
        return val if val.shape else float(val)

    def tail_mass(self) -> float:
        """Exact mass outside the truncated support.

        With p = 1/(q-1), y = 1/(1 + (q-1) (W/delta)^2) and c = C delta,
        the two-sided tail is c / sqrt(q-1) * B(y; p - 1/2, 1/2). The
        incomplete beta function is its power series
        y^a sum_n (1/2)_n / n! * y^n / (a + n), summed until y^n < 1e-18.
        """
        q1 = self.q - 1.0
        a = 1.0 / q1 - 0.5
        y = 1.0 / (1.0 + q1 * (self.half_width / self.delta) ** 2)
        series, coef, y_n, n = 0.0, 1.0, 1.0, 0
        while y_n >= 1e-18:
            series += coef * y_n / (a + n)
            coef *= (n + 0.5) / (n + 1)
            y_n *= y
            n += 1
        return self.norm_constant * self.delta / math.sqrt(q1) * y**a * series


@dataclass(frozen=True)
class LorentzianDensity:
    """Lorentzian line: rho = (delta/pi) / ((omega-omega_s)^2 + delta^2).

    The arctan tail decays so slowly that a 1e-6 tail-mass support would
    need a half-width of ~6e5*delta, so the support is capped at
    LORENTZ_HALF_WIDTH * delta and downstream normalization checks add
    the analytic tail mass back.
    """

    omega_s: float
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def norm_constant(self) -> float:
        return self.delta / math.pi

    @property
    def fwhm(self) -> float:
        return 2.0 * self.delta

    @property
    def half_width(self) -> float:
        return LORENTZ_HALF_WIDTH * self.delta

    @property
    def support(self) -> tuple[float, float]:
        w = self.half_width
        return (self.omega_s - w, self.omega_s + w)

    def pdf(self, omega):
        x = np.asarray(omega, dtype=float) - self.omega_s
        val = (self.delta / math.pi) / (x**2 + self.delta**2)
        return val if val.shape else float(val)

    def pdf_derivative(self, omega):
        x = np.asarray(omega, dtype=float) - self.omega_s
        val = -(self.delta / math.pi) * 2.0 * x / (x**2 + self.delta**2) ** 2
        return val if val.shape else float(val)

    def tail_mass(self) -> float:
        return (2.0 / math.pi) * math.atan(self.delta / self.half_width)


@dataclass(frozen=True)
class DiracDeltaDensity:
    """Unbroadened ensemble: all spins exactly at omega_s.

    A single atom of weight one, with no pdf, width or support: every
    consumer handles the atom before it would read those.
    """

    omega_s: float


SpinDensity = QGaussianDensity | LorentzianDensity | DiracDeltaDensity


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform trapezoid grid center + k d_omega, |k| <= n_half: a value, like
    `TimeGrid`, whose node and weight arrays are derived on first use."""

    center: float
    d_omega: float
    n_half: int

    def __post_init__(self):
        if not self.d_omega > 0:
            raise ValueError(f"d_omega must be positive, got {self.d_omega}")
        if not (isinstance(self.n_half, int) and self.n_half >= 0):
            raise ValueError(f"n_half must be a non-negative integer, got {self.n_half!r}")
        if self.n > MAX_GRID_NODES:
            raise ValueError(f"frequency grid of {self.n:,} nodes exceeds "
                             f"the cap of {MAX_GRID_NODES:,}")
        edge = abs(self.center) + self.n_half * self.d_omega
        if math.ulp(edge) > _NODE_ROUNDING * self.d_omega:
            raise FloatingPointError(f"spacing {self.d_omega:g} is below the float "
                                     f"resolution at {edge:g}")

    @property
    def n(self) -> int:
        return 2 * self.n_half + 1

    @cached_property
    def omegas(self) -> np.ndarray:
        return self.center + self.d_omega * np.arange(-self.n_half, self.n_half + 1)

    @cached_property
    def weights(self) -> np.ndarray:
        weights = np.full(self.n, self.d_omega)
        if self.n > 1:
            weights[0] *= 0.5
            weights[-1] *= 0.5
        return weights


def grid_for_density(density: SpinDensity, t_max: float | None = None) -> FrequencyGrid:
    """Build the default quadrature grid for a density.

    The spacing resolves the line shape (FWHM / _POINTS_PER_FWHM) and, when
    the target evolution time is known, keeps d_omega * t_max < pi/4 so
    the first aliasing image of any time-domain kernel sits far beyond
    the simulated window. The center frequency always lands on a node.
    """
    if isinstance(density, DiracDeltaDensity):
        return FrequencyGrid(density.omega_s, 1.0, 0)
    d_omega = density.fwhm / _POINTS_PER_FWHM
    if t_max is not None and t_max > 0:
        d_omega = min(d_omega, math.pi / (4.0 * t_max))
    return uniform_grid(density.omega_s, d_omega, density.support[1] - density.omega_s)


def uniform_grid(center: float, d_omega: float, half_width: float) -> FrequencyGrid:
    """Trapezoid grid center + k d_omega, |k| <= ceil(half_width / d_omega).

    A ratio at most _GRID_SNAP above an integer counts as that integer,
    so last-ulp noise in the half-width cannot add a node pair. A
    Lorentzian's half-width LORENTZ_HALF_WIDTH * delta is exactly 20,000
    of the default FWHM/200 spacings, so its default grid has 40,001
    nodes for every delta (unless t_max tightens the spacing). A grid of
    more than MAX_GRID_NODES nodes raises ValueError.
    """
    return FrequencyGrid(center, d_omega, math.ceil(half_width / d_omega - _GRID_SNAP))


def normalize(density: SpinDensity) -> float:
    """Validate unit normalization and return the norm constant.

    The check sums the pdf over the nodes of `grid_for_density(density)`,
    the coarsest grid any solve of this density uses, so it needs the
    memory of that grid's node arrays. The exact tail mass beyond the
    support is added; the total must be 1 within _NORM_TOL. Truncation
    is a quadrature concern, not an evaluation concern, so the analytic
    constant is returned unchanged.
    """
    if isinstance(density, DiracDeltaDensity):
        return 1.0
    grid = grid_for_density(density)
    mass = density.pdf(grid.omegas) @ grid.weights
    total = mass + density.tail_mass()
    if abs(total - 1.0) > _NORM_TOL:
        raise ValueError(
            f"density mass {total!r} deviates from 1 by more than {_NORM_TOL} "
            f"(grid mass {mass!r}, exact tail {density.tail_mass()!r})"
        )
    return density.norm_constant


def lamb_shift(density: SpinDensity, grid: FrequencyGrid, omega) -> np.ndarray | float:
    """Cauchy principal value P integral of rho(x)/(omega - x) over the support.

    Inside the support the singular cell is handled by subtracting
    rho(omega): the remainder (rho(x) - rho(omega))/(omega - x) is smooth
    (value -rho'(omega) at the removable point) and the subtracted piece
    integrates to the exact log boundary term. Outside the support there
    is no singularity and plain quadrature is used.
    """
    if isinstance(density, DiracDeltaDensity):
        x = np.asarray(omega, dtype=float)
        with np.errstate(divide="raise"):
            val = 1.0 / (x - density.omega_s)
        return val if val.shape else float(val)

    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    lo, hi = grid.omegas[0], grid.omegas[-1]
    rho = density.pdf(grid.omegas)
    out = np.empty(len(omega_arr))
    for k, w in enumerate(omega_arr):
        if lo < w < hi:
            rho_w = density.pdf(w)
            diff = w - grid.omegas
            near = np.abs(diff) < 1e-6 * grid.d_omega
            safe = np.where(near, 1.0, diff)
            integrand = (rho - rho_w) / safe
            if near.any():
                integrand[near] = -density.pdf_derivative(w)
            out[k] = integrand @ grid.weights + rho_w * math.log((w - lo) / (hi - w))
        else:
            out[k] = (rho / (w - grid.omegas)) @ grid.weights
    if np.isscalar(omega) or np.asarray(omega).ndim == 0:
        return float(out[0])
    return out


def lamb_shift_nodes(density: SpinDensity, grid: FrequencyGrid) -> np.ndarray:
    """`lamb_shift` of a broadened density at every node of its grid.

    The same singular-cell subtraction, with the two sums over the other
    nodes, of rho_i w_i / (omega_j - omega_i) and of w_i / (omega_j -
    omega_i), taken as discrete Hilbert transforms: FFT convolutions
    with 1/(k d_omega). The boundary log term diverges at the two end
    nodes, where the shift is pinned to 0.
    """
    n = grid.n
    k = np.arange(1 - n, n)
    hilbert = 1.0 / (np.where(k == 0, 1, k) * grid.d_omega)
    hilbert[n - 1] = 0.0  # k = 0: the singular cell
    rho = density.pdf(grid.omegas)
    inner = slice(1, n - 1)
    mass_sum = _conv(rho * grid.weights, hilbert, 2 * n - 1)[n:2 * n - 2]
    weight_sum = _conv(grid.weights, hilbert, 2 * n - 1)[n:2 * n - 2]
    x, lo, hi = grid.omegas[inner], grid.omegas[0], grid.omegas[-1]
    out = np.zeros(n)
    out[inner] = (mass_sum - rho[inner] * weight_sum
                  - grid.weights[inner] * density.pdf_derivative(x)
                  + rho[inner] * np.log((x - lo) / (hi - x)))
    return out


@cache
def _fast_len(n: int) -> int:
    """Smallest integer >= n whose prime factors are all 2, 3, 5, 7 or 11.

    The rule of scipy.fft.next_fast_len for complex transforms, so FFT
    lengths match it exactly. The next power of two is such a number, so
    the answer is the least one >= n among the 11-smooth numbers up to
    it. Cached: the solvers ask for the same few lengths many times.
    """
    top = 1 << (n - 1).bit_length()
    smooth = np.array([1], dtype=np.int64)
    for p in (2, 3, 5, 7, 11):
        powers = [1]
        while powers[-1] * p <= top:
            powers.append(powers[-1] * p)
        smooth = np.outer(smooth, powers).ravel()
        smooth = smooth[smooth <= top]
    return int(smooth[smooth >= n].min())


def _transforms(*arrays: np.ndarray):
    """Forward and inverse FFT, each called as (x, size), in the arrays'
    arithmetic: real FFTs, half the work of complex ones (Sorensen,
    Jones, Heideman & Burrus 1987), when every array is real."""
    if any(np.iscomplexobj(x) for x in arrays):
        return np.fft.fft, np.fft.ifft
    return np.fft.rfft, np.fft.irfft


def _conv(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the linear convolution a * b, by FFT: real when
    a and b are both real, complex otherwise."""
    a, b = a[:n], b[:n]
    size = _fast_len(len(a) + len(b) - 1)
    forward, inverse = _transforms(a, b)
    spectrum = forward(a, size)
    spectrum *= forward(b, size)
    return inverse(spectrum, size)[:n].copy()  # frees the padded buffer


def _fold(coef: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Coefficients h_k, k = 0 .. n_half, of the node sum folded onto the
    grid's upper half: h_0 = Re c_0 and h_k = c_k + conj(c_{-k}), so

        Re sum_{|k| <= n_half} c_k x^k = Re sum_{k >= 0} h_k x^k

    for every |x| = 1, exactly, whatever the c_k. The imaginary part this
    drops is zero when c is Hermitian about the centre,
    c_{-k} = conj(c_k): an even line, and the offset and any cavity at
    the grid's centre.
    """
    upper = coef[grid.n_half:].copy()
    upper[1:] += coef[grid.n_half - 1::-1].conj()
    upper[0] = upper[0].real
    return upper


def _node_chirp(coef: np.ndarray, grid: FrequencyGrid, dt: float) -> np.ndarray:
    """The node part of a chirp-z sum: coef_k e^{-i theta k^2 / 2}, with k
    running up to n_half from -n_half, or from 0 for `_fold`'s h_k."""
    k = np.arange(grid.n_half + 1 - len(coef), grid.n_half + 1)
    return coef * np.exp(-0.5j * _theta(grid, dt) * (k * k))


def _lag_chirp(grid: FrequencyGrid, dt: float, start: int, n: int) -> np.ndarray:
    """The lag part of a chirp-z sum from lag ``start`` on: the n terms
    e^{i theta d^2 / 2}, d = start - n_half .. start - n_half + n - 1.

    A node part of width terms needs n + width - 1 of them for n lags.
    Element by element they do not depend on n, so the part for n terms
    is the first n terms of the part for any longer run.
    """
    d = np.arange(start - grid.n_half, start - grid.n_half + n)
    return np.exp(0.5j * _theta(grid, dt) * (d * d))


def _theta(grid: FrequencyGrid, dt: float) -> float:
    # A one-node grid's d_omega is a placeholder; its chirp would only
    # add rounding.
    return grid.d_omega * dt if grid.n > 1 else 0.0


def _chirp_z(spectrum: np.ndarray, width: int, grid: FrequencyGrid, offset: float,
             dt: float, n: int, start: int) -> np.ndarray:
    """`_node_sum` over lags start .. start+n-1 from the FFT of its node
    part (`_node_chirp`, width terms: the full grid, or `_fold`'s upper
    half) at a length of at least n + width - 1: one FFT of the lag
    chirp, one inverse FFT, then the output chirp. The cyclic product's
    wrap-around lands below index width - 1, so a length of exactly
    n + width - 1 leaves the n lags exact (overlap-save)."""
    size = len(spectrum)
    product = spectrum * np.fft.fft(_lag_chirp(grid, dt, start, n + width - 1), size)
    m = np.arange(start, start + n)
    phase = (grid.center - offset) * dt * m + 0.5 * _theta(grid, dt) * (m * m)
    return np.exp(-1j * phase) * np.fft.ifft(product)[width - 1:width - 1 + n]


def _node_sum(coef: np.ndarray, grid: FrequencyGrid, offset: float, dt: float,
              n: int) -> np.ndarray:
    """sum_i coef_i e^{-i (omega_i - offset) m dt} for m = 0 .. n-1.

    Chirp-z form: with omega_i = center + k d_omega, |k| <= n_half, and
    k m = (k^2 + m^2 - (m - k)^2) / 2, the node sum is one FFT
    convolution of a node part (`_node_chirp`) with a lag part
    (`_lag_chirp`). The squares are exact integers before they meet
    theta = d_omega dt, so a part kept from another sum of the same
    coefficients, grid and dt has the bits of one built here. ``coef``
    may also be `_fold`'s n_half + 1 coefficients from k = 0.
    """
    node = _node_chirp(coef, grid, dt)
    spectrum = np.fft.fft(node, _fast_len(n + len(node) - 1))
    return _chirp_z(spectrum, len(node), grid, offset, dt, n, 0)


def _folded_sum(coef: np.ndarray, grid: FrequencyGrid, dt: float, n: int) -> np.ndarray:
    """Re sum_i coef_i e^{-i (omega_i - center) m dt} for m = 0 .. n-1, as
    a real array: `_node_sum` about the grid's centre over `_fold`'s
    n_half + 1 coefficients, so its FFT is fast_len(n + n_half) long
    against fast_len(n + 2 n_half). It is the whole sum when coef is
    Hermitian about the centre."""
    return _node_sum(_fold(coef, grid), grid, grid.center, dt, n).real
