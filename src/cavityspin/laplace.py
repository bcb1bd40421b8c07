"""Resolvent (Laplace-domain) analysis of single-photon free decay.

For the resonant configuration (probe, cavity and ensemble center all at
the same frequency) the free decay of one cavity excitation decomposes
into a sum over isolated resolvent poles plus a branch-cut integral along
the ensemble line. The poles live to the left of the imaginary axis and
satisfy a coupled pair of real fixed-point equations; the cut contributes
a frequency integral over the spectral weight U(omega). Together they
reconstruct the exact time-domain amplitude, which is cross-checked
against the Volterra marcher in the test suite.

All rates are amplitude rates in rad/ns. Decay-rate estimates returned by
this module describe the intensity |A|^2, so the bare-cavity limit is
2*kappa.

The pole equations are solved on the physical sheet (integral-form
kernel), where a weak-coupling root exists only while
pi*Omega^2*rho(omega_s) < kappa and a symmetric strong-coupling pair only
once pi*Omega^2*rho(omega_c +- Omega) drops back below kappa. In the
intermediate window there are no poles at all and the cut carries the
entire (non-exponential) decay.

A caution about reading rates off the poles: the split of A(t) into pole
and cut terms is exact but not term-by-term physical. In the
strong-coupling pair regime the cut contains a component that cancels
the pole term asymptotically, and the observable envelope decays faster
than exp(2*sigma*t) at every time (cross-checked against the time-domain
solver out to eleven decades of intensity). Fit the reconstructed trace
with decay_rate_timefit instead of quoting 2*|sigma|.

Every integral here is a node sum on a uniform density grid, so the
module, the pole search included, needs numpy only. Near the cut the pole
integrands carry a spike far narrower than a node spacing; the pole code
subtracts the density's Taylor quadratic at the spike, sums the smooth
remainder over the nodes and integrates the quadratic in closed form.
"""

from __future__ import annotations

import cmath
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import lorentz
from .core import ComplexSeries, SystemParams, TimeGrid, angular_to_mhz, require_resonant
from .spectral import (
    DiracDeltaDensity,
    FrequencyGrid,
    SpinDensity,
    _folded_sum,
    grid_for_density,
    lamb_shift,
    lamb_shift_nodes,
    uniform_grid,
)

log = logging.getLogger(__name__)

_MAX_ITER = 400
_DAMPING = 0.5
_POLE_TOL = 1e-10
_DEDUPE_TOL = 1e-6
# Iterates contracting onto the branch cut (sigma -> 0^-) are not poles;
# anything this close to the axis is discarded as a cut-edge artifact.
_SIGMA_FLOOR = 1e-6

_PEAK_FLOOR = 1e-12
# Three decades: the intensity drop a free decay must show, and the peaks a fit keeps.
_ENVELOPE_DROP = 1e-3
_FIT_WINDOW = (1e-6, 1e-1)
# Largest |A(0) - 1| that invert accepts silently from its own poles.
_CLOSURE_TOL = 1e-3


@dataclass(frozen=True)
class PoleSolution:
    """One isolated resolvent pole s = sigma + i*omega (lab frame).

    sigma    : real part, rad/ns; always negative for a stable mode
    omega    : imaginary-axis coordinate, rad/ns (near -omega_c: the
               amplitude rotates with the carrier)
    residue  : complex pole weight 1/D'(s); the t = 0 amplitude this
               pole contributes
    residual : size of the last fixed-point map step from (sigma, omega),
               max(|d sigma| / kappa, |d omega| / max(|omega_c|, 1)), the
               test `_solve_pole` stops on. It is not the distance to the
               root and understates it where the damped map contracts
               slowly: near the Lorentzian twin's single-pole boundary
               (1.8 MHz) two starts' sigmas differ by 16 times their
               residuals.
    """

    sigma: float
    omega: float
    residue: complex
    residual: float

    def __post_init__(self):
        if not self.sigma < 0:
            raise ValueError(f"pole must decay, got sigma = {self.sigma}")
        if not self.residual < _POLE_TOL:
            raise ValueError(
                f"pole residual {self.residual:g} exceeds {_POLE_TOL:g}"
            )


@dataclass(frozen=True)
class DecayRateEstimate:
    """An intensity decay rate and a note on how it was obtained."""

    gamma: float
    note: str

    def __post_init__(self):
        if not self.gamma >= 0:
            raise ValueError(f"decay rate must be >= 0, got {self.gamma}")


def _require_resonant(params: SystemParams, density: SpinDensity) -> None:
    require_resonant(params, density.omega_s, "Laplace analysis")
    if isinstance(density, DiracDeltaDensity):
        raise ValueError(
            "delta density has no branch cut; use the closed-form "
            "Rabi solution instead"
        )


# ---------------------------------------------------------------------------
# poles


def _taylor_remainder(
    density: SpinDensity, grid: FrequencyGrid, rho: np.ndarray, w0: float
) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float] | None]:
    """Offsets x = omega_i - w0 and rho minus its Taylor quadratic at w0.

    Returns (x, rem, (r0, r1, r2)) with rem = rho - r0 - r1 x - r2 x^2.
    The pole integrands carry a spike of width |sigma| at x = 0, far
    narrower than a node spacing near the cut; the node sum then sees only
    the smooth O(x^3) remainder and the quadratic integrates in closed
    form. r2 is a central difference of pdf_derivative over one spacing:
    its error cancels between the sum and the closed form, so it only
    sets how smooth the remainder is. A node within 1e-6 spacings of w0
    gets its exact remainder 0, as in `lamb_shift`; on the uniform grid
    only the node nearest w0 can be that close. Outside the grid there is
    no spike to subtract: rem is rho and the Taylor part None.
    """
    x = grid.omegas - w0
    if not grid.omegas[0] < w0 < grid.omegas[-1]:
        return x, rho, None
    h = grid.d_omega
    r0 = density.pdf(w0)
    r1 = density.pdf_derivative(w0)
    r2 = 0.5 * (density.pdf_derivative(w0 + 0.5 * h)
                - density.pdf_derivative(w0 - 0.5 * h)) / h
    # rho - r0 - x (r1 + r2 x), in the same order, in two buffers.
    xpoly = r2 * x
    xpoly += r1
    xpoly *= x
    rem = rho - r0
    rem -= xpoly
    nearest = round((w0 - grid.center) / h) + grid.n_half
    if abs(x[nearest]) < 1e-6 * h:
        rem[nearest] = 0.0
    return x, rem, (r0, r1, r2)


def _pole_map(
    params: SystemParams,
    density: SpinDensity,
    sigma: float,
    omega_j: float,
    grid: FrequencyGrid,
    rho: np.ndarray,
) -> tuple[float, float]:
    """One application of the coupled fixed-point equations.

    i2 = Integral rho / (sigma^2 + x^2) and i1 = Integral rho x /
    (sigma^2 + x^2), x = omega + omega_j, over the grid's span: a node sum
    of the Taylor remainder plus the quadratic's exact moments.
    """
    x, rem, taylor = _taylor_remainder(density, grid, rho, -omega_j)
    s2 = sigma * sigma
    # q = rem / (sigma^2 + x^2), built in one buffer: rem may be rho itself.
    q = x * x
    q += s2
    np.divide(rem, q, out=q)
    i2 = grid.weights @ q
    q *= x
    i1 = grid.weights @ q
    if taylor is not None:
        r0, r1, r2 = taylor
        a, b, s = x[0], x[-1], abs(sigma)
        arc = math.atan(b / s) - math.atan(a / s)
        lg = 0.5 * math.log((s2 + b * b) / (s2 + a * a))
        m2 = (b - a) - s * arc  # Integral x^2 / (sigma^2 + x^2)
        i2 += r0 * arc / s + r1 * lg + r2 * m2
        i1 += r0 * lg + r1 * m2 + r2 * (0.5 * (b - a) * (b + a) - s2 * lg)
    om2 = params.Omega**2
    sigma_next = -params.kappa / (1.0 + om2 * i2)
    omega_next = -params.omega_c + om2 * i1
    return sigma_next, omega_next


def _solve_pole(
    params: SystemParams,
    density: SpinDensity,
    sigma0: float,
    omega0: float,
    grid: FrequencyGrid,
    rho: np.ndarray,
) -> tuple[float, float, float] | None:
    """Damped fixed-point iteration from one starting guess.

    Returns (sigma, omega, residual) once the step falls below
    _POLE_TOL / 2, or None when the iterate collapses onto the cut or is
    still moving after _MAX_ITER maps; the latter two are the expected
    outcomes in the pole-free window. Each exit is logged at debug level
    with the start's offset from -omega_c in MHz and the number of maps
    taken.
    """
    sigma, omega_j = sigma0, omega0
    omega_scale = max(abs(params.omega_c), 1.0)
    maps = 0
    outcome = "no convergence by _MAX_ITER"
    while maps < _MAX_ITER:
        if abs(sigma) < 1e-8 * params.kappa:
            # Collapsed onto the cut: no genuine root on this branch.
            outcome = "collapsed onto the cut"
            break
        sigma_next, omega_next = _pole_map(params, density, sigma, omega_j, grid, rho)
        maps += 1
        resid = max(
            abs(sigma_next - sigma) / params.kappa,
            abs(omega_next - omega_j) / omega_scale,
        )
        if resid < 0.5 * _POLE_TOL:
            log.debug("pole search from %+.6g MHz converged after %d maps: "
                      "sigma = %.6g", _offset_mhz(params, omega0), maps, sigma)
            return sigma, omega_j, resid
        # The bare omega update has slope ~ -1 near the symmetric pair, so
        # undamped iteration ping-pongs; 0.5 damping makes it contract.
        sigma += _DAMPING * (sigma_next - sigma)
        omega_j += _DAMPING * (omega_next - omega_j)
    log.debug("pole search from %+.6g MHz failed: %s after %d maps",
              _offset_mhz(params, omega0), outcome, maps)
    return None


def _offset_mhz(params: SystemParams, omega_j: float) -> float:
    """A pole coordinate as its offset from the carrier -omega_c, in MHz."""
    return angular_to_mhz(omega_j + params.omega_c)


def find_poles(params: SystemParams, density: SpinDensity) -> list[PoleSolution]:
    """Locate all isolated resolvent poles of the free decay.

    One damped iteration, from the polariton start (-kappa/10,
    -omega_c + Omega), for every Omega including 0. The search is
    resonant (omega_s = omega_c), every line it accepts (q-Gaussian,
    Lorentzian) is even about omega_s and its grid is symmetric about
    omega_s, so the pole map commutes with omega_j -> -2 omega_c -
    omega_j: a root is taken together with its mirror image, whose
    residue is computed at its own point. An on-axis root is its own
    image and is kept once; a root within _SIGMA_FLOOR of the cut is
    discarded as an artifact. The returned list, sorted by omega, has
    zero, one or two entries depending on the coupling regime. Every
    integral is a node sum on `grid_for_density(density)`, whose pdf is
    sampled once.
    """
    _require_resonant(params, density)
    grid = grid_for_density(density)
    rho = density.pdf(grid.omegas)
    got = _solve_pole(params, density, -params.kappa / 10.0,
                      -params.omega_c + params.Omega, grid, rho)
    if got is None:
        return []
    sigma, omega_j, resid = got
    if abs(sigma) < _SIGMA_FLOOR * params.kappa:
        log.debug("discarding cut-edge artifact at sigma = %.3g", sigma)
        return []
    mirror = -2.0 * params.omega_c - omega_j
    if abs(mirror - omega_j) < _DEDUPE_TOL:
        log.debug("pole at sigma = %.6g, %+.6g MHz is its own mirror image",
                  sigma, _offset_mhz(params, omega_j))
        omegas = [omega_j]
    else:
        omegas = sorted([omega_j, mirror])
    poles = []
    for omega in omegas:
        log.debug("pole at sigma = %.6g, %+.6g MHz", sigma, _offset_mhz(params, omega))
        weight = _residue(params, density, sigma, omega, grid, rho)
        poles.append(PoleSolution(sigma=sigma, omega=omega, residue=weight, residual=resid))
    return poles


def residue_weight(
    params: SystemParams, density: SpinDensity, sigma: float, omega_j: float
) -> complex:
    """Pole weight 1/D'(s) at s = sigma + i*omega_j.

    D'(s) = 1 - Omega^2 * Integral rho(omega) / (s + i*omega)^2 d omega,
    a node sum on `grid_for_density(density)`. A denominator within 1e-12
    of zero means a degenerate (merging) pole where the isolated-pole
    expansion breaks down; that raises.
    """
    grid = grid_for_density(density)
    return _residue(params, density, sigma, omega_j, grid, density.pdf(grid.omegas))


def _residue(
    params: SystemParams,
    density: SpinDensity,
    sigma: float,
    omega_j: float,
    grid: FrequencyGrid,
    rho: np.ndarray,
) -> complex:
    # J = Integral rho / z^2 with z = sigma + i x: the node sum of the
    # Taylor remainder plus the exact moments I_k of x^k / z^2, from
    # I0 = i [1/z] and L = Integral 1/z = -i [log(-z)]. The log is of
    # -z, whose real part -sigma > 0, so it never meets the branch cut.
    x, rem, taylor = _taylor_remainder(density, grid, rho, -omega_j)
    z = sigma + 1j * x
    j = grid.weights @ (rem / (z * z))
    if taylor is not None:
        r0, r1, r2 = taylor
        a, b = x[0], x[-1]
        za, zb = complex(sigma, a), complex(sigma, b)
        i0 = 1j * (1.0 / zb - 1.0 / za)
        i1 = -(cmath.log(-zb) - cmath.log(-za)) + 1j * sigma * i0
        i2 = sigma * sigma * i0 + 2j * sigma * i1 - (b - a)
        j += r0 * i0 + r1 * i1 + r2 * i2
    dprime = 1.0 - params.Omega**2 * j
    if abs(dprime) < 1e-12:
        raise ValueError(
            f"degenerate pole at ({sigma:g}, {omega_j:g}): |D'| = {abs(dprime):g}"
        )
    return complex(1.0 / dprime)


# ---------------------------------------------------------------------------
# branch cut


def _cut_kernel(
    params: SystemParams, density: SpinDensity, omegas: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """Complex cut integrand U(omega) = rho / ((M + i*kappa)^2 + G^2).

    M(omega) = omega - omega_c - Omega^2 * shift(omega) and
    G(omega) = pi * Omega^2 * rho(omega) are the dressed detuning and the
    ensemble absorption at the cut; ``shift`` is the Lamb shift at
    ``omegas``. The i*kappa sits inside the squared bracket: of the two
    readings of the printed kernel only this one closes the t = 0 sum
    rule and reproduces the time-domain solver (the all-real |..|^2
    variant misses both by double-digit percentages; see the
    discrimination test).
    """
    rho = density.pdf(omegas)
    om2 = params.Omega**2
    m = omegas - params.omega_c - om2 * shift
    g = math.pi * om2 * rho
    return rho / ((m + 1j * params.kappa) ** 2 + g**2)


def kernel_U(params: SystemParams, density: SpinDensity, omega):
    """Magnitude of the branch-cut spectral weight at frequency omega.

    The modulus of the complex integrand used by invert(); its peaks mark
    the dressed resonances: a single kappa-wide peak at omega_c for
    Omega -> 0, splitting into two polariton peaks near omega_c +- Omega
    at strong coupling, with peak positions satisfying
    omega_r - omega_c = Omega^2 * lamb_shift(omega_r). Any frequency is
    allowed, so the shift is the per-point `spectral.lamb_shift` on the
    density's default grid, where invert() uses `spectral.lamb_shift_nodes`
    on its cut grid; both pin the grid's two end nodes to 0.
    """
    _require_resonant(params, density)
    grid = grid_for_density(density)
    arr = np.atleast_1d(np.asarray(omega, dtype=float))
    # The shift's boundary log term diverges exactly at the truncation
    # edge; the spectral weight there is O(tail mass).
    inner = (arr != grid.omegas[0]) & (arr != grid.omegas[-1])
    shift = np.zeros(arr.shape)
    shift[inner] = lamb_shift(density, grid, arr[inner])
    out = np.abs(_cut_kernel(params, density, arr, shift))
    if np.isscalar(omega) or np.asarray(omega).ndim == 0:
        return float(out[0])
    return out


def _cut_grid(
    params: SystemParams, density: SpinDensity, t_max: float
) -> FrequencyGrid:
    # Same node policy as grid_for_density, widened so the quadrature
    # window covers both the truncated support and the polariton doublet
    # (plus headroom) when 2*Omega pokes past the support edge.
    # TODO: graded cut-grid refinement near the pole-birth coupling,
    # where the integrand width |kappa - G| drops below d_omega.
    base = grid_for_density(density, t_max)
    if density.support[1] - density.omega_s >= 2.0 * params.Omega:
        return base
    return uniform_grid(density.omega_s, base.d_omega, 2.0 * params.Omega)


def invert(
    params: SystemParams,
    density: SpinDensity,
    tgrid: TimeGrid,
    poles: list[PoleSolution] | None = None,
) -> ComplexSeries:
    """Free decay A(t) from one cavity photon, A(0) = 1, by pole + cut sum.

    Returns the slowly varying amplitude in the probe rotating frame (the
    same convention as the Volterra solver), i.e. the pole at
    s = sigma + i*omega_j contributes residue * exp((sigma + i*(omega_j +
    omega_p)) * t) and the cut contributes
    +Omega^2 * Integral e^{-i (omega - omega_p) t} U(omega) d omega.
    The t = 0 sum rule (poles + cut = 1) pins the cut orientation and is
    asserted in tests; it holds to eight digits in every coupling regime.
    The line is even and the cut grid centred on it, so U(-nu) =
    conj(U(nu)) about omega_p and the cut sum is real: one chirp-z sum
    folded onto the grid's upper half (`spectral._folded_sum`), taken
    about the grid's centre, which the resonance check holds within
    1e-12 omega_c of omega_p. The Lamb
    shift in U is one discrete Hilbert transform
    (`spectral.lamb_shift_nodes`).

    Caveat: just below the coupling where the detuned resonance pair is
    born, the cut integrand develops a feature of width |kappa - G(omega)|
    that collapses to zero at the bifurcation. The default cut grid cannot
    resolve it, and the reconstructed tail grows instead of decaying.
    Cross-check against the time-domain solver when working within a few
    percent of that coupling. The pole search also misses the pair just
    past its birth (about 19.5-20 MHz for the canonical ensemble). When
    invert finds its own poles and the t = 0 sum rule misses by more
    than _CLOSURE_TOL, it emits a RuntimeWarning with the coupling and
    the closure.
    """
    _require_resonant(params, density)
    if tgrid.t_start != 0.0:
        raise ValueError("free decay starts at t = 0")
    times = tgrid.times()
    if params.Omega == 0.0:
        return ComplexSeries(grid=tgrid, values=np.exp(-params.kappa * times))

    grid = _cut_grid(params, density, tgrid.t_end)
    own_poles = poles is None
    if own_poles:
        poles = find_poles(params, density)

    u = _cut_kernel(params, density, grid.omegas, lamb_shift_nodes(density, grid))
    vals = _folded_sum(params.Omega**2 * grid.weights * u, grid, tgrid.dt,
                       len(times)).astype(complex)
    for p in poles:
        vals += p.residue * np.exp((p.sigma + 1j * (p.omega + params.omega_p)) * times)
    closure = abs(vals[0] - 1.0)
    if own_poles and closure > _CLOSURE_TOL:
        warnings.warn(
            f"pole + cut sum misses the t = 0 closure at coupling "
            f"{angular_to_mhz(params.Omega):.6g} MHz: |A(0) - 1| = {closure:.3g} "
            f"with {len(poles)} pole(s); cross-check against volterra.solve",
            RuntimeWarning,
            stacklevel=2,
        )
    return ComplexSeries(grid=tgrid, values=vals)


# ---------------------------------------------------------------------------
# decay-rate estimators


def intensity_peaks(a2: np.ndarray) -> np.ndarray:
    """Indices of the interior |A|^2 maxima above the noise floor.

    A free decay whose amplitude changes sign passes through a node and
    revives, so each such maximum samples the intensity envelope. The
    floor is relative to |A(0)|^2, like the time-fit window, so the
    peaks found do not depend on the trace's scale.
    """
    interior = (a2[1:-1] > a2[:-2]) & (a2[1:-1] >= a2[2:])
    idx = np.nonzero(interior)[0] + 1
    return idx[a2[idx] > _PEAK_FLOOR * a2[0]]


def envelope_floor_reached(a2: np.ndarray) -> bool:
    """Whether a free decay's |A|^2 envelope has dropped three decades.

    The envelope is read over the last tenth of the trace, reaching back
    to its last interior maximum: a trace that ends inside a node is near
    zero there, but the peak before the node is not. A trace past a node
    with no later peak, its end rising, has not shown its envelope yet.
    """
    start = len(a2) - max(1, len(a2) // 10)
    peaks = intensity_peaks(a2)
    if len(peaks):
        start = min(start, peaks[-1])
    past_node = not len(peaks) and a2[-1] > a2[-2]
    return bool(not past_node and a2[start:].max() <= _ENVELOPE_DROP * a2[0])


def decay_rate_timefit(series: ComplexSeries) -> DecayRateEstimate:
    """Fit an intensity decay rate from a simulated trace.

    Oscillatory traces (at least three |A|^2 maxima above the noise floor
    and within three decades of the strongest, the drop that
    `envelope_floor_reached` asks of a free decay) get a log-linear fit
    through the peak sequence. A trace that revives from a node but has
    fewer such maxima gets a log-linear fit through its envelope: the
    t = 0 sample plus every interior maximum above the noise floor.
    Smooth traces, with no interior maximum and so no node, fall back to
    a log-linear fit over the window |A|^2 in [1e-6, 1e-1] * |A(0)|^2;
    on a trace with a node that window would end at the first zero of A
    and read the plunge into it as a decay.
    """
    a2 = series.abs2()
    t = series.times()
    if a2[0] <= 0:
        raise ValueError("trace starts at zero intensity")

    peaks = intensity_peaks(a2)
    idx = peaks[a2[peaks] > _ENVELOPE_DROP * a2[peaks].max()] if len(peaks) else peaks

    if len(idx) >= 3:
        slope = np.polyfit(t[idx], np.log(a2[idx]), 1)[0]
        note = f"{len(idx)} peaks"
    elif len(peaks):
        env = np.concatenate(([0], peaks))
        slope = np.polyfit(t[env], np.log(a2[env]), 1)[0]
        note = f"envelope fit, t = 0 and {len(peaks)} revival peak(s)"
    else:
        lo, hi = _FIT_WINDOW[0] * a2[0], _FIT_WINDOW[1] * a2[0]
        below_hi = np.nonzero(a2 < hi)[0]
        if len(below_hi) == 0:
            raise ValueError("trace never decays into the fit window")
        first = below_hi[0]
        below_lo = np.nonzero(a2[first:] < lo)[0]
        last = first + below_lo[0] if len(below_lo) else len(a2)
        if last - first < 8:
            raise ValueError(
                f"only {last - first} samples inside the fit window"
            )
        sel = slice(first, last)
        slope = np.polyfit(t[sel], np.log(a2[sel]), 1)[0]
        note = f"window fit, {last - first} samples"

    if not slope < 0:
        raise ValueError("trace does not decay")
    return DecayRateEstimate(gamma=-slope, note=note)


def gamma_markov(params: SystemParams, density: SpinDensity) -> DecayRateEstimate:
    """Golden-rule intensity rate 2*(kappa + pi*Omega^2*rho(omega_s))."""
    _require_resonant(params, density)
    rate = 2.0 * (params.kappa + math.pi * params.Omega**2 * density.pdf(params.omega_s))
    return DecayRateEstimate(gamma=rate, note="weak coupling")


def gamma_asymptotic(params: SystemParams, density: SpinDensity) -> DecayRateEstimate:
    """Polariton intensity rate kappa + pi*Omega^2*rho(omega_c + Omega).

    At strong coupling the excitation is shared half-and-half between the
    photon and the spin wave, so the cavity contributes kappa (not
    2*kappa) and the ensemble contributes its absorption at the polariton
    frequency.
    """
    _require_resonant(params, density)
    rate = params.kappa + math.pi * params.Omega**2 * density.pdf(
        params.omega_c + params.Omega
    )
    return DecayRateEstimate(gamma=rate, note="strong coupling")


def gamma_lorentz_formula(
    Omega: float, Delta: float, kappa: float
) -> tuple[DecayRateEstimate, ...]:
    """Closed-form Lorentzian rates, slow branch first.

    The intensity rates are -2 Re lambda of the characteristic roots
    `lorentz.exponents`. Below the damping boundary
    Omega = |Delta - kappa|/2 the roots are real and both branches are
    returned; above it the modes are a conjugate pair and both decay at
    Delta + kappa, with Rabi frequency 2 Im lambda_1.
    """
    roots = lorentz.exponents(lorentz.LorentzParams(Omega, Delta, kappa, eta=0.0, tau_d=0.0))
    # 0.0 - x, not -x: a vanishing slow rate stays +0.0.
    slow, fast = (0.0 - 2.0 * lam.real for lam in roots)
    if roots[0].imag == 0:
        return (DecayRateEstimate(slow, "overdamped, slow"),
                DecayRateEstimate(fast, "overdamped, fast"))
    return (DecayRateEstimate(slow, f"underdamped, Rabi {2.0 * roots[0].imag:g} rad/ns"),)


def gamma_no_broadening(Omega: float, kappa: float) -> tuple[DecayRateEstimate, ...]:
    """Rates for a broadening-free (single-frequency) ensemble.

    The Delta = 0 case of `gamma_lorentz_formula`: branches
    kappa -+ sqrt(kappa^2 - 4*Omega^2) below Omega = kappa/2, a single
    rate kappa above it with vacuum Rabi frequency sqrt(4*Omega^2 -
    kappa^2).
    """
    return gamma_lorentz_formula(Omega, 0.0, kappa)
