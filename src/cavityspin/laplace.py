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

Only the pole search and the pole weights need adaptive quadrature;
`_pole_map` and `residue_weight` import scipy.integrate when called, so
importing this module (as every time-domain run does) loads numpy only.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import ComplexSeries, SystemParams, TimeGrid
from .spectral import (
    DiracDeltaDensity,
    FrequencyGrid,
    SpinDensity,
    _node_sum,
    grid_for_density,
    lamb_shift,
    lamb_shift_nodes,
    uniform_grid,
)

log = logging.getLogger(__name__)

# Estimator labels carried by DecayRateEstimate.method.
TIME_FIT = "TimeFit"
MARKOV = "Markov"
ASYMPTOTIC = "Asymptotic"
LORENTZ_FORMULA = "LorentzFormula"
NO_BROADENING = "NoBroadening"
_METHODS = (TIME_FIT, MARKOV, ASYMPTOTIC, LORENTZ_FORMULA, NO_BROADENING)

_MAX_ITER = 400
_DAMPING = 0.5
_POLE_TOL = 1e-10
_DEDUPE_TOL = 1e-6
# Iterates contracting onto the branch cut (sigma -> 0^-) are not poles;
# anything this close to the axis is discarded as a cut-edge artifact.
_SIGMA_FLOOR = 1e-6

_PEAK_FLOOR = 1e-12
_PEAK_DECADES = 1e-3
_FIT_WINDOW = (1e-6, 1e-1)


@dataclass(frozen=True)
class PoleSolution:
    """One isolated resolvent pole s = sigma + i*omega (lab frame).

    sigma    : real part, rad/ns; always negative for a stable mode
    omega    : imaginary-axis coordinate, rad/ns (near -omega_c: the
               amplitude rotates with the carrier)
    residue  : complex pole weight 1/D'(s); the t = 0 amplitude this
               pole contributes
    residual : normalized fixed-point residual at (sigma, omega)
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
    """An intensity decay rate with the method that produced it."""

    gamma: float
    method: str
    note: str = ""

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not self.gamma >= 0:
            raise ValueError(f"decay rate must be >= 0, got {self.gamma}")


def _require_resonant(params: SystemParams, density: SpinDensity) -> None:
    if not params.is_resonant:
        raise ValueError(
            "Laplace analysis assumes the resonant configuration "
            "omega_p = omega_c = omega_s"
        )
    if abs(density.omega_s - params.omega_s) > 1e-12 * max(abs(params.omega_c), 1.0):
        raise ValueError("density center does not match params.omega_s")
    if params.gamma != 0:
        raise ValueError("single-spin loss is not part of the pole equations")
    if isinstance(density, DiracDeltaDensity):
        raise ValueError(
            "delta density has no branch cut; use the closed-form "
            "Rabi solution instead"
        )


# ---------------------------------------------------------------------------
# poles


def _quad_points(center: float, width: float, lo: float, hi: float) -> list[float]:
    # Hints for scipy.quad: the integrand has a Lorentzian spike of
    # half-width |sigma| at omega = -omega_j which adaptive subdivision
    # finds much faster when told where to look.
    pts = [center + f * width for f in (-50.0, -5.0, 0.0, 5.0, 50.0)]
    return [p for p in pts if lo < p < hi]


def _pole_map(
    params: SystemParams, density: SpinDensity, sigma: float, omega_j: float
) -> tuple[float, float]:
    """One application of the coupled fixed-point equations."""
    from scipy.integrate import IntegrationWarning, quad

    lo, hi = density.support
    s2 = sigma * sigma
    pts = _quad_points(-omega_j, abs(sigma), lo, hi)
    kwargs = dict(points=pts or None, limit=300, epsabs=1e-12, epsrel=1e-10)

    def den(w: float) -> float:
        x = omega_j + w
        return s2 + x * x

    # quad grumbles about the needle spike while an iterate is collapsing
    # onto the cut; accepted poles are re-verified through their stored
    # residual, so the internal error estimate is not the arbiter here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        i2 = quad(lambda w: density.pdf(w) / den(w), lo, hi, **kwargs)[0]
        i1 = quad(
            lambda w: density.pdf(w) * (omega_j + w) / den(w), lo, hi, **kwargs
        )[0]
    om2 = params.Omega**2
    sigma_next = -params.kappa / (1.0 + om2 * i2)
    omega_next = -params.omega_c + om2 * i1
    return sigma_next, omega_next


def _solve_pole(
    params: SystemParams, density: SpinDensity, sigma0: float, omega0: float
) -> tuple[float, float, float] | None:
    """Damped fixed-point iteration from one starting guess.

    Returns (sigma, omega, residual) or None when the iteration fails to
    settle, which is the expected outcome in the pole-free window.
    """
    sigma, omega_j = sigma0, omega0
    omega_scale = max(abs(params.omega_c), 1.0)
    shrink = 0
    for _ in range(_MAX_ITER):
        if abs(sigma) < 1e-8 * params.kappa:
            # Collapsed onto the cut: no genuine root on this branch, and
            # letting sigma shrink further starves the quadrature spike.
            return None
        sigma_next, omega_next = _pole_map(params, density, sigma, omega_j)
        # Near a true root sigma_next/sigma -> 1; a run of order-of-
        # magnitude drops means the iterate is racing toward the cut, so
        # stop paying for needle quadratures and call it rootless.
        if abs(sigma_next) < 0.1 * abs(sigma) and abs(sigma_next) < 0.01 * params.kappa:
            shrink += 1
            if shrink >= 3:
                return None
        else:
            shrink = 0
        resid = max(
            abs(sigma_next - sigma) / params.kappa,
            abs(omega_next - omega_j) / omega_scale,
        )
        if resid < 0.5 * _POLE_TOL:
            return sigma, omega_j, resid
        # The bare omega update has slope ~ -1 near the symmetric pair, so
        # undamped iteration ping-pongs; 0.5 damping makes it contract.
        sigma += _DAMPING * (sigma_next - sigma)
        omega_j += _DAMPING * (omega_next - omega_j)
    return None


def find_poles(params: SystemParams, density: SpinDensity) -> list[PoleSolution]:
    """Locate all isolated resolvent poles of the free decay.

    Multistart damped iteration: one start at the bare-cavity point
    (-kappa, -omega_c) and, for Omega > 0, one near each polariton at
    (-kappa/10, -omega_c -+ Omega). Converged duplicates are merged and
    near-axis artifacts discarded, so the returned list has zero, one or
    two entries depending on the coupling regime.
    """
    _require_resonant(params, density)
    starts = [(-params.kappa, -params.omega_c)]
    if params.Omega > 0:
        starts.append((-params.kappa / 10.0, -params.omega_c + params.Omega))
        starts.append((-params.kappa / 10.0, -params.omega_c - params.Omega))

    poles: list[PoleSolution] = []
    for sigma0, omega0 in starts:
        got = _solve_pole(params, density, sigma0, omega0)
        if got is None:
            log.debug(
                "pole search from (%.3g, %.3g) did not converge", sigma0, omega0
            )
            continue
        sigma, omega_j, resid = got
        if abs(sigma) < _SIGMA_FLOOR * params.kappa:
            log.debug("discarding cut-edge artifact at sigma = %.3g", sigma)
            continue
        if any(
            abs(sigma - p.sigma) < _DEDUPE_TOL
            and abs(omega_j - p.omega) < _DEDUPE_TOL
            for p in poles
        ):
            continue
        weight = residue_weight(params, density, sigma, omega_j)
        poles.append(
            PoleSolution(sigma=sigma, omega=omega_j, residue=weight, residual=resid)
        )
    poles.sort(key=lambda p: p.omega)
    return poles


def residue_weight(
    params: SystemParams, density: SpinDensity, sigma: float, omega_j: float
) -> complex:
    """Pole weight 1/D'(s) at s = sigma + i*omega_j.

    D'(s) = 1 - Omega^2 * Integral rho(omega) / (s + i*omega)^2 d omega.
    A denominator within 1e-12 of zero means a degenerate (merging) pole
    where the isolated-pole expansion breaks down; that raises.
    """
    from scipy.integrate import IntegrationWarning, quad

    lo, hi = density.support
    s2 = sigma * sigma
    pts = _quad_points(-omega_j, abs(sigma), lo, hi)
    kwargs = dict(points=pts or None, limit=300, epsabs=1e-12, epsrel=1e-10)

    # 1/(sigma + i x)^2 = (sigma^2 - x^2 - 2 i sigma x) / (sigma^2 + x^2)^2
    def j1(w: float) -> float:
        x = omega_j + w
        d = s2 + x * x
        return density.pdf(w) * (s2 - x * x) / (d * d)

    def j2(w: float) -> float:
        x = omega_j + w
        d = s2 + x * x
        return density.pdf(w) * x / (d * d)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        v1 = quad(j1, lo, hi, **kwargs)[0]
        v2 = quad(j2, lo, hi, **kwargs)[0]
    dprime = 1.0 - params.Omega**2 * complex(v1, -2.0 * sigma * v2)
    if abs(dprime) < 1e-12:
        raise ValueError(
            f"degenerate pole at ({sigma:g}, {omega_j:g}): |D'| = {abs(dprime):g}"
        )
    return 1.0 / dprime


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
    The cut sum is one chirp-z sum (`spectral._node_sum`) and the Lamb
    shift in U one discrete Hilbert transform (`spectral.lamb_shift_nodes`).

    Caveat: just below the coupling where the detuned resonance pair is
    born, the cut integrand develops a feature of width |kappa - G(omega)|
    that collapses to zero at the bifurcation. The default cut grid cannot
    resolve it, and the reconstructed tail grows instead of decaying.
    Cross-check against the time-domain solver when working within a few
    percent of that coupling.
    """
    _require_resonant(params, density)
    if tgrid.t_start != 0.0:
        raise ValueError("free decay starts at t = 0")
    times = tgrid.times()
    if params.Omega == 0.0:
        return ComplexSeries(grid=tgrid, values=np.exp(-params.kappa * times))

    grid = _cut_grid(params, density, tgrid.t_end)
    if poles is None:
        poles = find_poles(params, density)

    u = _cut_kernel(params, density, grid.omegas, lamb_shift_nodes(density, grid))
    vals = _node_sum(params.Omega**2 * grid.weights * u, grid, params.omega_p,
                     tgrid.dt, len(times))
    for p in poles:
        vals += p.residue * np.exp((p.sigma + 1j * (p.omega + params.omega_p)) * times)
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


def decay_rate_timefit(series: ComplexSeries) -> DecayRateEstimate:
    """Fit an intensity decay rate from a simulated trace.

    Oscillatory traces (at least three |A|^2 maxima above the noise floor
    and within three decades of the strongest) get a log-linear fit
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
    idx = peaks[a2[peaks] > _PEAK_DECADES * a2[peaks].max()] if len(peaks) else peaks

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
    return DecayRateEstimate(gamma=-slope, method=TIME_FIT, note=note)


def gamma_markov(params: SystemParams, density: SpinDensity) -> DecayRateEstimate:
    """Golden-rule intensity rate 2*(kappa + pi*Omega^2*rho(omega_s))."""
    _require_resonant(params, density)
    rate = 2.0 * (params.kappa + math.pi * params.Omega**2 * density.pdf(params.omega_s))
    return DecayRateEstimate(gamma=rate, method=MARKOV, note="weak coupling")


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
    return DecayRateEstimate(gamma=rate, method=ASYMPTOTIC, note="strong coupling")


def gamma_lorentz_formula(
    Omega: float, Delta: float, kappa: float
) -> tuple[DecayRateEstimate, ...]:
    """Closed-form Lorentzian rates, slow branch first.

    Below the damping boundary Omega = |Delta - kappa|/2 the two real
    branches Delta + kappa -+ sqrt((Delta-kappa)^2 - 4*Omega^2) are
    returned; above it the modes are a conjugate pair and both decay at
    Delta + kappa.
    """
    disc = (Delta - kappa) ** 2 - 4.0 * Omega**2
    base = Delta + kappa
    if disc >= 0:
        root = math.sqrt(disc)
        return (
            DecayRateEstimate(base - root, LORENTZ_FORMULA, "overdamped, slow"),
            DecayRateEstimate(base + root, LORENTZ_FORMULA, "overdamped, fast"),
        )
    freq = math.sqrt(-disc)
    return (
        DecayRateEstimate(base, LORENTZ_FORMULA, f"underdamped, Rabi {freq:g} rad/ns"),
    )


def gamma_no_broadening(Omega: float, kappa: float) -> tuple[DecayRateEstimate, ...]:
    """Rates for a broadening-free (single-frequency) ensemble.

    The Delta = 0 case of `gamma_lorentz_formula`: branches
    kappa -+ sqrt(kappa^2 - 4*Omega^2) below Omega = kappa/2, a single
    rate kappa above it with vacuum Rabi frequency sqrt(4*Omega^2 -
    kappa^2).
    """
    return tuple(replace(e, method=NO_BROADENING)
                 for e in gamma_lorentz_formula(Omega, 0.0, kappa))
