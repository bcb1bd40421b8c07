"""Closed-form resonant dynamics for a Lorentzian spin ensemble.

With a Lorentzian line of half-width Delta the memory kernel is a pure
exponential and the driven cavity reduces to a damped oscillator pair:

    A'' + (Delta + kappa) A' + (Omega^2 + Delta kappa) A + eta Delta = 0

during the drive, and the same homogeneous equation after switch-off.
Only the switch-on response (A(0) = 0, A'(0) = -eta) is derived. By
linearity the decay from the steady state is that state minus the
switch-on response delayed by tau_d, and a pulse of length tau_d is the
switch-on response minus the same response delayed by tau_d. Every
signal is evaluated in one two-mode form, const + a e^{l2 x} +
b (e^{l1 x} - e^{l2 x})/(l1 - l2), real through the overdamped regime
and const + (a + b x) e^{l x} where the roots merge (critical damping);
the docstrings give the equivalent textbook trig forms. The module also
gives the exact first post-pulse extremum and the analytic overshoot
estimate for comparison (the two disagree by a known prefactor; the
exact extremum is the ground truth).

All quantities are real at resonance; functions accept scalar or array
times and return real values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_THRESHOLD_TOL = 2.0 * math.pi * 1e-7  # rad/ns, i.e. 1e-4 * 2 pi MHz


@dataclass(frozen=True)
class LorentzParams:
    """Resonant Lorentzian-ensemble problem: coupling, linewidth, cavity
    loss, drive amplitude and drive duration (all rates in rad/ns)."""

    Omega: float
    Delta: float
    kappa: float
    eta: float
    tau_d: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.Delta < 0 or self.Omega < 0:
            raise ValueError("rates must be non-negative")
        if self.tau_d < 0:
            raise ValueError(f"tau_d must be non-negative, got {self.tau_d}")


def exponents(p: LorentzParams) -> tuple[complex, complex]:
    """Characteristic roots lambda_{1,2} = [-(Delta+kappa) +- sqrt((Delta-kappa)^2 - 4 Omega^2)]/2."""
    root = cmath.sqrt(complex((p.Delta - p.kappa) ** 2 - 4.0 * p.Omega**2))
    s = p.Delta + p.kappa
    return ((-s + root) / 2.0, (-s - root) / 2.0)


def rabi_frequency(p: LorentzParams) -> float:
    """Underdamped oscillation frequency Omega_R = sqrt(4 Omega^2 - (Delta-kappa)^2)."""
    disc = 4.0 * p.Omega**2 - (p.Delta - p.kappa) ** 2
    if disc <= 0:
        raise ValueError(
            "overdamped: 4 Omega^2 <= (Delta - kappa)^2; no Rabi frequency "
            f"(Omega = {p.Omega}, Delta = {p.Delta}, kappa = {p.kappa})"
        )
    return math.sqrt(disc)


def steady_values(p: LorentzParams) -> tuple[float, float]:
    """Driven steady state (A_st, J_x_st) = (-Delta eta, eta Omega / 2) / (Omega^2 + Delta kappa)."""
    denom = p.Omega**2 + p.Delta * p.kappa
    return (-p.Delta * p.eta / denom, p.eta * p.Omega / (2.0 * denom))


def _evaluate(form, x):
    const, (a, b), (l1, l2) = form
    e2 = np.exp(l2 * x)
    # The divided difference tends to x e^{l x} as the roots merge.
    dd = x * e2 if l1 == l2 else (np.exp(l1 * x) - e2) / (l1 - l2)
    out = (const + a * e2 + b * dd).real
    return out if out.shape else float(out)


def cavity_on(p: LorentzParams, t):
    """Cavity amplitude during the drive (t measured from switch-on).

    A(t) = -Delta eta/(Omega^2 + Delta kappa)
           + eta e^{-(Delta+kappa) t/2} / (2 Omega_R (Omega^2 + Delta kappa))
             * [2 Omega_R Delta cos(Omega_R t/2) - (Omega_R^2 - Delta^2 + kappa^2) sin(Omega_R t/2)]
    """
    return _evaluate(_form(p, "cavity_on"), np.asarray(t, dtype=float))


def spin_on(p: LorentzParams, t):
    """Collective spin J_x during the drive.

    J_x(t) = eta Omega/(2 (Omega^2 + Delta kappa))
             - eta Omega e^{-(Delta+kappa) t/2} / (2 Omega_R (Omega^2 + Delta kappa))
               * [(Delta + kappa) sin(Omega_R t/2) + Omega_R cos(Omega_R t/2)]
    """
    return _evaluate(_form(p, "spin_on"), np.asarray(t, dtype=float))


def cavity_off(p: LorentzParams, t):
    """Cavity amplitude after switch-off from the steady state (t >= tau_d).

    A(t) = eta e^{-(Delta+kappa)(t-tau_d)/2} / (2 Omega_R (Omega^2 + Delta kappa))
           * [-2 Omega_R Delta cos(Omega_R (t-tau_d)/2)
              + (Omega_R^2 - Delta^2 + kappa^2) sin(Omega_R (t-tau_d)/2)]
    """
    return _evaluate(_form(p, "cavity_off"), np.asarray(t, dtype=float) - p.tau_d)


def spin_off(p: LorentzParams, t):
    """Collective spin J_x after switch-off from the steady state (t >= tau_d).

    J_x(t) = eta Omega e^{-(Delta+kappa)(t-tau_d)/2} / (2 Omega_R (Omega^2 + Delta kappa))
             * [(Delta + kappa) sin(Omega_R (t-tau_d)/2) + Omega_R cos(Omega_R (t-tau_d)/2)]
    """
    return _evaluate(_form(p, "spin_off"), np.asarray(t, dtype=float) - p.tau_d)


def modal_form(p: LorentzParams, phase: str):
    """Exponential-mode representation (offset, coefficients, roots).

    Returns (const, (c1, c2), (l1, l2)) such that the signal equals
    const + c1 e^{l1 x} + c2 e^{l2 x} with x measured from the phase
    start. Phases: "cavity_on", "spin_on", "cavity_off", "spin_off".
    The spin coefficients are zero at Omega = 0. At critical damping the
    roots merge and no such form exists: ZeroDivisionError.
    """
    const, (a, b), (l1, l2) = _form(p, phase)
    c1 = b / (l1 - l2)
    return const, (c1, a - c1), (l1, l2)


def _form(p: LorentzParams, phase: str):
    """(const, (a, b), (l1, l2)) of a phase, as `_evaluate` reads it. An
    off phase is the steady state minus the on phase: the on coefficients
    negated, with constant 0."""
    if phase not in ("cavity_on", "spin_on", "cavity_off", "spin_off"):
        raise ValueError(f"unknown phase {phase!r}")
    l1, l2 = roots = exponents(p)
    const, j_st = steady_values(p)
    a = 0.0 - const  # const + a = 0 and l2 a + b = -eta
    b = -p.eta - l2 * a
    if phase.startswith("spin"):
        # J_x = (A' + kappa A + eta) / (2 Omega), A' being (l2 a + b, l1 b);
        # the spins decouple (J_x = 0) at Omega = 0.
        const = j_st
        if p.Omega == 0:
            a = b = 0.0
        else:
            a, b = ((l2 + p.kappa) * a + b) / (2 * p.Omega), (l1 + p.kappa) * b / (2 * p.Omega)
    if phase.endswith("_off"):
        return 0.0, (-a, -b), roots
    return const, (a, b), roots


def pulse_response(p: LorentzParams, t):
    """(A, J_x) through a rectangular pulse of any length tau_d.

    A rectangular pulse is a switch-on minus the same switch-on delayed
    by tau_d, so each signal is its on form up to tau_d and on(t) -
    on(t - tau_d) after it. That is evaluated as off(t - tau_d) - off(t),
    two decays from the steady state with no constant term: on(t) -
    on(t - tau_d) would cancel the steady state to ~1e-16 of it and lose
    the ring-down's tail.
    """
    t = np.asarray(t, dtype=float)
    x = np.maximum(t - p.tau_d, 0.0)
    out = []
    for signal in ("cavity", "spin"):
        off = _form(p, f"{signal}_off")
        out.append(np.where(t <= p.tau_d, _evaluate(_form(p, f"{signal}_on"), t),
                            _evaluate(off, x) - _evaluate(off, t)))
    return tuple(out)


def overshoot_first_peak(p: LorentzParams) -> tuple[float, float]:
    """First extremum of A(t) after switch-off from the steady state.

    A' vanishes first at t1 = 2 arccos(-(Delta-kappa)/(2 Omega)) / Omega_R
    past tau_d, where A_1 = eta Omega e^{-(Delta+kappa) t1/2} / (Omega^2 + Delta kappa);
    returns (tau_d + t1, A_1^2).
    """
    t1 = 2.0 * math.acos(-(p.Delta - p.kappa) / (2.0 * p.Omega)) / rabi_frequency(p)
    a1 = p.eta * p.Omega / (p.Omega**2 + p.Delta * p.kappa)
    return p.tau_d + t1, a1**2 * math.exp(-(p.Delta + p.kappa) * t1)


def overshoot_formula(p: LorentzParams) -> float:
    """Analytic first-peak estimate

        A_1^2 = A_st^2 exp(-(2(Delta+kappa)/Omega_R) arccos[-(Delta-kappa)/(2 Omega)]).

    As written this can never exceed A_st^2, while the exact peak
    (`overshoot_first_peak`) does for strong coupling: it is this value
    times (Omega/Delta)^2. Both values are reported by the tooling rather
    than patching the expression.
    """
    wr = rabi_frequency(p)
    a_st, _ = steady_values(p)
    arg = -(p.Delta - p.kappa) / (2.0 * p.Omega)
    return a_st**2 * math.exp(-(2.0 * (p.Delta + p.kappa) / wr) * math.acos(arg))


def overshoot_threshold(delta: float, kappa: float) -> float:
    """Coupling at which the first post-pulse peak equals the steady state.

    Bisects Omega between the damping boundary |Delta-kappa|/2 (where the
    peak amplitude vanishes) and a strong-coupling upper end; requires
    Delta > kappa so switch-off dynamics actually decay faster than the
    drive phase. Bisects to within _THRESHOLD_TOL.
    """
    if not delta > kappa:
        raise ValueError("threshold search assumes Delta > kappa")

    def excess(omega: float) -> float:
        p = LorentzParams(Omega=omega, Delta=delta, kappa=kappa, eta=1.0, tau_d=0.0)
        a_st, _ = steady_values(p)
        _, peak2 = overshoot_first_peak(p)
        return peak2 - a_st**2

    lo = (delta - kappa) / 2.0 * (1.0 + 1e-9)
    hi = max(4.0 * delta, 8.0 * kappa)
    while excess(hi) <= 0:
        hi *= 2.0
        if hi > 1e3 * delta:
            raise RuntimeError("no overshoot found up to 1000x Delta")
    while hi - lo > _THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def equivalent_lorentzian(omega_r_target: float, a_st_target: float,
                          kappa: float, eta: float) -> tuple[float, float]:
    """Fit (Omega, Delta) so the Lorentzian model reproduces a target
    Rabi frequency and steady-state amplitude.

    From A_st = -eta/(Omega^2/Delta + kappa), the ratio G = Omega^2/Delta
    is fixed by the steady state; Omega_R^2 = 4 G Delta - (Delta-kappa)^2
    then gives a quadratic for Delta (small root; the large root puts the
    system overdamped).
    """
    g = eta / abs(a_st_target) - kappa
    if g <= 0:
        raise ValueError("steady-state target shallower than the bare cavity")
    b = 4.0 * g + 2.0 * kappa
    disc = b**2 - 4.0 * (omega_r_target**2 + kappa**2)
    if disc < 0:
        raise ValueError("no Lorentzian matches the requested pair")
    delta = (b - math.sqrt(disc)) / 2.0
    return math.sqrt(g * delta), delta
