"""Units, system parameters, time grids, and drive protocols.

Everything downstream works in nanoseconds and angular frequency
(rad/ns). Laboratory frequencies quoted in MHz or GHz are converted on
the way in and never stored. All dynamical quantities live in the frame
rotating at the drive frequency omega_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Most samples a time grid may have (64 MiB per complex series). The largest
# example grid is max-scan's 46,801; gamma-sweep's window cap gives 81,921 at dt = 0.2.
MAX_TIME_STEPS = 2**22


def mhz_to_angular(f_mhz: float) -> float:
    """Angular frequency (rad/ns) for a laboratory frequency in MHz."""
    return TWO_PI * f_mhz * 1e-3


def ghz_to_angular(f_ghz: float) -> float:
    """Angular frequency (rad/ns) for a laboratory frequency in GHz."""
    return TWO_PI * f_ghz


def angular_to_mhz(omega: float) -> float:
    """Inverse of :func:`mhz_to_angular`."""
    return omega / TWO_PI * 1e3


@dataclass(frozen=True)
class SystemParams:
    """Cavity, ensemble and drive-frame frequencies plus the cavity loss.

    omega_c : cavity resonance (rad/ns)
    omega_s : center of the spin distribution (rad/ns)
    omega_p : drive (rotating-frame) frequency (rad/ns)
    kappa   : cavity amplitude decay rate (rad/ns)
    Omega   : collective coupling (rad/ns); the polariton splitting
              at resonance is 2*Omega

    The spins have no loss of their own: the damping of the dynamics
    comes from the inhomogeneous broadening of the line.
    """

    omega_c: float
    omega_s: float
    omega_p: float
    kappa: float
    Omega: float = 0.0

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.Omega < 0:
            raise ValueError(f"Omega must be non-negative, got {self.Omega}")
        # Rotating-wave sanity: the model drops counter-rotating terms,
        # which is only defensible for couplings tiny against the carrier.
        if not self.Omega < self.omega_c / 50.0:
            raise ValueError(
                "Omega = %g rad/ns violates the weak-coupling bound "
                "omega_c/50 = %g" % (self.Omega, self.omega_c / 50.0)
            )

    @property
    def omega_bar(self) -> complex:
        """Complex cavity detuning omega_c - omega_p - i*kappa."""
        return self.omega_c - self.omega_p - 1j * self.kappa


def require_resonant(params: SystemParams, center: float, what: str) -> None:
    """Raise ValueError unless drive, cavity, ensemble and the line shape's
    own ``center`` all coincide; ``what`` names the resonant-only analysis."""
    tol = 1e-12 * max(abs(params.omega_c), 1.0)
    if not (abs(params.omega_p - params.omega_c) <= tol
            and abs(params.omega_s - params.omega_c) <= tol
            and abs(center - params.omega_s) <= tol):
        raise ValueError(f"{what} assumes the resonant configuration "
                         "omega_p = omega_c = omega_s = line center")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n_steps samples starting at t_start."""

    t_start: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 2:
            raise ValueError(f"need at least 2 samples, got {self.n_steps}")
        if self.n_steps > MAX_TIME_STEPS:
            raise ValueError(f"{self.n_steps:,} time samples exceed the cap of {MAX_TIME_STEPS:,}")

    @property
    def t_end(self) -> float:
        return self.t_start + (self.n_steps - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps)


@dataclass(frozen=True)
class DriveProtocol:
    """Piecewise-constant complex drive amplitude.

    ``segments`` is an ordered tuple of (duration, eta) pairs; the drive
    is zero after the last segment ends (and before t = 0). An empty
    protocol means free evolution.
    """

    segments: tuple[tuple[float, complex], ...]

    def __post_init__(self):
        segs = tuple((float(d), complex(e)) for d, e in self.segments)
        for d, _ in segs:
            if not d > 0:
                raise ValueError(f"segment durations must be positive, got {d}")
        object.__setattr__(self, "segments", segs)


def rect_pulse(eta: complex, tau_d: float) -> DriveProtocol:
    """Single rectangular pulse of amplitude eta and duration tau_d."""
    return DriveProtocol(((float(tau_d), complex(eta)),))


def phase_switched_train(eta: complex, tau: float, n_pulses: int) -> DriveProtocol:
    """Train of n_pulses contiguous pulses of length tau with the drive
    phase flipped by pi between consecutive pulses: eta, -eta, eta, ...
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    eta = complex(eta)
    return DriveProtocol(
        tuple((float(tau), eta if n % 2 == 0 else -eta) for n in range(n_pulses))
    )


@dataclass
class ComplexSeries:
    """A complex-valued signal sampled on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or len(vals) != self.grid.n_steps:
            raise ValueError(
                f"series length {vals.shape} does not match grid "
                f"n_steps = {self.grid.n_steps}"
            )
        self.values = vals

    def times(self) -> np.ndarray:
        return self.grid.times()

    def abs2(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def __len__(self) -> int:
        return self.grid.n_steps
