"""Driven cavity coupled to an inhomogeneously broadened spin ensemble.

Time-domain Volterra integration, Laplace-domain inversion and decay-rate
estimators, closed-form Lorentzian dynamics, and a scenario harness with
a CLI for reproducible runs.
"""

from .core import (
    ComplexSeries,
    DriveProtocol,
    SystemParams,
    TimeGrid,
    angular_to_mhz,
    ghz_to_angular,
    mhz_to_angular,
    phase_switched_train,
    rect_pulse,
)
from .spectral import (
    DiracDeltaDensity,
    FrequencyGrid,
    LorentzianDensity,
    QGaussianDensity,
    delta_from_fwhm,
    fwhm_relation,
    grid_for_density,
    lamb_shift,
    normalize,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexSeries",
    "DriveProtocol",
    "SystemParams",
    "TimeGrid",
    "angular_to_mhz",
    "ghz_to_angular",
    "mhz_to_angular",
    "phase_switched_train",
    "rect_pulse",
    "DiracDeltaDensity",
    "FrequencyGrid",
    "LorentzianDensity",
    "QGaussianDensity",
    "delta_from_fwhm",
    "fwhm_relation",
    "grid_for_density",
    "lamb_shift",
    "normalize",
    "__version__",
]
