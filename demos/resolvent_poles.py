"""First-sheet resonances of the cavity-ensemble response.

Scan the coupling and count the isolated poles of the Laplace-domain
response on the first sheet. Three bands appear:

  * below about 1.6 MHz a single overdamped pole sits at the cavity
    line: ordinary cavity decay, sped up by the ensemble;
  * in the middle band no first-sheet pole survives. The would-be
    resonance is swallowed by the continuum and the decay is carried by
    the branch cut alone. It is not a smooth exponential: the amplitude
    passes through nodes and revives (at 2.25 MHz: node at 232 ns,
    revival peak at 277 ns), and the revivals grow into damped Rabi
    oscillations well before the pole pair appears;
  * beyond about 20 MHz a symmetric polariton pair emerges, split by
    roughly the Rabi frequency and narrower than the bare ensemble:
    the protected regime.

Also cross-checks the pole-plus-cut reconstruction of the free decay
against the time-domain solver at the working coupling. Runs in under a
second. Saves resolvent_poles.png when matplotlib is importable.
"""

import numpy as np

from cavityspin import (
    QGaussianDensity,
    SystemParams,
    TimeGrid,
    angular_to_mhz,
    delta_from_fwhm,
    ghz_to_angular,
    mhz_to_angular,
    rect_pulse,
)
from cavityspin import laplace, volterra

OMEGA_C = ghz_to_angular(2.6915)
KAPPA = mhz_to_angular(0.8)
DENSITY = QGaussianDensity(q=1.39, delta=delta_from_fwhm(1.39, mhz_to_angular(9.4)),
                           omega_s=OMEGA_C)


def system(coupling_mhz):
    return SystemParams(omega_c=OMEGA_C, kappa=KAPPA,
                        Omega=mhz_to_angular(coupling_mhz),
                        omega_s=OMEGA_C, omega_p=OMEGA_C)


print(f"{'Omega':>6}  {'poles':>5}  half-rate |sigma| and splitting, MHz")
for coupling in [0.5, 1.0, 1.5, 1.7, 3.0, 10.0, 20.5, 25.0, 30.0]:
    poles = laplace.find_poles(system(coupling), DENSITY)
    # Pole frequencies carry the e^{i omega t} phase convention, so the
    # splitting from the cavity line is omega + omega_c.
    parts = ", ".join(
        f"({angular_to_mhz(abs(p.sigma)):.3f}, "
        f"{angular_to_mhz(p.omega + OMEGA_C):+.3f})"
        for p in poles
    )
    print(f"{coupling:6.2f}  {len(poles):5d}  {parts}")

params = system(8.56)
tgrid = TimeGrid(0.0, 0.1, 2001)
marched = volterra.solve(params, DENSITY, rect_pulse(0.0, 1.0), tgrid, a0=1.0)
recon = laplace.invert(params, DENSITY, tgrid)
err = np.abs(marched.values - recon.values).max() / np.abs(marched.values).max()
print(f"reconstruction vs time-domain march at 8.56 MHz: "
      f"L-inf relative error {err:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    t = tgrid.times()
    fig, ax = plt.subplots(figsize=(7.0, 4.0))
    ax.semilogy(t, marched.abs2(), lw=1.0, label="time-domain march")
    ax.semilogy(t, recon.abs2(), lw=0.8, ls="--", label="pole + cut sum")
    ax.set_xlabel("t (ns)")
    ax.set_ylabel("|A|^2")
    ax.set_title("Single-photon free decay, 8.56 MHz coupling")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("resolvent_poles.png", dpi=150)
    print("wrote resolvent_poles.png")
