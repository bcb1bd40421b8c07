"""Single-photon decay rate versus collective coupling.

Sweep the coupling with one photon in the cavity and no drive, fit the
intensity decay, and compare against the closed-form estimates. Three
regimes show up:

  * weak coupling: the golden-rule (Markov) rate tracks the fit, decay
    accelerates with coupling;
  * intermediate band (roughly 2 to 4 MHz): decay is fastest here. The
    amplitude passes through a node and revives (at 2.25 MHz: node at
    232 ns, revival peak at 277 ns), but with too few revival peaks for
    a peak-sequence fit the rate comes from the envelope through t = 0
    and the revival peaks. The sweep's maximum rate sits near 2 MHz;
  * strong coupling: Rabi oscillations return and the fitted rate falls
    toward the unbroadened floor kappa. This is the cavity protection
    effect: more coupling, slower decay.

Runs in a few seconds. Saves decay_vs_coupling.png when matplotlib is
importable.
"""

from cavityspin.harness import ScenarioConfig, run_scenario

couplings = [0.5, 1.0, 1.5, 2.25, 3.0, 4.0, 5.0, 6.5, 8.56,
             12.5, 17.5, 25.0, 30.0]

config = ScenarioConfig.from_mapping({
    "scenario": "gamma-sweep",
    "system": {"cavity_ghz": 2.6915, "kappa_mhz": 0.8, "coupling_mhz": 8.56},
    "density": {"kind": "qgauss", "q": 1.39, "fwhm_mhz": 9.4},
    "grid": {"dt_ns": 0.2},
    "sweep": [{"parameter": "coupling_mhz", "values": couplings}],
})

table = run_scenario(config)
om = table.column("Omega_mhz")
fit = table.column("Gamma_timefit_mhz")
markov = table.column("Gamma_markov_mhz")
asym = table.column("Gamma_asymptotic_mhz")
nob = table.column("Gamma_nobroadening_mhz")

print(f"{'Omega':>6}  {'fit':>9}  {'Markov':>9}  {'asymptote':>9}  {'floor':>6}")
for i in range(table.n_rows):
    print(f"{om[i]:6.2f}  {fit[i]:9.4f}  {markov[i]:9.4f}  "
          f"{asym[i]:9.4f}  {nob[i]:6.3f}")
print("(intensity rates, MHz; floor = no-broadening lower bound)")
i_max = fit.argmax()
at_25 = om == 25.0
print(f"fit at 25 MHz / fit maximum = {fit[at_25][0] / fit[i_max]:.3f}; "
      f"above the floor: "
      f"{(fit[at_25][0] - nob[at_25][0]) / (fit[i_max] - nob[i_max]):.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6.0, 4.2))
    ax.semilogy(om, fit, "o-", label="time-domain fit")
    ax.semilogy(om, markov, "s--", label="golden rule")
    ax.semilogy(om, asym, "^--", label="large-coupling asymptote")
    ax.semilogy(om, nob, ":", color="gray", label="no-broadening floor")
    ax.set_xlabel("coupling Omega / 2*pi (MHz)")
    ax.set_ylabel("intensity decay rate (MHz)")
    ax.set_title("Decay rate vs coupling")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("decay_vs_coupling.png", dpi=150)
    print("wrote decay_vs_coupling.png")
