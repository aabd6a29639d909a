"""Watch the eigenvalue density deform as the rate constraint moves.

Conditioning the channel on a rate r away from the ergodic value tilts
the equilibrium eigenvalue gas.  Sweeping r crosses the regime
boundaries: the support detaches from or attaches to the hard walls at
0 and 1, with the Lagrange multiplier k continuous through each
transition.
"""

import numpy as np

from jacobi_mimo import SnrParam, critical_thresholds, density_at, ergodic_summary, solve_regime

n0, beta = 1.0, 1.0
snr = SnrParam(3.0)

summ = ergodic_summary(n0, beta, snr)
print(f"n0={n0}, beta={beta}, rho={snr.rho}: r_erg = {summ.r_erg:.4f}")
for k_c, r_c in critical_thresholds(n0, beta, snr):
    print(f"regime boundary at r_c = {r_c:.4f} (k_c = {k_c:.4f})")
print()

for r in (0.25, 0.45, summ.r_erg, 0.95, 1.15):
    sol = solve_regime(n0, beta, snr, float(r))
    xs = np.linspace(sol.a, sol.b, 9)[1:-1]
    profile = " ".join(f"{p:6.3f}" for p in density_at(sol, xs))
    print(
        f"r={r:5.3f}  {sol.regime:3s}  support=({sol.a:.4f}, {sol.b:.4f})  "
        f"k={sol.k:+7.3f}  dE={sol.exponent:.4f}"
    )
    print(f"          density on 7 interior points: {profile}")

print(
    "\nBelow the ergodic rate the gas squeezes toward 0 (support (0, b),"
    "\nthen detaches); above it the charge pushes toward 1.  dE is the decay"
    "\nrate of P(outage) ~ exp(-Nt^2 dE)."
)
