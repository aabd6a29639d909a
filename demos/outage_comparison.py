"""Compare the three outage solvers (and the Gaussian baseline) on one channel.

A 2x2 link on a 6-mode fiber at rho = 10: small enough that the exact
finite-size formula applies, large enough that the asymptotic rate
function is already accurate.  Monte Carlo is the referee.
"""

import math

import numpy as np

from jacobi_mimo import (
    ExactConfig,
    McConfig,
    SnrParam,
    ergodic_summary,
    gaussian_outage,
    normalize_dims,
    outage_asymptotic,
    outage_curve,
    outage_exact,
)

dims = normalize_dims(6, 2, 2)
snr = SnrParam(10.0)
n0, beta = dims.n0, dims.beta

erg = ergodic_summary(n0, beta, snr)
print(f"channel: N=6, Nt=Nr=2 (n0={n0}, beta={beta}), rho={snr.rho}")
print(f"ergodic rate {erg.r:.4f} nats, peak std {math.sqrt(erg.v)/dims.Nt:.4f}\n")

grid = [float(r) for r in np.linspace(0.25, 0.95, 15) * erg.r]
mc = outage_curve(McConfig(dims=dims, snr=snr, trials=400_000, seed=2), grid)
ecfg = ExactConfig(dims=dims, snr=snr)

print(f"{'r':>7} {'P_mc':>10} {'P_exact':>10} {'P_ld':>10} {'P_gauss':>10}")
for r, est in zip(grid, mc):
    pe = outage_exact(ecfg, r).p
    pl = outage_asymptotic(dims, snr, r).p
    pg = gaussian_outage(dims, snr, r).p
    print(f"{r:7.3f} {est.p:10.3e} {pe:10.3e} {pl:10.3e} {pg:10.3e}")

print(
    "\nThe exact column tracks Monte Carlo to sampling noise; the rate-function"
    "\ncolumn stays on the right exponential slope into the tail, while the"
    "\nGaussian baseline falls off it."
)
