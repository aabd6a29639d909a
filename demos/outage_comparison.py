"""Compare the three outage solvers (and the Gaussian baseline) on one channel.

A 2x2 link on a 6-mode fiber at rho = 10: small enough that the exact
finite-size formula applies and Monte Carlo resolves all but the deepest
rates.  At Nt = 2 the two large-Nt approximations are both rough, so the
table gives each one's ratio to the exact outage, from 0.05 to 0.95 of
the ergodic rate.  In the tail the rate function (ld) lies below the
exact outage and the Gaussian baseline above it; which of them is closer
depends on how deep into the tail the rate is.
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

grid = [float(r) for r in np.linspace(0.05, 0.95, 19) * erg.r]
mc = outage_curve(McConfig(dims=dims, snr=snr, trials=400_000, seed=2), grid)
ecfg = ExactConfig(dims=dims, snr=snr)

print(f"{'r/r_erg':>7} {'r':>6} {'P_mc':>10} {'P_exact':>10} {'P_ld':>10} {'P_gauss':>10} {'ld/ex':>6} {'gs/ex':>6}")
for r, est in zip(grid, mc):
    pe = outage_exact(ecfg, r).p
    pl = outage_asymptotic(dims, snr, r).p
    pg = gaussian_outage(dims, snr, r).p
    print(f"{r / erg.r:7.2f} {r:6.3f} {est.p:10.3e} {pe:10.3e} {pl:10.3e} {pg:10.3e} {pl / pe:6.2f} {pg / pe:6.2f}")

print(
    "\nThe exact column tracks Monte Carlo to sampling noise.  From 0.55 r_erg up"
    "\nld is the closer approximation, within 6% of the exact outage (gauss within"
    "\n10%).  Below 0.6 r_erg ld lies under the exact outage and gauss over it,"
    "\neach further off the deeper the rate.  gauss is the closer one between"
    "\nabout 0.12 and 0.5 r_erg, ld below that: from 0.05 to 0.25 r_erg the exact"
    "\noutage grows 1300x, ld's 6400x and gauss's only 33x, so at 0.05 r_erg ld"
    "\nis low by 11x and gauss high by 55x."
)
