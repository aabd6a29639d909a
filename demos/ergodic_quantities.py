"""Ergodic rate and rate variance against Monte Carlo, across SNR.

The asymptotic mean r_erg and peak variance v_erg/Nt^2 are computed for
an 8x8 link on a 24-mode fiber and checked against sampled moments.
The agreement at Nt=8 shows how quickly the large-channel limit bites.
"""


from jacobi_mimo import McConfig, SnrParam, ergodic_summary, moments, normalize_dims

dims = normalize_dims(24, 8, 8)
n0, beta = float(dims.n0), float(dims.beta)

print(f"channel: N=24, Nt=Nr=8 (n0={n0}, beta={beta})")
print(f"{'rho':>6} {'r_erg':>8} {'mc mean':>9} {'v_erg':>8} {'Nt^2 var':>9} {'support':>20}")
for rho in (1.0, 3.0, 10.0, 30.0):
    snr = SnrParam(rho)
    erg = ergodic_summary(n0, beta, snr)
    mean, var = moments(McConfig(dims=dims, snr=snr, trials=40_000, seed=7))
    print(
        f"{rho:6.1f} {erg.r:8.4f} {mean:9.4f} {erg.v:8.4f} "
        f"{dims.Nt**2 * var:9.4f} ({erg.a:.4f}, {erg.b:.4f})"
    )

print("\nfor scale: the 1/Nt correction to the mean is O(0.01) nats here,")
print("and the eigenvalue support is SNR-independent (a property of the gas).")
