"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single [PASS] line (visible with pytest -s; under
plain pytest -v the per-test PASSED/FAILED verdict carries the same
information).  Monte Carlo cross-checks use binomial standard errors
computed under the deterministic solver's value.
"""

import math
import time

import numpy as np

from jacobi_mimo.coulomb import (
    critical_thresholds,
    ergodic_density,
    ergodic_summary,
    gaussian_outage,
    outage_asymptotic,
    solve_regime,
)
from jacobi_mimo.ensemble import SnrParam, normalize_dims
from jacobi_mimo.exact import ExactConfig, outage_exact
from jacobi_mimo.montecarlo import McConfig, eigen_histogram, moments, outage_curve
from jacobi_mimo.specfun import g_closed

from _oracles import g_defining_integral, g_fn, i3_fn, log_selberg_z, quadrature

CORNERS = [(0.0, 1.0), (1.0, 1.0), (0.0, 2.0), (1.0, 2.0)]


def _report(tag: str, detail: str):
    print(f"[PASS] {tag}: {detail}")


def test_c01_flat_law_golden():
    started = time.time()
    dims = normalize_dims(2, 1, 1)
    snr = SnrParam(3.0)
    cfg = ExactConfig(dims=dims, snr=snr)
    grid = [float(r) for r in np.linspace(0.05, math.log(4.0) - 0.05, 20)]
    worst = 0.0
    for r in grid:
        worst = max(worst, abs(outage_exact(cfg, r).p - (math.exp(r) - 1.0) / 3.0))
    assert worst < 1e-9
    mc = McConfig(dims=dims, snr=snr, trials=1_000_000, seed=101)
    covered = sum(
        est.ci_low <= (math.exp(r) - 1.0) / 3.0 <= est.ci_high
        for r, est in zip(grid, outage_curve(mc, grid))
    )
    elapsed = time.time() - started
    assert covered >= 18
    assert elapsed <= 30.0
    _report("C1", f"exact worst err {worst:.1e}, MC CI coverage {covered}/20, {elapsed:.1f}s")


def test_c02_tilted_law_golden():
    dims = normalize_dims(3, 1, 1)
    snr = SnrParam(3.0)
    cfg = ExactConfig(dims=dims, snr=snr)
    err = abs(outage_exact(cfg, math.log(2.0)).p - 5.0 / 9.0)
    assert err < 1e-9
    grid = [float(r) for r in np.linspace(0.05, math.log(4.0) - 0.05, 20)]
    mc = McConfig(dims=dims, snr=snr, trials=1_000_000, seed=102)

    def truth(r):
        t = (math.exp(r) - 1.0) / 3.0
        return 2.0 * t - t * t

    covered = sum(
        est.ci_low <= truth(r) <= est.ci_high
        for r, est in zip(grid, outage_curve(mc, grid))
    )
    assert covered >= 18
    _report("C2", f"P(log 2) err {err:.1e}, MC CI coverage {covered}/20")


def test_c03_exact_vs_mc_two_channels():
    started = time.time()
    dims = normalize_dims(4, 2, 2)
    snr = SnrParam(10.0)
    cfg = ExactConfig(dims=dims, snr=snr)
    rmax = math.log1p(10.0)
    grid = [float(r) for r in np.linspace(0.05 * rmax, 0.95 * rmax, 20)]
    mc = McConfig(dims=dims, snr=snr, trials=1_000_000, seed=103)
    worst_z = 0.0
    for r, est in zip(grid, outage_curve(mc, grid)):
        pe = outage_exact(cfg, r).p
        se = math.sqrt(max(pe * (1.0 - pe), 1e-12) / mc.trials)
        z = abs(pe - est.p) / se if se else 0.0
        worst_z = max(worst_z, z)
        assert abs(pe - est.p) <= 3.0 * se + 1e-9
    elapsed = time.time() - started
    assert elapsed <= 300.0
    _report("C3", f"worst |z| {worst_z:.2f} over 20 points, {elapsed:.1f}s")


def test_c04_ergodic_consistency():
    dims = normalize_dims(24, 8, 8)
    snr = SnrParam(10.0)
    mean, var = moments(McConfig(dims=dims, snr=snr, trials=100_000, seed=104))
    erg = ergodic_summary(1.0, 1.0, snr)
    mean_err = abs(erg.r - mean)
    var_ratio = dims.Nt**2 * var / erg.v
    assert mean_err <= 0.02
    assert abs(var_ratio - 1.0) <= 0.15
    _report("C4", f"|r_erg - mean| = {mean_err:.4f}, Nt^2 var / v_erg = {var_ratio:.3f}")


def test_c05_rate_function_calculus():
    started = time.time()
    worst_rel = 0.0
    worst_peak = 0.0
    for n0, beta in CORNERS:
        rho = 10.0 if (n0, beta) == (1.0, 2.0) else 3.0
        snr = SnrParam(rho)
        rmax = math.log1p(rho)
        erg = ergodic_summary(n0, beta, snr)
        worst_peak = max(worst_peak, solve_regime(n0, beta, snr, erg.r).exponent)
        h = 1e-5 * rmax
        for r in np.linspace(0.06 * rmax, 0.94 * rmax, 30):
            sol = solve_regime(n0, beta, snr, float(r))
            ep = solve_regime(n0, beta, snr, float(r) + h).energy
            em = solve_regime(n0, beta, snr, float(r) - h).energy
            fd = (ep - em) / (2.0 * h)
            if abs(sol.k) > 1e-3:
                worst_rel = max(worst_rel, abs(fd - sol.k) / abs(sol.k))
    elapsed = time.time() - started
    assert worst_rel <= 1e-4
    assert worst_peak <= 1e-8
    assert elapsed <= 60.0
    _report(
        "C5",
        f"worst rel |E'-k| {worst_rel:.2e}, worst dE(r_erg) {worst_peak:.1e}, {elapsed:.1f}s",
    )


def test_c06_regime_boundary_continuity():
    checked = 0
    worst = 0.0
    for n0, beta in CORNERS:
        rho = 10.0 if (n0, beta) == (1.0, 2.0) else 3.0
        snr = SnrParam(rho)
        for k_c, r_c in critical_thresholds(n0, beta, snr):
            lo = solve_regime(n0, beta, snr, r_c - 1e-9)
            hi = solve_regime(n0, beta, snr, r_c + 1e-9)
            assert lo.regime != hi.regime
            worst = max(worst, abs(hi.k - lo.k), abs(hi.energy - lo.energy))
            checked += 1
    assert checked == 4  # two thresholds at (0,1), one each at (1,1), (0,2)
    assert worst <= 1e-6
    _report("C6", f"{checked} thresholds, worst |jump| {worst:.1e}")


def test_c07_deep_tail_exponent():
    dims = normalize_dims(8, 4, 4)
    snr = SnrParam(1.0)
    cfg = ExactConfig(dims=dims, snr=snr)
    lo, hi = 1e-6, math.log1p(1.0) - 1e-6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if outage_exact(cfg, mid).p < 1e-6:
            lo = mid
        else:
            hi = mid
    r_star = 0.5 * (lo + hi)
    pe = outage_exact(cfg, r_star).p
    assert 1e-7 <= pe <= 1e-5
    pl = outage_asymptotic(dims, snr, r_star).p
    rel = abs(math.log(pe) - math.log(pl)) / abs(math.log(pe))
    assert rel <= 0.20
    _report("C7", f"r*={r_star:.4f}, P_exact={pe:.2e}, P_ld={pl:.2e}, exponent err {rel:.3f}")


def test_c08_gaussian_vs_ld_ordering():
    started = time.time()
    dims = normalize_dims(18, 6, 6)
    snr = SnrParam(20.0)
    # locate the rate where the asymptotic solver predicts P ~ 1e-3, put a
    # small grid there, and compare at the point where the MC estimate is
    # closest to 1e-3
    lo, hi = 0.05 * math.log1p(20.0), ergodic_summary(1.0, 1.0, snr).r
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if outage_asymptotic(dims, snr, mid).p < 1e-3:
            lo = mid
        else:
            hi = mid
    grid = [0.5 * (lo + hi) + d for d in np.linspace(-0.03, 0.03, 5)]
    mc = McConfig(dims=dims, snr=snr, trials=10_000_000, seed=108)
    ests = outage_curve(mc, grid)
    pick = min(range(len(grid)), key=lambda i: abs(ests[i].p - 1e-3))
    r, p_mc = grid[pick], ests[pick].p
    assert p_mc > 0
    p_ld = outage_asymptotic(dims, snr, r).p
    p_gauss = gaussian_outage(dims, snr, r).p
    d_ld = abs(math.log10(p_ld) - math.log10(p_mc))
    d_gauss = abs(math.log10(p_gauss) - math.log10(p_mc))
    elapsed = time.time() - started
    assert d_ld < d_gauss
    assert elapsed <= 600.0
    _report(
        "C8",
        f"r={r:.4f}: mc={p_mc:.3e}, ld={p_ld:.3e} (dlog {d_ld:.3f}), "
        f"gauss={p_gauss:.3e} (dlog {d_gauss:.3f}), {elapsed:.0f}s",
    )


def test_c09_spectral_density_law():
    dims = normalize_dims(48, 16, 16)
    snr = SnrParam(1.0)
    erg = ergodic_summary(1.0, 1.0, snr)
    # bins wider than one eigenvalue spacing, so the histogram sees the
    # smooth limit rather than the finite-size oscillations around it
    bins = 16
    hist = eigen_histogram(McConfig(dims=dims, snr=snr, trials=10_000, seed=109), bins=bins)
    width = 1.0 / bins
    sup = 0.0
    interior = 0
    for i in range(bins):
        lo_edge, hi_edge = hist.edges[i], hist.edges[i + 1]
        if lo_edge < erg.a + width or hi_edge > erg.b - width:
            continue
        avg = quadrature(
            lambda x: ergodic_density(1.0, 1.0, x), lo_edge, hi_edge, target=1e-10
        )[0] / width
        sup = max(sup, abs(hist.density[i] - avg))
        interior += 1
    assert interior >= 10
    assert sup <= 0.05
    _report("C9", f"sup-norm {sup:.4f} over {interior} interior bins")


def test_c10_specfun_integrity():
    rng = np.random.default_rng(110)
    worst_g = 0.0
    for _ in range(200):
        x = float(10.0 ** rng.uniform(-2, 1.5))
        if rng.random() < 0.5:
            y = float(10.0 ** rng.uniform(-2, 1.5))
        else:
            y = float(-1.0 - 10.0 ** rng.uniform(-2, 1.5))
        worst_g = max(worst_g, abs(g_fn(x, y) - g_defining_integral(x, y, target=1e-12)))
    assert worst_g <= 1e-9

    worst_i3 = 0.0
    for x in np.logspace(-2, 2, 9):
        direct = -g_defining_integral(float(x), -1.0, target=1e-12)
        worst_i3 = max(worst_i3, abs(i3_fn(float(x)) - direct))
        assert i3_fn(float(x)) == -g_closed(float(x), -1.0, 0.0)
    assert worst_i3 <= 1e-9

    def inner(l1):
        return quadrature(lambda l2: (l1 - l2) ** 2, target=1e-13)[0]

    brute, _ = quadrature(inner, target=1e-12)
    selberg_err = abs(log_selberg_z(normalize_dims(4, 2, 2)) - math.log(brute))
    assert selberg_err <= 1e-10
    _report(
        "C10",
        f"G worst {worst_g:.1e}, I3 worst {worst_i3:.1e}, Selberg err {selberg_err:.1e}",
    )
