import dataclasses
import itertools
import logging
import math

import mpmath
import numpy as np
import pytest

from jacobi_mimo import coulomb
from jacobi_mimo.coulomb import (
    _variance,
    critical_thresholds,
    density_asymptotic,
    density_at,
    ergodic_density,
    ergodic_summary,
    gaussian_outage,
    outage_asymptotic,
    rate_exponent,
    solve_at_multiplier,
    solve_regime,
)
from jacobi_mimo.ensemble import SnrParam, normalize_dims

from _oracles import (
    density_mass_and_rate, density_pole_sum_mp, energy_functional, energy_pole_sums_mp, quadrature,
)

SNR3 = SnrParam(3.0)
CORNERS = [(0.0, 1.0, 3.0), (1.0, 1.0, 3.0), (0.0, 2.0, 3.0), (1.0, 2.0, 10.0)]


def _channel(n0, beta, nt):
    """The channel (Nt(1+beta+n0), Nt, beta Nt), whose dims give back n0 and beta exactly."""
    dims = normalize_dims(round(nt * (1.0 + beta + n0)), nt, round(beta * nt))
    assert (dims.n0, dims.beta) == (n0, beta)
    return dims


def test_ergodic_summary_golden_corner():
    erg = ergodic_summary(0.0, 1.0, SNR3)
    assert (erg.a, erg.b) == (0.0, 1.0)
    assert abs(erg.r - math.log(9.0 / 4.0)) < 1e-12
    assert abs(erg.v - math.log(9.0 / 8.0)) < 1e-12
    assert abs(erg.e0 - 2.0 * math.log(2.0)) < 1e-12


def test_ergodic_support_within_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n0 = float(rng.uniform(0.0, 3.0))
        beta = float(rng.uniform(1.0, 4.0))
        erg = ergodic_summary(n0, beta, SNR3)
        assert 0.0 <= erg.a < erg.b <= 1.0
        assert erg.v > 0.0


@pytest.mark.parametrize("n0", [0.25, 1.0 / 3.0, 1.0, 2.0])
def test_ergodic_rate_saturates_at_extreme_rho(n0):
    # S0b at beta = 1: r_erg - log(rho) has converged by rho = 1e30, and the
    # edge root must keep solving far beyond it
    ref = ergodic_summary(n0, 1.0, SnrParam(1e30)).r - math.log(1e30)
    for rho in (1e32, 1e60, 1e150):
        gap = ergodic_summary(n0, 1.0, SnrParam(rho)).r - math.log(rho)
        assert abs(gap - ref) <= 1e-12 * abs(ref)


CHANNELS_16 = [(n0, beta) for n0 in (0.0, 0.25, 1.0, 3.0) for beta in (1.0, 1.1, 2.0, 4.0)]


@pytest.mark.parametrize(
    "rho", [1e-12, 1e-6, 0.01, 0.1, 1.0, 10.0, 100.0, 1e4, 1e16, 1e32, 1e60, 1e150, 1e300]
)
def test_ergodic_summary_is_the_k0_solution_at_every_rho(rho):
    # one k = 0 route: the summary's support is the multiplier solve's, bit
    # for bit, and needs no edge root, so huge rho solves for beta > 1 too
    snr = SnrParam(rho)
    for n0, beta in CHANNELS_16:
        erg = ergodic_summary(n0, beta, snr)
        sol = solve_at_multiplier(n0, beta, snr, 0.0)
        assert (erg.a, erg.b, erg.r, erg.regime) == (sol.a, sol.b, sol.r, sol.regime)
        assert (erg.a == 0.0) == (beta == 1.0) and (erg.b == 1.0) == (n0 == 0.0)


@pytest.mark.parametrize("n0, beta", [(0.25, 1.0 + 1e-9), (1.0, 1.0 + 1e-6)] + CHANNELS_16)
def test_ergodic_support_matches_200bit_reference(n0, beta):
    # a0 as (beta-1)^2/(hi+lo)^2: (hi-lo)^2 lost 3.7e-8 and 1.3e-11 relative
    # at the first two channels
    erg = ergodic_summary(n0, beta, SNR3)
    with mpmath.workprec(200):
        n, b = mpmath.mpf(n0), mpmath.mpf(beta)
        lo, hi = mpmath.sqrt(1 + n), mpmath.sqrt(b * (n + b))
        refs = [((hi - lo) / (n + 1 + b)) ** 2, ((hi + lo) / (n + 1 + b)) ** 2]
        for got, ref in zip((erg.a, erg.b), refs):
            assert abs(got - ref) <= 4 * math.ulp(float(ref))


def test_ergodic_density_unit_mass_random_params():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n0 = float(rng.uniform(0.0, 3.0))
        beta = float(rng.uniform(1.0, 4.0))
        erg = ergodic_summary(n0, beta, SNR3)
        val, _ = quadrature(
            lambda x: ergodic_density(n0, beta, x), erg.a, erg.b, target=1e-10
        )
        assert abs(val - 1.0) < 1e-8


def test_ergodic_density_arcsine_corner():
    # arcsine law 1/(pi sqrt(x(1-x))): value 2/pi at the midpoint
    assert abs(ergodic_density(0.0, 1.0, 0.5) - 2.0 / math.pi) < 1e-14
    assert abs(ergodic_density(0.0, 1.0, 0.25) - 1.0 / (math.pi * math.sqrt(3.0 / 16.0))) < 1e-13
    assert ergodic_density(0.0, 1.0, -0.1) == 0.0
    assert ergodic_density(0.0, 1.0, 1.1) == 0.0


def test_critical_thresholds_golden_corner():
    pts = critical_thresholds(0.0, 1.0, SNR3)
    assert len(pts) == 2
    (k1, r1), (k2, r2) = pts
    assert abs(k1 + 4.0) < 1e-12
    assert abs(k2 - 2.0) < 1e-12
    assert abs(r2 - math.log(729.0 / 256.0)) < 1e-12
    assert critical_thresholds(1.0, 2.0, SnrParam(10.0)) == []
    assert len(critical_thresholds(1.0, 1.0, SNR3)) == 1
    assert len(critical_thresholds(0.0, 2.0, SNR3)) == 1


def test_solve_regime_at_ergodic_rate_is_arcsine():
    erg = ergodic_summary(0.0, 1.0, SNR3)
    sol = solve_regime(0.0, 1.0, SNR3, erg.r)
    assert sol.regime == "S01"
    assert abs(sol.k) < 1e-10
    assert abs(density_at(sol, 0.5) - 2.0 / math.pi) < 1e-10
    assert sol.exponent <= 1e-8


def test_regime_dispatch_against_table():
    # n0=0, beta=1: S0b | S01 | Sa1 by rate
    (k1, r1), (k2, r2) = critical_thresholds(0.0, 1.0, SNR3)
    assert solve_regime(0.0, 1.0, SNR3, r1 - 0.1).regime == "S0b"
    assert solve_regime(0.0, 1.0, SNR3, 0.5 * (r1 + r2)).regime == "S01"
    assert solve_regime(0.0, 1.0, SNR3, r2 + 0.1).regime == "Sa1"
    # n0>0, beta=1: S0b below r_c3, Sab above
    ((k3, r3),) = critical_thresholds(1.0, 1.0, SNR3)
    assert solve_regime(1.0, 1.0, SNR3, r3 - 0.1).regime == "S0b"
    assert solve_regime(1.0, 1.0, SNR3, r3 + 0.1).regime == "Sab"
    # n0=0, beta>1: Sab below r_c4, Sa1 above
    ((k4, r4),) = critical_thresholds(0.0, 2.0, SNR3)
    assert solve_regime(0.0, 2.0, SNR3, r4 - 0.1).regime == "Sab"
    assert solve_regime(0.0, 2.0, SNR3, r4 + 0.1).regime == "Sa1"
    # n0>0, beta>1: Sab everywhere
    snr10 = SnrParam(10.0)
    for r in (0.2, 1.0, 2.2):
        assert solve_regime(1.0, 2.0, snr10, r).regime == "Sab"


def test_solution_invariants_across_regimes():
    cases = [
        (0.0, 1.0, 3.0, 0.25),
        (0.0, 1.0, 3.0, 0.81),
        (0.0, 1.0, 3.0, 1.25),
        (1.0, 1.0, 3.0, 0.45),
        (1.0, 1.0, 3.0, 1.10),
        (0.0, 2.0, 3.0, 0.35),
        (0.0, 2.0, 3.0, 1.20),
        (1.0, 2.0, 10.0, 0.80),
        (1.0, 2.0, 10.0, 2.00),
    ]
    # (18, 6, 6) at low SNR above the ergodic rate: Sab points that the
    # earlier continuation solver failed on
    low_snr_sab = [
        (1.0, 1.0, rho, f * math.log1p(rho)) for rho in (0.01, 0.1) for f in (0.7, 0.88)
    ]
    for n0, beta, rho, r in cases + low_snr_sab:
        snr = SnrParam(rho)
        sol = solve_regime(n0, beta, snr, r)
        if (n0, beta, rho, r) in low_snr_sab:
            assert sol.regime == "Sab"
        assert 0.0 <= sol.a < sol.b <= 1.0
        assert abs(sol.r - r) < 1e-8
        mass, rate = density_mass_and_rate(sol)
        assert abs(mass - 1.0) < 1e-8
        assert abs(rate - r) < 1e-8
        assert sol.exponent >= -1e-10
        # soft edges vanish like sqrt(distance): the value a million times
        # closer to the edge must shrink by about a factor of a thousand
        width = sol.b - sol.a
        if sol.a > 0.0:
            near = density_at(sol, sol.a + 1e-12 * width)
            far = density_at(sol, sol.a + 1e-6 * width)
            assert near < 2e-3 * far
        if sol.b < 1.0:
            near = density_at(sol, sol.b - 1e-12 * width)
            far = density_at(sol, sol.b - 1e-6 * width)
            assert near < 2e-3 * far
        xs = sol.a + width * np.linspace(0.01, 0.99, 37)
        assert all(density_at(sol, float(x)) >= 0.0 for x in xs)


def test_sab_soft_edge_conditions_hold():
    sol = solve_regime(1.0, 2.0, SnrParam(10.0), 0.8)
    assert sol.regime == "Sab"
    rho = 10.0
    lhs = sol.n0 / math.sqrt((1 - sol.a) * (1 - sol.b))
    rhs = (sol.beta - 1) / math.sqrt(sol.a * sol.b) + sol.k * rho / math.sqrt(
        (1 + rho * sol.a) * (1 + rho * sol.b)
    )
    assert abs(lhs - rhs) < 1e-10
    norm = (sol.beta - 1) / math.sqrt(sol.a * sol.b) + sol.k * (1 + rho) / math.sqrt(
        (1 + rho * sol.a) * (1 + rho * sol.b)
    )
    assert abs(norm - (sol.n0 + sol.beta + 1 + sol.k)) < 1e-10


def _sab_root_160bit(n0, beta, rho, k, a, b):
    """Root of the two Sab soft-edge conditions in 160-bit arithmetic."""
    with mpmath.workprec(160):
        n0, beta, rho, k = (mpmath.mpf(v) for v in (n0, beta, rho, k))

        def conditions(a, b):
            y = mpmath.sqrt((1 + rho * a) * (1 + rho * b))
            wall = (beta - 1) / mpmath.sqrt(a * b)
            edge = n0 / mpmath.sqrt((1 - a) * (1 - b)) - wall - k * rho / y
            mass = wall + k * (1 + rho) / y - (n0 + beta + 1 + k)
            return [edge, mass]

        root = mpmath.findroot(conditions, (mpmath.mpf(a), mpmath.mpf(b)))
        return [float(v) for v in root]


@pytest.mark.parametrize("rho", [1e-2, 1.0, 1e4])
@pytest.mark.parametrize(
    "n0, beta, side, other",
    [(1.0, 1.0, 1.0, "S0b"), (0.0, 2.0, -1.0, "Sa1"), (0.25, 1.1, 0.0, None)],
    ids=["beta1", "n0zero", "generic"],
)
def test_sab_endpoints_match_extended_precision_root(n0, beta, side, other, rho):
    snr = SnrParam(rho)
    if side:
        # Sab lies on one side of the single threshold, ``other`` on the far side
        ((k_c, _),) = critical_thresholds(n0, beta, snr)
        for dk in (0.01, 1.0):
            assert solve_at_multiplier(n0, beta, snr, k_c - side * dk).regime == other
        ks = [k_c + side * dk for dk in (0.01, 1.0, 30.0, 300.0)]
    else:
        # at rho = 1e4, k = -300 the left edge a ~ 8e-10 sits far below 1/rho
        ks = [-300.0, -10.0, -1.0, 0.0, 1.0, 10.0, 300.0]
    for k in ks:
        sol = solve_at_multiplier(n0, beta, snr, k)
        assert sol.regime == "Sab"
        a, b = _sab_root_160bit(n0, beta, rho, k, sol.a, sol.b)
        assert abs(sol.a - a) <= 1e-10 * a
        assert abs(sol.b - b) <= 1e-10 * b


def _hard_edge_root_160bit(regime, n0, beta, rho, k, guess):
    """Soft endpoint of S0b (b) or Sa1 (a) from its own condition, 160-bit.

    Returns the float nearest the root and that float's distance to 1.
    """
    with mpmath.workprec(160):
        n0, beta, k = (mpmath.mpf(v) for v in (n0, beta, k))
        z = 1 / mpmath.mpf(rho)
        if regime == "S0b":
            def condition(b):
                wall = n0 / mpmath.sqrt(1 - b)
                return wall + k * mpmath.sqrt(z / (z + b)) - (n0 + 2 + k)
        else:
            def condition(a):
                wall = (beta - 1) / mpmath.sqrt(a)
                return wall + k * mpmath.sqrt((z + 1) / (z + a)) - (beta + 1 + k)
        # bracketed, so no step leaves (0, 1); the float solve is far inside it
        guess = mpmath.mpf(guess)
        eps = mpmath.mpf("1e-6")
        bracket = (guess * (1 - eps), guess + min(guess, 1 - guess) * eps)
        root = float(mpmath.findroot(condition, bracket, solver="anderson"))
        # a stored endpoint can be no nearer the wall than the float nearest
        # the root: at b ~ 1 - 2.5e-5 that float's own gap is 1.5e-12 off
        return root, 1.0 - root


@pytest.mark.parametrize("rho", [1e-2, 1.0, 1e4])
@pytest.mark.parametrize(
    "regime, n0, beta, side",
    [("S0b", 0.0, 1.0, -1.0), ("S0b", 1.0, 1.0, -1.0),
     ("Sa1", 0.0, 1.0, 1.0), ("Sa1", 0.0, 1.1, 1.0), ("Sa1", 0.0, 2.0, 1.0)],
    ids=["S0b-n0=0", "S0b-n0=1", "Sa1-beta=1", "Sa1-beta=1.1", "Sa1-beta=2"],
)
def test_hard_edge_endpoints_match_extended_precision_root(regime, n0, beta, side, rho):
    snr = SnrParam(rho)
    # the threshold this regime shares with its neighbour: the lower one for
    # S0b, the upper one for Sa1 (the two differ only at n0 = 0, beta = 1)
    k_c = critical_thresholds(n0, beta, snr)[0 if side < 0 else -1][0]
    for dk in (0.01, 1.0, 30.0, 300.0):
        k = k_c + side * dk
        sol = solve_at_multiplier(n0, beta, snr, k)
        assert sol.regime == regime
        if regime == "S0b":
            assert sol.a == 0.0
            soft, gap = sol.b, 1.0 - sol.b
        else:
            assert sol.b == 1.0
            soft, gap = sol.a, 1.0 - sol.a
        ref, ref_gap = _hard_edge_root_160bit(regime, n0, beta, rho, k, soft)
        assert abs(soft - ref) <= 1e-12 * ref
        assert abs(gap - ref_gap) <= 1e-12 * ref_gap


# (n0, beta, rho, k) -> (regime, a, b, r, exponent, density at t = 0.1, 0.5, 0.9
# of the support), frozen from the per-regime solver that preceded the
# single edge system
SOLVE_GOLDEN = [
    ((0.0, 1.0, 3.0, -5.0),
     ("S0b", 0.0, 0.5925925925925927, 0.2526715392157056, 1.329979657984189,
      (3.648551997295336, 0.7583264935555012, 0.1836403189521868))),
    ((0.0, 1.0, 3.0, 0.5),
     ("S01", 0.0, 1.0, 0.8698217340445205, 0.014722879457047977,
      (0.9182015947609348, 0.6684507609859605, 1.182908360818141))),
    ((0.0, 1.0, 3.0, 5.0),
     ("Sa1", 0.3469387755102041, 1.0, 1.2188473862988551, 0.7782203573946018,
      (0.4980852689828478, 1.106557002983516, 2.635790286076617))),
    ((1.0, 1.0, 3.0, -5.0),
     ("S0b", 0.0, 0.423861988467735, 0.21577622395487936, 0.8430425682759473,
      (4.872711961977077, 1.2343870022090175, 0.35921495013623694))),
    ((1.0, 1.0, 3.0, 0.5),
     ("S0b", 0.0, 0.904773282928246, 0.6599552284545085, 0.01313727812047727,
      (1.4088923669224245, 0.8892661541536577, 0.9137663545669261))),
    ((1.0, 1.0, 3.0, 5.0),
     ("Sab", 0.20145202542034665, 0.9652146412463201, 1.0755003242662236, 1.046838874162348,
      (0.6609874645797515, 1.2730290745221824, 2.147349195872229))),
    ((0.0, 2.0, 3.0, -5.0),
     ("Sa1", 0.016607166774575247, 1.0, 0.564371318784207, 1.2958294863900361,
      (2.426395737759071, 0.584080425611433, 0.3358576339133029))),
    ((0.0, 2.0, 3.0, 0.5),
     ("Sa1", 0.14113706113836672, 1.0, 1.0904821142895915, 0.008609545603282864,
      (0.7013790052311892, 0.8900740978072702, 1.711153330525879))),
    ((0.0, 2.0, 3.0, 5.0),
     ("Sa1", 0.452410903485117, 1.0, 1.2525138764738695, 0.3731756053014279,
      (0.566627635338494, 1.3041998283870784, 3.1832699515667886))),
    ((1.0, 2.0, 10.0, -5.0),
     ("Sab", 0.004784724422168858, 0.3671087684490676, 0.5427018130920287, 2.703569296000989,
      (7.3136474793465425, 1.4655409429171191, 0.37269710892627983))),
    ((1.0, 2.0, 10.0, 0.5),
     ("Sab", 0.09805183965566065, 0.9424696242762367, 1.7793362580410614, 0.022343560774848115,
      (1.1003130150212328, 1.1589888928838805, 1.4475666573890924))),
    ((1.0, 2.0, 10.0, 5.0),
     ("Sab", 0.4108122138677198, 0.9755131091635699, 2.134926908787072, 0.7903987448778187,
      (0.8331433879777677, 1.7038862015558491, 2.997584388302455))),
]


@pytest.mark.parametrize("params, expected", SOLVE_GOLDEN, ids=[str(p) for p, _ in SOLVE_GOLDEN])
def test_solve_at_multiplier_golden_per_regime(params, expected):
    n0, beta, rho, k = params
    regime, a, b, r, exponent, dens = expected
    sol = solve_at_multiplier(n0, beta, SnrParam(rho), k)
    assert sol.regime == regime
    for got, want in [(sol.a, a), (sol.b, b), (sol.r, r), (sol.exponent, exponent)]:
        assert abs(got - want) <= 1e-10 * abs(want)
    for t, want in zip((0.1, 0.5, 0.9), dens):
        assert abs(density_at(sol, a + t * (b - a)) - want) <= 1e-10 * want


def test_energy_matches_functional_quadrature():
    # one instance per regime family, validated against the independent
    # spectral evaluation of the energy functional
    cases = [
        (0.0, 1.0, 3.0, 1.0),    # S01
        (0.0, 1.0, 3.0, -6.0),   # S0b
        (1.0, 1.0, 3.0, -3.0),   # S0b with wall charge
        (0.0, 2.0, 3.0, 3.0),    # Sa1
        (0.0, 1.0, 3.0, 4.0),    # Sa1, beta = 1
        (1.0, 2.0, 10.0, -5.0),  # Sab
        (1.0, 1.0, 3.0, 5.0),    # Sab, beta = 1
        (0.0, 2.0, 3.0, -8.0),   # Sab, n0 = 0
    ]
    for n0, beta, rho, k in cases:
        sol = solve_at_multiplier(n0, beta, SnrParam(rho), k)
        assert abs(sol.energy - energy_functional(sol)) < 1e-9


def test_energy_at_zero_multiplier_equals_e0():
    # on the grid, the k = 0 records and the k = 1e-9 solves read Delta E
    # down to -7.2e-14, rounding of a true value of about 0: none may
    # exceed the allowance for a negative exponent and raise
    grid = itertools.product(
        (0.0, 0.25, 0.5, 1.0, 3.0), (1.0, 1.1, 1.5, 2.0, 4.0), (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e8, 1e16)
    )
    for n0, beta, rho in CORNERS:
        sol = solve_at_multiplier(n0, beta, SnrParam(rho), 0.0)
        assert abs(sol.exponent) < 1e-12
    for n0, beta, rho in grid:
        snr = SnrParam(rho)
        for sol in (ergodic_summary(n0, beta, snr), solve_at_multiplier(n0, beta, snr, 1e-9)):
            assert abs(sol.exponent) < 1e-12, (n0, beta, rho, sol.k)


def test_multiplier_sign_convention():
    for n0, beta, rho in CORNERS:
        snr = SnrParam(rho)
        erg = ergodic_summary(n0, beta, snr)
        below = solve_regime(n0, beta, snr, 0.7 * erg.r)
        above = solve_regime(n0, beta, snr, erg.r + 0.5 * (math.log1p(rho) - erg.r))
        assert below.k < 0.0 < above.k


def test_exponent_derivative_is_multiplier():
    for n0, beta, rho in CORNERS:
        snr = SnrParam(rho)
        rmax = math.log1p(rho)
        for r in np.linspace(0.15 * rmax, 0.9 * rmax, 7):
            sol = solve_regime(n0, beta, snr, float(r))
            h = 1e-5 * rmax
            ep = solve_regime(n0, beta, snr, float(r) + h).energy
            em = solve_regime(n0, beta, snr, float(r) - h).energy
            fd = (ep - em) / (2.0 * h)
            if abs(sol.k) > 1e-3:
                assert abs(fd - sol.k) / abs(sol.k) < 1e-4


def test_exponent_convex_on_grid():
    snr = SnrParam(10.0)
    rmax = math.log1p(10.0)
    grid = np.linspace(0.1 * rmax, 0.95 * rmax, 25)
    vals = [rate_exponent(1.0, 2.0, snr, float(r)) for r in grid]
    second = np.diff(vals, 2)
    assert second.min() >= -1e-6


def test_regime_boundary_continuity():
    for n0, beta, rho in CORNERS:
        snr = SnrParam(rho)
        for k_c, r_c in critical_thresholds(n0, beta, snr):
            lo = solve_regime(n0, beta, snr, r_c - 1e-9)
            hi = solve_regime(n0, beta, snr, r_c + 1e-9)
            assert lo.regime != hi.regime
            assert abs(hi.k - lo.k) < 1e-6
            assert abs(hi.energy - lo.energy) < 1e-6
            assert abs(0.5 * (hi.k + lo.k) - k_c) < 1e-6


def test_solve_regime_validates_rate_window():
    with pytest.raises(ValueError):
        solve_regime(0.0, 1.0, SNR3, 0.0)
    with pytest.raises(ValueError):
        solve_regime(0.0, 1.0, SNR3, math.log1p(3.0))
    with pytest.raises(ValueError):
        solve_regime(-0.5, 1.0, SNR3, 0.3)
    with pytest.raises(ValueError):
        solve_regime(0.0, 0.5, SNR3, 0.3)
    # a channel parameter or multiplier that is not finite, and an invalid
    # channel's ergodic density, are refused rather than computed
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="n0 must be finite"):
            solve_regime(bad, 1.0, SNR3, 0.3)
        with pytest.raises(ValueError, match="beta must be finite"):
            solve_regime(0.0, bad, SNR3, 0.3)
    for k in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="multiplier k must be finite"):
            solve_at_multiplier(0.0, 1.0, SNR3, k)
    for n0, beta in ((-0.5, 1.0), (1.0, 0.5), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            ergodic_density(n0, beta, 0.3)


@pytest.mark.parametrize(
    "n0, beta, rho, frac, reason",
    [
        (0.25, 1.1, 0.01, 0.999, "reaches rate"),
        # the iterate at k ~ 2.9e5 has a rate past log 2, which ends the solve
        (1.0, 1.0, 1.0, 0.99999, "outside the window"),
        # the iterate at k ~ 4.5e4 has a rate past log 11
        (0.25, 1.0, 10.0, 1.0 - 1e-6, "outside the window"),
    ],
    ids=["generic-rho0.01", "beta1-rho1", "beta1-rho10-top"],
)
def test_solve_regime_raises_when_root_misses_rate(n0, beta, rho, frac, reason):
    # near the top of the window the support shrinks toward 1 and the
    # multiplier root reaches a rate 9e-5 relative off target (the beta = 1
    # point at f = 0.9999 solves since the wall pole carries 1 + y)
    r = frac * math.log1p(rho)
    with pytest.raises(ArithmeticError, match=reason):
        solve_regime(n0, beta, SnrParam(rho), r)


WINDOW_RHOS = (1e-2, 1.0, 3.0, 1e2, 1e4)


def test_solve_at_multiplier_returns_only_rates_inside_the_window():
    # one window rule at every k: a solve returns 0 < r < log(1+rho) or
    # raises, also where the rate rounds past log(1+rho), as it does in 229
    # of these calls at k > 0
    solved = 0
    for (n0, beta), rho in itertools.product(CHANNELS_16, WINDOW_RHOS):
        snr = SnrParam(rho)
        for j in range(16):
            try:
                sol = solve_at_multiplier(n0, beta, snr, 10.0**j)
            except ArithmeticError:
                continue
            assert 0.0 < sol.r < math.log1p(rho), (n0, beta, rho, j, sol.r)
            solved += 1
    assert solved >= 638  # what this grid solves with the rule in place
    with pytest.raises(ArithmeticError, match=r"outside the window \(0, 1\.3862943611198906\)"):
        solve_at_multiplier(0.0, 1.0, SNR3, 1e11)


def test_critical_thresholds_lie_inside_the_window():
    for (n0, beta), rho in itertools.product(CHANNELS_16, WINDOW_RHOS):
        for _, r in critical_thresholds(n0, beta, SnrParam(rho)):
            assert 0.0 < r < math.log1p(rho), (n0, beta, rho, r)


@pytest.mark.parametrize(
    "n0, beta, rho, frac, reason",
    [
        # the Newton start used to return P = 1/2 from the k = 0 solution,
        # whose rate misses r, unchecked; that rate (4.6e-14 > rho) is refused
        (1.0, 1.0, 1e-14, 0.05, r"outside the window .*, 0\.0\)$"),
        # 1/X underflowed at the edge root: a bare ZeroDivisionError; the
        # k = 0 rate (2.5e-14 > rho) is now refused first
        (3.0, 4.0, 1e-14, 0.05, r"outside the window .*, 0\.0\)$"),
        # formerly "support endpoints not real"; an iterate's rate (-0.097)
        # is now refused first
        (3.0, 4.0, 1e-12, 0.95, "rate -.* outside the window"),
    ],
    ids=["1.0-1.0-1e-14-0.05-k0-rate", "3.0-4.0-1e-14-0.05-k0-rate", "3.0-4.0-1e-12-0.95-iterate-rate"],
)
def test_tiny_rho_failures_name_their_cause(n0, beta, rho, frac, reason):
    with pytest.raises(ArithmeticError, match=reason) as info:
        outage_asymptotic(_channel(n0, beta, 6), SnrParam(rho), frac * math.log1p(rho))
    assert f"(n0, beta, rho, k) = ({n0!r}, {beta!r}, {rho!r}, " in str(info.value)


def test_edge_root_without_sign_change_names_its_bracket():
    # the multiplier at which (n0, beta, rho) = (1, 1.1, 1e-14), f = 0.7
    # raised the root's bare ValueError
    k = 2109448634060513.8
    with pytest.raises(ArithmeticError, match="no sign change of the edge equation on") as info:
        solve_at_multiplier(1.0, 1.1, SnrParam(1e-14), k)
    assert f"(n0, beta, rho, k) = (1.0, 1.1, 1e-14, {k!r})" in str(info.value)
    assert isinstance(info.value.__cause__.__cause__, ValueError)  # the root's own error


def test_density_asymptotic_peak_and_normalization():
    snr = SnrParam(10.0)
    dims = normalize_dims(24, 8, 8)
    nt = dims.Nt
    erg = ergodic_summary(1.0, 1.0, snr)
    peak = density_asymptotic(dims, snr, erg.r)
    assert abs(peak - nt / math.sqrt(2.0 * math.pi * erg.v)) < 1e-9
    lo = density_asymptotic(dims, snr, erg.r - 0.05)
    hi = density_asymptotic(dims, snr, erg.r + 0.05)
    assert lo < peak and hi < peak
    sigma = math.sqrt(erg.v) / nt
    val, _ = quadrature(
        lambda r: density_asymptotic(dims, snr, r),
        erg.r - 8 * sigma,
        erg.r + 8 * sigma,
        target=1e-6,
        max_depth=12,
    )
    assert abs(val - 1.0) < 0.05


def test_outage_asymptotic_crossover_and_tail():
    snr = SnrParam(10.0)
    dims = normalize_dims(24, 8, 8)
    erg = ergodic_summary(1.0, 1.0, snr)
    at_peak = outage_asymptotic(dims, snr, erg.r)
    just_lo = outage_asymptotic(dims, snr, erg.r - 1e-6)
    just_hi = outage_asymptotic(dims, snr, erg.r + 1e-6)
    assert abs(at_peak.p - 0.5) < 1e-6
    assert abs(just_hi.p - just_lo.p) < 1e-4
    probes = [0.2, 0.4, 0.7, 1.0]
    vals = [outage_asymptotic(dims, snr, r).p for r in probes]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1e-30  # deep tail decays, no underflow to garbage


@pytest.mark.parametrize(
    "regime, n0, beta",
    [("S01", 0.0, 1.0), ("S0b", 1.0, 1.0), ("Sa1", 0.0, 2.0), ("Sab", 1.0, 2.0)],
    ids=["S01", "S0b", "Sa1", "Sab"],
)
def test_multiplier_slope_closed_form(regime, n0, beta):
    # dr/dk = V(a, b) on the solved support; k = 0 lies in ``regime`` for
    # these (n0, beta), and the other multipliers sit well inside it
    for rho in (1.0, 10.0, 100.0):
        snr = SnrParam(rho)
        k_c = [k for k, _ in critical_thresholds(n0, beta, snr)]
        lo = 0.5 * k_c[0] if regime in ("S01", "Sa1") else -5.0
        hi = 0.5 * k_c[-1] if regime in ("S01", "S0b") else 5.0
        erg = ergodic_summary(n0, beta, snr)
        for k in (0.0, lo, hi):
            sol = solve_at_multiplier(n0, beta, snr, k)
            assert sol.regime == regime
            v = sol.v
            h = 1e-5 * max(1.0, abs(k))
            fd = (
                solve_at_multiplier(n0, beta, snr, k + h).r
                - solve_at_multiplier(n0, beta, snr, k - h).r
            ) / (2.0 * h)
            assert abs(fd - v) <= 1e-7 * v
            if k == 0.0:
                assert abs(v - erg.v) <= 1e-12 * erg.v
            elif regime == "S01":  # r = r_erg + k v exactly
                assert abs(v - (sol.r - erg.r) / k) <= 1e-12 * v


def test_rate_variance_matches_200bit_reference():
    # small rho and a narrow support near 1: log((sa+sb)^2/(4 sa sb))
    # taken directly loses 1e-7 .. 7e-6 relative here
    cases = [(1e-4, 0.0, 1.0), (1e-4, 0.06698729810778063, 0.9330127018922192),
             (0.01, 0.999, 0.99995)]
    for rho, a, b in cases:
        with mpmath.workprec(200):
            sa = mpmath.sqrt(1 + mpmath.mpf(rho) * mpmath.mpf(a))
            sb = mpmath.sqrt(1 + mpmath.mpf(rho) * mpmath.mpf(b))
            ref = float(mpmath.log((sa + sb) ** 2 / (4 * sa * sb)))
        assert abs(_variance(rho, a, b) - ref) <= 1e-14 * ref


@pytest.mark.parametrize(
    "regime, n0, beta, rho, r, p_ref",
    [
        ("S01", 0.0, 1.0, 3.0, 0.6, 0.006977346127193711),
        ("S0b", 1.0, 1.0, 10.0, 0.9, 0.008746649474411266),
        ("Sa1", 0.0, 2.0, 3.0, 0.75, 2.3292396361823845e-05),
        ("Sab", 1.0, 2.0, 10.0, 1.2, 3.151302690140982e-05),
    ],
    ids=["S01", "S0b", "Sa1", "Sab"],
)
def test_outage_asymptotic_golden_per_regime(regime, n0, beta, rho, r, p_ref):
    # Nt = 4 values from the central-difference slope, which was accurate
    # at rho >= 1; the closed-form slope must reproduce them
    snr = SnrParam(rho)
    assert solve_regime(n0, beta, snr, r).regime == regime
    assert abs(outage_asymptotic(_channel(n0, beta, 4), snr, r).p - p_ref) <= 1e-6 * p_ref


def test_s01_quadratic_exponent_value():
    # 0.2 nats below the peak: dE = (r - r_erg)^2 / (2 v) with v = log(9/8)
    r = math.log(9.0 / 4.0) - 0.2
    expected = 0.04 / (2.0 * math.log(9.0 / 8.0))
    sol = solve_regime(0.0, 1.0, SNR3, r)
    assert sol.regime == "S01"
    assert abs(sol.exponent - expected) < 1e-10
    # cross-checked against the E' = k identity
    assert abs(sol.k - (-0.2) / math.log(9.0 / 8.0)) < 1e-9


def test_outage_asymptotic_raises_on_positive_log_tail(monkeypatch):
    # a log tail above 0 is a probability above 1: it raises, never clamps
    monkeypatch.setattr(coulomb, "log_q", lambda u: 1.0)
    r = 0.9 * ergodic_summary(0.0, 1.0, SNR3).r
    with pytest.raises(ArithmeticError, match="log tail"):
        outage_asymptotic(normalize_dims(8, 4, 4), SNR3, r)


def test_gaussian_outage_values():
    dims = normalize_dims(8, 4, 4)
    erg = ergodic_summary(0.0, 1.0, SNR3)
    assert abs(gaussian_outage(dims, SNR3, erg.r).p - 0.5) < 1e-14
    assert gaussian_outage(dims, SNR3, 1e-6).p < 1e-10
    assert gaussian_outage(dims, SNR3, math.log(4.0) - 1e-6).p > 1 - 1e-3


@pytest.mark.parametrize("r", [math.nan, -0.5])
def test_gaussian_outage_rejects_nan_and_negative_rate(r):
    with pytest.raises(ValueError, match=f"rate threshold r must be >= 0, got {r!r}"):
        gaussian_outage(normalize_dims(15, 5, 5), SnrParam(10.0), r)


def test_gaussian_outage_near_peak_matches_mc():
    from jacobi_mimo.montecarlo import McConfig, outage_curve

    dims = normalize_dims(24, 8, 8)
    snr = SnrParam(10.0)
    erg = ergodic_summary(1.0, 1.0, snr)
    sigma = math.sqrt(erg.v) / dims.Nt
    grid = [erg.r - 0.5 * sigma, erg.r + 0.5 * sigma]
    ests = outage_curve(McConfig(dims=dims, snr=snr, trials=100_000, seed=55), grid)
    for r, est in zip(grid, ests):
        pg = gaussian_outage(dims, snr, r).p
        assert abs(pg - est.p) / est.p < 0.10


def test_solve_at_multiplier_roundtrip():
    snr = SnrParam(10.0)
    for k in (-7.0, -1.0, 0.5, 6.0):
        sol = solve_at_multiplier(1.0, 2.0, snr, k)
        back = solve_regime(1.0, 2.0, snr, sol.r)
        assert abs(back.k - k) < 1e-9


# the outer-solve grid: the CORNERS channels at four SNRs and four window fractions
SOLVE_GRID = [(n0, beta, rho) for n0, beta, _ in CORNERS for rho in (1.0, 10.0, 100.0, 1e4)]
SOLVE_FRACS = (0.1, 0.3, 0.7, 0.9)


def test_solve_regime_newton_solve_count(monkeypatch):
    # Newton on k from the Gaussian guess takes 5.4 multiplier solves per
    # rate here; the bracketed brentq search it replaced took 12.3
    ks = []
    original = coulomb.solve_at_multiplier

    def counting(n0, beta, snr, k, **kwargs):
        ks.append(k)
        return original(n0, beta, snr, k, **kwargs)

    monkeypatch.setattr(coulomb, "solve_at_multiplier", counting)
    coulomb.ergodic_summary.cache_clear()
    for n0, beta, rho in SOLVE_GRID:
        for f in SOLVE_FRACS:
            solve_regime(n0, beta, SnrParam(rho), f * math.log1p(rho))
    assert len(ks) / (len(SOLVE_GRID) * len(SOLVE_FRACS)) <= 8.0
    assert ks.count(0.0) == len(SOLVE_GRID)  # k = 0 once per channel


def test_each_multiplier_solve_builds_one_support_and_one_decomposition(monkeypatch):
    # solve_regime, density_at and critical_thresholds reuse what
    # solve_at_multiplier built instead of rebuilding it
    calls = {"solve_at_multiplier": 0, "_support": 0, "_poles": 0}

    def counting(name):
        original = getattr(coulomb, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(coulomb, name, wrapper)

    for name in calls:
        counting(name)
    coulomb.ergodic_summary.cache_clear()
    for n0, beta, rho in SOLVE_GRID:
        snr = SnrParam(rho)
        for f in SOLVE_FRACS:
            sol = solve_regime(n0, beta, snr, f * math.log1p(rho))
            assert density_at(sol, 0.5 * (sol.a + sol.b)) > 0.0
        critical_thresholds(n0, beta, snr)
    assert calls["solve_at_multiplier"] > len(SOLVE_GRID) * len(SOLVE_FRACS)
    assert calls["_poles"] == calls["_support"] == calls["solve_at_multiplier"]


def test_solve_regime_builds_the_energy_at_most_once(monkeypatch):
    # the Newton iterates carry no energy; the returned solution builds it
    # on first read and keeps it
    calls = []
    original = coulomb._energy_from_poles

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(coulomb, "_energy_from_poles", counting)
    coulomb.ergodic_summary.cache_clear()
    for n0, beta, rho in SOLVE_GRID:
        for f in SOLVE_FRACS:
            calls.clear()
            sol = solve_regime(n0, beta, SnrParam(rho), f * math.log1p(rho))
            assert calls == []
            sol.energy, sol.exponent, sol.energy, sol.exponent
            assert len(calls) == 1


def test_lazy_energy_is_the_direct_assembly_bit_for_bit():
    regimes = set()
    for n0, beta, rho in SOLVE_GRID:
        snr = SnrParam(rho)
        for f in SOLVE_FRACS:
            sol = solve_regime(n0, beta, snr, f * math.log1p(rho))
            x0 = sol.a if sol.b == 1.0 else sol.b
            direct = coulomb._energy_from_poles(
                n0, beta, snr.z, sol.k, sol.a, sol.b, sol.r, sol.poles, x0
            )
            assert sol.energy.hex() == direct.hex()
            assert sol.exponent == direct - coulomb._e0_value(n0, beta)
            regimes.add(sol.regime)
    assert regimes == {"S01", "S0b", "Sa1", "Sab"}


@pytest.mark.parametrize("n0, beta", [(1.0, 1.0), (3.0, 1.0), (0.25, 1.25)], ids=["S0b-1", "S0b-3", "Sab"])
def test_exponent_steps_settle_as_rho_grows(n0, beta):
    # At fixed k = -1 Delta E grows like a constant times log(rho) (S0b
    # with n0 > 0, Sab).  Its steps per half decade of rho approach their
    # limit geometrically, so from 1e4 to 1e18 no step may change by more
    # than the one before plus a rounding floor of 1e-6.  Before the poles
    # carried 1 + y, the flipped pole sums lost the digits of the SNR pole
    # and the steps jumped by 5e-6 to 0.6 from rho ~ 3e11 on.
    floor = 1e-6
    es = [solve_at_multiplier(n0, beta, SnrParam(10.0 ** (j / 2)), -1.0).exponent for j in range(8, 37)]
    steps = [e1 - e0 for e0, e1 in zip(es, es[1:])]
    changes = [abs(s1 - s0) for s0, s1 in zip(steps, steps[1:])]
    for j, (c0, c1) in enumerate(zip(changes, changes[1:])):
        assert c1 <= c0 + floor, (10.0 ** ((j + 11) / 2), c0, c1)


@pytest.mark.parametrize("rho", [1e8, 1e12, 1e16])
@pytest.mark.parametrize("n0", [1.0, 3.0])
def test_energy_from_poles_matches_mpmath_pole_sums(n0, rho):
    # The SNR pole weight is of size sqrt(rho), so its terms in the pole
    # sums are too and cancel to O(1): the float sums carry a rounding
    # floor of about eps sqrt(rho), which is the bound.  With 1 + y formed
    # as 1.0 + y the error was 7e-11 at 1e8 and 2e-2 at 1e16.
    snr = SnrParam(rho)
    for k in (-1.0, -0.1):
        sol = solve_at_multiplier(n0, 1.0, snr, k)
        assert sol.regime == "S0b"
        got = coulomb._energy_from_poles(
            n0, 1.0, snr.z, k, sol.a, sol.b, sol.r, coulomb._poles(n0, 1.0, snr.z, k, sol.a, sol.b), sol.b
        )
        ref = energy_pole_sums_mp(n0, 1.0, snr.z, k, sol.a, sol.b, sol.r)
        assert abs(got - ref) <= 2.0**-52 * math.sqrt(rho), (k, got, ref)


def test_density_next_to_a_soft_edge_near_the_wall():
    # b soft at 1 - 1.6e-13: the wall pole's t + y, formed from y, cancels
    # to 1 - x next to b and lost 1.2e-10 relative at the last table node;
    # from 1 + y it is a sum of like signs.  The bound is 8 ulp.
    sol = solve_at_multiplier(1e-6, 2.0, SnrParam(10.0), -0.5)
    assert sol.regime == "Sab" and 1.0 - sol.b < 1e-12
    d = sol.b - sol.a
    for gap in (1e-3, 1e-6, 4.5e-7 * d):
        x = sol.b - gap
        assert abs(density_at(sol, x) - density_pole_sum_mp(sol, x)) <= 8 * math.ulp(density_at(sol, x)), gap


def _density_per_point(sol, x):
    # the scalar formula density_at evaluates elementwise
    a, b = sol.a, sol.b
    if not a < x < b:
        return 0.0
    d, u, v = b - a, x - a, b - x
    terms = (g / (u + y * d if y >= 0.0 else y1 * d - v) for g, y, y1 in sol.poles)
    return math.sqrt(u * v) * sum(terms) / (2.0 * math.pi * d)


def _ergodic_per_point(n0, beta, a0, b0, x):
    if not a0 < x < b0:
        return 0.0
    return (n0 + beta + 1.0) * math.sqrt((x - a0) * (b0 - x)) / (2.0 * math.pi * x * (1.0 - x))


def test_array_densities_match_scalar_calls_bit_for_bit():
    for n0, beta, rho in SOLVE_GRID:
        snr = SnrParam(rho)
        erg = ergodic_summary(n0, beta, snr)
        for f in SOLVE_FRACS:
            sol = solve_regime(n0, beta, snr, f * math.log1p(rho))
            a, b = sol.a, sol.b
            # the edges, points outside, NaN and a tanh-clustered interior
            u = np.linspace(-1.0, 1.0, 257)[1:-1]
            xs = np.concatenate([
                [a, b, a - 0.1, b + 0.1, -1.0, 2.0, math.nan],
                a + (b - a) * (1.0 + u) ** 2 / (2.0 * (1.0 + u * u)),
            ])
            got = density_at(sol, xs)
            assert got.shape == xs.shape and got.dtype == np.float64
            assert got[:7].tolist() == [0.0] * 7
            for x, p in zip(xs.tolist(), got.tolist()):
                scalar = density_at(sol, x)
                assert type(scalar) is float
                assert scalar.hex() == p.hex() == _density_per_point(sol, x).hex()
            assert np.array_equal(density_at(sol, xs[7:].reshape(5, -1)), got[7:].reshape(5, -1))
        xs = np.linspace(-0.25, 1.25, 301)
        got = ergodic_density(n0, beta, xs)
        for x, p in zip(xs.tolist(), got.tolist()):
            scalar = ergodic_density(n0, beta, x)
            assert type(scalar) is float
            assert scalar.hex() == p.hex() == _ergodic_per_point(n0, beta, erg.a, erg.b, x).hex()
        assert ergodic_density(n0, beta, erg.a) == ergodic_density(n0, beta, erg.b) == 0.0


# Nt = 4 outage at SOLVE_FRACS, from the bracketed brentq search on k that
# Newton replaced
OUTAGE_GOLDEN = [
    ((0.0, 1.0, 1.0), (4.4433333134665573e-14, 4.8216072629327385e-05, 0.9940744859507453, 0.9999999996408736)),
    ((0.0, 1.0, 10.0), (2.729750405816628e-20, 9.400810225167481e-09, 0.8314572119905143, 0.9999990987292193)),
    ((0.0, 1.0, 100.0), (3.719793948070154e-30, 5.864157405875282e-15, 0.23783084132411292, 0.9996069708501033)),
    ((0.0, 1.0, 10000.0), (7.586689926347816e-54, 7.107848178722273e-30, 0.0009532505820087412, 0.9276052720967276)),
    ((1.0, 1.0, 1.0), (4.091013533310977e-09, 0.061407190778002246, 0.9999999522703436, 1.0)),
    ((1.0, 1.0, 10.0), (4.988803815471041e-15, 0.00010137904921789042, 0.9993384488135164, 0.9999999999999964)),
    ((1.0, 1.0, 100.0), (9.573749302785873e-25, 2.1878324131999492e-10, 0.8403834624116897, 0.9999999976683597)),
    ((1.0, 1.0, 10000.0), (2.1640819554686744e-48, 3.6950879315175594e-25, 0.02388954878421135, 0.999413733712462)),
    ((0.0, 2.0, 1.0), (1.2853693169417857e-30, 1.9335906626985917e-13, 0.38622734918252494, 0.9999871608120721)),
    ((0.0, 2.0, 10.0), (1.6540059848932676e-43, 1.488811052064645e-22, 0.00842242592072743, 0.9932116036402571)),
    ((0.0, 2.0, 100.0), (7.260923183876781e-64, 1.8999576558715674e-37, 7.572596238749438e-07, 0.6924485271623757)),
    ((0.0, 2.0, 10000.0), (7.81585162334816e-113, 3.8240592525612495e-73, 2.9477379253887957e-18, 0.012580258447088544)),
    ((1.0, 2.0, 1.0), (8.721557199629187e-23, 3.4084993897783916e-07, 0.9958707173034034, 0.9999999999999949)),
    ((1.0, 2.0, 10.0), (2.1618481792507203e-35, 2.5756673441896994e-15, 0.47234516320389885, 0.9999999838344019)),
    ((1.0, 2.0, 100.0), (1.2712760562739e-55, 1.1370949958428234e-29, 0.0015376858736734945, 0.9992750792936874)),
    ((1.0, 2.0, 10000.0), (1.4969043971116675e-104, 2.5728358186910767e-65, 7.778259307555995e-14, 0.3850455583117566)),
]


@pytest.mark.parametrize("params, expected", OUTAGE_GOLDEN, ids=[str(p) for p, _ in OUTAGE_GOLDEN])
def test_outage_asymptotic_matches_bracketed_solve(params, expected):
    n0, beta, rho = params
    dims, snr = _channel(n0, beta, 4), SnrParam(rho)
    for f, want in zip(SOLVE_FRACS, expected):
        got = outage_asymptotic(dims, snr, f * math.log1p(rho)).p
        assert abs(got - want) <= 1e-9 * want


def test_zero_multiplier_cache_cold_and_warm_agree():
    for n0, beta, rho in CORNERS:
        snr = SnrParam(rho)
        r = 0.3 * math.log1p(rho)
        coulomb.ergodic_summary.cache_clear()
        cold_sol = solve_regime(n0, beta, snr, r)
        coulomb.ergodic_summary.cache_clear()
        cold_erg = ergodic_summary(n0, beta, snr)
        assert solve_regime(n0, beta, snr, r) == cold_sol
        assert ergodic_summary(n0, beta, snr) == cold_erg
        assert coulomb.ergodic_summary.cache_info().misses == 1


def _k_grid_across_boundaries(n0, beta, snr):
    # k in (-L, L) on a uniform grid, plus points just either side of
    # every regime boundary of the channel
    k_cs = [k for k, _ in critical_thresholds(n0, beta, snr)]
    span = 2.0 * max([abs(k) for k in k_cs] + [5.0])
    ks = set(np.linspace(-span, span, 81).tolist())
    for k_c in k_cs:
        ks.update(k_c + t * max(1.0, abs(k_c)) for t in (-1e-3, -1e-6, 1e-6, 1e-3))
    return sorted(ks)


def test_edge_y_increases_with_k_across_regime_boundaries():
    # the edge-root variable y = Y - 1, Y = sqrt((1+rho a)(1+rho b)), of
    # the support increases with k in every regime and across their
    # boundaries; it is constant only inside S01, where both edges sit on
    # the walls.  y = (s_a - 1) s_b + (s_b - 1), s = sqrt(1+rho x), with
    # s - 1 = rho x/(s + 1): positive terms, so nothing cancels at small rho
    regimes = set()
    for n0, beta, rho in SOLVE_GRID:
        snr = SnrParam(rho)
        prev = None
        for k in _k_grid_across_boundaries(n0, beta, snr):
            sol = solve_at_multiplier(n0, beta, snr, k)
            sa, sb = math.sqrt(1.0 + rho * sol.a), math.sqrt(1.0 + rho * sol.b)
            y = rho * sol.a / (sa + 1.0) * sb + rho * sol.b / (sb + 1.0)
            regimes.add(sol.regime)
            if prev is not None:
                if prev.regime == sol.regime == "S01":
                    assert y == prev_y
                else:
                    assert y > prev_y, (n0, beta, rho, prev.k, k)
            prev, prev_y = sol, y
    assert regimes == {"S01", "S0b", "Sa1", "Sab"}


def _edge_root_bracket(n0, beta, rho, k, regime):
    # (lo, hi) of the edge root y = Y - 1 at multiplier k, None for the
    # closed forms: y in (0, rho), with a pinned Y^2 <= 1 + rho, cut where
    # the soft a's 1/W (k > 0) or the soft b's 1/X (c < 0) turns negative
    pin_a, pin_b = regime in ("S01", "S0b"), regime in ("S01", "Sa1")
    if k == 0.0 or regime == "S01" or not (pin_a or beta > 1.0) or not (pin_b or n0 > 0.0):
        return None
    c = n0 + beta + 1.0 + k
    lo, hi = 0.0, rho / (math.sqrt(1.0 + rho) + 1.0) if pin_a else rho
    if k > 0 and not pin_a:
        lo = max(lo, k * (1.0 + rho) / c - 1.0)
    elif c < 0 and not pin_b:
        hi = min(hi, k / c - 1.0)
    return lo, hi


def test_solve_regime_iterates_are_the_direct_supports(monkeypatch):
    # a support depends on (n0, beta, rho, k) alone: every support a
    # solve_regime iterate builds is the one a direct solve_at_multiplier
    # call at its k builds, bit for bit, and each edge root is one root
    # call on the full bracket (lo, hi)
    root, solve = coulomb.bracketed_root, coulomb.solve_at_multiplier
    ends, iterates = [], []

    def recording_root(f, lo, hi, *args):
        ends.append((lo, hi))
        return root(f, lo, hi, *args)

    def recording_solve(n0, beta, snr, k):
        ends.clear()
        iterates.append((solve(n0, beta, snr, k), list(ends)))
        return iterates[-1][0]

    monkeypatch.setattr(coulomb, "bracketed_root", recording_root)
    monkeypatch.setattr(coulomb, "solve_at_multiplier", recording_solve)
    coulomb.ergodic_summary.cache_clear()
    for n0, beta, rho in SOLVE_GRID:
        for f in SOLVE_FRACS:
            solve_regime(n0, beta, SnrParam(rho), f * math.log1p(rho))
    roots = 0
    for sol, calls in iterates:
        key = (sol.n0, sol.beta, sol.rho, sol.k)
        direct = solve(sol.n0, sol.beta, SnrParam(sol.rho), sol.k)
        assert (sol.regime, sol.a, sol.b) == (direct.regime, direct.a, direct.b), key
        bracket = _edge_root_bracket(*key, sol.regime)
        assert calls == ([] if bracket is None else [bracket]), key
        roots += bracket is not None
    assert len(iterates) > 300 and roots > 100


@pytest.mark.parametrize(
    "n0, beta, rho, r",
    [
        # without the stall stop these took 19, 25 and 26 solves after k = 0
        (0.5, 1.5, 0.1, 0.9 * math.log1p(0.1)),
        (0.0, 1.0, 0.01, 0.09 * math.log1p(0.01)),
        (0.0, 1.0, 0.01, 0.0009774805986716773),  # an ld_sweep point, f = 0.098
    ],
)
def test_multiplier_newton_stops_at_its_noise_floor(monkeypatch, n0, beta, rho, r):
    # r(k) jitters by ~1e-11 of r at rho <= 0.1, so the Newton step on k
    # need not fall below its tolerance; the iteration stops at the first
    # iterate no better than the best
    snr = SnrParam(rho)
    ergodic_summary(n0, beta, snr)
    ks = []
    original = coulomb.solve_at_multiplier

    def counting(*args, **kwargs):
        ks.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(coulomb, "solve_at_multiplier", counting)
    sol = solve_regime(n0, beta, snr, r)
    assert len(ks) <= 10
    assert abs(sol.r - r) <= coulomb._LD_TOL * r


def test_solve_regime_at_r_erg_returns_the_cached_k0_solution(monkeypatch):
    for n0, beta, rho in SOLVE_GRID:
        snr = SnrParam(rho)
        erg = ergodic_summary(n0, beta, snr)
        calls = []
        monkeypatch.setattr(coulomb, "solve_at_multiplier", lambda *a, **kw: calls.append(a))
        sol = solve_regime(n0, beta, snr, erg.r)
        monkeypatch.undo()
        assert calls == []
        assert sol is erg and sol.k == 0.0


def test_solve_regime_logs_one_debug_record(monkeypatch, caplog):
    calls = []
    original = coulomb.solve_at_multiplier

    def counting(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(coulomb, "solve_at_multiplier", counting)
    snr = SnrParam(10.0)
    erg = ergodic_summary(1.0, 2.0, snr)
    for r in (0.3 * erg.r, erg.r, 1.2 * erg.r):
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="jacobi_mimo"):
            solve_regime(1.0, 2.0, snr, r)
        (rec,) = [rec for rec in caplog.records if rec.name == "jacobi_mimo"]
        params, solves, stop = rec.args
        assert params == (1.0, 2.0, 10.0, r)
        assert solves == len(calls)
        assert stop in ("step", "bracket", "stall")
        assert f"{solves} solves" in rec.getMessage()
        if r == erg.r:  # the cached k = 0 record: a zero Newton step, no solve
            assert (solves, stop) == (0, "step")
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="jacobi_mimo"):
        solve_regime(1.0, 2.0, snr, 0.5 * erg.r)
    assert not caplog.records


@pytest.mark.parametrize(
    "n0, beta, rho, f",
    [(0.0, 2.0, 1e-6, 0.5), (1.0, 2.0, 1e-6, 0.5), (0.0, 1.1, 1e16, 0.1), (0.25, 4.0, 1e16, 0.5)],
)
def test_solve_regime_reaches_rates_an_a_priori_rounding_floor_stopped_short_of(n0, beta, rho, f):
    # an a-priori floor of 8 eps times the rate's term magnitudes stopped
    # the Newton here at 3e-8 to 1.1e-7 of r, which then failed _LD_TOL
    r = f * math.log1p(rho)
    sol = solve_regime(n0, beta, SnrParam(rho), r)
    assert abs(sol.r - r) <= coulomb._LD_TOL * r


@pytest.mark.parametrize("frac", [0.3, 1.2])
def test_first_multiplier_solve_is_the_gaussian_guess(monkeypatch, frac):
    # Newton's step from the cached k = 0 record is (r - r_erg)/v_erg, bit for bit
    snr = SnrParam(10.0)
    erg = ergodic_summary(1.0, 2.0, snr)
    r = frac * erg.r
    ks = []
    original = coulomb.solve_at_multiplier

    def recording(*args, **kwargs):
        ks.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(coulomb, "solve_at_multiplier", recording)
    solve_regime(1.0, 2.0, snr, r)
    assert ks[0] == (r - erg.r) / erg.v


@pytest.mark.parametrize("k", [1e100, 1e200, 1e300])
def test_huge_multiplier_names_the_collapsed_support(k):
    # b on the wall at 1 and a rounded onto it: a = b = 1 surfaced as a bare
    # "math domain error" or "float division by zero"
    with pytest.raises(ArithmeticError, match=r"support endpoints \(1\.0.*, 1\.0\) collapsed"):
        solve_at_multiplier(0.0, 1.0, SnrParam(3.0), k)


def test_support_and_poles_at_huge_rho():
    # (rho, y, X^2, W^2) of a first Newton step at n0 = 0, beta = 2,
    # rho = 1e300: rho^2 W^2 was inf * 0, and s^2 - 4 W^2 underflows
    y = 0.0025
    assert coulomb._endpoints(1e300, y, 1.0, 0.0) == (0.0, y * (2.0 + y) / 1e300)
    # there W^2 = ((beta-1) z/c)^2 underflows, so a soft a would sit on the wall
    with pytest.raises(ArithmeticError, match="soft edge a underflowed to 0"):
        solve_at_multiplier(0.0, 2.0, SnrParam(1e300), -50.0)
    # (z+a)(z+b) ~ 1e-602 underflowed to a division by zero in the pole
    # weights; the poles now form, and the rate they give is refused
    with pytest.raises(ArithmeticError, match="rate -inf of the support .* not finite"):
        solve_at_multiplier(1.0, 1.0, SnrParam(1e300), -100.0)


def test_pinned_b_support_keeps_its_gap_past_rho_1e154():
    # b on the wall at 1 with W^2 >= 1/2: 1 - a was formed as
    # (rho - y)(2 + rho + y)/(rho(1 + rho)), inf/inf from rho ~ 1.3e154 on,
    # so a was nan; a converges in rho, to 25/49 at k = 5
    ref = solve_at_multiplier(0.0, 1.0, SnrParam(1e150), 5.0).a
    assert abs(ref - 25.0 / 49.0) <= 4 * math.ulp(ref)
    for rho in (1e160, 1e300):
        sol = solve_at_multiplier(0.0, 1.0, SnrParam(rho), 5.0)
        assert sol.regime == "Sa1" and sol.b == 1.0
        assert abs(sol.a - ref) <= 4 * math.ulp(ref), rho


@pytest.mark.parametrize("beta", [1.1, 2.0, 4.0])
@pytest.mark.parametrize("f", [0.1, 0.5, 0.9])
def test_huge_rho_points_solve_or_name_their_cause(beta, f):
    # rho^2 W^2 in _endpoints overflowed and (z+a)(z+b) in _poles
    # underflowed here; neither may surface as a bare ZeroDivisionError
    rho = 1e300
    r = f * math.log1p(rho)
    # the solver failures checked here do not depend on Nt; beta = 1.1 takes
    # Nt = 10, as Nr = 8.8 is no channel
    try:
        outage_asymptotic(_channel(0.0, beta, 10 if beta == 1.1 else 8), SnrParam(rho), r)
    except ArithmeticError as err:
        assert type(err) is ArithmeticError and "division by zero" not in str(err)
        assert "at (n0, beta, rho, k) = (0.0, " in str(err)
    else:
        sol = solve_regime(0.0, beta, SnrParam(rho), r)
        assert abs(sol.r - r) <= coulomb._LD_TOL * r


def test_negative_exponent_beyond_rounding_raises():
    # (0, 1, 3): from k = 1e10 on, b is pinned, a sits within 1e-9 of the
    # wall and the energy is rounding noise; it read Delta E = -1.37e13 at
    # k = 1e14.  The allowance is _LD_TOL (|E| + |E0|).
    for k in (1e10, 1e12, 1e14):
        sol = solve_at_multiplier(0.0, 1.0, SnrParam(3.0), k)
        with pytest.raises(ArithmeticError, match=r"exponent -.* below 0 beyond rounding"):
            sol.exponent


# Solver failures raise with their reason; these reach the raises that no
# solvable channel reaches, by a direct call or a stubbed step.


def test_endpoints_raise_on_a_complex_root_pair():
    # s^2 < 4m: the support's root pair is not real
    with pytest.raises(ArithmeticError, match=r"support endpoints not real and positive \(s=.*, ab=0\.3\)"):
        coulomb._endpoints(1.0, 0.1, 0.5, 0.3)


def test_support_raises_on_a_non_positive_soft_edge(monkeypatch):
    # an edge root at the low end of its bracket leaves 1/X or 1/W <= 0
    monkeypatch.setattr(coulomb, "bracketed_root", lambda f, lo, hi, *rest: lo)
    with pytest.raises(
        ArithmeticError,
        match=r"soft edge 1/X = .* or 1/W = .* not positive at the root y = .* at \(n0, beta, rho, k\)",
    ):
        solve_at_multiplier(1.0, 2.0, SnrParam(10.0), 1.0)


def test_solve_regime_raises_when_k_cannot_be_bracketed(monkeypatch):
    # every iterate past k = 0 stays 5% above the rate with a vanishing
    # slope, so the open bracket doubles k past 2^60
    snr = SnrParam(10.0)
    erg = ergodic_summary(1.0, 2.0, snr)
    r = 0.9 * erg.r
    stuck = lambda n0, beta, snr, k: dataclasses.replace(erg, k=k, r=1.05 * r, v=1e-300)
    monkeypatch.setattr(coulomb, "solve_at_multiplier", stuck)
    with pytest.raises(ArithmeticError, match=f"failed to bracket k for rate {r!r}"):
        solve_regime(1.0, 2.0, snr, r)


def test_solve_regime_raises_when_the_iteration_cap_is_reached(monkeypatch):
    snr = SnrParam(10.0)
    r = 0.5 * ergodic_summary(1.0, 2.0, snr).r
    monkeypatch.setattr(coulomb, "_K_ITER", 1)
    with pytest.raises(ArithmeticError, match=f"multiplier iteration for rate {r!r} did not converge"):
        solve_regime(1.0, 2.0, snr, r)


def test_outage_asymptotic_raises_on_a_non_positive_slope(monkeypatch):
    snr = SnrParam(10.0)
    r = 0.5 * ergodic_summary(1.0, 2.0, snr).r
    solve = coulomb.solve_regime
    monkeypatch.setattr(coulomb, "solve_regime", lambda *args: dataclasses.replace(solve(*args), v=0.0))
    with pytest.raises(ArithmeticError, match=r"non-positive slope dr/dk=0\.0 at r=.*has collapsed"):
        outage_asymptotic(normalize_dims(16, 4, 8), snr, r)
