"""Large-channel-count solver: constrained spectral densities and rate function.

For many channels the eigenvalues of U^H U behave like a 2D Coulomb gas
confined to (0, 1): the outage probability obeys

    P(I < r) ~ exp(-Nt^2 * (E(r) - E0)),

where E(r) minimizes the electrostatic energy functional

    E[p] = -n0 Int p log(1-x) - (beta-1) Int p log(x) - Int Int p p log|x-y|

over unit-mass densities with rate Int p(x) log(1+rho*x) dx pinned to r,
and E0 is the unconstrained minimum.  Stationarity gives a singular
integral equation whose solution on a single support interval (a, b)
falls into four families, depending on whether the support touches the
hard walls at 0 and 1:

    S01 (a=0, b=1)   only for n0=0, beta=1
    S0b (a=0, b<1)   only for beta=1
    Sa1 (a>0, b=1)   only for n0=0
    Sab (a>0, b<1)   generic; the soft-edge conditions p(a)=p(b)=0 hold

The rate constraint enters through a Lagrange multiplier k with
E'(r) = k: k = 0 at the ergodic rate r_erg (the distribution's peak),
k < 0 below it, k > 0 above.  Support endpoints come from normalization
and edge conditions at fixed k; the outer solve matches r(k) = r using
the monotonicity of r(k).  All the rate and energy integrals reduce to
closed forms in the kernel function G(x, y) from :mod:`.specfun`.

The Sab endpoints need no iteration in k.  With X = sqrt((1-a)(1-b)),
Y = sqrt((1+rho a)(1+rho b)), W = sqrt(ab) and c = n0+beta+1+k, the two
soft-edge conditions are linear in k,

    n0/X = c - k/Y,    (beta-1)/W = c - k(1+rho)/Y,

and the three quantities are tied by rho X^2 + Y^2 = (1+rho)(1+rho W^2).
For beta = 1 and for n0 = 0 that is a closed form; otherwise X and W are
explicit in Y and one bracketed scalar root in y = Y-1 in (0, rho)
remains.  a and b are the roots of t^2 - (a+b) t + ab.  The thresholds
are closed forms as well (z = 1/rho): Sab takes over from S0b above
k_c3 = (n0+2)z + 2 sqrt((n0+1)z(1+z)), where ab reaches 0, and from Sa1
below k_c4 = -(1+z)(beta+1) - 2 sqrt(beta z(1+z)), where (1-a)(1-b)
does; at n0 = 0, beta = 1 they are the two ends of S01.

The rate function's curvature needs no differencing.  At fixed k the
density is the equilibrium measure on one interval (a, b) in a field
tilted by k log(1+rho x), so dr/dk = V(a, b), the variance of that linear
statistic: a closed form in the endpoints alone (Beenakker, PRL 1993;
see _rate_variance).  Edge motion does not enter, since hard edges stay
fixed and soft edges move where the density is zero.  So V holds in all
four regimes, v_erg = V(a0, b0), and k' = dk/dr = E''(r) = 1/V.

Two transcription corrections relative to common statements of the
ergodic (k = 0) solution, both forced by the mass and moment checks in
the tests: the support endpoints are

    a0, b0 = (sqrt(1+n0) -/+ sqrt(beta(n0+beta)))^2 / (n0+1+beta)^2

(the denominator is squared) and the ergodic density carries the
prefactor (n0+beta+1):

    p0(x) = (n0+beta+1) sqrt((x-a0)(b0-x)) / (2 pi x (1-x)).

At n0=0, beta=1 these reduce to the arcsine law on (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq
from scipy.special import log_ndtr

from .ensemble import SnrParam
from .results import OutageEstimate
from .specfun import g_closed, q_fn

__all__ = [
    "ErgodicSummary",
    "RegimeSolution",
    "ergodic_summary",
    "ergodic_density",
    "critical_thresholds",
    "solve_regime",
    "solve_at_multiplier",
    "density_at",
    "rate_exponent",
    "density_asymptotic",
    "outage_asymptotic",
    "gaussian_outage",
]

_TWO_PI = 2.0 * math.pi
_K_TOL = 1e-12          # root tolerance on the Lagrange multiplier
_EDGE = 1e-15           # hard floor keeping endpoints inside (0, 1)
_LD_TOL = 1e-8          # advertised tolerance of the deterministic estimates


@dataclass(frozen=True)
class ErgodicSummary:
    """Unconstrained (k = 0) solution: support, rate, peak variance, E0."""

    n0: float
    beta: float
    rho: float
    a0: float
    b0: float
    r_erg: float
    v_erg: float
    e0: float


@dataclass(frozen=True)
class RegimeSolution:
    """One solved constrained-density instance.

    ``energy`` is E(r); ``exponent`` is Delta E = E(r) - E0 >= 0, the decay
    rate of the outage (r < r_erg) or overshoot (r > r_erg) probability.
    """

    regime: str
    a: float
    b: float
    k: float
    r: float
    energy: float
    exponent: float
    n0: float
    beta: float
    rho: float


def _check_params(n0: float, beta: float, snr: SnrParam):
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0!r}")
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta!r}")


def _xlogx(t: float) -> float:
    # 0*log(0) = 0 convention for the entropy-like terms in E0
    return 0.0 if t == 0.0 else t * math.log(t)


def _e0_value(n0: float, beta: float) -> float:
    return 0.5 * (
        (beta + n0 + 1.0) * _xlogx(beta + n0 + 1.0)
        - (beta + n0) * _xlogx(beta + n0)
        - beta * _xlogx(beta)
        + (beta - 1.0) * _xlogx(beta - 1.0)
        - (1.0 + n0) * _xlogx(1.0 + n0)
        + n0 * _xlogx(n0)
    )


def _ergodic_support(n0: float, beta: float) -> tuple[float, float]:
    t = n0 + 1.0 + beta
    lo = math.sqrt(1.0 + n0)
    hi = math.sqrt(beta * (n0 + beta))
    return ((hi - lo) / t) ** 2, ((hi + lo) / t) ** 2


def _rate_variance(rho: float, a: float, b: float) -> float:
    """dr/dk = V(a, b) = log((s_a+s_b)^2/(4 s_a s_b)), s = sqrt(1+rho x).

    Evaluated as log1p(d^2/(4 s_a s_b)), d = s_b - s_a = rho(b-a)/(s_a+s_b),
    which does not cancel on narrow supports or at small rho.
    """
    sa = math.sqrt(1.0 + rho * a)
    sb = math.sqrt(1.0 + rho * b)
    d = rho * (b - a) / (sa + sb)
    return math.log1p(d * d / (4.0 * sa * sb))


def ergodic_density(n0: float, beta: float, x: float) -> float:
    """Unconstrained limiting eigenvalue density p0 at x (0 outside support)."""
    a0, b0 = _ergodic_support(n0, beta)
    if not a0 < x < b0:
        return 0.0
    return (n0 + beta + 1.0) * math.sqrt((x - a0) * (b0 - x)) / (_TWO_PI * x * (1.0 - x))


# ---------------------------------------------------------------------------
# Regime S01: support (0, 1); only for n0 = 0, beta = 1
# ---------------------------------------------------------------------------

def _s01_rate_coeffs(z: float) -> tuple[float, float]:
    """(r_erg, v) with r(k) = r_erg + k*v in the S01 family."""
    rho = 1.0 / z
    r_erg = 2.0 * math.log(0.5 * (1.0 + math.sqrt(1.0 + rho)))
    return r_erg, _rate_variance(rho, 0.0, 1.0)


def _s01_k_limits(z: float) -> tuple[float, float]:
    d = math.sqrt(z + 1.0) - math.sqrt(z)
    return -2.0 * math.sqrt(z + 1.0) / d, 2.0 * math.sqrt(z) / d


# ---------------------------------------------------------------------------
# Regime S0b: support (0, b); only for beta = 1
# ---------------------------------------------------------------------------

def _s0b_norm_residual(n0: float, z: float, k: float, b: float) -> float:
    return n0 / math.sqrt(1.0 - b) + k * math.sqrt(z / (z + b)) - (2.0 + n0 + k)


def _s0b_b_of_k(n0: float, z: float, k: float) -> float:
    lo, hi = _EDGE, 1.0 - _EDGE
    flo = _s0b_norm_residual(n0, z, k, lo)
    fhi = _s0b_norm_residual(n0, z, k, hi)
    if not flo < 0 < fhi:
        raise ArithmeticError(
            f"S0b normalization not bracketed for k={k!r} "
            f"(residuals {flo!r} at b->0, {fhi!r} at b->1)"
        )
    return brentq(
        lambda b: _s0b_norm_residual(n0, z, k, b), lo, hi, xtol=1e-300, rtol=8.9e-16
    )


def _s0b_poles(n0: float, z: float, k: float, b: float) -> list[tuple[float, float]]:
    """Pole decomposition of the S0b density in t = x/b.

    p(x) dx = (1/2pi) sqrt(t(1-t)) sum_i gamma_i/(t + y_i) dt; the hard
    edge at 0 contributes the y = 0 pole.
    """
    big_n = n0 / math.sqrt(1.0 - b)
    big_k = k * math.sqrt(z) / math.sqrt(z + b)
    return [
        (b * big_n - b * big_k / z, 0.0),
        (-b * big_n, -1.0 / b),
        (b * big_k / z, z / b),
    ]


# ---------------------------------------------------------------------------
# Regime Sa1: support (a, 1); only for n0 = 0
# ---------------------------------------------------------------------------

def _sa1_norm_residual(beta: float, z: float, k: float, a: float) -> float:
    return (
        (beta - 1.0) / math.sqrt(a)
        + k * math.sqrt((z + 1.0) / (z + a))
        - (beta + 1.0 + k)
    )


def _sa1_a_of_k(beta: float, z: float, k: float) -> float:
    lo, hi = _EDGE, 1.0 - _EDGE
    flo = _sa1_norm_residual(beta, z, k, lo)
    fhi = _sa1_norm_residual(beta, z, k, hi)
    if not flo > 0 > fhi:
        raise ArithmeticError(
            f"Sa1 normalization not bracketed for k={k!r} "
            f"(residuals {flo!r} at a->0, {fhi!r} at a->1)"
        )
    return brentq(
        lambda a: _sa1_norm_residual(beta, z, k, a), lo, hi, xtol=1e-300, rtol=8.9e-16
    )


def _sa1_poles(beta: float, z: float, k: float, a: float) -> list[tuple[float, float]]:
    """Pole decomposition of the Sa1 density in t = (x-a)/(1-a).

    The hard edge at 1 contributes the y = -1 pole.
    """
    d = 1.0 - a
    kk = k * d / math.sqrt((z + 1.0) * (z + a))
    bb = (beta - 1.0) * d / math.sqrt(a)
    return [
        (-(kk + bb), -1.0),
        (kk, (a + z) / d),
        (bb, a / d),
    ]


# ---------------------------------------------------------------------------
# Regime Sab: detached support (a, b); soft edges p(a) = p(b) = 0
# ---------------------------------------------------------------------------

def _kc3(n0: float, z: float) -> tuple[float, float]:
    """beta = 1, n0 > 0: Sab takes over from S0b above k_c3, where p(0+) hits zero.

    Returns (k_c3, e): the roots of the ab = 0 quadratic
    k^2 - 2(n0+2)z k + z(1+z)n0^2 - z(n0+2)^2 are (n0+2)z -/+ e.
    """
    e = 2.0 * math.sqrt((n0 + 1.0) * z * (1.0 + z))
    return (n0 + 2.0) * z + e, e


def _kc4(beta: float, z: float) -> tuple[float, float]:
    """n0 = 0, beta > 1: Sab takes over from Sa1 below k_c4, where p(1-) hits zero.

    Returns (k_c4, e): the roots of the (1-a)(1-b) = 0 quadratic
    k^2 + 2(1+z)(beta+1)k + (1+z)((beta+1)^2 + z(beta-1)^2) are
    -(1+z)(beta+1) -/+ e.
    """
    e = 2.0 * math.sqrt(beta * z * (1.0 + z))
    return -(1.0 + z) * (beta + 1.0) - e, e


def _sab_support(rho: float, y: float, x2: float, m: float) -> tuple[float, float]:
    """(a, b) from Y = 1+y, X^2 and m = ab as the roots of t^2 - st + m.

    s = a+b comes from Y^2 = 1 + rho s + rho^2 m or from X^2 = 1 - s + m,
    whichever loses less to cancellation (the first while a << 1/rho).
    """
    yy = y * (2.0 + y)
    if yy + rho * rho * m < rho * (1.0 + m + x2):
        s = (yy - rho * rho * m) / rho
    else:
        s = 1.0 + m - x2
    disc = s * s - 4.0 * m
    if not disc >= 0.0:
        raise ArithmeticError(f"Sab endpoints not real (s={s!r}, ab={m!r})")
    b = 0.5 * (s + math.sqrt(disc))
    a = m / b
    if not 0.0 <= a < b <= 1.0:
        raise ArithmeticError(f"Sab endpoints ({a!r}, {b!r}) outside [0, 1]")
    return a, b


def _sab_ab_of_k(n0: float, beta: float, z: float, k: float) -> tuple[float, float]:
    rho = 1.0 / z
    c = n0 + beta + 1.0 + k
    if beta == 1.0:  # n0/X = c rho/(1+rho), Y = k(1+rho)/c
        k_c3, e = _kc3(n0, z)
        return _sab_support(
            rho, (k - (n0 + 2.0) * z) / (z * c), (n0 * (1.0 + z) / c) ** 2,
            (k - k_c3) * (k - k_c3 + 2.0 * e) / (c * c),
        )
    if n0 == 0:  # Y = k/c, (beta-1)/W = -rho c
        k_c4, e = _kc4(beta, z)
        return _sab_support(
            rho, -(beta + 1.0) / c, (k - k_c4) * (k - k_c4 - 2.0 * e) / (c * c),
            ((beta - 1.0) * z / c) ** 2,
        )

    def inverses(y):  # 1/X and 1/W from the two conditions
        t = k / (1.0 + y)
        return (c - t) / n0, (c - (1.0 + rho) * t) / (beta - 1.0)

    def tie(y):  # rho X^2 + Y^2 - (1+rho)(1+rho W^2), times (ix iw)^2
        ix, iw = inverses(y)
        ix2, iw2 = ix * ix, iw * iw
        return rho * iw2 + (y * (2.0 + y) - rho) * ix2 * iw2 - rho * (1.0 + rho) * ix2

    # ix, iw > 0 on (lo, hi); tie < 0 at lo (y = 0 or iw = 0) and > 0 at hi
    lo, hi = 0.0, rho
    if k > 0:
        lo = max(lo, k * (1.0 + rho) / c - 1.0)
    elif c < 0:
        hi = min(hi, k / c - 1.0)
    y = brentq(tie, lo, hi, xtol=1e-300, rtol=8.9e-16)
    ix, iw = inverses(y)
    return _sab_support(rho, y, 1.0 / (ix * ix), 1.0 / (iw * iw))


def _sab_poles(n0: float, beta: float, z: float, a: float, b: float) -> list[tuple[float, float]]:
    """Pole decomposition of the Sab density in t = (x-a)/(b-a).

    Terms are (gamma, y) for gamma/(t+y): the SNR pole carries y = az,
    the wall terms y = -(1-a)/d and y = a/d.  Both edges are soft, so
    every pole sits strictly outside [0, 1].
    """
    d = b - a
    az = (a + z) / d
    gz = 0.0
    gc = 0.0
    ga = 0.0
    if n0:
        w = n0 / math.sqrt(((1.0 - a) / d) * ((1.0 - b) / d))
        gz += w
        gc -= w
    if beta > 1.0:
        w = (beta - 1.0) / math.sqrt((a / d) * (b / d))
        gz -= w
        ga += w
    return [(gz, az), (gc, -(1.0 - a) / d), (ga, a / d)]


# ---------------------------------------------------------------------------
# Rates and energies from the pole decompositions
#
# With the density written as p dx = (1/2pi) sqrt(t(1-t)) sum gamma/(t+y) dt
# on the unit t-interval, every integral against log(t + w) is a G value:
#
#   Int p log(1 + rho x) dx = log(rho d) + (1/2) sum gamma G(az, y)
#   I0 := Int p log x dx    = log d + (1/2) sum gamma G(a/d, y)
#   Ic := Int p log(1-x) dx = log d - (1/2) sum gamma G((1-b)/d, -(1+y))
#   L(b):= Int p log(b-x)   = log d - (1/2) sum gamma G(0, -(1+y))
#   L(a):= Int p log(x-a)   = log d + (1/2) sum gamma G(0, y)
#
# (the flipped arguments come from t -> 1-t, which negates gamma and maps
# the pole y to -(1+y)).  Multiplying the stationarity condition by p and
# integrating eliminates the double logarithmic integral, leaving
#
#   E(r) = (k/2)(r - log(1+rho x0)) - (n0/2)(Ic + log(1-x0))
#          - ((beta-1)/2)(I0 + log x0) - L(x0)
#
# for any reference point x0 in the support; x0 = b except for Sa1, whose
# support ends at the wall b = 1 (there x0 = a).  This assembly is what
# the per-regime energy expressions unfold to, and is validated against
# direct quadrature of the energy functional in the tests.
# ---------------------------------------------------------------------------

def _rate_from_poles(z: float, a: float, b: float, poles) -> float:
    d = b - a
    az = (a + z) / d
    r = math.log(d / z)
    for gamma, y in poles:
        if gamma:
            r += 0.5 * gamma * g_closed(az, y)
    return r


def _energy_from_poles(n0, beta, z, k, a, b, r, poles, x0) -> float:
    d = b - a
    rho = 1.0 / z
    e = 0.5 * k * (r - math.log1p(rho * x0))
    if n0:
        ic = math.log(d)
        for gamma, y in poles:
            if gamma:
                ic -= 0.5 * gamma * g_closed((1.0 - b) / d, -(1.0 + y))
        e -= 0.5 * n0 * (ic + math.log1p(-x0))
    if beta > 1.0:
        i0 = math.log(d)
        for gamma, y in poles:
            if gamma:
                i0 += 0.5 * gamma * g_closed(a / d, y)
        e -= 0.5 * (beta - 1.0) * (i0 + math.log(x0))
    lref = math.log(d)
    for gamma, y in poles:
        if gamma:
            if x0 == b:
                lref -= 0.5 * gamma * g_closed(0.0, -(1.0 + y))
            else:
                lref += 0.5 * gamma * g_closed(0.0, y)
    return e - lref


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def critical_thresholds(n0: float, beta: float, snr: SnrParam) -> list[tuple[float, float]]:
    """Regime-boundary points (k_c, r_c), ordered by rate.

    n0=0, beta=1 has two (S0b|S01 and S01|Sa1); the one-sided hard-edge
    cases have one; the fully detached case n0>0, beta>1 has none (Sab
    covers every rate).
    """
    _check_params(n0, beta, snr)
    z = snr.z
    if n0 == 0 and beta == 1.0:
        r_erg, v = _s01_rate_coeffs(z)
        k1, k2 = _s01_k_limits(z)
        return [(k1, r_erg + k1 * v), (k2, r_erg + k2 * v)]
    if beta == 1.0:  # a = 0, sqrt(1-b) = n0(1+z)/c
        k = _kc3(n0, z)[0]
        b = 1.0 - (n0 * (1.0 + z) / (n0 + 2.0 + k)) ** 2
        return [(k, _rate_from_poles(z, 0.0, b, _s0b_poles(n0, z, k, b)))]
    if n0 == 0:  # b = 1, sqrt(a) = (beta-1)z/|c|
        k = _kc4(beta, z)[0]
        a = ((beta - 1.0) * z / (beta + 1.0 + k)) ** 2
        return [(k, _rate_from_poles(z, a, 1.0, _sa1_poles(beta, z, k, a)))]
    return []


def _regime_for_k(n0: float, beta: float, z: float, k: float) -> str:
    if n0 == 0 and beta == 1.0:
        k1, k2 = _s01_k_limits(z)
        return "S0b" if k < k1 else ("Sa1" if k > k2 else "S01")
    if beta == 1.0:
        return "S0b" if k < _kc3(n0, z)[0] else "Sab"
    if n0 == 0:
        return "Sa1" if k > _kc4(beta, z)[0] else "Sab"
    return "Sab"


def solve_at_multiplier(n0: float, beta: float, snr: SnrParam, k: float) -> RegimeSolution:
    """Constrained-density solution for a given Lagrange multiplier k.

    The regime follows from k against the critical thresholds; the rate
    comes out of the solution (use :func:`solve_regime` to prescribe the
    rate instead).
    """
    _check_params(n0, beta, snr)
    z = snr.z
    e0 = _e0_value(n0, beta)
    regime = _regime_for_k(n0, beta, z, k)
    if regime == "S01":
        r_erg, v = _s01_rate_coeffs(z)
        r = r_erg + k * v
        energy = e0 + 0.5 * k * k * v
        return RegimeSolution("S01", 0.0, 1.0, k, r, energy, energy - e0, n0, beta, snr.rho)
    if regime == "S0b":
        b = _s0b_b_of_k(n0, z, k)
        poles = _s0b_poles(n0, z, k, b)
        r = _rate_from_poles(z, 0.0, b, poles)
        energy = _energy_from_poles(n0, beta, z, k, 0.0, b, r, poles, x0=b)
        return RegimeSolution("S0b", 0.0, b, k, r, energy, energy - e0, n0, beta, snr.rho)
    if regime == "Sa1":
        a = _sa1_a_of_k(beta, z, k)
        poles = _sa1_poles(beta, z, k, a)
        r = _rate_from_poles(z, a, 1.0, poles)
        energy = _energy_from_poles(n0, beta, z, k, a, 1.0, r, poles, x0=a)
        return RegimeSolution("Sa1", a, 1.0, k, r, energy, energy - e0, n0, beta, snr.rho)
    a, b = _sab_ab_of_k(n0, beta, z, k)
    poles = _sab_poles(n0, beta, z, a, b)
    r = _rate_from_poles(z, a, b, poles)
    energy = _energy_from_poles(n0, beta, z, k, a, b, r, poles, x0=b)
    return RegimeSolution("Sab", a, b, k, r, energy, energy - e0, n0, beta, snr.rho)


def solve_regime(n0: float, beta: float, snr: SnrParam, r: float) -> RegimeSolution:
    """Constrained-density solution at prescribed rate r in (0, log(1+rho)).

    Outer bracketed root-find on the multiplier k; r(k) is strictly
    increasing (dr/dk = 1/E'' > 0 by convexity), which the expanding
    bracket verifies as it goes.  A root whose rate misses r by more than
    _LD_TOL (near the top of the window) raises ArithmeticError.
    """
    _check_params(n0, beta, snr)
    rmax = math.log1p(snr.rho)
    if not 0.0 < r < rmax:
        raise ValueError(f"rate {r!r} outside the achievable interval (0, {rmax!r})")

    cache: dict[float, RegimeSolution] = {}

    def rate_at(k: float) -> float:
        sol = solve_at_multiplier(n0, beta, snr, k)
        cache[k] = sol
        return sol.r

    r0 = rate_at(0.0)
    if abs(r - r0) < 1e-14:
        return cache[0.0]
    step = 1.0 if r > r0 else -1.0  # widen the bracket (near, far) toward r
    near, r_near, far = 0.0, r0, step
    r_far = rate_at(far)
    while (r_far - r) * step < 0:
        if (r_far - r_near) * step < 0:
            raise ArithmeticError("r(k) not increasing during bracket expansion")
        near, r_near, far = far, r_far, 2.0 * far
        if abs(far) > 2.0**60:
            raise ArithmeticError(f"failed to bracket k for rate {r!r}")
        r_far = rate_at(far)
    lo, hi = sorted((near, far))
    k_star = brentq(lambda k: rate_at(k) - r, lo, hi, xtol=_K_TOL, rtol=8.9e-16)
    sol = cache.get(k_star) or solve_at_multiplier(n0, beta, snr, k_star)
    if abs(sol.r - r) > _LD_TOL * r:
        raise ArithmeticError(f"multiplier root k={k_star!r} reaches rate {sol.r!r}, not {r!r}")
    return sol


def density_at(sol: RegimeSolution, x: float) -> float:
    """Constrained eigenvalue density of ``sol`` at x (0 outside support)."""
    if not sol.a < x < sol.b:
        return 0.0
    z = 1.0 / sol.rho
    k, n0, beta = sol.k, sol.n0, sol.beta
    if sol.regime == "S01":
        num = (z + x) * (k + 2.0) - k * math.sqrt(z * (z + 1.0))
        return num / (_TWO_PI * (z + x) * math.sqrt(x * (1.0 - x)))
    if sol.regime == "S0b":
        b = sol.b
        body = -k * math.sqrt(z) / (math.sqrt(z + b) * (z + x))
        if n0:
            body += n0 / (math.sqrt(1.0 - b) * (1.0 - x))
        return math.sqrt((b - x) / x) * body / _TWO_PI
    if sol.regime == "Sa1":
        a = sol.a
        body = k * math.sqrt((z + 1.0) / (z + a)) / (z + x)
        if beta > 1.0:
            body += (beta - 1.0) / (x * math.sqrt(a))
        return math.sqrt(x - a) / (_TWO_PI * math.sqrt(1.0 - x)) * body
    a, b = sol.a, sol.b
    body = 0.0
    if n0:
        body += n0 * (sol.rho + 1.0) / ((1.0 - x) * math.sqrt((1.0 - a) * (1.0 - b)))
    if beta > 1.0:
        body += (beta - 1.0) / (x * math.sqrt(a * b))
    return math.sqrt((x - a) * (b - x)) / (_TWO_PI * (1.0 + sol.rho * x)) * body


def ergodic_summary(n0: float, beta: float, snr: SnrParam) -> ErgodicSummary:
    """Support, ergodic rate, peak variance, and E0 of the k = 0 solution."""
    _check_params(n0, beta, snr)
    a0, b0 = _ergodic_support(n0, beta)
    sol0 = solve_at_multiplier(n0, beta, snr, 0.0)
    return ErgodicSummary(
        n0=n0, beta=beta, rho=snr.rho, a0=a0, b0=b0,
        r_erg=sol0.r, v_erg=_rate_variance(snr.rho, a0, b0), e0=_e0_value(n0, beta),
    )


def rate_exponent(n0: float, beta: float, snr: SnrParam, r: float) -> float:
    """Delta E(r) = E(r) - E0: P(I < r) ~ exp(-Nt^2 Delta E) for r < r_erg."""
    return solve_regime(n0, beta, snr, r).exponent


def density_asymptotic(n0: float, beta: float, snr: SnrParam, nt: int, r: float) -> float:
    """Large-Nt rate density: Nt exp(-Nt^2 Delta E(r)) / sqrt(2 pi v_erg)."""
    if nt < 1:
        raise ValueError("nt must be >= 1")
    de = solve_regime(n0, beta, snr, r).exponent
    v_erg = _rate_variance(snr.rho, *_ergodic_support(n0, beta))
    return nt * math.exp(-nt * nt * de) / math.sqrt(_TWO_PI * v_erg)


def outage_asymptotic(n0: float, beta: float, snr: SnrParam, nt: int, r: float) -> OutageEstimate:
    """Finite-Nt outage from the rate function with the Gaussian-peak crossover.

    Laplace integration of the asymptotic density gives, for r < r_erg,

        P_out ~ exp(-Nt^2 (dE - k^2/(2 k'))) * Q(Nt |k| / sqrt(k')) / sqrt(k' v_erg)

    with k' = dk/dr = 1/V(a, b) from the solved support (module docstring),
    and one minus the mirrored expression for r > r_erg (k > 0); the
    branches meet at 1/2 at the ergodic rate.  Evaluated in log space so
    deep tails neither underflow nor lose the exponent.
    """
    if nt < 1:
        raise ValueError("nt must be >= 1")
    sol = solve_regime(n0, beta, snr, r)
    v = _rate_variance(snr.rho, sol.a, sol.b)
    if not v > 0:
        raise ArithmeticError(
            f"non-positive slope dr/dk={v!r} at r={r!r}: the support ({sol.a!r}, "
            f"{sol.b!r}) has collapsed, which a convex rate function does not allow"
        )
    v_erg = _rate_variance(snr.rho, *_ergodic_support(n0, beta))
    u = nt * abs(sol.k) * math.sqrt(v)
    log_tail = (
        -nt * nt * (sol.exponent - 0.5 * sol.k * sol.k * v)
        + float(log_ndtr(-u))
        - 0.5 * math.log(v_erg / v)
    )
    tail = math.exp(min(log_tail, 0.0))
    p = tail if sol.k <= 0.0 else 1.0 - tail
    return OutageEstimate(p=p, ci_low=p, ci_high=p, method="ld", trials_or_tol=_LD_TOL)


def gaussian_outage(ergodic: ErgodicSummary, nt: int, r: float) -> OutageEstimate:
    """Gaussian comparator: the rate treated as N(r_erg, v_erg / Nt^2).

    P_out = Q((r_erg - r) * Nt / sqrt(v_erg)); the baseline the rate
    function is meant to beat away from the peak.
    """
    if nt < 1:
        raise ValueError("nt must be >= 1")
    p = q_fn((ergodic.r_erg - r) * nt / math.sqrt(ergodic.v_erg))
    return OutageEstimate(p=p, ci_low=p, ci_high=p, method="gauss", trials_or_tol=_LD_TOL)
