"""Large-channel-count solver: constrained spectral densities and rate function.

For many channels the eigenvalues of U^H U behave like a 2D Coulomb gas
confined to (0, 1): the outage probability obeys

    P(I < r) ~ exp(-Nt^2 * (E(r) - E0)),

where E(r) minimizes the electrostatic energy functional

    E[p] = -n0 Int p log(1-x) - (beta-1) Int p log(x) - Int Int p p log|x-y|

over unit-mass densities with rate Int p(x) log(1+rho*x) dx pinned to r,
and E0 is the unconstrained minimum.  The rate constraint enters through
a Lagrange multiplier k with E'(r) = k: k = 0 at the ergodic rate r_erg
(the distribution's peak), k < 0 below it, k > 0 above.  The k = 0
solution, on the closed-form support below, is the ergodic record:
ergodic_summary caches it, and its r, v and e0 are r_erg, v_erg and E0.
The outer solve matches r(k) = r by Newton on k with the closed-form
slope dr/dk = V(a, b) below, starting from that record, so its first
step is the Gaussian guess (r - r_erg)/v_erg; r(k) is increasing, so
k = 0 bounds the root on one side.  The Newton stops only on what it
observes: a step or bracket below the multiplier tolerance, or an
iterate no closer to r than the best so far once that best meets the
1e-8 tolerance (r(k) has then reached its rounding noise).

At fixed k the minimizer is a one-cut density on (a, b) whose edges are
either soft (p vanishes there) or pinned to the hard walls at 0 and 1.
With X = sqrt((1-a)(1-b)), Y = sqrt((1+rho a)(1+rho b)), W = sqrt(ab) and
c = n0+beta+1+k, one edge system covers every case:

    soft a:   (beta-1)/W = c - k(1+rho)/Y
    soft b:   n0/X       = c - k/Y
    always:   rho X^2 + Y^2 = (1+rho)(1+rho W^2),  W = 0 / X = 0 when pinned.

An edge pins only when it carries no wall charge: a for beta = 1 below
k_c3 = (n0+2)z + 2 sqrt((n0+1)z(1+z)), where ab reaches 0, and b for
n0 = 0 above k_c4 = -(1+z)(beta+1) - 2 sqrt(beta z(1+z)), where (1-a)(1-b)
does (z = 1/rho).  The two flags name the four regimes:

    S01 (a=0, b=1)   n0=0, beta=1, k_c4 <= k <= k_c3
    S0b (a=0, b<1)   beta=1
    Sa1 (a>0, b=1)   n0=0
    Sab (a>0, b<1)   generic

A soft edge without charge (beta = 1 at a, n0 = 0 at b) makes Y explicit
in k, so those supports are closed forms; otherwise X and W are explicit
in Y and one bracketed scalar root in y = Y-1 in (0, rho) remains: one
root call on the bracket that the soft edges' positivity bounds, so a
support depends on (n0, beta, rho, k) alone.

The density is one pole decomposition in t = (x-a)/d, d = b-a:

    p(x) dx = (1/2pi) sqrt(t(1-t)) sum_i gamma_i/(t + y_i) dt,

with poles y = (a+z)/d, -(1-a)/d and a/d and weights d k rho/Y,
-n0 d/X (soft b) and (beta-1) d/W (soft a); a pinned edge takes the
weight that makes them sum to zero, and in S01 the wall at 1 carries
-d(c - k/Y); each pole also carries its 1 + y (see _poles).  All the rate
and energy integrals then reduce to closed forms in the kernel function
G(x, y) from :mod:`.specfun`.

The rate function's curvature needs no differencing.  At fixed k the
density is the equilibrium measure on one interval (a, b) in a field
tilted by k log(1+rho x), so dr/dk = V(a, b), the variance of that linear
statistic: a closed form in the endpoints alone (Beenakker, PRL 1993;
see _variance).  Edge motion does not enter, since pinned edges
stay fixed and soft edges move where the density is zero.  So V holds in
all four regimes, v_erg = V(a0, b0), and k' = dk/dr = E''(r) = 1/V.

Two transcription corrections relative to common statements of the
ergodic (k = 0) solution, both forced by the mass and moment checks in
the tests: the support endpoints are

    a0, b0 = (sqrt(1+n0) -/+ sqrt(beta(n0+beta)))^2 / (n0+1+beta)^2

(the denominator is squared; a0 is evaluated as
(beta-1)^2 / (sqrt(1+n0) + sqrt(beta(n0+beta)))^2, the same value without
the cancellation as beta -> 1) and the ergodic density carries the
prefactor (n0+beta+1):

    p0(x) = (n0+beta+1) sqrt((x-a0)(b0-x)) / (2 pi x (1-x)).

At n0=0, beta=1 these reduce to the arcsine law on (0, 1).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import ChannelDims, SnrParam
from .results import OutageEstimate
from .specfun import bracketed_root, g_closed, log_q, q_fn

__all__ = [
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
_K_ITER = 200           # cap on the outer multiplier iterations
_LD_TOL = 1e-8          # relative rate tolerance of the multiplier solve, and the exponent's allowance

_log = logging.getLogger("jacobi_mimo")
_SOLVE_RECORD = "solve_regime%r: %d solves, stop: %s"


@dataclass(frozen=True)
class RegimeSolution:
    """One solved constrained-density instance; at k = 0 the ergodic record.

    ``energy`` is E(r); ``exponent`` is Delta E = E(r) - E0 >= 0, the decay
    rate of the outage (r < r_erg) or overshoot (r > r_erg) probability,
    and ``e0`` is E0.  They are computed when read, ``energy`` once, so an
    outer solve pays for the energy of the one iterate it returns.  ``v``
    is dr/dk = V(a, b), the rate variance of the support (v_erg at k = 0),
    which the outer solve reads from every iterate.  ``poles`` is the
    (gamma, y, 1+y) decomposition the solution was built from.
    """

    regime: str
    a: float
    b: float
    k: float
    r: float
    n0: float
    beta: float
    rho: float
    poles: tuple[tuple[float, float, float], ...] = field(repr=False)
    v: float = field(repr=False)

    @functools.cached_property
    def energy(self) -> float:
        a, b = self.a, self.b
        return _energy_from_poles(
            self.n0, self.beta, 1.0 / self.rho, self.k, a, b, self.r, self.poles,
            x0=a if b == 1.0 else b,
        )

    @property
    def e0(self) -> float:
        return _e0_value(self.n0, self.beta)

    @property
    def exponent(self) -> float:
        """Delta E; one below 0 by more than _LD_TOL (|E| + |E0|) raises ArithmeticError.

        That allowance is far above the energy's rounding, which leaves
        the k = 0 records about 1e-14 of |E| + |E0| below 0, and far
        below the energy of a support that has lost its digits.
        """
        e, e0 = self.energy, self.e0
        if e - e0 < -_LD_TOL * (abs(e) + abs(e0)):
            raise ArithmeticError(
                f"exponent {e - e0!r} below 0 beyond rounding: the energy {e!r} of the support "
                f"({self.a!r}, {self.b!r}) at (n0, beta, rho, k) = "
                f"{(self.n0, self.beta, self.rho, self.k)!r} is under E0 = {e0!r}"
            )
        return e - e0


def _check_params(n0: float, beta: float):
    if not 0 <= n0 < math.inf:
        raise ValueError(f"n0 must be finite and >= 0, got {n0!r}")
    if not 1 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 1, got {beta!r}")


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
    lo = math.sqrt(1.0 + n0)
    hi = math.sqrt(beta * (n0 + beta))
    return ((beta - 1.0) / (hi + lo)) ** 2, ((hi + lo) / (n0 + 1.0 + beta)) ** 2


def _variance(rho: float, a: float, b: float) -> float:
    """v = dr/dk = V(a, b) = log((s_a+s_b)^2/(4 s_a s_b)) of a support (a, b), s = sqrt(1+rho x).

    Evaluated as log1p(d^2/(4 s_a s_b)), d = s_b - s_a = rho(b-a)/(s_a+s_b),
    which does not cancel on narrow supports or at small rho.
    """
    sa = math.sqrt(1.0 + rho * a)
    sb = math.sqrt(1.0 + rho * b)
    d = rho * (b - a) / (sa + sb)
    return math.log1p(d * d / (4.0 * sa * sb))


def _on_support(x, a: float, b: float, p):
    """p at the points of x inside (a, b) and 0.0 elsewhere; a float for scalar x."""
    x = np.asarray(x, dtype=float)
    inside = (a < x) & (x < b)
    out = np.zeros(x.shape)
    out[inside] = p(x[inside])
    return float(out) if out.ndim == 0 else out


def ergodic_density(n0: float, beta: float, x):
    """Unconstrained limiting eigenvalue density p0 at x (0 outside support).

    x may be a float or an array; an array gives an array of the same shape.
    """
    _check_params(n0, beta)
    a0, b0 = _ergodic_support(n0, beta)
    return _on_support(
        x, a0, b0,
        lambda x: (n0 + beta + 1.0) * np.sqrt((x - a0) * (b0 - x)) / (_TWO_PI * x * (1.0 - x)),
    )


# ---------------------------------------------------------------------------
# One edge system for all four regimes
# ---------------------------------------------------------------------------

_REGIMES = {(True, True): "S01", (True, False): "S0b", (False, True): "Sa1", (False, False): "Sab"}


def _kc3(n0: float, z: float) -> tuple[float, float]:
    """beta = 1: a leaves the wall at 0 above k_c3, where W^2 = ab reaches zero.

    Returns (k_c3, e): the roots of the ab = 0 quadratic
    k^2 - 2(n0+2)z k + z(1+z)n0^2 - z(n0+2)^2 are (n0+2)z -/+ e.
    """
    e = 2.0 * math.sqrt((n0 + 1.0) * z * (1.0 + z))
    return (n0 + 2.0) * z + e, e


def _kc4(beta: float, z: float) -> tuple[float, float]:
    """n0 = 0: b leaves the wall at 1 below k_c4, where X^2 = (1-a)(1-b) reaches zero.

    Returns (k_c4, e): the roots of the (1-a)(1-b) = 0 quadratic
    k^2 + 2(1+z)(beta+1)k + (1+z)((beta+1)^2 + z(beta-1)^2) are
    -(1+z)(beta+1) -/+ e.
    """
    e = 2.0 * math.sqrt(beta * z * (1.0 + z))
    return -(1.0 + z) * (beta + 1.0) - e, e


def _endpoints(rho: float, y: float, x2: float, m: float) -> tuple[float, float]:
    """(a, b) from Y = 1+y, X^2 and W^2 = m.

    A support off the wall at 1 is the root pair of t^2 - st + m, with
    s = a+b from Y^2 = 1 + rho s + rho^2 m or from X^2 = 1 - s + m,
    whichever carries the smaller rounding error (the first while
    a << 1/rho, the second near the wall at 1), both divided by rho so
    that no rho^2 overflows at huge rho; a on the wall at 0 is m = 0.
    With b on the wall at 1 (X = 0), a = W^2, or near the wall its gap
    1 - a = ((1+rho)^2 - Y^2)/(rho(1+rho)), which keeps its digits.
    """
    if x2 == 0.0:
        a = m if m < 0.5 else 1.0 - (rho - y) / rho * ((2.0 + rho + y) / (1.0 + rho))
        b = 1.0
    else:
        yy = y * (2.0 + y)
        if yy / rho + rho * m < m + x2:
            s = yy / rho - rho * m
        else:
            s = 1.0 + m - x2
        # the discriminant over s^2: s^2 - 4m underflows once s ~ 1/rho at huge rho
        disc = 1.0 - 4.0 * (m / s) / s if s > 0.0 else -1.0
        if not disc >= 0.0:
            raise ArithmeticError(f"support endpoints not real and positive (s={s!r}, ab={m!r})")
        b = 0.5 * s * (1.0 + math.sqrt(disc))
        a = m / b
    if not 0.0 <= a < b <= 1.0:
        raise ArithmeticError(f"support endpoints ({a!r}, {b!r}) collapsed or outside [0, 1]")
    return a, b


def _support(n0: float, beta: float, z: float, k: float) -> tuple[str, float, float]:
    """Regime and support (a, b) at multiplier k.

    a sits on the wall at 0 for beta = 1 below k_c3, b on the wall at 1
    for n0 = 0 above k_c4; the regime names the pair of pins.  S01 keeps
    its two end points, while S0b and Sa1 leave theirs to Sab.  k = 0 is
    the closed-form ergodic support, with no edge root.  Otherwise a soft
    edge without charge makes the support a closed form, and the rest
    take one root call of the edge equation in y = Y - 1 on (lo, hi):
    y in (0, rho), narrowed to where the soft edges' 1/X and 1/W are
    positive.  The edge equation changes sign there, and the root checks
    that it does.
    """
    k_c3, e3 = _kc3(n0, z)
    k_c4, e4 = _kc4(beta, z)
    s01 = n0 == 0 and beta == 1.0 and k_c4 <= k <= k_c3
    pin_a = s01 or beta == 1.0 and k < k_c3
    pin_b = s01 or n0 == 0 and k > k_c4
    regime = _REGIMES[pin_a, pin_b]
    if k == 0.0:
        return regime, *_ergodic_support(n0, beta)
    if pin_a and pin_b:
        return regime, 0.0, 1.0
    rho = 1.0 / z
    c = n0 + beta + 1.0 + k
    if beta == 1.0 and not pin_a:  # uncharged soft a: Y = k(1+rho)/c, X = n0(1+z)/c
        return regime, *_endpoints(
            rho, (k - (n0 + 2.0) * z) / (z * c), (n0 * (1.0 + z) / c) ** 2,
            (k - k_c3) * (k - k_c3 + 2.0 * e3) / (c * c),
        )
    if n0 == 0 and not pin_b:  # uncharged soft b: Y = k/c, W = (beta-1)z/|c|
        return regime, *_endpoints(
            rho, -(beta + 1.0) / c, (k - k_c4) * (k - k_c4 - 2.0 * e4) / (c * c),
            ((beta - 1.0) * z / c) ** 2,
        )

    def inverses(y):  # 1/X and 1/W from the soft-edge conditions
        t = k / (1.0 + y)
        ix = 0.0 if pin_b else (c - t) / n0
        iw = 0.0 if pin_a else (c - (1.0 + rho) * t) / (beta - 1.0)
        return ix, iw

    def tie(y):  # rho X^2 + Y^2 - (1+rho)(1+rho W^2), times the soft edges' (ix iw)^2
        ix, iw = inverses(y)
        fx = 1.0 if pin_b else ix * ix
        fw = 1.0 if pin_a else iw * iw
        t = (y * (2.0 + y) - rho) * fx * fw
        if not pin_b:
            t += rho * fw
        if not pin_a:
            t -= rho * (1.0 + rho) * fx
        return t

    # the soft edges' ix, iw > 0 on (lo, hi); tie < 0 at lo and > 0 at hi
    # (with a pinned, Y^2 = 1 + rho b <= 1 + rho)
    lo, hi = 0.0, rho / (math.sqrt(1.0 + rho) + 1.0) if pin_a else rho
    if k > 0 and not pin_a:
        lo = max(lo, k * (1.0 + rho) / c - 1.0)
    elif c < 0 and not pin_b:
        hi = min(hi, k / c - 1.0)
    try:
        y = bracketed_root(tie, lo, hi, tie(lo), tie(hi), 1e-300, 8.9e-16)
    except ValueError as err:
        raise ArithmeticError(f"no sign change of the edge equation on ({lo!r}, {hi!r})") from err
    ix, iw = inverses(y)
    if not (pin_b or ix > 0.0) or not (pin_a or iw > 0.0):
        raise ArithmeticError(f"soft edge 1/X = {ix!r} or 1/W = {iw!r} not positive at the root y = {y!r}")
    x2 = 0.0 if pin_b else 1.0 / (ix * ix)
    return regime, *_endpoints(rho, y, x2, 0.0 if pin_a else 1.0 / (iw * iw))


def _poles(
    n0: float, beta: float, z: float, k: float, a: float, b: float
) -> tuple[tuple[float, float, float], ...]:
    """Pole decomposition of the density in t = (x-a)/(b-a).

    Terms are (gamma, y, 1+y) for gamma/(t+y), with poles at the SNR point
    y = (a+z)/d, the wall at 1, y = -(1-a)/d, and the wall at 0, y = a/d
    (d = b-a).  Each 1 + y is formed without cancellation, as (b+z)/d,
    -(1-b)/d and b/d: at huge rho the SNR pole's y ~ z/d is below the
    rounding of 1 + y, and the flipped integrals read 1 + y.  The weights
    are d k rho/Y, -n0 d/X at a soft b and (beta-1) d/W at a soft a; a
    pinned edge takes the weight that makes them sum to zero, and with
    both edges pinned the wall at 1 carries -d(c - k/Y).
    """
    d = b - a
    gz = d * k / (math.sqrt(z + a) * math.sqrt(z + b))  # z gz / d = k/Y
    g0 = (beta - 1.0) * d / math.sqrt(a * b) if a > 0.0 else None
    if b < 1.0:
        g1 = -n0 * d / math.sqrt((1.0 - a) * (1.0 - b))
    else:
        g1 = -(gz + g0) if g0 is not None else z * gz - d * (n0 + beta + 1.0 + k)
    if g0 is None:
        g0 = -(gz + g1)
    return (gz, (a + z) / d, (b + z) / d), (g1, -(1.0 - a) / d, -(1.0 - b) / d), (g0, a / d, b / d)


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
# the pole pair (y, 1+y) to (-(1+y), -y), exactly).  One routine,
# _pole_integral, sums every one of them over the decomposition a solve
# builds once and stores.  Multiplying the stationarity condition by p and
# integrating eliminates the double logarithmic integral, leaving
#
#   E(r) = (k/2)(r - log(1+rho x0)) - (n0/2)(Ic + log(1-x0))
#          - ((beta-1)/2)(I0 + log x0) - L(x0)
#
# for any reference point x0 in the support; x0 = b unless b is pinned to
# the wall at 1 (then x0 = a).  The assembly is validated against direct
# quadrature of the energy functional in the tests.
# ---------------------------------------------------------------------------

def _pole_integral(start: float, poles, w: float, flip: bool = False) -> float:
    """start + (1/2) sum gamma G(w, y), or start - (1/2) sum gamma G(w, -(1+y)) with flip.

    The terms are added in pole order after ``start``; zero weights are
    skipped.
    """
    total = start
    for gamma, y, y1 in poles:
        if gamma:
            term = 0.5 * gamma * (g_closed(w, -y1, -y) if flip else g_closed(w, y, y1))
            total = total - term if flip else total + term
    return total


def _energy_from_poles(n0, beta, z, k, a, b, r, poles, x0) -> float:
    d = b - a
    rho = 1.0 / z
    e = 0.5 * k * (r - math.log1p(rho * x0))
    if n0:
        ic = _pole_integral(math.log(d), poles, (1.0 - b) / d, flip=True)
        e -= 0.5 * n0 * (ic + math.log1p(-x0))
    if beta > 1.0:
        i0 = _pole_integral(math.log(d), poles, a / d)
        e -= 0.5 * (beta - 1.0) * (i0 + math.log(x0))
    return e - _pole_integral(math.log(d), poles, 0.0, flip=x0 == b)


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def critical_thresholds(n0: float, beta: float, snr: SnrParam) -> list[tuple[float, float]]:
    """Regime-boundary points (k_c, r_c), ordered by rate.

    n0=0, beta=1 has two (S0b|S01 and S01|Sa1); the one-sided hard-edge
    cases have one; the fully detached case n0>0, beta>1 has none (Sab
    covers every rate).
    """
    _check_params(n0, beta)
    z = snr.z
    ks = ([_kc4(beta, z)[0]] if n0 == 0 else []) + ([_kc3(n0, z)[0]] if beta == 1.0 else [])
    return [(k, solve_at_multiplier(n0, beta, snr, k).r) for k in ks]


def solve_at_multiplier(n0: float, beta: float, snr: SnrParam, k: float) -> RegimeSolution:
    """Constrained-density solution for a given Lagrange multiplier k.

    The regime follows from k against the critical thresholds; the rate
    comes out of the solution (use :func:`solve_regime` to prescribe the
    rate instead), and the solution depends on (n0, beta, rho, k) alone.
    A failed support, or a rate that is not finite or outside the window
    (0, log(1+rho)), raises ArithmeticError with its reason.  A k that
    is not finite raises ValueError.
    """
    _check_params(n0, beta)
    if not math.isfinite(k):
        raise ValueError(f"multiplier k must be finite, got {k!r}")
    z = snr.z
    try:
        regime, a, b = _support(n0, beta, z, k)
        if a == 0.0 and beta > 1.0:  # a charged soft a has ab > 0; it underflowed (rho ~ 1e300)
            raise ArithmeticError(f"soft edge a underflowed to 0 (b = {b!r})")
        d = b - a
        poles = _poles(n0, beta, z, k, a, b)
        r = _pole_integral(math.log(d / z), poles, (a + z) / d)
        if not math.isfinite(r):
            raise ArithmeticError(f"rate {r!r} of the support ({a!r}, {b!r}) not finite")
        rmax = math.log1p(snr.rho)
        if not 0.0 < r < rmax:
            raise ArithmeticError(f"rate {r!r} of the support ({a!r}, {b!r}) outside the window (0, {rmax!r})")
    except ArithmeticError as err:
        raise ArithmeticError(f"{err} at (n0, beta, rho, k) = {(n0, beta, snr.rho, k)!r}") from err
    return RegimeSolution(regime, a, b, k, r, n0, beta, snr.rho, poles, _variance(snr.rho, a, b))


def solve_regime(n0: float, beta: float, snr: SnrParam, r: float) -> RegimeSolution:
    """Constrained-density solution at prescribed rate r in (0, log(1+rho)).

    Newton on the multiplier k with the closed-form slope dr/dk = V(a, b)
    of each iterate's support.  Iterate 0 is the cached k = 0 record of
    :func:`ergodic_summary`, so the first step is the Gaussian guess
    (r - r_erg)/v_erg, and at r = r_erg the record is returned with no
    solve.  r(k) is strictly increasing (dr/dk = 1/E'' > 0 by convexity),
    so k = 0 bounds one side of the root and every iterate moves a side
    of the bracket: a step that leaves a finite bracket is replaced by
    bisection, and one that goes more than twice as far from 0 while the
    bracket is still open by doubling (save the step from k = 0).

    The iteration stops on the first of: the step falls below the
    multiplier tolerance ("step"); the bracket does ("bracket"); or an
    iterate is no closer to r than the best so far while that best
    already meets _LD_TOL ("stall": r(k) has reached its rounding noise,
    which at rho <= 0.1 is about 1e-11 of r).
    It returns the iterate whose rate is closest to r; one that misses r
    by more than _LD_TOL (near the ends of the window) raises
    ArithmeticError.  So does an iterate whose rate rounds outside the
    window (0, log(1+rho)): :func:`solve_at_multiplier` refuses it, which
    ends the solve with that reason (at the very top of the window, as at
    (n0, beta, rho) = (0.25, 1, 10) with r = (1 - 1e-6) log(1+rho)).
    One DEBUG record on the ``jacobi_mimo`` logger gives the solves and
    the stop reason.
    """
    rmax = math.log1p(snr.rho)
    if not 0.0 < r < rmax:
        raise ValueError(f"rate {r!r} outside the achievable interval (0, {rmax!r})")
    k, sol, best = 0.0, ergodic_summary(n0, beta, snr), None
    lo, hi = -math.inf, math.inf
    for solves in range(_K_ITER + 1):
        if solves:
            if abs(k) > 2.0**60:
                raise ArithmeticError(f"failed to bracket k for rate {r!r}")
            sol = solve_at_multiplier(n0, beta, snr, k)
        res = sol.r - r
        if best is None or abs(res) < abs(best.r - r):
            best = sol
        elif abs(best.r - r) <= _LD_TOL * r:  # no better than a best that is good enough
            stop = "stall"
            break
        if res < 0.0:
            lo = k
        else:
            hi = k
        step = res / sol.v
        tol = _K_TOL + 8.9e-16 * abs(k)
        stop = "step" if abs(step) < tol else "bracket" if hi - lo < tol else None
        if stop:
            break
        k_new = k - step
        if math.isinf(hi - lo):  # the step from k = 0 is the Gaussian guess, not doubled
            k = k_new if lo < k_new < hi and (k == 0.0 or abs(k_new) <= 2.0 * abs(k)) else 2.0 * k
        else:
            k = k_new if lo < k_new < hi else 0.5 * (lo + hi)
    else:
        raise ArithmeticError(f"multiplier iteration for rate {r!r} did not converge")
    _log.debug(_SOLVE_RECORD, (n0, beta, snr.rho, r), solves, stop)
    if abs(best.r - r) > _LD_TOL * r:
        raise ArithmeticError(f"multiplier root k={best.k!r} reaches rate {best.r!r}, not {r!r}")
    return best


def density_at(sol: RegimeSolution, x):
    """Constrained eigenvalue density of ``sol`` at x (0 outside support).

    p = sqrt(t(1-t)) sum gamma/(t+y) / (2 pi d) with t = (x-a)/d, from the
    pole decomposition of the solution.  d(t+y) is taken as (x-a) + yd for
    the poles with y >= 0 and as (1+y)d - (b-x) for the wall at 1: sums of
    like signs, so the wall pole keeps its digits next to the wall.  x may
    be a float or an array; an array gives an array of the same shape.
    """
    a, b = sol.a, sol.b
    d = b - a

    def p(x):
        u, v = x - a, b - x
        terms = (g / (u + y * d if y >= 0.0 else y1 * d - v) for g, y, y1 in sol.poles)
        return np.sqrt(u * v) * sum(terms) / (_TWO_PI * d)

    return _on_support(x, a, b, p)


@functools.lru_cache(maxsize=64)
def ergodic_summary(n0: float, beta: float, snr: SnrParam) -> RegimeSolution:
    """The k = 0 solution, cached: the ergodic record.

    Its ``a``, ``b``, ``r``, ``v`` and ``e0`` are a0, b0, r_erg, v_erg and E0.
    """
    return solve_at_multiplier(n0, beta, snr, 0.0)


def rate_exponent(n0: float, beta: float, snr: SnrParam, r: float) -> float:
    """Delta E(r) = E(r) - E0: P(I < r) ~ exp(-Nt^2 Delta E) for r < r_erg."""
    return solve_regime(n0, beta, snr, r).exponent


def density_asymptotic(dims: ChannelDims, snr: SnrParam, r: float) -> float:
    """Large-Nt rate density of the channel: Nt exp(-Nt^2 Delta E(r)) / sqrt(2 pi v_erg).

    Delta E and v_erg are those of (n0, beta) = (dims.n0, dims.beta).
    """
    n0, beta, nt = dims.n0, dims.beta, dims.Nt
    de = solve_regime(n0, beta, snr, r).exponent
    return nt * math.exp(-nt * nt * de) / math.sqrt(_TWO_PI * ergodic_summary(n0, beta, snr).v)


def outage_asymptotic(dims: ChannelDims, snr: SnrParam, r: float) -> OutageEstimate:
    """Finite-Nt outage of the channel from the rate function with the Gaussian-peak crossover.

    The rate function is that of (n0, beta) = (dims.n0, dims.beta), and
    Nt = dims.Nt sets its scale.  Laplace integration of the asymptotic
    density gives, for r < r_erg,

        P_out ~ exp(-Nt^2 (dE - k^2/(2 k'))) * Q(Nt |k| / sqrt(k')) / sqrt(k' v_erg)

    with k' = dk/dr = 1/V(a, b) from the solved support (module docstring),
    and one minus the mirrored expression for r > r_erg (k > 0); the
    branches meet at 1/2 at the ergodic rate.  Evaluated in log space so
    deep tails neither underflow nor lose the exponent.
    """
    n0, beta, nt = dims.n0, dims.beta, dims.Nt
    sol = solve_regime(n0, beta, snr, r)
    v = sol.v
    if not v > 0:
        raise ArithmeticError(
            f"non-positive slope dr/dk={v!r} at r={r!r}: the support ({sol.a!r}, "
            f"{sol.b!r}) has collapsed, which a convex rate function does not allow"
        )
    u = nt * abs(sol.k) * math.sqrt(v)
    log_tail = (
        -nt * nt * (sol.exponent - 0.5 * sol.k * sol.k * v)
        + log_q(u)
        - 0.5 * math.log(ergodic_summary(n0, beta, snr).v / v)
    )
    if log_tail > 0.0:
        raise ArithmeticError(f"log tail {log_tail!r} > 0 at r={r!r}: the outage formula left [0, 1]")
    tail = math.exp(log_tail)
    p = tail if sol.k <= 0.0 else 1.0 - tail
    return OutageEstimate(p=p, method="ld")


def gaussian_outage(dims: ChannelDims, snr: SnrParam, r: float) -> OutageEstimate:
    """Gaussian comparator for the channel: the rate treated as N(r_erg, v_erg / Nt^2).

    P_out = Q((r_erg - r) * Nt / sqrt(v_erg)), read from the cached k = 0
    solution of :func:`ergodic_summary` at (dims.n0, dims.beta), with
    Nt = dims.Nt; the baseline the rate function is meant to beat away
    from the peak.
    """
    if not 0 <= r:
        raise ValueError(f"rate threshold r must be >= 0, got {r!r}")
    erg = ergodic_summary(dims.n0, dims.beta, snr)
    p = q_fn((erg.r - r) * dims.Nt / math.sqrt(erg.v))
    return OutageEstimate(p=p, method="gauss")
