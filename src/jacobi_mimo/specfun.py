"""Special functions shared by the deterministic solvers.

The centerpiece is the logarithmic kernel integral

    G(x, y) = (1/pi) * int_0^1 sqrt(t(1-t)) * log(t+x) / (t+y) dt

which shows up whenever an equilibrium eigenvalue density with
square-root edges is integrated against log(1 + rho*x).  For x > 0 and
y outside [-1, 0] it has a closed form in elementary functions; the
points y = -1 and y = 0 (and x = 0) are removable and are evaluated as
continuity limits.  Every Coulomb-gas integral is a pole sum
start + (1/2) sum gamma_i G(x, y_i) at one x; ``_g_sum`` forms G's x-part
(two square roots and a log) once per sum and adds each pole's y-part,
and ``g_closed`` is its one-term case, so the closed form has one copy.

Also here: the Gaussian upper tail Q and its logarithm ``log_q`` (finite
where Q underflows), exact Clopper-Pearson binomial intervals
(``clopper_pearson``), stable elementary symmetric polynomials and a
bracketed scalar root by Chandrupatla's method.  These keep scipy off the
runtime path: the package needs only numpy and mpmath, and scipy serves
the tests as an oracle.  The adaptive quadrature that checks the closed
forms lives with the tests (``tests/_oracles.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

__all__ = [
    "bracketed_root",
    "clopper_pearson",
    "g_closed",
    "log_q",
    "q_fn",
    "elementary_symmetric_all",
]


# ---------------------------------------------------------------------------
# G(x, y)
# ---------------------------------------------------------------------------

def g_closed(x: float, y: float, y1: float) -> float:
    """Closed form of G(x, y) on the closure of its domain, given y1 = 1 + y.

    Accepts x >= 0 and y > 0, y = 0, or y <= -1.  y1 is passed in, not
    formed, so that the digits of a 1 + y the caller holds without
    cancellation are kept (1 + 2y is taken as y + y1).  The y = 0 and
    y1 = 0 points are removable singularities of the closed form (the
    sgn(y)*sqrt|y(1+y)| prefactor vanishes there) and are evaluated with
    that term dropped; x = 0 is the plain x -> 0+ limit, at which every
    term is already finite.  This is the one-term case of ``_g_sum``
    (weight 2, so that the half weight is exactly 1).
    """
    return _g_sum(0.0, ((2.0, y, y1),), x)


def _g_sum(start: float, poles, x: float, flip: bool = False) -> float:
    """start + (1/2) sum gamma G(x, y) over poles (gamma, y, 1+y), or with flip
    start - (1/2) sum gamma G(x, -(1+y)) (its 1 + y is then -y).

    G's x-part, sqrt(x), sqrt(1+x), log((sqrt(1+x)+sqrt x)/2) and
    (sqrt(1+x)-sqrt x)^2/2, is formed once per sum; each pole adds only its
    y-part.  The terms are added in pole order after ``start``; zero
    weights are skipped, and their y is not checked.
    """
    if x < 0:
        raise ValueError(f"g_closed requires x >= 0, got x={x!r}")
    sqrt, log = math.sqrt, math.log
    sx = sqrt(x)
    x1 = 1.0 + x
    sx1 = sqrt(x1)
    lx = log(0.5 * (sx1 + sx))
    qx = 0.5 * (sx1 - sx) ** 2
    half = -0.5 if flip else 0.5
    total = start
    for gamma, y, y1 in poles:
        if not gamma:
            continue
        if flip:
            y, y1 = -y1, -y
        if -1.0 < y < 0.0:
            raise ValueError(f"g_closed requires y > 0, y = 0, or y <= -1, got y={y!r}")
        val = (y + y1) * lx - qx
        if y != 0.0 and y1 != 0.0:  # the sgn(y) sqrt|y(1+y)| term
            ay = y if y > 0.0 else -y
            ay1 = y1 if y1 > 0.0 else -y1
            num = sqrt(x * ay1) + sqrt(ay * x1)
            den = sqrt(ay1) + sqrt(ay)
            m = 2.0 * sqrt(ay * ay1) * log(num / den)
            val = val - m if y > 0.0 else val + m
        total += half * gamma * val
    return total


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def q_fn(x: float) -> float:
    """Gaussian upper-tail probability Q(x) = int_x^inf exp(-t^2/2)/sqrt(2 pi) dt."""
    return 0.5 * math.erfc(x / _SQRT2)


def log_q(u: float) -> float:
    """log Q(u) for u >= 0, accurate to a few ulp also where Q(u) underflows.

    log(q_fn(u)) up to u = 37, where 0.5 erfc(u/sqrt 2) ~ 1e-300 is still
    a normal float.  Beyond, the asymptotic series
    Q(u) = phi(u)/u * sum_j (-1)^j (2j-1)!! / u^(2j), whose terms fall
    below 1e-17 within eight terms.
    """
    if u <= 37.0:
        return math.log(q_fn(u))
    inv = 1.0 / (u * u)
    total = term = 1.0
    j = 1
    while abs(term) > 1e-17:
        term *= -(2 * j - 1) * inv
        total += term
        j += 1
    return -0.5 * u * u - math.log(u) - _HALF_LOG_2PI + math.log(total)


# Steps before bracketed_root gives up.
_ROOT_MAXITER = 100


def bracketed_root(f, a: float, b: float, fa: float, fb: float, xtol: float, rtol: float) -> float:
    """Root of f in the bracket [a, b], given fa = f(a) and fb = f(b), by Chandrupatla's method.

    Each step interpolates the last three points by an inverse quadratic
    where that stays inside the bracket and bisects otherwise, and lands at
    least half the tolerance inside the bracket (T. R. Chandrupatla, Adv.
    Eng. Softw. 28:145, 1997; the method of scipy's elementwise
    ``find_root``).  It stops, as ``scipy.optimize.brentq`` does, on a zero
    or on a bracket narrower than xtol + rtol |x|, and returns the end x
    with the smaller |f|.  Raises ValueError when fa and fb share a sign or
    f is NaN at an end or a step, and ArithmeticError after
    ``_ROOT_MAXITER`` steps.
    """
    if fa != fa or fb != fb:
        raise ValueError(f"the function value at an end of [{a!r}, {b!r}] is NaN")
    if fa > 0 and fb > 0 or fa < 0 and fb < 0:
        raise ValueError("f(a) and f(b) must have different signs")
    x1, f1, x2, f2, t = a, fa, b, fb, 0.5  # x1 the newest point; f1, f2 of opposite signs
    for _ in range(_ROOT_MAXITER):
        if (f1 if f1 >= 0 else -f1) < (f2 if f2 >= 0 else -f2):
            xm, fm = x1, f1
        else:
            xm, fm = x2, f2
        dx = x2 - x1
        adx = dx if dx >= 0 else -dx
        tol = xtol + rtol * (xm if xm >= 0 else -xm)
        if fm == 0 or adx < tol:
            return xm
        tl = 0.5 * tol / adx
        tu = 1.0 - tl
        if tl > t:
            t = tl
        x = x1 + (tu if tu < t else t) * dx
        fx = f(x)
        if fx != fx:
            raise ValueError(f"the function value at x={x!r} is NaN")
        if (fx < 0) == (f1 < 0):
            x3, f3 = x1, f1
        else:
            x3, f3 = x2, f2
            x2, f2 = x1, f1
        x1, f1 = x, fx
        x12, f12, f32 = x1 - x2, f1 - f2, f3 - f2
        xi, phi = x12 / (x3 - x2), f12 / f32
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:  # inverse quadratic interpolation
            # x2 - x1 and f2 - f3 enter as -x12 and -f32: the two exact sign flips cancel
            t = f1 / f12 * f3 / f32 - (x3 - x1) / x12 * f1 / (f3 - f1) * f2 / f32
        else:
            t = 0.5
    raise ArithmeticError(f"bracketed root failed to converge after {_ROOT_MAXITER} steps, value is {x1!r}")


def elementary_symmetric_all(values: Sequence) -> list:
    """Elementary symmetric polynomials e_0, ..., e_n of the given values.

    Uses the one-value-at-a-time update e[d] += v * e[d-1], which only
    adds products of distinct entries and is stable for non-negative
    inputs.  Works for any numeric type supporting + and * (floats,
    mpmath mpf, Fractions).  e_0 = 1 by convention.
    """
    e = [1] + [0] * len(values)
    for i, v in enumerate(values, 1):
        for d in range(i, 0, -1):
            e[d] = e[d] + v * e[d - 1]
    return e


# ---------------------------------------------------------------------------
# Clopper-Pearson interval
# ---------------------------------------------------------------------------

# Stirling remainder log k! - log(sqrt(2 pi k) (k/e)^k) for k <= 15; larger k
# use its series (Loader 2000).
_STIRLERR_SMALL = [0.0] + [
    math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI for k in range(1, 16)
]

# Iterations per bound before clopper_pearson gives up.
_CP_MAXITER = 50


def _stirlerr(k: int) -> float:
    if k > 15:
        kk = float(k) * k
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k
    return _STIRLERR_SMALL[k]


# The interval's level, conf = 0.95: log(alpha/2), and the z with
# Q(z) = alpha/2 that the iteration's start needs.
_CP_HALF_ALPHA = (1.0 - 0.95) / 2.0
_CP_LOG_HALF_ALPHA = math.log(_CP_HALF_ALPHA)
_CP_Z = statistics.NormalDist().inv_cdf(1.0 - _CP_HALF_ALPHA)


def clopper_pearson(counts, n: int) -> list[tuple[float, float]]:
    """Exact two-sided 95% binomial intervals (Clopper & Pearson, 1934).

    For each count k of n trials returns (lo, hi): lo solves
    P(Bin(n, x) >= k) = alpha/2 and hi solves P(Bin(n, x) <= k) = alpha/2,
    with lo = 0 at k = 0 and hi = 1 at k = n; hi(0) = -expm1(log(alpha/2)/n)
    and lo(n) = exp(log(alpha/2)/n) are closed forms.  Every other bound is
    the root x_m of P(Bin(n, x) >= m) = alpha/2 for some m in [1, n-1]:
    lo(k) = x_k, and hi(k) = 1 - x_{n-k} by the symmetry x -> 1 - x.

    The root is found in t = logit x, so that 1 - x_{n-k} = 1/(1 + e^t)
    keeps its relative accuracy.  log P(X >= m) = log pmf(m) + log T(t),
    where T = 1 + sum_{o>=1} prod_{i<o} rho_i e^t, rho_i = (n-m-i)/(m+1+i),
    summed over 3.6 sqrt(n) + 8 terms: the anchor m lies about two standard
    deviations above the mean n x, so later terms are below 1e-17 of T.
    pmf(m) is Loader's saddle-point form (stirlerr plus the two deviance
    terms through log1p), whose log has absolute error O(eps |m - n x|),
    not O(eps n log n) as a difference of lgammas would.  Newton's method
    starts from the Abramowitz & Stegun 26.5.22 beta-quantile approximation.
    The slope needs no further sums: d/dx P(X >= m) = m pmf(m) / x, so
    f = log P(X >= m) - log(alpha/2) has f' = m (1 - x) / T.  f is concave
    in t (the binomial is log-concave), so every tangent lies above f: after
    the first step each iterate sits below the root and climbs to it, and no
    step needs a guard.  Each root stops on its own residual |f| <= 1e-8 and
    takes that last step, which leaves a few ulp of t; at most four steps
    are needed (measured for n from 2 to 1e7).  The window
    depends only on n and every reduction runs along one root's own row, so
    a count's bounds are bit-identical alone or in any batch.  Raises
    ArithmeticError when a root does not converge.
    """
    counts = [int(k) for k in counts]
    if n < 1 or any(not 0 <= k <= n for k in counts):
        raise ValueError(f"counts must lie in [0, n] with n >= 1, got n={n!r}")
    inner = [k for k in counts if 0 < k < n]
    roots = _binomial_tail_roots(inner, n)
    logits = iter(zip(roots, roots[len(inner):]))
    out = []
    for k in counts:
        if k == 0:
            out.append((0.0, -math.expm1(_CP_LOG_HALF_ALPHA / n)))
        elif k == n:
            out.append((math.exp(_CP_LOG_HALF_ALPHA / n), 1.0))
        else:
            t_lo, t_hi = next(logits)
            out.append((1.0 / (1.0 + math.exp(-t_lo)), 1.0 / (1.0 + math.exp(t_hi))))
    return out


def _binomial_tail_roots(counts: list[int], n: int) -> list[float]:
    """logit x_m with P(Bin(n, x_m) >= m) = alpha/2 for the anchors m = k, then m = n - k.

    Every count lies in [1, n-1].
    """
    if not counts:
        return []
    anchors = counts + [n - k for k in counts]
    # the x-independent part of log pmf(m) - log(alpha/2) (Loader's stirlerr
    # terms), the same for m = k and m = n - k
    base = _stirlerr(n) - _CP_LOG_HALF_ALPHA
    consts = [
        base - _stirlerr(k) - _stirlerr(n - k) - 0.5 * math.log(2.0 * math.pi * k * (n - k) / n)
        for k in counts
    ] * 2
    # start: Abramowitz & Stegun 26.5.22 for logit of the Beta(m, n-m+1) quantile
    z = _CP_Z
    lam = (z * z - 3.0) / 6.0
    ts = []
    for m in anchors:
        ia, ib = 1.0 / (2 * m - 1), 1.0 / (2 * (n - m) + 1)
        h = 2.0 / (ia + ib)
        w = z * math.sqrt(h + lam) / h - (ib - ia) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
        ts.append(math.log(m / (n - m + 1.0)) - 2.0 * w)
    m_arr = np.array(anchors, dtype=float)
    o = np.arange(1.0, min(n, int(3.6 * math.sqrt(n)) + 8))
    ratios = np.subtract.outer(n - m_arr, o - 1.0)
    ratios /= np.add.outer(m_arr, o)
    exp, log, log1p = math.exp, math.log, math.log1p
    active = list(range(len(anchors)))
    for _ in range(_CP_MAXITER):
        rows = ratios if len(active) == len(anchors) else ratios[active]
        terms = rows * np.exp([ts[i] for i in active])[:, None]
        np.cumprod(terms, axis=1, out=terms)
        sums = terms.sum(axis=1).tolist()
        still = []
        for i, tail in zip(active, sums):
            m, t = anchors[i], ts[i]
            tail += 1.0
            e = exp(t)
            nq = n / (1.0 + e)
            nx = nq * e
            d = m - nx
            # f = log P(X >= m) - log(alpha/2); its slope is m (1 - x) / T
            f = consts[i] - m * log1p(d / nx) - (n - m) * log1p(-d / nq) + log(tail)
            ts[i] = t - f * (1.0 + e) * tail / m
            if not abs(f) <= 1e-8:
                if not math.isfinite(f):
                    raise ArithmeticError(f"Clopper-Pearson residual for count {m} of {n} is {f!r} at t={t!r}")
                still.append(i)
        active = still
        if not active:
            return ts
    raise ArithmeticError(
        f"Clopper-Pearson roots for counts {[anchors[i] for i in active]} of {n} "
        f"did not converge in {_CP_MAXITER} iterations"
    )
