"""Special functions shared by the deterministic solvers.

The centerpiece is the logarithmic kernel integral

    G(x, y) = (1/pi) * int_0^1 sqrt(t(1-t)) * log(t+x) / (t+y) dt

which shows up whenever an equilibrium eigenvalue density with
square-root edges is integrated against log(1 + rho*x).  For x > 0 and
y outside [-1, 0] it has a closed form in elementary functions; the
points y = -1 and y = 0 (and x = 0) are removable and are evaluated as
continuity limits.

Also here: the Gaussian upper-tail Q, stable elementary symmetric
polynomials and Brent's bracketed scalar root.  The adaptive quadrature
that checks these closed forms lives with the tests (``tests/_oracles.py``).
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "brentq",
    "g_closed",
    "q_fn",
    "elementary_symmetric",
    "elementary_symmetric_all",
]


# ---------------------------------------------------------------------------
# G(x, y)
# ---------------------------------------------------------------------------

def g_closed(x: float, y: float) -> float:
    """Closed form of G(x, y) on the closure of its domain.

    Accepts x >= 0 and y > 0, y = 0, or y <= -1.  The y = 0 and y = -1
    points are removable singularities of the closed form (the
    sgn(y)*sqrt|y(1+y)| prefactor vanishes there) and are evaluated with
    that term dropped; x = 0 is the plain x -> 0+ limit, at which every
    term is already finite.

    This is the permissive evaluator used by the Coulomb-gas rate and
    energy formulas.
    """
    if x < 0:
        raise ValueError(f"g_closed requires x >= 0, got x={x!r}")
    if -1.0 < y < 0.0:
        raise ValueError(f"g_closed requires y > 0, y = 0, or y <= -1, got y={y!r}")

    sx = math.sqrt(x)
    sx1 = math.sqrt(1.0 + x)
    val = (1.0 + 2.0 * y) * math.log(0.5 * (sx1 + sx)) - 0.5 * (sx1 - sx) ** 2
    if y != 0.0 and y != -1.0:
        ay = abs(y)
        ay1 = abs(1.0 + y)
        num = math.sqrt(x * ay1) + math.sqrt(ay * (1.0 + x))
        den = math.sqrt(ay1) + math.sqrt(ay)
        val -= 2.0 * math.copysign(1.0, y) * math.sqrt(ay * ay1) * math.log(num / den)
    return val



# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def q_fn(x: float) -> float:
    """Gaussian upper-tail probability Q(x) = int_x^inf exp(-t^2/2)/sqrt(2 pi) dt."""
    return 0.5 * math.erfc(x / _SQRT2)


def brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in the bracket [xa, xb] by Brent's method.

    A line-for-line transcription of scipy's ``Zeros/brentq.c`` (the
    routine behind ``scipy.optimize.brentq``), so it returns the same
    root bit for bit; the stop is |step| < (xtol + rtol |x|)/2.  Raises
    ValueError when f(xa), f(xb) share a sign or f returns NaN, and
    ArithmeticError after ``maxiter`` iterations.
    """
    def call(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"the function value at x={x!r} is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise ArithmeticError(f"brentq failed to converge after {maxiter} iterations, value is {xcur!r}")


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


def elementary_symmetric(values: Sequence, degree: int):
    """Elementary symmetric polynomial e_degree of the given values."""
    n = len(values)
    if not 0 <= degree <= n:
        raise ValueError(f"degree must be in [0, {n}], got {degree}")
    return elementary_symmetric_all(values)[degree]
