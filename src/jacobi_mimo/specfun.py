"""Special functions shared by the deterministic solvers.

The centerpiece is the logarithmic kernel integral

    G(x, y) = (1/pi) * int_0^1 sqrt(t(1-t)) * log(t+x) / (t+y) dt

which shows up whenever an equilibrium eigenvalue density with
square-root edges is integrated against log(1 + rho*x).  For x > 0 and
y outside [-1, 0] it has a closed form in elementary functions; the
points y = -1 and y = 0 (and x = 0) are removable and are evaluated as
continuity limits.  ``i3_fn`` is the y = -1 limit, which appears on its
own in the rate-exponent formulas.

Also here: the Gaussian upper-tail Q, stable elementary
symmetric polynomials, and the adaptive Gauss-Legendre quadrature used
as the independent oracle for everything above.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureError",
    "quadrature",
    "g_fn",
    "g_closed",
    "i3_fn",
    "q_fn",
    "elementary_symmetric",
]


# ---------------------------------------------------------------------------
# Adaptive quadrature oracle
# ---------------------------------------------------------------------------

class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    Carries the best available estimate and its error bound so callers
    can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, best: float, error: float):
        super().__init__(f"{message} (best estimate {best!r}, error {error!r})")
        self.best = best
        self.error = error


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _gl_panel(f, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    acc = 0.0
    for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
        acc += wi * f(mid + half * xi)
    return half * acc


def _adaptive(f, lo, hi, tol, depth):
    whole = _gl_panel(f, lo, hi)
    stack = [(lo, hi, whole, tol, depth)]
    total = 0.0
    err_total = 0.0
    while stack:
        a, b, est, tol_ab, d = stack.pop()
        m = 0.5 * (a + b)
        left = _gl_panel(f, a, m)
        right = _gl_panel(f, m, b)
        err = abs(left + right - est)
        if err <= tol_ab or (b - a) < 1e-15 * max(1.0, abs(m)):
            total += left + right
            err_total += err
        elif d <= 0:
            raise QuadratureError(
                "quadrature did not converge within the subdivision budget",
                best=total + left + right + sum(s[2] for s in stack),
                error=err_total + err,
            )
        else:
            stack.append((a, m, left, tol_ab / 2, d - 1))
            stack.append((m, b, right, tol_ab / 2, d - 1))
    return total, err_total


def quadrature(
    f: Callable[[float], float],
    lo: float = 0.0,
    hi: float = 1.0,
    weight: str | None = None,
    target: float = 1e-11,
    max_depth: int = 48,
) -> tuple[float, float]:
    """Adaptive Gauss-Legendre integral of ``f`` over (lo, hi).

    weight=None      computes  int f(t) dt
    weight="sqrt"    computes  int f(t) * sqrt((t-lo)(hi-t)) dt

    Both paths substitute t = lo + (hi-lo)*sin^2(theta), which removes
    inverse-square-root endpoint singularities of ``f`` (the generic edge
    behavior of the spectral densities handled here) and turns the sqrt
    weight into a smooth factor.

    Returns ``(value, error_estimate)``; raises :class:`QuadratureError`
    with the best estimate attached if the subdivision budget runs out.
    """
    span = hi - lo
    if span <= 0:
        raise ValueError("quadrature requires lo < hi")
    if weight not in (None, "sqrt"):
        raise ValueError(f"unknown weight {weight!r}")

    if weight == "sqrt":
        def g(theta: float) -> float:
            s, c = math.sin(theta), math.cos(theta)
            x = lo + span * s * s
            # dt = 2*span*s*c dtheta and the weight contributes span*s*c
            return f(x) * 2.0 * span * span * (s * c) ** 2
    else:
        def g(theta: float) -> float:
            s, c = math.sin(theta), math.cos(theta)
            x = lo + span * s * s
            return f(x) * 2.0 * span * s * c

    return _adaptive(g, 0.0, 0.5 * math.pi, tol=target, depth=max_depth)


# ---------------------------------------------------------------------------
# G(x, y) and I3(x)
# ---------------------------------------------------------------------------

def g_closed(x: float, y: float) -> float:
    """Closed form of G(x, y) on the closure of its domain.

    Accepts x >= 0 and y > 0, y = 0, or y <= -1.  The y = 0 and y = -1
    points are removable singularities of the closed form (the
    sgn(y)*sqrt|y(1+y)| prefactor vanishes there) and are evaluated with
    that term dropped; x = 0 is the plain x -> 0+ limit, at which every
    term is already finite.

    This is the permissive evaluator used internally by the Coulomb-gas
    energy formulas; the public :func:`g_fn` enforces the strict domain.
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


def g_fn(x: float, y: float) -> float:
    """G(x, y) for x > 0 and y > 0 or y <= -1.

    Must agree with the defining integral
    (1/pi) * int_0^1 sqrt(t(1-t)) log(t+x)/(t+y) dt; y = -1 is allowed as
    the continuity limit (see :func:`i3_fn`), anything in (-1, 0] is a
    domain error.
    """
    if x <= 0:
        raise ValueError(f"g_fn requires x > 0, got x={x!r}")
    if y > 0 or y <= -1.0:
        return g_closed(x, y)
    raise ValueError(f"g_fn domain excludes y in (-1, 0], got y={y!r}")


def i3_fn(x: float) -> float:
    """I3(x) = -G(x, -1), the y -> -1 limit of the kernel integral."""
    if x <= 0:
        raise ValueError(f"i3_fn requires x > 0, got x={x!r}")
    return -g_closed(x, -1.0)


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def q_fn(x: float) -> float:
    """Gaussian upper-tail probability Q(x) = int_x^inf exp(-t^2/2)/sqrt(2 pi) dt."""
    return 0.5 * math.erfc(x / _SQRT2)


def elementary_symmetric(values: Sequence, degree: int):
    """Elementary symmetric polynomial e_degree of the given values.

    Uses the one-value-at-a-time update e[d] += v * e[d-1], which only
    adds products of distinct entries and is stable for non-negative
    inputs.  Works for any numeric type supporting + and * (floats,
    mpmath mpf, Fractions).  e_0 = 1 by convention.
    """
    n = len(values)
    if not 0 <= degree <= n:
        raise ValueError(f"degree must be in [0, {n}], got {degree}")
    e = [1] + [0] * degree
    for v in values:
        for d in range(degree, 0, -1):
            e[d] = e[d] + v * e[d - 1]
    return e[degree]
