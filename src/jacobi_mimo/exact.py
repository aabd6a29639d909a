"""Closed-form finite-size outage probability for the Jacobi channel.

For integer channel counts the outage probability has an exact finite
expression: expanding (x-1)^{|Nt-Nr|} ((1+rho)-x)^{N0} and the
Vandermonde-squared interaction term turns P_out into a double sum over
a multi-index m and permutations sigma, with

    1 - P_out(r) = A' * sum_m prod_j c_{m_j}
                      * sum_sigma sgn(sigma)
                      * sum_{l >= l(r)} (-1)^{l+Nt} d_l(s) F(Nt*r - l*log(1+rho), s),

    s_j  = j + sigma_j - 1 + m_j                       (always >= 1)
    c_m  = sum_{k + N0 - n = m} c_{k,n}                (0 <= m <= |Nt-Nr|+N0)
    d_l  = e_l((1+rho)^{s_1}, ..., (1+rho)^{s_Nt})
    A'   = Nt! / (Z * rho^{Nt^2 + (|Nt-Nr|+N0) Nt})

where c_{k,n} are the coefficients of the two binomial expansions and
F(z, s) the inverse Fourier transform of 1/((eps-ip) prod(s_j-ip)),
which for z < 0 is a residue sum; only l with Nt*r < l*log(1+rho)
contribute.  Z is the Selberg normalization of the joint eigenvalue law.

One convention here is pinned by independent oracles rather than by
transcription (see the tests): the residue sum enters F with a minus
sign,

    F(z, s) = prod_j 1/s_j  -  sum_j e^{s_j z} / (s_j prod_{k != j} (s_k - s_j)),

which is what reproduces P_out = (e^r-1)/rho for the single-channel flat
law.  Both terms together are (-1)^{n-1} h[s_1, ..., s_n], the divided
difference of h(x) = (1 - e^{xz})/x, so repeated (integer) s_j are its
Hermite limit and one divided-difference table covers every s.

The evaluation groups the terms by sorted s.  One cached rho-free
integer table, built per (Nt, |Nt-Nr|+N0+1), holds for each sorted s
the sum of sgn(sigma) over the (m, sigma) that produce it, per sorted m,
and the divided-difference weights of s: on integer nodes the divided
difference is a fixed rational combination of the Taylor coefficients
h_t(v), scaled to integers by one common denominator.  Since 1+rho is
a dyadic rational, everything but the leaves h_{l,t}(v) is then exact
integer arithmetic: once per (dims, rho), a cached build sums, over the
sorted s, weight * d_l * (divided-difference weights) into one integer
coefficient per (l, v, t), and at each rate

    1 - P_out = A' sum_{l >= l(r)} (-1)^{l-1} sum_{v,t} C[l][v,t] h_{l,t}(v)

is one dot product of at most Nt^2 * max(s) terms.  mpmath gives only
z_l, one exp per l, log(1+rho) and A'; the leaves (e^{vz} is the v-th
power of e^z) and the dot product run in integer fixed point at the
working precision, so the sum of the products is exact.  A (12,5,5)
point at rho = 10 takes about 10-16 ms when it builds the coefficients
and 0.5-0.8 ms after; at rho = 10^0.3, whose 1+rho needs a 52-bit
numerator and whose coefficients run to 3500 bits, about 30-50 and
0.7-1 ms (pure-Python mpmath, one core).

The sum is violently alternating, so the fixed point starts from a
256-bit fraction.  Each floor in the leaf recurrence errs by less than
one unit, a binary64 recurrence beside it carries each leaf's error,
and the exact coefficients make the bound sum |C| * (leaf error) free;
the working precision escalates until that bound is 2^-(53+16) of
|P_out|, and the result is rounded to binary64 only at the end.  The
rate density P'(r) is the same dot product on the same coefficients:
dh_t/dz = -e^{vz} z^t / t!, so its leaves are the terms T_t that the leaf
recurrence already forms.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .ensemble import ChannelDims, SnrParam
from .results import OutageEstimate
from .specfun import elementary_symmetric_all

__all__ = [
    "ExactConfig",
    "TermBudgetError",
    "DensityEstimate",
    "outage_exact",
    "outage_density_exact",
]

_GUARD_BITS = 16  # margin of the error bound over the small factors it omits
_START_BITS = 256  # working precision the escalation starts from
_MAX_BITS = 4096  # precision ceiling of the escalation
_MAX_NT = 5  # largest Nt the solver accepts
_TERM_BUDGET = 10**8  # largest term count (see ExactConfig) it accepts
_TINY = mpf(2) ** -1022  # below the smallest normal double, P is wanted to this absolute

_log = logging.getLogger("jacobi_mimo")


class TermBudgetError(ValueError):
    """The requested configuration exceeds the exact solver's caps."""


@dataclass(frozen=True)
class ExactConfig:
    """Channel and SNR of an exact-solver request.

    The caps, module constants checked when the config is made, are Nt at
    most ``_MAX_NT`` and the term count (|Nt-Nr|+N0+1)^Nt * Nt! (merged
    expansion indices m times permutations) at most ``_TERM_BUDGET``.  The
    count bounds the one-time build of the one cached rho-free table, per
    (Nt, |Nt-Nr|+N0+1); one pass over its distinct sorted s builds the
    coefficients of a (dims, rho), also cached, and a rate point then costs
    only its leaves and one dot product.  Beyond a few channels the
    asymptotic solver is the right tool anyway.
    """

    dims: ChannelDims
    snr: SnrParam

    def term_count(self) -> int:
        d = self.dims
        dn = d.Nr - d.Nt
        return (dn + d.N0 + 1) ** d.Nt * math.factorial(d.Nt)

    def __post_init__(self):
        if self.dims.Nt > _MAX_NT:
            raise TermBudgetError(f"Nt={self.dims.Nt} exceeds the exact-solver cap of Nt <= {_MAX_NT}")
        count = self.term_count()
        if count > _TERM_BUDGET:
            raise TermBudgetError(f"term count {count} exceeds the term budget of {_TERM_BUDGET}")


class DensityEstimate(NamedTuple):
    value: float
    error: float


@functools.lru_cache(maxsize=64)
def _selberg_z_fraction(dims: ChannelDims) -> Fraction:
    """Exact Selberg normalization of the joint eigenvalue density.

    Z = prod_{k=0}^{Nt-1} (Nr-Nt+k)! (N0+k)! (k+1)! / (Nr+N0+k)!
    (all integer factorials, so the value is an exact rational).
    """
    num = 1
    den = 1
    for k in range(dims.Nt):
        num *= (
            math.factorial(dims.Nr - dims.Nt + k)
            * math.factorial(dims.N0 + k)
            * math.factorial(k + 1)
        )
        den *= math.factorial(dims.Nr + dims.N0 + k)
    return Fraction(num, den)


@functools.cache
def _key_table(nt: int, width: int) -> tuple:
    """Signed counts of the (m, sigma) sum by sorted s and sorted m, and each s's weights.

    Over m in range(width)^nt and permutations sigma of 1..nt, the term
    s_j = j + sigma_j + m_j (j from 0) adds sgn(sigma) to the count of
    (sorted s, sorted m): the residue part depends on s only through its
    sorted values and the coefficient part on m only through its sorted
    values.  On integer nodes the divided difference is a fixed rational
    combination of the Taylor coefficients, h[s] = sum alpha h_t(v).

    Returns (D, rows), one row (s, ((m, count), ...), ((slot, D alpha), ...))
    per sorted s in order, without zero counts or weights; slot =
    (v-1) nt + t.  The common denominator is D = lcm(1, ..., smax-1)^(nt-1):
    every path through the Newton/Hermite table divides by at most nt-1
    differences of nodes in 1..smax, so with leaves equal to D each
    division is exact.  Integers only, so the table is independent of rho
    and precision.

    Each sigma sorts s for all m at once in numpy.  A pair (sorted s,
    sorted m) is one integer key, the digits s_0, ..., s_{nt-1} (base
    smax + 1) above m_0, ..., m_{nt-1} (base width), so the key order is
    the tuples' order.  Inside the term budget the largest key,
    ((smax + 1) width)^nt, is below 2^54, so int64 holds it.
    """
    smax = 2 * nt - 2 + width
    mvecs = np.indices((width,) * nt).reshape(nt, -1).T
    m_sorted = np.sort(mvecs, axis=1)
    m_keys = m_sorted @ width ** np.arange(nt - 1, -1, -1)
    m_of_key = dict(zip(m_keys.tolist(), map(tuple, m_sorted.tolist())))
    s_base = (smax + 1) ** np.arange(nt - 1, -1, -1)
    counts: dict[int, int] = {}
    for perm in itertools.permutations(range(1, nt + 1)):
        inv = sum(1 for i in range(nt) for j in range(i + 1, nt) if perm[i] > perm[j])
        sign = -1 if inv % 2 else 1
        s_keys = np.sort(mvecs + np.arange(nt) + perm, axis=1) @ s_base
        keys, reps = np.unique(s_keys * width**nt + m_keys, return_counts=True)
        for key, rep in zip(keys.tolist(), reps.tolist()):
            counts[key] = counts.get(key, 0) + sign * rep
    rows: dict[int, list] = {}
    for key, count in sorted(counts.items()):
        if count:
            s_key, m_key = divmod(key, width**nt)
            rows.setdefault(s_key, []).append((m_of_key[m_key], count))
    den = math.lcm(*range(1, smax)) ** (nt - 1)
    table = []
    for s_key, row in rows.items():
        s = tuple(s_key // (smax + 1) ** i % (smax + 1) for i in reversed(range(nt)))
        # the Newton/Hermite table of the divided difference, one unit leaf per slot
        dd = [{(v - 1) * nt: den} for v in s]
        for d in range(1, nt):
            dd = [
                {(s[i] - 1) * nt + d: den}
                if s[i + d] == s[i]
                else {
                    slot: (dd[i + 1].get(slot, 0) - dd[i].get(slot, 0)) // (s[i + d] - s[i])
                    for slot in dd[i].keys() | dd[i + 1].keys()
                }
                for i in range(nt - d)
            ]
        table.append((s, tuple(row), tuple((slot, a) for slot, a in dd[0].items() if a)))
    return den, tuple(table)


@functools.lru_cache(maxsize=64)
def _coefficients(dims: ChannelDims, rho: float) -> tuple[tuple, int]:
    """Integer coefficients of the residue sum and their common denominator.

    Returns (C, den) with sum_{v,t} C[l-1][slot] h_{l,t}(v) / den
    = (-1)^{l-1} sum_s w_s e_l((1+rho)^s) h_l[s] for l = 1, ..., Nt, exactly:
    1+rho is a binary64 value plus one, the dyadic rational a / 2^k, so
    every power of it is an integer power of a shifted by a multiple of k.
    Nothing here depends on the rate or the working precision, so the
    result is cached per (dims, rho), as tuples of ints that no caller
    may change.
    """
    nt, dn, n0 = dims.Nt, dims.Nr - dims.Nt, dims.N0
    width = dn + n0 + 1
    smax = 2 * nt - 2 + width
    a, b = (1 + Fraction(rho)).as_integer_ratio()
    k = b.bit_length() - 1
    den, table = _key_table(nt, width)
    # 2^(k n0) times the merged binomial coefficients, from
    # c_{k,n} = C(|Nt-Nr|, k) C(N0, n) (-1)^{|Nt-Nr|-k+N0-n} (1+rho)^n:
    # s_j depends on (k_j, n_j) only through m_j = k_j + N0 - n_j
    coef = [0] * width
    for kk in range(dn + 1):
        for n in range(n0 + 1):
            sign = -1 if (dn - kk + n0 - n) % 2 else 1
            coef[kk + n0 - n] += sign * math.comb(dn, kk) * math.comb(n0, n) * a**n << k * (n0 - n)
    mprods = {
        m: math.prod(coef[i] for i in m)
        for m in itertools.combinations_with_replacement(range(width), nt)
    }
    # 2^(k smax) (1+rho)^v, so e_l of these is 2^(k smax l) e_l((1+rho)^s)
    powers = [a**v << k * (smax - v) for v in range(smax + 1)]
    ls = range(1, nt + 1)
    coeffs = [[0] * (smax * nt) for _ in ls]
    for s, row, alpha in table:
        w = sum(count * mprods[m] for m, count in row)
        e = elementary_symmetric_all([powers[v] for v in s])
        for acc, l in zip(coeffs, ls):
            we = w * e[l] if l % 2 else -w * e[l]
            for slot, al in alpha:
                acc[slot] += we * al
    coeffs = tuple(tuple(c << k * smax * (nt - l) for c in acc) for acc, l in zip(coeffs, ls))
    return coeffs, den << k * (n0 + smax) * nt


def _residue_sum(cfg: ExactConfig, r: float, ls: range, coeffs: Sequence, den: int, slope: bool):
    """A' sum C[l][v,t] L_{l,t}(v) / den, L = h (T with ``slope``), and its error bound.

    mpmath gives z = z_l and one exp per l; the rest is integer fixed
    point at scale 2^P, P = mp.prec, so the dot product with the exact
    coefficients is exact.  From x h(x) = 1 - e^{xz}, v h_t + h_{t-1} =
    [t = 0] - e^{vz} z^t / t!, so with Z = floor(z 2^P), E = floor(e^z 2^P):

        E^v = E^(v-1) E >> P
        T_0 = E^v,               T_t = (T_{t-1} Z >> P) // t   (e^{vz} z^t / t!)
        h_0 = (2^P - T_0) // v,  h_t = (-T_t - h_{t-1}) // v

    Each floor errs by less than one unit u = 2^-P, and a binary64
    recurrence beside each integer carries its error d in units u.  z is
    within reach * eps of Nt r - l log(1+rho) (eps = 2u, reach = Nt r +
    l log(1+rho)) and exp within eps, so d_Z = 2 reach + 1 and d_E =
    2 e^z (1 + reach) + 1; a product adds each error times the other
    factor, their product times u (0 in binary64 beyond 1074 bits, where
    it is negligible) and 1.  Since dh_t/dz = -T_t, the sum with the
    leaves T_t in place of h_t is -d/dz of the outage's.  The bound is
    A' sum |C| d_h u / den (d_T with ``slope``), plus 8 eps of the result
    for the roundings of A' and of the final conversion and product.
    """
    dims, rho = cfg.dims, cfg.snr.rho
    nt, prec = dims.Nt, mp.prec
    log_one_rho = mp.log(1 + mpf(rho))
    ntr = nt * mpf(r)
    zfrac = _selberg_z_fraction(dims)
    # A' / den, with A' = Nt! / (Z rho^(Nt^2 + (|Nt-Nr|+N0) Nt))
    a_norm = mpf(math.factorial(nt)) / (
        (mpf(zfrac.numerator) / mpf(zfrac.denominator))
        * mpf(rho) ** (nt * nt + (dims.Nr - dims.Nt + dims.N0) * nt)
        * den
    )
    one, u = 1 << prec, math.ldexp(1.0, -prec)
    # sum |C| d (d_h, or d_T with slope) in binary64, the coefficients cut to their top 64 bits
    shift = max(0, max(max(map(abs, acc)) for acc in coeffs).bit_length() - 64)
    total, bound = 0, 0.0
    for acc, l in zip(coeffs, ls):
        z = ntr - l * log_one_rho
        exp_z = mp.exp(z)
        az, ez = abs(float(z)), float(exp_z)
        reach = nt * r + l * math.log1p(rho)
        big_z, big_e = to_fixed(z._mpf_, prec), to_fixed(exp_z._mpf_, prec)
        dz, de = 2 * reach + 1, 2 * ez * (1 + reach) + 1
        power, d_power, e_prev = one, 0.0, 1.0  # E^(v-1), its error and e^{(v-1)z}
        for v in range(1, len(acc) // nt + 1):
            power = power * big_e >> prec
            d_power = d_power * (ez + de * u) + e_prev * de + 1
            e_prev *= ez
            term, d_term, size = power, d_power, e_prev  # size = |e^{vz} z^t / t!|
            h, d_h = (one - term) // v, d_term / v + 1
            for t in range(nt):
                if t:
                    d_term = (d_term * (az + dz * u) + size * dz + 1) / t + 1
                    term = (term * big_z >> prec) // t
                    size *= az / t
                    h, d_h = (-term - h) // v, (d_term + d_h) / v + 1
                c = acc[(v - 1) * nt + t]
                if c:
                    total += c * (term if slope else h)
                    bound += float(abs(c) >> shift) * (d_term if slope else d_h)
    total = a_norm * mpf((total, -prec))
    return total, a_norm * mp.ldexp(bound, shift - prec) + mp.ldexp(abs(total), 4 - prec)  # 8 eps


def _series(cfg: ExactConfig, r: float, slope: bool) -> float:
    """P_out(r), or with ``slope`` its density P'(r), to a relative 2^-53.

    The coefficients are built once per (dims, rho); a precision retry
    redoes only the leaves and the dot product.  A result is kept once its
    error bound is 2^-(53 + _GUARD_BITS) of its size (of the smallest
    normal double, for a result below it).  A sum without one correct digit says little of
    the precision it needs, so its retry at least doubles the precision.
    """
    nt, rho = cfg.dims.Nt, cfg.snr.rho
    # smallest l with Nt*r < l*log(1+rho); terms below it vanish.  Where
    # rounding puts l on the wrong side, its z_l is within rounding of 0
    # and its term, O(z^Nt) (O(z^(Nt-1)) in the density), with it.
    l_min = int(nt * r / math.log1p(rho)) + 1
    if l_min > nt:
        return 0.0 if slope else 1.0
    ls = range(l_min, nt + 1)
    coeffs, den = _coefficients(cfg.dims, rho)
    coeffs = coeffs[l_min - 1:]
    what, top = ("density", math.inf) if slope else ("outage", 1.0)
    prec = _START_BITS
    while True:
        with mp.workprec(prec):
            total, err = _residue_sum(cfg, r, ls, coeffs, den, slope)
            # P' = Nt A' sum C T / den, as dz/dr = Nt and dh_t/dz = -T_t
            p, err = (nt * total, nt * err) if slope else (1 - total, err)
            needed = prec + 53 + _GUARD_BITS + mp.mag(err / max(abs(p), _TINY))
        if needed <= prec:
            break
        if needed > _MAX_BITS:
            raise ArithmeticError(
                f"exact {what} needs {needed} bits (error bound {float(err):.3g} "
                f"at {prec} bits against {float(abs(p)):.3g}), above the "
                f"{_MAX_BITS}-bit ceiling"
            )
        new = max(needed, min(2 * prec, _MAX_BITS)) if err >= abs(p) else needed
        _log.debug("exact solver: %d-bit sum needs %d bits; retrying at %d", prec, needed, new)
        prec = new
    # at 53 bits, top + err would round to top; p - top keeps its sign
    if not -err <= p or p - top > err:
        raise ArithmeticError(
            f"exact {what} {float(p)!r} outside [0, {top}] "
            f"beyond its rounding bound {float(err):.3g}"
        )
    return min(top, max(0.0, float(p)))


def outage_exact(cfg: ExactConfig, r: float) -> OutageEstimate:
    """P_out(r) from the closed-form finite-size expression.

    ``r`` is a rate of the reduced ensemble, as for every outage route:
    for reduced dims it excludes the offset of the eigenvalues pinned at
    1 (see ``ensemble``).  The sum starts at 256 bits and escalates until
    its measured rounding error bound allows a relative 2^-53, so the
    result is accurate to 1e-9 absolute and, in the tail, relative.
    ``ArithmeticError`` means the bound could not be met within 4096
    bits, or the result left [0, 1] by more than it.
    """
    if not r >= 0:
        raise ValueError(f"rate threshold r must be >= 0, got {r!r}")
    if r == 0:
        p = 0.0
    elif r >= math.log1p(cfg.snr.rho):
        p = 1.0
    else:
        p = _series(cfg, r, slope=False)
    return OutageEstimate(p=p, method="exact")


def outage_density_exact(cfg: ExactConfig, r: float) -> DensityEstimate:
    """Rate density P'(r): the residue sum of :func:`outage_exact`, differentiated.

    Same error bound and escalation as the outage, so ``error``, one unit
    in the last place of ``value``, is guaranteed.  The density is 0
    outside the open rate window; a NaN rate raises ``ValueError``.
    """
    if math.isnan(r):
        raise ValueError(f"rate r must be a number, got {r!r}")
    if not 0 < r < math.log1p(cfg.snr.rho):
        return DensityEstimate(value=0.0, error=0.0)
    value = _series(cfg, r, slope=True)
    return DensityEstimate(value=value, error=math.ulp(value))
