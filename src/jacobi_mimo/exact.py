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

The evaluation groups the terms by sorted s.  A cached integer table
holds, for each sorted s and sorted m, the sum of sgn(sigma) over the
(m, sigma) that produce them; it depends only on Nt and |Nt-Nr|+N0+1.
Each distinct s then gets one weight sum count * prod c_m, one
recurrence for all d_l, and, since the divided difference is linear,
one table for H_s = sum_l (-1)^{l-1} d_l h_l over s.  The Taylor
coefficients of each h_l at the integers are computed once per call,
one exp per (point, l).  At (12,5,5) that is about a thousand distinct s
and some 0.2 s per rate point.

The sum is violently alternating, so every interior operation runs in
mpmath extended precision (default 256-bit significand) and is rounded
to binary64 only at the end.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from mpmath import mp, mpf

from .ensemble import ChannelDims, SnrParam
from .results import OutageEstimate
from .specfun import elementary_symmetric_all

__all__ = [
    "ExactConfig",
    "TermBudgetError",
    "DensityEstimate",
    "log_selberg_z",
    "c_coefficient",
    "f_residue",
    "outage_exact",
    "outage_density_exact",
]

_EXACT_TOL = 1e-9  # guaranteed accuracy of the rounded result
_CONSISTENCY_SLACK = 1e-6  # |P| may not exceed [0,1] by more than this


class TermBudgetError(ValueError):
    """The requested configuration exceeds the exact solver's caps."""


@dataclass(frozen=True)
class ExactConfig:
    """Exact-solver configuration and complexity caps.

    ``precision_bits`` is the working significand of the interior sums.
    The term count (|Nt-Nr|+N0+1)^Nt * Nt! (merged expansion indices m
    times permutations) must stay within ``term_budget``; beyond a few
    channels the asymptotic solver is the right tool anyway.
    """

    dims: ChannelDims
    snr: SnrParam
    precision_bits: int = 256
    max_nt: int = 5
    term_budget: int = 10**8

    def __post_init__(self):
        if self.precision_bits < 128:
            raise ValueError("precision_bits must be >= 128")

    def term_count(self) -> int:
        d = self.dims
        dn = d.Nr - d.Nt
        return (dn + d.N0 + 1) ** d.Nt * math.factorial(d.Nt)

    def check_caps(self):
        if self.dims.Nt > self.max_nt:
            raise TermBudgetError(
                f"Nt={self.dims.Nt} exceeds the exact-solver cap max_nt={self.max_nt}"
            )
        count = self.term_count()
        if count > self.term_budget:
            raise TermBudgetError(
                f"term count {count} exceeds term_budget={self.term_budget}"
            )


class DensityEstimate(NamedTuple):
    value: float
    error: float


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


def log_selberg_z(dims: ChannelDims) -> float:
    """log Z for the joint eigenvalue density, via exact integer factorials."""
    z = _selberg_z_fraction(dims)
    with mp.workprec(128):
        return float(mp.log(mpf(z.numerator) / mpf(z.denominator)))


def c_coefficient(k: int, n: int, dims: ChannelDims, snr: SnrParam):
    """Binomial-expansion coefficient c_{k,n} (extended precision).

    c_{k,n} = C(|Nt-Nr|, k) C(N0, n) (-1)^{|Nt-Nr|-k+N0-n} (1+rho)^n.
    """
    dn = dims.Nr - dims.Nt
    if not (0 <= k <= dn):
        raise ValueError(f"k must be in [0, {dn}], got {k}")
    if not (0 <= n <= dims.N0):
        raise ValueError(f"n must be in [0, {dims.N0}], got {n}")
    sign = -1 if (dn - k + dims.N0 - n) % 2 else 1
    return sign * math.comb(dn, k) * math.comb(dims.N0, n) * (1 + mpf(snr.rho)) ** n


def _taylor_leaves(v, z, count: int) -> list:
    """Taylor coefficients h_0, ..., h_{count-1} of h(x) = (1 - e^{xz})/x at v.

    From x h(x) = 1 - e^{xz}: v h_t + h_{t-1} = [t = 0] - e^{vz} z^t / t!,
    so one exp serves every order.
    """
    term = mp.exp(v * z)  # e^{vz} z^t / t!
    coeffs = [(1 - term) / v]
    for t in range(1, count):
        term *= z / t
        coeffs.append((-term - coeffs[-1]) / v)
    return coeffs


def _divided_difference(x: Sequence, taylor: dict):
    """Divided difference over the sorted points x (Newton/Hermite table).

    ``taylor[v]`` lists the function's Taylor coefficients at v, as many as
    v repeats in x; an entry that spans equal points is one of them.
    """
    table = [taylor[v][0] for v in x]
    for d in range(1, len(x)):
        table = [
            taylor[x[i]][d]
            if x[i + d] == x[i]
            else (table[i + 1] - table[i]) / (x[i + d] - x[i])
            for i in range(len(x) - d)
        ]
    return table[0]


def f_residue(zneg: float, s: Sequence):
    """The residue function F(z, s) for z < 0 (extended precision).

    F(z, s) = (-1)^{n-1} h[s_1, ..., s_n], the divided difference of
    h(x) = (1 - e^{xz})/x over the sorted s.  Repeated values take the
    Hermite (confluent) limit: where a table entry spans equal points it
    is the Taylor coefficient h_d of h there, from x h(x) = 1 - e^{xz},
    i.e. v h_t + h_{t-1} = [t = 0] - e^{vz} z^t / t!.
    """
    if not zneg < 0:
        raise ValueError(f"f_residue requires z < 0, got {zneg!r}")
    if any(v <= 0 for v in s):
        raise ValueError("all components of s must be positive")
    z = mpf(zneg)
    x = sorted(mpf(v) for v in s)
    taylor = {v: _taylor_leaves(v, z, x.count(v)) for v in dict.fromkeys(x)}
    dd = _divided_difference(x, taylor)
    return dd if len(x) % 2 else -dd


@functools.cache
def _key_table(nt: int, width: int) -> tuple:
    """Signed counts of the (m, sigma) sum, grouped by sorted s and sorted m.

    Over m in range(width)^nt and permutations sigma of 1..nt, the term
    s_j = j + sigma_j + m_j (j from 0) adds sgn(sigma) to the count of
    (sorted s, sorted m): the residue part depends on s only through its
    sorted values and the coefficient part on m only through its sorted
    values.  Returns ((s, ((m, count), ...)), ...) without zero counts.
    Integers only, so the table is independent of rho and precision.
    """
    perms = []
    for perm in itertools.permutations(range(1, nt + 1)):
        inv = sum(1 for i in range(nt) for j in range(i + 1, nt) if perm[i] > perm[j])
        perms.append((perm, -1 if inv % 2 else 1))
    counts: dict[tuple, Counter] = defaultdict(Counter)
    for mvec in itertools.product(range(width), repeat=nt):
        row_key = tuple(sorted(mvec))
        for perm, sign in perms:
            s = tuple(sorted(j + perm[j] + mvec[j] for j in range(nt)))
            counts[s][row_key] += sign
    return tuple(
        (s, tuple((m, c) for m, c in sorted(row.items()) if c))
        for s, row in sorted(counts.items())
        if any(row.values())
    )


def _outage_sum(cfg: ExactConfig, r_eff: float) -> float:
    """Evaluate the triple sum at the current working precision."""
    dims, rho = cfg.dims, cfg.snr.rho
    nt, dn, n0 = dims.Nt, dims.Nr - dims.Nt, dims.N0
    one_rho = 1 + mpf(rho)
    log_one_rho = mp.log(one_rho)
    ntr = nt * mpf(r_eff)

    # smallest l with Nt*r < l*log(1+rho); terms below it vanish
    l_min = int(mp.floor(ntr / log_one_rho)) + 1
    if l_min > nt:
        return 1.0

    zfrac = _selberg_z_fraction(dims)
    a_norm = mpf(math.factorial(nt)) / (
        (mpf(zfrac.numerator) / mpf(zfrac.denominator))
        * mpf(rho) ** (nt * nt + (dn + n0) * nt)
    )

    # s_j depends on (k_j, n_j) only through m_j = k_j + N0 - n_j, so the
    # two expansions merge into the coefficients of one polynomial
    coef = [mpf(0)] * (dn + n0 + 1)
    for k in range(dn + 1):
        for n in range(n0 + 1):
            coef[k + n0 - n] += c_coefficient(k, n, dims, cfg.snr)
    smax = 2 * nt - 1 + dn + n0
    opr_pow = [one_rho**e for e in range(smax + 1)]
    ls = range(l_min, nt + 1)
    # leaves[v][t][i]: order-t Taylor coefficient at the integer v of
    # h_l(x) = (1 - e^{x z_l})/x, z_l = Nt r - l log(1+rho), l = ls[i];
    # no point repeats more than Nt times in an s
    leaves = {
        v: list(zip(*(_taylor_leaves(v, ntr - l * log_one_rho, nt) for l in ls)))
        for v in range(1, smax + 1)
    }

    # per sorted s: sum_l (-1)^{l+Nt} e_l F(z_l, s) = H[s] with
    # H = sum_l (-1)^{l-1} e_l h_l, by linearity of the divided difference
    mprods = {
        m: math.prod(coef[i] for i in m)
        for m in itertools.combinations_with_replacement(range(dn + n0 + 1), nt)
    }
    total = mpf(0)
    for s, row in _key_table(nt, dn + n0 + 1):
        weight = sum(count * mprods[m] for m, count in row)
        e = elementary_symmetric_all([opr_pow[v] for v in s])
        signed = [e[l] if l % 2 else -e[l] for l in ls]
        taylor = {
            v: [mp.fdot(signed, leaves[v][t]) for t in range(s.count(v))]
            for v in dict.fromkeys(s)
        }
        total += weight * _divided_difference(s, taylor)

    return float(1 - a_norm * total)


def outage_exact(cfg: ExactConfig, r: float) -> OutageEstimate:
    """P_out(r) from the closed-form finite-size expression.

    ``r`` is the full per-channel rate including any deterministic
    offset carried by reduced dims; the random part is what the formula
    sees.  The result is accurate to 1e-9 after rounding from extended
    precision; an out-of-range interior result signals catastrophic
    cancellation, triggering one retry at doubled precision.
    """
    if r < 0:
        raise ValueError("rate threshold r must be >= 0")
    cfg.check_caps()
    r_eff = r - cfg.dims.pinned_rate(cfg.snr.rho)
    if r_eff <= 0:
        p = 0.0
    elif r_eff >= math.log1p(cfg.snr.rho):
        p = 1.0
    else:
        with mp.workprec(cfg.precision_bits):
            p = _outage_sum(cfg, r_eff)
        if not -_CONSISTENCY_SLACK <= p <= 1 + _CONSISTENCY_SLACK:
            with mp.workprec(2 * cfg.precision_bits):
                p = _outage_sum(cfg, r_eff)
            if not -_CONSISTENCY_SLACK <= p <= 1 + _CONSISTENCY_SLACK:
                raise ArithmeticError(
                    f"exact outage {p!r} outside [0,1] even after doubling the "
                    f"working precision to {2 * cfg.precision_bits} bits"
                )
        p = min(1.0, max(0.0, p))
    return OutageEstimate(p=p, ci_low=p, ci_high=p, method="exact", trials_or_tol=_EXACT_TOL)


def outage_density_exact(cfg: ExactConfig, r: float, step: float | None = None) -> DensityEstimate:
    """Rate density P'(r) by Richardson-extrapolated central differences.

    The step shrinks near the ends of the achievable rate window (where
    the outage clamps to 0 or 1, which would bias a straddling stencil);
    the error estimate combines the observed step-halving change with
    the rounding floor of the underlying outage values.
    """
    lo_edge = cfg.dims.pinned_rate(cfg.snr.rho)
    hi_edge = lo_edge + math.log1p(cfg.snr.rho)
    h = step if step is not None else 1e-4 * max(1.0, abs(r))
    room = min(r - lo_edge, hi_edge - r)
    if room > 0:
        h = min(h, 0.49 * room)
    h = max(h, 1e-12)

    def central(hh: float) -> float:
        hi = outage_exact(cfg, r + hh).p
        lo = outage_exact(cfg, max(0.0, r - hh)).p
        return (hi - lo) / (2.0 * hh)

    d1 = central(h)
    d2 = central(h / 2)
    value = (4 * d2 - d1) / 3
    error = abs(d2 - d1) / 3 + _EXACT_TOL / h
    return DensityEstimate(value=value, error=error)
