"""Independent numerical oracles shared by the test modules.

These deliberately avoid the code paths they validate: integrals are
taken by adaptive Gauss-Legendre quadrature (the kernel integral from
its definition), the electrostatic energy functional by a cosine-series
(DCT) expansion of the density, which turns the double logarithmic
integral into a fast spectral sum, and the channel itself by drawing
Haar unitaries (QR of a Ginibre matrix) in place of the Monte Carlo
sampler's bidiagonal model, whose pivot-count histograms are in turn
checked against a dense eigensolve of the same draws.  The exact
solver's residue sum is checked against its evaluation one
divided-difference table per sorted s, all in mpmath, in place of the
exact integer coefficients.  The references behind that evaluation live
here: the residue function ``f_residue`` (its Newton/Hermite table
``_divided_difference`` on mpmath Taylor leaves, each with its own exp),
the binomial-expansion coefficient ``c_coefficient`` and the Selberg
normalization ``log_selberg_z``.  Clopper-Pearson bounds are checked
against 40-digit roots of the binomial tails themselves, summed term by
term (``clopper_pearson_mp``), not against an incomplete beta inverse.
The moments of X = Nt I come from the determinantal structure of the
Jacobi ensemble instead (``rate_cumulants``): traces of the projection
kernel on a Lanczos basis of its orthogonal polynomials, in numpy alone.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from mpmath import mp, mpf
from scipy.fft import dct
from scipy.special import betaincinv

from jacobi_mimo import exact
from jacobi_mimo.coulomb import density_at
from jacobi_mimo.ensemble import ChannelDims, SnrParam
from jacobi_mimo.montecarlo import _block_bidiagonal
from jacobi_mimo.specfun import elementary_symmetric_all, g_closed


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
# G(x, y) on its strict domain, and the kernel integral itself
# ---------------------------------------------------------------------------

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
        return g_closed(x, y, 1.0 + y)
    raise ValueError(f"g_fn domain excludes y in (-1, 0], got y={y!r}")


def i3_fn(x: float) -> float:
    """I3(x) = -G(x, -1), the y -> -1 limit of the kernel integral."""
    if x <= 0:
        raise ValueError(f"i3_fn requires x > 0, got x={x!r}")
    return -g_closed(x, -1.0, 0.0)




def g_defining_integral(x: float, y: float, target: float = 1e-13) -> float:
    """(1/pi) * int_0^1 sqrt(t(1-t)) log(t+x)/(t+y) dt by adaptive quadrature."""
    val, _ = quadrature(lambda t: math.log(t + x) / (t + y), weight="sqrt", target=target)
    return val / math.pi


def _g_mp(x, y):
    # the closed form of G(x, y) in mpmath, with 1 + y formed exactly
    sx, sx1 = mp.sqrt(x), mp.sqrt(1 + x)
    val = (1 + 2 * y) * mp.log((sx1 + sx) / 2) - (sx1 - sx) ** 2 / 2
    if y != 0 and y != -1:
        ay, ay1 = abs(y), abs(1 + y)
        num = mp.sqrt(x * ay1) + mp.sqrt(ay * (1 + x))
        den = mp.sqrt(ay1) + mp.sqrt(ay)
        val -= 2 * mp.sign(y) * mp.sqrt(ay * ay1) * mp.log(num / den)
    return val


def _poles_mp(n0, beta, z, k, a, b):
    # coulomb._poles in mpmath: (gamma, y) pairs, each 1 + y formed exactly
    d = b - a
    gz = d * k / mp.sqrt((z + a) * (z + b))
    g0 = (beta - 1) * d / mp.sqrt(a * b) if a > 0 else None
    if b < 1:
        g1 = -n0 * d / mp.sqrt((1 - a) * (1 - b))
    else:
        g1 = -(gz + g0) if g0 is not None else z * gz - d * (n0 + beta + 1 + k)
    if g0 is None:
        g0 = -(gz + g1)
    return [(gz, (a + z) / d), (g1, -(1 - a) / d), (g0, a / d)]


def energy_pole_sums_mp(n0, beta, z, k, a, b, r) -> float:
    """E(r) from the pole sums of the support (a, b) at multiplier k, in 300-bit mpmath.

    The same decomposition and assembly as ``coulomb._poles`` and
    ``coulomb._energy_from_poles`` (see the comment block above them),
    evaluated exactly from the float inputs, so that only the float
    code's rounding separates the two.
    """
    with mp.workprec(300):
        n0, beta, z, k, a, b, r = map(mpf, (n0, beta, z, k, a, b, r))
        d = b - a
        poles = _poles_mp(n0, beta, z, k, a, b)

        def integral(w, flip=False):  # log d + (1/2) sum gamma G, or its t -> 1-t mirror
            if flip:
                return mp.log(d) - sum(g * _g_mp(w, -(1 + y)) for g, y in poles) / 2
            return mp.log(d) + sum(g * _g_mp(w, y) for g, y in poles) / 2

        x0 = a if b == 1 else b
        e = k / 2 * (r - mp.log(1 + x0 / z))
        if n0:
            e -= n0 / 2 * (integral((1 - b) / d, flip=True) + mp.log(1 - x0))
        if beta > 1:
            e -= (beta - 1) / 2 * (integral(a / d) + mp.log(x0))
        return float(e - integral(0, flip=x0 == b))


def density_pole_sum_mp(sol, x: float) -> float:
    """``density_at(sol, x)`` for a < x < b, evaluated exactly from the solution's floats."""
    with mp.workprec(300):
        a, b, x = mpf(sol.a), mpf(sol.b), mpf(x)
        d, t = b - a, (x - a) / (b - a)
        poles = _poles_mp(*map(mpf, (sol.n0, sol.beta, 1.0 / sol.rho, sol.k)), a, b)
        return float(mp.sqrt(t * (1 - t)) * sum(g / (t + y) for g, y in poles) / (2 * mp.pi * d))


_M = 1 << 15


def _angle_samples(sol):
    a, b = sol.a, sol.b
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    phi = math.pi * (2 * np.arange(_M) + 1) / (2 * _M)
    x = mid + half * np.cos(phi)
    f = density_at(sol, x) * half * np.sin(phi)
    return x, f, half


def density_mass_and_rate(sol) -> tuple[float, float]:
    """Quadrature of the solved density: (total mass, mean log(1+rho x))."""
    x, f, _ = _angle_samples(sol)
    w = math.pi / _M
    return float(w * np.sum(f)), float(w * np.sum(f * np.log1p(sol.rho * x)))


def energy_functional(sol) -> float:
    """Direct evaluation of the electrostatic energy of the solved density.

    In the angle variable x = mid + half*cos(phi) the log kernel is
    log|x-y| = log(half/2) - 2 sum_n cos(n phi) cos(n psi)/n, so the
    double integral needs only the cosine coefficients of the density,
    which one DCT supplies.
    """
    n0, beta = sol.n0, sol.beta
    x, f, half = _angle_samples(sol)
    w = math.pi / _M
    total = 0.0
    if n0:
        total -= n0 * float(w * np.sum(f * np.log1p(-x)))
    if beta > 1:
        total -= (beta - 1) * float(w * np.sum(f * np.log(x)))
    coef = dct(f, type=2) * (w / 2.0)  # coef[n] = int f cos(n phi); coef[0] = mass
    n = np.arange(1, _M)
    pair = math.log(half / 2.0) * coef[0] ** 2 - 2.0 * float(np.sum(coef[1:] ** 2 / n))
    return total - pair


# ---------------------------------------------------------------------------
# Haar-unitary channel draws
# ---------------------------------------------------------------------------

# Eigenvalues of U^H U may drift slightly outside [0, 1] through the QR and
# eigensolver round-off; beyond _EIG_HARD_TOL the source was not unitary.
_EIG_HARD_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of U^H U for one channel draw, ascending, in [0, 1]."""

    eigenvalues: np.ndarray


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, 2 * cols))
    return (g[:, :cols] + 1j * g[:, cols:]) / np.sqrt(2.0)


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n x n unitary from the Haar measure.

    QR of a complex Ginibre matrix, with column j of Q multiplied by the
    phase R_jj/|R_jj|.  That puts the factorization in its canonical
    positive-diagonal gauge, whose uniqueness makes the Q factor exactly
    Haar whatever phase conventions the underlying QR uses.  An exactly
    zero R diagonal has probability zero; the draw is simply repeated if
    it occurs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    while True:
        q, r = np.linalg.qr(_ginibre(rng, n, n))
        d = np.diagonal(r)
        if np.all(d != 0):
            return q * (d / np.abs(d))


def sample_truncation(dims: ChannelDims, rng: np.random.Generator) -> np.ndarray:
    """Draw the Nr x Nt corner of an N x N Haar unitary directly.

    The first Nt columns of a Haar unitary form a Haar-distributed
    isometry, which is the QR factor (same diagonal phase fix) of an
    N x Nt Ginibre matrix; the corner is its first Nr rows.  Identical in
    distribution to truncating :func:`sample_haar_unitary`, at thin-QR
    cost; it is the oracle for the Monte Carlo sampler.
    """
    while True:
        q, r = np.linalg.qr(_ginibre(rng, dims.N, dims.Nt))
        d = np.diagonal(r)
        if np.all(d != 0):
            return q[: dims.Nr, :] * (d / np.abs(d))


def truncate(U: np.ndarray, dims: ChannelDims) -> np.ndarray:
    """Upper-left Nr x Nt block of an N x N transmission matrix."""
    if U.shape != (dims.N, dims.N):
        raise ValueError(f"expected a {dims.N} x {dims.N} matrix, got shape {U.shape}")
    return U[: dims.Nr, : dims.Nt]


def spectrum(H: np.ndarray) -> SpectrumSample:
    """Eigenvalues of H^H H for an Nr x Nt truncation block (Nr >= Nt).

    The Gram matrix of the smaller side keeps the eigenproblem at
    Nt x Nt.  Values outside [-1e-9, 1+1e-9] signal a non-unitary source
    and raise; round-off level excursions are clamped back into [0, 1].
    """
    nr, nt = H.shape
    if nr < nt:
        raise ValueError(f"expected Nr >= Nt, got shape {H.shape}")
    lam = np.linalg.eigvalsh(H.conj().T @ H)
    if lam.min() < -_EIG_HARD_TOL or lam.max() > 1.0 + _EIG_HARD_TOL:
        raise ValueError(
            f"eigenvalues {lam.min()!r}..{lam.max()!r} outside [0,1] beyond "
            f"tolerance {_EIG_HARD_TOL}; source matrix is not a unitary truncation"
        )
    return SpectrumSample(np.sort(np.clip(lam, 0.0, 1.0)))


def mutual_information(s: SpectrumSample, snr: SnrParam, dims: ChannelDims) -> float:
    """Per-channel mutual information in nats: (1/Nt) * sum log(1 + rho*lambda).

    Like the library's rates, it is the reduced ensemble's: the offset of
    the eigenvalues pinned at 1 is left out for reduced dims.
    """
    return float(np.log1p(snr.rho * s.eigenvalues).sum()) / dims.Nt


def block_eigenvalues(dims: ChannelDims, seed: int, lo: int, hi: int) -> np.ndarray:
    """Eigenvalues of B^T B for the sampler's trials [lo, hi): shape (hi-lo, Nt), in [0, 1].

    A dense batched ``eigvalsh`` of B^T B, built from the same draws as the
    sampler's block, in place of its pivot counts.
    """
    d2, e2 = _block_bidiagonal(dims, seed, lo, hi)
    idx = np.arange(dims.Nt)
    b = np.zeros((hi - lo, dims.Nt, dims.Nt))
    b[:, idx, idx] = np.sqrt(d2).T
    b[:, idx[:-1], idx[1:]] = np.sqrt(e2).T
    return np.clip(np.linalg.eigvalsh(np.matmul(b.transpose(0, 2, 1), b)), 0.0, 1.0)


def log_joint_density_unnormalized(s: SpectrumSample, dims: ChannelDims) -> float:
    """Log of the unnormalized Jacobi joint eigenvalue density.

    sum_{i<j} 2 log|l_i - l_j| + sum_k [ |Nt-Nr| log l_k + N0 log(1-l_k) ].
    Returns -inf for eigenvalues at the boundary or coinciding (the
    Vandermonde factor vanishes).
    """
    lam = np.asarray(s.eigenvalues, dtype=float)
    if lam.min() <= 0.0 or lam.max() >= 1.0:
        return -np.inf
    diffs = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(lam.size, k=1)]
    if diffs.size and diffs.min() == 0.0:
        return -np.inf
    val = 2.0 * float(np.log(diffs).sum()) if diffs.size else 0.0
    val += (dims.Nr - dims.Nt) * float(np.log(lam).sum())
    val += dims.N0 * float(np.log1p(-lam).sum())
    return val


# ---------------------------------------------------------------------------
# Exact solver: the residue sum evaluated per distinct sorted s
# ---------------------------------------------------------------------------

def log_selberg_z(dims: ChannelDims) -> float:
    """log Z for the joint eigenvalue density, via exact integer factorials."""
    z = exact._selberg_z_fraction(dims)
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


def taylor_leaves(v, z, count: int) -> list:
    """Taylor coefficients h_0, ..., h_{count-1} of h(x) = (1 - e^{xz})/x at v.

    From x h(x) = 1 - e^{xz}: v h_t + h_{t-1} = [t = 0] - e^{vz} z^t / t!,
    with e^{vz} from its own exp (production takes it as a power of e^z).
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
    taylor = {v: taylor_leaves(v, z, x.count(v)) for v in dict.fromkeys(x)}
    dd = _divided_difference(x, taylor)
    return dd if len(x) % 2 else -dd


def _sum_per_s(cfg, r: float, bits: int, leaf_fn):
    """A' sum_s w_s (-1)^{n-1} H_s[s], one divided-difference table per sorted s.

    H_s = sum_l (-1)^{l-1} d_l g_l, where ``leaf_fn(v, z, count)`` gives the
    Taylor coefficients at v of g_l(x), at z = Nt r - l log(1+rho).  None
    when no l contributes.  Runs at ``bits`` bits and returns an mpf.
    """
    dims, rho = cfg.dims, cfg.snr.rho
    nt, dn, n0 = dims.Nt, dims.Nr - dims.Nt, dims.N0
    with mp.workprec(bits):
        one_rho = 1 + mpf(rho)
        log_one_rho = mp.log(one_rho)
        ntr = nt * mpf(r)
        # smallest l with Nt*r < l*log(1+rho); terms below it vanish
        l_min = int(mp.floor(ntr / log_one_rho)) + 1
        if l_min > nt:
            return None
        zfrac = exact._selberg_z_fraction(dims)
        a_norm = mpf(math.factorial(nt)) / (
            (mpf(zfrac.numerator) / mpf(zfrac.denominator))
            * mpf(rho) ** (nt * nt + (dn + n0) * nt)
        )
        coef = [mpf(0)] * (dn + n0 + 1)
        for k in range(dn + 1):
            for n in range(n0 + 1):
                coef[k + n0 - n] += c_coefficient(k, n, dims, cfg.snr)
        smax = 2 * nt - 1 + dn + n0
        opr_pow = [one_rho**e for e in range(smax + 1)]
        ls = range(l_min, nt + 1)
        # leaves[v][t][i]: order-t Taylor coefficient at v of g_l, l = ls[i]
        leaves = {
            v: list(zip(*(leaf_fn(v, ntr - l * log_one_rho, nt) for l in ls)))
            for v in range(1, smax + 1)
        }
        mprods = {
            m: math.prod(coef[i] for i in m)
            for m in itertools.combinations_with_replacement(range(dn + n0 + 1), nt)
        }
        total = mpf(0)
        for s, row, _ in exact._key_table(nt, dn + n0 + 1)[1]:
            weight = sum(count * mprods[m] for m, count in row)
            e = elementary_symmetric_all([opr_pow[v] for v in s])
            signed = [e[l] if l % 2 else -e[l] for l in ls]
            taylor = {
                v: [mp.fdot(signed, leaves[v][t]) for t in range(s.count(v))]
                for v in dict.fromkeys(s)
            }
            total += weight * _divided_difference(s, taylor)
        return a_norm * total


def outage_sum_per_s(cfg, r: float, bits: int) -> float:
    """P_out(r) from the residue sum, one divided-difference table per sorted s.

    Everything runs in mpmath at ``bits`` bits: for each sorted s of the
    key table, its weight sum count * prod c_m, one recurrence for all
    d_l = e_l((1+rho)^s), and one divided-difference table for
    H_s = sum_l (-1)^{l-1} d_l h_l (the divided difference is linear).
    The production solver instead sums exact integer coefficients per
    (l, v, t) and takes one dot product with the leaves.
    """
    total = _sum_per_s(cfg, r, bits, taylor_leaves)
    if total is None:
        return 1.0
    with mp.workprec(bits):
        return float(1 - total)


def _exp_leaves(v, z, count: int) -> list:
    """Taylor coefficients at v of e^{xz}: e^{vz} z^t / t!."""
    term = mp.exp(v * z)
    coeffs = [term]
    for t in range(1, count):
        term *= z / t
        coeffs.append(term)
    return coeffs


def density_sum_per_s(cfg, r: float, bits: int) -> float:
    """The rate density P'(r) from the per-s sum of the derivative.

    d/dz h(x) = -e^{xz}, so P' = Nt A' sum_s w_s (-1)^{n-1} H_s with the
    exponential leaves e^{vz} z^t / t! in place of the h_t; this does not
    use the production solver's integer coefficients or fixed point.
    """
    total = _sum_per_s(cfg, r, bits, _exp_leaves)
    return 0.0 if total is None else float(cfg.dims.Nt * total)


# ---------------------------------------------------------------------------
# Clopper-Pearson bounds as 40-digit roots of the binomial tails
# ---------------------------------------------------------------------------

CP_HALF_ALPHA = (1.0 - 0.95) / 2.0  # alpha/2 of a 95% interval, the rounding of 0.95 included


def _binomial_tail_mp(n: int, k: int, x, upper: bool):
    """(tail, pmf(k)) with tail = P(Bin(n, x) >= k) summed upward from k, or P(X <= k) downward.

    On the side of k where each bound's root lies the term ratios fall
    below 1 and keep falling, so the sum stops once the geometric bound
    term q / (1 - q) on everything after the current term is below 1e-50
    of the tail.
    """
    pmf = mp.exp(
        mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1) + k * mp.log(x) + (n - k) * mp.log1p(-x)
    )
    odds = x / (1 - x) if upper else (1 - x) / x
    tail, term, j = pmf, pmf, k
    while j < n if upper else j > 0:
        q = odds * ((n - j) / mpf(j + 1) if upper else j / mpf(n - j + 1))
        if q < 1 and term * q / (1 - q) < tail * mpf("1e-50"):
            break
        term *= q
        tail += term
        j += 1 if upper else -1
    return tail, pmf


def clopper_pearson_mp(k: int, n: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """((lo, residual), (hi, residual)) of the 95% Clopper-Pearson interval of k in [1, n-1] of n.

    lo solves P(Bin(n, x) >= k) = alpha/2 and hi solves P(Bin(n, x) <= k) =
    alpha/2, each tail summed directly at 40 digits (no incomplete beta
    function: mpmath's ``betainc`` does not converge at n = 12288, k = 6000).
    Newton's method on log tail - log(alpha/2) in t = logit x starts from
    scipy's ``betaincinv`` and runs until its step is below 1e-36; the
    residual at the returned root is given so that a caller can check that
    the root converged rather than trust it.  hi is a root of its own lower
    tail, not 1 minus a root near 1.
    """
    if not 0 < k < n:
        raise ValueError(f"count must lie in [1, n-1], got k={k!r}, n={n!r}")
    out = []
    with mp.workdps(40):
        target = mp.log(mpf(CP_HALF_ALPHA))
        for upper, start in ((True, betaincinv(k, n - k + 1, CP_HALF_ALPHA)),
                             (False, betaincinv(k + 1, n - k, 1.0 - CP_HALF_ALPHA))):
            t = mp.log(mpf(start) / (1 - mpf(start)))
            for _ in range(50):
                x = 1 / (1 + mp.exp(-t))
                tail, pmf = _binomial_tail_mp(n, k, x, upper)
                g = mp.log(tail) - target
                slope = k * pmf * (1 - x) / tail if upper else -(n - k) * pmf * x / tail
                step = g / slope
                t -= step
                if abs(step) < mpf("1e-36") * max(1, abs(t)):
                    break
            x = 1 / (1 + mp.exp(-t))
            tail, _ = _binomial_tail_mp(n, k, x, upper)
            out.append((float(x), float(mp.log(tail) - target)))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Cumulants of X = Nt I = sum log(1 + rho lambda) on a Lanczos basis
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _rate_nodes(n: int, rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes u on (0, U), U = log1p(rho); x = expm1(u)/rho; log of (U w/2) dx/du."""
    t, w = np.polynomial.legendre.leggauss(n)
    top = math.log1p(rho)
    u = 0.5 * top * (t + 1.0)
    return u, np.expm1(u) / rho, np.log(0.5 * top * w) + u - math.log(rho)


def rate_cumulants(nt: int, dn: float, n_zero: float, rho: float, n: int | None = None, c: float = 0.0):
    """(log M, kappa1, kappa2) of X = sum_i log(1 + rho lambda_i) under the tilt e^{cX}.

    The eigenvalues follow the Jacobi weight x^dn (1-x)^N0 (1+rho x)^c on
    [0, 1]; dn = Nr - Nt and N0 are taken as reals, and the tilt adds
    c u to the log-weight.  c = 0 is the channel itself; c = k Nt is the
    finite-Nt twin of the Coulomb gas at multiplier k, so kappa1(k Nt)/Nt
    tends to ``solve_at_multiplier(k).r``.  The weight is sampled at n
    Gauss-Legendre nodes in u = log1p(rho x) (n = 96 + 8 Nt by default),
    and the first Nt orthonormal polynomials are built there by plain
    float64 Lanczos, each new vector x q projected off the basis twice.
    M is the Hankel determinant of the weight, Z / Nt! for its integral
    Z over [0, 1]^Nt (the Selberg integral at c = 0): Nt log h_0 +
    sum_i 2(Nt-i) log r_i over the Lanczos off-diagonals r_i.  With
    M_a = Q^T diag(u^a) Q, kappa1 = tr M_1 and kappa2 = tr M_2 - tr M_1^2,
    so E[I] = kappa1/Nt and Var[I] = kappa2/Nt^2 under the tilted law.

    The rule converges geometrically when dn and N0 are integers.  A
    non-integer one leaves a branch point at an end of the interval, and
    the convergence turns algebraic: at Nt = 1, (dn, N0) = (0.5, 1.5),
    rho = 0.01, kappa1 is 4.6e-7 off at n = 104, and n against 2n shows
    4.0e-7 of it.
    """
    n = 96 + 8 * nt if n is None else n
    u, x, log_w = _rate_nodes(n, rho)
    ell = log_w + dn * np.log(x) + n_zero * np.log1p(-x) + c * u
    top = float(ell.max())
    s = np.exp(0.5 * (ell - top))
    norm = float(np.linalg.norm(s))
    q = np.empty((n, nt))
    q[:, 0] = s / norm
    log_m = nt * (top + 2.0 * math.log(norm))
    for i in range(1, nt):
        v = x * q[:, i - 1]
        for _ in range(2):
            v -= q[:, :i] @ (q[:, :i].T @ v)
        r = float(np.linalg.norm(v))
        q[:, i] = v / r
        log_m += 2.0 * (nt - i) * math.log(r)
    m1 = q.T @ (u[:, None] * q)
    m2 = q.T @ (u[:, None] ** 2 * q)
    return log_m, float(np.trace(m1)), float(np.trace(m2) - np.sum(m1 * m1))
