import math
import random

import mpmath
import numpy as np
import pytest
import scipy.optimize
from scipy.special import betaincinv, log_ndtr

from jacobi_mimo import specfun
from jacobi_mimo.specfun import bracketed_root, clopper_pearson, elementary_symmetric_all, g_closed, log_q, q_fn

from _oracles import QuadratureError, g_defining_integral, g_fn, i3_fn, quadrature

# frozen from the quadrature oracle (target 1e-13)
G_1_1 = 0.031019311907168664
G_HALF_NEG2 = -0.0008960954105165004
I3_1 = 0.2740128440865297
I3_QUARTER = -0.020952349875280565
# frozen from a 25-digit erfc evaluation
Q_1 = 0.1586552539314570514147675


def test_quadrature_constant():
    val, err = quadrature(lambda t: 1.0)
    assert abs(val - 1.0) < 1e-13
    assert err < 1e-10


def test_quadrature_sqrt_weight_beta_moment():
    val, _ = quadrature(lambda t: 1.0, weight="sqrt")
    assert abs(val - math.pi / 8) < 1e-13


def test_quadrature_handles_inverse_sqrt_edges():
    # arcsine density integrates to 1 despite diverging at both endpoints
    val, _ = quadrature(lambda t: 1.0 / (math.pi * math.sqrt(t * (1 - t))))
    assert abs(val - 1.0) < 1e-11


def test_quadrature_error_carries_best_estimate():
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError) as info:
        quadrature(lambda t: rng.standard_normal() * 1e6, target=1e-14, max_depth=3)
    assert math.isfinite(info.value.best)
    assert info.value.error > 0


def test_quadrature_rejects_bad_interval_and_weight():
    with pytest.raises(ValueError):
        quadrature(lambda t: 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        quadrature(lambda t: 1.0, weight="log")


def test_g_fn_golden_values():
    assert abs(g_fn(1.0, 1.0) - G_1_1) < 1e-10
    assert abs(g_fn(0.5, -2.0) - G_HALF_NEG2) < 1e-10


def test_g_fn_matches_integral_on_random_domain_points():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        x = float(10.0 ** rng.uniform(-2, 1.5))
        if rng.random() < 0.5:
            y = float(10.0 ** rng.uniform(-2, 1.5))
        else:
            y = float(-1.0 - 10.0 ** rng.uniform(-2, 1.5))
        worst = max(worst, abs(g_fn(x, y) - g_defining_integral(x, y, target=1e-12)))
    assert worst < 1e-9


def test_g_fn_limit_path_at_minus_one():
    # integrable as written at y = -1; the closed form drops the vanishing term
    assert abs(g_fn(1.0, -1.0) - (-I3_1)) < 1e-9
    assert abs(g_fn(1.0, -1.0) - g_defining_integral(1.0, -1.0, target=1e-12)) < 1e-9


def test_g_fn_domain_errors():
    for y in (-0.5, 0.0, -0.999, -1e-12):
        with pytest.raises(ValueError):
            g_fn(1.0, y)
    with pytest.raises(ValueError):
        g_fn(0.0, 1.0)
    with pytest.raises(ValueError):
        g_fn(-1.0, 1.0)


def test_g_closed_domain_errors():
    with pytest.raises(ValueError, match="requires x >= 0"):
        g_closed(-1e-300, 1.0, 2.0)
    for y in (-0.5, -1e-300, -1.0 + 1e-16):
        with pytest.raises(ValueError, match="requires y > 0, y = 0, or y <= -1"):
            g_closed(1.0, y, 1.0 + y)


def test_g_closed_edge_arguments_match_integral():
    # y = 0 and x = 0 closures used by the rate/energy formulas
    assert abs(g_closed(1.0, 0.0, 1.0) - g_defining_integral(1.0, 0.0, target=1e-12)) < 1e-10
    assert abs(g_closed(0.3, 0.0, 1.0) - g_defining_integral(0.3, 0.0, target=1e-12)) < 1e-10
    assert abs(g_closed(0.0, 2.0, 3.0) - g_defining_integral(1e-13, 2.0)) < 1e-6
    assert abs(g_closed(0.0, -3.0, -2.0) - g_defining_integral(1e-13, -3.0)) < 1e-6


def test_i3_golden_and_identity():
    assert abs(i3_fn(1.0) - I3_1) < 1e-9
    assert abs(i3_fn(0.25) - I3_QUARTER) < 1e-9
    for x in np.logspace(-3, 3, 25):
        assert i3_fn(float(x)) == -g_closed(float(x), -1.0, 0.0)
    with pytest.raises(ValueError):
        i3_fn(0.0)


def test_q_fn_values_and_symmetry():
    assert q_fn(0.0) == 0.5
    assert abs(q_fn(1.0) - Q_1) < 1e-12 * Q_1 + 1e-15
    assert q_fn(40.0) < 1e-300
    assert q_fn(-40.0) > 1.0 - 1e-15
    for x in np.linspace(-8, 8, 33):
        assert abs(q_fn(float(x)) + q_fn(float(-x)) - 1.0) < 1e-14


def test_log_q_matches_scipy_log_ndtr():
    # both sides of the switch to the asymptotic series at u = 37, out to 1e4
    us = np.concatenate([np.linspace(0.0, 50.0, 5001), np.geomspace(1e-8, 1e4, 5001)])
    for u in us.tolist():
        want = float(log_ndtr(-u))
        assert abs(log_q(u) - want) <= 2e-15 * abs(want), u
    assert log_q(0.0) == math.log(0.5)
    assert log_q(math.inf) == -math.inf


CP_SIZES = [1, 2, 5, 37, 2048, 12288, 10**5, 10**7]
LOG_HALF_ALPHA = math.log((1.0 - 0.95) / 2.0)  # the rounding of conf = 0.95 included


def _cp_oracle(k, n):
    alpha = 1.0 - 0.95
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


@pytest.mark.parametrize("n", CP_SIZES)
def test_clopper_pearson_matches_betaincinv(n):
    rng = np.random.default_rng(n)
    fixed = [0, 1, 2, n // 3, n // 2, n - 1, n]
    counts = sorted({k for k in fixed + rng.integers(0, n + 1, 8).tolist() if 0 <= k <= n})
    # at n = 1e7 betaincinv itself is 6.6e-11 off (see the mpmath test below)
    tol = 1e-12 if n <= 10**5 else 1e-10
    for k, (lo, hi) in zip(counts, clopper_pearson(counts, n)):
        want_lo, want_hi = _cp_oracle(k, n)
        assert abs(lo - want_lo) <= tol * want_lo, (k, n)
        assert abs(hi - want_hi) <= tol * want_hi, (k, n)


def test_clopper_pearson_small_counts_at_large_n():
    n = 10**7
    # k = 1: P(X >= 1) = 1 - (1-x)^n, so lo(1) = 1 - hi(n-1) has a closed form
    (lo1, _), (_, hi_top) = clopper_pearson([1, n - 1], n)
    closed = -math.expm1(math.log1p(-math.exp(LOG_HALF_ALPHA)) / n)
    assert abs(lo1 - closed) <= 1e-14 * closed
    assert abs(hi_top - (1.0 - closed)) <= 2.3e-16  # an ulp near 1
    # hi(1), hi(2) against a 50-digit root of the finite lower tail
    with mpmath.workdps(50):
        for k in (1, 2):
            def excess(x):
                tail = sum(mpmath.binomial(n, j) * x**j * (1 - x) ** (n - j) for j in range(k + 1))
                return mpmath.log(tail) - LOG_HALF_ALPHA
            want = mpmath.findroot(excess, (mpmath.mpf(k + 1) / n, mpmath.mpf(k + 10) / n), solver="anderson")
            hi = clopper_pearson([k], n)[0][1]
            assert abs(hi - want) <= 1e-14 * want


def test_clopper_pearson_closed_forms_at_the_edges():
    for n in CP_SIZES:
        (lo0, hi0), (lo_n, hi_n) = clopper_pearson([0, n], n)
        assert lo0 == 0.0 and hi_n == 1.0
        assert hi0 == -math.expm1(LOG_HALF_ALPHA / n)
        assert lo_n == math.exp(LOG_HALF_ALPHA / n)


def test_clopper_pearson_interval_contains_the_estimate():
    for n in (1, 2, 5, 37, 2048, 12288):
        counts = list(range(n + 1)) if n <= 37 else list(range(0, n + 1, n // 97)) + [n]
        for k, (lo, hi) in zip(counts, clopper_pearson(counts, n)):
            assert 0.0 <= lo < k / n < hi <= 1.0 or (k in (0, n) and lo <= k / n <= hi)


def test_clopper_pearson_bounds_do_not_depend_on_the_batch():
    for n in (5, 37, 2048, 12288, 10**5):
        rng = np.random.default_rng(3)
        batch = rng.integers(0, n + 1, 9).tolist() + [0, n]
        together = clopper_pearson(batch, n)
        for k, pair in zip(batch, together):
            assert clopper_pearson([k], n) == [pair]  # bit for bit
        assert clopper_pearson(batch[::-1], n) == together[::-1]


def test_clopper_pearson_errors(monkeypatch):
    for counts, n in (([3], 2), ([-1], 2), ([0], 0)):
        with pytest.raises(ValueError):
            clopper_pearson(counts, n)
    # a root that misses its iteration cap raises; nothing is clamped
    monkeypatch.setattr(specfun, "_CP_MAXITER", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        clopper_pearson([5], 100)


def _esp_bruteforce(values, degree):
    from itertools import combinations

    if degree == 0:
        return 1
    total = 0
    for combo in combinations(values, degree):
        prod = 1
        for v in combo:
            prod *= v
        total += prod
    return total


def test_elementary_symmetric_small_cases():
    assert elementary_symmetric_all([3.0, 7.0])[1] == 10.0
    assert elementary_symmetric_all([1.0, 2.0, 3.0])[0] == 1
    assert elementary_symmetric_all([2, 3, 5])[2] == 31
    assert elementary_symmetric_all([2, 3, 5])[3] == 30


def test_elementary_symmetric_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        values = [int(v) for v in rng.integers(-4, 5, size=n)]
        degree = int(rng.integers(0, n + 1))
        assert elementary_symmetric_all(values)[degree] == _esp_bruteforce(values, degree)


@pytest.mark.parametrize("xtol, rtol", [(1e-300, 8.9e-16), (1e-12, 8.9e-16), (2e-12, 1e-9)])
def test_bracketed_root_matches_scipy_brentq(xtol, rtol):
    # both stop on a bracket narrower than xtol + rtol |x| around the sign change
    rng = random.Random(17)
    shapes = [
        lambda x, c, s: s * (x - c),
        lambda x, c, s: s * ((x - c) ** 3 + 0.1 * (x - c)),
        lambda x, c, s: math.tanh(s * (x - c)),
        lambda x, c, s: math.expm1(x - c),
        lambda x, c, s: math.atan(x - c) * (1.0 + (x - c) ** 2),
    ]
    for i in range(400):
        c = rng.uniform(-5.0, 5.0)
        s = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        shape = shapes[i % len(shapes)]
        f = lambda x: shape(x, c, s)
        lo = c - 10.0 ** rng.uniform(-4.0, 1.0)
        hi = c + 10.0 ** rng.uniform(-4.0, 1.0)
        ref = scipy.optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol)
        assert abs(bracketed_root(f, lo, hi, f(lo), f(hi), xtol, rtol) - ref) <= xtol + rtol * abs(ref), i


def test_bracketed_root_errors():
    with pytest.raises(ValueError, match="different signs"):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, 1e-12, 8.9e-16)
    with pytest.raises(ValueError, match="NaN"):  # at a step
        bracketed_root(lambda x: math.nan, -1.0, 1.0, -1.0, 1.0, 1e-12, 8.9e-16)
    with pytest.raises(ValueError, match="NaN"):  # at an end
        bracketed_root(lambda x: x, -1.0, 1.0, -1.0, math.nan, 1e-12, 8.9e-16)
    with pytest.raises(ArithmeticError, match="converge"):
        f = lambda x: math.copysign(1.0, x - 0.3)
        bracketed_root(f, -1.0, 1.0, -1.0, 1.0, 1e-300, 8.9e-16, maxiter=20)
    assert bracketed_root(lambda x: x, 0.0, 1.0, 0.0, 1.0, 1e-12, 8.9e-16) == 0.0
