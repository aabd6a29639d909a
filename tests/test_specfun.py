import math
import random

import numpy as np
import pytest
import scipy.optimize

from jacobi_mimo.specfun import brentq, elementary_symmetric, g_closed, q_fn

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


def test_g_closed_edge_arguments_match_integral():
    # y = 0 and x = 0 closures used by the rate/energy formulas
    assert abs(g_closed(1.0, 0.0) - g_defining_integral(1.0, 0.0, target=1e-12)) < 1e-10
    assert abs(g_closed(0.3, 0.0) - g_defining_integral(0.3, 0.0, target=1e-12)) < 1e-10
    assert abs(g_closed(0.0, 2.0) - g_defining_integral(1e-13, 2.0)) < 1e-6
    assert abs(g_closed(0.0, -3.0) - g_defining_integral(1e-13, -3.0)) < 1e-6


def test_i3_golden_and_identity():
    assert abs(i3_fn(1.0) - I3_1) < 1e-9
    assert abs(i3_fn(0.25) - I3_QUARTER) < 1e-9
    for x in np.logspace(-3, 3, 25):
        assert i3_fn(float(x)) == -g_closed(float(x), -1.0)
    with pytest.raises(ValueError):
        i3_fn(0.0)


def test_q_fn_values_and_symmetry():
    assert q_fn(0.0) == 0.5
    assert abs(q_fn(1.0) - Q_1) < 1e-12 * Q_1 + 1e-15
    assert q_fn(40.0) < 1e-300
    assert q_fn(-40.0) > 1.0 - 1e-15
    for x in np.linspace(-8, 8, 33):
        assert abs(q_fn(float(x)) + q_fn(float(-x)) - 1.0) < 1e-14


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
    assert elementary_symmetric([3.0, 7.0], 1) == 10.0
    assert elementary_symmetric([1.0, 2.0, 3.0], 0) == 1
    assert elementary_symmetric([2, 3, 5], 2) == 31
    assert elementary_symmetric([2, 3, 5], 3) == 30


def test_elementary_symmetric_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        values = [int(v) for v in rng.integers(-4, 5, size=n)]
        degree = int(rng.integers(0, n + 1))
        assert elementary_symmetric(values, degree) == _esp_bruteforce(values, degree)


def test_elementary_symmetric_rejects_bad_degree():
    with pytest.raises(ValueError):
        elementary_symmetric([1.0], 2)
    with pytest.raises(ValueError):
        elementary_symmetric([1.0], -1)


@pytest.mark.parametrize("xtol, rtol", [(1e-300, 8.9e-16), (1e-12, 8.9e-16), (2e-12, 1e-9)])
def test_brentq_matches_scipy_bit_for_bit(xtol, rtol):
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
        assert brentq(f, lo, hi, xtol, rtol) == scipy.optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol)


def test_brentq_errors():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 8.9e-16)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan, -1.0, 1.0, 1e-12, 8.9e-16)
    with pytest.raises(ArithmeticError, match="converge"):
        brentq(lambda x: math.copysign(1.0, x - 0.3), -1.0, 1.0, 1e-300, 8.9e-16, maxiter=20)
    assert brentq(lambda x: x, 0.0, 1.0, 1e-12, 8.9e-16) == 0.0
