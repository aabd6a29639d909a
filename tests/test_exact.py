import itertools
import logging
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from jacobi_mimo.ensemble import SnrParam, normalize_dims
from jacobi_mimo import exact
from jacobi_mimo.exact import ExactConfig, TermBudgetError, outage_density_exact, outage_exact
from jacobi_mimo.montecarlo import McConfig, outage_curve

from _oracles import (
    c_coefficient,
    density_sum_per_s,
    f_residue,
    log_selberg_z,
    outage_sum_per_s,
    quadrature,
    taylor_leaves,
)

FLAT = normalize_dims(2, 1, 1)
TILTED = normalize_dims(3, 1, 1)
SNR3 = SnrParam(3.0)


def test_selberg_normalization_small_cases():
    assert abs(log_selberg_z(FLAT)) < 1e-15
    assert abs(log_selberg_z(TILTED) - math.log(0.5)) < 1e-14


def test_selberg_normalization_matches_2d_bruteforce():
    # int_0^1 int_0^1 (l1 - l2)^2 dl1 dl2 by nested adaptive quadrature
    def inner(l1):
        return quadrature(lambda l2: (l1 - l2) ** 2, target=1e-13)[0]

    brute, _ = quadrature(inner, target=1e-12)
    assert abs(log_selberg_z(normalize_dims(4, 2, 2)) - math.log(brute)) < 1e-10


def test_c_coefficient_cases():
    snr = SNR3
    assert c_coefficient(0, 0, FLAT, snr) == 1
    assert c_coefficient(0, 0, TILTED, snr) == -1
    assert c_coefficient(0, 1, TILTED, snr) == 4
    wide = normalize_dims(5, 1, 3)  # |Nt-Nr| = 2, N0 = 1
    assert c_coefficient(1, 1, wide, snr) == -2 * 4  # -2 from (x-1)^2, (1+rho) from n
    with pytest.raises(ValueError):
        c_coefficient(3, 0, wide, snr)
    with pytest.raises(ValueError):
        c_coefficient(0, 2, wide, snr)


def test_f_residue_one_dimensional_golden():
    # pins the global sign of the residue sum: the contour integral for
    # Nt=1 is (1 - e^{s z})/s, which the flat-law outage requires
    with mp.workprec(200):
        val = f_residue(-0.5, [2])
        assert abs(float(val) - (1.0 - math.exp(-1.0)) / 2.0) < 1e-15


def test_f_residue_confluent_matches_distinct_limit():
    with mp.workprec(300):
        conf = f_residue(-0.4, [3, 3])
        eps = mpf(1) / 10**9
        d1 = f_residue(-0.4, [mpf(3), mpf(3) + eps])
        d2 = f_residue(-0.4, [mpf(3), mpf(3) + eps / 2])
        richardson = 2 * d2 - d1
        assert abs(float(conf - richardson)) < 1e-9


def test_f_residue_randomized_near_collisions():
    rng = np.random.default_rng(23)
    with mp.workprec(300):
        for _ in range(20):
            base = sorted(int(v) for v in rng.integers(1, 9, size=3))
            dup = rng.integers(0, 3)
            s_conf = list(base)
            s_conf[int(dup)] = base[0]  # force at least one collision
            z = -float(rng.uniform(0.05, 1.5))
            eps = mpf(1) / 10**10
            s_near = [mpf(v) + i * eps for i, v in enumerate(s_conf)]
            conf = f_residue(z, s_conf)
            near = f_residue(z, s_near)
            assert abs(float(conf - near)) < 1e-8
        # production multiplicities: at Nt = 5 one value can repeat 5 times
        for n, mult in [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4), (5, 5)] * 3:
            value = int(rng.integers(1, 13))
            rest = [int(v) for v in rng.integers(1, 13, size=n - mult)]
            s_conf = sorted([value] * mult + rest)
            z = -float(rng.uniform(0.05, 1.5))
            eps = mpf(1) / 10**10
            s_near = [mpf(v) + i * eps for i, v in enumerate(s_conf)]
            conf = f_residue(z, s_conf)
            near = f_residue(z, s_near)
            assert abs(float(conf - near)) < 1e-8


def test_f_residue_continuous_toward_zero():
    with mp.workprec(300):
        tiny = f_residue(-1e-6, [1, 3])
        tinier = f_residue(-1e-9, [1, 3])
        assert abs(float(tiny - tinier)) < 1e-5
    with pytest.raises(ValueError):
        f_residue(0.0, [1])
    with pytest.raises(ValueError):
        f_residue(-1.0, [0])


def test_flat_law_outage_closed_form():
    cfg = ExactConfig(dims=FLAT, snr=SNR3)
    for r in np.linspace(0.05, math.log(4.0) - 0.05, 9):
        ref = (math.exp(r) - 1.0) / 3.0
        assert abs(outage_exact(cfg, float(r)).p - ref) < 1e-9
    assert outage_exact(cfg, 0.0).p == 0.0
    assert outage_exact(cfg, math.log(4.0)).p == 1.0
    assert outage_exact(cfg, 5.0).p == 1.0


def test_nan_rate_raises():
    with pytest.raises(ValueError, match="got nan"):
        outage_exact(ExactConfig(dims=FLAT, snr=SNR3), math.nan)


def test_tilted_law_golden():
    cfg = ExactConfig(dims=TILTED, snr=SNR3)
    assert abs(outage_exact(cfg, math.log(2.0)).p - 5.0 / 9.0) < 1e-9


def test_merged_expansion_golden():
    # |Nt-Nr| = 1 and N0 = 1, so pairs (k, n) with equal k + N0 - n share
    # a merged coefficient; values from the separate (k, n) expansion
    cfg = ExactConfig(dims=normalize_dims(10, 4, 5), snr=SnrParam(10.0))
    golden = {
        0.3: 2.634266541878571e-10,
        0.4: 2.8249041993276026e-06,
        0.55: 0.020921440178622002,
    }
    for frac, ref in golden.items():
        p = outage_exact(cfg, frac * math.log1p(10.0)).p
        assert abs(p - ref) <= 1e-12 * ref


def test_exact_tail_shapes_golden():
    # the benchmark's exact_tail shapes down to P ~ 1e-21; values from the
    # evaluation that called f_residue once per (sorted s, l)
    golden = [
        ((12, 5, 5), 10.0, 0.33, 8.738939458610622e-08),
        ((8, 4, 4), 1.0, 0.12, 3.3166824520313005e-12),
        ((7, 2, 3), 10.0, 0.04, 7.280841673058671e-10),
        ((9, 3, 3), 1e4, 0.2, 4.244051454725217e-21),
    ]
    for shape, rho, frac, ref in golden:
        cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho))
        p = outage_exact(cfg, frac * math.log1p(rho)).p
        assert abs(p - ref) <= 1e-12 * ref


def _perm_sign(perm):
    # parity from the cycle decomposition, independent of inversion counting
    sign, seen = 1, set()
    for start in range(len(perm)):
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_key_table_matches_bruteforce():
    sizes = [(nt, width) for nt in (1, 2, 3) for width in (1, 2, 3)] + [(4, 3), (5, 2), (5, 3)]
    for nt, width in sizes:
        brute = Counter()
        for mvec in itertools.product(range(width), repeat=nt):
            for perm in itertools.permutations(range(nt)):
                s = tuple(sorted(j + perm[j] + 1 + mvec[j] for j in range(nt)))
                brute[s, tuple(sorted(mvec))] += _perm_sign(perm)
        expected = {key: c for key, c in brute.items() if c}
        got = {}
        table = exact._key_table(nt, width)[1]
        for s, row, _ in table:
            for m, count in row:
                assert isinstance(count, int) and count != 0
                assert all(type(x) is int for x in s + m)
                got[s, m] = count
        assert got == expected
        # sorted by s, and each row by m
        assert [s for s, _, _ in table] == sorted({s for s, _ in expected})
        assert all([m for m, _ in row] == sorted(m for m, _ in row) for _, row, _ in table)


def test_dd_weights_match_f_residue():
    # the integer weights alpha, over D, are the divided difference on the
    # sorted s as a combination of the Taylor leaves h_t(v)
    with mp.workprec(256):
        sizes = [(nt, width) for nt in (1, 2, 3) for width in (1, 2, 3)] + [(4, 3), (5, 2)]
        for nt, width in sizes:
            den, table = exact._key_table(nt, width)
            for s, _, alpha in table:
                for z in (-0.05, -0.7, -3.0):
                    leaves = [
                        h
                        for v in range(1, 2 * nt - 1 + width)
                        for h in taylor_leaves(v, mpf(z), nt)
                    ]
                    combo = mp.fdot([a for _, a in alpha], [leaves[slot] for slot, _ in alpha]) / den
                    ref = f_residue(z, s) * (-1) ** (len(s) - 1)
                    assert abs(combo - ref) <= mpf(2) ** -240 * max(1, abs(ref))


def test_residue_sum_matches_per_s_oracle():
    # the integer-coefficient kernel against the per-s mpmath evaluation
    shapes = [(2, 1, 1), (7, 2, 3), (8, 4, 4), (10, 4, 5), (12, 5, 5), (9, 3, 3)]
    for shape in shapes:
        for rho in (0.01, 10**0.3, 10.0, 1e4):
            cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho))
            for frac in (0.07, 0.23, 0.41, 0.63, 0.88):
                r = frac * math.log1p(rho)
                ref = outage_sum_per_s(cfg, r, 512)
                assert abs(outage_exact(cfg, r).p - ref) <= 1e-12 * ref


def test_coefficients_built_once_per_channel():
    # an 11-point grid at one (dims, rho) crosses every l_min from 1 to Nt
    # and builds the integer coefficients once
    cfg = ExactConfig(dims=normalize_dims(8, 4, 4), snr=SnrParam(1.0))
    exact._coefficients.cache_clear()
    l_mins = set()
    for frac in np.linspace(0.03, 0.97, 11):
        r = float(frac) * math.log(2.0)
        l_mins.add(int(4 * r / math.log(2.0)) + 1)
        outage_exact(cfg, r)
    assert l_mins == {1, 2, 3, 4}
    info = exact._coefficients.cache_info()
    assert info.misses == 1 and info.hits == 10


def test_one_exp_per_l(monkeypatch):
    # e^{vz} is the v-th power of e^z: one exp per l of each rate point
    cfg = ExactConfig(dims=normalize_dims(12, 5, 5), snr=SnrParam(10.0))
    calls = []
    exp, residue_sum = mp.exp, exact._residue_sum

    def counted_exp(*args, **kw):
        calls[-1][1] += 1
        return exp(*args, **kw)

    def counted_residue_sum(cfg, r, ls, *args):
        calls.append([len(ls), 0])
        return residue_sum(cfg, r, ls, *args)

    monkeypatch.setattr(mp, "exp", counted_exp)
    monkeypatch.setattr(exact, "_residue_sum", counted_residue_sum)
    for frac in (0.07, 0.33, 0.63, 0.88):
        outage_exact(cfg, frac * math.log1p(10.0))
        outage_density_exact(cfg, frac * math.log1p(10.0))
    assert len(calls) == 8
    assert all(n_exp == n_l for n_l, n_exp in calls)


# the golden points of the outage and density tests
GOLDEN_POINTS = [
    ((12, 5, 5), 10.0, 0.33 * math.log1p(10.0)),
    ((8, 4, 4), 1.0, 0.12 * math.log(2.0)),
    ((7, 2, 3), 10.0, 0.04 * math.log1p(10.0)),
    ((9, 3, 3), 1e4, 0.2 * math.log1p(1e4)),
    ((11, 4, 5), 0.01, 0.000995033),
    ((12, 4, 6), 1e4, 0.1 * math.log1p(1e4)),
]


def test_cached_coefficients_give_cold_results():
    # the second call at a point reads the coefficients that the first one
    # cached; either way round, both match a cold build bit for bit, so
    # no caller changes the cached tuples
    def run(density_first):
        results = {}
        for shape, rho, r in GOLDEN_POINTS:
            cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho))
            calls = [("p", lambda: outage_exact(cfg, r).p), ("d", lambda: outage_density_exact(cfg, r).value)]
            exact._coefficients.cache_clear()
            for i, (what, call) in enumerate(calls[::-1] if density_first else calls):
                results[what, shape, "warm" if i else "cold"] = call().hex()
        return results

    outage_first, density_first = run(False), run(True)
    for shape, _, _ in GOLDEN_POINTS:
        assert outage_first["p", shape, "cold"] == density_first["p", shape, "warm"]
        assert density_first["d", shape, "cold"] == outage_first["d", shape, "warm"]


# the benchmark's exact_tail shapes, at its rho and window fractions
EXACT_TAIL = [
    ((2, 1, 1), 3.0, (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05)),
    ((7, 2, 3), 10.0, (0.62, 0.55, 0.45, 0.38, 0.3, 0.22, 0.15, 0.12, 0.08, 0.04)),
    ((8, 4, 4), 1.0, (0.65, 0.6, 0.55, 0.45, 0.4, 0.35, 0.28, 0.2, 0.15, 0.12)),
    ((10, 4, 5), 10.0, (0.55, 0.4, 0.3)),
    ((12, 5, 5), 10.0, (0.33,)),
]


def test_leaf_bound_covers_powers_of_exp():
    # at the exact_tail shapes, the 256-bit fixed-point sum stays within
    # the bound it reports of the 1024-bit sum, for the outage and for the
    # density; and each integer power E^v of E = e^z 2^256 stays within
    # its stated error d_v of e^{vz} 2^256, with z and e^{vz} at 1024 bits
    for (shape, _, _), rho in itertools.product(EXACT_TAIL, (0.01, 1.0, 10**0.3, 10.0, 1e4)):
        dims = normalize_dims(*shape)
        nt = dims.Nt
        cfg = ExactConfig(dims=dims, snr=SnrParam(rho))
        coeffs, den = exact._coefficients(dims, rho)
        for frac in (0.03, 0.07, 0.23, 0.41, 0.63, 0.88, 0.95, 0.99):
            r = frac * math.log1p(rho)
            l_min = int(nt * r / math.log1p(rho)) + 1
            ls = range(l_min, nt + 1)
            for slope in (False, True):
                with mp.workprec(1024):
                    ref, _ = exact._residue_sum(cfg, r, ls, coeffs[l_min - 1:], den, slope)
                with mp.workprec(256):
                    total, err = exact._residue_sum(cfg, r, ls, coeffs[l_min - 1:], den, slope)
                    assert 0 < err and abs(total - ref) <= err, (shape, rho, frac)
            for l in ls:
                with mp.workprec(256):
                    z = nt * mpf(r) - l * mp.log(1 + mpf(rho))
                    big_e = to_fixed(mp.exp(z)._mpf_, 256)
                ez, reach = math.exp(float(z)), nt * r + l * math.log1p(rho)
                de = 2 * ez * (1 + reach) + 1
                power, d_power, e_prev = 1 << 256, 0.0, 1.0
                for v in range(1, len(coeffs[0]) // nt + 1):
                    power = power * big_e >> 256
                    d_power = d_power * (ez + de * 2.0**-256) + e_prev * de + 1
                    e_prev *= ez
                    with mp.workprec(1024):
                        exact_z = nt * mpf(r) - l * mp.log(1 + mpf(rho))
                        assert abs(power - mp.ldexp(mp.exp(v * exact_z), 256)) <= d_power


def test_exact_tail_points_bit_for_bit_at_256_bits(caplog):
    # outage and density hex values from the mpf leaf loop that the integer
    # fixed point replaced; no point escalates above the 256-bit start
    golden = iter(EXACT_TAIL_GOLDEN.split())
    with caplog.at_level(logging.DEBUG, logger="jacobi_mimo"):
        for shape, rho, fracs in EXACT_TAIL:
            cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho))
            for frac in fracs:
                r = frac * math.log1p(rho)
                assert outage_exact(cfg, r).p.hex() == next(golden), (shape, frac)
                assert outage_density_exact(cfg, r).value.hex() == next(golden), (shape, frac)
    assert next(golden, None) is None
    assert not [rec for rec in caplog.records if rec.name == "jacobi_mimo"]


EXACT_TAIL_GOLDEN = """
0x1.a7a1123cfd6d5p-1 0x1.2925de73d40c0p+0
0x1.5ab2aaf98e87ap-1 0x1.02aeaad21c993p+0
0x1.17b9b1a4c6f3ap-1 0x1.c2645c4f719e5p-1
0x1.bad8411f2668cp-2 0x1.8816cb3a3ddf1p-1
0x1.5555555555555p-2 0x1.5555555555555p-1
0x1.f9eccf24a5855p-3 0x1.2925de73d40c0p-1
0x1.6010009dc7ba1p-3 0x1.02aeaad21c993p-1
0x1.b43c1be871241p-4 0x1.c2645c4f719e6p-2
0x1.960baf27444dbp-5 0x1.8816cb3a3ddf1p-2
0x1.87fa92dc08858p-6 0x1.6dd4fe8315ddbp-2
0x1.bd175ee2fc95cp-2 0x1.6b030cd871080p+0
0x1.c6e14f37ad0b4p-3 0x1.11ba668af720ap+0
0x1.94b0056449d2bp-5 0x1.8916cfa75d3d9p-2
0x1.7610e09085c37p-7 0x1.c395fe88a5f5cp-4
0x1.7c23f44dfd63bp-10 0x1.1b7d5af12e8fep-6
0x1.ce45206ddf122p-14 0x1.b79da9e549ad2p-10
0x1.823e750d088e4p-18 0x1.f1cb9cd8d7bb1p-14
0x1.30d45ad6ecd62p-20 0x1.d8ad22aa6083cp-16
0x1.24c032c6c6b5dp-24 0x1.426f35b9d9859p-19
0x1.9044bcad34a41p-31 0x1.a000f99db5e1bp-25
0x1.e8b46b768fd95p-1 0x1.18f24d96a0e09p+1
0x1.a0df765faf699p-1 0x1.89129313b8e53p+2
0x1.144fce9cf4646p-1 0x1.23011c3fd9914p+3
0x1.151bedb5f4136p-4 0x1.7ffb86c47b861p+1
0x1.6aeac372f70cep-7 0x1.56308568d1df1p-1
0x1.0ae266af3fb93p-10 0x1.42b907ff07b49p-4
0x1.dcd3a775659f0p-17 0x1.6d3977e05a9f8p-10
0x1.d9c55f6a34913p-26 0x1.e463998eaa5c3p-19
0x1.645eb2490c892p-33 0x1.d7321debe29a8p-26
0x1.d2c8142ee5b2fp-39 0x1.7aa1e8c1bbfe8p-31
0x1.56c6e1568dc0bp-6 0x1.670a0efd7eb67p-2
0x1.7b26f81db97d7p-19 0x1.86d45a5a4e98bp-14
0x1.21a402e7ff3aap-32 0x1.91bcd26bad0fbp-27
0x1.7755a7ce4e521p-24 0x1.1605b81ec5c43p-18
"""


@pytest.mark.parametrize(
    "shape, rho, r",
    [((10, 4, 5), 0.01, 0.009850827544636403), ((12, 5, 5), 1.0, 0.99 * math.log(2.0))],
)
def test_outage_just_below_one_is_one(shape, rho, r):
    # P exceeds 1 by less than its error bound (by 3.7e-24 against 1.2e-21
    # at the first point with the mpf leaves); a range check that adds the
    # bound to 1 at 53 bits gets 1, and raised here
    assert outage_exact(ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho)), r).p == 1.0


def test_rate_a_hair_below_the_window_top(monkeypatch):
    # Nt*r/log(1+rho) rounds up to Nt one ulp below the top, so l_min = Nt + 1
    # and no term is left: the guard answers without building coefficients.
    # One ulp lower l_min is Nt, and the one-term sum gives the same answer.
    built = []
    real = exact._coefficients
    monkeypatch.setattr(exact, "_coefficients", lambda *args: built.append(args) or real(*args))
    cfg = ExactConfig(dims=normalize_dims(10, 5, 5), snr=SnrParam(0.1))
    top = math.nextafter(math.log1p(0.1), 0.0)
    for r, l_min in ((top, 6), (math.nextafter(top, 0.0), 5)):
        assert int(5 * r / math.log1p(0.1)) + 1 == l_min
        built.clear()
        assert outage_exact(cfg, r).p == 1.0
        assert outage_density_exact(cfg, r).value == 0.0
        assert len(built) == (0 if l_min > 5 else 2)


# deep-tail and low-rho points where the 256-bit sum loses every digit
# and once landed inside [0, 1] anyway
CANCELLING = [
    ((12, 4, 6), 1e4, 0.921),
    ((11, 4, 5), 0.01, 0.000995033),
    ((12, 4, 6), 1e4, 0.1 * math.log1p(1e4)),
]


def test_escalation_recovers_cancelled_tail():
    for shape, rho, r in CANCELLING:
        cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho))
        ref = outage_sum_per_s(cfg, r, 1024)
        assert abs(outage_exact(cfg, r).p - ref) <= 1e-9 * ref


def test_escalation_is_logged(caplog):
    # the outage and the density each log their steps; the density's one
    # step is 256 -> 512 bits
    shape, rho, r = CANCELLING[1]
    cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho))
    for solve in (outage_exact, outage_density_exact):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="jacobi_mimo"):
            solve(cfg, r)
        steps = [rec.args for rec in caplog.records if rec.name == "jacobi_mimo"]
        assert steps and steps[0][0] == 256
        for prec, needed, new in steps:
            assert needed > prec and new >= needed
    assert [(prec, new) for prec, _, new in steps] == [(256, 512)]
    quiet = ExactConfig(dims=normalize_dims(12, 5, 5), snr=SnrParam(10.0))
    for solve in (outage_exact, outage_density_exact):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="jacobi_mimo"):
            solve(quiet, 0.33 * math.log1p(10.0))
        assert not caplog.records


def test_digitless_sum_doubles_the_precision(caplog):
    # the 256-bit sum has no correct digit, so its |P| says little of the
    # precision needed; small steps took seven sums here.  The density's
    # sum at the same point escalates the same way.
    cfg = ExactConfig(dims=normalize_dims(12, 4, 6), snr=SnrParam(2.1e-4))
    r = 0.00253 * math.log1p(2.1e-4)
    for solve, ref in (
        (lambda: outage_exact(cfg, r).p, 1.2873935689031418e-52),
        (lambda: outage_density_exact(cfg, r).value, 5.811329058315339e-45),
    ):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="jacobi_mimo"):
            assert solve() == ref
        steps = [rec.args for rec in caplog.records if rec.name == "jacobi_mimo"]
        assert len(steps) <= 2  # at most three sums
        assert steps[0][0] == 256 and steps[0][2] == 512


def test_escalation_ceiling_raises(monkeypatch):
    shape, rho, r = CANCELLING[0]
    cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho))
    monkeypatch.setattr(exact, "_MAX_BITS", 300)
    with pytest.raises(ArithmeticError, match="300-bit ceiling"):
        outage_exact(cfg, r)


def test_result_outside_the_unit_interval_raises(monkeypatch):
    # a sum of -1 with no error bound makes P = 2: it raises, never clamps
    cfg = ExactConfig(dims=normalize_dims(6, 2, 2), snr=SnrParam(10.0))
    monkeypatch.setattr(exact, "_residue_sum", lambda *args: (mpf(-1), mpf(0)))
    with pytest.raises(ArithmeticError, match=r"exact outage 2\.0 outside \[0, 1\.0\] beyond its rounding bound 0"):
        outage_exact(cfg, 0.8)


def test_outage_monotone_and_bounded():
    cfg = ExactConfig(dims=normalize_dims(5, 2, 2), snr=SnrParam(2.0))
    grid = np.linspace(0.0, math.log1p(2.0), 15)
    vals = [outage_exact(cfg, float(r)).p for r in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0
    assert abs(vals[-1] - 1.0) < 1e-9


def test_reduced_dims_offset_handling():
    # (4,3,3) reduces to Nt=Nr=1, N0=2 with offset 2*log(1+rho), which the rate
    # leaves out: outage at rate 0 is 0, and a negative rate raises
    dims = normalize_dims(4, 3, 3)
    cfg = ExactConfig(dims=dims, snr=SNR3)
    assert outage_exact(cfg, 0.0).p == 0.0
    with pytest.raises(ValueError, match="must be >= 0"):
        outage_exact(cfg, -0.01)
    mid = outage_exact(cfg, math.log(2.0)).p
    lam = 1.0 / 3.0  # flat part: P(log(1+rho x) < log 2) under (1-x)^2 law
    ref = 1.0 - (1.0 - lam) ** 3
    assert abs(mid - ref) < 1e-9


def test_precision_escalation_stability(monkeypatch):
    def at_bits(bits, shape, rho, r):
        monkeypatch.setattr(exact, "_START_BITS", bits)
        return outage_exact(ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho)), r).p

    for r in (0.4, 1.0, 1.8):
        assert abs(at_bits(128, (8, 3, 4), 10.0, r) - at_bits(512, (8, 3, 4), 10.0, r)) < 1e-9
    # only precision-free integer state may be cached across calls: the
    # 512-bit results after 128-bit calls are bitwise those of a fresh
    # interpreter, where no 128-bit call ran before them; in the deep
    # (9,3,3) tail the two precisions round to different floats
    cases = [((8, 3, 4), 10.0, r) for r in (0.4, 1.0, 1.8)]
    cases += [((9, 3, 3), 1e4, f * math.log1p(1e4)) for f in (0.1, 0.2)]
    script = (
        "from jacobi_mimo import exact\n"
        "from jacobi_mimo.ensemble import SnrParam, normalize_dims\n"
        "from jacobi_mimo.exact import ExactConfig, outage_exact\n"
        "exact._START_BITS = 512\n"
        f"for shape, rho, r in {cases!r}:\n"
        "    cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho))\n"
        "    print(outage_exact(cfg, r).p.hex())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(exact.__file__).resolve().parents[1])}
    fresh = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    after = []
    for case in cases:
        at_bits(128, *case)
        after.append(at_bits(512, *case).hex())
    assert after == fresh


def test_exact_matches_monte_carlo_small_configs():
    rng_grid = np.linspace(0.3, 2.0, 6)
    for (N, nt, nr, rho) in [(5, 2, 2, 1.0), (7, 2, 3, 10.0), (8, 3, 3, 1.0)]:
        dims = normalize_dims(N, nt, nr)
        snr = SnrParam(rho)
        cfg = ExactConfig(dims=dims, snr=snr)
        mc = McConfig(dims=dims, snr=snr, trials=100_000, seed=37)
        grid = [float(r) for r in rng_grid * math.log1p(rho) / math.log1p(10.0)]
        for r, est in zip(grid, outage_curve(mc, grid)):
            pe = outage_exact(cfg, r).p
            # binomial standard error under the exact value (the null)
            se = math.sqrt(pe * (1 - pe) / mc.trials)
            assert abs(pe - est.p) <= 3.0 * se + 1e-9


def _bernstein_halfwidth(n: int, p: float, alpha: float) -> float:
    """t with P(|K - n p| >= t) <= alpha for K ~ Binomial(n, p), by Bernstein's inequality.

    2 exp(-t^2 / (2 (n p (1-p) + t/3))) = alpha, solved for t; unlike a normal 3 sigma rule
    it holds for every n and p, near p = 0 and 1 included.
    """
    log_term = math.log(2.0 / alpha)
    return log_term / 3.0 + math.sqrt(log_term * log_term / 9.0 + 2.0 * log_term * n * p * (1.0 - p))


@pytest.mark.parametrize("shape", [(6, 1, 3), (9, 2, 4), (5, 3, 3), (7, 4, 5)])
def test_monte_carlo_matches_exact_across_snr_corners(shape):
    # Nt = 1 with Nr > 1, and |Nt - Nr| > 0 with N0 > 0 (directly, or after reduction
    # with a rate offset), at rho from 1e-2 to 1e4 and window fractions 0.1..0.9.
    # Bound: the outage count of 100,000 trials lies within Bernstein's halfwidth of
    # n * P_exact at false-alarm probability 1e-6 per point (60 points in all).
    dims = normalize_dims(*shape)
    trials, alpha = 100_000, 1e-6
    for rho in (1e-2, 1.0, 1e4):
        snr = SnrParam(rho)
        rates = [f * math.log1p(rho) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
        ests = outage_curve(McConfig(dims=dims, snr=snr, trials=trials, seed=41), rates)
        ecfg = ExactConfig(dims=dims, snr=snr)
        for r, est in zip(rates, ests):
            pe = outage_exact(ecfg, r).p
            assert abs(est.p - pe) * trials <= _bernstein_halfwidth(trials, pe, alpha), (rho, r, est.p, pe)


def test_caps_are_enforced(monkeypatch):
    snr = SnrParam(1.0)
    with pytest.raises(TermBudgetError):
        outage_exact(ExactConfig(dims=normalize_dims(12, 6, 6), snr=snr), 0.5)
    with pytest.raises(TermBudgetError):
        outage_density_exact(ExactConfig(dims=normalize_dims(12, 6, 6), snr=snr), 0.5)
    monkeypatch.setattr(exact, "_TERM_BUDGET", 10)
    with pytest.raises(TermBudgetError) as info:
        outage_exact(ExactConfig(dims=normalize_dims(8, 3, 4), snr=snr), 0.5)
    assert "term budget" in str(info.value)
    monkeypatch.undo()
    # merged expansion: 7^5 * 5! terms, where (k, n) pairs counted 4^5 * 4^5 * 5!
    wide = ExactConfig(dims=normalize_dims(16, 5, 8), snr=snr)
    assert wide.term_count() == 7**5 * 120


def test_density_flat_law():
    cfg = ExactConfig(dims=FLAT, snr=SNR3)
    est = outage_density_exact(cfg, math.log(2.0))
    assert abs(est.value - 2.0 / 3.0) < 1e-6
    assert est.error < 1e-4
    # normalization: integral of the density over the achievable window
    val, _ = quadrature(
        lambda r: outage_density_exact(cfg, r).value,
        1e-9,
        math.log(4.0) - 1e-9,
        target=1e-8,
        max_depth=20,
    )
    assert abs(val - 1.0) < 1e-6
    for r in np.linspace(0.1, 1.2, 7):
        assert outage_density_exact(cfg, float(r)).value >= -1e-9


def test_density_matches_per_s_oracle():
    # the recurrence's own e^{vz} z^t/t! terms against the per-s sum with
    # the exponential leaves e^{vz} z^t / t!, the leaves' own z-derivative
    shapes = [(2, 1, 1), (7, 2, 3), (8, 4, 4), (10, 4, 5), (12, 5, 5), (9, 3, 3)]
    points = [
        (shape, rho, frac * math.log1p(rho), 512)
        for shape in shapes
        for rho in (0.01, 10**0.3, 10.0, 1e4)
        for frac in (0.07, 0.23, 0.41, 0.63, 0.88)
    ]
    points += [(shape, rho, r, 1024) for shape, rho, r in CANCELLING]
    for shape, rho, r, bits in points:
        cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho))
        ref = density_sum_per_s(cfg, r, bits)
        est = outage_density_exact(cfg, r)
        assert abs(est.value - ref) <= 1e-12 * ref
        assert est.error <= 1e-12 * est.value


def test_density_golden():
    golden = [
        ((11, 4, 5), 0.01, 0.000995033, 2.6996326098053477e-7),
        ((8, 4, 4), 1.0, 0.12 * math.log(2.0), 6.8872842864317085e-10),
        ((12, 4, 6), 1e4, 0.1 * math.log1p(1e4), 3.1457584675380573e-77),
    ]
    for shape, rho, r, ref in golden:
        est = outage_density_exact(ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho)), r)
        assert abs(est.value - ref) <= 1e-12 * ref
        assert est.error <= 1e-12 * est.value


def test_density_reduced_dims_and_window():
    # (4,3,3): the flat part has law 3(1-x)^2, so P(log(1+3x) < r) = 1 - (1 - x)^3
    # with x = (e^r - 1)/3, whose slope at r = log 2 is (2/3)^2 * 2 = 8/9; the rate
    # leaves out the offset 2*log(1+rho), so the window is (0, log 4)
    cfg = ExactConfig(dims=normalize_dims(4, 3, 3), snr=SNR3)
    floor = 2.0 * math.log(4.0)
    est = outage_density_exact(cfg, math.log(2.0))
    assert abs(est.value - 8.0 / 9.0) <= 1e-12
    for r in (-floor, -0.01, 0.0, math.log(4.0), 5.0):
        assert outage_density_exact(cfg, r) == (0.0, 0.0)
    flat = ExactConfig(dims=FLAT, snr=SNR3)
    for r in (-0.1, 0.0, math.log(4.0), 5.0):
        assert outage_density_exact(flat, r) == (0.0, 0.0)


def test_density_nan_rate_raises():
    with pytest.raises(ValueError, match="got nan"):
        outage_density_exact(ExactConfig(dims=FLAT, snr=SNR3), math.nan)


def test_density_integrates_to_one():
    # the density is smooth between the kinks at l log(1+rho) / Nt
    cfg = ExactConfig(dims=normalize_dims(5, 2, 2), snr=SnrParam(2.0))
    kink = math.log(3.0) / 2
    total = sum(
        quadrature(lambda r: outage_density_exact(cfg, r).value, lo, hi, target=1e-11)[0]
        for lo, hi in ((0.0, kink), (kink, math.log(3.0)))
    )
    assert abs(total - 1.0) <= 1e-9
