import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

from jacobi_mimo.ensemble import SnrParam, normalize_dims
from jacobi_mimo import exact
from jacobi_mimo.exact import (
    ExactConfig,
    TermBudgetError,
    c_coefficient,
    f_residue,
    log_selberg_z,
    outage_density_exact,
    outage_exact,
)
from jacobi_mimo.montecarlo import McConfig, outage_curve
from jacobi_mimo.specfun import quadrature

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
    for nt in (1, 2, 3):
        for width in (1, 2, 3):
            brute = Counter()
            for mvec in itertools.product(range(width), repeat=nt):
                for perm in itertools.permutations(range(nt)):
                    s = tuple(sorted(j + perm[j] + 1 + mvec[j] for j in range(nt)))
                    brute[s, tuple(sorted(mvec))] += _perm_sign(perm)
            expected = {key: c for key, c in brute.items() if c}
            got = {}
            for s, row in exact._key_table(nt, width):
                for m, count in row:
                    assert isinstance(count, int) and count != 0
                    got[s, m] = count
            assert got == expected


def test_outage_monotone_and_bounded():
    cfg = ExactConfig(dims=normalize_dims(5, 2, 2), snr=SnrParam(2.0))
    grid = np.linspace(0.0, math.log1p(2.0), 15)
    vals = [outage_exact(cfg, float(r)).p for r in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0
    assert abs(vals[-1] - 1.0) < 1e-9


def test_reduced_dims_offset_handling():
    # (4,3,3) reduces to Nt=Nr=1, N0=2 with offset 2*log(1+rho); outage
    # below the deterministic floor is 0
    dims = normalize_dims(4, 3, 3)
    cfg = ExactConfig(dims=dims, snr=SNR3)
    floor = 2.0 * math.log(4.0)
    assert outage_exact(cfg, floor - 0.01).p == 0.0
    mid = outage_exact(cfg, floor + math.log(2.0)).p
    lam = 1.0 / 3.0  # flat part: P(log(1+rho x) < log 2) under (1-x)^2 law
    ref = 1.0 - (1.0 - lam) ** 3
    assert abs(mid - ref) < 1e-9


def test_precision_escalation_stability():
    dims = normalize_dims(8, 3, 4)
    snr = SnrParam(10.0)
    lo = ExactConfig(dims=dims, snr=snr, precision_bits=128)
    hi = ExactConfig(dims=dims, snr=snr, precision_bits=512)
    for r in (0.4, 1.0, 1.8):
        assert abs(outage_exact(lo, r).p - outage_exact(hi, r).p) < 1e-9
    # only the rho-free integer key table may be cached across calls: the
    # 512-bit results after 128-bit calls are bitwise those of a fresh
    # interpreter, where no 128-bit call ran before them; in the deep
    # (9,3,3) tail the two precisions round to different floats
    cases = [((8, 3, 4), 10.0, r) for r in (0.4, 1.0, 1.8)]
    cases += [((9, 3, 3), 1e4, f * math.log1p(1e4)) for f in (0.1, 0.2)]
    script = (
        "from jacobi_mimo.ensemble import SnrParam, normalize_dims\n"
        "from jacobi_mimo.exact import ExactConfig, outage_exact\n"
        f"for shape, rho, r in {cases!r}:\n"
        "    cfg = ExactConfig(dims=normalize_dims(*shape), snr=SnrParam(rho), precision_bits=512)\n"
        "    print(outage_exact(cfg, r).p.hex())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(exact.__file__).resolve().parents[1])}
    fresh = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    after = []
    for shape, rho, r in cases:
        setup = {"dims": normalize_dims(*shape), "snr": SnrParam(rho)}
        outage_exact(ExactConfig(**setup, precision_bits=128), r)
        after.append(outage_exact(ExactConfig(**setup, precision_bits=512), r).p.hex())
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


def test_caps_are_enforced():
    snr = SnrParam(1.0)
    with pytest.raises(TermBudgetError):
        outage_exact(ExactConfig(dims=normalize_dims(12, 6, 6), snr=snr), 0.5)
    small_budget = ExactConfig(
        dims=normalize_dims(8, 3, 4), snr=snr, term_budget=10
    )
    with pytest.raises(TermBudgetError) as info:
        outage_exact(small_budget, 0.5)
    assert "term_budget" in str(info.value)
    with pytest.raises(ValueError):
        ExactConfig(dims=FLAT, snr=snr, precision_bits=64)
    # merged expansion: 7^5 * 5! terms, where (k, n) pairs counted 4^5 * 4^5 * 5!
    wide = ExactConfig(dims=normalize_dims(16, 5, 8), snr=snr)
    assert wide.term_count() == 7**5 * 120
    wide.check_caps()


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
