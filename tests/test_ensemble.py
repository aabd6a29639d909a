import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from jacobi_mimo import ExactConfig, eigen_histogram, moments, outage_curve, outage_density_exact, outage_exact
from jacobi_mimo.ensemble import ChannelDims, SnrParam, normalize_dims
from jacobi_mimo.montecarlo import McConfig, _rates, _spans

from _oracles import (
    mutual_information,
    sample_haar_unitary,
    sample_truncation,
    spectrum,
    truncate,
)


def test_normalize_dims_already_canonical():
    dims = normalize_dims(4, 1, 2)
    assert (dims.Nt, dims.Nr, dims.N0) == (1, 2, 1)
    assert dims.beta == 2.0 and dims.n0 == 1.0
    assert dims.rate_offset == 0.0


def test_normalize_dims_reduction():
    dims = normalize_dims(4, 3, 3)
    assert (dims.Nt, dims.Nr, dims.N0) == (1, 1, 2)
    assert dims.n0 == 2.0
    assert dims.rate_offset == 2.0


def test_normalize_dims_swap_then_reduce():
    # Nt > Nr swaps first; N0 < 0 then reduces
    dims = normalize_dims(4, 3, 2)
    assert (dims.Nt, dims.Nr, dims.N0) == (1, 2, 1)
    assert dims.rate_offset == 1.0


def test_pinned_rate():
    # eigenvalues pinned at 1 add rate_offset * log(1 + rho); none when already canonical
    assert normalize_dims(4, 1, 2).pinned_rate(3.0) == 0.0
    assert normalize_dims(4, 3, 3).pinned_rate(3.0) == 2.0 * math.log1p(3.0)
    assert normalize_dims(4, 3, 2).pinned_rate(0.2) == math.log1p(0.2)


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-320, 5e-324])
def test_snr_rejects_non_positive_and_non_finite(rho):
    # 1e-320 and 5e-324 are positive, but z = 1/rho overflows to inf
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        SnrParam(rho)
    assert SnrParam(1e-300).z < math.inf


def test_normalize_dims_idempotent():
    dims = normalize_dims(5, 3, 1)
    again = normalize_dims(dims.N, dims.Nt, dims.Nr)
    assert again == dims


def test_normalize_dims_rejects_bad_counts():
    with pytest.raises(ValueError):
        normalize_dims(2, 3, 1)
    with pytest.raises(ValueError):
        normalize_dims(2, 0, 1)


def test_channel_dims_derives_n0_and_ratios_from_the_counts():
    dims = ChannelDims(N=9, Nt=2, Nr=3)
    assert (dims.N0, dims.beta, dims.n0) == (4, 1.5, 2.0)
    assert dims.rate_offset == 0.0
    for n, nt, nr in [(4, 0, 2), (5, 3, 2), (4, 2, 3)]:
        with pytest.raises(ValueError):
            ChannelDims(N=n, Nt=nt, Nr=nr)


def test_channel_dims_ratios_are_the_correctly_rounded_rationals():
    # every shape with N <= 30, canonical or reduced: the ratios are floats,
    # each the rounding of the exact rational, and rate_offset is the pinned
    # count over the reduced Nt (zero when no reduction applies)
    shapes = 0
    for n in range(2, 31):
        for nt in range(1, n + 1):
            for nr in range(1, n + 1):
                lo, hi = sorted((nt, nr))
                if lo + hi > n and hi == n:
                    continue  # the deterministic corner
                dims = normalize_dims(n, nt, nr)
                pinned = max(lo + hi - n, 0)
                assert dims.Nt == lo - pinned
                for value, exact in [
                    (dims.beta, Fraction(dims.Nr, dims.Nt)),
                    (dims.n0, Fraction(dims.N0, dims.Nt)),
                    (dims.rate_offset, Fraction(pinned, dims.Nt)),
                ]:
                    assert type(value) is float and value == float(exact)
                shapes += 1
    assert shapes == 8555
    assert normalize_dims(8, 3, 4).n0 == 1 / 3  # non-dyadic: 1/3 is not a binary fraction
    assert normalize_dims(9, 6, 5).rate_offset == 2 / 3


def test_normalize_dims_rejects_deterministic_corner():
    # full rows/columns of the unitary survive: all singular values are 1
    with pytest.raises(ValueError):
        normalize_dims(2, 2, 1)


def test_reduction_preserves_rate_distribution():
    # Monte Carlo equivalence of the N0 < 0 reduction: the original
    # truncation's rate, normalized per reduced transmit channel, must
    # match the sampler's reduced-ensemble rate plus the deterministic
    # offset of the eigenvalues pinned at 1.  Rule: a two-sample KS test of
    # 4000 draws a side at p > 1e-3; false-alarm rate <= 1e-3 (exact p-value).
    N, Nt_raw, Nr_raw = 4, 3, 2
    dims = normalize_dims(N, Nt_raw, Nr_raw)
    snr = SnrParam(3.0)
    rng = np.random.default_rng(123)
    draws = 4000
    raw = np.empty(draws)
    for i in range(draws):
        u = sample_haar_unitary(N, rng)
        lam = np.linalg.eigvalsh(u[:Nr_raw, :Nt_raw].conj().T @ u[:Nr_raw, :Nt_raw])
        raw[i] = np.log1p(snr.rho * np.clip(lam, 0, 1)).sum() / dims.Nt
    cfg = McConfig(dims=dims, snr=snr, trials=draws, seed=99)
    red = np.concatenate([_rates(cfg, *span) for span in _spans(cfg)]) + dims.pinned_rate(snr.rho)
    assert ks_2samp(raw, red).pvalue > 1e-3


@pytest.mark.parametrize("reduced, twin", [((5, 3, 3), (5, 2, 2)), ((7, 4, 5), (7, 2, 3)), ((4, 3, 3), (4, 1, 1))])
@pytest.mark.parametrize("rho", [1e-2, 1.0, 1e4])
def test_reduced_dims_equal_their_canonical_twin(reduced, twin, rho):
    # reduced dims and their canonical twin share one reduced ensemble, and every
    # route takes that ensemble's rate: so each returns equal results for the two
    # at equal rates, though only the reduced dims carry a pinned offset
    dims, twin_dims = normalize_dims(*reduced), normalize_dims(*twin)
    assert (dims.Nt, dims.Nr, dims.N0) == (twin_dims.Nt, twin_dims.Nr, twin_dims.N0)
    assert dims.rate_offset > 0.0 == twin_dims.rate_offset
    snr = SnrParam(rho)
    rates = [f * math.log1p(rho) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    results = []
    for d in (dims, twin_dims):
        mc = McConfig(dims=d, snr=snr, trials=5000, seed=41)
        ex = ExactConfig(dims=d, snr=snr)
        hist = eigen_histogram(mc, bins=16)
        results.append((
            outage_curve(mc, rates),
            moments(mc),
            (hist.edges.tolist(), hist.density.tolist()),
            [outage_exact(ex, r) for r in rates],
            [outage_density_exact(ex, r) for r in rates],
        ))
    assert results[0] == results[1]


def test_haar_unitarity_and_scalar_case():
    rng = np.random.default_rng(5)
    u1 = sample_haar_unitary(1, rng)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    for n in (2, 5, 9):
        u = sample_haar_unitary(n, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12


def test_haar_corner_is_uniform_for_two_modes():
    # |U11|^2 of a 2x2 Haar unitary is uniform on [0, 1]
    rng = np.random.default_rng(11)
    samples = np.array(
        [abs(sample_haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(20000)]
    )
    assert kstest(samples, "uniform").pvalue > 1e-3


def test_haar_left_invariance():
    # spectra of truncations of V @ U match those of U for fixed V;
    # N0 >= 0 keeps all eigenvalues continuous (no deterministic ties)
    n, nt = 4, 2
    rng = np.random.default_rng(21)
    v = sample_haar_unitary(n, rng)
    draws = 10_000
    plain = np.empty((draws, nt))
    rotated = np.empty((draws, nt))
    for i in range(draws):
        u = sample_haar_unitary(n, rng)
        plain[i] = spectrum(u[:nt, :nt])
        rotated[i] = spectrum((v @ u)[:nt, :nt])
    assert ks_2samp(plain.ravel(), rotated.ravel()).pvalue > 1e-3


def test_truncation_shortcut_matches_full_sampling():
    dims = normalize_dims(4, 2, 3)
    rng = np.random.default_rng(31)
    via_full = np.empty((3000, dims.Nt))
    via_thin = np.empty((3000, dims.Nt))
    for i in range(3000):
        via_full[i] = spectrum(truncate(sample_haar_unitary(4, rng), dims))
        via_thin[i] = spectrum(sample_truncation(dims, rng))
    assert ks_2samp(via_full.ravel(), via_thin.ravel()).pvalue > 1e-3


def test_truncate_shapes():
    rng = np.random.default_rng(3)
    u2 = sample_haar_unitary(2, rng)
    d11 = normalize_dims(2, 1, 1)
    assert truncate(u2, d11).shape == (1, 1)
    assert truncate(u2, d11)[0, 0] == u2[0, 0]
    u = sample_haar_unitary(3, rng)
    d21 = normalize_dims(3, 1, 2)
    block = truncate(u, d21)
    assert block.shape == (2, 1)
    assert np.linalg.svd(block, compute_uv=False).max() <= 1 + 1e-12
    with pytest.raises(ValueError):
        truncate(u[:2, :], d21)


def test_spectrum_identity_zero_and_svd_crosscheck():
    eye = spectrum(np.eye(3, dtype=complex))
    assert np.allclose(eye, 1.0)
    zero = spectrum(np.zeros((3, 2), dtype=complex))
    assert np.allclose(zero, 0.0)
    rng = np.random.default_rng(17)
    h = truncate(sample_haar_unitary(5, rng), normalize_dims(5, 2, 3))
    sv = np.sort(np.linalg.svd(h, compute_uv=False)) ** 2
    assert np.max(np.abs(spectrum(h) - sv)) < 1e-10


def test_spectrum_rejects_non_unitary_source():
    with pytest.raises(ValueError):
        spectrum(2.0 * np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        spectrum(np.zeros((2, 3), dtype=complex))  # Nr < Nt


def test_mutual_information_closed_cases():
    snr = SnrParam(3.0)
    dims = normalize_dims(6, 3, 3)
    full = np.ones(3)
    assert abs(mutual_information(full, snr, dims) - math.log(4.0)) < 1e-14
    empty = np.zeros(3)
    assert mutual_information(empty, snr, dims) == 0.0
    d1 = normalize_dims(2, 1, 1)
    third = np.array([1.0 / 3.0])
    assert abs(mutual_information(third, snr, d1) - math.log(2.0)) < 1e-14


def test_mutual_information_offset_and_monotonicity():
    # reduced dims (rate_offset 2): like the library, the oracle leaves the offset out
    dims = normalize_dims(4, 3, 3)
    s = np.array([0.25])
    vals = [mutual_information(s, SnrParam(rho), dims) for rho in (0.5, 1.0, 2.0, 5.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert mutual_information(np.zeros(1), SnrParam(3.0), dims) == 0.0
