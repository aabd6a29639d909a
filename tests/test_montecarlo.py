import math

import numpy as np
import pytest
from scipy.stats import beta, chisquare, ks_2samp, kstest, rankdata

from jacobi_mimo import montecarlo
from jacobi_mimo.ensemble import SnrParam, normalize_dims
from jacobi_mimo.montecarlo import (
    _BLOCK,
    McConfig,
    OutageEstimate,
    _block_bidiagonal,
    _block_rates,
    _sturm_counts,
    eigen_histogram,
    moments,
    outage_curve,
)
from jacobi_mimo.specfun import clopper_pearson

from _oracles import block_eigenvalues, mutual_information, sample_truncation, spectrum

FLAT = normalize_dims(2, 1, 1)
SNR3 = SnrParam(3.0)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(dims=FLAT, snr=SNR3, trials=0)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            McConfig(dims=FLAT, snr=SNR3, trials=10, seed=seed)
    McConfig(dims=FLAT, snr=SNR3, trials=10, seed=2**128 - 1)
    with pytest.raises(ValueError):
        OutageEstimate(p=0.5, method="mc", ci_low=0.6, ci_high=0.7)


def test_outage_trivial_bounds():
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=2000, seed=1)
    assert outage_curve(cfg, [0.0])[0].p == 0.0
    assert outage_curve(cfg, [math.log1p(3.0) + 0.01])[0].p == 1.0
    # reduced dims: the rate leaves out the offset 2 log(1+rho), so log(1+rho) tops the window
    offs = McConfig(dims=normalize_dims(4, 3, 3), snr=SNR3, trials=500, seed=1)
    assert outage_curve(offs, [math.log1p(3.0) + 0.01])[0].p == 1.0


def test_flat_law_outage_within_ci():
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=200_000, seed=7)
    est = outage_curve(cfg, [math.log(2.0)])[0]
    assert est.method == "mc"
    assert est.ci_low <= 1.0 / 3.0 <= est.ci_high
    assert abs(est.p - 1.0 / 3.0) < 0.01


@pytest.mark.parametrize(
    "shape",
    [(4, 2, 2), (7, 2, 3), (3, 1, 1), (4, 3, 2), (6, 4, 4), (200, 4, 4)],
    ids=["square", "rect-lossy", "nt1", "reduced-offset", "reduced-offset-nt2", "wide-lossy"],
)
def test_bidiagonal_model_matches_haar_oracle(shape):
    # rate, largest and smallest eigenvalue laws of the sampler against
    # thin-QR corners of Haar unitaries
    dims = normalize_dims(*shape)
    cfg = McConfig(dims=dims, snr=SnrParam(10.0), trials=8 * _BLOCK, seed=41)
    spans = [(lo, lo + _BLOCK) for lo in range(0, cfg.trials, _BLOCK)]
    rates = np.concatenate([_block_rates(cfg, lo, hi) for lo, hi in spans])
    lam = np.vstack([block_eigenvalues(dims, cfg.seed, lo, hi) for lo, hi in spans])
    rng = np.random.default_rng(43)
    ref_lam = np.array([spectrum(sample_truncation(dims, rng)) for _ in range(cfg.trials)])
    ref_rates = np.array([mutual_information(row, cfg.snr, dims) for row in ref_lam])
    assert ks_2samp(rates, ref_rates).pvalue > 1e-3
    assert ks_2samp(lam.max(axis=1), ref_lam.max(axis=1)).pvalue > 1e-3
    assert ks_2samp(lam.min(axis=1), ref_lam.min(axis=1)).pvalue > 1e-3


@pytest.mark.parametrize(
    "shape",
    [(3, 1, 1), (4, 2, 2), (4, 3, 2), (12, 4, 6), (18, 6, 6), (200, 4, 4), (48, 16, 16)],
    ids=["nt1", "square", "reduced-offset", "rect-lossy", "readme", "wide-lossy", "nt16"],
)
def test_gamma_chain_gives_independent_betas(shape):
    # recover the 2Nt-1 variables of each trial by inverting d_i^2 = c_i^2 (1 - c'_{i-1}^2),
    # e_i^2 = (1 - c_i^2) c'_i^2 (B's order: c_Nt..c_1, c'_{Nt-1}..c'_1); each must follow
    # its own beta law, and no two may be rank-correlated beyond 4 standard errors
    dims = normalize_dims(*shape)
    nt, a, b = dims.Nt, dims.Nr - dims.Nt, dims.N0
    trials = 8 * _BLOCK
    blocks = [_block_bidiagonal(dims, 31, lo, lo + _BLOCK) for lo in range(0, trials, _BLOCK)]
    d2, e2 = (np.hstack(part) for part in zip(*blocks))
    c2, cp2 = [d2[0]], []
    for i in range(nt - 1):
        cp2.append(e2[i] / (1.0 - c2[i]))
        c2.append(d2[i + 1] / (1.0 - cp2[i]))
    laws = [(a + nt - i, b + nt - i) for i in range(nt)] + [(nt - 1 - i, a + b + nt - i) for i in range(nt - 1)]
    draws = np.array(c2 + cp2)
    for x, (p, q) in zip(draws, laws):
        assert kstest(x, beta(p, q).cdf).pvalue > 1e-3, (p, q)
    spearman = np.atleast_2d(np.corrcoef(rankdata(draws, axis=1)))[np.triu_indices(len(draws), k=1)]
    assert np.all(np.abs(spearman) < 4.0 / math.sqrt(trials))


def test_block_draws_3nt_minus_1_gamma_rows(monkeypatch):
    # one standard_gamma row per gamma and no other draw (no rng.beta)
    real = np.random.Generator
    calls = []

    class Recording:
        def __init__(self, bit_generator):
            self._rng = real(bit_generator)

        def standard_gamma(self, shape, out):
            calls.append((shape, out.shape))
            return self._rng.standard_gamma(shape, out=out)

    monkeypatch.setattr(np.random, "Generator", Recording)
    for shape in ((3, 1, 1), (4, 2, 2), (12, 4, 6), (48, 16, 16)):
        dims = normalize_dims(*shape)
        nt, a, b = dims.Nt, dims.Nr - dims.Nt, dims.N0
        ks = range(1, nt + 1)
        expected = sorted([a + k for k in ks] + [b + k for k in ks] + list(range(1, nt)))
        calls.clear()
        _block_bidiagonal(dims, 3, _BLOCK, _BLOCK + 100)
        assert len(calls) == 3 * nt - 1
        assert all(size == (100,) for _, size in calls)
        assert sorted(s for s, _ in calls) == expected
        # two blocks in one call: each block's rows at that block's own width
        calls.clear()
        _block_bidiagonal(dims, 3, _BLOCK, 2 * _BLOCK + 100)
        assert len(calls) == 2 * (3 * nt - 1)
        for part, width in ((calls[: 3 * nt - 1], _BLOCK), (calls[3 * nt - 1 :], 100)):
            assert all(size == (width,) for _, size in part)
            assert sorted(s for s, _ in part) == expected


@pytest.mark.parametrize("shape", [(4, 2, 2), (18, 6, 6), (48, 16, 16)])
def test_span_columns_equal_their_blocks_drawn_one_at_a_time(shape):
    # a call over several blocks, the last one partial, draws each block from its own
    # stream: its columns are the one-block calls' columns side by side, bit for bit
    dims = normalize_dims(*shape)
    lo, hi = _BLOCK, 4 * _BLOCK + 452
    span = _block_bidiagonal(dims, 9, lo, hi)
    blocks = [_block_bidiagonal(dims, 9, start, min(start + _BLOCK, hi)) for start in range(lo, hi, _BLOCK)]
    for got, parts in zip(span, zip(*blocks)):
        assert got.shape == (len(parts[0]), hi - lo)
        assert got.tobytes() == np.hstack(parts).tobytes()


def test_block_streams_keyed_by_seed_and_block():
    # a block's stream is keyed by the pair (seed, block), not by their sum, and the
    # rates of adjacent seeds and of adjacent blocks are not rank-correlated beyond
    # 4 standard errors; both ends of the seed range draw
    dims = normalize_dims(4, 2, 2)
    d2, e2 = _block_bidiagonal(dims, 3, _BLOCK, 2 * _BLOCK)
    for seed in (4, 3):
        other_d2, other_e2 = _block_bidiagonal(dims, seed, 0, _BLOCK)
        assert not np.any(d2 == other_d2) and not np.any(e2 == other_e2)
    blocks = 9

    def rates(seed):
        cfg = McConfig(dims=dims, snr=SnrParam(10.0), trials=blocks * _BLOCK, seed=seed)
        return np.concatenate([_block_rates(cfg, lo, lo + _BLOCK) for lo in range(0, cfg.trials, _BLOCK)])

    n = (blocks - 1) * _BLOCK
    for seed in (0, 3, 2**128 - 2):
        here, there = rates(seed), rates(seed + 1)
        assert np.all(np.isfinite(here)) and np.all(np.isfinite(there))
        for x, y in ((here[:n], there[:n]), (here[:n], here[_BLOCK:])):
            spearman = np.corrcoef(rankdata(x), rankdata(y))[0, 1]
            assert abs(spearman) < 4.0 / math.sqrt(n)


@pytest.mark.parametrize("rho", [1e-2, 1.0, 1e4])
def test_pivot_recurrence_matches_eigvalsh(rho):
    # log det(1 + rho B^T B) from the pivots against the eigenvalues of the
    # same dense B (superdiagonal signs included)
    for shape in ((18, 6, 6), (7, 2, 3), (3, 1, 1), (6, 4, 4)):
        dims = normalize_dims(*shape)
        cfg = McConfig(dims=dims, snr=SnrParam(rho), trials=300, seed=5)
        d2, e2 = _block_bidiagonal(dims, cfg.seed, 0, cfg.trials)
        b = np.zeros((cfg.trials, dims.Nt, dims.Nt))
        idx = np.arange(dims.Nt)
        b[:, idx, idx] = np.sqrt(d2).T
        b[:, idx[:-1], idx[1:]] = -np.sqrt(e2).T
        lam = np.linalg.eigvalsh(np.matmul(b.transpose(0, 2, 1), b))
        expected = np.log1p(rho * lam).sum(axis=1) / dims.Nt
        assert np.max(np.abs(_block_rates(cfg, 0, cfg.trials) - expected)) < 1e-10


@pytest.mark.parametrize(
    "shape, trials", [((4, 2, 2), 3 * 12 * _BLOCK + 452), ((18, 6, 6), 3 * 3 * _BLOCK + 452)], ids=["nt2", "nt6"]
)
def test_outage_counts_and_moments_equal_per_block_references(shape, trials):
    # trial counts that end in a partial span whose last block is partial; the counts
    # are the strict rate < r of the concatenated one-block rates, and the moments sum
    # one (sum r, sum r^2) per block in block order
    cfg = McConfig(dims=normalize_dims(*shape), snr=SnrParam(10.0), trials=trials, seed=29)
    blocks = [_block_rates(cfg, lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)]
    rates = np.concatenate(blocks)
    # unsorted, duplicated, equal to sampled rates (a tie is not below), 0 and +inf
    ties = [float(rates[i]) for i in (0, _BLOCK - 1, _BLOCK, 5 * _BLOCK + 3, trials - 1)]
    ts = [1.2, 0.4, ties[3], 2.0, 0.0, 1.2, math.inf, *ties, 0.7, ties[0]]
    counts = [int(np.count_nonzero(rates < t)) for t in ts]
    assert counts[ts.index(math.inf)] == trials and counts[ts.index(0.0)] == 0
    expected = [
        OutageEstimate(p=k / trials, method="mc", ci_low=lo, ci_high=hi)
        for k, (lo, hi) in zip(counts, clopper_pearson(counts, trials))
    ]
    assert outage_curve(cfg, ts) == expected
    s1 = sum(float(np.sum(r)) for r in blocks)
    s2 = sum(float(np.sum(r * r)) for r in blocks)
    mean = s1 / trials
    assert moments(cfg) == (mean, (s2 - trials * mean * mean) / (trials - 1))


def test_outage_counts_never_count_a_nan_rate(monkeypatch):
    # a NaN rate is below no threshold, +inf included, wherever it falls in a span
    def rates(cfg, lo, hi):
        r = np.arange(lo, hi) * 1e-4
        r[np.arange(lo, hi) % 7 == 0] = np.nan
        return r

    monkeypatch.setattr(montecarlo, "_block_rates", rates)
    cfg = McConfig(dims=normalize_dims(4, 2, 2), snr=SnrParam(10.0), trials=2 * 12 * _BLOCK + 452, seed=0)
    every = rates(cfg, 0, cfg.trials)
    ts = [math.inf, 1.0, 0.0, 2.0, 0.5]
    assert [e.p for e in outage_curve(cfg, ts)] == [np.count_nonzero(every < t) / cfg.trials for t in ts]


def test_outage_curve_monotone_on_shared_samples():
    cfg = McConfig(dims=normalize_dims(4, 2, 2), snr=SnrParam(10.0), trials=20_000, seed=5)
    rs = np.linspace(0.1, 2.3, 12)
    ps = [e.p for e in outage_curve(cfg, rs)]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_moments_flat_law():
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=200_000, seed=11)
    mean, var = moments(cfg)
    exact_mean = (4.0 * math.log(4.0) - 3.0) / 3.0
    se = math.sqrt(var / cfg.trials)
    assert abs(mean - exact_mean) < 3.0 * se
    tiny = McConfig(dims=FLAT, snr=SnrParam(1e-9), trials=5_000, seed=2)
    mean_tiny, _ = moments(tiny)
    assert mean_tiny < 1e-9


def test_moments_raise_on_a_cancelled_variance(monkeypatch):
    # five equal rates of 2.3: the one-pass variance rounds to -8.9e-16, which
    # is reported, not clamped to 0
    monkeypatch.setattr(montecarlo, "_block_rates", lambda cfg, lo, hi: np.full(hi - lo, 2.3))
    with pytest.raises(ArithmeticError, match=r"variance of 5 rates about the mean 2\.3.* came out -8\.8"):
        moments(McConfig(dims=FLAT, snr=SNR3, trials=5, seed=0))


def test_eigen_histogram_flat_and_tilted_laws():
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=40_000, seed=13)
    hist = eigen_histogram(cfg, bins=20)
    assert abs(hist.mass() - 1.0) < 1e-12
    counts = hist.density * np.diff(hist.edges) * cfg.trials
    assert chisquare(counts).pvalue > 1e-3

    tilted = McConfig(dims=normalize_dims(3, 1, 1), snr=SNR3, trials=40_000, seed=17)
    hist2 = eigen_histogram(tilted, bins=20)
    assert abs(hist2.mass() - 1.0) < 1e-12
    centers = 0.5 * (hist2.edges[:-1] + hist2.edges[1:])
    expected = 2.0 * (1.0 - centers)
    expected_counts = expected / expected.sum() * tilted.trials
    observed = hist2.density * np.diff(hist2.edges) * tilted.trials
    assert chisquare(observed, expected_counts).pvalue > 1e-3


@pytest.mark.parametrize("shape", [(2, 1, 1), (4, 3, 2), (7, 2, 3), (200, 4, 4), (48, 16, 16)])
def test_eigen_histogram_counts_equal_dense_oracle(shape):
    # pivot counts against np.histogram of a dense eigensolve of the same
    # draws; the last block is partial
    dims = normalize_dims(*shape)
    trials = 2 * _BLOCK + 452
    lam = np.vstack([block_eigenvalues(dims, 23, lo, min(lo + _BLOCK, trials)) for lo in range(0, trials, _BLOCK)])
    for bins in (2, 16, 64):
        edges = np.linspace(0.0, 1.0, bins + 1)
        expected = np.histogram(lam, bins=edges)[0] / (trials * dims.Nt * np.diff(edges))
        cfg = McConfig(dims=dims, snr=SnrParam(1.0), trials=trials, seed=23)
        assert eigen_histogram(cfg, bins).density.tolist() == expected.tolist()


def test_sturm_counts_on_hand_built_bidiagonals():
    # an eigenvalue exactly on a shift counts above it (left-closed bins),
    # and an exactly zero pivot neither miscounts nor spreads inf or nan
    x = np.array([[0.25], [0.5], [0.75]])
    one = np.array([[0.5]])
    assert _sturm_counts(one, np.empty((0, 1)), x).tolist() == [0, 0, 1]
    # q_1 = d_1^2 - 0.5 = 0 at the middle shift
    for d2, e2 in (([0.5, 0.25], [0.0]), ([0.5, 0.25, 0.3], [0.25, 0.2]), ([0.5, 0.5, 0.5], [0.0, 0.0])):
        d2, e2 = np.array(d2)[:, None], np.array(e2)[:, None]
        b = np.diag(np.sqrt(d2[:, 0])) + np.diag(np.sqrt(e2[:, 0]), 1)
        lam = np.linalg.eigvalsh(b.T @ b)
        assert _sturm_counts(d2, e2, x).tolist() == [int(np.sum(lam < xi)) for xi in x[:, 0]]


def test_eigen_histogram_validation():
    with pytest.raises(ValueError):
        eigen_histogram(McConfig(dims=FLAT, snr=SNR3, trials=10, seed=0), bins=1)


def test_clopper_pearson_edges():
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=1000, seed=19)
    zero = outage_curve(cfg, [1e-12])[0]
    assert zero.p == 0.0 and zero.ci_low == 0.0 and zero.ci_high > 0.0
    one = outage_curve(cfg, [math.log1p(3.0) - 1e-12])[0]
    assert one.p == 1.0 and one.ci_high == 1.0 and one.ci_low < 1.0


def test_curve_entry_does_not_depend_on_the_other_rates():
    # the Clopper-Pearson solve runs once per curve; each cell must be what
    # the curve at its own rate alone gives, bit for bit
    cfg = McConfig(dims=normalize_dims(4, 2, 2), snr=SnrParam(10.0), trials=3000, seed=5)
    rates = [0.3, 0.7, 1.0, 1.4, 2.0]
    curve = outage_curve(cfg, rates)
    assert len({e.p for e in curve}) == len(rates)
    for r, est in zip(rates, curve):
        assert outage_curve(cfg, [r]) == [est]
        assert est.ci_low <= est.p <= est.ci_high


def test_ci_coverage_on_analytic_case():
    # flat law at rho=3, r=log 2: true outage is exactly 1/3
    hits = 0
    for run in range(100):
        cfg = McConfig(dims=FLAT, snr=SNR3, trials=10_000, seed=1000 + run)
        est = outage_curve(cfg, [math.log(2.0)])[0]
        hits += est.ci_low <= 1.0 / 3.0 <= est.ci_high
    assert hits >= 88


def test_rejects_negative_rate():
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=10, seed=0)
    with pytest.raises(ValueError):
        outage_curve(cfg, [-0.1])
    with pytest.raises(ValueError):
        moments(McConfig(dims=FLAT, snr=SNR3, trials=1, seed=0))


def test_rejects_nan_rate():
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=10, seed=0)
    with pytest.raises(ValueError, match="got nan"):
        outage_curve(cfg, [math.nan])
    with pytest.raises(ValueError, match="got nan"):
        outage_curve(cfg, [0.5, math.nan])
