"""The sampler, its streams and its reductions.

A test whose verdict depends on the draws states its rule, its trials and
its false-alarm rate, the chance that a correct sampler fails it, at most
1e-3 (``_rules``); "power" is its chance to fail a named defect.  The other
tests compare one draw with itself through two routes, or draws with their
stream design, and no correct draw can fail them.
"""

import math

import numpy as np
import pytest
from scipy.stats import beta, chisquare, ks_2samp, kstest, norm, rankdata

from jacobi_mimo import montecarlo
from jacobi_mimo.ensemble import SnrParam, normalize_dims
from jacobi_mimo.montecarlo import (
    _BLOCK,
    McConfig,
    OutageEstimate,
    _rates,
    _spans,
    _sturm_counts,
    eigen_histogram,
    moments,
    outage_curve,
)
from jacobi_mimo.specfun import clopper_pearson

from _oracles import block_eigenvalues, mutual_information, sample_truncation, spectrum
from _rules import LEVEL, assert_counts_in_bands

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
    # no rate lies below 0 or above log(1 + rho): no draw can fail this
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=2000, seed=1)
    assert outage_curve(cfg, [0.0])[0].p == 0.0
    assert outage_curve(cfg, [math.log1p(3.0) + 0.01])[0].p == 1.0
    # reduced dims: the rate leaves out the offset 2 log(1+rho), so log(1+rho) tops the window
    offs = McConfig(dims=normalize_dims(4, 3, 3), snr=SNR3, trials=500, seed=1)
    assert outage_curve(offs, [math.log1p(3.0) + 0.01])[0].p == 1.0


def test_flat_law_outage_within_ci():
    """The flat law's P(log 2) = 1/3.

    Rule: the outage count of 6e5 trials lies in its band at 1e-3.
    False-alarm rate <= 1e-3 (9.95e-4 exactly).  Power 0.54 against a
    relative bias of 6.2e-3 in P, where the old rule (the 95% interval of
    2e5 trials covers 1/3; rate 0.049) had 0.50.
    """
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=600_000, seed=7)
    (est,) = outage_curve(cfg, [math.log(2.0)])
    assert est.method == "mc"
    assert_counts_in_bands([est.p], [1.0 / 3.0], cfg.trials, LEVEL)


@pytest.mark.parametrize(
    "shape",
    [(4, 2, 2), (7, 2, 3), (3, 1, 1), (4, 3, 2), (6, 4, 4), (200, 4, 4)],
    ids=["square", "rect-lossy", "nt1", "reduced-offset", "reduced-offset-nt2", "wide-lossy"],
)
def test_bidiagonal_model_matches_haar_oracle(shape):
    """The laws of the rate and of the largest and smallest eigenvalue against thin-QR corners of Haar unitaries.

    Rule: three two-sample KS tests of 10240 draws each side, each at
    p > 1e-3/3.  False-alarm rate <= 1e-3 per shape (union bound; the exact
    KS p-value is conservative).  Power 0.57 (simulated, +-0.02) against a
    Lehmann defect, one statistic's CDF F^1.07, where the old rule (p > 1e-3
    each with 8192 draws; rate <= 3e-3) had 0.54.
    """
    dims = normalize_dims(*shape)
    cfg = McConfig(dims=dims, snr=SnrParam(10.0), trials=10 * _BLOCK, seed=41)
    rates = np.concatenate([_rates(cfg, *span) for span in _spans(cfg)])
    lam = block_eigenvalues(cfg)
    rng = np.random.default_rng(43)
    ref_lam = np.array([spectrum(sample_truncation(dims, rng)) for _ in range(cfg.trials)])
    ref_rates = np.array([mutual_information(row, cfg.snr, dims) for row in ref_lam])
    assert ks_2samp(rates, ref_rates).pvalue > LEVEL / 3
    assert ks_2samp(lam.max(axis=1), ref_lam.max(axis=1)).pvalue > LEVEL / 3
    assert ks_2samp(lam.min(axis=1), ref_lam.min(axis=1)).pvalue > LEVEL / 3


@pytest.mark.parametrize(
    "shape",
    [(3, 1, 1), (4, 2, 2), (4, 3, 2), (12, 4, 6), (18, 6, 6), (200, 4, 4), (48, 16, 16)],
    ids=["nt1", "square", "reduced-offset", "rect-lossy", "readme", "wide-lossy", "nt16"],
)
def test_gamma_chain_gives_independent_betas(shape):
    """Each of the 2Nt-1 variables recovered from B follows its own beta law, and no two are rank-correlated.

    They are recovered by inverting d_i^2 = c_i^2 (1 - c'_{i-1}^2), e_i^2 =
    (1 - c_i^2) c'_i^2 (B's order: c_Nt..c_1, c'_{Nt-1}..c'_1).  Rule, on
    16384 trials: each one-sample KS test at p > 5e-4/(2Nt-1), and each of
    the (2Nt-1)(Nt-1) Spearman correlations within z/sqrt(trials) of 0,
    with 2 Phi(-z) = 5e-4 per pair count.  False-alarm rate <= 1e-3 per
    shape (union bound, the correlations by the normal approximation).
    Power at Nt = 16, the hardest shape: 0.61 (simulated) against a Lehmann
    defect F^1.048 in one variable, where the old rule (p > 1e-3 and 4
    standard errors on 8192 trials; rate 0.060) had 0.48; the half-power
    rank correlation falls from 0.044 to 0.038.
    """
    dims = normalize_dims(*shape)
    nt, a, b = dims.Nt, dims.Nr - dims.Nt, dims.N0
    trials = 16 * _BLOCK
    d2, e2 = (np.hstack(part) for part in zip(*_spans(McConfig(dims=dims, snr=SNR3, trials=trials, seed=31))))
    c2, cp2 = [d2[0]], []
    for i in range(nt - 1):
        cp2.append(e2[i] / (1.0 - c2[i]))
        c2.append(d2[i + 1] / (1.0 - cp2[i]))
    laws = [(a + nt - i, b + nt - i) for i in range(nt)] + [(nt - 1 - i, a + b + nt - i) for i in range(nt - 1)]
    draws = np.array(c2 + cp2)
    for x, (p, q) in zip(draws, laws):
        assert kstest(x, beta(p, q).cdf).pvalue > LEVEL / 2 / len(draws), (p, q)
    spearman = np.atleast_2d(np.corrcoef(rankdata(draws, axis=1)))[np.triu_indices(len(draws), k=1)]
    z = norm.isf(LEVEL / 4 / max(1, len(spearman)))
    assert np.all(np.abs(spearman) < z / math.sqrt(trials))


def _numpy_seeded(seed: int, block: int) -> np.random.SFC64:
    """SFC64 seeded as numpy seeds it from words 3b to 3b+2 of SeedSequence(seed), b = block.

    Through the public state setter: the state (w0, w1, w2, counter 1), then 12 outputs dropped.
    """
    bit_generator = np.random.SFC64()
    state = np.ones(4, np.uint64)
    state[:3] = np.random.SeedSequence(seed).generate_state(3 * block + 3, np.uint64)[3 * block :]
    bit_generator.state = {"bit_generator": "SFC64", "state": {"state": state}, "has_uint32": 0, "uinteger": 0}
    bit_generator.random_raw(12)
    return bit_generator


def _recording_generator(monkeypatch):
    """Patch np.random.Generator to log each draw, and each new generator's starting SFC64 state, in order."""
    real = np.random.Generator
    calls = []

    class Recording:
        def __init__(self, bit_generator):
            calls.append(("state", bit_generator.state["state"]["state"].tolist()))
            self._rng = real(bit_generator)

        def standard_exponential(self, out):
            calls.append(("exp", out.shape))
            return self._rng.standard_exponential(out=out)

        def standard_gamma(self, shape, out):
            calls.append((shape, out.shape))
            return self._rng.standard_gamma(shape, out=out)

    monkeypatch.setattr(np.random, "Generator", Recording)
    return calls


def test_block_draws_3nt_minus_1_gamma_rows(monkeypatch):
    # per block: one standard_exponential array, a row for each unit of every gamma shape up to
    # _EXP_SHAPES, then one standard_gamma row per larger shape in row order, and no other draw
    calls = _recording_generator(monkeypatch)
    assert montecarlo._EXP_SHAPES == 3
    for shape in ((3, 1, 1), (4, 2, 2), (12, 4, 6), (48, 16, 16), (10, 1, 4)):
        dims = normalize_dims(*shape)
        nt, a, b = dims.Nt, dims.Nr - dims.Nt, dims.N0
        ks = range(nt, 0, -1)
        shapes = [a + k for k in ks] + [b + k for k in ks] + list(range(1, nt))
        units = sum(s for s in shapes if s <= 3)
        larger = [s for s in shapes if s > 3]
        # one block, and two blocks in one span, each block's draws at its own width
        for trials, widths in ((100, [100]), (_BLOCK + 100, [_BLOCK, 100])):
            calls.clear()
            assert len(list(_spans(McConfig(dims=dims, snr=SNR3, trials=trials, seed=3), blocks=2))) == 1
            assert [call for call in calls if call[0] != "state"] == [
                draw for width in widths for draw in [("exp", (units, width))] + [(s, (width,)) for s in larger]
            ]
    assert units == 0  # (10,1,4): shapes 4 and 6 only


def test_gamma_rows_are_sums_of_the_exponential_rows():
    # the rows of shape 1, 2 and 3 are one exponential and the sums of two and three, in row
    # order, and the larger shapes follow from the same stream: B equals B built from them by hand
    dims = normalize_dims(12, 4, 6)
    nt, a, b = dims.Nt, dims.Nr - dims.Nt, dims.N0
    ((d2, e2),) = _spans(McConfig(dims=dims, snr=SNR3, trials=300, seed=7))
    rng = np.random.Generator(_numpy_seeded(7, 0))
    ks = range(nt, 0, -1)
    shapes = [a + k for k in ks] + [b + k for k in ks] + list(range(1, nt))
    exp = iter(rng.standard_exponential((sum(s for s in shapes if s <= 3), 300)))
    x = [sum(next(exp) for _ in range(s)) if s <= 3 else None for s in shapes]
    x = np.array([rng.standard_gamma(s, 300) if row is None else row for s, row in zip(shapes, x)])
    gk, hk, gj = x[:nt], x[nt : 2 * nt], x[2 * nt :]
    sk = gk + hk
    c2, t = gk / sk, {}
    cp2 = []
    for j in range(1, nt):
        prev = sk[nt - (j + 1) // 2] if j % 2 else t[j // 2]
        t[j] = gj[j - 1] + prev
        cp2.append(gj[j - 1] / t[j])
    cp2 = np.array(cp2[::-1])
    assert np.allclose(d2, np.vstack([c2[:1], c2[1:] * (1.0 - cp2)]), rtol=1e-13, atol=0)
    assert np.allclose(e2, (1.0 - c2[:-1]) * cp2, rtol=1e-13, atol=0)


@pytest.mark.parametrize("shape", [(4, 2, 2), (18, 6, 6), (48, 16, 16)])
def test_span_columns_equal_their_blocks_drawn_one_at_a_time(shape):
    # a span of several blocks, the last one partial, draws each block from its own
    # stream: its columns are the one-block spans' columns side by side, bit for bit.
    # The default spans hold whole blocks, within 2^16 gamma variates unless one block
    # is more, and only the last is short
    cfg = McConfig(dims=normalize_dims(*shape), snr=SNR3, trials=5 * _BLOCK + 452, seed=9)
    blocks = [np.hstack(part) for part in zip(*_spans(cfg, blocks=1))]
    one, default = list(_spans(cfg, blocks=6)), list(_spans(cfg))
    widths = [d2.shape[1] for d2, _ in default]
    assert len(one) == 1 and sum(widths) == cfg.trials
    assert all(w % _BLOCK == 0 and w == widths[0] for w in widths[:-1])
    assert widths[0] == _BLOCK or (3 * cfg.dims.Nt - 1) * widths[0] <= 2**16
    for spans in (one, default):
        for got, want in zip((np.hstack(part) for part in zip(*spans)), blocks):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_block_streams_keyed_by_seed_and_block(monkeypatch):
    """A block's stream is keyed by the pair (seed, block), not by their sum; both ends of the seed range draw.

    Rule: no draw of a block equals a draw of a neighbouring seed's block,
    and the rates of adjacent seeds and of adjacent blocks, 8192 each, are
    not rank-correlated beyond 4 standard errors.  False-alarm rate 3.8e-4:
    six correlations at 6.3e-5 each (normal approximation); two equal
    doubles have probability below 1e-12.  Block b starts where numpy's SFC64
    seeding from words 3b to 3b+2 of SeedSequence(seed) starts, and the
    first blocks of a call equal those of a longer call, bit for bit.
    """
    dims = normalize_dims(4, 2, 2)
    blocks = 9
    calls = _recording_generator(monkeypatch)
    draw = lambda seed, trials: next(_spans(McConfig(dims=dims, snr=SNR3, trials=trials, seed=seed), blocks))
    d2, e2 = draw(3, blocks * _BLOCK)
    starts = [_numpy_seeded(3, b).state["state"]["state"].tolist() for b in range(blocks)]
    assert [call[1] for call in calls if call[0] == "state"] == starts
    monkeypatch.undo()
    short = draw(3, 2 * _BLOCK)
    assert [part.tobytes() for part in short] == [part[:, : 2 * _BLOCK].tobytes() for part in (d2, e2)]
    d2, e2 = d2[:, _BLOCK : 2 * _BLOCK], e2[:, _BLOCK : 2 * _BLOCK]
    for seed in (4, 3):
        other_d2, other_e2 = draw(seed, _BLOCK)
        assert not np.any(d2 == other_d2) and not np.any(e2 == other_e2)

    def rates(seed):
        cfg = McConfig(dims=dims, snr=SnrParam(10.0), trials=blocks * _BLOCK, seed=seed)
        return np.concatenate([_rates(cfg, *span) for span in _spans(cfg)])

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
        ((d2, e2),) = _spans(cfg)
        b = np.zeros((cfg.trials, dims.Nt, dims.Nt))
        idx = np.arange(dims.Nt)
        b[:, idx, idx] = np.sqrt(d2).T
        b[:, idx[:-1], idx[1:]] = -np.sqrt(e2).T
        lam = np.linalg.eigvalsh(np.matmul(b.transpose(0, 2, 1), b))
        expected = np.log1p(rho * lam).sum(axis=1) / dims.Nt
        assert np.max(np.abs(_rates(cfg, d2, e2) - expected)) < 1e-10


@pytest.mark.parametrize(
    "shape, trials", [((4, 2, 2), 3 * 12 * _BLOCK + 452), ((18, 6, 6), 3 * 3 * _BLOCK + 452)], ids=["nt2", "nt6"]
)
def test_outage_counts_and_moments_equal_per_block_references(shape, trials):
    # trial counts that end in a partial span whose last block is partial; the counts
    # are the strict rate < r of the concatenated one-block rates, and the moments sum
    # one (sum r, sum r^2) per block in block order
    cfg = McConfig(dims=normalize_dims(*shape), snr=SnrParam(10.0), trials=trials, seed=29)
    blocks = [_rates(cfg, *span) for span in _spans(cfg, blocks=1)]
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
    # a NaN rate is below no threshold, +inf included, wherever it falls in a span:
    # trial t's rate is t 1e-4, NaN at every 7th trial, over spans met in trial order
    def rates(lo, hi):
        r = np.arange(lo, hi) * 1e-4
        r[np.arange(lo, hi) % 7 == 0] = np.nan
        return r

    done = [0]

    def span_rates(cfg, d2, e2):
        done[0] += d2.shape[1]
        return rates(done[0] - d2.shape[1], done[0])

    monkeypatch.setattr(montecarlo, "_rates", span_rates)
    cfg = McConfig(dims=normalize_dims(4, 2, 2), snr=SnrParam(10.0), trials=2 * 12 * _BLOCK + 452, seed=0)
    every = rates(0, cfg.trials)
    ts = [math.inf, 1.0, 0.0, 2.0, 0.5]
    assert [e.p for e in outage_curve(cfg, ts)] == [np.count_nonzero(every < t) / cfg.trials for t in ts]
    assert done == [cfg.trials]


def test_outage_curve_monotone_on_shared_samples():
    cfg = McConfig(dims=normalize_dims(4, 2, 2), snr=SnrParam(10.0), trials=20_000, seed=5)
    rs = np.linspace(0.1, 2.3, 12)
    ps = [e.p for e in outage_curve(cfg, rs)]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_moments_flat_law():
    """The flat law's mean rate (4 log 4 - 3)/3, and a rate below 1e-9 at rho = 1e-9.

    Rule: the mean of 2.5e5 rates lies within z = 3.29 standard errors
    (the sample's), 2 Phi(-z) = 1e-3.  False-alarm rate 1e-3 (normal
    approximation); the tiny-rho rate is below log1p(1e-9) by construction.
    Power 0.53 against a bias of 3 standard errors of 2e5 rates, where the
    old rule (3 standard errors of 2e5 rates; rate 2.7e-3) had 0.50.
    """
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=250_000, seed=11)
    mean, var = moments(cfg)
    exact_mean = (4.0 * math.log(4.0) - 3.0) / 3.0
    se = math.sqrt(var / cfg.trials)
    assert abs(mean - exact_mean) < norm.isf(LEVEL / 2) * se
    tiny = McConfig(dims=FLAT, snr=SnrParam(1e-9), trials=5_000, seed=2)
    mean_tiny, _ = moments(tiny)
    assert mean_tiny < 1e-9


def test_moments_raise_on_a_cancelled_variance(monkeypatch):
    # five equal rates of 2.3: the one-pass variance rounds to -8.9e-16, which
    # is reported, not clamped to 0
    monkeypatch.setattr(montecarlo, "_rates", lambda cfg, d2, e2: np.full(d2.shape[1], 2.3))
    with pytest.raises(ArithmeticError, match=r"variance of 5 rates about the mean 2\.3.* came out -8\.8"):
        moments(McConfig(dims=FLAT, snr=SNR3, trials=5, seed=0))


def test_eigen_histogram_flat_and_tilted_laws():
    """Histograms of the flat law and of the tilted law 2(1 - x), whose bin means are its bin centres' values.

    Rule: each of two Pearson chi-square tests on 20 bins of 46000 trials at
    p > 5e-4.  False-alarm rate 1e-3 (the chi-square law with 19 degrees of
    freedom).  Power 0.55 against a defect of noncentrality 25.7 at 40000
    trials, where the old rule (p > 1e-3 each on 40000 trials; rate 2e-3)
    had 0.50.
    """
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=46_000, seed=13)
    hist = eigen_histogram(cfg, bins=20)
    assert abs(hist.mass() - 1.0) < 1e-12
    counts = hist.density * np.diff(hist.edges) * cfg.trials
    assert chisquare(counts).pvalue > LEVEL / 2

    tilted = McConfig(dims=normalize_dims(3, 1, 1), snr=SNR3, trials=46_000, seed=17)
    hist2 = eigen_histogram(tilted, bins=20)
    assert abs(hist2.mass() - 1.0) < 1e-12
    centers = 0.5 * (hist2.edges[:-1] + hist2.edges[1:])
    expected = 2.0 * (1.0 - centers)
    expected_counts = expected / expected.sum() * tilted.trials
    observed = hist2.density * np.diff(hist2.edges) * tilted.trials
    assert chisquare(observed, expected_counts).pvalue > LEVEL / 2


@pytest.mark.parametrize("shape", [(2, 1, 1), (4, 3, 2), (7, 2, 3), (200, 4, 4), (48, 16, 16)])
def test_eigen_histogram_counts_equal_dense_oracle(shape):
    # pivot counts against np.histogram of a dense eigensolve of the same
    # draws; the last block is partial
    dims = normalize_dims(*shape)
    trials = 2 * _BLOCK + 452
    cfg = McConfig(dims=dims, snr=SnrParam(1.0), trials=trials, seed=23)
    lam = block_eigenvalues(cfg)
    for bins in (2, 16, 64):
        edges = np.linspace(0.0, 1.0, bins + 1)
        expected = np.histogram(lam, bins=edges)[0] / (trials * dims.Nt * np.diff(edges))
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
    # a flat-law rate below 1e-12, or within 1e-12 of log 4, has probability 3.3e-13 or 1.3e-12
    # per trial: false-alarm rate 1.7e-9 over 1000 trials
    cfg = McConfig(dims=FLAT, snr=SNR3, trials=1000, seed=19)
    zero = outage_curve(cfg, [1e-12])[0]
    assert zero.p == 0.0 and zero.ci_low == 0.0 and zero.ci_high > 0.0
    one = outage_curve(cfg, [math.log1p(3.0) - 1e-12])[0]
    assert one.p == 1.0 and one.ci_high == 1.0 and one.ci_low < 1.0


def test_curve_entry_does_not_depend_on_the_other_rates():
    # the Clopper-Pearson solve runs once per curve; each cell must be what
    # the curve at its own rate alone gives, bit for bit.  The five counts differ when a rate of
    # 5000 falls in each gap between thresholds; the narrowest gap holds P = 0.0021, so the
    # false-alarm rate is 0.9979^5000 = 2.7e-5 (it was 1.8e-3 at 3000 trials)
    cfg = McConfig(dims=normalize_dims(4, 2, 2), snr=SnrParam(10.0), trials=5000, seed=5)
    rates = [0.3, 0.7, 1.0, 1.4, 2.0]
    curve = outage_curve(cfg, rates)
    assert len({e.p for e in curve}) == len(rates)
    for r, est in zip(rates, curve):
        assert outage_curve(cfg, [r]) == [est]
        assert est.ci_low <= est.p <= est.ci_high


def test_ci_coverage_on_analytic_case():
    """The 95% intervals of 150 runs of 1e4 trials cover the flat law's P(log 2) = 1/3.

    Their coverage there is 0.9515 exactly, so the hits are Binomial(150,
    0.9515).  Rule: at least 133 hits.  False-alarm rate 3.8e-4.  Power 0.24
    against intervals of 90% coverage, where the old rule (at least 88 of
    100 runs; rate 1.1e-3) had 0.20.
    """
    hits = 0
    for run in range(150):
        cfg = McConfig(dims=FLAT, snr=SNR3, trials=10_000, seed=1000 + run)
        est = outage_curve(cfg, [math.log(2.0)])[0]
        hits += est.ci_low <= 1.0 / 3.0 <= est.ci_high
    assert hits >= 133


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
