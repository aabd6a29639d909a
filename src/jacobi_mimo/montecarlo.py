"""Monte Carlo estimation of outage, rate moments, and spectral histograms.

This is the empirical ground truth the deterministic solvers are checked
against.  Trials sample the beta = 2 Jacobi bidiagonal matrix model
(Edelman & Sutton, FoCM 2008; Killip & Nenciu, IMRN 2004), whose squared
singular values follow the Jacobi law of U^H U exactly, so no Haar matrix
is drawn.  Its 2Nt-1 independent beta variables come from a chain of 3Nt-1
gamma variates: by Lukacs' theorem the sum G + H behind one ratio
G / (G + H) is a gamma variate independent of that ratio, so it serves as
part of a later ratio's denominator (see ``_block_bidiagonal``).  Rates
and histograms come from LDL^T pivots of the tridiagonal B^T B, not from
its eigenvalues: the pivots of 1 + rho B^T B give the rate, and the
negative pivots of B^T B - x count the eigenvalues below a bin edge x
(Sylvester's law of inertia), O(bins Nt) per trial against O(Nt^3) for a
dense eigensolve.  Reproducibility contract: trials run in
fixed blocks of ``_BLOCK``, each drawn from its own SFC64 stream and reduced
in block order on the calling thread, so results are bit-identical for a
given (seed, trials).  ``_spans`` is the one place that knows streams,
blocks and spans, and every public call is a loop over the B it yields.
One ``SeedSequence(seed)`` hash per call gives every block its three SFC64
state words, and its output is prefix-stable, so block b's stream depends
on (seed, b) alone.  The block is the unit of streams and of reductions
only: outage counts and moments run their elementwise rate arithmetic on
spans of whole blocks, whose width follows from Nt alone, and no output bit
depends on it.  Histograms take one block per span, their Sturm counts
holding a (bins-1, span) array per row: one-block spans were the fastest
at every shape measured (20000 trials, 16 and 20 bins, medians of 30
interleaved pairs on a shared 2-core Xeon).  The rates' wider spans ran
1.63x and 1.40x slower at (4,2,2) and (6,3,3) and 1.10x to 1.35x slower
at (18,6,6) and (24,8,8); a width capped by the bins-1 Sturm rows ran
1.10x to 1.48x slower at all four shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import ChannelDims, SnrParam
from .results import OutageEstimate
from .specfun import clopper_pearson

__all__ = [
    "McConfig",
    "EigenHistogram",
    "outage_curve",
    "moments",
    "eigen_histogram",
]

# Trials per block.  Fixed (not configurable) so the partitioning, and
# therefore the random stream and the floating-point reduction order,
# depends on (seed, trials) alone.
_BLOCK = 1024

# Gamma shapes up to this one are drawn as sums of standard exponentials,
# a block's all from one standard_exponential call, and larger shapes by
# standard_gamma.  Gamma(1) is one exponential, the very draw standard_gamma(1)
# makes.  Measured on a shared 2-core Xeon, numpy 2.4, medians of 60
# interleaved repetitions per 1024 draws: standard_gamma 29.4, 28.3 and 28.0
# us at shapes 2, 3 and 4 against 18.6, 25.3 and 32.8 us for 2, 3 and 4
# exponentials with their sum.  Per block, a cut at 3 against one at 2 took
# 0.94, 0.98 and 0.96 of the time at (12,4,6), (18,6,6) and (200,4,4), and
# was faster in 90%, 78% and 90% of 80 alternating pairs.
_EXP_SHAPES = 3

# Gamma variates in one span's array (512 KiB): outage counts and moments
# compute rates on spans of as many whole blocks as fit (see _spans).
_SPAN_DOUBLES = 2**16


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo run: channel, SNR, trial count, seed."""

    dims: ChannelDims
    snr: SnrParam
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # SeedSequence takes any non-negative int; the bound is the CLI's seed contract
        if not 0 <= self.seed < 1 << 128:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed!r}")


@dataclass(frozen=True)
class EigenHistogram:
    """Normalized eigenvalue histogram on [0, 1]: density per bin."""

    edges: np.ndarray
    density: np.ndarray

    def mass(self) -> float:
        return float(np.sum(self.density * np.diff(self.edges)))


class _StateWords:
    """The seed sequence of one block's SFC64: it hands over the three state words, already hashed.

    numpy's SFC64 seeds itself from the three uint64 words its seed sequence
    generates: the state (w0, w1, w2, counter 1), then 12 outputs dropped.
    ``_spans`` registers it as numpy's ISeedSequence, not the import,
    so that importing this package does not import numpy.random.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words


def _block_bidiagonal(dims: ChannelDims, streams, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared diagonal (Nt, trials) and superdiagonal (Nt-1, trials) of B, one column per trial.

    B is upper bidiagonal with diagonal (c_Nt, c_{Nt-1} s'_{Nt-1}, ..., c_1 s'_1)
    and superdiagonal (-s_Nt c'_{Nt-1}, ..., -s_2 c'_1), where with a = Nr - Nt,
    b = N0: c_k^2 ~ Beta(a+k, b+k), c'_j^2 ~ Beta(j, a+b+1+j), s = sqrt(1 - c^2).
    Signs drop out of B^T B's spectrum, so only squares are returned.  The trials
    may span several blocks: the i-th Generator of `streams` draws the columns of
    the i-th block of _BLOCK trials, so a span's columns equal those of its blocks
    drawn one at a time, bit for bit.  A block first draws one array of standard
    exponentials, a row for each unit of shape up to _EXP_SHAPES in row order, and
    then one standard_gamma row for each larger shape.

    The 2Nt-1 betas come from 3Nt-1 gammas, not 4Nt-2.  With G_k ~ Gamma(a+k) and
    H_k ~ Gamma(b+k), c_k^2 = G_k / S_k, and by Lukacs' theorem S_k = G_k + H_k ~
    Gamma(a+b+2k) is independent of c_k^2.  So c'_j^2 = g_j / T_j needs only a fresh
    g_j ~ Gamma(j): its denominator T_j = g_j + S_{(j+1)/2} for odd j, or g_j + T_{j/2}
    for even j, both Gamma(a+b+1+j).  Each S and T feeds one later ratio, so the
    ratios stay mutually independent.
    """
    nt, a, b = dims.Nt, dims.Nr - dims.Nt, dims.N0
    x = np.empty((3 * nt - 1, trials))
    shapes = [a + k for k in range(nt, 0, -1)] + [b + k for k in range(nt, 0, -1)] + list(range(1, nt))
    summed = [(row, shape) for shape, row in zip(shapes, x) if shape <= _EXP_SHAPES]
    drawn = [(row, shape) for shape, row in zip(shapes, x) if shape > _EXP_SHAPES]
    units = sum(shape for _, shape in summed)
    full = np.empty((units, _BLOCK))
    for start, rng in zip(range(0, trials, _BLOCK), streams):  # each block's columns from its own stream
        cols = slice(start, min(start + _BLOCK, trials))
        width = cols.stop - cols.start
        # out= must be contiguous, so a short last block draws into an array of its own
        exp = rng.standard_exponential(out=full if width == _BLOCK else np.empty((units, width)))
        first = 0
        for row, shape in summed:
            if shape == 1:
                row[cols] = exp[first]
            else:
                np.add.reduce(exp[first : first + shape], axis=0, out=row[cols])
            first += shape
        for row, shape in drawn:
            rng.standard_gamma(shape, out=row[cols])
    gk, sk, gj = x[:nt], x[nt : 2 * nt], x[2 * nt :]  # G_k, H_k for k = Nt..1; g_j for j = 1..Nt-1
    sk += gk
    c2 = gk / sk  # a new array, so that the returned d2 does not keep x alive
    for j in range(1, nt):
        # j = (2k-1) 2^i: S_k's row becomes T_{2k-1}, T_{2(2k-1)}, ... in turn, each used once
        t = sk[nt - (j // (j & -j) + 1) // 2]
        t += gj[j - 1]
        gj[j - 1] /= t
    cp2 = gj[::-1]  # rows j = Nt-1..1, as B's superdiagonal runs
    # in place from here: each temporary would add a block-sized array to the peak memory
    e2 = 1.0 - c2[:-1]
    e2 *= cp2
    np.subtract(1.0, cp2, out=cp2)
    c2[1:] *= cp2  # c2 becomes d2
    return c2, e2


def _rates(cfg: McConfig, d2: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Per-trial rates from the LDL^T pivots of 1 + rho B^T B, for B's squares d2 and e2 (see _spans).

    On the tridiagonal T = B^T B the pivots p_i = 1 + rho T_ii - (rho T_{i-1,i})^2 / p_{i-1}
    equal 1 + u_i + rho d_i^2, with u_1 = 0 and u_{i+1} = rho e_i^2 (1 + u_i) / p_i.  No
    term is negative, so nothing cancels at large rho and log1p keeps small rho accurate.
    """
    rho = cfg.snr.rho
    w = rho * d2
    u = 0.0
    for i in range(cfg.dims.Nt - 1):
        w[i] += u
        u = rho * e2[i] * (1.0 + u) / (1.0 + w[i])
    w[-1] += u
    return np.log1p(w).sum(axis=0) / cfg.dims.Nt


def _sturm_counts(d2: np.ndarray, e2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Eigenvalues of B^T B below each shift in the column x, summed over the trial columns.

    They are the negative pivots q_i of B^T B - x from the stationary qd transform (Dhillon &
    Parlett, SIMAX 2004): s_1 = -x, q_i = d_i^2 + s_i, s_{i+1} = e_i^2 s_i / q_i - x.
    """
    s, below, tiny = -x, 0, np.finfo(float).tiny
    for i in range(len(d2)):
        q = d2[i] + s
        q[np.abs(q) < tiny] = tiny  # dstebz's pivmin, signed so that an eigenvalue at x counts above x
        below += np.count_nonzero(q < 0.0, axis=1)
        s = e2[i] * s / q - x if i < len(e2) else s
    return below


def _spans(cfg: McConfig, blocks: int = 0):
    """Yield B's squares (d2, e2) (see _block_bidiagonal) for each span of `blocks` whole blocks, in trial order.

    Only the last span, and its last block, may be short.  One SeedSequence(cfg.seed)
    hash gives block b the state words 3b to 3b+2, and its output is prefix-stable, so
    the block's SFC64 stream depends on (seed, b) alone.  Seeding SFC64 from given words
    costs about 1 us a block, where a SeedSequence and an SFC64 seeding of a block's
    own cost 11.  By default a span holds as many blocks as keep its (3Nt-1, span)
    gamma array within _SPAN_DOUBLES; no output bit depends on the span width.
    """
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    count = -(-cfg.trials // _BLOCK)
    words = np.random.SeedSequence(cfg.seed).generate_state(3 * count, np.uint64).reshape(count, 3)
    step = blocks or max(1, _SPAN_DOUBLES // ((3 * cfg.dims.Nt - 1) * _BLOCK))
    for first in range(0, count, step):
        streams = (np.random.Generator(np.random.SFC64(_StateWords(w))) for w in words[first : first + step])
        yield _block_bidiagonal(cfg.dims, streams, min(step * _BLOCK, cfg.trials - first * _BLOCK))


def outage_curve(cfg: McConfig, rs) -> list[OutageEstimate]:
    """Outage estimates at several thresholds over one shared sample set.

    Sharing samples makes the curve exactly monotone in r and amortizes
    the sampling cost over the whole rate grid.  The thresholds, like the
    rates ``moments`` summarizes, are rates of the reduced ensemble.  A trial
    is in outage at r when its rate is strictly below r (a NaN rate never is);
    each span counts its trials by a left-side binary search of the thresholds,
    in any order, in its sorted rates.
    """
    thresholds = np.asarray(list(rs), dtype=float)
    bad = thresholds[~(thresholds >= 0)]
    if bad.size:
        raise ValueError(f"rate thresholds must be >= 0, got {float(bad[0])!r}")
    totals = sum(np.searchsorted(np.sort(_rates(cfg, *span)), thresholds) for span in _spans(cfg)).tolist()
    return [
        OutageEstimate(p=k / cfg.trials, method="mc", ci_low=lo, ci_high=hi)
        for k, (lo, hi) in zip(totals, clopper_pearson(totals, cfg.trials))
    ]


def moments(cfg: McConfig) -> tuple[float, float]:
    """Sample mean and unbiased sample variance of the mutual information.

    The variance is the one-pass (s2 - n mean^2) / (n - 1); it raises
    ArithmeticError rather than clamp a value that cancelled below 0.
    """
    if cfg.trials < 2:
        raise ValueError("moments needs at least 2 trials")
    partials = []  # one (sum r, sum r^2) per block, so the sums keep their order
    for span in _spans(cfg):
        r = _rates(cfg, *span)
        partials += [(float(np.sum(x)), float(np.sum(x * x))) for x in np.split(r, range(_BLOCK, r.size, _BLOCK))]
    s1, s2 = (sum(column) for column in zip(*partials))
    n = cfg.trials
    mean = s1 / n
    var = (s2 - n * mean * mean) / (n - 1)
    if not var >= 0.0:  # cancellation, or a NaN rate
        raise ArithmeticError(f"the one-pass variance of {n} rates about the mean {mean!r} came out {var!r}")
    return mean, var


def eigen_histogram(cfg: McConfig, bins: int) -> EigenHistogram:
    """Histogram of all sampled eigenvalues, normalized to unit mass on [0, 1]."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    edges = np.linspace(0.0, 1.0, bins + 1)
    below = sum(_sturm_counts(*span, edges[1:-1, None]) for span in _spans(cfg, blocks=1))
    total = np.diff(below, prepend=0, append=cfg.trials * cfg.dims.Nt)
    return EigenHistogram(edges=edges, density=total / (cfg.trials * cfg.dims.Nt * np.diff(edges)))
