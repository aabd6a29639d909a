"""The decision rule of the seeded Monte Carlo tests that compare outage counts with a known P.

A seeded test must pass on any correct sampler stream, not only on the one
it was seeded on, or the stream could not change with the seeds kept.  So
each such test keeps its false-alarm rate, the chance that a correct
sampler fails it, at or below ``LEVEL``, and states the rate in its
docstring with its rule and trials.  An outage count K of n trials at a
point where the law gives P is Binomial(n, P), so a test over m points
holds each count to the band that Binomial(n, P) leaves with probability at
most ``LEVEL / m``; by the union bound the test fails a correct sampler
with probability at most ``LEVEL``, whatever the dependence between its
points (the counts of one curve share their trials).
"""

from scipy.stats import binom

LEVEL = 1e-3


def count_band(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Counts (lo, hi) with P(K < lo) <= alpha/2 and P(K > hi) <= alpha/2 for K ~ Binomial(n, p)."""
    return int(binom.ppf(alpha / 2, n, p)), int(binom.isf(alpha / 2, n, p))


def assert_counts_in_bands(estimates, truths, trials: int, alpha: float):
    """Each estimated P's outage count of ``trials`` lies in ``count_band(trials, P, alpha)`` of its truth P."""
    for est, p in zip(estimates, truths, strict=True):
        lo, hi = count_band(trials, p, alpha)
        k = round(est * trials)
        assert lo <= k <= hi, f"count {k} of {trials} outside [{lo}, {hi}] at P = {p!r}"
