"""Channel model: the truncated Haar-unitary channel's dimensions and SNR.

An N-mode lossless fiber segment with strong mode mixing has an N x N
Haar-distributed transmission matrix.  A link exciting Nt inputs and
coherently detecting Nr outputs sees the upper-left Nr x Nt corner U,
and the per-channel mutual information with Gaussian signalling is

    I = (1/Nt) * sum_k log(1 + rho * lambda_k),

with lambda_k the eigenvalues of U^H U, all in [0, 1].  Their joint law
is the Jacobi ensemble

    P(lambda) ~ prod_{i<j} |l_i - l_j|^2 * prod_k l_k^{|Nt-Nr|} (1-l_k)^{N0},

where N0 = N - Nt - Nr counts the untapped fiber channels.  Dimension
bookkeeping normalizes every input into the canonical cone Nt <= Nr and
N0 >= 0: when Nt > Nr the roles are swapped, and when N0 < 0 the known
reduction (Nt, Nr, N0) -> (N-Nr, N-Nt, -N0) applies, with the pinned
unit eigenvalues contributing a deterministic rate offset
(N0'/Nt') * log(1 + rho).  Every rate the library takes or returns is
per canonical transmit channel and belongs to the reduced ensemble,
without that offset; adding ``ChannelDims.pinned_rate(rho)`` gives the
original channel's rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ChannelDims", "SnrParam", "normalize_dims"]


@dataclass(frozen=True)
class ChannelDims:
    """Canonical channel dimensions (Nt <= Nr, N0 >= 0).

    ``N0 = N - Nt - Nr``, ``beta = Nr/Nt`` and ``n0 = N0/Nt`` follow from
    the counts; the last two are floats, each the correctly rounded ratio.
    ``rate_offset`` is the float coefficient of log(1 + rho) contributed by
    eigenvalues pinned at 1 after the N0 < 0 reduction; it is zero for
    channels that were already canonical.
    """

    N: int
    Nt: int
    Nr: int
    rate_offset: float = 0.0

    def __post_init__(self):
        if self.Nt < 1 or self.Nr < 1:
            raise ValueError("channel counts must be positive")
        if self.Nt > self.Nr:
            raise ValueError("canonical dims require Nt <= Nr")
        if self.N0 < 0:
            raise ValueError("canonical dims require N0 = N - Nt - Nr >= 0")

    @property
    def N0(self) -> int:
        return self.N - self.Nt - self.Nr

    @property
    def beta(self) -> float:
        return self.Nr / self.Nt

    @property
    def n0(self) -> float:
        return self.N0 / self.Nt

    def pinned_rate(self, rho: float) -> float:
        """Rate of the eigenvalues pinned at 1: rate_offset * log(1+rho) nats per channel."""
        return self.rate_offset * math.log1p(rho)


@dataclass(frozen=True)
class SnrParam:
    """Total signal-to-noise ratio 0 < rho < inf (linear scale), with z = 1/rho finite."""

    rho: float

    def __post_init__(self):
        if not (0 < self.rho < math.inf and 1.0 / self.rho < math.inf):
            raise ValueError(f"rho must be positive and finite, with 1/rho finite, got {self.rho!r}")

    @property
    def z(self) -> float:
        """Reciprocal SNR z = 1/rho used throughout the asymptotic formulas."""
        return 1.0 / self.rho


def normalize_dims(N: int, Nt: int, Nr: int) -> ChannelDims:
    """Normalize raw channel counts into the canonical cone.

    Swaps Nt and Nr if needed (the unnormalized mutual information
    log det(1 + rho U^H U) is invariant under the swap), then applies the
    N0 < 0 reduction (Nt, Nr, N0) -> (N-Nr, N-Nt, -N0).  In that case
    Nt + Nr - N eigenvalues equal 1 exactly and contribute the
    deterministic offset (N0'/Nt') * log(1+rho): ``rate_offset`` records
    the coefficient and ``pinned_rate(rho)`` the rate.

    The fully deterministic corner max(Nt, Nr) = N with N0 < 0 (the
    truncation keeps complete rows or columns of the unitary, so every
    surviving singular value is 1) leaves no random eigenvalues and is
    rejected.
    """
    if not (1 <= Nt <= N and 1 <= Nr <= N):
        raise ValueError(f"need 1 <= Nt, Nr <= N, got N={N}, Nt={Nt}, Nr={Nr}")
    if Nt > Nr:
        Nt, Nr = Nr, Nt
    N0 = N - Nt - Nr
    offset = 0.0
    if N0 < 0:
        Nt, Nr, N0 = N - Nr, N - Nt, -N0
        if Nt == 0:
            raise ValueError(
                "channel is deterministic: the truncation spans full unitary "
                "rows/columns, every singular value is 1 and no eigenvalue "
                "ensemble remains after reduction"
            )
        offset = N0 / Nt
    return ChannelDims(N=N, Nt=Nt, Nr=Nr, rate_offset=offset)
