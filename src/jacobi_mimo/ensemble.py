"""Channel model: Haar-unitary transmission matrix and its truncation.

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
(N0'/Nt') * log(1 + rho).  All rates produced downstream are in these
canonical per-transmit-channel units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "ChannelDims",
    "SnrParam",
    "SpectrumSample",
    "normalize_dims",
    "sample_haar_unitary",
    "sample_truncation",
    "truncate",
    "spectrum",
    "mutual_information",
    "log_joint_density_unnormalized",
]

# Eigenvalues of U^H U may drift slightly outside [0, 1] through the QR and
# eigensolver round-off; beyond _EIG_HARD_TOL the source was not unitary.
_EIG_HARD_TOL = 1e-9


@dataclass(frozen=True)
class ChannelDims:
    """Canonical channel dimensions (Nt <= Nr, N0 >= 0).

    ``beta = Nr/Nt`` and ``n0 = N0/Nt`` are kept as exact rationals.
    ``rate_offset`` is the coefficient of log(1 + rho) contributed by
    eigenvalues pinned at 1 after the N0 < 0 reduction; it is zero for
    channels that were already canonical.
    """

    N: int
    Nt: int
    Nr: int
    N0: int
    beta: Fraction = field(repr=False)
    n0: Fraction = field(repr=False)
    rate_offset: Fraction = Fraction(0)

    def __post_init__(self):
        if self.Nt < 1 or self.Nr < 1:
            raise ValueError("channel counts must be positive")
        if self.Nt > self.Nr:
            raise ValueError("canonical dims require Nt <= Nr")
        if self.N0 != self.N - self.Nt - self.Nr or self.N0 < 0:
            raise ValueError("canonical dims require N0 = N - Nt - Nr >= 0")
        if self.beta != Fraction(self.Nr, self.Nt) or self.n0 != Fraction(self.N0, self.Nt):
            raise ValueError("beta and n0 must equal Nr/Nt and N0/Nt exactly")


@dataclass(frozen=True)
class SnrParam:
    """Total signal-to-noise ratio rho > 0 (linear scale)."""

    rho: float

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho!r}")

    @property
    def z(self) -> float:
        """Reciprocal SNR z = 1/rho used throughout the asymptotic formulas."""
        return 1.0 / self.rho


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of U^H U for one channel draw, ascending, in [0, 1]."""

    eigenvalues: np.ndarray


def normalize_dims(N: int, Nt: int, Nr: int) -> ChannelDims:
    """Normalize raw channel counts into the canonical cone.

    Swaps Nt and Nr if needed (the unnormalized mutual information
    log det(1 + rho U^H U) is invariant under the swap), then applies the
    N0 < 0 reduction (Nt, Nr, N0) -> (N-Nr, N-Nt, -N0).  In that case
    Nt + Nr - N eigenvalues equal 1 exactly and contribute the
    deterministic offset (N0'/Nt') * log(1+rho) recorded in
    ``rate_offset``.

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
    offset = Fraction(0)
    if N0 < 0:
        Nt, Nr, N0 = N - Nr, N - Nt, -N0
        if Nt == 0:
            raise ValueError(
                "channel is deterministic: the truncation spans full unitary "
                "rows/columns, every singular value is 1 and no eigenvalue "
                "ensemble remains after reduction"
            )
        offset = Fraction(N0, Nt)
    return ChannelDims(
        N=N,
        Nt=Nt,
        Nr=Nr,
        N0=N0,
        beta=Fraction(Nr, Nt),
        n0=Fraction(N0, Nt),
        rate_offset=offset,
    )


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.standard_normal((rows, 2 * cols))
    return (g[:, :cols] + 1j * g[:, cols:]) / np.sqrt(2.0)


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n x n unitary from the Haar measure.

    QR of a complex Ginibre matrix, with column j of Q multiplied by the
    phase R_jj/|R_jj|.  That puts the factorization in its canonical
    positive-diagonal gauge, whose uniqueness makes the Q factor exactly
    Haar whatever phase conventions the underlying QR uses.  An exactly
    zero R diagonal has probability zero; the draw is simply repeated if
    it occurs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    while True:
        q, r = np.linalg.qr(_ginibre(rng, n, n))
        d = np.diagonal(r)
        if np.all(d != 0):
            return q * (d / np.abs(d))


def sample_truncation(dims: ChannelDims, rng: np.random.Generator) -> np.ndarray:
    """Draw the Nr x Nt corner of an N x N Haar unitary directly.

    The first Nt columns of a Haar unitary form a Haar-distributed
    isometry, which is the QR factor (same diagonal phase fix) of an
    N x Nt Ginibre matrix; the corner is its first Nr rows.  Identical in
    distribution to truncating :func:`sample_haar_unitary`, at thin-QR
    cost; the tests use it as the oracle for the Monte Carlo sampler.
    """
    while True:
        q, r = np.linalg.qr(_ginibre(rng, dims.N, dims.Nt))
        d = np.diagonal(r)
        if np.all(d != 0):
            return q[: dims.Nr, :] * (d / np.abs(d))


def truncate(U: np.ndarray, dims: ChannelDims) -> np.ndarray:
    """Upper-left Nr x Nt block of an N x N transmission matrix."""
    if U.shape != (dims.N, dims.N):
        raise ValueError(f"expected a {dims.N} x {dims.N} matrix, got shape {U.shape}")
    return U[: dims.Nr, : dims.Nt]


def spectrum(H: np.ndarray) -> SpectrumSample:
    """Eigenvalues of H^H H for an Nr x Nt truncation block (Nr >= Nt).

    The Gram matrix of the smaller side keeps the eigenproblem at
    Nt x Nt.  Values outside [-1e-9, 1+1e-9] signal a non-unitary source
    and raise; round-off level excursions are clamped back into [0, 1].
    """
    nr, nt = H.shape
    if nr < nt:
        raise ValueError(f"expected Nr >= Nt, got shape {H.shape}")
    lam = np.linalg.eigvalsh(H.conj().T @ H)
    if lam.min() < -_EIG_HARD_TOL or lam.max() > 1.0 + _EIG_HARD_TOL:
        raise ValueError(
            f"eigenvalues {lam.min()!r}..{lam.max()!r} outside [0,1] beyond "
            f"tolerance {_EIG_HARD_TOL}; source matrix is not a unitary truncation"
        )
    return SpectrumSample(np.sort(np.clip(lam, 0.0, 1.0)))


def mutual_information(s: SpectrumSample, snr: SnrParam, dims: ChannelDims) -> float:
    """Per-channel mutual information in nats.

    (1/Nt) * sum log(1 + rho*lambda) plus the deterministic
    rate_offset * log(1 + rho) carried by reduced dims.
    """
    body = float(np.log1p(snr.rho * s.eigenvalues).sum()) / dims.Nt
    if dims.rate_offset:
        body += float(dims.rate_offset) * np.log1p(snr.rho)
    return body


def log_joint_density_unnormalized(s: SpectrumSample, dims: ChannelDims) -> float:
    """Log of the unnormalized Jacobi joint eigenvalue density.

    sum_{i<j} 2 log|l_i - l_j| + sum_k [ |Nt-Nr| log l_k + N0 log(1-l_k) ].
    Returns -inf for eigenvalues at the boundary or coinciding (the
    Vandermonde factor vanishes).
    """
    lam = np.asarray(s.eigenvalues, dtype=float)
    if lam.min() <= 0.0 or lam.max() >= 1.0:
        return -np.inf
    diffs = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(lam.size, k=1)]
    if diffs.size and diffs.min() == 0.0:
        return -np.inf
    val = 2.0 * float(np.log(diffs).sum()) if diffs.size else 0.0
    val += (dims.Nr - dims.Nt) * float(np.log(lam).sum())
    val += dims.N0 * float(np.log1p(-lam).sum())
    return val
