"""Result types shared by every outage method."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OutageEstimate"]


@dataclass(frozen=True)
class OutageEstimate:
    """An outage probability with provenance and uncertainty.

    For Monte Carlo the bounds are a Clopper-Pearson 95% interval; the
    deterministic methods report their numerical tolerance through
    ``trials_or_tol`` and collapse the interval onto the value.
    """

    p: float
    ci_low: float
    ci_high: float
    method: str
    trials_or_tol: float

    def __post_init__(self):
        if not self.ci_low <= self.p <= self.ci_high:
            raise ValueError("require ci_low <= p <= ci_high")
