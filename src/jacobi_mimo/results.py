"""Result types shared by every outage method."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OutageEstimate"]


@dataclass(frozen=True)
class OutageEstimate:
    """An outage probability, the method that produced it, and its interval if it has one.

    Only Monte Carlo (``method="mc"``) sets ``ci_low`` and ``ci_high``, its
    Clopper-Pearson 95% interval.  The deterministic methods leave both
    None: ``outage_exact`` states its accuracy in its docstring, and ld and
    gauss are approximations with no error bound, so none claims an
    interval.  One bound without the other is refused.
    """

    p: float
    method: str
    ci_low: float | None = None
    ci_high: float | None = None

    def __post_init__(self):
        lo, hi = self.ci_low, self.ci_high
        if (lo is None) != (hi is None) or lo is not None and not lo <= self.p <= hi:
            raise ValueError(f"require ci_low <= p <= ci_high or no bounds, got {lo!r}, {self.p!r}, {hi!r}")
