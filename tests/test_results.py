"""Which outage routes claim an interval: Monte Carlo alone, with its
Clopper-Pearson bounds; the exact, ld and gauss estimates claim none."""

import math

import pytest

from jacobi_mimo import (
    ExactConfig,
    McConfig,
    OutageEstimate,
    SnrParam,
    gaussian_outage,
    normalize_dims,
    outage_asymptotic,
    outage_curve,
    outage_exact,
)

# the north-star corners: |Nt-Nr| > 0 with N0 > 0, reduced dims with a rate
# offset, and Nt = 1
CORNERS = [(10, 4, 5), (5, 3, 3), (3, 1, 1)]


@pytest.mark.parametrize("rho", [1e-2, 1.0, 1e4])
@pytest.mark.parametrize("shape", CORNERS, ids=lambda shape: "-".join(map(str, shape)))
def test_only_monte_carlo_claims_an_interval(shape, rho):
    dims, snr = normalize_dims(*shape), SnrParam(rho)
    r = 0.5 * math.log1p(rho)  # mid-window: every route takes the reduced ensemble's rate
    n0, beta = dims.n0, dims.beta
    (mc,) = outage_curve(McConfig(dims=dims, snr=snr, trials=2000, seed=1), [r])
    assert mc.method == "mc"
    assert isinstance(mc.ci_low, float) and isinstance(mc.ci_high, float)
    assert mc.ci_low <= mc.p <= mc.ci_high
    deterministic = [
        outage_exact(ExactConfig(dims=dims, snr=snr), r),
        outage_asymptotic(n0, beta, snr, dims.Nt, r),
        gaussian_outage(n0, beta, snr, dims.Nt, r),
    ]
    assert [est.method for est in deterministic] == ["exact", "ld", "gauss"]
    for est in deterministic:
        assert 0.0 <= est.p <= 1.0
        assert est.ci_low is None and est.ci_high is None


def test_outage_estimate_fields_and_interval_checks():
    assert [f for f in OutageEstimate.__dataclass_fields__] == ["p", "method", "ci_low", "ci_high"]
    assert OutageEstimate(0.5, "ld") == OutageEstimate(p=0.5, method="ld", ci_low=None, ci_high=None)
    OutageEstimate(p=0.5, method="mc", ci_low=0.4, ci_high=0.6)
    for lo, hi in ((0.4, None), (None, 0.6), (0.6, 0.7), (0.3, 0.4)):
        with pytest.raises(ValueError, match="ci_low <= p <= ci_high"):
            OutageEstimate(p=0.5, method="mc", ci_low=lo, ci_high=hi)
