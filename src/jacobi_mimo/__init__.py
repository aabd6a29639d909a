"""Jacobi MIMO channel: outage probability by Monte Carlo, exact finite-size
formula, and Coulomb-gas large deviations.

The channel matrix is the upper-left Nr x Nt corner of an N x N Haar
unitary; the squared singular values follow the Jacobi ensemble.  This
package estimates the outage probability P(I < r) of the per-channel
mutual information I = (1/Nt) log det(1 + rho U^H U) three independent
ways, which are validated against each other:

* ``montecarlo`` - sampling of the Jacobi bidiagonal matrix model;
* ``exact``      - closed-form finite-size expression (small channel counts);
* ``coulomb``    - large-channel-count rate function and the constrained
                   spectral densities behind it.
"""

from .ensemble import ChannelDims, SnrParam, normalize_dims
from .results import OutageEstimate
from .montecarlo import McConfig, eigen_histogram, estimate_outage, moments
from .exact import ExactConfig, outage_density_exact, outage_exact
from .coulomb import (
    RegimeSolution,
    critical_thresholds,
    density_asymptotic,
    density_at,
    ergodic_density,
    ergodic_summary,
    gaussian_outage,
    outage_asymptotic,
    rate_exponent,
    solve_at_multiplier,
    solve_regime,
)
from . import specfun

__version__ = "0.1.0"

__all__ = [
    "ChannelDims",
    "SnrParam",
    "normalize_dims",
    "McConfig",
    "OutageEstimate",
    "estimate_outage",
    "moments",
    "eigen_histogram",
    "ExactConfig",
    "outage_exact",
    "outage_density_exact",
    "RegimeSolution",
    "ergodic_summary",
    "ergodic_density",
    "critical_thresholds",
    "solve_regime",
    "solve_at_multiplier",
    "density_at",
    "rate_exponent",
    "density_asymptotic",
    "outage_asymptotic",
    "gaussian_outage",
    "specfun",
]
