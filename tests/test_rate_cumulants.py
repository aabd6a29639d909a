"""The cumulant oracle of X = Nt I against quadrature, Selberg, itself and Monte Carlo, and
the Coulomb gas's ergodic record and r(k) against its finite-Nt limit."""

import math

import pytest
from scipy import integrate, stats

from jacobi_mimo.coulomb import _LD_TOL, ergodic_summary, solve_at_multiplier
from jacobi_mimo.ensemble import SnrParam, normalize_dims
from jacobi_mimo.montecarlo import McConfig, moments

from _oracles import rate_cumulants


def _log_hankel(nt: int, dn: float, n_zero: float) -> float:
    """log(Z / Nt!) for the Selberg integral Z of the weight x^dn (1-x)^N0, by lgamma."""
    return sum(
        math.lgamma(dn + 1 + k) + math.lgamma(n_zero + 1 + k) + math.lgamma(k + 2)
        - math.lgamma(dn + n_zero + nt + k + 1)
        for k in range(nt)
    ) - math.lgamma(nt + 1)


def _mean_var(nt, dn, n_zero, rho, n=None):
    _, k1, k2 = rate_cumulants(nt, dn, n_zero, rho, n)
    return k1 / nt, k2 / nt**2


@pytest.mark.parametrize("dn, n_zero", [(0, 0), (2, 3), (0, 5), (4, 0)])
@pytest.mark.parametrize("rho", [1e-2, 3.0, 1e4])
def test_one_channel_against_beta_quadrature(dn, n_zero, rho):
    # Nt = 1: lambda ~ Beta(dn+1, N0+1), integrated by scipy's adaptive quad,
    # split where log1p(rho x) bends
    law = stats.beta(dn + 1, n_zero + 1)

    def moment(p):
        f = lambda x: math.log1p(rho * x) ** p * law.pdf(x)
        return integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200, points=[min(0.5, 1.0 / rho)])[0]

    m1, m2 = moment(1), moment(2)
    log_m, k1, k2 = rate_cumulants(1, dn, n_zero, rho)
    assert k1 == pytest.approx(m1, rel=1e-12, abs=0)
    assert k2 == pytest.approx(m2 - m1 * m1, rel=1e-10, abs=0)  # the reference's m2 - m1^2 cancels
    assert log_m == pytest.approx(_log_hankel(1, dn, n_zero), rel=0, abs=1e-12)


@pytest.mark.parametrize("dn, n_zero, rho", [(0, 0, 3.0), (1, 2, 10.0), (0, 3, 1e4), (2, 0, 1e-2)])
def test_two_channels_against_joint_density_quadrature(dn, n_zero, rho):
    # Nt = 2: the joint density (x - y)^2 w(x) w(y) on the unit square, by dblquad
    w = lambda x: x**dn * (1.0 - x) ** n_zero
    u = lambda x: math.log1p(rho * x)

    def integral(g):
        f = lambda y, x: (x - y) ** 2 * w(x) * w(y) * g(u(x) + u(y))
        return integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)[0]

    z = integral(lambda t: 1.0)
    m1, m2 = integral(lambda t: t) / z, integral(lambda t: t * t) / z
    log_m, k1, k2 = rate_cumulants(2, dn, n_zero, rho)
    assert k1 == pytest.approx(m1, rel=1e-12, abs=0)
    assert k2 == pytest.approx(m2 - m1 * m1, rel=1e-10, abs=0)
    assert log_m == pytest.approx(math.log(z / 2.0), rel=0, abs=1e-12)


# (N, Nt, Nr), rho -> E[I], Var[I] to the digits they were first printed with
ROWS = [
    ((18, 6, 6), 20.0, "1.6930793", "0.0139405"),
    ((12, 5, 5), 10.0, "1.3936360", "0.01355244"),
    ((200, 4, 4), 10.0, "0.1697869", "0.00130703"),
    ((7, 2, 3), 3.0, "0.765586", "0.0248242"),
    ((18, 6, 6), 1e4, "7.3883508", "0.07613311"),
]


def _half_unit_in_last_place(text: str) -> float:
    return 0.5 * 10.0 ** -len(text.partition(".")[2])


@pytest.mark.parametrize("shape, rho, mean, var", ROWS, ids=[f"{s}-{r:g}" for s, r, *_ in ROWS])
def test_moment_table_to_its_printed_digits(shape, rho, mean, var):
    dims = normalize_dims(*shape)
    got_mean, got_var = _mean_var(dims.Nt, dims.Nr - dims.Nt, dims.N0, rho)
    assert abs(got_mean - float(mean)) <= _half_unit_in_last_place(mean)
    assert abs(got_var - float(var)) <= _half_unit_in_last_place(var)
    log_m = rate_cumulants(dims.Nt, dims.Nr - dims.Nt, dims.N0, rho)[0]
    assert log_m == pytest.approx(_log_hankel(dims.Nt, dims.Nr - dims.Nt, dims.N0), rel=1e-13, abs=1e-12)


@pytest.mark.parametrize("shape, rho", [(row[0], row[1]) for row in ROWS] + [((4, 1, 3), 1e4), ((6, 3, 3), 1e-2)])
def test_doubling_the_nodes_changes_nothing_past_rounding(shape, rho):
    dims = normalize_dims(*shape)
    args = (dims.Nt, dims.Nr - dims.Nt, dims.N0, rho)
    base = rate_cumulants(*args)
    double = rate_cumulants(*args, n=2 * (96 + 8 * dims.Nt))
    for got, ref in zip(base[1:], double[1:]):
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_non_integer_exponents_are_flagged_by_doubling():
    # a non-integer dn or N0 slows the rule to algebraic convergence; the
    # n against 2n difference then measures the error that remains
    for dn, n_zero in ((0.5, 1.5), (0.3, 0.0)):
        law = stats.beta(dn + 1, n_zero + 1)
        f = lambda x: math.log1p(0.01 * x) * law.pdf(x)
        ref = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        k1 = rate_cumulants(1, dn, n_zero, 0.01)[1]
        k1_double = rate_cumulants(1, dn, n_zero, 0.01, n=208)[1]
        assert abs(k1 - ref) <= 2.0 * abs(k1 - k1_double)


# Monte Carlo at seed 5 and 2e5 trials.  Bounds: |z| <= 4 on the mean, with the
# oracle's own Var[I] / trials as its variance, and a variance within
# 4 sqrt(2/(trials - 1)) relative, four standard errors of a normal sample's variance
MC_TRIALS = 200_000
MEAN_Z = 4.0
VAR_REL = 4.0 * math.sqrt(2.0 / (MC_TRIALS - 1))


@pytest.mark.parametrize("shape, rho", [((12, 5, 5), 10.0), ((200, 4, 4), 10.0), ((7, 2, 3), 3.0)])
def test_monte_carlo_moments_agree(shape, rho):
    dims = normalize_dims(*shape)
    mean, var = _mean_var(dims.Nt, dims.Nr - dims.Nt, dims.N0, rho)
    mc_mean, mc_var = moments(McConfig(dims=dims, snr=SnrParam(rho), trials=MC_TRIALS, seed=5))
    assert abs(mc_mean - mean) <= MEAN_Z * math.sqrt(var / MC_TRIALS)
    assert abs(mc_var / var - 1.0) <= VAR_REL


# The Coulomb gas against the oracle on channels (n0, beta) at Nt = 32, 64 and
# 128, where dn = (beta-1) Nt and N0 = n0 Nt are integers.  The finite-Nt mean
# tends to the Coulomb rate with an O(1/Nt^2) remainder, so Richardson
# (4 f(2 Nt) - f(Nt))/3 on Nt and 2 Nt takes the limit.  At tiny rho the
# Coulomb rate misses it by more than _LD_TOL: its pole sum cancels there
# (ROADMAP item 6).
TINY_RHO = "ROADMAP item 6: the Coulomb gas's pole-sum rate cancels at tiny rho"


def _tiny_rho(*values):
    return pytest.param(*values, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=TINY_RHO))


def _mean(n0, beta, rho, nt, c=0.0):
    """kappa1/Nt of the channel (n0, beta) at Nt, tilted by e^{cX}: E[I] at c = 0."""
    return rate_cumulants(nt, (beta - 1.0) * nt, n0 * nt, rho, c=c)[1] / nt


def _richardson(f, nt):
    return (4.0 * f(2 * nt) - f(nt)) / 3.0


# ROADMAP item 10's table: c1 = lim Nt^2 (E[I] - r_erg), to its printed digits
C1_ROWS = [((1.0, 2.0, 10.0), 0.023060), ((1.0, 1.0, 20.0), 0.117901),
           ((0.0, 1.0, 10.0), 0.101134), ((0.25, 1.25, 100.0), 0.207285)]


@pytest.mark.parametrize("channel, c1", C1_ROWS, ids=[str(ch) for ch, _ in C1_ROWS])
def test_ergodic_rate_correction_matches_its_table(channel, c1):
    n0, beta, rho = channel
    r_erg = ergodic_summary(n0, beta, SnrParam(rho)).r
    got = _richardson(lambda nt: nt * nt * (_mean(n0, beta, rho, nt) - r_erg), 64)
    assert abs(got - c1) <= 1e-6


@pytest.mark.parametrize(
    "n0, beta, rho",
    [ch for ch, _ in C1_ROWS] + [(1.0, 1.0, 1e-2), (1.0, 1.0, 1e-4),
                                 _tiny_rho(1.0, 1.0, 1e-6), _tiny_rho(1.0, 2.0, 1e-6)],
)
def test_ergodic_rate_is_the_finite_nt_limit(n0, beta, rho):
    r_erg = ergodic_summary(n0, beta, SnrParam(rho)).r
    limit = _richardson(lambda nt: _mean(n0, beta, rho, nt), 64)
    assert abs(r_erg - limit) <= _LD_TOL * limit


@pytest.mark.parametrize(
    "regime, n0, beta, rho, k",
    [("S01", 0.0, 1.0, 1e4, -1.0), ("S0b", 1.0, 1.0, 20.0, -1.0), ("Sa1", 0.0, 4.0, 1e-6, -5.0),
     ("Sab", 1.0, 2.0, 10.0, -3.39233), ("Sab", 1.0, 2.0, 10.0, 2.0), _tiny_rho("Sab", 1.0, 2.0, 1e-6, -50.0)],
)
def test_multiplier_rate_is_the_tilted_finite_nt_limit(regime, n0, beta, rho, k):
    # the ensemble tilted by c = k Nt is the finite-Nt twin of the multiplier k
    sol = solve_at_multiplier(n0, beta, SnrParam(rho), k)
    assert sol.regime == regime
    limit = _richardson(lambda nt: _mean(n0, beta, rho, nt, c=k * nt), 32)
    assert abs(sol.r - limit) <= _LD_TOL * limit
