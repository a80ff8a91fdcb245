"""Benchmark-owned reference for the admitted GFU's outage probability.

Tight adaptive quadrature (``epsabs=0``) of the three case integrals over the
GBU gain x ~ Exp(1), written from the system model alone so that it does not
depend on ``sgfsim.analytic`` and survives any rewrite of it. With F(y) =
1 - exp(-y) the CDF of one unit-mean exponential gain and K GFUs:

* Case III, x in [0, eta0]: F(eta_s (1 + P0 x))**K;
* Case I, x in [eta0, x*]: F(a)**K with a = (x/eta0 - 1)/Ps, plus the tail
  F(eta_s)**K exp(-x*) for x > x*;
* Case II, x in [eta0, x*]: F(a + d)**K - F(a)**K with
  d = (P0 + 1/eta0)(x* - x)/Ps, evaluated as the positive product
  (F(a + d) - F(a)) * sum_j F(a + d)**j F(a)**(K-1-j) so it never cancels.

x* = (1+eps0)(1+eps_s)/(1/eta0 + P0) is the kink beyond which the case-II
outage event is empty; integrating exactly up to it keeps every integrand
smooth on its interval.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

# quadrature settings: pure relative tolerance, generous subdivision budget
EPSREL = 1e-13
LIMIT = 400
# a reported error estimate above this share of the value fails the reference
MAX_REL_ERR_ESTIMATE = 1e-10


class ReferenceError(ArithmeticError):
    """The reference quadrature could not certify its own accuracy."""


def _cdf(y: float) -> float:
    return -math.expm1(-y)


def _integrate(fn, lo: float, hi: float, where: str) -> float:
    if hi <= lo:
        return 0.0
    value, err = quad(fn, lo, hi, epsabs=0.0, epsrel=EPSREL, limit=LIMIT)
    if not math.isfinite(value) or value < 0.0 or err > MAX_REL_ERR_ESTIMATE * max(value, 1e-300):
        raise ReferenceError(f"{where}: value {value!r} with error estimate {err!r}")
    return value


def case_probabilities(
    num_gfus: int, power_gbu: float, power_gfu: float, rate_gbu: float, rate_gfu: float
) -> tuple[float, float, float]:
    """(case I, case II, case III) GFU-outage probabilities of the rate-splitting scheme."""
    k = num_gfus
    p0, ps = power_gbu, power_gfu
    e0, es = 2.0**rate_gbu - 1.0, 2.0**rate_gfu - 1.0
    eta0, eta_s = e0 / p0, es / ps
    x_star = (1.0 + e0) * (1.0 + es) / (1.0 / eta0 + p0)
    slope = (p0 + 1.0 / eta0) / ps
    span = x_star - eta0

    def case3(x: float) -> float:
        return _cdf(eta_s * (1.0 + p0 * x)) ** k * math.exp(-x)

    # the case-I and case-II integrands take t = x - eta0 in [0, x* - eta0]
    def case1(t: float) -> float:
        return _cdf(t / (eta0 * ps)) ** k * math.exp(-(eta0 + t))

    def case2(t: float) -> float:
        a = t / (eta0 * ps)
        d = slope * (span - t)
        fa, fb = _cdf(a), _cdf(a + d)
        power_sum = math.fsum(fb**j * fa ** (k - 1 - j) for j in range(k))
        return math.exp(-a) * _cdf(d) * power_sum * math.exp(-(eta0 + t))

    p1 = _integrate(case1, 0.0, span, "case I") + _cdf(eta_s) ** k * math.exp(-x_star)
    p2 = _integrate(case2, 0.0, span, "case II")
    p3 = _integrate(case3, 0.0, eta0, "case III")
    return p1, p2, p3


def outage_reference(config) -> float:
    """Reference GFU outage probability for an ``sgfsim.SystemConfig``-like object."""
    return math.fsum(
        case_probabilities(
            config.num_gfus,
            config.power_gbu,
            config.power_gfu,
            config.target_rate_gbu,
            config.target_rate_gfu,
        )
    )
