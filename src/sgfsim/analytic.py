"""Outage probability of the admitted grant-free user.

The admitted user is the maximum of K unit-mean exponential gains, so every
case probability reduces to expectations of order-statistic CDFs over the
GBU gain. The evaluation routes are:

* ``outage_quadrature`` - the production evaluator (any K >= 1): fixed 48-
  and 64-node Gauss-Legendre rules over the positive order-statistic
  integrands, split at the kink x* = eta0 * (1 + eps_s); it answers to
  ~1e-13 relative and raises ``NumericalRangeError`` where the two rules
  disagree,
* ``outage_exact`` - the paper's alternating binomial series over the
  exponential integral kernel ``nu_kernel`` (K >= 2), kept as the reference
  formula,
* ``outage_highsnr`` / ``outage_diversity_asymptote`` - high-SNR power laws;
  at K = 1 the diversity law eps_s / P_s is the approximation.

The paper's alternating series cancel heavily for large K, high SNR or small
GFU power. Each series is summed with ``math.fsum``, which is correctly
rounded, so what is lost is the terms' own rounding magnified by the
condition number kappa = sum|t| / |sum t|; a ``ConditioningWarning`` naming
the series and kappa is emitted when kappa * 2**-53 exceeds 1e-10 relative.
The high-SNR approximation is a closed form whose double sums collapse
exactly, so it does not cancel.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from math import comb, exp, expm1, factorial

import numpy as np

from .model import SystemConfig

__all__ = [
    "NumericalRangeError",
    "ConditioningWarning",
    "AnalyticTerms",
    "OutageBreakdown",
    "nu_kernel",
    "outage_exact",
    "outage_quadrature",
    "outage_highsnr",
    "outage_diversity_asymptote",
    "outage_probability",
    "outage_probability_highsnr",
]

# degenerate-branch switch for the integral kernel
_DEGENERATE_TOL = 1e-10
# allowed excursion of a closed-form probability outside [0, 1] before it is
# treated as a formula bug rather than rounding noise
_EXCURSION_TOL = 1e-9
# relative-error bound kappa * 2**-53 of a series sum past which it warns
_CONDITIONING_TOL = 1e-10
# relative disagreement of the two Gauss-Legendre rules that refuses an answer
_RULE_AGREEMENT = 1e-10


class NumericalRangeError(ArithmeticError):
    """A closed-form evaluation left the representable/probability range."""


class ConditioningWarning(RuntimeWarning):
    """An alternating series lost significant precision to cancellation."""


def _series_sum(terms: list[float], where: str) -> float:
    """Correctly rounded sum of one of the paper's alternating series.

    ``math.fsum`` adds the terms without rounding error of its own, so the
    result is off only by the terms' own rounding magnified by cancellation:
    a relative error of about kappa * 2**-53 with kappa = sum|t| / |sum t|.
    ``ConditioningWarning`` is emitted when that bound exceeds 1e-10.
    """
    try:
        total = math.fsum(terms)
        magnitude = math.fsum(map(abs, terms))
    except (ValueError, OverflowError):  # inf - inf, or a partial sum overflowed
        total = math.nan
    if not math.isfinite(total):
        raise NumericalRangeError(f"nonfinite intermediate while evaluating {where}")
    if magnitude * 2.0**-53 > _CONDITIONING_TOL * abs(total):
        kappa = magnitude / abs(total) if total else math.inf
        warnings.warn(
            f"{where}: condition number {kappa:.3e} bounds the relative error by "
            f"{kappa * 2.0**-53:.3e}, above {_CONDITIONING_TOL:g}; the alternating "
            "series cancels too heavily here, use outage_quadrature",
            ConditioningWarning,
            stacklevel=4,
        )
    return total


def _clip_probability(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise NumericalRangeError(f"nonfinite value for {where}")
    if value < -_EXCURSION_TOL or value > 1.0 + _EXCURSION_TOL:
        raise NumericalRangeError(
            f"{where} = {value!r} lies outside [0, 1] beyond rounding tolerance"
        )
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class AnalyticTerms:
    """Coefficients of the outage series for one configuration (K >= 2).

    ``mu1``/``mu2`` drive the bucket where every GFU clears the threshold,
    ``mu3``/``mu4`` the buckets where k users fall below it, ``mu5``/``mu6``
    the bucket where only the strongest clears it.
    """

    config: SystemConfig

    def __post_init__(self) -> None:
        if self.config.num_gfus < 2:
            raise ValueError("series coefficients require num_gfus >= 2")

    def phi_k(self, k: int) -> float:
        kk = self.config.num_gfus
        if not 1 <= k <= kk - 2:
            raise ValueError(f"phi_k defined for 1 <= k <= {kk - 2}, got {k}")
        return factorial(kk) / (factorial(k) * factorial(kk - k))

    def mu1(self, n: int) -> float:
        cfg = self.config
        return exp((cfg.num_gfus - n * (1.0 + cfg.eps0) * (1.0 + cfg.eps_s)) / cfg.power_gfu)

    def mu2(self, n: int) -> float:
        cfg = self.config
        return (cfg.num_gfus - n) / (cfg.power_gfu * cfg.eta0) - n * cfg.power_gbu / cfg.power_gfu

    def mu3(self, k: int, m: int) -> float:
        cfg = self.config
        return exp(
            (cfg.num_gfus - k - m * (1.0 + cfg.eps0) * (1.0 + cfg.eps_s)) / cfg.power_gfu
        )

    def mu4(self, k: int, m: int) -> float:
        cfg = self.config
        return (cfg.num_gfus - k - m) / (cfg.power_gfu * cfg.eta0) - m * cfg.power_gbu / cfg.power_gfu

    @property
    def mu5(self) -> float:
        cfg = self.config
        return 1.0 / (cfg.power_gfu * cfg.eta0)

    @property
    def mu6(self) -> float:
        cfg = self.config
        return -cfg.power_gbu / cfg.power_gfu


def nu_kernel(n: int, mu: float, config: SystemConfig) -> float:
    """Integral of exp(-(n/(Ps*eta0) + mu + 1) x) over [eta0, eta0*(1+eps_s)].

    When the exponent coefficient vanishes the integrand is 1 and the value
    is the interval length eps_s*eta0; the same branch is taken within a
    relative neighbourhood of the degenerate point to avoid 0/0 (the kernel
    is continuous there).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    eta0 = config.eta0
    es = config.eps_s
    c = n / (config.power_gfu * eta0) + mu + 1.0
    if abs(c) < _DEGENERATE_TOL * (1.0 + abs(mu)):
        return es * eta0
    # exp(-eta0*c) - exp(-eta0*(1+es)*c), factored through expm1 so small |c|
    # does not cancel
    return exp(-eta0 * c) * (-expm1(-eta0 * es * c)) / c


@dataclass(frozen=True)
class OutageBreakdown:
    """Per-case decomposition of the admitted GFU's outage probability.

    ``p_case2_terms[k]`` is the contribution of blocks where exactly k GFU
    gains fall below the broadcast threshold, k = 0..K-1.
    """

    p_case1: float
    p_case2_terms: tuple[float, ...]
    p_case3: float
    total: float

    @property
    def p_case2(self) -> float:
        return math.fsum(self.p_case2_terms)


def _build_breakdown(p1: float, p2_terms: list[float], p3: float) -> OutageBreakdown:
    p1 = _clip_probability(p1, "case-I probability")
    p2 = tuple(
        _clip_probability(t, f"case-II probability (k={k})") for k, t in enumerate(p2_terms)
    )
    p3 = _clip_probability(p3, "case-III probability")
    total = _clip_probability(math.fsum((p1, *p2, p3)), "total outage probability")
    return OutageBreakdown(p_case1=p1, p_case2_terms=p2, p_case3=p3, total=total)


def _require_multi_user(config: SystemConfig, op: str) -> int:
    if config.num_gfus < 2:
        raise ValueError(
            f"{op} requires num_gfus >= 2; use outage_probability for num_gfus == 1"
        )
    return config.num_gfus


def outage_exact(config: SystemConfig) -> OutageBreakdown:
    """Exact outage probability of the admitted GFU, per case (K >= 2).

    The paper's binomial series, valid for all positive target rates and
    kept as the reference formula; ``outage_quadrature`` is the production
    evaluator. Each series is summed correctly rounded by ``math.fsum``, so a
    result is accurate to about kappa * 2**-53 relative, kappa being the
    series' condition number sum|t| / |sum t|. Where that bound exceeds 1e-10
    (large K, high SNR) a ``ConditioningWarning`` names the series and kappa;
    where no warning is emitted the total holds 1e-9 relative. An overflowing
    or nonfinite series raises ``NumericalRangeError``.
    """
    _require_multi_user(config, "outage_exact")
    try:
        return _outage_exact_series(config)
    except OverflowError as err:
        raise NumericalRangeError(
            "closed-form series overflowed double precision; the GFU power is "
            "too small for these thresholds"
        ) from err


def _outage_exact_series(config: SystemConfig) -> OutageBreakdown:
    big_k = config.num_gfus
    terms = AnalyticTerms(config)
    ps = config.power_gfu
    eta0, eta_s = config.eta0, config.eta_s
    e0, es = config.eps0, config.eps_s

    def sign(i: int) -> float:
        return -1.0 if i % 2 else 1.0

    # bucket k = 0: every GFU clears the threshold
    bucket0 = [
        comb(big_k, n) * sign(n) * terms.mu1(n) * nu_kernel(0, terms.mu2(n), config)
        for n in range(big_k + 1)
    ]
    p2_terms = [_series_sum(bucket0, "case-II k=0 series")]

    # buckets 1 <= k <= K-2
    for k in range(1, big_k - 1):
        bucket = [
            comb(big_k - k, m) * sign(m) * comb(k, n) * sign(n) * exp(n / ps)
            * terms.mu3(k, m) * nu_kernel(n, terms.mu4(k, m), config)
            for m in range(big_k - k + 1)
            for n in range(k + 1)
        ]
        p2_terms.append(terms.phi_k(k) * _series_sum(bucket, f"case-II k={k} series"))

    # bucket k = K-1: only the strongest GFU clears the threshold
    scale = exp(-(e0 + es + e0 * es) / ps)
    last = [
        comb(big_k - 1, n) * sign(n) * exp(n / ps)
        * (exp(1.0 / ps) * nu_kernel(n, terms.mu5, config)
           - scale * nu_kernel(n, terms.mu6, config))
        for n in range(big_k)
    ]
    p2_terms.append(big_k * _series_sum(last, "case-II k=K-1 series"))

    # case I: the strongest GFU fits under a positive threshold
    case1 = [
        comb(big_k, n) * sign(n) * exp(n / ps) * nu_kernel(n, 0.0, config)
        for n in range(big_k + 1)
    ]
    p1 = _series_sum(case1, "case-I series") + (-expm1(-eta_s)) ** big_k * exp(
        -eta0 * (1.0 + es)
    )

    # case III: the threshold is zero
    case3 = []
    for n in range(big_k + 1):
        denom = 1.0 + n * eta_s * config.power_gbu
        case3.append(comb(big_k, n) * sign(n) * exp(-n * eta_s) * (-expm1(-denom * eta0)) / denom)
    p3 = _series_sum(case3, "case-III series")

    return _build_breakdown(p1, p2_terms, p3)


def _gauss_legendre_pair(coarse: int, fine: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of two Gauss-Legendre rules on [0, 1], side by side, and a
    (nodes, 2) weight matrix whose columns apply the coarse and the fine rule."""
    rules = [np.polynomial.legendre.leggauss(n) for n in (coarse, fine)]
    nodes = 0.5 * (np.concatenate([x for x, _ in rules]) + 1.0)
    weights = np.zeros((nodes.size, 2))
    weights[:coarse, 0] = 0.5 * rules[0][1]
    weights[coarse:, 1] = 0.5 * rules[1][1]
    return nodes, weights


# the 64-node rule answers and the 48-node rule checks it
_GAUSS_NODES, _GAUSS_WEIGHTS = _gauss_legendre_pair(48, 64)


def outage_quadrature(config: SystemConfig) -> OutageBreakdown:
    """Outage probability of the admitted GFU by Gauss-Legendre quadrature (K >= 1).

    The production evaluator behind ``outage_probability``: the three case
    integrals over the GBU gain x ~ Exp(1). With F(y) = -expm1(-y) and u in
    [0, 1], the case-I/II interval [eta0, x*] is x = eta0 * (1 + eps_s * u).
    There the weakest GFU gain that clears the threshold is a = eta_s * u
    and the band of gains below the ceiling is d = (1 + eps0) * eta_s * (1 - u).
    Case-II bucket k is the product C(K, k) F(a)^k (exp(-a) F(d))^(K-k) exp(-x)
    of positive factors, and the row k = K is the case-I core F(a)^K exp(-x);
    nothing cancels, and all K + 1 rows are integrated in one product.

    The 48- and the 64-node rule are both evaluated and the 64-node breakdown
    is returned. ``NumericalRangeError`` is raised where their totals differ
    by more than 1e-10 relative (the integrands vary too fast for a fixed
    rule) or where the total is below the smallest normal double.
    """
    big_k = config.num_gfus
    u, w = _GAUSS_NODES, _GAUSS_WEIGHTS
    e0, es = config.eps0, config.eps_s
    eta0, eta_s = config.eta0, config.eta_s
    try:
        # case III: x in [0, eta0]
        x = eta0 * u
        p3 = eta0 * ((-np.expm1(-eta_s * (1.0 + config.power_gbu * x))) ** big_k * np.exp(-x) @ w)

        # case-II buckets k = 0..K-1 and the case-I core, x in [eta0, x*]
        a = eta_s * u
        band = np.exp(-a) * -np.expm1(-(1.0 + e0) * eta_s * (1.0 - u))
        ks = np.arange(big_k + 1)[:, None]
        rows = (-np.expm1(-a)) ** ks * band ** (big_k - ks)
        binomials = np.array([comb(big_k, k) for k in range(big_k + 1)], dtype=float)[:, None]
        density = eta0 * es * np.exp(-eta0 * (1.0 + es * u))  # dx/du times exp(-x)
        terms = binomials * (rows @ (w * density[:, None]))

        # case-I tail: beyond x* the strongest GFU clears the threshold alone
        tail = (-expm1(-eta_s)) ** big_k * exp(-eta0 * (1.0 + es))
    except OverflowError as err:
        raise NumericalRangeError("quadrature overflowed double precision") from err
    coarse, fine = (math.fsum((*terms[:, j].tolist(), tail, float(p3[j]))) for j in (0, 1))
    if fine < sys.float_info.min:
        raise NumericalRangeError(
            f"quadrature total {fine!r} is below the smallest normal double; no "
            "relative precision can be held"
        )
    if not abs(coarse - fine) <= _RULE_AGREEMENT * fine:
        raise NumericalRangeError(
            f"the 48- and 64-node rules disagree ({coarse!r} vs {fine!r}); "
            "the integrands vary too fast for a fixed quadrature rule here"
        )
    return _build_breakdown(float(terms[big_k, 1]) + tail, terms[:big_k, 1].tolist(), float(p3[1]))


def outage_highsnr(config: SystemConfig) -> float:
    """High-SNR approximation of the admitted GFU's outage probability (K >= 2).

    Derived for both transmit SNRs growing together; only the GFU power
    appears explicitly. The value is not clamped: at moderate SNR it may sit
    slightly off the exact bracket.

    The paper writes buckets 0..K-2 as double binomial sums; each collapses to
    a Beta integral, (-1)^k eps_s^(K+1) k! (K-k)! / (K+1)!, so together they
    are e0 r^(K+1) / (K+1) * sum (1+e0)^(K-k) with r = eps_s / P_s. Every term
    is written in r so that no intermediate overflows.
    """
    big_k = _require_multi_user(config, "outage_highsnr")
    ps = config.power_gfu
    e0, es = config.eps0, config.eps_s
    r = es / ps
    rk = r**big_k
    g = 1.0 + e0
    gk1 = g ** (big_k + 1)

    # buckets 0 <= k <= K-2 (only k = 0 at K = 2)
    total = e0 * rk * r / (big_k + 1) * math.fsum(g ** (big_k - k) for k in range(big_k - 1))

    # bucket k = K-1
    total += e0 * g * (1.0 + es) * rk / ps
    total -= (g / e0) * (big_k * (1.0 + es) + 1.0) * rk / (ps * (big_k + 1))

    # case I
    total += e0 * rk * r / (big_k + 1)
    total += rk
    total -= e0 * (1.0 + es) * rk / ps

    # case III
    total += (gk1 - 1.0) * rk / (ps * (big_k + 1))
    total -= ((e0 * (big_k + 1) - 1.0) * gk1 + 1.0) * rk / (ps * ps * (big_k + 2) * (big_k + 1))

    return total


def outage_diversity_asymptote(config: SystemConfig) -> float:
    """Leading-order outage power law (eps_s / power_gfu) ** K.

    Its log-log slope against the GFU power is exactly -K: the scheme keeps
    the full multiuser diversity order.
    """
    return (config.eps_s / config.power_gfu) ** config.num_gfus


def outage_probability(config: SystemConfig) -> float:
    """Exact outage probability for any K >= 1."""
    return outage_quadrature(config).total


def outage_probability_highsnr(config: SystemConfig) -> float:
    """High-SNR outage approximation for any K >= 1.

    At K = 1 the leading term eps_s / P_s is the whole approximation.
    """
    if config.num_gfus == 1:
        return outage_diversity_asymptote(config)
    return outage_highsnr(config)
