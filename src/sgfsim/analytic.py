"""Closed-form outage probability of the admitted grant-free user.

The admitted user is the maximum of K unit-mean exponential gains, so every
case probability reduces to expectations of order-statistic CDFs over the
GBU gain. Three evaluation routes are provided:

* ``outage_exact`` - exact alternating binomial series over the exponential
  integral kernel ``nu_kernel`` (valid for K >= 2),
* ``outage_exact_quadrature_oracle`` - adaptive quadrature of the
  order-statistic CDF integrands, independent of the series algebra,
* ``outage_highsnr`` / ``outage_diversity_asymptote`` - high-SNR power laws,
* ``outage_single_user`` - the K = 1 closed form and its approximation.

The alternating series cancel heavily for large K or small GFU power; terms
are accumulated with compensated summation and a ``ConditioningWarning`` is
emitted when the compensation grows past 1e-10 of the largest term. The
supported range is K <= 20 in double precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from math import comb, exp, expm1, factorial

from scipy.integrate import quad

from .model import SystemConfig

__all__ = [
    "NumericalRangeError",
    "QuadratureError",
    "ConditioningWarning",
    "AnalyticTerms",
    "OutageBreakdown",
    "nu_kernel",
    "outage_exact",
    "outage_exact_quadrature_oracle",
    "outage_highsnr",
    "outage_diversity_asymptote",
    "outage_single_user",
    "outage_probability",
    "outage_probability_highsnr",
]

# degenerate-branch switch for the integral kernel
_DEGENERATE_TOL = 1e-10
# allowed excursion of a closed-form probability outside [0, 1] before it is
# treated as a formula bug rather than rounding noise
_EXCURSION_TOL = 1e-9
# compensation-to-largest-term ratio that triggers a conditioning warning
_CONDITIONING_TOL = 1e-10
# quadrature error estimate above which the oracle refuses to answer
_QUAD_FAIL_TOL = 1e-8


class NumericalRangeError(ArithmeticError):
    """A closed-form evaluation left the representable/probability range."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


class ConditioningWarning(RuntimeWarning):
    """An alternating series lost significant precision to cancellation."""


class _CompensatedSum:
    """Neumaier-compensated accumulator that tracks the largest |term|."""

    __slots__ = ("_sum", "_comp", "max_abs_term")

    def __init__(self) -> None:
        self._sum = 0.0
        self._comp = 0.0
        self.max_abs_term = 0.0

    def add(self, value: float) -> None:
        self.max_abs_term = max(self.max_abs_term, abs(value))
        total = self._sum + value
        if abs(self._sum) >= abs(value):
            self._comp += (self._sum - total) + value
        else:
            self._comp += (value - total) + self._sum
        self._sum = total

    @property
    def compensation(self) -> float:
        return self._comp

    @property
    def result(self) -> float:
        return self._sum + self._comp


def _finish_sum(acc: _CompensatedSum, where: str) -> float:
    """Close out a compensated sum, flagging cancellation and range problems."""
    value = acc.result
    if not math.isfinite(value):
        raise NumericalRangeError(f"nonfinite intermediate while evaluating {where}")
    if acc.max_abs_term > 0.0 and abs(acc.compensation) > _CONDITIONING_TOL * acc.max_abs_term:
        warnings.warn(
            f"{where}: compensated-sum residual {abs(acc.compensation):.3e} exceeds "
            f"{_CONDITIONING_TOL:g} of the largest term {acc.max_abs_term:.3e}; "
            "the alternating series is poorly conditioned here",
            ConditioningWarning,
            stacklevel=3,
        )
    return value


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
    the bucket where only the strongest clears it. ``tilde_mu5``/``tilde_mu6``
    are the matching constants of the pre-series conditional probabilities.
    """

    config: SystemConfig

    def __post_init__(self) -> None:
        if self.config.num_gfus < 2:
            raise ValueError("series coefficients require num_gfus >= 2")

    @property
    def phi0(self) -> float:
        k = self.config.num_gfus
        return factorial(k) / factorial(k - 2)

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

    def tilde_mu5(self, k: int) -> float:
        cfg = self.config
        e0, es = cfg.eps0, cfg.eps_s
        return exp(-(cfg.num_gfus - k) * (e0 + es + e0 * es) / cfg.power_gfu)

    def tilde_mu6(self, k: int) -> float:
        cfg = self.config
        return -(cfg.num_gfus - k) * cfg.power_gbu / cfg.power_gfu


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
            f"{op} requires num_gfus >= 2; use outage_single_user for num_gfus == 1"
        )
    return config.num_gfus


def outage_exact(config: SystemConfig) -> OutageBreakdown:
    """Exact outage probability of the admitted GFU, per case (K >= 2).

    Valid for all positive target rates; no small-target restriction.
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

    p2_terms: list[float] = []

    # bucket k = 0: every GFU clears the threshold
    acc = _CompensatedSum()
    for n in range(big_k + 1):
        sign = -1.0 if n % 2 else 1.0
        acc.add(comb(big_k, n) * sign * terms.mu1(n) * nu_kernel(0, terms.mu2(n), config))
    p2_terms.append(_finish_sum(acc, "case-II k=0 series"))

    # buckets 1 <= k <= K-2
    for k in range(1, big_k - 1):
        acc = _CompensatedSum()
        for m in range(big_k - k + 1):
            sign_m = -1.0 if m % 2 else 1.0
            mu3 = terms.mu3(k, m)
            mu4 = terms.mu4(k, m)
            for n in range(k + 1):
                sign_n = -1.0 if n % 2 else 1.0
                acc.add(
                    comb(big_k - k, m)
                    * sign_m
                    * comb(k, n)
                    * sign_n
                    * exp(n / ps)
                    * mu3
                    * nu_kernel(n, mu4, config)
                )
        p2_terms.append(terms.phi_k(k) * _finish_sum(acc, f"case-II k={k} series"))

    # bucket k = K-1: only the strongest GFU clears the threshold
    acc = _CompensatedSum()
    scale = exp(-(e0 + es + e0 * es) / ps)
    for n in range(big_k):
        sign = -1.0 if n % 2 else 1.0
        acc.add(
            comb(big_k - 1, n)
            * sign
            * exp(n / ps)
            * (
                exp(1.0 / ps) * nu_kernel(n, terms.mu5, config)
                - scale * nu_kernel(n, terms.mu6, config)
            )
        )
    p2_terms.append(big_k * _finish_sum(acc, "case-II k=K-1 series"))

    # case I: the strongest GFU fits under a positive threshold
    acc = _CompensatedSum()
    for n in range(big_k + 1):
        sign = -1.0 if n % 2 else 1.0
        acc.add(comb(big_k, n) * sign * exp(n / ps) * nu_kernel(n, 0.0, config))
    p1 = _finish_sum(acc, "case-I series") + (-expm1(-eta_s)) ** big_k * exp(
        -eta0 * (1.0 + es)
    )

    # case III: the threshold is zero
    acc = _CompensatedSum()
    for n in range(big_k + 1):
        sign = -1.0 if n % 2 else 1.0
        denom = 1.0 + n * eta_s * config.power_gbu
        acc.add(comb(big_k, n) * sign * exp(-n * eta_s) * (-expm1(-denom * eta0)) / denom)
    p3 = _finish_sum(acc, "case-III series")

    return _build_breakdown(p1, p2_terms, p3)


def _quad(fn, lo: float, hi: float, abs_tol: float, where: str) -> float:
    value, err = quad(fn, lo, hi, epsabs=abs_tol, epsrel=1e-12, limit=200)
    if err > _QUAD_FAIL_TOL:
        raise QuadratureError(f"quadrature did not converge for {where}", achieved_tol=err)
    return value


def outage_exact_quadrature_oracle(
    config: SystemConfig, abs_tol: float = 1e-10
) -> OutageBreakdown:
    """Outage probability via direct numerical integration (K >= 2).

    Integrates the exact conditional order-statistic CDF expressions over
    the GBU gain with adaptive quadrature, bypassing the binomial-series
    algebra entirely. Intended as an independent cross-check of
    ``outage_exact``.
    """
    big_k = _require_multi_user(config, "outage_exact_quadrature_oracle")
    p0, ps = config.power_gbu, config.power_gfu
    e0, es = config.eps0, config.eps_s
    eta0, eta_s = config.eta0, config.eta_s
    lo, hi = eta0, eta0 * (1.0 + es)

    def floor_gain(x: float) -> float:
        # GFU gain whose received power equals the (positive) threshold
        return (x / eta0 - 1.0) / ps

    def ceil_gain(x: float) -> float:
        # largest best-user gain that still leaves the total rate short
        return ((1.0 + e0) * (1.0 + es) - 1.0 - p0 * x) / ps

    def bucket_integrand(k: int):
        def fn(x: float) -> float:
            a = floor_gain(x)
            b = ceil_gain(x)
            if b <= a:
                return 0.0
            below = -expm1(-a)
            inside = exp(-a) - exp(-b)
            return comb(big_k, k) * below**k * inside ** (big_k - k) * exp(-x)

        return fn

    p2_terms = [
        _quad(bucket_integrand(k), lo, hi, abs_tol, f"case-II bucket k={k}")
        for k in range(big_k)
    ]

    def case1_core(x: float) -> float:
        return (-expm1(-floor_gain(x))) ** big_k * exp(-x)

    def case1_tail(x: float) -> float:
        return (-expm1(-eta_s)) ** big_k * exp(-x)

    p1 = _quad(case1_core, lo, hi, abs_tol, "case-I core") + _quad(
        case1_tail, hi, math.inf, abs_tol, "case-I tail"
    )

    def case3_integrand(x: float) -> float:
        return (-expm1(-eta_s * (1.0 + p0 * x))) ** big_k * exp(-x)

    p3 = _quad(case3_integrand, 0.0, lo, abs_tol, "case-III")

    return _build_breakdown(p1, p2_terms, p3)


def outage_highsnr(config: SystemConfig) -> float:
    """High-SNR approximation of the admitted GFU's outage probability (K >= 2).

    Derived for both transmit SNRs growing together; only the GFU power
    appears explicitly. The middle buckets contribute for K >= 3 and the sum
    over them is empty at K = 2. The value is not clamped: at moderate SNR
    it may sit slightly off the exact bracket.
    """
    big_k = _require_multi_user(config, "outage_highsnr")
    ps = config.power_gfu
    e0, es = config.eps0, config.eps_s
    phi0 = big_k * (big_k - 1)

    # bucket k = 0
    inner = math.fsum(
        comb(big_k, n)
        * (-1.0 if n % 2 else 1.0)
        / (n + 1)
        * ((1.0 + es) ** (big_k + 1) - (1.0 + es) ** (big_k - n))
        for n in range(big_k + 1)
    )
    total = phi0 * e0 * (1.0 + e0) ** big_k / (ps ** (big_k + 1) * big_k * (big_k - 1)) * inner

    # buckets 1 <= k <= K-2 (empty sum at K = 2)
    for k in range(1, big_k - 1):
        inner = math.fsum(
            comb(big_k - k, m)
            * (-1.0 if m % 2 else 1.0)
            * (1.0 + es) ** (big_k - k - m)
            * comb(k, n)
            * (-1.0 if n % 2 else 1.0)
            * ((1.0 + es) ** (m + n + 1) - 1.0)
            / (m + n + 1)
            for m in range(big_k - k + 1)
            for n in range(k + 1)
        )
        total += (
            comb(big_k, k)
            * e0
            * (1.0 + e0) ** (big_k - k)
            * (-1.0 if k % 2 else 1.0)
            / ps ** (big_k + 1)
            * inner
        )

    # bucket k = K-1
    total += phi0 * e0 * es**big_k * (1.0 + e0) * (1.0 + es) / (
        ps ** (big_k + 1) * big_k * (big_k - 1)
    )
    total -= phi0 * es**big_k * (1.0 / e0 + 1.0) * (big_k * (1.0 + es) + 1.0) / (
        ps ** (big_k + 1) * big_k * (big_k - 1) * (big_k + 1)
    )

    # case I
    total += e0 * es ** (big_k + 1) / ((big_k + 1) * ps ** (big_k + 1))
    total += es**big_k / ps**big_k
    total -= e0 * es**big_k * (1.0 + es) / ps ** (big_k + 1)

    # case III
    total += es**big_k * ((1.0 + e0) ** (big_k + 1) - 1.0) / (ps ** (big_k + 1) * (big_k + 1))
    total -= es**big_k * (
        (e0 * (big_k + 1) - 1.0) * (1.0 + e0) ** (big_k + 1) + 1.0
    ) / (ps ** (big_k + 2) * (big_k + 2) * (big_k + 1))

    return total


def outage_diversity_asymptote(config: SystemConfig) -> float:
    """Leading-order outage power law (eps_s / power_gfu) ** K.

    Its log-log slope against the GFU power is exactly -K: the scheme keeps
    the full multiuser diversity order.
    """
    return (config.eps_s / config.power_gfu) ** config.num_gfus


def outage_single_user(config: SystemConfig) -> tuple[float, float]:
    """Exact and high-SNR outage probability for the single-GFU pairing (K = 1)."""
    if config.num_gfus != 1:
        raise ValueError(
            f"outage_single_user requires num_gfus == 1, got {config.num_gfus}; "
            "use outage_exact for num_gfus >= 2"
        )
    p0, ps = config.power_gbu, config.power_gfu
    e0, es = config.eps0, config.eps_s
    eta0, eta_s = config.eta0, config.eta_s
    try:
        exact = (
            1.0
            - exp(-(e0 + es + e0 * es) / ps) * nu_kernel(0, -p0 / ps, config)
            - exp(-eta_s - eta0 * (1.0 + es))
            - exp(-eta_s) * (-expm1(-eta0 - e0 * eta_s)) / (1.0 + p0 * eta_s)
        )
    except OverflowError as err:
        raise NumericalRangeError(
            "single-user closed form overflowed double precision"
        ) from err
    return _clip_probability(exact, "single-user outage"), es / ps


def outage_probability(config: SystemConfig) -> float:
    """Exact outage probability for any K >= 1 (dispatching facade)."""
    if config.num_gfus == 1:
        return outage_single_user(config)[0]
    return outage_exact(config).total


def outage_probability_highsnr(config: SystemConfig) -> float:
    """High-SNR outage approximation for any K >= 1 (dispatching facade)."""
    if config.num_gfus == 1:
        return outage_single_user(config)[1]
    return outage_highsnr(config)
