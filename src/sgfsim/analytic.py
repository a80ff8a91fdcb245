"""Outage probability of the admitted grant-free user.

The admitted user is the maximum of K unit-mean exponential gains, so every
case probability is an expectation of order-statistic CDFs over the GBU gain:

* ``outage_probability`` - the production evaluator (any K >= 1): the case-I/II
  sum, one CDF on [eta0, eta0 * (1 + eps_s)], and case III on [0, eta0], both
  F(B)^K exp(-C), in one stacked pass over the 48- and 64-node Gauss-Legendre
  nodes; it answers to ~1e-13 relative and raises ``NumericalRangeError``
  where the rules disagree by more than 1e-10 or the total is subnormal,
* ``outage_quadrature`` - the same pass, plus the per-case breakdown by both
  rules on the same nodes: each part holds 1e-10 * total, or it raises too,
* ``outage_exact`` - the paper's alternating binomial series over the
  exponential integral kernel ``nu_kernel`` (every K >= 1), the reference formula,
* ``outage_probability_highsnr`` / ``outage_diversity_asymptote`` - high-SNR
  power laws; at K = 1 the diversity law eps_s / P_s is the approximation.

The paper's alternating series cancel heavily for large K, high SNR or small
GFU power. Each is summed with ``math.fsum``, correctly rounded, so what is
lost is the terms' own rounding magnified by the condition number kappa =
sum|t| / |sum t|; a ``ConditioningWarning`` naming the series and kappa is
emitted when kappa * 2**-53 exceeds 1e-10 relative. The high-SNR
approximation is a closed form whose eight terms still cancel, and it warns of
nothing: README's "Numerical range" names a config where its largest term is
1,907 times the value, which bounds its relative error by about 4e-13.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from math import comb, exp, expm1

import numpy as np

from .model import SystemConfig

__all__ = [
    "NumericalRangeError",
    "ConditioningWarning",
    "OutageBreakdown",
    "nu_kernel",
    "outage_exact",
    "outage_quadrature",
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
    """Correctly rounded ``math.fsum`` of one of the paper's alternating series,
    with the module docstring's ``ConditioningWarning`` where kappa * 2**-53 > 1e-10."""
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
    gains fall below the broadcast threshold, k = 0..K-1. ``outage_quadrature``
    holds each part to 1e-10 * total by both rules, or raises.
    """

    p_case1: float
    p_case2_terms: tuple[float, ...]
    p_case3: float
    total: float

    @property
    def p_case2(self) -> float:
        return math.fsum(self.p_case2_terms)


def _build_breakdown(
    p1: float, p2_terms: list[float], p3: float, total: float | None = None
) -> OutageBreakdown:
    """Clip the parts to [0, 1]; ``total`` defaults to the clipped sum of the parts."""
    if all(0.0 <= t <= 1.0 for t in (p1, *p2_terms, p3)):
        # in range, so clipping is abs: it maps -0.0 to 0.0 and keeps the rest
        p1, p2, p3 = abs(p1), tuple(map(abs, p2_terms)), abs(p3)
    else:
        # clip each value, so that the error names the first one out of range
        p1 = _clip_probability(p1, "case-I probability")
        p2 = tuple(
            _clip_probability(t, f"case-II probability (k={k})") for k, t in enumerate(p2_terms)
        )
        p3 = _clip_probability(p3, "case-III probability")
    if total is None:
        total = _clip_probability(math.fsum((p1, *p2, p3)), "total outage probability")
    return OutageBreakdown(p_case1=p1, p_case2_terms=p2, p_case3=p3, total=total)


def outage_exact(config: SystemConfig) -> OutageBreakdown:
    """Exact outage probability of the admitted GFU, per case (every K >= 1).

    The paper's binomial series, valid for all positive target rates and
    kept as the reference formula; ``outage_quadrature`` is the production
    evaluator. Each series is summed correctly rounded by ``math.fsum``, so a
    result is accurate to about kappa * 2**-53 relative, kappa being the
    series' condition number sum|t| / |sum t|. Where that bound exceeds 1e-10
    (large K, high SNR) a ``ConditioningWarning`` names the series and kappa;
    where no warning is emitted the total holds 1e-9 relative. An overflowing
    or nonfinite series raises ``NumericalRangeError``.
    """
    try:
        return _outage_exact_series(config)
    except OverflowError as err:
        raise NumericalRangeError(
            "closed-form series overflowed double precision; the GFU power is "
            "too small for these thresholds"
        ) from err


def _outage_exact_series(config: SystemConfig) -> OutageBreakdown:
    big_k = config.num_gfus
    ps, p0 = config.power_gfu, config.power_gbu
    eta0, eta_s = config.eta0, config.eta_s
    e0, es = config.eps0, config.eps_s

    def sign(i: int) -> float:
        return -1.0 if i % 2 else 1.0

    def bucket(k: int) -> list[float]:
        """Terms of the series where k GFU gains fall below the threshold: m
        expands the K - k gains above it, n the k below it."""
        return [
            comb(big_k - k, m) * sign(m) * comb(k, n) * sign(n) * exp(n / ps)
            * exp((big_k - k - m * (1.0 + e0) * (1.0 + es)) / ps)
            * nu_kernel(n, (big_k - k - m) / (ps * eta0) - m * p0 / ps, config)
            for m in range(big_k - k + 1)
            for n in range(k + 1)
        ]

    # case-II buckets k = 0..K-2; a loop, not a comprehension, so that a
    # warning's stacklevel reaches the caller of outage_exact
    p2_terms = []
    for k in range(big_k - 1):
        p2_terms.append(comb(big_k, k) * _series_sum(bucket(k), f"case-II k={k} series"))

    # bucket k = K-1: only the strongest GFU clears the threshold
    scale = exp(-(e0 + es + e0 * es) / ps)
    last = [
        comb(big_k - 1, n) * sign(n) * exp(n / ps)
        * (exp(1.0 / ps) * nu_kernel(n, 1.0 / (ps * eta0), config)
           - scale * nu_kernel(n, -p0 / ps, config))
        for n in range(big_k)
    ]
    p2_terms.append(big_k * _series_sum(last, "case-II k=K-1 series"))

    # case I: the strongest GFU fits under a positive threshold; the series is
    # the bucket k = K, where every GFU gain falls below it
    p1 = _series_sum(bucket(big_k), "case-I series") + (-expm1(-eta_s)) ** big_k * exp(
        -eta0 * (1.0 + es)
    )

    # case III: the threshold is zero
    case3 = []
    for n in range(big_k + 1):
        denom = 1.0 + n * eta_s * p0
        case3.append(comb(big_k, n) * sign(n) * exp(-n * eta_s) * (-expm1(-denom * eta0)) / denom)
    p3 = _series_sum(case3, "case-III series")

    return _build_breakdown(p1, p2_terms, p3)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: every call of every thread shares them, so an
    in-place step that aliased one raises instead of changing later answers."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _gauss_legendre_pair(coarse: int, fine: int) -> tuple[np.ndarray, ...]:
    """Read-only nodes of two Gauss-Legendre rules on [0, 1], side by side, and a
    (nodes, 2) weight matrix whose columns apply the coarse and the fine rule."""
    rules = [np.polynomial.legendre.leggauss(n) for n in (coarse, fine)]
    nodes = 0.5 * (np.concatenate([x for x, _ in rules]) + 1.0)
    weights = np.zeros((nodes.size, 2))
    weights[:coarse, 0] = 0.5 * rules[0][1]
    weights[coarse:, 1] = 0.5 * rules[1][1]
    return _read_only(nodes, weights)


# the 64-node rule answers and the 48-node rule checks it, for the total and every part
_GAUSS_NODES, _GAUSS_WEIGHTS = _gauss_legendre_pair(48, 64)


def _stacked_designs(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only (2 * nodes, 3) matrices, the case-I/II sum's rows over case III's,
    that ``_stacked_rows`` multiplies into -B and -C."""
    one, zero, u = np.ones((u.size, 1)), np.zeros((u.size, 1)), u[:, None]
    arg = np.block([[one, 1.0 - u, zero], [one, zero, u]])
    exponent = np.block([[one, u, zero], [zero, zero, u]])
    return _read_only(arg, exponent)


_ARG_DESIGN, _EXP_DESIGN = _stacked_designs(_GAUSS_NODES)


@functools.cache
def _order_table(big_k: int) -> tuple[np.ndarray, ...]:
    """Read-only (K+1, 1) columns of k, K - k and C(K, k), k = 0..K, for
    ``_bucket_rows``; they depend on K alone."""
    ks = np.arange(big_k + 1)[:, None]
    binomials = np.array([float(comb(big_k, k)) for k in range(big_k + 1)])[:, None]
    return _read_only(ks, big_k - ks, binomials)


def _bucket_rows(config: SystemConfig, u: np.ndarray) -> np.ndarray:
    """(K+1, nodes) case-I/II integrands at x = eta0 * (1 + eps_s * u), without exp(-x).

    The weakest GFU gain that clears the threshold is a = eta_s * u and the
    band of gains below the ceiling is d = (1 + eps0) * eta_s * (1 - u). Row
    k < K is case-II bucket k, C(K, k) F(a)^k (exp(-a) F(d))^(K-k), and row K
    is the case-I core F(a)^K: products of positive factors.
    """
    ks, rest, binomials = _order_table(config.num_gfus)
    minus_a = -(config.eta_s * u)
    band = np.exp(minus_a) * -np.expm1(-(1.0 + config.eps0) * config.eta_s * (1.0 - u))
    return binomials * (-np.expm1(minus_a)) ** ks * band**rest


def _case1_tail(config: SystemConfig) -> float:
    """Case I beyond x*, where the strongest GFU clears the threshold alone."""
    return (-expm1(-config.eta_s)) ** config.num_gfus * exp(-config.eta0 * (1.0 + config.eps_s))


def _stacked_rows(config: SystemConfig) -> np.ndarray:
    """(2, nodes) integrands F(B)^K exp(-C) over ``_GAUSS_NODES``, without dx/du.

    Row 0 is the case-I/II sum at x = eta0 * (1 + eps_s * u), B = eta_s * (1 +
    eps0 * (1 - u)), to which the K + 1 ``_bucket_rows`` sum (binomial theorem);
    row 1 is case III at x = eta0 * u, B = eta_s * (1 + P0 * x); C = x on both.
    Each term of -B and -C has one sign, so nothing cancels. The two products
    are the only arrays made and each call owns them: every later step runs in
    place, and calls from several threads share no buffer."""
    eta0, eta_s = config.eta0, config.eta_s
    b_terms = np.array((-eta_s, -eta_s * config.eps0, -eta_s * config.power_gbu * eta0))
    c_terms = np.array((-eta0, -eta0 * config.eps_s, -eta0))
    # -B, and -C, which becomes the GBU gain's density exp(-C)
    rows, density = _ARG_DESIGN.dot(b_terms), _EXP_DESIGN.dot(c_terms)
    np.expm1(rows, out=rows)
    np.negative(rows, out=rows)
    rows **= config.num_gfus
    rows *= np.exp(density, out=density)
    return rows.reshape(2, -1)


def _quadrature(config: SystemConfig) -> tuple[float, float]:
    """The 64-node total, checked against the 48-node total and clipped to
    [0, 1], and its case-III part, from one pass over ``_stacked_rows``."""
    # each row by the 48-node rule, then by the 64-node rule
    (sum_coarse, sum_fine), (case3_coarse, case3_fine) = (
        _stacked_rows(config).dot(_GAUSS_WEIGHTS).tolist()
    )
    eta0, tail = config.eta0, _case1_tail(config)
    width = eta0 * config.eps_s
    coarse = math.fsum((width * sum_coarse, eta0 * case3_coarse, tail))
    fine = math.fsum((width * sum_fine, eta0 * case3_fine, tail))
    if fine < sys.float_info.min:
        raise NumericalRangeError(
            f"quadrature total {fine!r} is below the smallest normal double; no "
            "relative precision can be held"
        )
    total = _clip_probability(_agreed(coarse, fine, fine), "total outage probability")
    return total, eta0 * case3_fine


def _agreed(coarse: float, fine: float, scale: float, part: str = "") -> float:
    """The 64-node value ``fine``, where the 48-node value ``coarse`` is within
    ``_RULE_AGREEMENT * scale`` of it; else ``NumericalRangeError`` naming ``part``."""
    if not abs(coarse - fine) <= _RULE_AGREEMENT * scale:
        raise NumericalRangeError(
            f"the 48- and 64-node rules disagree{part} ({coarse!r} vs {fine!r}); "
            "the integrands vary too fast for a fixed quadrature rule here"
        )
    return fine


def outage_quadrature(config: SystemConfig) -> OutageBreakdown:
    """Outage probability of the admitted GFU by Gauss-Legendre quadrature, per case (K >= 1).

    The case integrals over the GBU gain x ~ Exp(1), with F(y) = -expm1(-y):
    case III over [0, eta0], case I and the K case-II buckets over [eta0, x*],
    x* = eta0 * (1 + eps_s), each a product of positive factors
    (``_bucket_rows``), and the case-I tail beyond x*. ``total``, its raises and
    ``p_case3`` are ``outage_probability``'s. Case I and each bucket take both rules
    too (a median 39 us more per config), and a part whose rules differ by more
    than 1e-10 * total raises ``NumericalRangeError`` naming it. A part below
    about 1e-290 carries no relative precision: its bucket terms go subnormal,
    and summation order alone can move it 3x.
    """
    total, p3 = _quadrature(config)
    u, eta0, es = _GAUSS_NODES, config.eta0, config.eps_s
    # both rules' weights, times dx/du and the density exp(-x)
    weights = (eta0 * es * np.exp(-eta0 * (1.0 + es * u)))[:, None] * _GAUSS_WEIGHTS
    *buckets, (core_coarse, core_fine) = (_bucket_rows(config, u) @ weights).tolist()
    tail = _case1_tail(config)
    p1 = _agreed(core_coarse + tail, core_fine + tail, total, " on case I")
    p2 = [_agreed(*pair, total, f" on case-II bucket k={k}") for k, pair in enumerate(buckets)]
    return _build_breakdown(p1, p2, p3, total)


def outage_diversity_asymptote(config: SystemConfig) -> float:
    """Leading-order outage power law (eps_s / power_gfu) ** K.

    Its log-log slope against the GFU power is exactly -K: the scheme keeps
    the full multiuser diversity order. ``NumericalRangeError`` is raised
    where it overflows a double.
    """
    return _in_range(
        lambda c: (c.eps_s / c.power_gfu) ** c.num_gfus,
        config,
        "the power law (eps_s / power_gfu) ** K",
    )


def _in_range(evaluate, config: SystemConfig, what: str) -> float:
    """``evaluate(config)``, or ``NumericalRangeError`` naming ``what`` where a
    term or the value overflows a double."""
    try:
        value = evaluate(config)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericalRangeError(f"{what} overflowed double precision")
    return value


def outage_probability(config: SystemConfig) -> float:
    """Exact outage probability for any K >= 1: ``outage_quadrature(config).total``
    without the per-case breakdown.

    One pass over the nodes of both Gauss-Legendre rules evaluates the case-I/II
    sum and case III (``_stacked_rows``): a median 7.9 us per config over
    perfbench's analytic-range configs (README names the host). It raises
    ``NumericalRangeError`` where the 48- and 64-node totals differ by more than
    1e-10 relative or where the total is below the smallest normal double.
    """
    return _quadrature(config)[0]


def outage_probability_highsnr(config: SystemConfig) -> float:
    """High-SNR approximation of the admitted GFU's outage probability, any K >= 1.

    Derived for both transmit SNRs growing together; only the GFU power
    appears explicitly. At K = 1 the diversity law eps_s / P_s is the whole
    approximation. The value is not clamped: at moderate SNR it may sit
    slightly off the exact bracket.

    The paper writes buckets 0..K-2 as double binomial sums; each collapses to
    a Beta integral, (-1)^k eps_s^(K+1) k! (K-k)! / (K+1)!, so together they
    are e0 r^(K+1) / (K+1) * sum (1+e0)^(K-k), r = eps_s / P_s, a geometric sum
    taken in closed form (O(1) in K). Terms are written in r to keep intermediates
    small; where one or the total overflows a double, ``NumericalRangeError`` is raised.
    """
    if config.num_gfus == 1:
        return outage_diversity_asymptote(config)
    return _in_range(_highsnr_sum, config, "the high-SNR approximation")


def _highsnr_sum(config: SystemConfig) -> float:
    big_k, ps, e0, es = config.num_gfus, config.power_gfu, config.eps0, config.eps_s
    r = es / ps
    rk, g = r**big_k, 1.0 + e0
    gk1 = g ** (big_k + 1)

    # buckets 0..K-2 (only k = 0 at K = 2): sum g ** (K - k) = g * g * (g ** (K-1) - 1) / e0, by
    # pow where expm1 would magnify its argument's rounding; it overflows only where a term does
    power = (big_k - 1) * math.log1p(e0)
    grown = math.expm1(power) if power < 1.0 else g ** (big_k - 1) - 1.0
    total = e0 * rk * r / (big_k + 1) * (g * (grown / e0) * g)

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
