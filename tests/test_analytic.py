import functools
import hashlib
import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, exp, expm1, factorial

import numpy as np
import pytest
from scipy.integrate import quad

import sgfsim
import sgfsim.analytic as analytic_module
from sgfsim import cli
from sgfsim.analytic import (
    _EXP_DESIGN,
    _GAUSS_NODES,
    ConditioningWarning,
    NumericalRangeError,
    OutageBreakdown,
    _bucket_rows,
    _build_breakdown,
    _order_table,
    _series_sum,
    _stacked_rows,
    nu_kernel,
    outage_diversity_asymptote,
    outage_exact,
    outage_probability,
    outage_probability_highsnr,
    outage_quadrature,
)
from sgfsim.model import SystemConfig, db_to_linear
from sgfsim.montecarlo import _config_on_axis


# SHA-256 of TestOutageQuadrature.test_outputs_are_pinned's seeded outputs
QUADRATURE_OUTPUT_SHA256 = "2f211ebbfe301dc6f4201309a9446221f775b9152ddb73b60c3d290120ba3b88"
# SHA-256 of TestOutageExact.test_outputs_are_pinned's seeded outputs
SERIES_OUTPUT_SHA256 = "c4da903842f726e0e1113ef5f7468a895841329899169b252868f123d5b2b323"


def config(num_gfus=2, power_gbu=10.0, power_gfu=10.0, rate_gbu=1.0, rate_gfu=1.0):
    return SystemConfig(num_gfus, power_gbu, power_gfu, rate_gbu, rate_gfu)


def reference_breakdown(cfg, epsabs=1e-10, epsrel=1e-12):
    """(case I, case-II buckets, case III) by adaptive quadrature of the exact
    conditional order-statistic CDFs over the GBU gain, independent of both the
    series algebra and the fixed Gauss rules."""
    big_k = cfg.num_gfus
    p0, ps = cfg.power_gbu, cfg.power_gfu
    e0, es = cfg.eps0, cfg.eps_s
    eta0, eta_s = cfg.eta0, cfg.eta_s
    lo, hi = eta0, eta0 * (1.0 + es)

    def integrate(fn, a, b):
        return quad(fn, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)[0]

    def floor_gain(x):
        # GFU gain whose received power equals the (positive) threshold
        return (x / eta0 - 1.0) / ps

    def ceil_gain(x):
        # largest best-user gain that still leaves the total rate short
        return ((1.0 + e0) * (1.0 + es) - 1.0 - p0 * x) / ps

    def bucket(k):
        def fn(x):
            a, b = floor_gain(x), ceil_gain(x)
            if b <= a:
                return 0.0
            # exp(-a) - exp(-b), factored so that a narrow band does not cancel
            inside = exp(-a) * -expm1(a - b)
            return comb(big_k, k) * (-expm1(-a)) ** k * inside ** (big_k - k) * exp(-x)

        return fn

    p2_terms = [integrate(bucket(k), lo, hi) for k in range(big_k)]
    p1 = integrate(lambda x: (-expm1(-floor_gain(x))) ** big_k * exp(-x), lo, hi) + integrate(
        lambda x: (-expm1(-eta_s)) ** big_k * exp(-x), hi, math.inf
    )
    p3 = integrate(lambda x: (-expm1(-eta_s * (1.0 + p0 * x))) ** big_k * exp(-x), 0.0, lo)
    return p1, p2_terms, p3


@functools.cache
def pinned_configs():
    """The 2,000 seeded configs of ``TestOutageQuadrature.test_outputs_are_pinned``."""
    rng = np.random.default_rng(2718)
    configs = []
    for _ in range(2000):
        k = int(rng.integers(1, 51))
        gbu_db, gfu_db = rng.uniform(-10.0, 70.0, 2).tolist()
        rate_gbu, rate_gfu = rng.uniform(0.1, 6.0, 2).tolist()
        configs.append(SystemConfig.from_db(k, gbu_db, gfu_db, rate_gbu, rate_gfu))
    return tuple(configs)


def outcomes(evaluate, configs):
    """repr of ``evaluate`` on each config, or the type and message of its raise."""
    texts = []
    for cfg in configs:
        try:
            texts.append(repr(evaluate(cfg)))
        except (ValueError, ArithmeticError) as err:
            texts.append(f"{type(err).__name__}: {err}")
    return texts


def module_arrays():
    return {name: v for name, v in vars(analytic_module).items() if isinstance(v, np.ndarray)}


@functools.cache
def wide_set():
    """The seeded wide set of README's "Numerical range": 20,000 configs, K 1..64,
    both powers -20..80 dB and both rates 0.1..8, drawn in that order."""
    rng = np.random.default_rng(0)
    return tuple(
        SystemConfig.from_db(
            int(rng.integers(1, 65)),
            *rng.uniform(-20, 80, 2).tolist(),
            *rng.uniform(0.1, 8, 2).tolist(),
        )
        for _ in range(20000)
    )


def assert_terms_match_reference(breakdown, cfg, tol=1e-7):
    p1, p2_terms, p3 = reference_breakdown(cfg)
    assert breakdown.p_case1 == pytest.approx(p1, abs=tol)
    assert breakdown.p_case3 == pytest.approx(p3, abs=tol)
    assert len(breakdown.p_case2_terms) == len(p2_terms)
    for got, want in zip(breakdown.p_case2_terms, p2_terms):
        assert got == pytest.approx(want, abs=tol)


def series_warns_or_matches_quadrature(cfg, rel=1e-9):
    """Evaluate the paper's series; unless it emits a ConditioningWarning, its
    total must hold ``rel`` of the production quadrature. Returns the breakdown
    and whether it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConditioningWarning)
        breakdown = outage_exact(cfg)
    warned = any(issubclass(w.category, ConditioningWarning) for w in caught)
    if not warned:
        assert breakdown.total == pytest.approx(outage_quadrature(cfg).total, rel=rel, abs=0.0)
    return breakdown, warned


def preset_points():
    """Every grid point of every sweep preset, as the sweep builds it."""
    for name in cli.PRESET_NAMES:
        _, _, specs = cli._load_experiment(name, None, {})
        for request in (spec.request for spec in specs if spec.request is not None):
            for value in request.grid:
                yield _config_on_axis(
                    request.base_config, request.axis, value, request.gbu_to_gfu_power_ratio
                )


def paper_form(cfg):
    """(case I, case-II buckets, case III) of the paper's series as it is
    printed: bucket 0 and case I in their own forms, buckets 1..K-2 weighted by
    the factorial quotient K! / (k! (K-k)!), bucket K-1 with its two kernels;
    at K = 1 bucket 0 is bucket K-1."""
    big_k, ps, p0 = cfg.num_gfus, cfg.power_gfu, cfg.power_gbu
    e0, es, eta0, eta_s = cfg.eps0, cfg.eps_s, cfg.eta0, cfg.eta_s
    band = (1.0 + e0) * (1.0 + es)

    def sign(i):
        return -1.0 if i % 2 else 1.0

    def mu3(k, m):
        return exp((big_k - k - m * band) / ps)

    def mu4(k, m):
        return (big_k - k - m) / (ps * eta0) - m * p0 / ps

    p2_terms = []
    for k in range(big_k - 1):
        if k == 0:
            terms = [
                comb(big_k, n) * sign(n) * mu3(0, n) * nu_kernel(0, mu4(0, n), cfg)
                for n in range(big_k + 1)
            ]
            phi = 1
        else:
            terms = [
                comb(big_k - k, m) * sign(m) * comb(k, n) * sign(n) * exp(n / ps)
                * mu3(k, m) * nu_kernel(n, mu4(k, m), cfg)
                for m in range(big_k - k + 1)
                for n in range(k + 1)
            ]
            phi = factorial(big_k) / (factorial(k) * factorial(big_k - k))
        p2_terms.append(phi * math.fsum(terms))
    mu5, mu6 = 1.0 / (ps * eta0), -p0 / ps
    scale = exp(-(e0 + es + e0 * es) / ps)
    last = [
        comb(big_k - 1, n) * sign(n) * exp(n / ps)
        * (exp(1.0 / ps) * nu_kernel(n, mu5, cfg) - scale * nu_kernel(n, mu6, cfg))
        for n in range(big_k)
    ]
    p2_terms.append(big_k * math.fsum(last))
    case1 = [
        comb(big_k, n) * sign(n) * exp(n / ps) * nu_kernel(n, 0.0, cfg) for n in range(big_k + 1)
    ]
    p1 = math.fsum(case1) + (-expm1(-eta_s)) ** big_k * exp(-eta0 * (1.0 + es))
    case3 = []
    for n in range(big_k + 1):
        denom = 1.0 + n * eta_s * p0
        case3.append(comb(big_k, n) * sign(n) * exp(-n * eta_s) * (-expm1(-denom * eta0)) / denom)
    return p1, p2_terms, math.fsum(case3)


class TestPaperForm:
    """The one-bucket series against the paper's printed form of it."""

    @pytest.mark.parametrize("k_users", range(1, 21))
    def test_matches_paper_form_bit_for_bit(self, k_users):
        cfg = config(num_gfus=k_users, power_gbu=5.0, power_gfu=2.0, rate_gbu=2.0, rate_gfu=1.0)
        with warnings.catch_warnings():
            # cancellation is not at issue here: both sides sum the same terms
            warnings.simplefilter("ignore", ConditioningWarning)
            breakdown = outage_exact(cfg)
        assert breakdown == _build_breakdown(*paper_form(cfg))

    def test_single_user_preset_points_are_silent(self):
        # at K = 1 the series never cancels enough to warn on a preset point
        points = [cfg for cfg in preset_points() if cfg.num_gfus == 1]
        assert len(points) == 26
        for cfg in points:
            total = outage_exact(cfg).total
            assert total == pytest.approx(outage_quadrature(cfg).total, rel=1e-12, abs=0.0)


class TestNuKernel:
    def test_degenerate_branch_is_interval_length(self):
        cfg = config()
        assert nu_kernel(0, -1.0, cfg) == pytest.approx(cfg.eps_s * cfg.eta0)

    def test_closed_form_value(self):
        # integral of exp(-x) over [0.1, 0.2]
        value = nu_kernel(0, 0.0, config())
        assert value == pytest.approx(exp(-0.1) - exp(-0.2), rel=1e-12)
        assert value == pytest.approx(0.086106664957978, rel=1e-12)

    @pytest.mark.parametrize("n,mu", [(0, 0.7), (1, -2.3), (3, 5.0), (2, -0.4)])
    def test_matches_defining_integral(self, n, mu):
        cfg = config(num_gfus=4, power_gbu=25.0, power_gfu=7.0, rate_gbu=1.7, rate_gfu=0.9)
        rate = n / (cfg.power_gfu * cfg.eta0) + mu + 1.0
        expected = quad(
            lambda x: exp(-rate * x), cfg.eta0, cfg.eta0 * (1.0 + cfg.eps_s), epsabs=1e-13
        )[0]
        assert nu_kernel(n, mu, cfg) == pytest.approx(expected, abs=1e-9)

    def test_near_degenerate_continuity(self):
        cfg = config()
        value = nu_kernel(0, -1.0 + 1e-13, cfg)
        assert value == pytest.approx(cfg.eps_s * cfg.eta0, rel=1e-6)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            nu_kernel(-1, 0.0, config())


class TestOutageExact:
    def test_asymptotic_regime(self):
        with pytest.warns(ConditioningWarning):
            breakdown = outage_exact(config(num_gfus=2, power_gbu=1000.0, power_gfu=1000.0))
        assert 0.5e-6 <= breakdown.total <= 2e-6

    def test_breakdown_consistency(self):
        with pytest.warns(ConditioningWarning):
            breakdown = outage_exact(config(num_gfus=5, power_gbu=31.6, power_gfu=100.0))
        parts = [breakdown.p_case1, *breakdown.p_case2_terms, breakdown.p_case3]
        assert all(0.0 <= p <= 1.0 for p in parts)
        assert breakdown.total == pytest.approx(math.fsum(parts), abs=1e-12)
        assert len(breakdown.p_case2_terms) == 5

    def test_overflow_reported_as_range_error(self):
        with pytest.raises(NumericalRangeError):
            outage_exact(SystemConfig(20, 1e6, 1.0, 6.0, 6.0))

    def test_least_ps_eta0_is_positive(self):
        # the series divides by Ps * eta0 = Ps * eps0 / P0, least at this corner of
        # the input box; one step past it SystemConfig rejects the GBU power
        corner = SystemConfig(2, 1e15, 1e-15, 2.0**-20, 1.0)
        assert corner.power_gfu * corner.eta0 > 6.6e-37
        with pytest.raises(NumericalRangeError, match="^closed-form series overflowed"):
            outage_exact(corner)  # exp(n / Ps) at Ps = 1e-15
        with pytest.raises(ValueError, match="^power_gbu = "):
            replace(corner, power_gbu=math.nextafter(1e15, math.inf))

    @pytest.mark.parametrize(
        "cfg,warns",
        [
            pytest.param(
                config(num_gfus=2, power_gbu=100.0, power_gfu=6.7, rate_gbu=2.5, rate_gfu=1.5),
                False,
                id="cfg0",
            ),
            pytest.param(
                config(num_gfus=5, power_gbu=31.6, power_gfu=100.0, rate_gbu=3.0, rate_gfu=3.0),
                True,
                id="cfg1",
            ),
            pytest.param(
                config(num_gfus=4, power_gbu=100.0, power_gfu=15.8, rate_gbu=0.7, rate_gfu=3.9),
                False,
                id="cfg2",
            ),
            pytest.param(
                config(num_gfus=1, power_gbu=100.0, power_gfu=6.7, rate_gbu=2.5, rate_gfu=1.5),
                False,
                id="cfg3-single-user",
            ),
        ],
    )
    def test_matches_quadrature_oracle(self, cfg, warns):
        if warns:
            with pytest.warns(ConditioningWarning):
                series = outage_exact(cfg)
        else:
            series = outage_exact(cfg)
        assert_terms_match_reference(series, cfg)
        assert_terms_match_reference(outage_quadrature(cfg), cfg)

    def test_valid_when_threshold_product_exceeds_one(self):
        cfg = config(num_gfus=3, power_gbu=31.6, power_gfu=31.6, rate_gbu=3.0, rate_gfu=3.0)
        assert cfg.eps0 * cfg.eps_s > 1.0
        breakdown = outage_exact(cfg)
        assert 0.0 <= breakdown.total <= 1.0
        assert_terms_match_reference(breakdown, cfg)
        assert_terms_match_reference(outage_quadrature(cfg), cfg)

    def test_warns_or_matches_quadrature_over_supported_envelope(self):
        # K <= 10 with GFU power >= 1: no clipping excursion, and each value
        # either warns or holds 1e-9 relative
        rng = np.random.default_rng(61)
        warned = 0
        for _ in range(60):
            cfg = config(
                num_gfus=int(rng.integers(2, 11)),
                power_gbu=db_to_linear(float(rng.uniform(0.0, 45.0))),
                power_gfu=db_to_linear(float(rng.uniform(0.0, 45.0))),
                rate_gbu=float(rng.uniform(0.3, 4.0)),
                rate_gfu=float(rng.uniform(0.3, 4.0)),
            )
            breakdown, did_warn = series_warns_or_matches_quadrature(cfg)
            assert 0.0 <= breakdown.total <= 1.0
            warned += did_warn
        assert 0 < warned < 60

    def test_warns_at_the_fig4_k5_cancellation_floor(self):
        # the series gives 1.03e-14 against the true 3.87e-15; kappa ~ 1.8e17
        cfg = SystemConfig.from_db(5, 15.0, 45.0, 3.0, 3.0)
        with pytest.warns(ConditioningWarning, match="condition number"):
            total = outage_exact(cfg).total
        assert total == pytest.approx(1.03e-14, rel=0.01)

    def test_warns_or_matches_quadrature_on_every_preset_point(self):
        points = list(preset_points())
        warned = sum(series_warns_or_matches_quadrature(cfg)[1] for cfg in points)
        assert 0 < warned < len(points)

    def test_outputs_are_pinned(self):
        # 12 seeded configs over K 2..24, powers -20..80 dB and rates 0.05..8
        # (4 of them raise): the bits of every term and total, the class of
        # every raise, and the message and file of every warning, which must
        # name the caller
        rng = np.random.default_rng(3141)
        digest = hashlib.sha256()
        for _ in range(12):
            k = int(rng.integers(2, 25))
            gbu_db, gfu_db = rng.uniform(-20.0, 80.0, 2).tolist()
            rate_gbu, rate_gfu = rng.uniform(0.05, 8.0, 2).tolist()
            cfg = SystemConfig.from_db(k, gbu_db, gfu_db, rate_gbu, rate_gfu)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    b = outage_exact(cfg)
                    text = " ".join(
                        map(float.hex, (b.p_case1, *b.p_case2_terms, b.p_case3, b.total))
                    )
                except (ValueError, ArithmeticError) as err:
                    text = type(err).__name__
            for w in caught:
                text += f" | {w.message} | {os.path.basename(w.filename)}"
            digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == SERIES_OUTPUT_SHA256


class TestQuadratureOracle:
    """Limits of the production quadrature, which replaced the adaptive oracle."""

    def test_vanishing_power_forces_outage(self):
        total = outage_quadrature(config(num_gfus=2, power_gfu=1e-6)).total
        assert total > 0.99

    def test_vanishing_target_removes_outage(self):
        # the least GFU target rate in the input box
        total = outage_quadrature(config(num_gfus=2, rate_gfu=2.0**-20)).total
        assert total < 1e-9
        with pytest.warns(ConditioningWarning):
            series = outage_exact(config(num_gfus=2, rate_gfu=2.0**-20)).total
        assert series < 1e-9


class TestOutageQuadrature:
    def test_relative_precision_over_readme_range(self):
        # K 1..20, powers 0-50 dB, rates 0.5-4: a 10,944-point grid over this
        # range (K >= 2) measured <= 3.2e-14 relative against a tight adaptive
        # quadrature, and 2,000 K = 1 configs <= 5.4e-15
        rng = np.random.default_rng(404)
        for _ in range(200):
            cfg = SystemConfig.from_db(
                int(rng.integers(1, 21)),
                float(rng.uniform(0.0, 50.0)),
                float(rng.uniform(0.0, 50.0)),
                float(rng.uniform(0.5, 4.0)),
                float(rng.uniform(0.5, 4.0)),
            )
            p1, p2_terms, p3 = reference_breakdown(cfg, epsabs=0.0, epsrel=1e-13)
            want = math.fsum((p1, *p2_terms, p3))
            assert outage_probability(cfg) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "gbu_db,gfu_db,rate_gbu,rate_gfu,want",
        [
            # 30-digit mpmath quadrature of the three case integrals
            pytest.param(15.0, 45.0, 3.0, 3.0, 3.8650487731266e-15, id="fig4_k5-45dB"),
            pytest.param(50.0, 50.0 - 10.0 * math.log10(15.0), 2.5, 1.5, 1.78945926911446e-18,
                         id="fig3_k5-50dB"),
        ],
    )
    def test_preset_points_below_the_series_floor(self, gbu_db, gfu_db, rate_gbu, rate_gfu, want):
        cfg = SystemConfig.from_db(5, gbu_db, gfu_db, rate_gbu, rate_gfu)
        assert outage_probability(cfg) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_rules_disagreeing_raise(self):
        # eta0 = 630: the exponential factor varies too fast for 48 nodes, and
        # the two rules differ by ~1.5e-7 relative
        with pytest.raises(NumericalRangeError, match="48- and 64-node rules disagree"):
            outage_quadrature(SystemConfig(5, 0.1, 10.0, 6.0, 1.0))

    @pytest.mark.parametrize(
        "cfg,part",
        [
            # #265 of test_outputs_are_pinned's configs; 30-digit mpmath quadrature of
            # the parts: case I 0.406138848085262618, case II 0.185991561158465385 (its
            # bucket k = 24 0.00304232677342660495) and case III 0.407869590756271996.
            # The 64-node rule alone answered case I 0.4061888, case II 0.1859416 and
            # bucket k = 24 0.0014973, and raised nothing
            pytest.param(
                (40, 1.9596397636209328, -7.671564416904673, 0.8661930187939374, 5.651170224613859),
                "case I",
                id="265-case1",
            ),
            # #39: case I holds both rules, bucket k = 0 does not
            pytest.param(
                (12, 39.93316758605709, -0.7554517185274978, 5.2903618968002295, 5.536382501731269),
                "case-II bucket k=0",
                id="39-bucket0",
            ),
        ],
    )
    def test_part_whose_rules_disagree_raises(self, cfg, part):
        # the total holds both rules and answers; the breakdown names the part that does not
        cfg = SystemConfig.from_db(*cfg)
        assert outage_probability(cfg) == pytest.approx(1.0, rel=1e-13, abs=0.0)
        message = rf"^the 48- and 64-node rules disagree on {part} \("
        with pytest.raises(NumericalRangeError, match=message):
            outage_quadrature(cfg)

    def test_subnormal_total_raises(self):
        with pytest.raises(NumericalRangeError, match="smallest normal double"):
            outage_quadrature(SystemConfig(50, 1.0, 1e9, 1.0, 1.0))

    def test_breakdown_consistency(self):
        # the total integrates the buckets' sum, and each part its own row, by both rules;
        # every part holds 1e-10 * total by both or the call raises. Over 3,000 README-range
        # configs (K 1..20, seed 5) none raised, and the fsum of the parts differed from
        # the total by at most 3.7e-15 relative and equalled it on 1,160
        breakdown = outage_quadrature(config(num_gfus=5, power_gbu=31.6, power_gfu=100.0))
        parts = [breakdown.p_case1, *breakdown.p_case2_terms, breakdown.p_case3]
        assert all(isinstance(p, float) and 0.0 < p <= 1.0 for p in parts)
        assert len(breakdown.p_case2_terms) == 5
        assert breakdown.total == pytest.approx(math.fsum(parts), rel=1e-14, abs=0.0)

    def test_bucket_rows_sum_to_the_summed_integrand(self):
        # sum_k C(K, k) F(a)^k (exp(-a) F(d))^(K-k) = F(a + d)^K at every node: the fsum
        # of the rows, times the pass's own exp(-x), held the pass's case-I/II row to
        # 5.9e-16 * K relative wherever it is above 1e-280 (below, the rows lose
        # precision to subnormals); exp(-x) from another rounding of x would add up to
        # x * 2**-52 relative, about 5e-14 at x = 240
        rng = np.random.default_rng(1001)
        for k_users in range(1, 65):
            for _ in range(10):
                cfg = SystemConfig.from_db(
                    k_users, *rng.uniform(0.0, 50.0, 2).tolist(), *rng.uniform(0.5, 4.0, 2).tolist()
                )
                want = _stacked_rows(cfg)[0]
                eta0, es = cfg.eta0, cfg.eps_s
                minus_x = _EXP_DESIGN[: _GAUSS_NODES.size] @ (-eta0, -eta0 * es, -eta0)
                rows = _bucket_rows(cfg, _GAUSS_NODES)
                got = np.array([math.fsum(col) for col in rows.T]) * np.exp(minus_x)
                normal = want > 1e-280
                assert np.all(np.abs(got - want)[normal] <= 1e-15 * k_users * want[normal]), cfg

    def test_case3_row_is_the_case3_integrand(self):
        # the case-III row times eta0 against the integrand F(eta_s (1 + P0 x))^K exp(-x)
        # at x = eta0 u, times dx/du = eta0, written directly: over 3,000 README-range
        # configs they held 4.4e-16 * K relative, the K-th power multiplying the
        # rounding of its argument, which the pass forms as eta_s + (eta_s P0 eta0) u
        rng = np.random.default_rng(1002)
        for _ in range(3000):
            k_users = int(rng.integers(1, 21))
            cfg = SystemConfig.from_db(
                k_users, *rng.uniform(0.0, 50.0, 2).tolist(), *rng.uniform(0.5, 4.0, 2).tolist()
            )
            x = cfg.eta0 * _GAUSS_NODES
            cdf = -np.expm1(-cfg.eta_s * (1.0 + cfg.power_gbu * x))
            want = cfg.eta0 * cdf**k_users * np.exp(-x)
            got = cfg.eta0 * _stacked_rows(cfg)[1]
            normal = want > 1e-280
            assert np.all(np.abs(got - want)[normal] <= 1e-15 * k_users * want[normal]), cfg

    def test_wide_set_raises_or_answers_as_documented(self):
        # README's counts on the seeded wide set: a rewrite of the total that moves
        # which configs raise, or why, fails here
        reasons = ("rules disagree", "below the smallest normal double")
        counts = dict.fromkeys((*reasons, "answered"), 0)
        for cfg in wide_set():
            try:
                assert 0.0 <= outage_probability(cfg) <= 1.0
                counts["answered"] += 1
            except NumericalRangeError as err:
                counts[next(reason for reason in reasons if reason in str(err))] += 1
        assert list(counts.values()) == [2816, 354, 16830]

    @pytest.mark.parametrize(
        "cfg",
        [
            # from 20,000 configs drawn with np.random.default_rng(0), each K in 1..64,
            # both powers in -20..80 dB and both rates in 0.1..8: the sum of the bucket
            # integrals answered the first nine 1.2e-10 to 3.5e-9 off, where the bucket
            # terms go subnormal, and the two rules disagreed on its sum for the last four
            (56, 19.610544922481573, 65.82685034359774, 3.711124261737673, 1.09676034117646),
            (58, -1.5348680352736785, 69.89235452350448, 0.7477350786384771, 5.45528883873334),
            (56, 70.73639453552967, 68.69349926827614, 4.124096389599727, 1.5201112395813343),
            (63, 21.36922306744558, 62.449142701284515, 1.8311390003151922, 3.442225322210992),
            (51, 11.937025536934616, 63.6464516635904, 1.3518869571801928, 1.2783520789824603),
            (60, 74.88618362347341, 54.96705863094965, 1.7056876404820007, 1.2923775355298488),
            (61, 53.52032553221565, 62.570410451729, 5.47380714214295, 0.5533302220063318),
            (51, 23.366274441644684, 66.51197133697185, 1.0572465898044843, 2.142802921510917),
            (51, 47.905215199495345, 77.42894360774396, 2.2591476293381914, 4.222518686046017),
            (36, -12.794387794958999, 78.98950270607027, 0.1008532537273587, 0.3075058915094704),
            (62, 6.604958508551146, 75.94932455417971, 3.2187516893958708, 5.626172961260685),
            (62, 57.29403148596063, 40.50824533019793, 1.173691341933257, 0.14603769347178763),
            (59, 50.58607269882758, 76.65985957757253, 1.2291161631343956, 7.17008997230768),
        ],
    )
    def test_relative_precision_where_the_buckets_underflow(self, cfg):
        # totals from 2.5e-308 to 2.1e-297; measured within 4.7e-14 of the reference
        cfg = SystemConfig.from_db(*cfg)
        p1, p2_terms, p3 = reference_breakdown(cfg, epsabs=0.0)
        want = math.fsum((p1, *p2_terms, p3))
        assert outage_probability(cfg) == pytest.approx(want, rel=1e-10, abs=0.0)
        assert outage_quadrature(cfg).total == outage_probability(cfg)

    def test_accepts_single_user(self):
        cfg = config(num_gfus=1, power_gbu=100.0, power_gfu=6.7, rate_gbu=2.5, rate_gfu=1.5)
        breakdown = outage_quadrature(cfg)
        assert len(breakdown.p_case2_terms) == 1
        assert_terms_match_reference(breakdown, cfg)

    @pytest.mark.parametrize(
        "db,want",
        [
            # 30-digit mpmath; evaluating 1 - (three terms near 1) in doubles
            # loses 2.3e-12 and 1.3e-9 relative here
            pytest.param(50.0, 4.142132070311762e-6, id="50dB"),
            pytest.param(70.0, 4.142135588197042e-8, id="70dB"),
        ],
    )
    def test_single_user_relative_precision_at_high_snr(self, db, want):
        cfg = SystemConfig.from_db(1, db, db, 0.5, 0.5)
        assert outage_probability(cfg) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_outputs_are_pinned(self, pin_dispatch):
        # repr of every breakdown, or the type and message of every raise, over
        # 2,000 seeded configs wider than the README range (42 of them raise);
        # re-pinned when the total moved to the buckets' summed integrand, which
        # raised on the same 42 and answered #1610 (9.7e-302) 1.6e-14 off an
        # adaptive reference, where the bucket-sum total had been 2.5e-10 off; and
        # again for the stacked pass, which raised on the same 42, kept the case-I/II
        # parts bit for bit and moved totals by at most 6.4e-15 relative and case-III
        # parts above 1e-290 by at most 8.4e-15; and again when each part took both rules
        # and the agreement check: 136 more raise (178 in all; the 42 with the same
        # messages), totals and case-III parts are bit for bit the same, and the other
        # parts above 1e-290 moved by at most 6.6e-16 relative
        rng = np.random.default_rng(2718)
        digest = hashlib.sha256()
        for _ in range(2000):
            k = int(rng.integers(1, 51))
            gbu_db, gfu_db = rng.uniform(-10.0, 70.0, 2).tolist()
            rate_gbu, rate_gfu = rng.uniform(0.1, 6.0, 2).tolist()
            cfg = SystemConfig.from_db(k, gbu_db, gfu_db, rate_gbu, rate_gfu)
            try:
                text = repr(outage_quadrature(cfg))
            except (ValueError, ArithmeticError) as err:
                text = f"{type(err).__name__}: {err}"
            digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == QUADRATURE_OUTPUT_SHA256, pin_dispatch

    def test_binomials_fit_at_the_largest_k(self):
        # C(K, k) would overflow a double from K = 1030; the input box ends at K = 256
        _, _, binomials = _order_table(256)
        assert binomials.max() == float(comb(256, 128)) < 5.8e75
        with pytest.raises(ValueError, match="^num_gfus = 257 lies outside the input box"):
            SystemConfig.from_db(257, 30, 20, 1, 1)

    def test_largest_arguments_are_finite(self):
        # eta0 (1 + eps_s) and eta_s (1 + eps0) are largest at this corner of the input
        # box; one step past it SystemConfig rejects the power
        corner = SystemConfig(2, 1e-15, 1e-15, 64.0, 64.0)
        assert corner.eta0 * (1.0 + corner.eps_s) == corner.eta_s * (1.0 + corner.eps0) < 3.5e53
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalRangeError, match="below the smallest normal double"):
                outage_quadrature(corner)
        with pytest.raises(ValueError, match="^power_gfu = "):
            replace(corner, power_gfu=math.nextafter(1e-15, 0.0))

    def test_per_k_tables_refuse_writes(self):
        for column in _order_table(5):
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = 7

    def test_module_arrays_stay_read_only_and_unchanged(self):
        # the rules and design matrices are shared by every call: an in-place step
        # that aliased one would change every later answer
        before = {name: array.tobytes() for name, array in module_arrays().items()}
        assert sorted(before) == ["_ARG_DESIGN", "_EXP_DESIGN", "_GAUSS_NODES", "_GAUSS_WEIGHTS"]
        for evaluate in (outage_probability, outage_quadrature):
            outcomes(evaluate, pinned_configs())
        for name, array in module_arrays().items():
            assert not array.flags.writeable, name
            assert array.tobytes() == before[name], name

    def test_concurrent_calls_match_sequential_ones(self):
        # two threads at once, one through the configs backwards, switching every
        # microsecond so that one call's numpy steps fall between the other's: a
        # buffer shared between calls would mix two configs' rows
        configs = pinned_configs()
        want = outcomes(outage_probability, configs)
        start = threading.Barrier(2)

        def run(order):
            start.wait()
            return outcomes(outage_probability, configs[::order])[::order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                got = list(pool.map(run, (1, -1)))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want, want]

    def test_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(sgfsim.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, sgfsim; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestHighSnr:
    def test_leading_order_ratio(self):
        near_cfg = config(num_gfus=2, power_gbu=1e5, power_gfu=1e5, rate_gbu=2.0, rate_gfu=1.5)
        near = outage_probability_highsnr(near_cfg) / outage_diversity_asymptote(near_cfg)
        assert near == pytest.approx(1.0, abs=0.01)
        far_cfg = config(num_gfus=2, power_gbu=1e6, power_gfu=1e6, rate_gbu=2.0, rate_gfu=1.5)
        far = outage_probability_highsnr(far_cfg) / outage_diversity_asymptote(far_cfg)
        assert abs(far - 1.0) < abs(near - 1.0)

    @pytest.mark.parametrize("k_users", [2, 3])
    def test_relative_error_shrinks_along_sweep(self, k_users):
        rels = []
        for db in (30, 40, 50):
            power = db_to_linear(db)
            cfg = config(num_gfus=k_users, power_gbu=power, power_gfu=power, rate_gbu=2.0, rate_gfu=1.5)
            rels.append(abs(outage_probability_highsnr(cfg) / outage_quadrature(cfg).total - 1.0))
        assert rels[0] > rels[1] > rels[2]


def highsnr_double_sum(cfg):
    """The paper's high-SNR expression with its double binomial sums, in exact
    rational arithmetic on the config's float parameters."""
    big_k = cfg.num_gfus
    ps, e0, es = Fraction(cfg.power_gfu), Fraction(cfg.eps0), Fraction(cfg.eps_s)
    phi0 = big_k * (big_k - 1)

    def sign(i):
        return -1 if i % 2 else 1

    inner = sum(
        comb(big_k, n) * sign(n) * Fraction(1, n + 1)
        * ((1 + es) ** (big_k + 1) - (1 + es) ** (big_k - n))
        for n in range(big_k + 1)
    )
    total = phi0 * e0 * (1 + e0) ** big_k / (ps ** (big_k + 1) * big_k * (big_k - 1)) * inner
    for k in range(1, big_k - 1):
        inner = sum(
            comb(big_k - k, m) * sign(m) * (1 + es) ** (big_k - k - m)
            * comb(k, n) * sign(n) * ((1 + es) ** (m + n + 1) - 1) / (m + n + 1)
            for m in range(big_k - k + 1)
            for n in range(k + 1)
        )
        total += comb(big_k, k) * e0 * (1 + e0) ** (big_k - k) * sign(k) / ps ** (big_k + 1) * inner
    total += phi0 * e0 * es**big_k * (1 + e0) * (1 + es) / (ps ** (big_k + 1) * big_k * (big_k - 1))
    total -= phi0 * es**big_k * (1 / e0 + 1) * (big_k * (1 + es) + 1) / (
        ps ** (big_k + 1) * big_k * (big_k - 1) * (big_k + 1)
    )
    total += e0 * es ** (big_k + 1) / ((big_k + 1) * ps ** (big_k + 1))
    total += es**big_k / ps**big_k
    total -= e0 * es**big_k * (1 + es) / ps ** (big_k + 1)
    total += es**big_k * ((1 + e0) ** (big_k + 1) - 1) / (ps ** (big_k + 1) * (big_k + 1))
    total -= es**big_k * ((e0 * (big_k + 1) - 1) * (1 + e0) ** (big_k + 1) + 1) / (
        ps ** (big_k + 2) * (big_k + 2) * (big_k + 1)
    )
    return total


def highsnr_by_fsum(cfg):
    """``outage_probability_highsnr`` at K >= 2 with the buckets 0..K-2 added term
    by term, math.fsum over g ** (K - k): (value, largest term), or None where a
    term or the value overflows."""
    big_k, ps, e0, es = cfg.num_gfus, cfg.power_gfu, cfg.eps0, cfg.eps_s
    try:
        r = es / ps
        rk, g = r**big_k, 1.0 + e0
        gk1 = g ** (big_k + 1)
        terms = [
            e0 * rk * r / (big_k + 1) * math.fsum(g ** (big_k - k) for k in range(big_k - 1)),
            e0 * g * (1.0 + es) * rk / ps,
            -(g / e0) * (big_k * (1.0 + es) + 1.0) * rk / (ps * (big_k + 1)),
            e0 * rk * r / (big_k + 1),
            rk,
            -e0 * (1.0 + es) * rk / ps,
            (gk1 - 1.0) * rk / (ps * (big_k + 1)),
            -((e0 * (big_k + 1) - 1.0) * gk1 + 1.0) * rk / (ps * ps * (big_k + 2) * (big_k + 1)),
        ]
    except OverflowError:
        return None
    value = 0.0
    for term in terms:
        value += term
    return (value, max(map(abs, terms))) if math.isfinite(value) else None


class TestHighSnrClosedForm:
    def test_geometric_bucket_sum_matches_the_term_by_term_sum(self):
        # K 2..256 at the box's power corners and rates 2**-20, 1 and 64, then the wide
        # set: the closed form raises exactly where the fsum form does, and elsewhere
        # holds it to 1e-14 of the largest term (measured: 6.9e-16 of it). Relative to
        # the value it is 1.8e-13 at worst, where the terms cancel to far outside [0, 1]
        edges = [(1e-15, 1e15)] * 2 + [(2.0**-20, 1.0, 64.0)] * 2
        corners = [SystemConfig(k, *fields) for k in range(2, 257) for fields in product(*edges)]
        for cfg in corners + [cfg for cfg in wide_set() if cfg.num_gfus > 1]:
            want = highsnr_by_fsum(cfg)
            try:
                got = outage_probability_highsnr(cfg)
            except NumericalRangeError:
                assert want is None, cfg
            else:
                assert want is not None and abs(got - want[0]) <= 1e-14 * want[1], cfg

    @pytest.mark.parametrize("k_users", range(2, 21))
    def test_matches_exact_double_sum(self, k_users):
        rng = np.random.default_rng(1000 + k_users)
        cfg = SystemConfig.from_db(
            k_users,
            float(rng.uniform(0.0, 50.0)),
            float(rng.uniform(0.0, 50.0)),
            float(rng.uniform(0.5, 4.0)),
            float(rng.uniform(0.5, 4.0)),
        )
        want = float(highsnr_double_sum(cfg))
        assert outage_probability_highsnr(cfg) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_where_the_float_double_sum_cancelled(self):
        # the paper's double sum evaluated in floats is 0.467 relative off here
        cfg = SystemConfig(
            19, 13618.417611811261, 255.6200881832188, 1.0921025045045964, 0.6364614068872667
        )
        want = float(highsnr_double_sum(cfg))
        assert outage_probability_highsnr(cfg) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestDiversityAsymptote:
    def test_direct_values(self):
        assert outage_diversity_asymptote(config(num_gfus=2, power_gfu=100.0)) == pytest.approx(1e-4)
        cfg = config(num_gfus=3, power_gfu=1000.0, rate_gfu=2.0)
        assert outage_diversity_asymptote(cfg) == pytest.approx(2.7e-8)

    def test_loglog_slope_is_minus_k(self):
        for k_users in (1, 2, 4):
            low = outage_diversity_asymptote(config(num_gfus=k_users, power_gfu=10.0))
            high = outage_diversity_asymptote(config(num_gfus=k_users, power_gfu=1000.0))
            slope = (math.log10(high) - math.log10(low)) / 2.0
            assert slope == pytest.approx(-k_users, rel=1e-12)

    @pytest.mark.parametrize("num_gfus, gfu_power_db", [(40, -100.0)])
    def test_overflow_is_a_range_error(self, num_gfus, gfu_power_db):
        # (eps_s / Ps) ** K is about 2e496 at K = 40
        cfg = SystemConfig.from_db(num_gfus, 10.0, gfu_power_db, 1.0, 8.0)
        for fn in (outage_diversity_asymptote, outage_probability_highsnr):
            with pytest.raises(NumericalRangeError, match="overflowed double precision"):
                fn(cfg)

    def test_single_user_power_law_fits_the_box(self):
        # at K = 1, where highsnr is the power law, eps_s / Ps is at most 1.8e34 in
        # the input box; it overflowed at -3200 dB, which is now rejected
        corner = SystemConfig(1, 10.0, 1e-15, 1.0, 64.0)
        for fn in (outage_diversity_asymptote, outage_probability_highsnr):
            assert fn(corner) == (2.0**64 - 1.0) / 1e-15
        with pytest.raises(ValueError, match="^power_gfu = "):
            SystemConfig.from_db(1, 10.0, -3200.0, 1.0, 8.0)


def test_evaluators_are_silent_over_the_accepted_range():
    # 1,000 seeded configs over the input box, K 1..256, powers 1e-15..1e15 and rates
    # 2**-20..64, log-uniform, then its corners, with 1 between each pair of edges:
    # each evaluator answers or raises NumericalRangeError, and none warns
    rng = np.random.default_rng(13)
    drawn = [
        SystemConfig(
            int(rng.integers(1, 257)),
            *(10.0 ** rng.uniform(-15.0, 15.0, 2)).tolist(),
            *(2.0 ** rng.uniform(-20.0, 6.0, 2)).tolist(),
        )
        for _ in range(1000)
    ]
    edges = [(1e-15, 1.0, 1e15)] * 2 + [(2.0**-20, 1.0, 64.0)] * 2
    corners = [SystemConfig(k, *fields) for k in (1, 2, 256) for fields in product(*edges)]
    outcomes = set()
    for cfg in drawn + corners:
        for evaluate in (outage_quadrature, outage_probability_highsnr, outage_diversity_asymptote):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    evaluate(cfg)
                    outcomes.add((evaluate.__name__, "answered"))
                except NumericalRangeError:
                    outcomes.add((evaluate.__name__, "raised"))
    assert len(outcomes) == 6


class TestSingleUser:
    def test_exact_value(self):
        # cross-checked against direct quadrature of the three case integrals
        # and a 1e7-trial simulation
        cfg = config(num_gfus=1)
        exact, approx = outage_probability(cfg), outage_probability_highsnr(cfg)
        assert exact == pytest.approx(0.10309035857298945, abs=1e-12)
        assert approx == pytest.approx(0.1)

    def test_approximation_tracks_exact(self):
        cfg = config(num_gfus=1, power_gbu=1e4, power_gfu=1e4)
        exact, approx = outage_probability(cfg), outage_probability_highsnr(cfg)
        assert approx == pytest.approx(1e-4)
        assert 0.8 <= exact / approx <= 1.2

    def test_vanishes_at_high_power(self):
        exact = outage_probability(config(num_gfus=1, power_gbu=1e12, power_gfu=1e12))
        assert exact < 1e-9

    def test_facades_dispatch_on_user_count(self):
        single = config(num_gfus=1)
        multi = config(num_gfus=3)
        assert outage_probability(single) == outage_quadrature(single).total
        assert outage_probability(multi) == outage_quadrature(multi).total
        assert outage_probability_highsnr(single) == outage_diversity_asymptote(single)
        assert outage_probability_highsnr(multi) == pytest.approx(
            float(highsnr_double_sum(multi)), rel=1e-12, abs=0.0
        )


class TestOracleSensitivity:
    def test_corrupted_kernel_breaks_oracle_agreement(self, monkeypatch):
        # the series route must actually depend on the kernel the quadrature checks
        cfg = config(num_gfus=3, power_gbu=100.0, power_gfu=10.0, rate_gbu=1.5, rate_gfu=1.5)
        true_kernel = analytic_module.nu_kernel
        monkeypatch.setattr(
            analytic_module, "nu_kernel", lambda n, mu, c: 1.01 * true_kernel(n, mu, c)
        )
        corrupted = analytic_module.outage_exact(cfg)
        monkeypatch.undo()
        clean = outage_quadrature(cfg)
        assert abs(corrupted.total - clean.total) > 1e-7

    def test_corrupted_rule_breaks_reference_agreement(self, monkeypatch):
        # and the quadrature must depend on its rule: 1% off the weights is seen
        cfg = config(num_gfus=3, power_gbu=100.0, power_gfu=10.0, rate_gbu=1.5, rate_gfu=1.5)
        weights = 1.01 * analytic_module._GAUSS_WEIGHTS
        monkeypatch.setattr(analytic_module, "_GAUSS_WEIGHTS", weights)
        corrupted = outage_quadrature(cfg)
        monkeypatch.undo()
        p1, p2_terms, p3 = reference_breakdown(cfg)
        assert abs(corrupted.total - math.fsum((p1, *p2_terms, p3))) > 1e-7


class TestCompensatedSum:
    """The series' exactly rounded summation and its conditioning checks."""

    def test_recovers_cancelled_low_bits(self):
        # exact for exact terms, yet kappa = 2e16 + 1 warns: terms carrying
        # their own rounding could not be trusted here
        with pytest.warns(ConditioningWarning):
            assert _series_sum([1e16, 1.0, -1e16], "synthetic series") == 1.0

    def test_finish_warns_on_heavy_cancellation(self):
        # kappa ~ 2.2e12 bounds the error by ~2.4e-4
        with pytest.warns(ConditioningWarning, match="synthetic series: condition number 2.199e"):
            _series_sum([1.0, -1.0 + 2.0**-40], "synthetic series")
        # kappa = 2e5 + 1 bounds the error by ~2e-11, inside the 1e-10 bound
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            assert _series_sum([1e5, 1.0, -1e5], "synthetic series") == 1.0

    def test_finish_raises_on_nonfinite(self):
        # inf; fsum's own ValueError (inf - inf); nan; fsum's OverflowError
        for terms in ([math.inf], [math.inf, -math.inf], [math.nan], [1e308, 1e308]):
            with pytest.raises(NumericalRangeError, match="synthetic series"):
                _series_sum(terms, "synthetic series")


class TestBuildBreakdown:
    """The one-pass range check returns what the per-value clip returned, and
    where a value fails it, raises the clip's error for the first such value."""

    @pytest.mark.parametrize(
        "p1,p2_terms,p3,message",
        [
            (math.nan, [0.1], 0.1, "^nonfinite value for case-I probability$"),
            (0.1, [0.1, 0.1, math.inf], 0.1,
             r"^nonfinite value for case-II probability \(k=2\)$"),
            (0.1, [0.1, 1.5, -2.0], 0.1,
             r"^case-II probability \(k=1\) = 1.5 lies outside \[0, 1\] beyond rounding tolerance$"),
            (0.1, [0.1], -1e-3, r"^case-III probability = -0.001 lies outside"),
            (0.6, [0.0], 0.6, r"^total outage probability = 1.2 lies outside"),
        ],
    )
    def test_out_of_range_value_named(self, p1, p2_terms, p3, message):
        with pytest.raises(NumericalRangeError, match=message):
            _build_breakdown(p1, p2_terms, p3)

    def test_rounding_excursions_clip(self):
        breakdown = _build_breakdown(-0.0, [-1e-12, 1.0 + 1e-12], -0.0)
        assert repr(breakdown) == repr(OutageBreakdown(0.0, (0.0, 1.0), 0.0, 1.0))

    def test_in_range_values_pass_through(self):
        breakdown = _build_breakdown(0.5, [0.0, 1e-300, 0.25], 0.125)
        assert breakdown == OutageBreakdown(0.5, (0.0, 1e-300, 0.25), 0.125, 0.875)
