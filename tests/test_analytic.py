import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from math import comb, exp, expm1, factorial

import numpy as np
import pytest
from scipy.integrate import quad

import sgfsim
from sgfsim import cli
from sgfsim.analytic import (
    AnalyticTerms,
    ConditioningWarning,
    NumericalRangeError,
    _series_sum,
    nu_kernel,
    outage_diversity_asymptote,
    outage_exact,
    outage_highsnr,
    outage_probability,
    outage_probability_highsnr,
    outage_quadrature,
)
from sgfsim.model import SystemConfig, db_to_linear
from sgfsim.montecarlo import _config_on_axis


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
    for build in cli._PRESETS.values():
        for spec in build(1000, 1):
            if spec.kind == "sweep":
                for value in spec.grid:
                    yield _config_on_axis(
                        spec.base_config, spec.axis, value, spec.gbu_to_gfu_power_ratio
                    )


class TestAnalyticTerms:
    @pytest.mark.parametrize("k_users", range(2, 21))
    def test_phi_factorial_identities(self, k_users):
        terms = AnalyticTerms(config(num_gfus=k_users))
        for k in range(1, k_users - 1):
            assert terms.phi_k(k) == factorial(k_users) / (
                factorial(k) * factorial(k_users - k)
            )

    def test_phi_k_domain(self):
        terms = AnalyticTerms(config(num_gfus=4))
        with pytest.raises(ValueError):
            terms.phi_k(0)
        with pytest.raises(ValueError):
            terms.phi_k(3)

    def test_bucket_constants(self):
        cfg = config(num_gfus=5, power_gbu=20.0, power_gfu=4.0, rate_gbu=2.0, rate_gfu=1.0)
        terms = AnalyticTerms(cfg)
        e0, es = cfg.eps0, cfg.eps_s
        assert terms.mu1(2) == pytest.approx(exp((5 - 2 * (1 + e0) * (1 + es)) / 4.0))
        assert terms.mu2(2) == pytest.approx(3 / (4.0 * cfg.eta0) - 2 * 20.0 / 4.0)
        assert terms.mu5 == pytest.approx(1.0 / (4.0 * cfg.eta0))
        assert terms.mu6 == pytest.approx(-5.0)

    def test_requires_two_users(self):
        with pytest.raises(ValueError):
            AnalyticTerms(config(num_gfus=1))


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
    def test_dispatch_guards(self):
        with pytest.raises(ValueError, match="outage_probability"):
            outage_exact(config(num_gfus=1))

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
        points = [cfg for cfg in preset_points() if cfg.num_gfus >= 2]
        warned = sum(series_warns_or_matches_quadrature(cfg)[1] for cfg in points)
        assert 0 < warned < len(points)


class TestQuadratureOracle:
    """Limits of the production quadrature, which replaced the adaptive oracle."""

    def test_vanishing_power_forces_outage(self):
        total = outage_quadrature(config(num_gfus=2, power_gfu=1e-6)).total
        assert total > 0.99

    def test_vanishing_target_removes_outage(self):
        total = outage_quadrature(config(num_gfus=2, rate_gfu=1e-9)).total
        assert total < 1e-9
        with pytest.warns(ConditioningWarning):
            series = outage_exact(config(num_gfus=2, rate_gfu=1e-9)).total
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

    def test_subnormal_total_raises(self):
        with pytest.raises(NumericalRangeError, match="smallest normal double"):
            outage_quadrature(SystemConfig(50, 1.0, 1e9, 1.0, 1.0))

    def test_breakdown_consistency(self):
        breakdown = outage_quadrature(config(num_gfus=5, power_gbu=31.6, power_gfu=100.0))
        parts = [breakdown.p_case1, *breakdown.p_case2_terms, breakdown.p_case3]
        assert all(isinstance(p, float) and 0.0 < p <= 1.0 for p in parts)
        assert len(breakdown.p_case2_terms) == 5
        assert breakdown.total == math.fsum(parts)

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
        near = outage_highsnr(config(num_gfus=2, power_gbu=1e5, power_gfu=1e5, rate_gbu=2.0, rate_gfu=1.5))
        asym = outage_diversity_asymptote(
            config(num_gfus=2, power_gbu=1e5, power_gfu=1e5, rate_gbu=2.0, rate_gfu=1.5)
        )
        assert near / asym == pytest.approx(1.0, abs=0.01)
        far = outage_highsnr(config(num_gfus=2, power_gbu=1e6, power_gfu=1e6, rate_gbu=2.0, rate_gfu=1.5))
        far_asym = outage_diversity_asymptote(
            config(num_gfus=2, power_gbu=1e6, power_gfu=1e6, rate_gbu=2.0, rate_gfu=1.5)
        )
        assert abs(far / far_asym - 1.0) < abs(near / asym - 1.0)

    @pytest.mark.parametrize("k_users", [2, 3])
    def test_relative_error_shrinks_along_sweep(self, k_users):
        rels = []
        for db in (30, 40, 50):
            power = db_to_linear(db)
            cfg = config(num_gfus=k_users, power_gbu=power, power_gfu=power, rate_gbu=2.0, rate_gfu=1.5)
            rels.append(abs(outage_highsnr(cfg) / outage_quadrature(cfg).total - 1.0))
        assert rels[0] > rels[1] > rels[2]

    def test_requires_two_users(self):
        with pytest.raises(ValueError):
            outage_highsnr(config(num_gfus=1))


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


class TestHighSnrClosedForm:
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
        assert outage_highsnr(cfg) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_where_the_float_double_sum_cancelled(self):
        # the paper's double sum evaluated in floats is 0.467 relative off here
        cfg = SystemConfig(
            19, 13618.417611811261, 255.6200881832188, 1.0921025045045964, 0.6364614068872667
        )
        want = float(highsnr_double_sum(cfg))
        assert outage_highsnr(cfg) == pytest.approx(want, rel=1e-12, abs=0.0)


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
        assert outage_probability_highsnr(multi) == outage_highsnr(multi)


class TestOracleSensitivity:
    def test_corrupted_kernel_breaks_oracle_agreement(self, monkeypatch):
        # the series route must actually depend on the kernel the quadrature checks
        import sgfsim.analytic as analytic_module

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
        import sgfsim.analytic as analytic_module

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
