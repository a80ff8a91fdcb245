"""The benchmark's outage reference against 30-digit mpmath quadrature.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import mpmath
import pytest

from reference import case_probabilities

# (K, P0 dB, Ps dB, GBU rate, GFU rate)
CONFIGS = [
    pytest.param(5, 15.0, 45.0, 3.0, 3.0, id="fig4_k5-45dB"),
    pytest.param(5, 15.0, 40.0, 3.0, 3.0, id="fig4_k5-40dB"),
    pytest.param(1, 15.0, 20.0, 3.0, 3.0, id="fig4_k1-20dB"),
    pytest.param(2, 30.0, 18.2, 2.5, 1.5, id="k2-midrange"),
    pytest.param(10, 5.0, 2.0, 4.0, 4.0, id="k10-low-snr"),
    pytest.param(20, 40.0, 45.0, 0.7, 3.8, id="k20-high-snr"),
    pytest.param(8, 50.0, 0.5, 1.0, 1.0, id="k8-weak-gfu"),
]


def mp_case_probabilities(k, p0, ps, r0, rs):
    """The three case integrals in 30-digit arithmetic, written directly."""
    with mpmath.workdps(30):
        p0, ps = mpmath.mpf(p0), mpmath.mpf(ps)
        e0, es = mpmath.mpf(2) ** r0 - 1, mpmath.mpf(2) ** rs - 1
        eta0, eta_s = e0 / p0, es / ps
        x_star = (1 + e0) * (1 + es) / (1 / eta0 + p0)

        def cdf(y):
            return 1 - mpmath.exp(-y)

        def integrate(fn, lo, hi):
            # mpmath's tolerance is absolute: scale the integrand to order one
            scale = max(fn(lo), fn((lo + hi) / 2), fn(hi)) * (hi - lo)
            return mpmath.quad(lambda x: fn(x) / scale, [lo, hi]) * scale

        def floor_gain(x):
            return (x / eta0 - 1) / ps

        def ceil_gain(x):
            return ((1 + e0) * (1 + es) - 1 - p0 * x) / ps

        p1 = integrate(lambda x: cdf(floor_gain(x)) ** k * mpmath.exp(-x), eta0, x_star)
        p1 += cdf(eta_s) ** k * mpmath.exp(-x_star)
        p2 = integrate(
            lambda x: (cdf(ceil_gain(x)) ** k - cdf(floor_gain(x)) ** k) * mpmath.exp(-x),
            eta0,
            x_star,
        )
        p3 = integrate(lambda x: cdf(eta_s * (1 + p0 * x)) ** k * mpmath.exp(-x), mpmath.mpf(0), eta0)
        return p1, p2, p3


@pytest.mark.parametrize("k,p0_db,ps_db,r0,rs", CONFIGS)
def test_reference_matches_mpmath(k, p0_db, ps_db, r0, rs):
    p0, ps = 10.0 ** (p0_db / 10.0), 10.0 ** (ps_db / 10.0)
    got = case_probabilities(k, p0, ps, r0, rs)
    want = mp_case_probabilities(k, p0, ps, r0, rs)
    for value, exact in zip(got, want):
        assert abs(value - float(exact)) <= 1e-12 * float(exact)
    assert abs(sum(got) - float(sum(want))) <= 1e-12 * float(sum(want))


def test_fig4_k5_at_45db_is_below_the_printed_series_value():
    total = sum(case_probabilities(5, 10.0**1.5, 10.0**4.5, 3.0, 3.0))
    # the alternating series prints 1.03e-14 here; the true value is ~3.87e-15
    assert total == pytest.approx(3.865e-15, rel=1e-3)
