import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from sgfsim.baselines import cr_noma_outage, cr_noma_rate
from sgfsim.model import (
    ChannelRealization,
    SystemConfig,
    sample_channel_realization,
    sample_gain_matrix,
)
from sgfsim.protocol import CaseLabel, evaluate_transmission, gbu_oma_outage


SCALAR_OUTPUT_SHA256 = "74d580d89dc98c7533672eef4680ddbe1fddff16d67f5e093514d1ce40c3ad29"

OUTCOME_FIELDS = (
    "case_label", "tau_hat", "tau", "alpha", "beta", "rate_gbu", "rate_gfu_s1",
    "rate_gfu_s2", "rate_gfu_total", "gfu_silent", "gbu_outage", "gfu_outage",
)


def config(num_gfus=2, power_gbu=4.0, power_gfu=10.0, rate_gbu=1.0, rate_gfu=1.0):
    return SystemConfig(num_gfus, power_gbu, power_gfu, rate_gbu, rate_gfu)


def outcome(cfg, gain_gbu, gains_gfu):
    return evaluate_transmission(cfg, ChannelRealization(gain_gbu, gains_gfu))


class TestThresholdFields:
    def test_positive(self):
        out = outcome(config(power_gbu=4.0), 1.0, (0.1, 0.2))
        assert out.tau_hat == pytest.approx(3.0)
        assert out.tau == pytest.approx(3.0)

    def test_clipped(self):
        out = outcome(config(power_gbu=4.0), 0.125, (0.1, 0.2))
        assert out.tau_hat == pytest.approx(-0.5)
        assert out.tau == 0.0

    def test_zero_boundary_is_clipped(self):
        cfg = config(power_gbu=3.0, rate_gbu=2.0)  # threshold SNR eps0 = 3
        out = outcome(cfg, 1.0, (0.1, 0.2))
        assert out.tau_hat == pytest.approx(0.0)
        assert out.tau == 0.0

    def test_nan_gain_rejected(self):
        # every per-block function checks the GBU gain before reading a threshold from it
        block = SimpleNamespace(gain_gbu=math.nan, gains_gfu=(0.5, 2.0), gain_best=2.0)
        for scheme in (evaluate_transmission, cr_noma_rate, cr_noma_outage):
            with pytest.raises(ValueError, match="gain_gbu must be >= 0"):
                scheme(config(), block)


class TestCaseLabelField:
    def test_zero_threshold_is_case_three(self):
        cfg = config(power_gbu=3.0, rate_gbu=2.0)
        assert outcome(cfg, 1.0, (0.5, 2.0)).case_label is CaseLabel.CASE_III

    def test_all_below_threshold_is_case_one(self):
        cfg = config(num_gfus=3, power_gbu=4.0, power_gfu=1.0)
        # tau = 3, max received power 2
        assert outcome(cfg, 1.0, (0.5, 1.0, 2.0)).case_label is CaseLabel.CASE_I

    def test_strongest_above_threshold_is_case_two(self):
        cfg = config(num_gfus=3, power_gbu=4.0, power_gfu=1.0)
        assert outcome(cfg, 1.0, (0.5, 1.0, 5.0)).case_label is CaseLabel.CASE_II

    def test_boundary_power_counts_as_case_one(self):
        cfg = config(num_gfus=2, power_gbu=4.0, power_gfu=1.0)
        # received power == tau exactly
        assert outcome(cfg, 1.0, (0.5, 3.0)).case_label is CaseLabel.CASE_I


class TestSplitFields:
    def test_case_two_splits(self):
        cfg = config(power_gbu=4.0, power_gfu=10.0, rate_gfu=4.0)
        out = outcome(cfg, 1.0, (0.35, 1.0))  # tau_hat = 3, best received = 10
        assert out.case_label is CaseLabel.CASE_II
        assert out.alpha == pytest.approx(0.7)
        assert out.beta == pytest.approx(0.5)  # 1 - log2(4)/4

    def test_case_one_and_three_are_pinned(self):
        cfg = config(power_gbu=4.0, power_gfu=1.0)
        low = outcome(cfg, 1.0, (0.5, 2.0))
        assert low.case_label is CaseLabel.CASE_I
        assert (low.alpha, low.beta) == (0.0, 0.0)
        weak = outcome(config(power_gbu=4.0), 0.1, (0.5, 2.0))  # tau = 0
        assert weak.case_label is CaseLabel.CASE_III
        assert (weak.alpha, weak.beta) == (1.0, 1.0)

    def test_rate_split_clamps_without_changing_outage(self):
        # threshold already carries more rate than the target: raw split < 0
        cfg = config(power_gbu=8.0, power_gfu=10.0, rate_gfu=2.0)
        out = outcome(cfg, 1.0, (0.2, 0.8))  # tau_hat = 7, best received = 8
        assert out.case_label is CaseLabel.CASE_II
        assert out.beta == 0.0
        assert out.rate_gfu_total >= cfg.target_rate_gfu
        assert not out.gfu_outage
        assert not out.gfu_silent


class TestGbuOmaOutage:
    def test_below_threshold(self):
        assert gbu_oma_outage(config(power_gbu=4.0), 0.125)

    def test_boundary_counts_as_success(self):
        assert not gbu_oma_outage(config(power_gbu=4.0), 0.25)

    def test_nan_gain_rejected(self):
        with pytest.raises(ValueError):
            gbu_oma_outage(config(), math.nan)

    def test_matches_exponential_cdf(self):
        cfg = config(power_gbu=10.0, rate_gbu=1.0)
        rng = np.random.default_rng(21)
        gains = sample_gain_matrix(10**6, 1, rng)[:, 0]
        freq = float(np.mean(gains < cfg.eta0))
        p = -math.expm1(-0.1)
        sigma = math.sqrt(p * (1.0 - p) / 10**6)
        assert abs(freq - p) <= 3.0 * sigma
        # scalar path agrees with the vectorised comparison on 1000 rows drawn at
        # random and every row within 1e-3 of eta0 (the sampler sorts this column,
        # so a leading slice would hold only the lowest gains)
        near = gains[np.abs(gains - cfg.eta0) < 1e-3]
        assert near.size > 1000
        for g in np.concatenate([rng.choice(gains, 1000, replace=False), near]):
            assert gbu_oma_outage(cfg, float(g)) == (g < cfg.eta0)


class TestEvaluateTransmission:
    def test_nan_gbu_gain_rejected(self):
        # a NaN gain once read as Case III with neither user in outage;
        # ChannelRealization rejects it, and so does the protocol on a bare record
        nan_block = SimpleNamespace(gain_gbu=math.nan, gains_gfu=(1.0, 2.0), gain_best=2.0)
        with pytest.raises(ValueError):
            evaluate_transmission(config(), nan_block)

    @pytest.mark.parametrize("gain_gbu, gain_best", [(-1.0, 2.0), (1.0, math.nan), (1.0, -2.0)])
    def test_bad_gain_rejected_on_a_bare_record(self, gain_gbu, gain_best):
        # the rate-splitting protocol and both baseline functions read one checked decision
        block = SimpleNamespace(gain_gbu=gain_gbu, gains_gfu=(1.0, gain_best), gain_best=gain_best)
        for scheme in (evaluate_transmission, cr_noma_rate, cr_noma_outage):
            with pytest.raises(ValueError, match="must be >= 0"):
                scheme(config(), block)

    @pytest.mark.parametrize("gain_gbu, gains_gfu", [(1.0, (0.5, math.inf)), (0.1, (0.5, math.inf))])
    def test_infinite_gain_rejected(self, gain_gbu, gains_gfu):
        # Case II and Case III: the residual (1 - alpha) * inf of alpha = 1 is NaN
        with pytest.raises(ValueError, match="SINR must be >= 0"):
            evaluate_transmission(config(), ChannelRealization(gain_gbu, gains_gfu))

    def test_case_two_example(self):
        cfg = config(power_gbu=4.0, power_gfu=10.0)
        real = ChannelRealization(1.0, (0.35, 1.0))  # tau_hat = 3
        out = evaluate_transmission(cfg, real)
        assert out.case_label is CaseLabel.CASE_II
        assert out.rate_gfu_s2 == pytest.approx(2.0)
        assert out.rate_gfu_s1 == pytest.approx(math.log2(15.0 / 8.0))
        assert out.rate_gfu_total == pytest.approx(2.0 + math.log2(15.0 / 8.0))
        assert not out.gfu_outage and not out.gfu_silent and not out.gbu_outage
        # the split pins the GBU exactly at its target rate
        assert out.rate_gbu == pytest.approx(cfg.target_rate_gbu, rel=1e-12)

    def test_case_one_outage(self):
        cfg = config(power_gbu=4.0, power_gfu=1.0)
        real = ChannelRealization(1.0, (0.1, 0.5))  # best received 0.5 under tau = 3
        out = evaluate_transmission(cfg, real)
        assert out.case_label is CaseLabel.CASE_I
        assert out.rate_gfu_total == pytest.approx(math.log2(1.5))
        assert out.gfu_outage and not out.gfu_silent
        assert not out.gbu_outage

    def test_case_two_silence(self):
        cfg = config(power_gbu=4.0, power_gfu=10.0, rate_gfu=3.0)
        real = ChannelRealization(1.0, (0.31, 0.32))  # best received 3.2 just above tau
        out = evaluate_transmission(cfg, real)
        assert out.case_label is CaseLabel.CASE_II
        assert out.gfu_silent and out.gfu_outage
        assert not out.gbu_outage
        # the GBU then transmits alone
        assert out.rate_gbu == pytest.approx(math.log2(5.0))

    def test_case_three_outages(self):
        cfg = config(power_gbu=4.0, power_gfu=10.0)
        real = ChannelRealization(0.1, (0.2, 0.4))  # tau = 0
        out = evaluate_transmission(cfg, real)
        assert out.case_label is CaseLabel.CASE_III
        assert out.gbu_outage
        assert out.rate_gfu_total == pytest.approx(math.log2(1.0 + 4.0 / 1.4))

    def test_stream_rates_sum(self):
        cfg = config(num_gfus=4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            row = sorted(float(g) for g in rng.exponential(size=4))
            out = evaluate_transmission(cfg, ChannelRealization(float(rng.exponential()), tuple(row)))
            assert out.rate_gfu_total == out.rate_gfu_s1 + out.rate_gfu_s2
            if out.gfu_silent:
                assert out.case_label is CaseLabel.CASE_II and out.gfu_outage


class TestProtocolInvariants:
    def test_gbu_outage_equals_oma_everywhere(self):
        cfg = config(num_gfus=3, power_gbu=10.0, power_gfu=31.6, rate_gbu=1.0, rate_gfu=1.5)
        rng = np.random.default_rng(6)
        gains = sample_gain_matrix(10**4, 4, rng)
        for row in gains.tolist():
            real = ChannelRealization(row[-1], tuple(sorted(row[:-1])))
            out = evaluate_transmission(cfg, real)
            assert out.gbu_outage == gbu_oma_outage(cfg, real.gain_gbu)
            if out.case_label in (CaseLabel.CASE_I, CaseLabel.CASE_II):
                assert not out.gbu_outage

    def test_case_two_residual_interference_hits_threshold(self):
        from sgfsim.model import sinr_triplet

        cfg = config(num_gfus=3, power_gbu=100.0, power_gfu=10.0, rate_gbu=1.5)
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 500:
            row = sorted(float(g) for g in rng.exponential(size=3))
            real = ChannelRealization(float(rng.exponential()), tuple(row))
            out = evaluate_transmission(cfg, real)
            if out.case_label is not CaseLabel.CASE_II:
                continue
            _, sinr_gbu, sinr_s2 = sinr_triplet(cfg, real.gain_gbu, real.gain_best, out.alpha)
            assert sinr_s2 == pytest.approx(out.tau_hat, rel=1e-9)
            assert math.log2(1.0 + sinr_gbu) >= cfg.target_rate_gbu - 1e-9
            checked += 1

    def test_silence_equivalence_of_both_forms(self):
        # on random draws the two rate forms agree: first-stream test against the
        # unclamped split == total-rate test; the silence flag is the kernel's
        # threshold form, 1 + P0 g0 + Ps g below (1 + eps0)(1 + eps_s)
        cfg = config(num_gfus=2, power_gbu=30.0, power_gfu=8.0, rate_gbu=1.2, rate_gfu=2.0)
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 2000:
            row = sorted(float(g) for g in rng.exponential(size=2))
            real = ChannelRealization(float(rng.exponential()), tuple(row))
            out = evaluate_transmission(cfg, real)
            if out.case_label is not CaseLabel.CASE_II:
                continue
            raw_beta = 1.0 - math.log2(1.0 + out.tau_hat) / cfg.target_rate_gfu
            first_stream_short = out.rate_gfu_s1 < raw_beta * cfg.target_rate_gfu
            assert first_stream_short == (out.rate_gfu_total < cfg.target_rate_gfu)
            p_gbu, p_best = cfg.power_gbu * real.gain_gbu, cfg.power_gfu * real.gain_best
            below_ceiling = (1.0 + p_gbu) + p_best < (1.0 + cfg.eps0) * (1.0 + cfg.eps_s)
            assert out.gfu_silent == out.gfu_outage == below_ceiling
            checked += 1

    def test_outage_monotone_in_best_gain(self):
        cfg = config(num_gfus=2, power_gbu=12.0, power_gfu=5.0, rate_gfu=1.7)
        rng = np.random.default_rng(9)
        for _ in range(500):
            g0 = float(rng.exponential())
            low = float(rng.exponential() * 0.3)
            best = low + float(rng.exponential())
            outage = []
            for scale in (1.0, 1.5, 2.5, 6.0, 20.0):
                real = ChannelRealization(g0, (min(low, best * scale), best * scale))
                outage.append(evaluate_transmission(cfg, real).gfu_outage)
            # once the best gain stops causing outage, growing it never restarts one
            assert outage == sorted(outage, reverse=True)


def test_scalar_outputs_are_pinned():
    # repr of every drawn gain, every TransmissionOutcome field and every
    # cr_noma_rate result over seeded blocks plus hand-built boundary blocks;
    # pinned before the one-pass scalar protocol went in, and again when each draw
    # gave the GBU its first uniform
    settings = [(30.0, 18.2, 2.5, 1.5), (20.0, 8.24, 2.5, 1.5), (15.0, 20.0, 3.0, 3.0), (10.0, 10.0, 1.0, 0.5)]
    blocks = []
    for k in (1, 2, 5, 8):
        for i, (p0_db, ps_db, rate_gbu, rate_gfu) in enumerate(settings):
            cfg = SystemConfig.from_db(k, p0_db, ps_db, rate_gbu, rate_gfu)
            rng = np.random.default_rng(100 * k + i)
            blocks += [(cfg, sample_channel_realization(k, rng)) for _ in range(400)]
    # received power == tau (Case I edge, and a GFU exactly at tau for the baseline)
    on_tau = config(num_gfus=2, power_gbu=4.0, power_gfu=1.0)
    blocks += [(on_tau, ChannelRealization(1.0, (0.5, 3.0))), (on_tau, ChannelRealization(1.0, (3.0, 5.0)))]
    # tau_hat == 0 exactly (eps0 = 3, P0 * g0 = 3)
    zero = config(num_gfus=2, power_gbu=3.0, rate_gbu=2.0)
    blocks += [(zero, ChannelRealization(1.0, (0.5, 2.0))), (zero, ChannelRealization(1.0, (0.0, 0.0)))]

    digest = hashlib.sha256()
    seen = set()
    for cfg, real in blocks:
        outcome = evaluate_transmission(cfg, real)
        rate, admitted = cr_noma_rate(cfg, real)
        texts = [repr(real.gain_gbu), repr(real.gains_gfu)]
        texts += [repr(getattr(outcome, name)) for name in OUTCOME_FIELDS]
        texts.append(repr((rate, admitted)))
        digest.update("|".join(texts).encode() + b"\n")
        seen.add(outcome.case_label)
        if outcome.gfu_silent:
            seen.add("silent")
        if outcome.case_label is CaseLabel.CASE_II:
            seen.add("decoded last" if admitted < real.num_gfus else "decoded first")
    assert seen == {*CaseLabel, "silent", "decoded last", "decoded first"}
    assert digest.hexdigest() == SCALAR_OUTPUT_SHA256
