import math
from types import SimpleNamespace

import numpy as np
import pytest

from sgfsim.baselines import cr_noma_outage, cr_noma_rate
from sgfsim.model import ChannelRealization, SystemConfig, db_to_linear, sample_gain_matrix
from sgfsim.montecarlo import Scheme, estimate_outage
from sgfsim.protocol import CaseLabel, evaluate_transmission


def config(num_gfus=2, power_gbu=4.0, power_gfu=1.0, rate_gbu=1.0, rate_gfu=1.0):
    return SystemConfig(num_gfus, power_gbu, power_gfu, rate_gbu, rate_gfu)


class TestCrNomaRate:
    def test_matches_rate_splitting_outside_middle_case(self):
        cfg = config(num_gfus=3, power_gbu=12.0, power_gfu=8.0, rate_gbu=1.3, rate_gfu=1.1)
        rng = np.random.default_rng(31)
        seen = {CaseLabel.CASE_I: 0, CaseLabel.CASE_III: 0}
        for row in sample_gain_matrix(4000, 4, rng).tolist():
            real = ChannelRealization(row[-1], tuple(sorted(row[:-1])))
            out = evaluate_transmission(cfg, real)
            case = out.case_label
            if case is CaseLabel.CASE_II:
                continue
            rate, admitted = cr_noma_rate(cfg, real)
            assert rate == out.rate_gfu_total
            assert admitted == 3
            seen[case] += 1
        assert all(count > 0 for count in seen.values())

    def test_middle_case_example(self):
        # threshold 3 splits received powers [2, 10]: decode-last gets log2(3),
        # decode-first gets log2(3); rate-splitting clears both by a margin
        cfg = config(num_gfus=2, power_gbu=4.0, power_gfu=1.0)
        real = ChannelRealization(1.0, (2.0, 10.0))
        rate, admitted = cr_noma_rate(cfg, real)
        assert rate == pytest.approx(math.log2(3.0))
        assert admitted == 2  # tie between the two candidates goes to the strongest
        rsma = evaluate_transmission(cfg, real).rate_gfu_total
        assert rsma == pytest.approx(2.0 + math.log2(15.0 / 8.0))
        assert rsma > rate

    def test_middle_case_prefers_decode_last_when_it_wins(self):
        cfg = config(num_gfus=2, power_gbu=4.0, power_gfu=1.0)
        # received powers [2.9, 3.05]: decode-last log2(3.9) beats decode-first
        real = ChannelRealization(1.0, (2.9, 3.05))
        rate, admitted = cr_noma_rate(cfg, real)
        assert admitted == 1
        assert rate == pytest.approx(math.log2(3.9))

    def test_strict_dominance_in_middle_case(self):
        cfg = SystemConfig(3, db_to_linear(20.0), db_to_linear(8.24), 2.5, 1.5)
        rng = np.random.default_rng(32)
        checked = 0
        # every middle-case row of whole draws: the sampler sorts the GBU column, so
        # stopping inside a draw would check only its weakest GBU channels
        while checked < 20000:
            for row in sample_gain_matrix(20000, 4, rng).tolist():
                real = ChannelRealization(row[-1], tuple(sorted(row[:-1])))
                out = evaluate_transmission(cfg, real)
                if out.case_label is not CaseLabel.CASE_II:
                    continue
                rate, _ = cr_noma_rate(cfg, real)
                assert out.rate_gfu_total > rate
                checked += 1


    @pytest.mark.parametrize("gain_gbu", [math.nan, -1.0])
    def test_bad_gbu_gain_rejected_on_a_bare_record(self, gain_gbu):
        block = SimpleNamespace(gain_gbu=gain_gbu, gains_gfu=(2.0, 10.0), gain_best=10.0, num_gfus=2)
        with pytest.raises(ValueError, match="gain_gbu must be >= 0"):
            cr_noma_rate(config(), block)


class TestCrNomaOutage:
    def test_meeting_target_is_not_outage(self):
        cfg = config(num_gfus=2, power_gbu=4.0, power_gfu=1.0)
        real = ChannelRealization(1.0, (2.0, 10.0))  # rate log2(3) >= target 1
        assert cr_noma_rate(cfg, real)[0] >= cfg.target_rate_gfu
        assert not cr_noma_outage(cfg, real)

    def test_outage_bit_matches_rate_splitting_outside_middle_case(self):
        cfg = config(num_gfus=2, power_gbu=6.0, power_gfu=3.0, rate_gfu=1.4)
        rng = np.random.default_rng(33)
        for row in sample_gain_matrix(3000, 3, rng).tolist():
            real = ChannelRealization(row[-1], tuple(sorted(row[:-1])))
            out = evaluate_transmission(cfg, real)
            if out.case_label is CaseLabel.CASE_II:
                continue
            assert cr_noma_outage(cfg, real) == out.gfu_outage

    def test_baseline_floors_while_rate_splitting_decays(self):
        # locked-ratio sweep: the baseline's outage stops improving with SNR
        def point(db, scheme):
            cfg = SystemConfig(2, db_to_linear(db), db_to_linear(db) / 15.0, 2.5, 1.5)
            return estimate_outage(cfg, scheme, trials=10**5, seed=3).gfu_outage_prob

        rsma_low, rsma_high = point(30, Scheme.CR_RSMA_SGF), point(45, Scheme.CR_RSMA_SGF)
        noma_low, noma_high = point(30, Scheme.CR_NOMA_SGF), point(45, Scheme.CR_NOMA_SGF)
        assert rsma_high < rsma_low / 10.0
        assert noma_high > noma_low / 2.0
        assert noma_high > 100.0 * max(rsma_high, 1e-5)
