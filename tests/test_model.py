import math

import numpy as np
import pytest

from sgfsim.model import (
    ChannelRealization,
    SystemConfig,
    achievable_rates,
    db_to_linear,
    linear_to_db,
    sample_channel_realization,
    sample_gain_matrix,
    sinr_triplet,
)


def make_config(**overrides):
    params = dict(
        num_gfus=3, power_gbu=10.0, power_gfu=10.0, target_rate_gbu=1.0, target_rate_gfu=1.0
    )
    params.update(overrides)
    return SystemConfig(**params)


class TestSystemConfig:
    def test_derived_thresholds(self):
        cfg = make_config(target_rate_gbu=2.0, target_rate_gfu=1.0, power_gbu=30.0)
        assert cfg.eps0 == pytest.approx(3.0)
        assert cfg.eps_s == pytest.approx(1.0)
        assert cfg.eta0 == pytest.approx(0.1)
        assert cfg.eta_s == pytest.approx(0.1)

    def test_from_db(self):
        cfg = SystemConfig.from_db(2, 20.0, 10.0, 1.5, 0.5)
        assert cfg.power_gbu == pytest.approx(100.0)
        assert cfg.power_gfu == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(num_gfus=0),
            dict(num_gfus=-1),
            dict(num_gfus=2.0),
            dict(power_gbu=0.0),
            dict(power_gfu=-1.0),
            dict(target_rate_gbu=0.0),
            dict(target_rate_gfu=math.inf),
        ],
    )
    def test_rejects_invalid_fields(self, overrides):
        with pytest.raises(ValueError):
            make_config(**overrides)

    def test_db_helpers_roundtrip(self):
        assert linear_to_db(db_to_linear(17.3)) == pytest.approx(17.3)
        with pytest.raises(ValueError):
            linear_to_db(0.0)


class TestChannelRealization:
    def test_requires_sorted_nonnegative(self):
        with pytest.raises(ValueError):
            ChannelRealization(1.0, (2.0, 1.0))
        with pytest.raises(ValueError):
            ChannelRealization(-0.1, (1.0,))
        with pytest.raises(ValueError):
            ChannelRealization(1.0, ())

    def test_best_gain(self):
        real = ChannelRealization(0.5, (0.1, 0.7, 2.0))
        assert real.gain_best == 2.0
        assert real.num_gfus == 3


class TestSampling:
    def test_structure(self):
        rng = np.random.default_rng(0)
        real = sample_channel_realization(3, rng)
        assert len(real.gains_gfu) == 3
        assert list(real.gains_gfu) == sorted(real.gains_gfu)
        assert all(g >= 0.0 for g in real.gains_gfu)
        assert real.gain_gbu >= 0.0

    def test_rejects_zero_users(self):
        with pytest.raises(ValueError):
            sample_channel_realization(0, np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(65536, 6), (1, 6)])
    def test_in_place_transform_is_bit_identical(self, shape):
        def philox():
            return np.random.Generator(np.random.Philox(key=(np.uint64(7), np.uint64(3))))

        gains = sample_gain_matrix(*shape, philox())
        expected = -np.log1p(-philox().random(shape))
        assert gains.shape == shape
        assert gains.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [65536, 1001])
    def test_out_buffer_matches_fresh_draw(self, rows):
        # a full block and a prefix view sized for a partial one, both over stale values
        def philox():
            return np.random.Generator(np.random.Philox(key=(np.uint64(7), np.uint64(3))))

        buf = np.full((65536, 6), np.nan)
        target = buf[:rows]
        gains = sample_gain_matrix(rows, 6, philox(), out=target)
        assert gains is target
        assert np.shares_memory(gains, buf)
        assert gains.tobytes() == sample_gain_matrix(rows, 6, philox()).tobytes()
        assert np.isnan(buf[rows:]).all()

    def test_out_buffer_must_match_the_draw(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_gain_matrix(4, 3, rng, out=np.empty((5, 3)))
        # column-major storage would be filled in memory order, reordering the draw
        with pytest.raises(ValueError, match="C-contiguous"):
            sample_gain_matrix(4, 3, rng, out=np.empty((4, 3), order="F"))

    def test_unit_mean(self):
        rng = np.random.default_rng(11)
        gains = sample_gain_matrix(10**6, 1, rng)
        assert gains.mean() == pytest.approx(1.0, abs=0.005)

    def test_max_of_five_matches_harmonic_number(self):
        # mean of the maximum of 5 unit exponentials is 1 + 1/2 + ... + 1/5
        rng = np.random.default_rng(12)
        gains = sample_gain_matrix(10**6, 5, rng)
        h5 = sum(1.0 / k for k in range(1, 6))
        assert gains.max(axis=1).mean() == pytest.approx(h5, abs=0.01)

    def test_admission_is_exchangeable(self):
        # every raw index is the strongest equally often
        k = 5
        trials = 10**6
        rng = np.random.default_rng(13)
        winners = sample_gain_matrix(trials, k, rng).argmax(axis=1)
        counts = np.bincount(winners, minlength=k)
        sigma = math.sqrt((1.0 / k) * (1.0 - 1.0 / k) / trials)
        for count in counts:
            assert abs(count / trials - 1.0 / k) <= 3.0 * sigma


class TestSinrChain:
    def test_alpha_zero_collapses_first_stream(self):
        cfg = make_config(power_gbu=4.0, power_gfu=2.0)
        s1, s0, s2 = sinr_triplet(cfg, 1.5, 3.0, 0.0)
        assert s1 == 0.0
        assert s0 == pytest.approx(6.0 / 7.0)
        assert s2 == pytest.approx(6.0)

    def test_alpha_one_without_gbu(self):
        cfg = make_config(power_gbu=4.0, power_gfu=2.0)
        s1, s0, s2 = sinr_triplet(cfg, 0.0, 3.0, 1.0)
        assert s1 == pytest.approx(6.0)
        assert s0 == 0.0
        assert s2 == 0.0

    def test_half_split_example(self):
        cfg = make_config(power_gbu=10.0, power_gfu=10.0)
        s1, s0, s2 = sinr_triplet(cfg, 1.0, 2.0, 0.5)
        assert s1 == pytest.approx(10.0 / 21.0)
        assert s0 == pytest.approx(10.0 / 11.0)
        assert s2 == pytest.approx(10.0)

    @pytest.mark.parametrize("alpha", [-0.01, 1.01])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            sinr_triplet(make_config(), 1.0, 1.0, alpha)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            sinr_triplet(make_config(), -1.0, 1.0, 0.5)

    def test_sum_rate_conservation(self):
        # the SIC chain always splits the same total rate, whatever the split
        rng = np.random.default_rng(3)
        for _ in range(500):
            cfg = make_config(
                power_gbu=float(rng.uniform(0.1, 100.0)),
                power_gfu=float(rng.uniform(0.1, 100.0)),
            )
            g0 = float(rng.exponential())
            g_k = float(rng.exponential())
            alpha = float(rng.random())
            rates = achievable_rates(*sinr_triplet(cfg, g0, g_k, alpha))
            total = math.log2(1.0 + cfg.power_gbu * g0 + cfg.power_gfu * g_k)
            assert sum(rates) == pytest.approx(total, rel=1e-9)


class TestAchievableRates:
    def test_zero_sinr(self):
        assert achievable_rates(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_powers_of_two(self):
        assert achievable_rates(1.0, 3.0, 7.0) == pytest.approx((1.0, 2.0, 3.0))

    def test_half_split_rates(self):
        r1, r0, r2 = achievable_rates(10.0 / 21.0, 10.0 / 11.0, 10.0)
        assert r1 == pytest.approx(math.log2(31.0 / 21.0))
        assert r0 == pytest.approx(math.log2(21.0 / 11.0))
        assert r2 == pytest.approx(math.log2(11.0))

    def test_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            achievable_rates(-0.1, 0.0, 0.0)

    def test_monotone_in_sinr(self):
        values = [0.0, 0.5, 1.0, 4.0, 100.0]
        rates = [achievable_rates(v, v, v)[0] for v in values]
        assert rates == sorted(rates)
