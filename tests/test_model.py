import math
from dataclasses import FrozenInstanceError

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

    @pytest.mark.parametrize("name", ["target_rate_gbu", "target_rate_gfu"])
    @pytest.mark.parametrize("rate", [math.nextafter(64.0, math.inf), 1024.0, 1100.0])
    def test_rejects_a_rate_whose_threshold_overflows(self, name, rate):
        # 2**rate - 1 overflows a double from 1024 on; the input box ends at 64
        message = rf"^{name} = {rate!r} lies outside the input box \[2\*\*-20, 64\]$"
        with pytest.raises(ValueError, match=message):
            make_config(**{name: rate})
        cfg = make_config(**{name: 64.0})
        assert cfg.eps0 * cfg.eps_s == 2.0**64 - 1.0

    @pytest.mark.parametrize("name", ["target_rate_gbu", "target_rate_gfu"])
    @pytest.mark.parametrize("rate", [math.nextafter(2.0**-20, 0.0), 1e-17, 5e-324])
    def test_rejects_a_rate_whose_threshold_rounds_to_zero(self, name, rate):
        # 2**rate rounds to 1.0 below about 1.6e-16, where the threshold 2**rate - 1
        # would be 0.0; the input box starts at 2**-20, where its rounding is 1.7e-10 relative
        with pytest.raises(ValueError, match=rf"^{name} = {rate!r} lies outside the input box"):
            make_config(**{name: rate})
        cfg = make_config(**{name: 2.0**-20})
        assert cfg.eps0 * cfg.eps_s == pytest.approx(math.expm1(math.log(2.0) * 2.0**-20), rel=2e-10)

    @pytest.mark.parametrize("name", ["gbu_power_db", "gfu_power_db"])
    def test_from_db_names_an_overflowing_power(self, name):
        powers = {"gbu_power_db": 20.0, "gfu_power_db": 10.0, name: 4000.0}
        with pytest.raises(ValueError, match=f"^{name}: 4000.0 dB overflows"):
            SystemConfig.from_db(2, target_rate_gbu=1.0, target_rate_gfu=1.0, **powers)

    def test_derived_thresholds_are_cached_values(self):
        cfg = make_config(target_rate_gbu=1.5, target_rate_gfu=2.5, power_gbu=7.0, power_gfu=3.0)
        assert cfg.eps0 == 2.0**1.5 - 1.0
        assert cfg.eps_s == 2.0**2.5 - 1.0
        assert cfg.eta0 == (2.0**1.5 - 1.0) / 7.0
        assert cfg.eta_s == (2.0**2.5 - 1.0) / 3.0
        assert cfg.case2_ceiling == (1.0 + cfg.eps0) * (1.0 + cfg.eps_s)
        assert {"eps0", "eps_s", "case2_ceiling", "eta0", "eta_s"} <= vars(cfg).keys()
        # the cache is no field: equality, hashing and repr see the fields alone
        fresh = make_config(target_rate_gbu=1.5, target_rate_gfu=2.5, power_gbu=7.0, power_gfu=3.0)
        assert fresh == cfg and hash(fresh) == hash(cfg) and repr(fresh) == repr(cfg)

    def test_db_helpers_roundtrip(self):
        assert linear_to_db(db_to_linear(17.3)) == pytest.approx(17.3)
        with pytest.raises(ValueError):
            linear_to_db(0.0)

    def test_db_to_linear_overflow_names_the_value(self):
        with pytest.raises(ValueError, match="^4000.0 dB overflows double precision"):
            db_to_linear(4000.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_linear_to_db_rejects_non_positive_or_non_finite(self, value):
        with pytest.raises(ValueError, match="requires a finite positive value"):
            linear_to_db(value)


class TestChannelRealization:
    def test_requires_sorted_nonnegative(self):
        with pytest.raises(ValueError):
            ChannelRealization(1.0, (2.0, 1.0))
        with pytest.raises(ValueError):
            ChannelRealization(-0.1, (1.0,))
        with pytest.raises(ValueError):
            ChannelRealization(1.0, ())

    @pytest.mark.parametrize(
        "gain_gbu, gains_gfu",
        [(math.nan, (1.0, 2.0)), (1.0, (math.nan, 2.0)), (1.0, (1.0, math.nan))],
    )
    def test_rejects_nan_gains(self, gain_gbu, gains_gfu):
        with pytest.raises(ValueError):
            ChannelRealization(gain_gbu, gains_gfu)

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
        # the same frozen, hashable record as a checked construction
        checked = ChannelRealization(real.gain_gbu, real.gains_gfu)
        assert real == checked and hash(real) == hash(checked) and repr(real) == repr(checked)
        with pytest.raises(FrozenInstanceError):
            real.gain_gbu = 1.0

    @pytest.mark.parametrize("num_gfus", [1, 2, 5])
    def test_realization_is_the_sorted_row_of_one_draw(self, num_gfus):
        row = sample_gain_matrix(1, num_gfus + 1, np.random.default_rng(8))[0]
        real = sample_channel_realization(num_gfus, np.random.default_rng(8))
        assert real.gain_gbu == row[-1]
        assert real.gains_gfu == tuple(np.sort(row[:-1]).tolist())
        assert all(type(g) is float for g in (real.gain_gbu, *real.gains_gfu))

    @pytest.mark.parametrize("num_gfus", [0, 257, True, 2.0, np.int64(2)])
    def test_checks_num_gfus_as_system_config_does(self, num_gfus):
        with pytest.raises(ValueError, match="^num_gfus ") as sampled:
            sample_channel_realization(num_gfus, np.random.default_rng(0))
        with pytest.raises(ValueError) as configured:
            make_config(num_gfus=num_gfus)
        assert str(sampled.value) == str(configured.value)
        assert sample_channel_realization(256, np.random.default_rng(0)).num_gfus == 256

    @pytest.mark.parametrize("shape", [(65536, 6), (1, 6)])
    def test_in_place_transform_is_bit_identical(self, shape):
        def philox():
            return np.random.Generator(np.random.Philox(key=(np.uint64(7), np.uint64(3))))

        rows, cols = shape
        gains = sample_gain_matrix(rows, cols, philox())
        # drawn user by user, the GBU first, and handed over with the GBU last
        expected = -np.log1p(-philox().random((cols, rows)))[::-1].T
        # the last (GBU) column is handed over ascending; one row has nothing to sort
        expected[:, -1].sort()
        assert gains.shape == shape
        assert gains[:, ::-1].flags.f_contiguous
        assert gains.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cols", [2, 6, 9])
    def test_one_row_draw_is_the_reversed_row_major_draw(self, cols):
        # the scalar path draws one row: the GBU's gain is the first uniform
        def philox():
            return np.random.Generator(np.random.Philox(key=(np.uint64(7), np.uint64(3))))

        row_major = -np.log1p(-philox().random((1, cols)))
        assert sample_gain_matrix(1, cols, philox()).tobytes() == row_major[:, ::-1].tobytes()

    @pytest.mark.parametrize("rows", [65536, 1001])
    def test_out_buffer_matches_fresh_draw(self, rows):
        # a full block and the leading (cols, rows) slab of a flat buffer sized for a
        # partial one, both over stale values
        def philox():
            return np.random.Generator(np.random.Philox(key=(np.uint64(7), np.uint64(3))))

        buf = np.full(65536 * 6, np.nan)
        target = buf[: rows * 6].reshape(6, rows)
        gains = sample_gain_matrix(rows, 6, philox(), out=target)
        assert np.shares_memory(gains, buf)
        assert gains.tobytes() == sample_gain_matrix(rows, 6, philox()).tobytes()
        assert np.isnan(buf[rows * 6 :]).all()

    @pytest.mark.parametrize("rows", [65536, 1001, 1])
    def test_narrow_draw_is_the_suffix_of_the_wide_one(self, rows):
        # a full, a partial and a one-row block: the Monte Carlo engine reads every
        # user count's draw, sorted GBU column included, as the last columns of the
        # widest draw, in place
        def philox():
            return np.random.Generator(np.random.Philox(key=(np.uint64(5), np.uint64(2))))

        kmax = 8
        wide = sample_gain_matrix(rows, kmax + 1, philox())
        assert (np.diff(wide[:, -1]) >= 0.0).all()
        for k in range(1, kmax + 1):
            narrow = sample_gain_matrix(rows, k + 1, philox())
            assert narrow.tobytes() == wide[:, kmax - k :].tobytes()

    def test_out_buffer_must_match_the_draw(self):
        rng = np.random.default_rng(0)
        for shape in ((3, 5), (4, 3)):
            with pytest.raises(ValueError):
                sample_gain_matrix(4, 3, rng, out=np.empty(shape))
        # an F-ordered buffer would be filled in memory order, reordering the draw
        with pytest.raises(ValueError, match="C-contiguous"):
            sample_gain_matrix(4, 3, rng, out=np.empty((3, 4), order="F"))

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

    @pytest.mark.parametrize(
        "gain_gbu, gain_gfu, alpha",
        [(math.nan, 1.0, 0.5), (1.0, math.nan, 0.5), (1.0, 1.0, math.nan)],
    )
    def test_nan_rejected(self, gain_gbu, gain_gfu, alpha):
        with pytest.raises(ValueError):
            sinr_triplet(make_config(), gain_gbu, gain_gfu, alpha)

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

    @pytest.mark.parametrize("position", range(3))
    def test_nan_sinr_rejected(self, position):
        sinrs = [1.0, 1.0, 1.0]
        sinrs[position] = math.nan
        with pytest.raises(ValueError):
            achievable_rates(*sinrs)

    def test_monotone_in_sinr(self):
        values = [0.0, 0.5, 1.0, 4.0, 100.0]
        rates = [achievable_rates(v, v, v)[0] for v in values]
        assert rates == sorted(rates)
