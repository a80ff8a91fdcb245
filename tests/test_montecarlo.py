import math
from dataclasses import replace

import numpy as np
import pytest

from sgfsim.baselines import cr_noma_outage_sample
from sgfsim.model import ChannelRealization, SystemConfig, db_to_linear, sample_gain_matrix
from sgfsim.montecarlo import (
    BLOCK_SIZE,
    MIN_RESOLVED_OUTAGES,
    WORKERS_ENV_VAR,
    Scheme,
    _evaluate_trials,
    _resolve_workers,
    _simulate,
    estimate_outage,
    evaluate_noma_trials,
    evaluate_rsma_trials,
    sweep,
)
from sgfsim.protocol import CaseLabel, classify_case, evaluate_transmission

CASE_INDEX = {CaseLabel.CASE_I: 0, CaseLabel.CASE_II: 1, CaseLabel.CASE_III: 2}


def config(num_gfus=3, power_gbu=10.0, power_gfu=10.0, rate_gbu=1.0, rate_gfu=1.0):
    return SystemConfig(num_gfus, power_gbu, power_gfu, rate_gbu, rate_gfu)


# (P0 dB, Ps dB, GBU rate, GFU rate); together they reach every case and both
# Case II outcomes of each scheme at K in {1, 2, 5, 20}
KERNEL_CONFIGS = [
    (15.0, 0.0, 3.0, 3.0),
    (15.0, 20.0, 3.0, 3.0),
    (30.0, 18.2, 2.5, 1.5),
    (10.0, 15.0, 1.0, 1.0),
    (20.0, 45.0, 0.5, 4.0),
]


def sorted_block(rng, rows, num_gfus):
    gains = sample_gain_matrix(rows, num_gfus + 1, rng)
    return gains[:, -1], np.sort(gains[:, :-1], axis=1)


def reference_kernels(cfg, g0, gfu):
    """Separate per-scheme kernels: the case partition, then each scheme's
    outage rule, with the baseline's decoded-last user found by counting the
    users under the threshold. Returns (case index, rsma, noma, GBU flags)."""
    p0g0 = cfg.power_gbu * g0
    tau_hat = p0g0 / cfg.eps0 - 1.0
    received = cfg.power_gfu * gfu
    best = received[:, -1]
    case3 = tau_hat <= 0.0
    case1 = ~case3 & (best <= tau_hat)
    case_idx = np.where(case3, 2, np.where(case1, 0, 1))
    out_free = best < cfg.eps_s
    out_first = best < cfg.eps_s * (1.0 + p0g0)
    out_split = p0g0 + 1.0 + best < (1.0 + cfg.eps0) * (1.0 + cfg.eps_s)
    below = np.sum(received < tau_hat[:, None], axis=1)
    kth = np.take_along_axis(received, np.maximum(below - 1, 0)[:, None], axis=1)[:, 0]
    out_middle = np.where(below >= 1, (kth < cfg.eps_s) & out_first, out_first)
    rsma = np.where(case3, out_first, np.where(case1, out_free, out_split))
    noma = np.where(case3, out_first, np.where(case1, out_free, out_middle))
    return case_idx, rsma, noma, g0 < cfg.eta0


def loop_tallies(cfg, trials, seed):
    """Per-scheme (occurrences, outages) and the GBU outage count, summed over
    blocks drawn one by one, independently of the sweep engine."""
    occurrences = np.zeros(3, dtype=np.int64)
    outages = {scheme: np.zeros(3, dtype=np.int64) for scheme in Scheme}
    gbu = 0
    for block in range(-(-trials // BLOCK_SIZE)):
        rows = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
        rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(block))))
        g0, gfu = sorted_block(rng, rows, cfg.num_gfus)
        case_idx, rsma_out, gbu_out = evaluate_rsma_trials(cfg, g0, gfu)
        _, noma_out, _ = evaluate_noma_trials(cfg, g0, gfu)
        occurrences += np.bincount(case_idx, minlength=3)
        outages[Scheme.CR_RSMA_SGF] += np.bincount(case_idx[rsma_out], minlength=3)
        outages[Scheme.CR_NOMA_SGF] += np.bincount(case_idx[noma_out], minlength=3)
        gbu += int(np.count_nonzero(gbu_out))
    return occurrences, outages, gbu


class TestEstimateOutage:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            estimate_outage(config(), trials=0, seed=1)

    def test_accepts_scheme_by_value(self):
        est = estimate_outage(config(), "cr-noma-sgf", trials=1000, seed=1)
        assert est.scheme is Scheme.CR_NOMA_SGF

    def test_deterministic_across_workers_and_reruns(self):
        cfg = config(num_gfus=4, power_gbu=100.0, power_gfu=15.0, rate_gbu=1.5, rate_gfu=2.0)
        # 150k trials spans two full blocks plus a partial one
        first = estimate_outage(cfg, Scheme.CR_RSMA_SGF, trials=150_000, seed=77, workers=1)
        again = estimate_outage(cfg, Scheme.CR_RSMA_SGF, trials=150_000, seed=77, workers=1)
        threaded = estimate_outage(cfg, Scheme.CR_RSMA_SGF, trials=150_000, seed=77, workers=8)
        assert first == again == threaded
        other_seed = estimate_outage(cfg, Scheme.CR_RSMA_SGF, trials=150_000, seed=78)
        assert other_seed != first

    def test_tallies_are_consistent(self):
        est = estimate_outage(config(), Scheme.CR_RSMA_SGF, trials=100_000, seed=2)
        tallies = est.case_tallies
        assert sum(tallies.occurrences) == est.trials
        for occ, out in zip(tallies.occurrences, tallies.gfu_outages):
            assert 0 <= out <= occ
        assert est.gfu_outage_prob == tallies.total_gfu_outages / est.trials
        assert est.std_err_gfu == pytest.approx(
            math.sqrt(est.gfu_outage_prob * (1 - est.gfu_outage_prob) / est.trials)
        )

    def test_configs_share_gbu_terms_only_when_all_gbu_side_inputs_match(self):
        # the GBU-side terms are keyed by (P0, GBU rate, GFU rate); a change of any
        # one of them, or of the GFU power alone, must not reuse another's terms
        base = config(num_gfus=3, power_gbu=100.0, power_gfu=30.0, rate_gbu=1.5, rate_gfu=1.0)
        configs = [
            base,
            replace(base, target_rate_gfu=2.0),
            replace(base, target_rate_gbu=2.5),
            replace(base, power_gbu=300.0),
            replace(base, power_gfu=300.0),
            base,
        ]
        cases, gbu = _simulate(configs, BLOCK_SIZE + 1, 8, workers=1)
        for i, cfg in enumerate(configs):
            alone_cases, alone_gbu = _simulate([cfg], BLOCK_SIZE + 1, 8, workers=1)
            np.testing.assert_array_equal(cases[i], alone_cases[0])
            assert gbu[i] == alone_gbu[0]

    def test_vanishing_target_never_misses(self):
        cfg = config(rate_gfu=1e-9)
        est = estimate_outage(cfg, Scheme.CR_RSMA_SGF, trials=100_000, seed=3)
        assert est.gfu_outage_prob == 0.0

    def test_gbu_outage_matches_exponential_cdf(self):
        cfg = config(power_gbu=10.0, rate_gbu=1.0)
        est = estimate_outage(cfg, Scheme.CR_RSMA_SGF, trials=10**6, seed=4)
        expected = -math.expm1(-0.1)
        assert abs(est.gbu_outage_prob - expected) <= 3.0 * est.std_err_gbu

    def test_std_err_halves_when_trials_double(self):
        cfg = config()
        small = estimate_outage(cfg, Scheme.CR_RSMA_SGF, trials=100_000, seed=5)
        large = estimate_outage(cfg, Scheme.CR_RSMA_SGF, trials=200_000, seed=5)
        ratio = large.std_err_gfu / small.std_err_gfu
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.1)

    def test_resolution_flag(self):
        cfg = config(num_gfus=2, power_gbu=1e4, power_gfu=1e4)
        est = estimate_outage(cfg, Scheme.CR_RSMA_SGF, trials=2000, seed=6)
        assert est.gfu_outage_count < MIN_RESOLVED_OUTAGES
        assert not est.statistically_resolved


class TestWorkerCount:
    def test_unset_or_empty_means_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert _resolve_workers(None) == 1
        monkeypatch.setenv(WORKERS_ENV_VAR, "")
        assert _resolve_workers(None) == 1

    def test_env_value_and_explicit_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert _resolve_workers(None) == 3
        monkeypatch.setenv(WORKERS_ENV_VAR, "abc")
        assert _resolve_workers(2) == 2

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", " "])
    def test_bad_env_value_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV_VAR, raw)
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            _resolve_workers(None)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_bad_explicit_count(self, workers):
        with pytest.raises(ValueError, match="workers"):
            _resolve_workers(workers)


class TestVectorisedKernels:
    @pytest.mark.parametrize("scheme", [Scheme.CR_RSMA_SGF, Scheme.CR_NOMA_SGF])
    def test_agree_with_scalar_protocol(self, scheme):
        cfg = config(num_gfus=4, power_gbu=31.6, power_gfu=10.0, rate_gbu=1.5, rate_gfu=1.2)
        rng = np.random.default_rng(41)
        gains = sample_gain_matrix(10_000, 5, rng)
        gfu = np.sort(gains[:, :-1], axis=1)
        g0 = gains[:, -1]
        kernel = evaluate_rsma_trials if scheme is Scheme.CR_RSMA_SGF else evaluate_noma_trials
        case_idx, gfu_out, gbu_out = kernel(cfg, g0, gfu)
        for i in range(gains.shape[0]):
            real = ChannelRealization(float(g0[i]), tuple(float(g) for g in gfu[i]))
            assert case_idx[i] == CASE_INDEX[classify_case(cfg, real)]
            if scheme is Scheme.CR_RSMA_SGF:
                outcome = evaluate_transmission(cfg, real)
                assert bool(gfu_out[i]) == outcome.gfu_outage
                assert bool(gbu_out[i]) == outcome.gbu_outage
            else:
                assert bool(gfu_out[i]) == cr_noma_outage_sample(cfg, real)

    @pytest.mark.parametrize("num_gfus", [1, 5])
    def test_fused_kernel_matches_single_scheme_kernels(self, num_gfus):
        rng = np.random.default_rng(1000 + num_gfus)
        g0, gfu = sorted_block(rng, 20_000, num_gfus)
        for p0_db, ps_db, rate_gbu, rate_gfu in KERNEL_CONFIGS:
            cfg = SystemConfig.from_db(num_gfus, p0_db, ps_db, rate_gbu, rate_gfu)
            expected = reference_kernels(cfg, g0, gfu)
            # the sweep engine passes the GFU gains column-major
            for layout in (gfu, np.asfortranarray(gfu)):
                fused = _evaluate_trials(cfg, g0, layout)
                rsma, noma = evaluate_rsma_trials(cfg, g0, layout), evaluate_noma_trials(cfg, g0, layout)
                for got, want in zip(fused, expected):
                    np.testing.assert_array_equal(got, want)
                for got, want in zip(rsma, (fused[0], fused[1], fused[3])):
                    np.testing.assert_array_equal(got, want)
                for got, want in zip(noma, (fused[0], fused[2], fused[3])):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("num_gfus", [1, 2, 5, 20])
    def test_kernel_takes_rows_in_any_order(self, num_gfus):
        rng = np.random.default_rng(2000 + num_gfus)
        g0, gfu = sorted_block(rng, 20_000, num_gfus)
        if num_gfus > 1:
            # a tied strongest user in every tenth row
            gfu[::10, -2] = gfu[::10, -1]
        shuffled = rng.permuted(gfu, axis=1)
        for p0_db, ps_db, rate_gbu, rate_gfu in KERNEL_CONFIGS:
            cfg = SystemConfig.from_db(num_gfus, p0_db, ps_db, rate_gbu, rate_gfu)
            expected = reference_kernels(cfg, g0, gfu)
            for layout in (shuffled, np.asfortranarray(shuffled)):
                for got, want in zip(_evaluate_trials(cfg, g0, layout), expected):
                    np.testing.assert_array_equal(got, want)


class TestSweep:
    def test_rows_per_scheme_and_value(self):
        rows = sweep(
            config(num_gfus=2),
            axis="gfu_power_db",
            grid=[0.0, 10.0],
            trials=2000,
            seed=7,
        )
        assert len(rows) == 4
        assert [r.axis_value for r in rows] == [0.0, 0.0, 10.0, 10.0]
        assert {r.scheme for r in rows} == {Scheme.CR_RSMA_SGF, Scheme.CR_NOMA_SGF}
        for row in rows:
            assert row.estimate is not None
            if row.scheme is Scheme.CR_RSMA_SGF:
                assert row.analytic_exact is not None
                assert row.analytic_asymptote == pytest.approx(
                    (row.config.eps_s / row.config.power_gfu) ** row.config.num_gfus
                )
            else:
                # the analytic columns are the rate-splitting outage, not the baseline's
                assert row.analytic_exact is None
                assert row.analytic_highsnr is None
                assert row.analytic_asymptote is None
                assert row.error is None

    def test_locked_power_ratio(self):
        rows = sweep(
            config(num_gfus=2),
            axis="gbu_power_db",
            grid=[20.0, 30.0],
            trials=1000,
            seed=8,
            schemes=(Scheme.CR_RSMA_SGF,),
            gbu_to_gfu_power_ratio=15.0,
        )
        for row in rows:
            assert row.config.power_gbu == pytest.approx(db_to_linear(row.axis_value))
            assert row.config.power_gfu == pytest.approx(row.config.power_gbu / 15.0)

    def test_target_rate_axis_moves_both_targets(self):
        rows = sweep(
            config(num_gfus=2),
            axis="target_rate",
            grid=[0.5, 2.0],
            trials=1000,
            seed=9,
            schemes=(Scheme.CR_RSMA_SGF,),
        )
        for row in rows:
            assert row.config.target_rate_gbu == row.axis_value
            assert row.config.target_rate_gfu == row.axis_value

    def test_invalid_grid_value_becomes_error_row(self):
        rows = sweep(
            config(num_gfus=2),
            axis="num_gfus",
            grid=[0.0, 2.0],
            trials=1000,
            seed=10,
            schemes=(Scheme.CR_RSMA_SGF,),
        )
        assert rows[0].error is not None
        assert rows[0].estimate is None
        assert rows[1].error is None
        assert rows[1].estimate is not None

    def test_fractional_user_count_becomes_error_row(self):
        rows = sweep(
            config(num_gfus=2),
            axis="num_gfus",
            grid=[2.5, 3.0],
            trials=1000,
            seed=10,
            schemes=(Scheme.CR_RSMA_SGF,),
        )
        assert rows[0].error is not None and "integer" in rows[0].error
        assert rows[0].estimate is None
        assert rows[1].config.num_gfus == 3
        assert rows[1].estimate is not None

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "axis, grid",
        [
            ("gfu_power_db", [0.0, 20.0, 45.0]),
            ("num_gfus", [1.0, 4.0, 2.0, 8.0, 4.0]),
            ("gbu_power_db", [20.0, 30.0, 20.0]),
            ("target_rate", [1.0, 3.0, 2.0]),
        ],
    )
    def test_engine_matches_block_by_block_loop(self, axis, grid, workers):
        # two full blocks and a one-row partial one; each worker reuses its buffers
        # for every block, config and GBU-side group, and the repeated GBU power
        # shares its GBU-side terms across a config of another group
        trials, seed = 2 * BLOCK_SIZE + 1, 21
        rows = sweep(
            SystemConfig.from_db(3, 15.0, 10.0, 3.0, 2.0),
            axis=axis,
            grid=grid,
            trials=trials,
            seed=seed,
            gbu_to_gfu_power_ratio=db_to_linear(5.0) if axis == "gbu_power_db" else None,
            workers=workers,
        )
        assert len(rows) == 2 * len(grid)
        for row in rows:
            occurrences, outages, gbu = loop_tallies(row.config, trials, seed)
            tallies = row.estimate.case_tallies
            assert tallies.occurrences == tuple(int(x) for x in occurrences)
            assert tallies.gfu_outages == tuple(int(x) for x in outages[row.scheme])
            assert row.estimate.gbu_outage_prob == gbu / trials
            assert row.estimate == estimate_outage(row.config, row.scheme, trials, seed, workers=1)

    def test_single_user_rows_use_single_user_analytics(self):
        from sgfsim.analytic import outage_diversity_asymptote, outage_quadrature

        rows = sweep(
            config(num_gfus=1),
            axis="gbu_power_db",
            grid=[20.0],
            trials=1000,
            seed=11,
            schemes=(Scheme.CR_RSMA_SGF,),
        )
        assert rows[0].analytic_exact == outage_quadrature(rows[0].config).total
        assert rows[0].analytic_highsnr == outage_diversity_asymptote(rows[0].config)

    def test_rejects_empty_grid_and_bad_axis(self):
        with pytest.raises(ValueError):
            sweep(config(), axis="gfu_power_db", grid=[], trials=10, seed=1)
        with pytest.raises(ValueError):
            sweep(config(), axis="bandwidth", grid=[1.0], trials=10, seed=1)

    def test_rejects_empty_schemes(self):
        with pytest.raises(ValueError, match="schemes must be nonempty"):
            sweep(config(), axis="gfu_power_db", grid=[10.0], trials=10, seed=1, schemes=())

    def test_deep_outage_rows_flagged_unresolved(self):
        rows = sweep(
            config(num_gfus=2, rate_gbu=1.0, rate_gfu=1.0),
            axis="gfu_power_db",
            grid=[40.0],
            trials=2000,
            seed=12,
            schemes=(Scheme.CR_RSMA_SGF,),
        )
        assert rows[0].unresolved
