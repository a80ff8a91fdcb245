import math
import sys
import threading
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from sgfsim import montecarlo
from sgfsim.baselines import cr_noma_outage
from sgfsim.model import ChannelRealization, SystemConfig, db_to_linear, sample_gain_matrix
from sgfsim.montecarlo import (
    BLOCK_SIZE,
    MIN_RESOLVED_OUTAGES,
    Scheme,
    SweepRequest,
    _evaluate_trials,
    _gbu_terms,
    _scratch,
    _simulate,
    estimate_outage,
    evaluate_noma_trials,
    evaluate_rsma_trials,
    sweep,
    sweeps,
)
from sgfsim.protocol import CaseLabel, evaluate_transmission

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


# the engine's columns of each scheme's GFU outages per case
OUTAGE_COLUMNS = {Scheme.CR_RSMA_SGF: slice(3, 6), Scheme.CR_NOMA_SGF: slice(6, 9)}


def block_tallies(cfg, trials, seed):
    """The (blocks, 10) tallies of ``cfg``, each block drawn alone from its
    ``(seed, b)`` generator, independently of the sweep engine: per row the Case
    I/II/III occurrences, each scheme's GFU outages per case (rate splitting,
    then the baseline) and the GBU outage count."""
    rows = []
    for block in range(-(-trials // BLOCK_SIZE)):
        n = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
        rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(block))))
        g0, gfu = sorted_block(rng, n, cfg.num_gfus)
        case_idx, rsma_out, gbu_out = evaluate_rsma_trials(cfg, g0, gfu)
        _, noma_out, _ = evaluate_noma_trials(cfg, g0, gfu)
        rows.append(
            [
                *np.bincount(case_idx, minlength=3),
                *np.bincount(case_idx[rsma_out], minlength=3),
                *np.bincount(case_idx[noma_out], minlength=3),
                np.count_nonzero(gbu_out),
            ]
        )
    return np.array(rows, dtype=np.int64)


def assert_estimate_sums(estimate, total):
    """``estimate`` is that of ``total``, one config's tallies summed over blocks."""
    tallies = estimate.case_tallies
    assert tallies.occurrences == tuple(total[:3].tolist())
    assert tallies.gfu_outages == tuple(total[OUTAGE_COLUMNS[estimate.scheme]].tolist())
    assert estimate.gbu_outage_prob == total[9] / estimate.trials


# two full blocks and a one-row partial one
ENGINE_TRIALS = 2 * BLOCK_SIZE + 1


def assert_rows_match_loop(rows, trials, seed):
    for row in rows:
        assert_estimate_sums(row.estimate, block_tallies(row.config, trials, seed).sum(axis=0))
        assert row.estimate == estimate_outage(row.config, row.scheme, trials, seed, workers=1)


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
        # one of them must not reuse another's terms, and configs that differ in the
        # GFU power or the user count alone share them, since every K reads the same
        # sorted GBU column beside its own GFU columns
        base = config(num_gfus=3, power_gbu=100.0, power_gfu=30.0, rate_gbu=1.5, rate_gfu=1.0)
        configs = [
            base,
            replace(base, target_rate_gfu=2.0),
            replace(base, target_rate_gbu=2.5),
            replace(base, power_gbu=300.0),
            replace(base, power_gfu=300.0),
            replace(base, num_gfus=1),
            replace(base, num_gfus=5),
            base,
        ]
        tallies = _simulate(configs, BLOCK_SIZE + 1, 8, workers=1)
        for i, cfg in enumerate(configs):
            alone = _simulate([cfg], BLOCK_SIZE + 1, 8, workers=1)
            np.testing.assert_array_equal(tallies[:, i], alone[:, 0])

    def test_gbu_terms_run_once_per_block_and_gbu_side_group(self, monkeypatch):
        # fig7's grid: K = 1..8 at two (P0, Ps) pairs, over two blocks, one partial.
        # The pairs differ in P0, so they are two GBU-side groups whatever K is
        calls, gbu_terms = [], montecarlo._gbu_terms

        def counted(config, gain_gbu, s):
            calls.append((config.power_gbu, len(gain_gbu)))
            return gbu_terms(config, gain_gbu, s)

        monkeypatch.setattr(montecarlo, "_gbu_terms", counted)
        configs = [
            SystemConfig.from_db(k, p0_db, ps_db, 1.5, 2.0)
            for p0_db, ps_db in ((20.0, 10.0), (10.0, 20.0))
            for k in range(1, 9)
        ]
        _simulate(configs, BLOCK_SIZE + 7, 8, workers=1)
        p0 = sorted({cfg.power_gbu for cfg in configs})
        assert sorted(calls) == sorted((power, rows) for power in p0 for rows in (BLOCK_SIZE, 7))

    def test_vanishing_target_never_misses(self):
        # the least GFU target rate in the input box
        cfg = config(rate_gfu=2.0**-20)
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


def forbid_draws(monkeypatch) -> None:
    """Make any engine pass fail the test: the arguments must be rejected first."""

    def no_draw(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(montecarlo, "_simulate", no_draw)


def assert_rejected_before_any_draw(monkeypatch, name: str, value) -> None:
    """``estimate_outage`` and ``sweeps`` each raise a ValueError naming ``name``
    when that run argument is ``value``, before drawing a block."""
    forbid_draws(monkeypatch)
    args = {"trials": 1000, "seed": 1, "workers": 1, name: value}
    with pytest.raises(ValueError, match=name):
        estimate_outage(config(), **args)
    with pytest.raises(ValueError, match=name):
        sweeps([SweepRequest(config(), "gfu_power_db", (10.0,))], **args)


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -1, 2.5, True])
    def test_bad_explicit_count(self, monkeypatch, workers):
        assert_rejected_before_any_draw(monkeypatch, "workers", workers)


class TestRunArguments:
    @pytest.mark.parametrize("seed", [-1, 2**64, 3.0, True])
    def test_bad_seed(self, monkeypatch, seed):
        # a seed outside [0, 2**64) would alias a seed inside it; a float or bool is no seed
        assert_rejected_before_any_draw(monkeypatch, "seed", seed)

    @pytest.mark.parametrize("trials", [0, 2.5])
    def test_bad_trials(self, monkeypatch, trials):
        assert_rejected_before_any_draw(monkeypatch, "trials", trials)

    def test_key_range_ends_are_distinct_seeds(self):
        first = estimate_outage(config(), trials=2000, seed=0)
        last = estimate_outage(config(), trials=2000, seed=2**64 - 1)
        assert first.case_tallies != last.case_tallies

    def test_numpy_integer_seed_is_the_same_seed(self):
        assert estimate_outage(config(), trials=2000, seed=np.int64(5)) == estimate_outage(
            config(), trials=2000, seed=5
        )


def record_draw_threads(monkeypatch) -> list[tuple[int, str]]:
    """Wrap the engine's draw to record (block, thread name) for every block drawn."""
    draws, sample = [], montecarlo.sample_gain_matrix

    def recorded(rows, cols, rng, out=None):
        block = int(rng.bit_generator.state["state"]["key"][1])
        draws.append((block, threading.current_thread().name))
        return sample(rows, cols, rng, out=out)

    monkeypatch.setattr(montecarlo, "sample_gain_matrix", recorded)
    return draws


# three user counts read their last columns of the widest draw, and the last config
# has a GBU-side group of its own
BLOCK_CONFIGS = [
    SystemConfig.from_db(k, 15.0, ps, 3.0, 2.0) for k in (1, 5, 2) for ps in (0.0, 20.0)
] + [SystemConfig.from_db(5, 30.0, 18.2, 2.5, 1.5)]


class TestDrawAhead:
    """Each worker draws the first block of its chunk itself and every later one
    on a helper thread; every block's tallies are those of that block drawn alone."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("trials", [1000, BLOCK_SIZE + 1, 3 * BLOCK_SIZE])
    def test_tallies_match_blocks_drawn_one_by_one(self, monkeypatch, trials, workers):
        configs = BLOCK_CONFIGS
        n_blocks = -(-trials // BLOCK_SIZE)
        tasks = min(workers, n_blocks)
        chunk_starts = {n_blocks * t // tasks for t in range(tasks)}
        draws = record_draw_threads(monkeypatch)
        threads = threading.active_count()
        tallies = _simulate(configs, trials, 23, workers)
        assert threading.active_count() == threads
        assert sorted(block for block, _ in draws) == list(range(n_blocks))
        for block, name in draws:
            assert name.startswith("sgfsim-draw") == (block not in chunk_starts)
        assert tallies.shape == (n_blocks, len(configs), 10) and tallies.dtype == np.int64
        for i, cfg in enumerate(configs):
            np.testing.assert_array_equal(tallies[:, i], block_tallies(cfg, trials, 23))

    def test_tallies_hold_with_more_threads_than_cores_switching_often(self):
        # three workers and their helpers, switching threads every microsecond: a draw
        # that wrote a buffer still being read would change the tallies
        cfg = SystemConfig.from_db(5, 15.0, 20.0, 3.0, 2.0)
        trials = 9 * BLOCK_SIZE
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tallies = _simulate([cfg], trials, 31, 3)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(tallies[:, 0], block_tallies(cfg, trials, 31))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_draw_error_propagates_and_leaves_no_thread(self, monkeypatch, workers):
        # block 1 is drawn on a helper at one worker and by its worker at two or three
        sample = montecarlo.sample_gain_matrix

        def failing(rows, cols, rng, out=None):
            if rng.bit_generator.state["state"]["key"][1] == 1:
                raise MemoryError("draw of block 1 failed")
            return sample(rows, cols, rng, out=out)

        monkeypatch.setattr(montecarlo, "sample_gain_matrix", failing)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="block 1"):
            estimate_outage(config(), trials=3 * BLOCK_SIZE, seed=4, workers=workers)
        assert threading.active_count() == threads

    def test_kernel_error_waits_for_the_pending_draw(self, monkeypatch):
        draws = record_draw_threads(monkeypatch)

        def failing(*args):
            raise FloatingPointError("kernel failed")

        monkeypatch.setattr(montecarlo, "_run_block", failing)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="kernel failed"):
            estimate_outage(config(), trials=3 * BLOCK_SIZE, seed=4, workers=1)
        assert threading.active_count() == threads
        # block 1 was being drawn when block 0's kernel raised; block 2 never started
        assert sorted(block for block, _ in draws) == [0, 1]


class TestBlockTallies:
    """The engine's one product: an int64 row per (block, config)."""

    def test_array_does_not_depend_on_workers_or_thread_switching(self):
        # four full blocks and a partial one; three workers split them 1-2-2
        trials = 4 * BLOCK_SIZE + 7
        first = _simulate(BLOCK_CONFIGS, trials, 41, 1)
        for workers in (2, 3):
            np.testing.assert_array_equal(_simulate(BLOCK_CONFIGS, trials, 41, workers), first)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            switching = _simulate(BLOCK_CONFIGS, trials, 41, 3)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(switching, first)
        # each row's case occurrences add up to its block's trials
        n = len(BLOCK_CONFIGS)
        assert first[:, :, :3].sum(axis=2).tolist() == [[BLOCK_SIZE] * n] * 4 + [[7] * n]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_sums_are_the_estimates(self, workers):
        trials, seed = ENGINE_TRIALS, 42
        totals = _simulate(BLOCK_CONFIGS, trials, seed, workers).sum(axis=0)
        # a one-point user-count sweep runs the config itself
        requests = [SweepRequest(cfg, "num_gfus", (cfg.num_gfus,)) for cfg in BLOCK_CONFIGS]
        for cfg, total, rows in zip(BLOCK_CONFIGS, totals, sweeps(requests, trials, seed, workers)):
            assert [(row.config, row.scheme) for row in rows] == [(cfg, s) for s in Scheme]
            for row in rows:
                assert_estimate_sums(row.estimate, total)
                assert_estimate_sums(estimate_outage(cfg, row.scheme, trials, seed, workers), total)


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
            outcome = evaluate_transmission(cfg, real)
            assert case_idx[i] == CASE_INDEX[outcome.case_label]
            if scheme is Scheme.CR_RSMA_SGF:
                assert bool(gfu_out[i]) == outcome.gfu_outage
                assert bool(gbu_out[i]) == outcome.gbu_outage
            else:
                assert bool(gfu_out[i]) == cr_noma_outage(cfg, real)

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

    @pytest.mark.parametrize(
        "num_gfus, gbu_rows, gfu_shape",
        [(1, 20_000, (20_000, 5)), (5, 100, (20_000, 5)), (5, 20_000, (100, 5))],
        ids=["columns", "fewer-gbu-rows", "fewer-gfu-rows"],
    )
    def test_mismatched_shapes_rejected(self, num_gfus, gbu_rows, gfu_shape):
        # each once read other rows or columns than it was given, or raised IndexError
        cfg = config(num_gfus=num_gfus)
        rng = np.random.default_rng(5)
        g0, gfu = rng.exponential(size=gbu_rows), rng.exponential(size=gfu_shape)
        shapes = rf"gains_gfu of shape \({gfu_shape[0]}, 5\) .* gain_gbu of shape \({gbu_rows},\)"
        for kernel in (evaluate_rsma_trials, evaluate_noma_trials):
            with pytest.raises(ValueError, match=shapes):
                kernel(cfg, g0, gfu)

    def test_decode_last_window_is_exact(self):
        # eps0 = 3 > eps_s = 1 and P0 = eps0, so tau_hat = g0 - 1 is exact. Hand-made
        # Case II rows whose strongest GFU cannot be decoded first, then a random block:
        cfg = config(num_gfus=3, power_gbu=3.0, power_gfu=1.0, rate_gbu=2.0, rate_gfu=1.0)
        made = np.array(
            [
                [3.0, 0.5, 1.5, 5.0],  # tau_hat = 2 in (eps_s, eps0]: 1.5 is decoded last
                [3.0, 0.5, 1.0, 5.0],  # the same with a GFU at eps_s exactly
                [3.0, 0.5, 0.7, 5.0],  # tau_hat = 2, but no GFU reaches eps_s
                [2.0, 0.5, 0.9, 4.0],  # tau_hat = eps_s: no GFU can be decoded last
                [1.5, 0.2, 0.4, 3.0],  # tau_hat = 0.5 < eps_s
            ]
        )
        rng = np.random.default_rng(77)
        g0 = np.concatenate([made[:, 0], rng.exponential(size=5000)])
        gfu = np.concatenate([made[:, 1:], rng.exponential(size=(5000, 3))])
        _, noma_out, _ = evaluate_noma_trials(cfg, g0, np.asfortranarray(gfu))
        for i in range(len(g0)):
            real = ChannelRealization(float(g0[i]), tuple(sorted(float(g) for g in gfu[i])))
            assert bool(noma_out[i]) == cr_noma_outage(cfg, real), i
        assert noma_out[:5].tolist() == [False, False, True, True, True]

        # the kernel reads the rows sorted by GBU gain, where the window is a range
        order = np.argsort(g0)
        g0, gfu, made_rows = g0[order], gfu[order], np.argsort(order)[:5]
        s = _scratch(len(g0), ())
        window = np.arange(len(g0)) >= _gbu_terms(cfg, g0, s)[2]
        # decode-last candidates: Case II rows whose strongest GFU cannot be decoded first
        p0g0 = cfg.power_gbu * g0
        tau_hat, best = p0g0 / cfg.eps0 - 1.0, cfg.power_gfu * gfu.max(axis=1)
        candidates = (tau_hat > 0.0) & (best > tau_hat) & (best < cfg.eps_s * (1.0 + p0g0))
        np.testing.assert_array_equal(window, tau_hat > cfg.eps_s)
        assert window[made_rows].tolist() == [True, True, True, False, False]
        assert candidates[made_rows].all()
        # the loop runs on candidates on both sides; the window leaves some out
        assert (candidates & window).any() and (candidates & ~window).any()

    @pytest.mark.parametrize("num_gfus", [1, 2, 5, 20])
    def test_kernel_takes_rows_in_any_order(self, num_gfus):
        rng = np.random.default_rng(2000 + num_gfus)
        g0, gfu = sorted_block(rng, 20_000, num_gfus)
        if num_gfus > 1:
            # a tied strongest user in every tenth row
            gfu[::10, -2] = gfu[::10, -1]
        # the GFU gains of each row in any column order, and the rows, which the
        # sampler hands over by ascending GBU gain, in any order
        rows = rng.permutation(len(g0))
        shuffled = rng.permuted(gfu, axis=1)[rows]
        for p0_db, ps_db, rate_gbu, rate_gfu in KERNEL_CONFIGS:
            cfg = SystemConfig.from_db(num_gfus, p0_db, ps_db, rate_gbu, rate_gfu)
            expected = reference_kernels(cfg, g0, gfu)
            for layout in (shuffled, np.asfortranarray(shuffled)):
                for got, want in zip(_evaluate_trials(cfg, g0[rows], layout), expected):
                    np.testing.assert_array_equal(got, want[rows])

    @pytest.mark.parametrize("num_gfus", [1, 2, 5, 20])
    def test_row_ranges_are_exact_at_every_boundary(self, num_gfus):
        # P0 = eps0 = 3, Ps = eps_s = 1: g0 = 1 = eta0 gives tau_hat = 0 exactly and
        # g0 = 2 gives tau_hat = eps_s exactly, and received powers equal the gains
        exact = config(num_gfus, power_gbu=3.0, power_gfu=1.0, rate_gbu=2.0, rate_gfu=1.0)
        configs = [exact] + [SystemConfig.from_db(num_gfus, *params) for params in KERNEL_CONFIGS]
        rng = np.random.default_rng(3000 + num_gfus)
        for cfg in configs:
            # each GBU-side cut on the gain axis and a few ulps either side of it
            cuts = []
            for cut in (cfg.eta0, cfg.eta0 * (1.0 + cfg.eps_s)):
                low = high = cut
                cuts.append(cut)
                for _ in range(3):
                    low, high = np.nextafter(low, 0.0), np.nextafter(high, np.inf)
                    cuts += [low, high]
            # five rows per cut value, so that ties straddle each boundary, whose
            # strongest GFU takes each received-power threshold of the exact config
            edges = np.array([0.5, 1.0, 2.0, 4.0, 7.0]) / cfg.power_gfu
            planted = [
                rng.permutation([edge, *rng.choice(edges[: i + 1], size=num_gfus - 1)])
                for _ in cuts
                for i, edge in enumerate(edges)
            ]
            g0 = np.concatenate([np.repeat(cuts, len(edges)), rng.exponential(size=3000)])
            gfu = np.concatenate([planted, rng.exponential(size=(3000, num_gfus))])
            shuffle = rng.permutation(len(g0))
            g0, gfu = g0[shuffle], gfu[shuffle]
            tau_hat = cfg.power_gbu * g0 / cfg.eps0 - 1.0
            if cfg is exact:
                assert (tau_hat == 0.0).sum() == 5 and (tau_hat == cfg.eps_s).sum() == 5
                assert (g0 == cfg.eta0).sum() == 5
            expected = reference_kernels(cfg, g0, np.sort(gfu, axis=1))
            for got, want in zip(_evaluate_trials(cfg, g0, np.asfortranarray(gfu)), expected):
                np.testing.assert_array_equal(got, want)

            # the engine's tallies on the same rows, handed over sorted by GBU gain in
            # the last column, the GFU gains in the columns before it
            order = np.argsort(g0, kind="stable")
            gains = np.asfortranarray(np.column_stack([gfu[order], g0[order]]))
            tallies = np.zeros((1, 10), dtype=np.int64)
            montecarlo._run_block([cfg], [[0]], gains, _scratch(len(g0), (num_gfus,)), tallies)
            case_idx, rsma, noma, gbu = expected
            want = [
                *np.bincount(case_idx, minlength=3),
                *np.bincount(case_idx[rsma], minlength=3),
                *np.bincount(case_idx[noma], minlength=3),
                np.count_nonzero(gbu),
            ]
            assert tallies[0].tolist() == want

    @pytest.mark.parametrize("num_gfus", [1, 2, 5, 20])
    def test_case1_and_split_cuts_are_exact(self, num_gfus):
        # P0 = Ps = 1 and rates 1/1: g0 = 2 gives tau_hat = eps_s = 1 exactly and
        # g0 = 3 gives 1 + P0 g0 = case2_ceiling = 4 exactly, and received powers
        # equal the gains
        exact = config(num_gfus, power_gbu=1.0, power_gfu=1.0, rate_gbu=1.0, rate_gfu=1.0)
        configs = [exact] + [SystemConfig.from_db(num_gfus, *params) for params in KERNEL_CONFIGS]
        rng = np.random.default_rng(4000 + num_gfus)
        for cfg in configs:
            # the GBU gains where tau_hat reaches eps_s and where 1 + P0 g0 reaches
            # case2_ceiling, and a few ulps either side of each
            cuts = []
            for cut in (cfg.eta0 * (1.0 + cfg.eps_s), (cfg.case2_ceiling - 1.0) / cfg.power_gbu):
                low = high = cut
                cuts.append(cut)
                for _ in range(3):
                    low, high = np.nextafter(low, 0.0), np.nextafter(high, np.inf)
                    cuts += [low, high]
            # per cut value, strongest received powers at eps_s, at tau_hat, at the
            # Case II outage edge case2_ceiling - (1 + P0 g0) and an ulp either side
            strongest = []
            for g0 in cuts:
                p0g0 = cfg.power_gbu * g0
                for edge in (cfg.eps_s, p0g0 / cfg.eps0 - 1.0, cfg.case2_ceiling - (1.0 + p0g0)):
                    edge = max(edge, 0.0)
                    for power in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
                        strongest.append((g0, power / cfg.power_gfu))
            planted_g0, best = np.array(strongest).T
            g0 = np.concatenate([planted_g0, rng.exponential(size=3000)])
            # the other GFUs below the strongest, one of them tied with it or, where
            # the strongest is above tau_hat, at tau_hat, too high to be decoded last
            planted = best[:, None] * rng.uniform(size=(len(best), num_gfus))
            planted[:, 0] = best
            if num_gfus > 1:
                planted[::2, 1] = best[::2]
                tau = cfg.power_gbu * planted_g0 / cfg.eps0 - 1.0
                at_tau = (best * cfg.power_gfu > tau) & (tau > 0.0)
                planted[at_tau, 1] = tau[at_tau] / cfg.power_gfu
            planted = rng.permuted(planted, axis=1)
            gfu = np.concatenate([planted, rng.exponential(size=(3000, num_gfus))])
            shuffle = rng.permutation(len(g0))
            g0, gfu = g0[shuffle], gfu[shuffle]
            p0g0 = cfg.power_gbu * g0
            if cfg is exact:
                assert (p0g0 / cfg.eps0 - 1.0 == cfg.eps_s).sum() == 9
                # 1 + (3 + ulp) rounds to 4 as well
                assert (1.0 + p0g0 == cfg.case2_ceiling).sum() == 18
            expected = reference_kernels(cfg, g0, np.sort(gfu, axis=1))
            for got, want in zip(_evaluate_trials(cfg, g0, np.asfortranarray(gfu)), expected):
                np.testing.assert_array_equal(got, want)
            # the Case I outage holds on both sides of the tau_hat = eps_s cut
            case_idx, rsma, noma, gbu = expected
            tau_hat = p0g0 / cfg.eps0 - 1.0
            for side in (tau_hat < cfg.eps_s, tau_hat >= cfg.eps_s):
                assert (side & (case_idx == 0) & rsma).any()

            order = np.argsort(g0, kind="stable")
            gains = np.asfortranarray(np.column_stack([gfu[order], g0[order]]))
            tallies = np.zeros((1, 10), dtype=np.int64)
            montecarlo._run_block([cfg], [[0]], gains, _scratch(len(g0), (num_gfus,)), tallies)
            want = [
                *np.bincount(case_idx, minlength=3),
                *np.bincount(case_idx[rsma], minlength=3),
                *np.bincount(case_idx[noma], minlength=3),
                np.count_nonzero(gbu),
            ]
            assert tallies[0].tolist() == want

    # (K, Ps dB, whether the decode-last test reads the window's slices) at P0 =
    # 15 dB and rates 3/3, each on a clear side of the density rule on its block
    DECODE_LAST_SIDES = [
        (2, 5.0, False),
        (2, 15.0, True),
        (5, 30.0, False),
        (5, 15.0, True),
        (20, 25.0, False),
        (20, 15.0, True),
    ]

    @pytest.mark.parametrize("num_gfus, ps_db, slices", DECODE_LAST_SIDES)
    def test_decode_last_reads_slices_or_gathered_rows(self, num_gfus, ps_db, slices):
        cfg = SystemConfig.from_db(num_gfus, 15.0, ps_db, 3.0, 3.0)
        rng = np.random.default_rng(5000 + num_gfus)
        g0, gfu = sorted_block(rng, 8000, num_gfus)
        # the rule's side: the window's candidates, Case II rows whose strongest GFU
        # cannot be decoded first, against the window's rows
        p0g0 = cfg.power_gbu * g0
        tau_hat, best = p0g0 / cfg.eps0 - 1.0, cfg.power_gfu * gfu[:, -1]
        window = tau_hat > cfg.eps_s
        candidates = window & (tau_hat < best) & (best < cfg.eps_s * (1.0 + p0g0))
        assert candidates.sum() > 10
        density = candidates.sum() * montecarlo._SLICE_DENSITY / window.sum()
        assert (density > 1.5) if slices else (density < 0.75)

        expected = reference_kernels(cfg, g0, gfu)
        got = _evaluate_trials(cfg, g0, np.asfortranarray(rng.permuted(gfu, axis=1)))
        for flags, want in zip(got, expected):
            np.testing.assert_array_equal(flags, want)
        noma = got[2]
        # some candidates are rescued by a GFU decoded last, and some are not
        assert noma[candidates].any() and not noma[candidates].all()
        for i in range(len(g0)):
            real = ChannelRealization(float(g0[i]), tuple(gfu[i].tolist()))
            assert bool(noma[i]) == cr_noma_outage(cfg, real), i

    def test_running_row_maximum_equals_each_count_alone(self):
        counts = (1, 2, 5, 8, 20)
        rng = np.random.default_rng(6000)
        # the sampler's layout, 21 columns with the sorted GBU last; in every tenth
        # row a GFU of each count's added columns ties the row's strongest
        gains = sample_gain_matrix(5000, 21, rng)
        top = gains[:, :-1].max(axis=1)
        for k in counts:
            gains[::10, -1 - k] = top[::10]
        for p0_db, ps_db, rate_gbu, rate_gfu in KERNEL_CONFIGS:
            configs = [SystemConfig.from_db(k, p0_db, ps_db, rate_gbu, rate_gfu) for k in counts]
            s = _scratch(len(gains), counts)
            together = np.zeros((len(configs), 10), dtype=np.int64)
            montecarlo._run_block(configs, [list(range(len(configs)))], gains, s, together)
            for i, (k, cfg) in enumerate(zip(counts, configs)):
                np.testing.assert_array_equal(s.best_gain[k], gains[:, -1 - k : -1].max(axis=1))
                alone = np.zeros((1, 10), dtype=np.int64)
                montecarlo._run_block([cfg], [[0]], gains, _scratch(len(gains), (k,)), alone)
                assert together[i].tolist() == alone[0].tolist()
        # a run's short last block, over the engine's own draws
        configs = [SystemConfig.from_db(k, 30.0, 18.2, 2.5, 1.5) for k in counts]
        trials = BLOCK_SIZE + 777
        together = _simulate(configs, trials, 11, 1)
        for i, cfg in enumerate(configs):
            np.testing.assert_array_equal(together[:, i], _simulate([cfg], trials, 11, 1)[:, 0])


# the input box's corners, each power and rate at one of its edges, at K = 1, 2 and
# 256; every product the kernel forms is monotone in each field, so its extremes lie there
BOX_CORNERS = [
    SystemConfig(k, *fields)
    for k in (1, 2, 256)
    for fields in product(*[(1e-15, 1e15)] * 2, *[(2.0**-20, 64.0)] * 2)
]


class TestInputBoxCorners:
    """Every product the kernel and the scalar protocol form is finite inside the
    input box, so the engine runs its corners silently and the scalar protocol
    reads each row as the kernel does."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_is_silent(self, workers):
        # two blocks for K <= 2, the second partial, so at two workers each runs one;
        # at K = 256 less than one block, so the draw buffer holds about 2 MB
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cfg in BOX_CORNERS:
                trials = 70_000 if cfg.num_gfus <= 2 else 1_000
                for scheme in Scheme:
                    est = estimate_outage(cfg, scheme, trials=trials, seed=1, workers=workers)
                    assert sum(est.case_tallies.occurrences) == trials

    def test_scalar_flags_equal_the_kernels(self):
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cfg in BOX_CORNERS:
                g0, gfu = sorted_block(rng, 500, cfg.num_gfus)
                case_idx, rsma_out, gbu_out = evaluate_rsma_trials(cfg, g0, gfu)
                _, noma_out, _ = evaluate_noma_trials(cfg, g0, gfu)
                for i in range(len(g0)):
                    real = ChannelRealization(float(g0[i]), tuple(gfu[i].tolist()))
                    outcome = evaluate_transmission(cfg, real)
                    assert case_idx[i] == CASE_INDEX[outcome.case_label]
                    assert rsma_out[i] == outcome.gfu_outage
                    assert gbu_out[i] == outcome.gbu_outage
                    assert noma_out[i] == cr_noma_outage(cfg, real)


class TestProbeContract:
    """A benchmark probe rebuilds block 0 from the public sampler and kernels, with
    the GBU as the sampler's last column, and checks it against ``estimate_outage``."""

    @pytest.mark.parametrize("num_gfus", [1, 5])
    def test_one_block_estimate_is_the_kernels_on_the_standalone_draw(self, num_gfus):
        # the fig4 config at 20 dB GFU power, where all three cases occur
        cfg = SystemConfig.from_db(num_gfus, 15.0, 20.0, 3.0, 3.0)
        seed = 77
        rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(0))))
        gains = sample_gain_matrix(BLOCK_SIZE, num_gfus + 1, rng)
        g0, gfu = gains[:, -1], gains[:, :-1]
        kernels = {Scheme.CR_RSMA_SGF: evaluate_rsma_trials, Scheme.CR_NOMA_SGF: evaluate_noma_trials}
        for scheme, kernel in kernels.items():
            case_idx, gfu_out, gbu_out = kernel(cfg, g0, gfu)
            est = estimate_outage(cfg, scheme, trials=BLOCK_SIZE, seed=seed)
            tallies = est.case_tallies
            assert tallies.occurrences == tuple(np.bincount(case_idx, minlength=3).tolist())
            assert tallies.gfu_outages == tuple(np.bincount(case_idx[gfu_out], minlength=3).tolist())
            assert est.gbu_outage_prob == np.count_nonzero(gbu_out) / BLOCK_SIZE


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
            ("num_gfus", [2.0, 1.0, 4.0, 3.0, 2.0]),
        ],
    )
    def test_engine_matches_block_by_block_loop(self, axis, grid, workers):
        # two full blocks and a one-row partial one; each worker reuses its buffers
        # for every block, user count, config and GBU-side group, the repeated GBU
        # power shares its GBU-side terms across a config of another group, and each
        # user count reads its prefix of the block drawn at the largest
        trials, seed = ENGINE_TRIALS, 21
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
        assert_rows_match_loop(rows, trials, seed)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_one_call_serves_requests_of_different_user_counts(self, workers):
        trials, seed = ENGINE_TRIALS, 22
        requests = [
            SweepRequest(SystemConfig.from_db(5, 15.0, 10.0, 3.0, 2.0), "gfu_power_db", (0.0, 20.0)),
            SweepRequest(
                SystemConfig.from_db(2, 30.0, 18.2, 2.5, 1.5),
                "gbu_power_db",
                (20.0, 30.0),
                (Scheme.CR_NOMA_SGF,),
                db_to_linear(5.0),
            ),
        ]
        results = sweeps(requests, trials, seed, workers=workers)
        assert [len(rows) for rows in results] == [4, 2]
        for request, rows in zip(requests, results):
            assert rows == sweep(*request[:3], trials, seed, *request[3:], workers=1)
            assert_rows_match_loop(rows, trials, seed)

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
        # every request is checked before any block is drawn
        good = SweepRequest(config(), "gfu_power_db", (10.0,))
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweeps([good, good._replace(axis="bandwidth")], trials=10, seed=1)

    def test_rejects_empty_schemes(self):
        with pytest.raises(ValueError, match="schemes must be nonempty"):
            sweep(config(), axis="gfu_power_db", grid=[10.0], trials=10, seed=1, schemes=())

    @pytest.mark.parametrize("ratio", [0.0, -2.0, math.nan, math.inf])
    def test_rejects_bad_power_ratio(self, ratio, monkeypatch):
        forbid_draws(monkeypatch)
        with pytest.raises(ValueError, match="gbu_to_gfu_power_ratio must be finite and > 0"):
            sweep(config(), "gbu_power_db", [20, 30], 2000, 1, gbu_to_gfu_power_ratio=ratio)

    @pytest.mark.parametrize("axis", ["gfu_power_db", "target_rate", "num_gfus"])
    def test_rejects_power_ratio_on_other_axes(self, axis, monkeypatch):
        # the ratio locks the GFU power to the swept GBU power; elsewhere it would be ignored
        forbid_draws(monkeypatch)
        message = f"gbu_to_gfu_power_ratio applies to gbu_power_db sweeps, not {axis}"
        with pytest.raises(ValueError, match=message):
            sweep(config(), axis, [2.0], 2000, 1, gbu_to_gfu_power_ratio=15.0)
        locked = SweepRequest(config(), "gbu_power_db", (20.0,), gbu_to_gfu_power_ratio=15.0)
        with pytest.raises(ValueError, match=message):
            sweeps([locked, locked._replace(axis=axis, grid=(2.0,))], 2000, 1)

    def test_rejects_scheme_listed_twice(self, monkeypatch):
        # by member or by value, a repeated scheme would write its rows twice
        forbid_draws(monkeypatch)
        with pytest.raises(ValueError, match="sweep schemes must be distinct"):
            schemes = (Scheme.CR_RSMA_SGF, "cr-rsma-sgf")
            sweep(config(), "gfu_power_db", [10.0], 2000, 1, schemes=schemes)

    @pytest.mark.parametrize(
        "grid", [[10.0, None], ["10"], [True], [10**400]], ids=["none", "string", "bool", "huge-int"]
    )
    def test_rejects_grid_value_that_is_no_float(self, grid, monkeypatch):
        # the axes read floats; a string or bool would pass float(), None only fail after the pass
        forbid_draws(monkeypatch)
        with pytest.raises(ValueError, match="sweep grid values must be real numbers"):
            sweep(config(), "gfu_power_db", grid, 2000, 1)

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
