"""Dedicated per-layer measurements made by the traced run.

They do not depend on the workload: each draws its own inputs from the
benchmark seed, so every traced run reports them on the same footing.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

from reference import outage_reference
from workloads import DOCUMENTED_ERRORS, SCALAR_NUM_GFUS, draw_analytic_configs, relative_error

# sgfsim's documented Monte Carlo block size; block b is keyed by (seed, b)
BLOCK_ROWS = 1 << 16
MASK64 = 0xFFFFFFFFFFFFFFFF
BLOCK_REPEATS = 11
SCALAR_CALLS = 5000
SCALAR_REPEATS = 5
ANALYTIC_REPEATS = 3
K_BUCKETS = {"k1": (1, 1), "k2-5": (2, 5), "k6-10": (6, 10), "k11-20": (11, 20)}


def fresh_import_seconds(module: str, src: str, repeats: int) -> list[float]:
    """Time ``import module`` in ``repeats`` fresh interpreters that see only ``src``."""
    code = (
        "import time; t0 = time.perf_counter(); import {m}; t1 = time.perf_counter(); "
        "import {m} as mod; print(t1 - t0); print(getattr(mod, '__file__', ''))"
    ).format(m=module)
    env = dict(os.environ, PYTHONPATH=src)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        seconds, path = proc.stdout.split("\n")[:2]
        if module == "sgfsim" and not path.startswith(src):
            raise RuntimeError(f"fresh interpreter imported sgfsim from {path}, not {src}")
        samples.append(float(seconds))
    return samples


def _fig4_config(sgf, num_gfus: int):
    # fig4 at 20 dB GFU power: all three protocol cases occur
    return sgf.SystemConfig.from_db(num_gfus, 15.0, 20.0, 3.0, 3.0)


def _tally(case_idx, gfu_out, gbu_out):
    return (
        np.bincount(case_idx, minlength=3),
        np.bincount(case_idx[gfu_out], minlength=3),
        int(np.count_nonzero(gbu_out)),
    )


def block_stage_probe(sgf, seed: int, failures: list[str]) -> dict[str, float]:
    """Per-stage cost of block 0, built with public functions and checked against
    ``estimate_outage`` so that it times the production path and no other."""
    mc, metrics = sgf.montecarlo, {}
    for k in (1, 5):
        config = _fig4_config(sgf, k)
        stages = {name: [] for name in ("sample", "order", "rsma", "noma", "tally")}
        for _ in range(BLOCK_REPEATS):
            rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed & MASK64), np.uint64(0))))
            t0 = time.perf_counter()
            gains = sgf.model.sample_gain_matrix(BLOCK_ROWS, k + 1, rng)
            t1 = time.perf_counter()
            gfu, g0 = np.sort(gains[:, :-1], axis=1), gains[:, -1]
            t2 = time.perf_counter()
            rsma = mc.evaluate_rsma_trials(config, g0, gfu)
            t3 = time.perf_counter()
            noma = mc.evaluate_noma_trials(config, g0, gfu)
            t4 = time.perf_counter()
            _tally(*rsma)
            t5 = time.perf_counter()
            for name, seconds in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                stages[name].append(seconds)

        for scheme, outputs in ((mc.Scheme.CR_RSMA_SGF, rsma), (mc.Scheme.CR_NOMA_SGF, noma)):
            occurrences, outages, gbu = _tally(*outputs)
            est = mc.estimate_outage(config, scheme, trials=BLOCK_ROWS, seed=seed, workers=1)
            if (
                tuple(occurrences) != est.case_tallies.occurrences
                or tuple(outages) != est.case_tallies.gfu_outages
                or gbu / BLOCK_ROWS != est.gbu_outage_prob
            ):
                failures.append(f"block probe K={k} {scheme.value}: tallies differ from estimate_outage")

        names = {
            "sample": "model.sample_gain_matrix",
            "order": "montecarlo.order",
            "rsma": "montecarlo.evaluate_rsma_trials",
            "noma": "montecarlo.evaluate_noma_trials",
            "tally": "montecarlo.tally",
        }
        for stage, samples in stages.items():
            metrics[f"{names[stage]}.k{k}.ms_per_block"] = statistics.median(samples) * 1e3
        # uniforms and gains, the sorted GFU gains and one kernel's outputs
        metrics[f"montecarlo.block.k{k}.bytes"] = float(
            2 * gains.nbytes + gfu.nbytes + sum(a.nbytes for a in rsma)
        )
    return metrics


def workers2_speedup(sgf, seed: int, failures: list[str]) -> dict[str, float]:
    """``estimate_outage`` wall time at one worker over two, on the same inputs."""
    mc, config = sgf.montecarlo, _fig4_config(sgf, 5)
    times, results = {1: [], 2: []}, {}
    for _ in range(3):
        for workers in (1, 2):
            start = time.perf_counter()
            results[workers] = mc.estimate_outage(
                config, mc.Scheme.CR_RSMA_SGF, trials=10**6, seed=seed, workers=workers
            )
            times[workers].append(time.perf_counter() - start)
    if results[1] != results[2]:
        failures.append("estimate_outage differs between one and two workers")
    return {"montecarlo.workers2_speedup": statistics.median(times[1]) / statistics.median(times[2])}


def analytic_probe(sgf, seed: int) -> dict[str, float]:
    """Per-K-bucket cost, failures, warnings and accuracy of the analytic layer on
    the analytic-range configurations."""
    analytic = sgf.analytic
    configs = draw_analytic_configs(sgf.SystemConfig, seed)
    failed = {"outage_probability": 0, "outage_probability_highsnr": 0}
    rel_errs, call_s = [], [[] for _ in configs]
    for repeat in range(ANALYTIC_REPEATS):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", analytic.ConditioningWarning)
            for i, config in enumerate(configs):
                start = time.perf_counter()
                try:
                    value = analytic.outage_probability(config)
                except DOCUMENTED_ERRORS:
                    value = None
                call_s[i].append(time.perf_counter() - start)
                if repeat:
                    continue
                if value is None:
                    failed["outage_probability"] += 1
                else:
                    rel_errs.append(relative_error(value, outage_reference(config)))
                try:
                    analytic.outage_probability_highsnr(config)
                except DOCUMENTED_ERRORS:
                    failed["outage_probability_highsnr"] += 1
        if not repeat:
            conditioning = sum(
                issubclass(w.category, analytic.ConditioningWarning) for w in caught
            )
    metrics = {
        f"analytic.{name}.failed": float(count) for name, count in failed.items()
    }
    for bucket, (lo, hi) in K_BUCKETS.items():
        per_call = [
            statistics.median(call_s[i])
            for i, config in enumerate(configs)
            if lo <= config.num_gfus <= hi
        ]
        metrics[f"analytic.outage_probability.{bucket}.ms_per_call"] = (
            statistics.fmean(per_call) * 1e3
        )
    metrics["analytic.conditioning_warnings"] = float(conditioning)
    metrics["analytic.rel_err.p50"] = statistics.median(rel_errs)
    metrics["analytic.rel_err.max"] = max(rel_errs)
    return metrics


def scalar_call_probe(sgf, seed: int) -> dict[str, float]:
    """Microseconds per call of the scalar sampling, protocol and baseline functions."""
    config = sgf.SystemConfig.from_db(SCALAR_NUM_GFUS, 30.0, 18.2, 2.5, 1.5)
    sample = sgf.model.sample_channel_realization
    evaluate, noma_rate = sgf.protocol.evaluate_transmission, sgf.baselines.cr_noma_rate
    times = {"sample": [], "evaluate": [], "noma": []}
    for _ in range(SCALAR_REPEATS):
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        realizations = [sample(SCALAR_NUM_GFUS, rng) for _ in range(SCALAR_CALLS)]
        t1 = time.perf_counter()
        for realization in realizations:
            evaluate(config, realization)
        t2 = time.perf_counter()
        for realization in realizations:
            noma_rate(config, realization)
        t3 = time.perf_counter()
        for name, seconds in zip(times, (t1 - t0, t2 - t1, t3 - t2)):
            times[name].append(seconds)

    def us_per_call(name: str) -> float:
        return statistics.median(times[name]) / SCALAR_CALLS * 1e6

    return {
        "model.sample_channel_realization.us_per_call": us_per_call("sample"),
        "protocol.evaluate_transmission.us_per_call": us_per_call("evaluate"),
        "baselines.cr_noma_rate.us_per_call": us_per_call("noma"),
    }
