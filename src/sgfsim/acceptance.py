"""Acceptance gate: every release-blocking check with its pinned budget.

Each criterion is a pure function of its seed and returns a
:class:`CriterionResult`; ``run_all`` executes the battery in order. The
same functions back ``pytest tests/test_acceptance.py`` and the CLI's
``validate`` subcommand. Deep-outage Monte Carlo points (fewer than 10
observed or expected outage events) are flagged statistically unresolved
and skipped rather than compared.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import analytic
from .baselines import cr_noma_rate
from .model import ChannelRealization, SystemConfig, db_to_linear, sample_gain_matrix
from .montecarlo import (
    BLOCK_SIZE,
    MIN_RESOLVED_OUTAGES,
    Scheme,
    SweepRequest,
    SweepRow,
    estimate_outage,
    evaluate_rsma_trials,
    sweep,
    sweeps,
)
from .protocol import evaluate_transmission
from .zones import ZoneLabel, classify_grid, region_corners

__all__ = ["CriterionResult", "CRITERIA", "run_all", "DEFAULT_SEED"]

DEFAULT_SEED = 20250808
POWER_RATIO_FIG3 = 15.0  # GBU transmit SNR is 15x the GFU's


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _verdict(name: str, detail: str, failures: list[str]) -> CriterionResult:
    """A pass if ``failures`` is empty, else a fail whose detail lists them."""
    if failures:
        detail += "; " + "; ".join(failures)
    return CriterionResult(name, not failures, detail)


def _fig3_config(num_gfus: int, gbu_power_db: float) -> SystemConfig:
    power_gbu = db_to_linear(gbu_power_db)
    return SystemConfig(
        num_gfus=num_gfus,
        power_gbu=power_gbu,
        power_gfu=power_gbu / POWER_RATIO_FIG3,
        target_rate_gbu=2.5,
        target_rate_gfu=1.5,
    )


@lru_cache(maxsize=None)
def _mc_grid(seed: int) -> dict[str, tuple[SweepRow, SweepRow]]:
    """The rate-splitting and baseline rows, 1e6 trials, per point of the locked-ratio
    and fixed-GBU grids, K in {2, 5}: one sweep per K and axis, all on one draw per block."""
    labels, requests = [], []
    for k in (2, 5):
        fixed_gbu = SystemConfig.from_db(k, 15.0, 0.0, 3.0, 3.0)
        for name, base, axis, dbs in (
            ("locked-ratio K={} P0={}dB", _fig3_config(k, 20), "gbu_power_db", range(20, 50, 5)),
            ("fixed-GBU K={} Ps={}dB", fixed_gbu, "gfu_power_db", range(0, 50, 5)),
        ):
            ratio = POWER_RATIO_FIG3 if axis == "gbu_power_db" else None
            labels.append([name.format(k, db) for db in dbs])
            requests.append(SweepRequest(base, axis, dbs, gbu_to_gfu_power_ratio=ratio))
    grid = {}
    for names, rows in zip(labels, sweeps(requests, 10**6, seed)):
        grid.update(zip(names, zip(rows[::2], rows[1::2])))
    return grid


def criterion_exact_vs_mc(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The printed exact cell vs 1e6-trial Monte Carlo at every resolved grid point."""
    worst = 0.0
    skipped = 0
    failures = []
    for label, (row, _) in _mc_grid(seed).items():
        est = row.estimate
        if not est.statistically_resolved:
            skipped += 1
            continue
        if row.analytic_exact is None:
            failures.append(f"{label}: no exact cell ({row.error})")
            continue
        pull = abs(row.analytic_exact - est.gfu_outage_prob) / est.std_err_gfu
        worst = max(worst, pull)
        if pull > 3.0:
            failures.append(f"{label}: |exact-mc|={pull:.2f} sigma")
    detail = f"worst deviation {worst:.2f} sigma, {skipped} unresolved points skipped"
    return _verdict("exact-vs-mc", detail, failures)


def _random_oracle_configs(seed: int, count: int = 50):
    rng = np.random.default_rng(seed + 2)
    configs = [
        # pinned high-threshold-product config (eps0 * eps_s = 49)
        SystemConfig(5, db_to_linear(15.0), db_to_linear(20.0), 3.0, 3.0)
    ]
    while len(configs) < count:
        configs.append(
            SystemConfig(
                num_gfus=int(rng.integers(2, 7)),
                power_gbu=db_to_linear(rng.uniform(0.0, 40.0)),
                power_gfu=db_to_linear(rng.uniform(0.0, 40.0)),
                target_rate_gbu=float(rng.uniform(0.5, 4.0)),
                target_rate_gfu=float(rng.uniform(0.5, 4.0)),
            )
        )
    return configs


def criterion_oracle_equivalence(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The paper's series vs the production quadrature: term by term to 1e-7
    absolute, and the total to 1e-9 relative wherever the series does not warn."""
    tol, rel_tol = 1e-7, 1e-9
    worst = silent_worst = 0.0
    big_eps_product = warned = 0
    failures = []
    for i, config in enumerate(_random_oracle_configs(seed)):
        if config.eps0 * config.eps_s > 1.0:
            big_eps_product += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", analytic.ConditioningWarning)
            series = analytic.outage_exact(config)
        quadrature = analytic.outage_quadrature(config)
        if any(issubclass(w.category, analytic.ConditioningWarning) for w in caught):
            warned += 1
        else:
            rel = abs(series.total - quadrature.total) / quadrature.total
            silent_worst = max(silent_worst, rel)
            if rel > rel_tol:
                failures.append(f"config#{i} total: silent relative error {rel:.2e}")
        pairs = [
            ("case-I", series.p_case1, quadrature.p_case1),
            ("case-III", series.p_case3, quadrature.p_case3),
            *(
                (f"case-II k={k}", s, q)
                for k, (s, q) in enumerate(zip(series.p_case2_terms, quadrature.p_case2_terms))
            ),
        ]
        for term, s_val, q_val in pairs:
            diff = abs(s_val - q_val)
            worst = max(worst, diff)
            if diff > tol:
                failures.append(f"config#{i} {term}: |diff|={diff:.2e}")
    detail = (
        f"worst term difference {worst:.2e} over 50 configs "
        f"({big_eps_product} with eps0*eps_s > 1); the series warned on {warned}, "
        f"worst relative error of the rest {silent_worst:.2e}"
    )
    # the first five are listed; any one fails it
    return _verdict("oracle-equivalence", detail, failures[:5])


def criterion_single_user(seed: int = DEFAULT_SEED) -> CriterionResult:
    """K = 1 printed exact cell vs 1e7-trial MC, and its power-law approximation cell."""
    grid = range(20, 60, 5)
    base = _fig3_config(1, 20)
    rows = sweep(base, "gbu_power_db", grid, 10**7, seed, gbu_to_gfu_power_ratio=POWER_RATIO_FIG3)
    failures = []
    worst = 0.0
    for db, row in zip(grid, rows[::2]):
        est, exact, approx = row.estimate, row.analytic_exact, row.analytic_highsnr
        if exact is None or approx is None:
            failures.append(f"P0={db}dB: no exact or high-SNR cell ({row.error})")
            continue
        if est.statistically_resolved:
            pull = abs(exact - est.gfu_outage_prob) / est.std_err_gfu
            worst = max(worst, pull)
            if pull > 3.0:
                failures.append(f"P0={db}dB: {pull:.2f} sigma")
        if 10.0 * math.log10(row.config.power_gfu) >= 35.0:
            rel = abs(approx / exact - 1.0)
            if rel > 0.25:
                failures.append(f"P0={db}dB: approx off by {rel:.3f}")
    detail = f"worst MC deviation {worst:.2f} sigma over 8 points"
    return _verdict("single-user", detail, failures)


def _equal_power_sweep(num_gfus: int):
    for db in range(25, 60, 5):
        power = db_to_linear(db)
        yield db, SystemConfig(num_gfus, power, power, 2.0, 1.5)


def criterion_diversity_gain(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Log-log outage slope over the top 15 dB equals -K within 15%."""
    failures = []
    slopes = []
    for k in (1, 2, 3):
        xs, ys = [], []
        for db, config in _equal_power_sweep(k):
            if db < 40:
                continue
            xs.append(db / 10.0)
            ys.append(math.log10(analytic.outage_probability(config)))
        slope = float(np.polyfit(xs, ys, 1)[0])
        slopes.append(f"K={k}: {slope:.3f}")
        if abs(slope + k) / k > 0.15:
            failures.append(f"K={k}: slope {slope:.3f} vs {-k}")
    detail = "slopes " + ", ".join(slopes)
    return _verdict("diversity-gain", detail, failures)


def criterion_highsnr_approx(seed: int = DEFAULT_SEED) -> CriterionResult:
    """High-SNR approximation converges onto the exact curve."""
    failures = []
    finals = []
    for k in (2, 3):
        rels = []
        for db, config in _equal_power_sweep(k):
            if db < 45:
                continue
            exact = analytic.outage_probability(config)
            rels.append(abs(analytic.outage_probability_highsnr(config) / exact - 1.0))
        if not all(a >= b - 1e-12 for a, b in zip(rels, rels[1:])):
            failures.append(f"K={k}: rel errors {rels} not nonincreasing")
        if rels[-1] > 0.25:
            failures.append(f"K={k}: final rel error {rels[-1]:.3f} > 0.25")
        finals.append(f"K={k}: {rels[-1]:.2e}")
    detail = "final relative errors " + ", ".join(finals)
    return _verdict("high-snr-approx", detail, failures)


def criterion_gbu_oma_equivalence(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Production-kernel GBU outage equals the orthogonal-access event, realization
    by realization, and its MC frequency matches the exponential CDF."""
    config = SystemConfig(3, db_to_linear(10.0), db_to_linear(15.0), 1.0, 1.5)
    trials = 10**6
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 6)))
    gains = sample_gain_matrix(trials, config.num_gfus + 1, rng)
    gain_gbu = gains[:, -1]
    case_idx, _, gbu_out = evaluate_rsma_trials(config, gain_gbu, gains[:, :-1])
    # the GBU is protected in Cases I and II, so the kernel may put a row there
    # only when the GBU alone would succeed
    oma_out = gain_gbu < config.eta0
    violations = np.count_nonzero(((case_idx < 2) & oma_out) | (gbu_out != oma_out))
    p_hat = np.count_nonzero(gbu_out) / trials
    p_true = -math.expm1(-config.eps0 / config.power_gbu)
    sigma = math.sqrt(p_true * (1.0 - p_true) / trials)
    pull = abs(p_hat - p_true) / sigma
    passed = violations == 0 and pull <= 3.0
    detail = (
        f"{violations} boolean mismatches over {trials} realizations; "
        f"GBU outage freq {p_hat:.5f} vs {p_true:.5f} ({pull:.2f} sigma)"
    )
    return CriterionResult("gbu-oma-equivalence", passed, detail)


def criterion_rsma_dominance(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Rate-splitting strictly beats the baseline rate in the middle case,
    ties it elsewhere, and never loses on Monte Carlo outage."""
    config = _fig3_config(3, 20.0)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 7)))
    needed = 10**5
    collected = 0
    strict_violations = 0
    while collected < needed:
        gains = sample_gain_matrix(1 << 18, config.num_gfus + 1, rng)
        # sorted, because ChannelRealization takes ascending gains
        gain_gbu, gains_gfu = gains[:, -1], np.sort(gains[:, :-1], axis=1)
        case_idx, _, _ = evaluate_rsma_trials(config, gain_gbu, gains_gfu)
        # the production kernel picks the Case II rows; the public rate functions compare them
        middle = case_idx == 1
        collected += int(np.count_nonzero(middle))
        for g0, row in zip(gain_gbu[middle].tolist(), gains_gfu[middle].tolist()):
            real = ChannelRealization(g0, tuple(row))
            if evaluate_transmission(config, real).rate_gfu_total <= cr_noma_rate(config, real)[0]:
                strict_violations += 1

    # identical rates outside the middle case, via the two scalar code paths, on
    # every row of one draw: its rows come sorted by GBU gain, so a leading slice
    # would hold only the weakest GBU channels
    identical_checked = 0
    identity_violations = 0
    rng2 = np.random.Generator(np.random.Philox(key=np.uint64(seed + 8)))
    for row in sample_gain_matrix(4000, config.num_gfus + 1, rng2).tolist():
        real = ChannelRealization(row[-1], tuple(sorted(row[:-1])))
        outcome = evaluate_transmission(config, real)
        if outcome.case_label.value == "II":
            continue
        rate, _ = cr_noma_rate(config, real)
        identity_violations += rate != outcome.rate_gfu_total
        identical_checked += 1

    mc_failures = []
    for label, (rsma, noma) in _mc_grid(seed).items():
        slack = max(rsma.estimate.std_err_gfu, noma.estimate.std_err_gfu)
        if rsma.estimate.gfu_outage_prob > noma.estimate.gfu_outage_prob + slack:
            mc_failures.append(label)

    passed = strict_violations == 0 and identity_violations == 0 and not mc_failures
    detail = (
        f"{strict_violations} strict-dominance violations over {collected} middle-case draws; "
        f"{identity_violations} rate mismatches over {identical_checked} case-I/III draws; "
        f"{len(mc_failures)} sweep points where baseline beat rate-splitting"
    )
    return CriterionResult("rsma-dominance", passed, detail)


def criterion_case_decomposition(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Per-case quadrature terms match per-case MC outage tallies."""
    trials = 10**6
    failures = []
    skipped = 0
    worst = 0.0
    for k in (2, 5):
        for db in range(20, 50, 5):
            row, _ = _mc_grid(seed)[f"locked-ratio K={k} P0={db}dB"]
            est = row.estimate
            # the rows carry no per-case terms
            breakdown = analytic.outage_quadrature(row.config)
            per_case = [
                ("I", breakdown.p_case1, est.case_tallies.gfu_outages[0]),
                ("II", breakdown.p_case2, est.case_tallies.gfu_outages[1]),
                ("III", breakdown.p_case3, est.case_tallies.gfu_outages[2]),
            ]
            for case_name, p_exact, count in per_case:
                if p_exact * trials < MIN_RESOLVED_OUTAGES or count < MIN_RESOLVED_OUTAGES:
                    skipped += 1
                    continue
                sigma = math.sqrt(p_exact * (1.0 - p_exact) / trials)
                pull = abs(count / trials - p_exact) / sigma
                worst = max(worst, pull)
                if pull > 3.0:
                    failures.append(f"K={k} P0={db}dB case {case_name}: {pull:.2f} sigma")
    detail = f"worst per-case deviation {worst:.2f} sigma, {skipped} unresolved comparisons skipped"
    return _verdict("per-case-decomposition", detail, failures)


def criterion_zone_geometry(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Baseline regions nest inside the rate-splitting region on a 200x200 grid,
    and the rate-splitting-only triangle sits where the corner rates say."""
    p_gbu = db_to_linear(8.0)
    p_gfu = db_to_linear(15.0)
    corners = region_corners(p_gbu, p_gfu)
    grid_n = 200
    cells = classify_grid(p_gbu, p_gfu, grid_n)
    step = corners.sum_rate / grid_n

    containment_violations = 0
    rsma_only = []
    for t_gbu, t_gfu, label in cells:
        if label in (ZoneLabel.NOMA_GBU_FIRST, ZoneLabel.NOMA_GFU_FIRST, ZoneLabel.NOMA_EITHER):
            rsma_ok = (
                t_gbu <= corners.gbu_alone
                and t_gfu <= corners.gfu_alone
                and t_gbu + t_gfu <= corners.sum_rate
            )
            if not rsma_ok:
                containment_violations += 1
        elif label is ZoneLabel.RSMA_ONLY:
            rsma_only.append((t_gbu, t_gfu))

    failures = []
    if containment_violations:
        failures.append(f"{containment_violations} containment violations")
    if not rsma_only:
        failures.append("rate-splitting-only region empty")
    else:
        tol = 2.0 * step
        lo_gbu = min(t for t, _ in rsma_only)
        hi_gbu = max(t for t, _ in rsma_only)
        lo_gfu = min(t for _, t in rsma_only)
        hi_gfu = max(t for _, t in rsma_only)
        expected = [
            ("min GBU target", lo_gbu, corners.gbu_decoded_first),
            ("max GBU target", hi_gbu, corners.gbu_alone),
            ("min GFU target", lo_gfu, corners.gfu_decoded_first),
            ("max GFU target", hi_gfu, corners.gfu_alone),
        ]
        for what, got, want in expected:
            if abs(got - want) > tol:
                failures.append(f"{what} {got:.4f} vs corner {want:.4f}")
    detail = (
        f"{len(rsma_only)} rate-splitting-only cells, "
        f"{containment_violations} containment violations, grid step {step:.4f}"
    )
    return _verdict("zone-geometry", detail, failures)


def _run_preset_bytes(cli, preset: str, seed: int, workers: str, tag: str, tmp: str):
    """Run one preset into ``tmp`` and return its output files as sorted bytes."""
    subdir = os.path.join(tmp, tag)
    os.makedirs(subdir, exist_ok=True)
    out = os.path.join(subdir, f"{preset}.csv")
    argv = [
        "run",
        preset,
        "--trials",
        # one trial past a block, so the 8-worker runs really start a pool
        str(BLOCK_SIZE + 1),
        "--seed",
        str(seed),
        "--out",
        out,
        "--no-timestamp",
        "--workers",
        workers,
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        return None
    blobs = []
    for name in sorted(os.listdir(subdir)):
        with open(os.path.join(subdir, name), "rb") as fh:
            blobs.append((name, fh.read()))
    return tuple(blobs)


def criterion_determinism(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Estimates and every preset's result files are byte-identical across
    reruns and across worker counts 1 and 8."""
    from . import cli

    failures = []

    config = SystemConfig(4, db_to_linear(20.0), db_to_linear(12.0), 1.5, 2.0)
    single = estimate_outage(config, Scheme.CR_RSMA_SGF, 150_000, seed, workers=1)
    threaded = estimate_outage(config, Scheme.CR_RSMA_SGF, 150_000, seed, workers=8)
    if single != threaded:
        failures.append("estimate differs between 1 and 8 workers")
    if single != estimate_outage(config, Scheme.CR_RSMA_SGF, 150_000, seed, workers=1):
        failures.append("estimate differs between identical reruns")

    with tempfile.TemporaryDirectory() as tmp:
        for preset in cli.PRESET_NAMES:
            runs = [
                _run_preset_bytes(cli, preset, seed, workers, f"{preset}-{i}", tmp)
                for i, workers in enumerate(("1", "8", "1", "8"))
            ]
            if any(r is None for r in runs):
                failures.append(f"preset {preset} exited nonzero")
            elif len(set(runs)) != 1:
                failures.append(f"preset {preset} output not byte-identical")

    detail = "estimates and presets byte-identical across reruns and worker counts {1, 8}"
    if failures:
        detail = "; ".join(failures)
    return CriterionResult("determinism", not failures, detail)


CRITERIA = (
    ("exact-vs-mc", criterion_exact_vs_mc),
    ("oracle-equivalence", criterion_oracle_equivalence),
    ("single-user", criterion_single_user),
    ("diversity-gain", criterion_diversity_gain),
    ("high-snr-approx", criterion_highsnr_approx),
    ("gbu-oma-equivalence", criterion_gbu_oma_equivalence),
    ("rsma-dominance", criterion_rsma_dominance),
    ("per-case-decomposition", criterion_case_decomposition),
    ("zone-geometry", criterion_zone_geometry),
    ("determinism", criterion_determinism),
)


def run_all(seed: int = DEFAULT_SEED) -> Iterator[CriterionResult]:
    # the criteria key their generators on seed + 0..8, each a uint64
    if not 0 <= seed < 2**64 - 8:
        raise ValueError(f"acceptance seed must be an integer in [0, 2**64 - 8), got {seed}")
    return (func(seed) for _, func in CRITERIA)
