"""Deterministic, parallelizable Monte Carlo outage estimation.

Trials are partitioned into fixed blocks of 65536; block ``b`` draws from a
counter-based generator keyed by ``(seed, b)``, so trial ``i`` sees the same
gains no matter how many workers run or how the work is scheduled. Tallies
are integers and their aggregation is associative, which makes the estimate
a pure function of (config, scheme, trials, seed). A sweep draws each block
once per user count and runs every grid point and both schemes on it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import analytic
from .model import SystemConfig, db_to_linear, sample_gain_matrix

__all__ = [
    "Scheme",
    "CaseTallies",
    "OutageEstimate",
    "SweepRow",
    "SWEEP_AXES",
    "WORKERS_ENV_VAR",
    "evaluate_rsma_trials",
    "evaluate_noma_trials",
    "estimate_outage",
    "sweep",
]

BLOCK_SIZE = 1 << 16
# below this many observed outages an estimate is flagged unresolved
MIN_RESOLVED_OUTAGES = 10
WORKERS_ENV_VAR = "SGFSIM_WORKERS"


class Scheme(Enum):
    CR_RSMA_SGF = "cr-rsma-sgf"
    CR_NOMA_SGF = "cr-noma-sgf"


@dataclass(frozen=True)
class CaseTallies:
    """Occurrence and GFU-outage counts per operating case (I, II, III)."""

    occurrences: tuple[int, int, int]
    gfu_outages: tuple[int, int, int]

    def __post_init__(self) -> None:
        for occ, out in zip(self.occurrences, self.gfu_outages):
            if out > occ:
                raise ValueError("outage tally cannot exceed occurrence tally")

    @property
    def total_gfu_outages(self) -> int:
        return sum(self.gfu_outages)


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage estimate with per-case tallies and standard errors."""

    scheme: Scheme
    seed: int
    trials: int
    gfu_outage_prob: float
    gbu_outage_prob: float
    std_err_gfu: float
    std_err_gbu: float
    case_tallies: CaseTallies

    @property
    def gfu_outage_count(self) -> int:
        return self.case_tallies.total_gfu_outages

    @property
    def statistically_resolved(self) -> bool:
        return self.gfu_outage_count >= MIN_RESOLVED_OUTAGES


class _Masks(NamedTuple):
    """Per-trial masks of one config: the case partition (I, II, III), the GFU
    outages shared by both schemes in Cases I and III, each scheme's Case II
    GFU outages, and the GBU outage flag."""

    case1: np.ndarray
    case2: np.ndarray
    case3: np.ndarray
    out_case1: np.ndarray
    out_case3: np.ndarray
    rsma_case2: np.ndarray
    noma_case2: np.ndarray
    gbu: np.ndarray


def _row_max(gains_gfu: np.ndarray) -> np.ndarray:
    """Best gain of each row, by a running maximum over the columns."""
    best = gains_gfu[:, 0].copy()
    for j in range(1, gains_gfu.shape[1]):
        np.maximum(best, gains_gfu[:, j], out=best)
    return best


def _outage_masks(
    config: SystemConfig, gain_gbu: np.ndarray, gains_gfu: np.ndarray, best_gain: np.ndarray
) -> _Masks:
    """The case partition and the outage rules of both schemes.

    ``best_gain`` is the row maximum of ``gains_gfu``, whose rows may be in
    any order. The outage tests are exact algebraic rearrangements of the
    per-case rate-versus-target comparisons, not approximations. The schemes
    share the admission window and the case partition and differ only in
    Case II.
    """
    ps, e0, es = config.power_gfu, config.eps0, config.eps_s
    # in-place steps reuse the float temporaries; each value is the same expression
    p0g0 = config.power_gbu * gain_gbu
    tau_hat = p0g0 / e0
    tau_hat -= 1.0
    best = ps * best_gain
    case3 = tau_hat <= 0.0
    below = best <= tau_hat
    case1 = below & ~case3
    case2 = ~(below | case3)

    # Case I decodes the admitted GFU interference-free, Case III decodes it first
    interference = np.add(1.0, p0g0, out=p0g0)
    scratch = es * interference
    out_decode_first = best < scratch
    out_split = np.add(interference, best, out=scratch) < (1.0 + e0) * (1.0 + es)
    # Without splitting, Case II may instead decode last a GFU under the threshold;
    # that works iff some GFU has received power in [eps_s, tau_hat). The strongest
    # GFU is above the threshold, so it never passes and row order is irrelevant.
    noma_case2 = case2 & out_decode_first
    candidates = np.flatnonzero(noma_case2)
    if gains_gfu.shape[1] > 1 and candidates.size:
        tau_candidates = tau_hat[candidates]
        decodable_last = np.zeros(candidates.size, dtype=bool)
        for j in range(gains_gfu.shape[1]):
            received = ps * gains_gfu[:, j].take(candidates)
            decodable_last |= (received >= es) & (received < tau_candidates)
        noma_case2[candidates[decodable_last]] = False
    return _Masks(
        case1=case1,
        case2=case2,
        case3=case3,
        out_case1=case1 & (best < es),
        out_case3=case3 & out_decode_first,
        rsma_case2=case2 & out_split,
        noma_case2=noma_case2,
        gbu=gain_gbu < config.eta0,
    )


def _evaluate_trials(
    config: SystemConfig, gain_gbu: np.ndarray, gains_gfu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised protocol of both schemes over many fading blocks.

    ``gains_gfu`` rows may be in any order. Returns (case index in {0,1,2}
    for Cases I/II/III, rate-splitting GFU outage flag, non-splitting GFU
    outage flag, GBU outage flag).
    """
    m = _outage_masks(config, gain_gbu, gains_gfu, _row_max(gains_gfu))
    case_idx = m.case2.view(np.int8) + 2 * m.case3.view(np.int8)
    out_shared = m.out_case1 | m.out_case3
    return case_idx, out_shared | m.rsma_case2, out_shared | m.noma_case2, m.gbu


def evaluate_rsma_trials(
    config: SystemConfig, gain_gbu: np.ndarray, gains_gfu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised rate-splitting protocol over many fading blocks.

    ``gains_gfu`` rows may be in any order. Returns (case index in {0,1,2}
    for Cases I/II/III, GFU outage flag, GBU outage flag).
    """
    case_idx, rsma_out, _, gbu_out = _evaluate_trials(config, gain_gbu, gains_gfu)
    return case_idx, rsma_out, gbu_out


def evaluate_noma_trials(
    config: SystemConfig, gain_gbu: np.ndarray, gains_gfu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised non-splitting baseline over many fading blocks.

    Same admission window and case partition as the rate-splitting scheme;
    only the achievable rate in the middle case differs (best of one user
    decoded last or the strongest decoded first). ``gains_gfu`` rows may be
    in any order. Returns (case index, GFU outage flag, GBU outage flag).
    """
    case_idx, _, noma_out, gbu_out = _evaluate_trials(config, gain_gbu, gains_gfu)
    return case_idx, noma_out, gbu_out


# row of a config's case tallies holding each scheme's GFU outages; row 0 counts occurrences
_OUTAGE_ROW = {Scheme.CR_RSMA_SGF: 1, Scheme.CR_NOMA_SGF: 2}


def _block_generator(seed: int, block: int) -> np.random.Generator:
    key = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block))
    return np.random.Generator(np.random.Philox(key=key))


def _run_block(configs: list[SystemConfig], seed: int, block: int, rows: int) -> tuple:
    """Draw block ``block`` once and tally every config (one ``num_gfus``) on it."""
    rng = _block_generator(seed, block)
    # column-major, so each user's gains and the GBU's are contiguous
    gains = np.asfortranarray(sample_gain_matrix(rows, configs[0].num_gfus + 1, rng))
    gain_gbu, gains_gfu = gains[:, -1], gains[:, :-1]
    best_gain = _row_max(gains_gfu)
    cases = np.empty((len(configs), 3, 3), dtype=np.int64)
    gbu = np.empty(len(configs), dtype=np.int64)
    for i, config in enumerate(configs):
        m = _outage_masks(config, gain_gbu, gains_gfu, best_gain)
        n2, n3 = np.count_nonzero(m.case2), np.count_nonzero(m.case3)
        o1, o3 = np.count_nonzero(m.out_case1), np.count_nonzero(m.out_case3)
        cases[i] = [
            [rows - n2 - n3, n2, n3],
            [o1, np.count_nonzero(m.rsma_case2), o3],
            [o1, np.count_nonzero(m.noma_case2), o3],
        ]
        gbu[i] = np.count_nonzero(m.gbu)
    return cases, gbu


def _simulate(configs: list[SystemConfig], trials: int, seed: int, workers: int) -> tuple:
    """Per-config integer tallies over ``trials``: a (3, 3) array (case occurrences,
    then each scheme's GFU outages per case) and the GBU outage count. All configs
    share one ``num_gfus``; integer sums make the result independent of ``workers``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE

    def run(block: int) -> tuple:
        return _run_block(configs, seed, block, min(BLOCK_SIZE, trials - block * BLOCK_SIZE))

    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(n_blocks)))
    else:
        parts = [run(b) for b in range(n_blocks)]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def _resolve_workers(workers: int | None) -> int:
    """``workers`` if given, else the SGFSIM_WORKERS variable, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "")
        if not raw:
            return 1
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}")
        return int(raw)
    if workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return workers


def _std_err(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def _estimate(
    scheme: Scheme, trials: int, seed: int, cases: np.ndarray, gbu_count: int
) -> OutageEstimate:
    occurrences, outages = cases[0], cases[_OUTAGE_ROW[scheme]]
    gfu_prob = int(outages.sum()) / trials
    gbu_prob = int(gbu_count) / trials
    return OutageEstimate(
        scheme=scheme,
        seed=seed,
        trials=trials,
        gfu_outage_prob=gfu_prob,
        gbu_outage_prob=gbu_prob,
        std_err_gfu=_std_err(gfu_prob, trials),
        std_err_gbu=_std_err(gbu_prob, trials),
        case_tallies=CaseTallies(
            occurrences=tuple(int(x) for x in occurrences),
            gfu_outages=tuple(int(x) for x in outages),
        ),
    )


def estimate_outage(
    config: SystemConfig,
    scheme: Scheme = Scheme.CR_RSMA_SGF,
    trials: int = 10**6,
    seed: int = 0,
    workers: int | None = None,
) -> OutageEstimate:
    """Estimate GFU and GBU outage probabilities over seeded fading blocks.

    Bit-identical output for identical (config, scheme, trials, seed),
    independent of ``workers`` (also settable via the SGFSIM_WORKERS
    environment variable).
    """
    scheme = Scheme(scheme)
    cases, gbu = _simulate([config], trials, seed, _resolve_workers(workers))
    return _estimate(scheme, trials, seed, cases[0], gbu[0])


SWEEP_AXES = ("gbu_power_db", "gfu_power_db", "target_rate", "num_gfus")


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: estimate plus the rate-splitting scheme's
    analytic values, which are ``None`` on baseline rows."""

    axis: str
    axis_value: float
    scheme: Scheme | None
    config: SystemConfig | None
    estimate: OutageEstimate | None
    analytic_exact: float | None
    analytic_highsnr: float | None
    analytic_asymptote: float | None
    unresolved: bool
    error: str | None


def _config_on_axis(
    base: SystemConfig,
    axis: str,
    value: float,
    gbu_to_gfu_power_ratio: float | None,
) -> SystemConfig:
    if axis == "gbu_power_db":
        power_gbu = db_to_linear(value)
        power_gfu = (
            power_gbu / gbu_to_gfu_power_ratio
            if gbu_to_gfu_power_ratio is not None
            else base.power_gfu
        )
        return replace(base, power_gbu=power_gbu, power_gfu=power_gfu)
    if axis == "gfu_power_db":
        return replace(base, power_gfu=db_to_linear(value))
    if axis == "target_rate":
        return replace(base, target_rate_gbu=value, target_rate_gfu=value)
    if axis == "num_gfus":
        if not float(value).is_integer():
            raise ValueError(f"num_gfus must be an integer, got {value!r}")
        return replace(base, num_gfus=int(value))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def _analytic_columns(config: SystemConfig) -> tuple[float, float, float, str | None]:
    notes = []
    exact = highsnr = None
    try:
        exact = analytic.outage_probability(config)
    except (ValueError, ArithmeticError) as err:
        notes.append(f"exact: {err}")
    try:
        highsnr = analytic.outage_probability_highsnr(config)
    except (ValueError, ArithmeticError) as err:
        notes.append(f"highsnr: {err}")
    asymptote = analytic.outage_diversity_asymptote(config)
    return exact, highsnr, asymptote, "; ".join(notes) or None


def sweep(
    base_config: SystemConfig,
    axis: str,
    grid,
    trials: int,
    seed: int,
    schemes: tuple[Scheme, ...] = (Scheme.CR_RSMA_SGF, Scheme.CR_NOMA_SGF),
    gbu_to_gfu_power_ratio: float | None = None,
    workers: int | None = None,
) -> list[SweepRow]:
    """Run a one-axis parameter sweep, one row per (grid value, scheme).

    ``gbu_to_gfu_power_ratio`` ties the GFU power to the swept GBU power
    (linear ratio) so locked-ratio sweeps stay on a single axis. Rows share
    the seed, so schemes are compared on identical channel draws. Grid
    values that produce an invalid configuration yield an error row and the
    sweep continues. The analytic values are the rate-splitting scheme's;
    baseline rows leave them (and their error note) empty.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    schemes = tuple(Scheme(s) for s in schemes)
    workers = _resolve_workers(workers)

    configs: dict[int, SystemConfig] = {}
    errors: dict[int, str] = {}
    for i, value in enumerate(grid):
        try:
            configs[i] = _config_on_axis(base_config, axis, value, gbu_to_gfu_power_ratio)
        except (ValueError, TypeError) as err:
            errors[i] = str(err)
    # block-outer: each K's blocks are drawn once and shared by its grid points and schemes
    tallies: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in sorted({config.num_gfus for config in configs.values()}):
        points = [i for i, config in configs.items() if config.num_gfus == k]
        cases, gbu = _simulate([configs[i] for i in points], trials, seed, workers)
        tallies.update(zip(points, zip(cases, gbu)))

    rows: list[SweepRow] = []
    for i, value in enumerate(grid):
        config = configs.get(i)
        estimates = [(None, None)]
        if config is not None:
            estimates = [(s, _estimate(s, trials, seed, *tallies[i])) for s in schemes]
        for scheme, estimate in estimates:
            exact = highsnr = asymptote = None
            note = errors.get(i)
            # the analytic columns are the rate-splitting outage; the baseline's is not derived
            if scheme is Scheme.CR_RSMA_SGF:
                exact, highsnr, asymptote, note = _analytic_columns(config)
            rows.append(
                SweepRow(
                    axis=axis,
                    axis_value=float(value),
                    scheme=scheme,
                    config=config,
                    estimate=estimate,
                    analytic_exact=exact,
                    analytic_highsnr=highsnr,
                    analytic_asymptote=asymptote,
                    unresolved=estimate is not None and not estimate.statistically_resolved,
                    error=note,
                )
            )
    return rows
