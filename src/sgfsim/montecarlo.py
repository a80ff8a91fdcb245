"""Deterministic, parallelizable Monte Carlo outage estimation.

Trials are partitioned into fixed blocks of 65536; block ``b`` draws from a
counter-based generator keyed by ``(seed, b)``, so trial ``i`` sees the same
gains no matter how many workers run or how the work is scheduled. Tallies
are integer rows per (block, config), each a pure function of (config, seed,
block); an estimate sums them, a pure function of (config, scheme, trials, seed).

One engine call runs every config of one or more sweeps, whatever their user
counts, and draws each block once, ``Kmax + 1`` columns wide. The sampler
fills the draw user by user, the GBU first, and sorts only the GBU column,
which it returns last, so block ``b``'s ``(n, K + 1)`` draw is bit for bit the
last ``K + 1`` columns of its widest draw, read in place: each K's estimates
are the same as if it had been drawn alone, and every K reads the same GBU
column.

The GBU gains arrive ascending, so the kernel's GBU-side rules cut row ranges
rather than masks (``_gbu_terms``): Case III, the GBU outage, the window where
a GFU may be decoded last, the rows where tau_hat < eps_s, on which the Case I
outage is Case I itself, and the rows past which rate splitting's Case II
outage cannot occur. Rows are independent and the GFU gains do not depend on
the GBU gain, so this order leaves the law of every tally unchanged. The
baseline's decode-last test reads the window's contiguous slices where its
candidate rows are dense and gathers them where they are sparse.

Each worker takes a contiguous chunk of blocks and allocates one workspace
for it: the widest draw, a row maximum per user count and the per-trial
scratch, reused by every block and config (a run's shorter last block gets
its own). Each per-trial term is one buffer of that workspace, written by one
stage: a user count's row maximum, the GBU-side terms, or one config's masks.
Each user count's GFU columns extend the next smaller count's, so its row
maximum extends that one by the columns it adds. The GBU-side terms of a
block depend only on (P0, eps0, eps_s), so they are computed once for all
configs sharing those, whatever their user counts.

Each worker draws the first block of its chunk itself. Each pass of its block
loop then hands the next block's draw to one helper thread, into the draw
buffer the current block does not use, works on the current block and takes
the drawn one; the generator fill, the exponential transform and the sort
release the interpreter lock. Every block is still drawn by the same function
from its own ``(seed, b)`` generator, so the tallies do not depend on where it
was drawn.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import analytic
from .model import SystemConfig, db_to_linear, sample_gain_matrix

__all__ = [
    "Scheme",
    "CaseTallies",
    "OutageEstimate",
    "SweepRequest",
    "SweepRow",
    "SWEEP_AXES",
    "evaluate_rsma_trials",
    "evaluate_noma_trials",
    "check_run",
    "check_request",
    "swept_keys",
    "estimate_outage",
    "sweep",
    "sweeps",
]

BLOCK_SIZE = 1 << 16
# below this many observed outages an estimate is flagged unresolved
MIN_RESOLVED_OUTAGES = 10


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


_FLOAT_SCRATCH = ("tau_hat", "interference", "first_floor", "best", "received")
_BOOL_SCRATCH = ("case2", "shared", "rsma_case2", "noma_case2", "low", "high")
# the decode-last test reads the window's contiguous slices when more than one
# row in this many is a candidate, and the gathered candidate rows otherwise:
# per config and 65,536-row block, the gathered rows cost less below about one
# candidate in eight, the slices above about two in five, and the two were
# within 10% of each other between (numpy 2.4, 2 vCPUs)
_SLICE_DENSITY = 4


class _RowCuts(NamedTuple):
    """The row ranges ``_gbu_terms`` cuts on a block sorted by GBU gain: Case III
    is rows ``[0, n3)``, the GBU outages ``[0, n_gbu)``, the window where some
    GFU may be decoded last ``[w0, n)``, tau_hat >= eps_s on ``[we, n)`` and
    the rate-splitting Case II outage possible on ``[0, wr)`` only."""

    n3: int
    n_gbu: int
    w0: int
    we: int
    wr: int


def _scratch(rows: int, counts) -> SimpleNamespace:
    """One buffer of ``rows`` per per-trial term: ``best_gain[k]``, the row
    maximum of user count ``k`` for each ``k`` in ``counts``, ascending, the
    terms ``_gbu_terms`` writes and those ``_outage_masks`` writes, each
    overwritten by the next block, GBU-side group or config."""
    return SimpleNamespace(
        best_gain={k: np.empty(rows) for k in sorted(counts)},
        **{name: np.empty(rows) for name in _FLOAT_SCRATCH},
        **{name: np.empty(rows, dtype=bool) for name in _BOOL_SCRATCH},
    )


def _gbu_terms(config: SystemConfig, gain_gbu: np.ndarray, s) -> _RowCuts:
    """The GBU side of the case partition and outage rules over ascending
    ``gain_gbu``, written into ``s``; returns the row ranges it cuts.

    These terms depend only on the GBU gain and (P0, eps0, eps_s), so every
    config sharing those three reads them: the admission threshold ``tau_hat``
    = P0 g0 / eps0 - 1, the ``interference`` 1 + P0 g0 and the least received
    GFU power decodable first ``first_floor`` = eps_s (1 + P0 g0). IEEE
    multiplication and division by a positive constant and addition of a
    constant are monotone, so each term never decreases along the rows, and
    each rule holds on a range found by bisection: Case III is tau_hat <= 0,
    the GBU outage g0 < eta0, the window tau_hat > eps_s and the rate-splitting
    Case II outage needs interference < case2_ceiling.
    """
    # in-place steps reuse the float buffers; each value is the same expression
    p0g0 = np.multiply(config.power_gbu, gain_gbu, out=s.interference)
    tau_hat = np.divide(p0g0, config.eps0, out=s.tau_hat)
    tau_hat -= 1.0
    interference = np.add(1.0, p0g0, out=p0g0)
    np.multiply(config.eps_s, interference, out=s.first_floor)
    return _RowCuts(
        int(np.searchsorted(tau_hat, 0.0, side="right")),
        int(np.searchsorted(gain_gbu, config.eta0)),
        int(np.searchsorted(tau_hat, config.eps_s, side="right")),
        int(np.searchsorted(tau_hat, config.eps_s)),
        int(np.searchsorted(interference, config.case2_ceiling)),
    )


def _outage_masks(config: SystemConfig, gains_gfu: np.ndarray, s, cuts: _RowCuts) -> None:
    """The case partition and the outage rules of both schemes, written into ``s``
    on the rows of a block sorted by GBU gain: ``shared``, the GFU outages both
    schemes share, on Case III's rows ``[0, n3)`` and on the rest ``[n3, n)``,
    where it is Case I's; on ``[n3, n)`` the Case II mask ``case2`` and the
    baseline's Case II GFU outages ``noma_case2``; and on ``[n3, wr)`` the
    rate-splitting Case II GFU outages ``rsma_case2``, which are none past ``wr``.

    ``s`` holds ``_gbu_terms`` for this config's (P0, eps0, eps_s), which cut
    the row ranges ``cuts``, and, in ``best_gain[K]``, the row maximum of
    ``gains_gfu``, the config's K GFU columns in any order. The outage tests
    compare received powers with thresholds written from the stored eps0 and
    eps_s, as the analytic integrals are; they are the one outage rule, which
    ``protocol.evaluate_transmission`` applies with the same float
    expressions, and match the rate-versus-target tests in real arithmetic
    only. The schemes share the admission window and the case partition and
    differ only in Case II.
    """
    ps, es = config.power_gfu, config.eps_s
    n3, w0, we, wr = cuts.n3, cuts.w0, cuts.we, cuts.wr
    best = np.multiply(ps, s.best_gain[config.num_gfus], out=s.best)
    # Case III decodes the admitted GFU first
    np.less(best[:n3], s.first_floor[:n3], out=s.shared[:n3])
    # Case I is best <= tau_hat; no NaN reaches the kernel, so Case II is its negation
    case2 = np.less(s.tau_hat[n3:], best[n3:], out=s.case2[n3:])
    # Case I decodes it interference-free, in outage iff best < eps_s: before we,
    # tau_hat < eps_s, so every Case I row is in outage; from we on, best < eps_s
    # puts the row in Case I
    np.logical_not(case2[: we - n3], out=s.shared[n3:we])
    np.less(best[we:], es, out=s.shared[we:])
    noma_case2 = np.less(best[n3:], s.first_floor[n3:], out=s.noma_case2[n3:])
    noma_case2 &= case2
    # past wr, interference + best >= interference >= case2_ceiling as best >= 0;
    # best is not read again, so its buffer takes interference + best
    split = np.add(s.interference[n3:wr], best[n3:wr], out=best[n3:wr])
    rsma_case2 = np.less(split, config.case2_ceiling, out=s.rsma_case2[n3:wr])
    rsma_case2 &= s.case2[n3:wr]
    # Without splitting, Case II may instead decode last a GFU under the threshold;
    # that works iff some GFU has received power in [eps_s, tau_hat), which is empty
    # outside the window. The strongest GFU is above the threshold, so it never
    # passes and column order is irrelevant.
    if config.num_gfus > 1:
        in_window = s.noma_case2[w0:]
        candidates = np.count_nonzero(in_window)
        if candidates:
            # the whole window, read in place, where candidates are dense, and the
            # gathered candidate rows elsewhere; the rest of the window is False
            if candidates * _SLICE_DENSITY > len(in_window):
                rows = slice(None)
            else:
                rows = np.flatnonzero(in_window)
            tau = s.tau_hat[w0:][rows]
            count = len(tau)
            # a view of the window or a copy of its candidates
            undecodable = in_window[rows]
            low, high = s.low[:count], s.high[:count]
            for j in range(gains_gfu.shape[1]):
                received = np.multiply(ps, gains_gfu[w0:, j][rows], out=s.received[:count])
                np.less(received, es, out=low)
                np.greater_equal(received, tau, out=high)
                low |= high
                undecodable &= low
            in_window[rows] = undecodable


def _evaluate_trials(
    config: SystemConfig, gain_gbu: np.ndarray, gains_gfu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised protocol of both schemes over many fading blocks: the block
    kernel on the rows sorted by GBU gain, its flags put back in the given order.

    ``gains_gfu`` columns may be in any order; its shape must be
    ``(len(gain_gbu), config.num_gfus)``. Returns (case index in {0,1,2}
    for Cases I/II/III, rate-splitting GFU outage flag, non-splitting GFU
    outage flag, GBU outage flag).
    """
    if gain_gbu.ndim != 1 or gains_gfu.shape != (len(gain_gbu), config.num_gfus):
        raise ValueError(
            f"gains_gfu of shape {gains_gfu.shape} does not match gain_gbu of shape "
            f"{gain_gbu.shape} and num_gfus = {config.num_gfus}"
        )
    order = np.argsort(gain_gbu)
    # gathered column by column, each column contiguous, as in the engine's blocks
    gains_gfu = gains_gfu.T.take(order, axis=1).T
    s = _scratch(len(order), (config.num_gfus,))
    cuts = _gbu_terms(config, gain_gbu[order], s)
    np.max(gains_gfu, axis=1, out=s.best_gain[config.num_gfus])
    _outage_masks(config, gains_gfu, s, cuts)
    # the Case II buffers hold nothing on Case III's rows, nor rsma_case2 past wr
    for case2_flags in (s.case2, s.rsma_case2, s.noma_case2):
        case2_flags[: cuts.n3] = False
    s.rsma_case2[cuts.wr :] = False
    rows = np.arange(len(order))
    case_idx = s.case2.view(np.int8) + 2 * (rows < cuts.n3).view(np.int8)
    flags = (case_idx, s.shared | s.rsma_case2, s.shared | s.noma_case2, rows < cuts.n_gbu)
    unsorted = tuple(np.empty_like(flag) for flag in flags)
    for out, flag in zip(unsorted, flags):
        out[order] = flag
    return unsorted


def evaluate_rsma_trials(
    config: SystemConfig, gain_gbu: np.ndarray, gains_gfu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised rate-splitting protocol over many fading blocks.

    Rows and ``gains_gfu`` columns may be in any order. Returns (case index in
    {0,1,2} for Cases I/II/III, GFU outage flag, GBU outage flag).
    """
    case_idx, rsma_out, _, gbu_out = _evaluate_trials(config, gain_gbu, gains_gfu)
    return case_idx, rsma_out, gbu_out


def evaluate_noma_trials(
    config: SystemConfig, gain_gbu: np.ndarray, gains_gfu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised non-splitting baseline over many fading blocks.

    Same admission window and case partition as the rate-splitting scheme;
    only the achievable rate in the middle case differs (best of one user
    decoded last or the strongest decoded first). Rows and ``gains_gfu``
    columns may be in any order. Returns (case index, GFU outage flag, GBU
    outage flag).
    """
    case_idx, _, noma_out, gbu_out = _evaluate_trials(config, gain_gbu, gains_gfu)
    return case_idx, noma_out, gbu_out


# One config's tallies on one block: an int64 row of the Case I/II/III occurrences,
# the GFU outages per case of rate splitting, then of the baseline, and the GBU outages
_OCCURRENCES, _GBU_OUTAGES, _COLUMNS = slice(0, 3), 9, 10
_GFU_OUTAGES = {Scheme.CR_RSMA_SGF: slice(3, 6), Scheme.CR_NOMA_SGF: slice(6, 9)}


def _block_generator(seed: int, block: int) -> np.random.Generator:
    key = (np.uint64(seed), np.uint64(block))
    return np.random.Generator(np.random.Philox(key=key))


def _run_block(configs, groups, gains: np.ndarray, s, tallies: np.ndarray) -> None:
    """Assign each config's row of ``tallies``, the block's (configs, _COLUMNS) slab,
    from one drawn block.

    ``gains`` holds the GBU's gains, ascending, in its last column and a
    config's K GFU columns just before it, each column contiguous; ``s`` has a
    row maximum buffer for every user count of ``configs``. ``groups`` lists the
    configs that share (P0, eps0, eps_s), whose GBU-side terms are computed once.
    """
    rows = len(gains)
    gain_gbu = gains[:, -1]
    gains_gfu = {k: gains[:, -1 - k : -1] for k in s.best_gain}
    # the user counts ascend and each K's columns extend the last K' < K's, so a
    # row maximum takes the one before it and the columns it adds
    below = 0
    for k, best_gain in s.best_gain.items():
        np.max(gains[:, -1 - k : -1 - below], axis=1, out=best_gain)
        if below:
            np.maximum(best_gain, s.best_gain[below], out=best_gain)
        below = k
    for members in groups:
        cuts = _gbu_terms(configs[members[0]], gain_gbu, s)
        n3 = cuts.n3
        for i in members:
            _outage_masks(configs[i], gains_gfu[configs[i].num_gfus], s, cuts)
            n2 = np.count_nonzero(s.case2[n3:])
            o1, o3 = np.count_nonzero(s.shared[n3:]), np.count_nonzero(s.shared[:n3])
            rsma = np.count_nonzero(s.rsma_case2[n3 : cuts.wr])
            noma = np.count_nonzero(s.noma_case2[n3:])
            tallies[i] = (rows - n2 - n3, n2, n3, o1, rsma, o3, o1, noma, o3, cuts.n_gbu)


def _run_blocks(configs, groups, trials: int, seed: int, blocks: range, tallies) -> None:
    """Assign the ``tallies`` rows of a contiguous run of blocks, on one workspace
    allocated here once: the widest draw, a row maximum per user count and the
    per-trial scratch. The first block is drawn here; each next one is drawn on a
    helper thread while the one before it is worked on."""
    counts = {c.num_gfus for c in configs}
    rows, cols = min(BLOCK_SIZE, trials), max(counts) + 1
    buffers = [np.empty(rows * cols) for _ in range(min(2, len(blocks)))]
    scratch = _scratch(rows, counts)

    def draw(i: int) -> np.ndarray:
        """Block ``blocks[i]``, each user count's draw its last columns."""
        block = blocks[i]
        n = min(BLOCK_SIZE, trials - block * BLOCK_SIZE)
        # the generator's (cols, n) order, so a partial block fills the leading slab
        out = buffers[i % len(buffers)][: n * cols].reshape(cols, n)
        return sample_gain_matrix(n, cols, _block_generator(seed, block), out=out)

    # the executor starts its thread on the first submit, so one block starts none
    with ThreadPoolExecutor(1, thread_name_prefix="sgfsim-draw") as helper:
        gains = draw(0)
        for i, block in enumerate(blocks):
            # block i + 1 fills the buffer that block i does not use; a draw that
            # raises raises at result()
            ahead = helper.submit(draw, i + 1) if i + 1 < len(blocks) else None
            if len(gains) < rows:
                scratch = _scratch(len(gains), counts)
            _run_block(configs, groups, gains, scratch, tallies[block])
            if ahead:
                gains = ahead.result()


def _simulate(configs: list[SystemConfig], trials: int, seed: int, workers: int) -> np.ndarray:
    """The int64 (blocks, configs, _COLUMNS) tallies over ``trials``: row ``[b, i]``
    is config ``i`` on block ``b`` alone. Configs may have any ``num_gfus``; each
    block is drawn once for all of them. Each worker assigns the rows of a
    contiguous chunk of the blocks, with a helper thread drawing ahead; a row
    depends only on (config, seed, block), not on ``workers`` or on where its
    block was drawn."""
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    shared: dict[tuple[float, float, float], list[int]] = {}
    for i, c in enumerate(configs):
        shared.setdefault((c.power_gbu, c.target_rate_gbu, c.target_rate_gfu), []).append(i)
    groups = list(shared.values())
    tallies = np.zeros((n_blocks, len(configs), _COLUMNS), dtype=np.int64)
    tasks = min(workers, n_blocks)
    bounds = [n_blocks * t // tasks for t in range(tasks + 1)]

    def run(t: int) -> None:
        blocks = range(bounds[t], bounds[t + 1])
        _run_blocks(configs, groups, trials, seed, blocks, tallies)

    if tasks > 1:
        with ThreadPoolExecutor(max_workers=tasks) as pool:
            list(pool.map(run, range(tasks)))
    else:
        run(0)
    return tallies


def check_run(trials: int, seed: int, workers: int) -> None:
    """Reject run arguments the engine cannot honour: a trial or worker count that
    is not an integer >= 1, or a seed that is not an integer in [0, 2**64), the
    Philox key range (a seed outside it would alias one inside)."""
    for name, value, low, high, bounds in (
        ("trials", trials, 1, math.inf, ">= 1"),
        ("seed", seed, 0, 2**64, "in [0, 2**64)"),
        ("workers", workers, 1, math.inf, ">= 1"),
    ):
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (integer and low <= value < high):
            raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _std_err(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def _estimate(scheme: Scheme, trials: int, seed: int, tally: np.ndarray) -> OutageEstimate:
    """The estimate of one config's ``tally``, its rows summed over all blocks."""
    occurrences, outages = tally[_OCCURRENCES], tally[_GFU_OUTAGES[scheme]]
    gfu_prob = int(outages.sum()) / trials
    gbu_prob = int(tally[_GBU_OUTAGES]) / trials
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
    workers: int = 1,
) -> OutageEstimate:
    """Estimate GFU and GBU outage probabilities over seeded fading blocks.

    Bit-identical output for identical (config, scheme, trials, seed),
    independent of ``workers``.
    """
    scheme = Scheme(scheme)
    check_run(trials, seed, workers)
    tally = _simulate([config], trials, seed, workers).sum(axis=0)[0]
    return _estimate(scheme, trials, seed, tally)


SWEEP_AXES = ("gbu_power_db", "gfu_power_db", "target_rate", "num_gfus")


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: estimate plus the rate-splitting scheme's
    analytic values, which are ``None`` on baseline rows."""

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
    # num_gfus, the last of SWEEP_AXES; sweeps checks the axis before any config
    if not value.is_integer():
        raise ValueError(f"num_gfus must be an integer, got {value!r}")
    return replace(base, num_gfus=int(value))


def swept_keys(axis: str, gbu_to_gfu_power_ratio: float | None) -> tuple[str, ...]:
    """The ``SystemConfig.from_db`` keys that ``_config_on_axis`` sets at every point."""
    if gbu_to_gfu_power_ratio is not None:
        return (axis, "gfu_power_db")
    return {"target_rate": ("target_rate_gbu", "target_rate_gfu")}.get(axis, (axis,))


def _analytic_columns(
    config: SystemConfig, scheme: Scheme
) -> tuple[float | None, float | None, float | None, str | None]:
    """A row's exact, high-SNR and asymptote cells and its note. They are the
    rate-splitting outage; the baseline's is not derived, so its rows have none.
    A column that raises a range error is ``None`` and named, with its error,
    in the note."""
    if scheme is not Scheme.CR_RSMA_SGF:
        return None, None, None, None
    values, notes = [], []
    for label, column in (
        ("exact", analytic.outage_probability),
        ("highsnr", analytic.outage_probability_highsnr),
        ("asymptote", analytic.outage_diversity_asymptote),
    ):
        try:
            values.append(column(config))
        except (ValueError, ArithmeticError) as err:
            values.append(None)
            notes.append(f"{label}: {err}")
    return (*values, "; ".join(notes) or None)


class SweepRequest(NamedTuple):
    """One one-axis sweep of a ``sweeps`` call: the arguments of ``sweep`` that
    are not shared by the whole call."""

    base_config: SystemConfig
    axis: str
    grid: tuple[float, ...]
    schemes: tuple[Scheme, ...] = (Scheme.CR_RSMA_SGF, Scheme.CR_NOMA_SGF)
    gbu_to_gfu_power_ratio: float | None = None


def _grid_value(value) -> float:
    """A grid value as the float every axis reads, or ``ValueError`` if it is not
    a real number (``bool`` included) or lies past the float range."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"sweep grid values must be real numbers a float holds, got {value!r}")


def check_request(request) -> SweepRequest:
    """``request`` as a ``SweepRequest`` with a grid of floats and ``Scheme``
    schemes, or ``ValueError`` if it has no grid point or scheme, a scheme listed
    twice, a grid value that is not a real number, an unknown axis, or a ratio
    that is not finite and > 0 or is given on an axis other than the GBU power."""
    base, axis, grid, schemes, ratio = request
    grid = tuple(map(_grid_value, grid))
    request = SweepRequest(base, axis, grid, tuple(map(Scheme, schemes)), ratio)
    if not request.grid:
        raise ValueError("sweep grid must be nonempty")
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not request.schemes:
        raise ValueError("sweep schemes must be nonempty")
    if len(set(request.schemes)) < len(request.schemes):
        raise ValueError("sweep schemes must be distinct")
    # written so that NaN fails it too
    if ratio is not None and not 0.0 < ratio < math.inf:
        raise ValueError(f"gbu_to_gfu_power_ratio must be finite and > 0, got {ratio!r}")
    if ratio is not None and axis != "gbu_power_db":
        raise ValueError(f"gbu_to_gfu_power_ratio applies to gbu_power_db sweeps, not {axis}")
    return request


def sweeps(requests, trials: int, seed: int, workers: int = 1) -> list[list[SweepRow]]:
    """Run several ``SweepRequest`` sweeps on one engine pass; one row list per request.

    Every config of every request, whatever its user count, reads the same
    blocks, each drawn once. The rows are those ``sweep`` returns for each
    request alone: an estimate depends only on (config, scheme, trials, seed).
    The run arguments and every request are checked before any block is drawn.
    """
    check_run(trials, seed, workers)
    requests = [check_request(request) for request in requests]

    # every grid point in request order: (request index, value, config or the
    # message of the error that stopped it)
    points = []
    for r, (base, axis, grid, _, ratio) in enumerate(requests):
        for value in grid:
            try:
                points.append((r, value, _config_on_axis(base, axis, value, ratio)))
            except ValueError as err:
                points.append((r, value, str(err)))
    configs = [config for *_, config in points if isinstance(config, SystemConfig)]
    tallies = iter(_simulate(configs, trials, seed, workers).sum(axis=0) if configs else ())

    results: list[list[SweepRow]] = [[] for _ in requests]
    for r, value, config in points:
        if isinstance(config, str):
            # an error row: no scheme, config, estimate or analytic cell
            results[r].append(SweepRow(value, None, None, None, None, None, None, False, config))
            continue
        tally = next(tallies)
        for scheme in requests[r].schemes:
            estimate = _estimate(scheme, trials, seed, tally)
            exact, highsnr, asymptote, note = _analytic_columns(config, scheme)
            unresolved = not estimate.statistically_resolved
            results[r].append(
                SweepRow(value, scheme, config, estimate, exact, highsnr, asymptote, unresolved, note)
            )
    return results


def sweep(
    base_config: SystemConfig,
    axis: str,
    grid,
    trials: int,
    seed: int,
    schemes: tuple[Scheme, ...] = (Scheme.CR_RSMA_SGF, Scheme.CR_NOMA_SGF),
    gbu_to_gfu_power_ratio: float | None = None,
    workers: int = 1,
) -> list[SweepRow]:
    """Run a one-axis parameter sweep, one row per (grid value, scheme).

    ``gbu_to_gfu_power_ratio`` ties the GFU power to the swept GBU power
    (linear ratio) so locked-ratio sweeps stay on a single axis; on another axis
    it is an error. Rows share the seed, so schemes are compared on identical
    channel draws. A grid value that is not a real number raises ``ValueError``
    before any block is drawn; one that produces an invalid configuration
    yields an error row and the sweep continues. The analytic values are the
    rate-splitting scheme's; baseline rows leave them (and their error note)
    empty. This is the one-request case of ``sweeps``.
    """
    request = SweepRequest(base_config, axis, grid, schemes, gbu_to_gfu_power_ratio)
    return sweeps([request], trials, seed, workers)[0]
