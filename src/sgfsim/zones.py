"""Instantaneous two-user capacity-region geometry.

For fixed received powers, a target-rate pair is supportable by the
single-stage SIC baseline only inside one of two rectangles (one per decode
order), while rate-splitting reaches the whole pentagon bounded by the two
single-user rates and the sum rate. The difference is a triangle on the
sum-rate face that only rate-splitting covers. This module classifies
target pairs against those regions; it is deterministic geometry,
independent of fading statistics and of the silence rule.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ZoneLabel", "RegionCorners", "region_corners", "classify_rate_pair", "classify_grid", "grid_runs"
]


class ZoneLabel(Enum):
    """Feasibility class of a target-rate pair (GBU target, GFU target)."""

    NOMA_GBU_FIRST = "noma-gbu-decoded-first"
    NOMA_GFU_FIRST = "noma-gfu-decoded-first"
    NOMA_EITHER = "noma-either-order"
    RSMA_ONLY = "rsma-only"
    OUTAGE = "outage"


@dataclass(frozen=True)
class RegionCorners:
    """Characteristic rates of the two-user region at fixed received powers."""

    gbu_alone: float
    gfu_alone: float
    gbu_decoded_first: float
    gfu_decoded_first: float
    sum_rate: float


def region_corners(p_gbu: float, p_gfu: float) -> RegionCorners:
    """Corner rates for received powers ``p_gbu`` and ``p_gfu`` (linear).

    The sum rate equals gbu_decoded_first + gfu_alone and equally
    gbu_alone + gfu_decoded_first: decoding order trades the same total.
    Powers whose sum overflows a double have no finite sum rate and are rejected.
    """
    # written so that NaN fails it too
    if not (0.0 <= p_gbu < math.inf and 0.0 <= p_gfu < math.inf):
        raise ValueError(f"received powers must be finite and >= 0, got {p_gbu!r}, {p_gfu!r}")
    sum_rate = math.log2(1.0 + p_gbu + p_gfu)
    if not sum_rate < math.inf:
        raise ValueError(
            f"received powers {p_gbu!r}, {p_gfu!r} give sum rate {sum_rate!r}: their sum overflows"
        )
    return RegionCorners(
        gbu_alone=math.log2(1.0 + p_gbu),
        gfu_alone=math.log2(1.0 + p_gfu),
        gbu_decoded_first=math.log2(1.0 + p_gbu / (p_gfu + 1.0)),
        gfu_decoded_first=math.log2(1.0 + p_gfu / (p_gbu + 1.0)),
        sum_rate=sum_rate,
    )


def classify_rate_pair(
    p_gbu: float, p_gfu: float, target_gbu: float, target_gfu: float
) -> ZoneLabel:
    """Classify a target-rate pair against the baseline and rate-split regions.

    Boundaries are inclusive: a target exactly on a region edge is feasible.
    """
    return _classify(region_corners(p_gbu, p_gfu), target_gbu, target_gfu)


def _classify(c: RegionCorners, target_gbu: float, target_gfu: float) -> ZoneLabel:
    # written so that NaN fails it too
    if not (0.0 < target_gbu and 0.0 < target_gfu):
        raise ValueError(f"target rates must be > 0, got {target_gbu!r}, {target_gfu!r}")
    gbu_first_ok = target_gbu <= c.gbu_decoded_first and target_gfu <= c.gfu_alone
    gfu_first_ok = target_gbu <= c.gbu_alone and target_gfu <= c.gfu_decoded_first
    # the baseline's orders come first
    if gbu_first_ok and gfu_first_ok:
        return ZoneLabel.NOMA_EITHER
    if gbu_first_ok:
        return ZoneLabel.NOMA_GBU_FIRST
    if gfu_first_ok:
        return ZoneLabel.NOMA_GFU_FIRST
    alone_ok = target_gbu <= c.gbu_alone and target_gfu <= c.gfu_alone
    if alone_ok and target_gbu + target_gfu <= c.sum_rate:
        return ZoneLabel.RSMA_ONLY
    return ZoneLabel.OUTAGE


def classify_grid(p_gbu: float, p_gfu: float, grid_n: int) -> list[tuple[float, float, ZoneLabel]]:
    """The cells ``(t_gbu, t_gfu, label)`` of ``grid_runs``, GBU target outer: those
    ``classify_rate_pair`` gives pair by pair."""
    points, runs = grid_runs(p_gbu, p_gfu, grid_n)
    return [(t_gbu, t_gfu, label) for t_gbu, start, end, label in runs
            for t_gfu in points[start:end]]


def grid_runs(
    p_gbu: float, p_gfu: float, grid_n: int
) -> tuple[list[float], list[tuple[float, int, int, ZoneLabel]]]:
    """The grid points and the label runs of a uniform grid_n x grid_n grid.

    Grid points are i * sum_rate / grid_n for i = 1..grid_n on both axes, so
    the grid covers every region corner. A run ``(t_gbu, start, end, label)``
    says that the GFU targets ``points[start:end]`` of row ``t_gbu`` all take
    ``label``. Rows come in ascending order, each tiled by its runs in order.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    c = region_corners(p_gbu, p_gfu)
    step = c.sum_rate / grid_n
    if not step > 0.0:
        raise ValueError(
            f"received powers {p_gbu!r}, {p_gfu!r} give sum rate {c.sum_rate!r}: "
            "the grid needs a positive sum rate"
        )
    points = [step * (i + 1) for i in range(grid_n)]
    # Along a row the GFU targets ascend, so each GFU-side test of _classify holds
    # on a prefix of them: the row is at most four runs, each of which takes the
    # label of its first cell. The same float comparisons find where each prefix ends.
    gfu_alone_end = bisect_right(points, c.gfu_alone)
    gfu_first_end = bisect_right(points, c.gfu_decoded_first)
    runs: list[tuple[float, int, int, ZoneLabel]] = []
    for t_gbu in points:
        # float addition is monotone, so t_gbu + t_gfu <= sum_rate holds on a prefix too
        sum_end = bisect_right(points, c.sum_rate, key=t_gbu.__add__)
        cuts = sorted({0, gfu_alone_end, gfu_first_end, sum_end, grid_n})
        for start, end in zip(cuts, cuts[1:]):
            runs.append((t_gbu, start, end, _classify(c, t_gbu, points[start])))
    return points, runs
