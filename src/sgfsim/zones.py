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
from dataclasses import dataclass
from enum import Enum

__all__ = ["ZoneLabel", "RegionCorners", "region_corners", "classify_rate_pair", "classify_grid"]


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
    """
    # written so that NaN fails it too
    if not (0.0 <= p_gbu < math.inf and 0.0 <= p_gfu < math.inf):
        raise ValueError(f"received powers must be finite and >= 0, got {p_gbu!r}, {p_gfu!r}")
    return RegionCorners(
        gbu_alone=math.log2(1.0 + p_gbu),
        gfu_alone=math.log2(1.0 + p_gfu),
        gbu_decoded_first=math.log2(1.0 + p_gbu / (p_gfu + 1.0)),
        gfu_decoded_first=math.log2(1.0 + p_gfu / (p_gbu + 1.0)),
        sum_rate=math.log2(1.0 + p_gbu + p_gfu),
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
    rsma_ok = (
        target_gbu <= c.gbu_alone
        and target_gfu <= c.gfu_alone
        and target_gbu + target_gfu <= c.sum_rate
    )
    if gbu_first_ok and gfu_first_ok:
        return ZoneLabel.NOMA_EITHER
    if gbu_first_ok:
        return ZoneLabel.NOMA_GBU_FIRST
    if gfu_first_ok:
        return ZoneLabel.NOMA_GFU_FIRST
    if rsma_ok:
        return ZoneLabel.RSMA_ONLY
    return ZoneLabel.OUTAGE


def classify_grid(p_gbu: float, p_gfu: float, grid_n: int) -> list[tuple[float, float, ZoneLabel]]:
    """Classify a uniform grid_n x grid_n grid of target pairs.

    Grid points are i * sum_rate / grid_n for i = 1..grid_n on both axes, so
    the grid covers every region corner.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    corners = region_corners(p_gbu, p_gfu)
    step = corners.sum_rate / grid_n
    points = [step * (i + 1) for i in range(grid_n)]
    return [
        (t_gbu, t_gfu, _classify(corners, t_gbu, t_gfu))
        for t_gbu in points
        for t_gfu in points
    ]
