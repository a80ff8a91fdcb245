"""Admission and allocation protocol for the rate-splitting semi-grant-free uplink.

The base station broadcasts an interference threshold derived from the GBU's
received power; the strongest GFU is admitted and splits its signal into two
streams decoded around the GBU in the SIC chain. Depending on where the
threshold falls relative to the GFU gains, the block operates in one of three
regimes:

* Case I   - every GFU fits under the threshold at full power; the admitted
  user sends a single stream decoded last, interference-free.
* Case II  - the threshold is positive but below the strongest received GFU
  power; the power split is chosen so the second stream's interference hits
  the threshold exactly, and the user stays silent when even the optimal
  split cannot reach its target rate.
* Case III - the threshold is zero (the GBU is already failing on its own);
  the admitted user sends a single stream decoded first at full power.

In Cases I and II the threshold guarantees the GBU still reaches its target
rate, so across all cases its outage is exactly the orthogonal-access event.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .model import ChannelRealization, SystemConfig, _sic_sinrs, achievable_rates

__all__ = [
    "CaseLabel",
    "TransmissionOutcome",
    "evaluate_transmission",
    "gbu_oma_outage",
]


class CaseLabel(Enum):
    """Operating regime of one transmission block."""

    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"


# bound once: an attribute lookup on the Enum class costs more than the rest of a comparison
_CASE_I, _CASE_II, _CASE_III = CaseLabel.CASE_I, CaseLabel.CASE_II, CaseLabel.CASE_III


class TransmissionOutcome(NamedTuple):
    """Everything the protocol decides for one fading block."""

    case_label: CaseLabel
    tau_hat: float
    tau: float
    alpha: float
    beta: float
    rate_gbu: float
    rate_gfu_s1: float
    rate_gfu_s2: float
    rate_gfu_total: float
    gfu_silent: bool
    gbu_outage: bool
    gfu_outage: bool


def _check_gain_gbu(gain_gbu: float) -> None:
    # written so that NaN fails it too
    if not (0.0 <= gain_gbu):
        raise ValueError(f"gain_gbu must be >= 0, got {gain_gbu!r}")


def _decide(
    config: SystemConfig, realization: ChannelRealization
) -> tuple[CaseLabel, float, float, float]:
    """The checked decision of one block: its case, the received powers of the
    GBU and the strongest GFU, and tau_hat, from a record whose gains it checks.

    tau_hat is the largest residual interference under which the GBU still
    meets its target; the broadcast tau clips it at zero. tau == 0, the boundary
    tau_hat == 0 included, is Case III; a received GFU power equal to a
    positive tau is Case I.

    The admitted GFU's outage is defined by float comparisons of these powers,
    evaluated as written, which are those of ``montecarlo._outage_masks``: Case
    I ``p_best < eps_s``, Case II ``(1 + p_gbu) + p_best < case2_ceiling`` and
    Case III ``p_best < eps_s * (1 + p_gbu)``. Equality is success. The
    log2 rate against the target is the same test in real arithmetic only.
    """
    gain_gbu, gain_best = realization.gain_gbu, realization.gain_best
    _check_gain_gbu(gain_gbu)
    # written so that NaN fails it too
    if not (0.0 <= gain_best):
        raise ValueError(f"gain_best must be >= 0, got {gain_best!r}")
    p_gbu = config.power_gbu * gain_gbu
    p_best = config.power_gfu * gain_best
    tau_hat = p_gbu / config.eps0 - 1.0
    # the broadcast threshold max(0, tau_hat): tau_hat is never NaN or -0.0 here
    if tau_hat <= 0.0:
        return _CASE_III, p_gbu, p_best, tau_hat
    return (_CASE_I if p_best <= tau_hat else _CASE_II), p_gbu, p_best, tau_hat


def gbu_oma_outage(config: SystemConfig, gain_gbu: float) -> bool:
    """Would the GBU be in outage transmitting alone? Boundary counts as success."""
    _check_gain_gbu(gain_gbu)
    return gain_gbu < config.eta0


def evaluate_transmission(
    config: SystemConfig, realization: ChannelRealization
) -> TransmissionOutcome:
    """Run the full protocol on one fading block and report rates and outages.

    Cases I and III pin the split (alpha, beta) at (0, 0) and (1, 1). Case
    II's puts the second stream's interference at tau: 0 < tau < p_best keeps
    alpha in [0, 1], and beta, below zero where tau alone carries the target
    rate, is clamped at zero; outage decisions never consult the split.

    The outage flags are the threshold comparisons of ``_decide``; in Case II
    an outage is also the silence. The rates are log2 and are reported as
    computed, so a rate can sit on the other side of its target from its flag
    only within a few ulps of a threshold.
    """
    case, p_gbu, p_best, tau_hat = _decide(config, realization)
    gfu_silent = gbu_outage = False
    if case is _CASE_I:
        tau, alpha, beta = tau_hat, 0.0, 0.0
        gfu_outage = p_best < config.eps_s
    elif case is _CASE_II:
        tau, alpha = tau_hat, 1.0 - tau_hat / p_best
        beta = max(0.0, 1.0 - math.log2(1.0 + tau_hat) / config.target_rate_gfu)
        gfu_outage = gfu_silent = (1.0 + p_gbu) + p_best < config.case2_ceiling
    else:
        tau, alpha, beta = 0.0, 1.0, 1.0
        gfu_outage = p_best < config.eps_s * (1.0 + p_gbu)
        gbu_outage = gbu_oma_outage(config, realization.gain_gbu)
    # achievable_rates rejects the NaN SINR of an infinite gain
    rate_s1, rate_gbu, rate_s2 = achievable_rates(*_sic_sinrs(p_gbu, p_best, alpha))
    if gfu_silent:
        # admitted user backs off, the GBU transmits alone
        rate_gbu = math.log2(1.0 + p_gbu)

    return TransmissionOutcome(
        case, tau_hat, tau, alpha, beta, rate_gbu, rate_s1, rate_s2, rate_s1 + rate_s2,
        gfu_silent, gbu_outage, gfu_outage,
    )
