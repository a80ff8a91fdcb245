"""Comparison schemes for the same admission threshold.

The non-splitting baseline admits one GFU per block and decodes it in a
single SIC stage: either last (interference-free, allowed when its received
power fits under the threshold) or first (treating the GBU as noise). It
coincides with the rate-splitting scheme whenever the threshold is zero or
nobody exceeds it, and is strictly worse in between. Its outage is decided by
the threshold comparisons of the Monte Carlo kernel (:func:`cr_noma_outage`);
the rate :func:`cr_noma_rate` reports can sit on the other side of its target
from that flag within a few ulps of a threshold. The reference GBU
behaviour is plain orthogonal access, provided by
:func:`sgfsim.protocol.gbu_oma_outage`.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .model import ChannelRealization, SystemConfig
from .protocol import _CASE_I, _CASE_II, _CASE_III, _decide

__all__ = ["cr_noma_outage", "cr_noma_rate"]


def _decode_last(config: SystemConfig, gains: tuple[float, ...], tau: float) -> tuple[int, float]:
    """The 1-based ordered index and the received power of the strongest GFU
    received below ``tau``, the one Case II can decode last; (0, 0.0) if none is."""
    # the ascending gains put every received power below tau in a prefix
    below = bisect_left(gains, tau, key=config.power_gfu.__mul__)
    return below, config.power_gfu * gains[below - 1] if below else 0.0


def cr_noma_rate(
    config: SystemConfig, realization: ChannelRealization
) -> tuple[float, int]:
    """Achievable GFU rate of the non-splitting baseline for one block.

    Returns the rate and the 1-based ordered index of the admitted user.
    When k users sit below a positive threshold and at least one sits above,
    the scheme picks the better of admitting the k-th user (decoded last,
    its interference is within budget) or the strongest user (decoded
    first); ties go to the strongest user.
    """
    # the same three cases as the rate-splitting scheme
    case, p_gbu, p_best, tau_hat = _decide(config, realization)
    big_k = len(realization.gains_gfu)
    if case is _CASE_I:
        return math.log2(1.0 + p_best), big_k
    rate_decode_first = math.log2(1.0 + p_best / (p_gbu + 1.0))
    if case is _CASE_II:
        below, p_last = _decode_last(config, realization.gains_gfu, tau_hat)
        # with no user below tau, log2(1 + 0.0) = 0 never wins
        rate_decode_last = math.log2(1.0 + p_last)
        if rate_decode_last > rate_decode_first:
            return rate_decode_last, below
    return rate_decode_first, big_k


def cr_noma_outage(config: SystemConfig, realization: ChannelRealization) -> bool:
    """Is the non-splitting baseline's admitted GFU in outage on this block?

    The threshold comparisons of ``montecarlo._outage_masks``, in its operand
    order: Case I ``p_best < eps_s``, Case III ``p_best < eps_s * (1 + P0 g0)``,
    and Case II the same test as Case III with no GFU received in
    ``[eps_s, tau_hat)``, where it could be decoded last. Equality is success.
    """
    case, p_gbu, p_best, tau_hat = _decide(config, realization)
    if case is _CASE_I:
        return p_best < config.eps_s
    if p_best >= config.eps_s * (1.0 + p_gbu):
        return False
    if case is _CASE_III:
        return True
    # no user below tau_hat reads as power 0.0, under eps_s > 0
    return _decode_last(config, realization.gains_gfu, tau_hat)[1] < config.eps_s
