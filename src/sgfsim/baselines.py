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
from .protocol import _CASE_I, _CASE_III, _check_gain_gbu, _decide

__all__ = ["cr_noma_outage", "cr_noma_rate"]


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
    gain_gbu = realization.gain_gbu
    _check_gain_gbu(gain_gbu)
    p0g0 = config.power_gbu * gain_gbu
    best = config.power_gfu * realization.gain_best
    gains = realization.gains_gfu
    big_k = len(gains)
    # the same three cases as the rate-splitting scheme
    case, _, tau, _, _ = _decide(config, p0g0, best)

    rate_decode_first = math.log2(1.0 + best / (p0g0 + 1.0))
    if case is _CASE_III:
        return rate_decode_first, big_k
    if case is _CASE_I:
        return math.log2(1.0 + best), big_k

    # the ascending gains put every received power below tau in a prefix
    below = bisect_left(gains, tau, key=config.power_gfu.__mul__)
    if below == 0:
        return rate_decode_first, big_k
    rate_decode_last = math.log2(1.0 + config.power_gfu * gains[below - 1])
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
    gain_gbu = realization.gain_gbu
    _check_gain_gbu(gain_gbu)
    p0g0 = config.power_gbu * gain_gbu
    best = config.power_gfu * realization.gain_best
    case, _, tau, _, _ = _decide(config, p0g0, best)
    if case is _CASE_I:
        return best < config.eps_s
    if best >= config.eps_s * (1.0 + p0g0):
        return False
    if case is _CASE_III:
        return True
    # the strongest received power below tau is the one to decode last, if any is
    gains = realization.gains_gfu
    below = bisect_left(gains, tau, key=config.power_gfu.__mul__)
    return below == 0 or config.power_gfu * gains[below - 1] < config.eps_s
