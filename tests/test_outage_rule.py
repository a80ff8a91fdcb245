"""The scalar protocol and the Monte Carlo kernel decide outages by one rule.

Each block puts the strongest GFU gain a few ulps from the gain at which its
received power meets one of the four thresholds, where the log2 rate form of
the rule and the threshold form can round apart.
"""

import hashlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfsim.model import ChannelRealization, SystemConfig
from sgfsim.montecarlo import evaluate_rsma_trials
from sgfsim.protocol import CaseLabel, evaluate_transmission

CASE_INDEX = {CaseLabel.CASE_I: 0, CaseLabel.CASE_II: 1, CaseLabel.CASE_III: 2}
# the thresholds on the strongest received GFU power: the admission threshold tau_hat,
# eps_s (Case I), eps_s (1 + P0 g0) (Case III) and (1 + eps0)(1 + eps_s) - 1 - P0 g0 (Case II)
THRESHOLDS = ("tau_hat", "eps_s", "first_floor", "case2_ceiling")
# repr of every boundary block's flags; pinned when the scalar path took the kernel's rule
BOUNDARY_FLAGS_SHA256 = "eadf39fa59e651b6bebec83cd66db8de7bd673862200a0d0b52ef53b0045499a"


def boundary_block(cfg, threshold, u, ulps, weaker):
    """A block whose strongest GFU gain is ``ulps`` ulps (signed) from the gain
    ``threshold / Ps``. ``u`` in (0, 1) places the GBU gain where the threshold
    decides something: the case at tau_hat, else the outage of the case that
    reads it. ``weaker`` scales the best gain into the other K - 1 gains."""
    es = cfg.eps_s
    scale = {
        "tau_hat": 1.0 + 4.0 * es * u,  # tau_hat > 0: Case I or II
        "eps_s": (1.0 + es) * (1.0 + 3.0 * u),  # tau_hat > eps_s: Case I at eps_s
        "first_floor": u,  # tau_hat < 0: Case III
        "case2_ceiling": 1.0 + es * u,  # 0 < tau_hat < eps_s: Case II below the ceiling
    }[threshold]
    gain_gbu = cfg.eta0 * scale
    p_gbu = cfg.power_gbu * gain_gbu
    power = {
        "tau_hat": p_gbu / cfg.eps0 - 1.0,
        "eps_s": es,
        "first_floor": es * (1.0 + p_gbu),
        "case2_ceiling": cfg.case2_ceiling - (1.0 + p_gbu),
    }[threshold]
    best = power / cfg.power_gfu
    for _ in range(abs(ulps)):
        best = math.nextafter(best, math.copysign(math.inf, ulps))
    gains = sorted(best * w for w in weaker[: cfg.num_gfus - 1])
    return ChannelRealization(gain_gbu, (*gains, best))


def scalar_flags(cfg, block):
    out = evaluate_transmission(cfg, block)
    return CASE_INDEX[out.case_label], out.gfu_outage, out.gfu_silent, out.gbu_outage


def kernel_flags(cfg, blocks):
    """(case index, GFU outage, GFU silent, GBU outage) of each block by the kernel;
    the kernel's silence is a Case II outage."""
    gain_gbu = np.array([b.gain_gbu for b in blocks])
    gains_gfu = np.array([b.gains_gfu for b in blocks])
    case_idx, gfu_out, gbu_out = evaluate_rsma_trials(cfg, gain_gbu, gains_gfu)
    return [
        (int(case), bool(out), bool(out and case == 1), bool(gbu))
        for case, out, gbu in zip(case_idx, gfu_out, gbu_out)
    ]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    num_gfus=st.integers(1, 8),
    powers_db=st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)),
    rates=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
    threshold=st.sampled_from(THRESHOLDS),
    u=st.floats(0.01, 0.99),
    ulps=st.integers(-4, 4),
    weaker=st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7),
)
def test_scalar_flags_are_the_kernels_at_each_threshold(
    num_gfus, powers_db, rates, threshold, u, ulps, weaker
):
    cfg = SystemConfig.from_db(num_gfus, *powers_db, *rates)
    block = boundary_block(cfg, threshold, u, ulps, weaker)
    assert [scalar_flags(cfg, block)] == kernel_flags(cfg, [block])


def test_seeded_boundary_set_is_pinned():
    # 150 seeded configs, each threshold at -4..4 ulps; the flag each threshold
    # decides must take both values, so that agreement is not vacuous
    rng = np.random.default_rng(2021)
    decided = {name: set() for name in THRESHOLDS}
    digest = hashlib.sha256()
    for _ in range(150):
        num_gfus = int(rng.integers(1, 9))
        powers_db, rates = rng.uniform(0.0, 30.0, 2).tolist(), rng.uniform(0.5, 3.0, 2).tolist()
        cfg = SystemConfig.from_db(num_gfus, *powers_db, *rates)
        weaker = rng.uniform(0.0, 1.0, 7).tolist()
        for threshold in THRESHOLDS:
            u = float(rng.uniform(0.01, 0.99))
            blocks = [boundary_block(cfg, threshold, u, ulps, weaker) for ulps in range(-4, 5)]
            flags = [scalar_flags(cfg, block) for block in blocks]
            assert flags == kernel_flags(cfg, blocks), (cfg, threshold, u)
            digest.update(repr(flags).encode())
            for case, gfu_outage, silent, _ in flags:
                decided[threshold].add(
                    {"tau_hat": case == 0, "case2_ceiling": silent}.get(threshold, gfu_outage)
                )
    assert decided == {name: {False, True} for name in THRESHOLDS}
    assert digest.hexdigest() == BOUNDARY_FLAGS_SHA256
