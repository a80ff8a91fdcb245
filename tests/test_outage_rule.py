"""The scalar protocol, the scalar baseline and the Monte Carlo kernel decide
outages by one rule.

Each block puts a GFU gain a few ulps from the gain at which its received
power meets one of the five thresholds, where the log2 rate form of the rule
and the threshold form can round apart.
"""

import hashlib
import math
from itertools import chain

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgfsim.baselines import cr_noma_outage
from sgfsim.model import ChannelRealization, SystemConfig
from sgfsim.montecarlo import evaluate_noma_trials, evaluate_rsma_trials
from sgfsim.protocol import CaseLabel, evaluate_transmission

CASE_INDEX = {CaseLabel.CASE_I: 0, CaseLabel.CASE_II: 1, CaseLabel.CASE_III: 2}
# the thresholds on the strongest received GFU power: the admission threshold tau_hat,
# eps_s (Case I), eps_s (1 + P0 g0) (Case III) and (1 + eps0)(1 + eps_s) - 1 - P0 g0 (Case II);
# and decode_last, eps_s on the second strongest in the baseline's Case II
THRESHOLDS = ("tau_hat", "eps_s", "first_floor", "case2_ceiling", "decode_last")
# repr of the rate-splitting flags of every boundary block of the first four thresholds;
# pinned when the scalar path took the kernel's rule
BOUNDARY_FLAGS_SHA256 = "eadf39fa59e651b6bebec83cd66db8de7bd673862200a0d0b52ef53b0045499a"
# repr of the baseline flags of every boundary block, decode_last's included
BASELINE_FLAGS_SHA256 = "d54ecd8ddadf0ab4076cddf69a735e4395811c83535a0676f5a9528443e7aa9d"


def boundary_block(cfg, threshold, u, ulps, weaker):
    """A block whose strongest GFU gain (the second strongest at decode_last,
    which needs K >= 2) is ``ulps`` ulps (signed) from the gain ``threshold / Ps``.
    ``u`` in (0, 1) places the GBU gain where the threshold decides something:
    the case at tau_hat, else the outage of the case that reads it. ``weaker``
    scales that gain into the weaker gains."""
    es = cfg.eps_s
    scale = {
        "tau_hat": 1.0 + 4.0 * es * u,  # tau_hat > 0: Case I or II
        "eps_s": (1.0 + es) * (1.0 + 3.0 * u),  # tau_hat > eps_s: Case I at eps_s
        "first_floor": u,  # tau_hat < 0: Case III
        "case2_ceiling": 1.0 + es * u,  # 0 < tau_hat < eps_s: Case II below the ceiling
        "decode_last": (1.0 + es) * (1.0 + u * es * cfg.eps0),  # eps_s < tau_hat < first_floor
    }[threshold]
    gain_gbu = cfg.eta0 * scale
    p_gbu = cfg.power_gbu * gain_gbu
    tau_hat, first_floor = p_gbu / cfg.eps0 - 1.0, es * (1.0 + p_gbu)
    power = {
        "tau_hat": tau_hat,
        "eps_s": es,
        "first_floor": first_floor,
        "case2_ceiling": cfg.case2_ceiling - (1.0 + p_gbu),
        "decode_last": es,
    }[threshold]
    gain = power / cfg.power_gfu
    for _ in range(abs(ulps)):
        gain = math.nextafter(gain, math.copysign(math.inf, ulps))
    # at decode_last the strongest GFU, in Case II, can be decoded neither first nor last
    strongest = ()
    if threshold == "decode_last":
        strongest = ((tau_hat + first_floor) / 2.0 / cfg.power_gfu,)
    gains = sorted(gain * w for w in weaker[: cfg.num_gfus - 1 - len(strongest)])
    return ChannelRealization(gain_gbu, (*gains, gain, *strongest))


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


def baseline_kernel_flags(cfg, blocks):
    """The baseline's GFU outage flag of each block by the kernel."""
    gain_gbu = np.array([b.gain_gbu for b in blocks])
    gains_gfu = np.array([b.gains_gfu for b in blocks])
    return [bool(out) for out in evaluate_noma_trials(cfg, gain_gbu, gains_gfu)[1]]


def seeded_blocks(seed, thresholds, min_gfus):
    """(config, threshold, blocks) of 150 seeded configs of ``min_gfus``..8 GFUs,
    each threshold at one seeded GBU placement and -4..4 ulps."""
    rng = np.random.default_rng(seed)
    for _ in range(150):
        num_gfus = int(rng.integers(min_gfus, 9))
        powers_db, rates = rng.uniform(0.0, 30.0, 2).tolist(), rng.uniform(0.5, 3.0, 2).tolist()
        cfg = SystemConfig.from_db(num_gfus, *powers_db, *rates)
        weaker = rng.uniform(0.0, 1.0, 7).tolist()
        for threshold in thresholds:
            u = float(rng.uniform(0.01, 0.99))
            blocks = [boundary_block(cfg, threshold, u, ulps, weaker) for ulps in range(-4, 5)]
            yield cfg, threshold, blocks


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
    assume(threshold != "decode_last" or num_gfus >= 2)
    cfg = SystemConfig.from_db(num_gfus, *powers_db, *rates)
    block = boundary_block(cfg, threshold, u, ulps, weaker)
    assert [scalar_flags(cfg, block)] == kernel_flags(cfg, [block])
    assert [cr_noma_outage(cfg, block)] == baseline_kernel_flags(cfg, [block])


def test_seeded_boundary_set_is_pinned():
    # the flag each threshold decides must take both values, so that agreement is
    # not vacuous; decode_last has configs of its own, so the others keep theirs
    decided = {name: set() for name in THRESHOLDS}
    digest, baseline_digest = hashlib.sha256(), hashlib.sha256()
    for cfg, threshold, blocks in chain(
        seeded_blocks(2021, THRESHOLDS[:-1], 1), seeded_blocks(2022, ("decode_last",), 2)
    ):
        flags = [scalar_flags(cfg, block) for block in blocks]
        assert flags == kernel_flags(cfg, blocks), (cfg, threshold)
        baseline = [cr_noma_outage(cfg, block) for block in blocks]
        assert baseline == baseline_kernel_flags(cfg, blocks), (cfg, threshold)
        if threshold != "decode_last":
            digest.update(repr(flags).encode())
        baseline_digest.update(repr(baseline).encode())
        for (case, gfu_outage, silent, _), noma in zip(flags, baseline):
            decided[threshold].add(
                {"tau_hat": case == 0, "case2_ceiling": silent, "decode_last": noma}.get(
                    threshold, gfu_outage
                )
            )
    assert decided == {name: {False, True} for name in THRESHOLDS}
    assert digest.hexdigest() == BOUNDARY_FLAGS_SHA256
    assert baseline_digest.hexdigest() == BASELINE_FLAGS_SHA256
