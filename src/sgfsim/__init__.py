"""Simulator and analytic library for rate-splitting semi-grant-free uplink.

A grant-based user and K contending grant-free users share one resource
block; the strongest grant-free user is admitted under a cognitive-radio
interference threshold and splits its signal across two SIC stages. The
package provides the per-block protocol, a Gauss-Legendre outage evaluator
for every K beside the paper's series and high-SNR expressions, a
deterministic parallel Monte Carlo estimator, a non-splitting baseline, and
capacity-region zone classification, all driven by a CSV-emitting experiment
CLI.
"""

from .analytic import (
    ConditioningWarning,
    NumericalRangeError,
    OutageBreakdown,
    nu_kernel,
    outage_diversity_asymptote,
    outage_exact,
    outage_quadrature,
    outage_probability,
    outage_probability_highsnr,
)
from .baselines import cr_noma_outage, cr_noma_rate
from .model import (
    ChannelRealization,
    SystemConfig,
    achievable_rates,
    db_to_linear,
    linear_to_db,
    sample_channel_realization,
    sinr_triplet,
)
from .montecarlo import (
    CaseTallies,
    OutageEstimate,
    Scheme,
    SweepRequest,
    SweepRow,
    estimate_outage,
    sweep,
    sweeps,
)
from .protocol import (
    CaseLabel,
    TransmissionOutcome,
    evaluate_transmission,
    gbu_oma_outage,
)
from .zones import RegionCorners, ZoneLabel, classify_rate_pair, region_corners

__version__ = "0.1.0"

__all__ = [
    "CaseLabel",
    "CaseTallies",
    "ChannelRealization",
    "ConditioningWarning",
    "NumericalRangeError",
    "OutageBreakdown",
    "OutageEstimate",
    "RegionCorners",
    "Scheme",
    "SweepRequest",
    "SweepRow",
    "SystemConfig",
    "TransmissionOutcome",
    "ZoneLabel",
    "achievable_rates",
    "classify_rate_pair",
    "cr_noma_outage",
    "cr_noma_rate",
    "db_to_linear",
    "estimate_outage",
    "evaluate_transmission",
    "gbu_oma_outage",
    "linear_to_db",
    "nu_kernel",
    "outage_diversity_asymptote",
    "outage_exact",
    "outage_quadrature",
    "outage_probability",
    "outage_probability_highsnr",
    "region_corners",
    "sample_channel_realization",
    "sinr_triplet",
    "sweep",
    "sweeps",
]
