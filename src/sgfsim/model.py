"""Core system model for semi-grant-free uplink groups.

One grant-based user (GBU) and K grant-free users (GFUs) share a resource
block. Channels are quasi-static Rayleigh: every power gain is a unit-mean
exponential variate. A ``ChannelRealization`` (the scalar path) keeps the GFU
gains in ascending order, so the admitted user is the last index; the Monte
Carlo blocks leave ``sample_gain_matrix`` rows unsorted and take the row
maximum. Noise variance is normalised to 1, so ``power_gbu`` / ``power_gfu``
are transmit SNRs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemConfig",
    "ChannelRealization",
    "db_to_linear",
    "linear_to_db",
    "sample_gain_matrix",
    "sample_channel_realization",
    "sinr_triplet",
    "achievable_rates",
]


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    if value <= 0.0:
        raise ValueError(f"dB conversion requires a positive value, got {value!r}")
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one group: user count, transmit SNRs, target rates.

    The derived thresholds (``eps0``, ``eps_s``, ``eta0``, ``eta_s``) are
    recomputed from the primary fields on every access so they can never
    drift out of sync.
    """

    num_gfus: int
    power_gbu: float
    power_gfu: float
    target_rate_gbu: float
    target_rate_gfu: float

    def __post_init__(self) -> None:
        if not isinstance(self.num_gfus, int) or isinstance(self.num_gfus, bool):
            raise ValueError(f"num_gfus must be an integer, got {self.num_gfus!r}")
        if self.num_gfus < 1:
            raise ValueError(f"num_gfus must be >= 1, got {self.num_gfus}")
        for name in ("power_gbu", "power_gfu", "target_rate_gbu", "target_rate_gfu"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @classmethod
    def from_db(
        cls,
        num_gfus: int,
        gbu_power_db: float,
        gfu_power_db: float,
        target_rate_gbu: float,
        target_rate_gfu: float,
    ) -> "SystemConfig":
        return cls(
            num_gfus=num_gfus,
            power_gbu=db_to_linear(gbu_power_db),
            power_gfu=db_to_linear(gfu_power_db),
            target_rate_gbu=target_rate_gbu,
            target_rate_gfu=target_rate_gfu,
        )

    @property
    def eps0(self) -> float:
        """SNR threshold for the GBU target rate: 2**rate - 1."""
        return 2.0 ** self.target_rate_gbu - 1.0

    @property
    def eps_s(self) -> float:
        """SNR threshold for the GFU target rate: 2**rate - 1."""
        return 2.0 ** self.target_rate_gfu - 1.0

    @property
    def eta0(self) -> float:
        """GBU gain threshold eps0 / power_gbu."""
        return self.eps0 / self.power_gbu

    @property
    def eta_s(self) -> float:
        """GFU gain threshold eps_s / power_gfu."""
        return self.eps_s / self.power_gfu


@dataclass(frozen=True)
class ChannelRealization:
    """Power gains of one fading block: GBU gain plus ascending GFU gains."""

    gain_gbu: float
    gains_gfu: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.gain_gbu < 0.0:
            raise ValueError(f"gain_gbu must be >= 0, got {self.gain_gbu!r}")
        if len(self.gains_gfu) < 1:
            raise ValueError("gains_gfu must contain at least one gain")
        prev = 0.0
        for g in self.gains_gfu:
            if g < prev:
                raise ValueError("gains_gfu must be sorted ascending and >= 0")
            prev = g

    @property
    def num_gfus(self) -> int:
        return len(self.gains_gfu)

    @property
    def gain_best(self) -> float:
        """Gain of the admitted (strongest) GFU."""
        return self.gains_gfu[-1]


def sample_gain_matrix(
    rows: int, cols: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw a (rows, cols) matrix of unit-mean exponential power gains.

    Inverse-CDF transform -ln(u) with u = 1 - random() in (0, 1], which
    guards against ln(0); it runs in place on the uniforms, bit for bit the
    same as ``-np.log1p(-rng.random((rows, cols)))``. This is the single
    sampling path shared by the scalar API and the Monte Carlo blocks.
    ``out``, a C-contiguous float64 (rows, cols) array, receives the draw
    (the same values as a fresh one) and is returned.
    """
    # the generator fills ``out`` in memory order, so any other layout reorders the draw
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    u = rng.random((rows, cols), out=out)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def sample_channel_realization(num_gfus: int, rng: np.random.Generator) -> ChannelRealization:
    """Sample one fading block: K GFU gains (returned sorted) plus the GBU gain."""
    if num_gfus < 1:
        raise ValueError(f"num_gfus must be >= 1, got {num_gfus}")
    row = sample_gain_matrix(1, num_gfus + 1, rng)[0]
    gfu = np.sort(row[:-1])
    return ChannelRealization(
        gain_gbu=float(row[-1]),
        gains_gfu=tuple(float(g) for g in gfu),
    )


def sinr_triplet(
    config: SystemConfig, gain_gbu: float, gain_gfu: float, alpha: float
) -> tuple[float, float, float]:
    """SINRs of the three-stage SIC chain for power split ``alpha``.

    The receiver decodes the GFU's first stream, then the GBU signal, then
    the GFU's second stream; each decoded signal is cancelled before the
    next stage. Returns (first stream, GBU, second stream).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    if gain_gbu < 0.0 or gain_gfu < 0.0:
        raise ValueError("channel gains must be >= 0")
    p_gbu = config.power_gbu * gain_gbu
    p_gfu = config.power_gfu * gain_gfu
    residual = (1.0 - alpha) * p_gfu
    sinr_s1 = alpha * p_gfu / (p_gbu + residual + 1.0)
    sinr_gbu = p_gbu / (residual + 1.0)
    sinr_s2 = residual
    return sinr_s1, sinr_gbu, sinr_s2


def achievable_rates(
    sinr_s1: float, sinr_gbu: float, sinr_s2: float
) -> tuple[float, float, float]:
    """Shannon rates log2(1 + SINR) for each SIC stage, in bits/channel use."""
    for value in (sinr_s1, sinr_gbu, sinr_s2):
        if value < 0.0:
            raise ValueError(f"SINR must be >= 0, got {value!r}")
    return (
        math.log2(1.0 + sinr_s1),
        math.log2(1.0 + sinr_gbu),
        math.log2(1.0 + sinr_s2),
    )
