"""Core system model for semi-grant-free uplink groups.

One grant-based user (GBU) and K grant-free users (GFUs) share a resource
block. Channels are quasi-static Rayleigh: every power gain is a unit-mean
exponential variate. A ``ChannelRealization`` (the scalar path) keeps the GFU
gains in ascending order, so the admitted user is the last index; the Monte
Carlo blocks read ``sample_gain_matrix``'s user-by-user draw, whose GFU
columns are unsorted (they take the row maximum) and whose last column, drawn
first, is sorted ascending. Noise variance is normalised to 1, so
``power_gbu`` / ``power_gfu`` are transmit SNRs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"{value_db!r} dB overflows double precision in linear scale") from None


def linear_to_db(value: float) -> float:
    # written so that NaN fails it too
    if not 0.0 < value < math.inf:
        raise ValueError(f"dB conversion requires a finite positive value, got {value!r}")
    return 10.0 * math.log10(value)


# The input box; README's "Config file format" section gives each edge's reason.
# Inside it every threshold is positive, and every product the kernel and the
# scalar protocol form, C(K, k) included, is a finite double.
_POWERS = (1e-15, 1e15, "[1e-15, 1e15] (+-150 dB)")
_RATES = (2.0**-20, 64.0, "[2**-20, 64]")
_BOX = {
    "num_gfus": (1, 256, "[1, 256]"),
    "power_gbu": _POWERS,
    "power_gfu": _POWERS,
    "target_rate_gbu": _RATES,
    "target_rate_gfu": _RATES,
}


def _check_field(name: str, value) -> None:
    """``ValueError`` naming ``name`` unless ``value`` lies in its box edges
    (``num_gfus`` an ``int``, not a ``bool``)."""
    if name == "num_gfus" and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValueError(f"num_gfus must be an integer, got {value!r}")
    low, high, edges = _BOX[name]
    # written so that NaN fails it too
    if not low <= value <= high:
        raise ValueError(f"{name} = {value!r} lies outside the input box {edges}")


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one group: user count, transmit SNRs, target rates.

    The derived thresholds (``eps0``, ``eps_s``, ``case2_ceiling``, ``eta0``,
    ``eta_s``) are computed from the primary fields on first access and
    cached; the fields are frozen, so the two can never drift out of sync.
    """

    num_gfus: int
    power_gbu: float
    power_gfu: float
    target_rate_gbu: float
    target_rate_gfu: float

    def __post_init__(self) -> None:
        for name in _BOX:
            _check_field(name, getattr(self, name))

    @classmethod
    def from_db(
        cls,
        num_gfus: int,
        gbu_power_db: float,
        gfu_power_db: float,
        target_rate_gbu: float,
        target_rate_gfu: float,
    ) -> "SystemConfig":
        powers = []
        for name, value_db in (("gbu_power_db", gbu_power_db), ("gfu_power_db", gfu_power_db)):
            try:
                powers.append(db_to_linear(value_db))
            except ValueError as err:
                raise ValueError(f"{name}: {err}") from None
        return cls(num_gfus, *powers, target_rate_gbu, target_rate_gfu)

    @cached_property
    def eps0(self) -> float:
        """SNR threshold for the GBU target rate: 2**rate - 1."""
        return 2.0 ** self.target_rate_gbu - 1.0

    @cached_property
    def eps_s(self) -> float:
        """SNR threshold for the GFU target rate: 2**rate - 1."""
        return 2.0 ** self.target_rate_gfu - 1.0

    @cached_property
    def case2_ceiling(self) -> float:
        """(1 + eps0)(1 + eps_s): in Case II the rate-splitting GFU is in outage
        when 1 + P0 g0 + Ps g falls below it."""
        return (1.0 + self.eps0) * (1.0 + self.eps_s)

    @cached_property
    def eta0(self) -> float:
        """GBU gain threshold eps0 / power_gbu."""
        return self.eps0 / self.power_gbu

    @cached_property
    def eta_s(self) -> float:
        """GFU gain threshold eps_s / power_gfu."""
        return self.eps_s / self.power_gfu


@dataclass(frozen=True)
class ChannelRealization:
    """Power gains of one fading block: GBU gain plus ascending GFU gains."""

    gain_gbu: float
    gains_gfu: tuple[float, ...]

    def __post_init__(self) -> None:
        # the guards are written so that NaN fails them too
        if not (0.0 <= self.gain_gbu):
            raise ValueError(f"gain_gbu must be >= 0, got {self.gain_gbu!r}")
        if len(self.gains_gfu) < 1:
            raise ValueError("gains_gfu must contain at least one gain")
        prev = 0.0
        for g in self.gains_gfu:
            if not (prev <= g):
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
    """Draw a (rows, cols) matrix of unit-mean exponential power gains, the
    last column (the GBU's) sorted ascending.

    The generator fills the uniforms user by user, the GBU first: the last
    column takes the first run of ``rows`` values and column ``j`` the
    ``(cols - j)``-th, so each user's gains are contiguous and the (rows, k)
    draw is bit for bit the last ``k`` columns of any wider one, sorted GBU
    column included. The result is the transposed user-by-user array with
    its columns reversed, so it is not F-contiguous. A one-row draw has
    nothing to sort. Inverse-CDF transform -ln(u) with u = 1 - random() in
    (0, 1], which guards against ln(0); it runs in place on the uniforms,
    bit for bit the same as ``-np.log1p(-rng.random((cols, rows)))[::-1].T``
    before the sort.

    Rows are independent and the last column is independent of the others,
    so sorting it alone leaves the law of any sum over rows unchanged, while
    a leading slice of rows is no longer a random sample: it holds the
    lowest last-column gains. This is the single sampling path shared by the
    scalar API and the Monte Carlo blocks. ``out``, a C-contiguous float64
    (cols, rows) array, takes the uniforms in the generator's order; the
    result is then a view of it, bit for bit a fresh draw.
    """
    # the generator fills the uniforms in memory order, so any other layout reorders the draw
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    u = rng.random((cols, rows), out=out)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    if rows > 1:
        u[0].sort()
    return u[::-1].T


def sample_channel_realization(num_gfus: int, rng: np.random.Generator) -> ChannelRealization:
    """Sample one fading block: K GFU gains (returned sorted) plus the GBU gain;
    ``num_gfus`` is checked as ``SystemConfig`` checks it."""
    _check_field("num_gfus", num_gfus)
    row = sample_gain_matrix(1, num_gfus + 1, rng)[0].tolist()
    gbu = row.pop()
    row.sort()
    # -log1p(-u) of u in [0, 1) is finite and >= 0 and the row is now sorted,
    # so the record is filled in without re-running __post_init__'s checks
    # (by object.__setattr__, as the frozen __init__ does: touching __dict__
    # would give each record its own dict, 2.6x the memory)
    realization = object.__new__(ChannelRealization)
    object.__setattr__(realization, "gain_gbu", gbu)
    object.__setattr__(realization, "gains_gfu", tuple(row))
    return realization


def sinr_triplet(
    config: SystemConfig, gain_gbu: float, gain_gfu: float, alpha: float
) -> tuple[float, float, float]:
    """SINRs of the three-stage SIC chain for power split ``alpha``.

    The receiver decodes the GFU's first stream, then the GBU signal, then
    the GFU's second stream; each decoded signal is cancelled before the
    next stage. Returns (first stream, GBU, second stream).
    """
    # written so that NaN fails it too
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    if not (0.0 <= gain_gbu and 0.0 <= gain_gfu):
        raise ValueError(f"channel gains must be >= 0, got {gain_gbu!r}, {gain_gfu!r}")
    return _sic_sinrs(config.power_gbu * gain_gbu, config.power_gfu * gain_gfu, alpha)


def _sic_sinrs(p_gbu: float, p_gfu: float, alpha: float) -> tuple[float, float, float]:
    """``sinr_triplet`` from the received powers, unchecked."""
    residual = (1.0 - alpha) * p_gfu
    return alpha * p_gfu / (p_gbu + residual + 1.0), p_gbu / (residual + 1.0), residual


def achievable_rates(
    sinr_s1: float, sinr_gbu: float, sinr_s2: float
) -> tuple[float, float, float]:
    """Shannon rates log2(1 + SINR) for each SIC stage, in bits/channel use."""
    # written so that NaN fails it too
    if not (0.0 <= sinr_s1 and 0.0 <= sinr_gbu and 0.0 <= sinr_s2):
        bad = next(v for v in (sinr_s1, sinr_gbu, sinr_s2) if not (0.0 <= v))
        raise ValueError(f"SINR must be >= 0, got {bad!r}")
    return (
        math.log2(1.0 + sinr_s1),
        math.log2(1.0 + sinr_gbu),
        math.log2(1.0 + sinr_s2),
    )
