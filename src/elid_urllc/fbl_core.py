"""Finite-blocklength link mathematics for short-packet downlinks.

Implements the normal approximation of the maximum coding rate for a
short packet of D payload bits carried over m channel uses (Polyanskiy,
Poor, Verdu 2010):

    R(m, eps) = log2(1 + snr) - sqrt(v / m) * Qinv(eps) / ln(2)

together with the inversions every allocator needs: decoder error
probability at a given power, minimum power for a target reliability,
and minimum blocklength under an energy budget.

All reliability arithmetic happens on the margin g, the argument of the
Gaussian Q-function in eps = Q(g). Operating points of interest sit at
g of 20 or more, where eps underflows double precision (g = 26 already
means eps ~ 1e-150), so raw probabilities are materialized only for
reporting and only through the log domain.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass

from scipy.special import log_ndtr, ndtri

LN2 = math.log(2.0)
LN10 = math.log(10.0)

_SQRT2 = math.sqrt(2.0)
# math.expm1 raises OverflowError a little above this exponent.
_EXP_OVERFLOW = 709.0


class DispersionMode(enum.Enum):
    """How the channel dispersion enters the rate penalty term.

    EXACT uses v = 1 - (1 + snr)^-2. UNIT pins v = 1, the high-SNR
    limit; it is the default because the closed-form power inversion
    below is exact only in that regime.
    """

    EXACT = "exact"
    UNIT = "unit"


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x).

    Accurate to a few ulp for |x| <= 8 (delegates to erfc). Underflows
    to 0.0 near x = 38 and saturates at 1.0 for very negative x; use
    eps_log10_from_margin when the tail magnitude itself matters.
    """
    if not math.isfinite(x):
        raise ValueError(f"q_function requires a finite argument, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_inverse(eps: float) -> float:
    """Inverse of q_function: the x with Q(x) = eps, for eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"q_inverse requires eps in (0, 1), got {eps!r}")
    return float(-ndtri(eps))


def eps_log10_from_margin(g: float) -> float:
    """log10 of the error probability Q(g), finite for every finite g.

    Uses the log-CDF of the standard normal, so margins far beyond the
    underflow point of q_function still report a meaningful magnitude.
    """
    if not math.isfinite(g):
        raise ValueError(f"eps_log10_from_margin requires finite g, got {g!r}")
    return float(log_ndtr(-g)) / LN10


def shannon_capacity(snr: float) -> float:
    """Asymptotic capacity log2(1 + snr) in bits per channel use."""
    _check_snr(snr)
    return math.log1p(snr) / LN2


def channel_dispersion(snr: float) -> float:
    """Dispersion v = 1 - (1 + snr)^-2 of the AWGN channel, in [0, 1)."""
    _check_snr(snr)
    u = 1.0 + snr
    return 1.0 - 1.0 / (u * u)


def _check_snr(snr: float) -> None:
    if not (math.isfinite(snr) and snr >= 0.0):
        raise ValueError(f"snr must be finite and nonnegative, got {snr!r}")


@dataclass(frozen=True)
class ShortPacketParams:
    """One short-packet operating point.

    payload_bits: information bits per packet.
    blocklength: channel uses available for the packet.
    snr: received signal-to-noise ratio, linear.
    """

    payload_bits: int
    blocklength: int
    snr: float
    dispersion_mode: DispersionMode = DispersionMode.UNIT

    def __post_init__(self) -> None:
        if self.payload_bits < 1:
            raise ValueError(f"payload_bits must be >= 1, got {self.payload_bits}")
        if self.blocklength < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.blocklength}")
        _check_snr(self.snr)


@dataclass(frozen=True)
class ReliabilityMargin:
    """Reliability of one link expressed as a Q-function argument.

    g is the margin with eps = Q(g); eps_log10 carries the magnitude in
    the log domain so that margins far beyond double-precision underflow
    stay comparable.
    """

    g: float
    eps_log10: float

    @property
    def eps(self) -> float:
        # Q(g) directly while it is representable; this keeps exact
        # fixed points (g = 0 -> 0.5) instead of 10**log10 rounding.
        if abs(self.g) < 37.0:
            return q_function(self.g)
        return 10.0 ** self.eps_log10


def achievable_rate(params: ShortPacketParams, eps: float) -> float:
    """Maximum coding rate in bits per channel use at error target eps.

    May return a negative value when the blocklength cannot support the
    reliability target at this SNR; callers treat that as infeasible.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    m = params.blocklength
    penalty = math.sqrt(_dispersion_for(params.snr, params.dispersion_mode) / m)
    return shannon_capacity(params.snr) - penalty * q_inverse(eps) / LN2


def _dispersion_for(snr: float, mode: DispersionMode) -> float:
    if mode is DispersionMode.UNIT:
        return 1.0
    v = channel_dispersion(snr)
    if v == 0.0:
        raise ValueError(
            "channel dispersion vanishes at snr = 0; EXACT mode has no "
            "finite margin there (use UNIT mode or a positive snr)"
        )
    return v


def reliability_margin(
    snr: float,
    blocklength: int,
    payload_bits: int,
    dispersion_mode: DispersionMode = DispersionMode.UNIT,
) -> ReliabilityMargin:
    """Margin g such that the decoder error probability is Q(g).

    UNIT mode evaluates g = sqrt(m) * (ln(1 + snr) - ln(2) * D / m); the
    grouping cancels exactly when the rate D/m equals capacity, so the
    g = 0, eps = 0.5 fixed point is bit-exact. EXACT mode divides the
    whole bracket by sqrt(v), which preserves that fixed point and stays
    consistent with achievable_rate. Strictly increasing in snr and in
    blocklength, in both modes.
    """
    _check_snr(snr)
    if blocklength < 1:
        raise ValueError(f"blocklength must be >= 1, got {blocklength}")
    if payload_bits < 1:
        raise ValueError(f"payload_bits must be >= 1, got {payload_bits}")
    m = float(blocklength)
    g = math.sqrt(m) * (math.log1p(snr) - LN2 * payload_bits / m)
    if dispersion_mode is DispersionMode.EXACT:
        g /= math.sqrt(_dispersion_for(snr, dispersion_mode))
    return ReliabilityMargin(g=g, eps_log10=eps_log10_from_margin(g))


def min_power_for_target(
    norm_gain: float,
    blocklength: int,
    payload_bits: int,
    g_target: float,
) -> float:
    """Smallest transmit power reaching margin g_target on one link.

    norm_gain is the normalized channel gain |h|^2 / sigma^2 in 1/W, so
    snr = power * norm_gain. Inverts the UNIT-mode margin at equality:

        p = (exp(ln(2) * D / m + g_target / sqrt(m)) - 1) / norm_gain

    clamped below at zero (a margin already met at p = 0 costs nothing).
    Returns inf when the required SNR overflows double precision.
    """
    if not (math.isfinite(norm_gain) and norm_gain > 0.0):
        raise ValueError(f"norm_gain must be positive, got {norm_gain!r}")
    if blocklength < 1:
        raise ValueError(f"blocklength must be >= 1, got {blocklength}")
    if payload_bits < 1:
        raise ValueError(f"payload_bits must be >= 1, got {payload_bits}")
    if not math.isfinite(g_target):
        raise ValueError(f"g_target must be finite, got {g_target!r}")
    m = float(blocklength)
    exponent = LN2 * payload_bits / m + g_target / math.sqrt(m)
    if exponent > _EXP_OVERFLOW:
        return math.inf
    snr_required = math.expm1(exponent)
    if snr_required <= 0.0:
        return 0.0
    return snr_required / norm_gain


def _min_energy_gain(blocklength: int, payload_bits: int) -> float:
    """m * (2^(D/m) - 1): received energy-gain product needed at eps = 0.5.

    Strictly decreasing in m for fixed D in exact arithmetic. In floats
    the fall per step drops below an ulp for large m (around m = 5e7
    for D = 1), so computed values can tie or rise there. Up to
    _C0_TABLE_MAX symbols the computed values still strictly decrease
    (tests check D from 1 to 2500), which the cached table path of
    min_blocklength relies on. Returns inf once the exponent would
    overflow, which keeps the feasibility predicate monotone.
    """
    m = float(blocklength)
    x = LN2 * payload_bits / m
    if x > _EXP_OVERFLOW:
        return math.inf
    return m * math.expm1(x)


# Longest cached -c_0 table, about 0.5 MB; longer symbol budgets compute
# c_0 at the bisection's probes only, so memory stays bounded.
_C0_TABLE_MAX = 1 << 14


@functools.lru_cache(maxsize=16)
def _neg_min_energy_gains(payload_bits: int, max_symbols: int) -> tuple[float, ...]:
    """-_min_energy_gain(m, D) for m = 1..max_symbols: c_0, the table
    c_g at g = 0, negated so that it ascends (-inf where c_0 overflows).

    Built once per (D, M) from _min_energy_gain itself, so every entry is
    the scalar's own value; a tuple, so the cached table cannot change.
    """
    return tuple(
        -_min_energy_gain(m, payload_bits) for m in range(1, max_symbols + 1)
    )


def min_blocklength(
    energy_budget_gain: float,
    payload_bits: int,
    max_symbols: int,
) -> int | None:
    """Smallest m in [1, max_symbols] supportable by the energy budget.

    energy_budget_gain is the dimensionless product |h|^2 * E / sigma^2.
    Feasibility at m requires energy_budget_gain > m * (2^(D/m) - 1).
    The right side, c_0(m), strictly decreases in m up to _C0_TABLE_MAX
    symbols even in floats, for the payloads tested (see
    _min_energy_gain), so up to there the answer is one bisection of
    the cached ascending table -c_0 for (D, max_symbols): the first m
    with -c_0(m) > -energy_budget_gain.
    Budgets past _C0_TABLE_MAX symbols bisect on the predicate itself,
    computing c_0 at each probe. Where the computed c_0 stops being
    strictly decreasing (m around 5e7 for D = 1) that bisection returns
    a feasible m, not necessarily the first one. Returns None when even
    m = max_symbols fails.
    """
    if not (math.isfinite(energy_budget_gain) and energy_budget_gain > 0.0):
        raise ValueError(
            f"energy_budget_gain must be positive, got {energy_budget_gain!r}"
        )
    if payload_bits < 1:
        raise ValueError(f"payload_bits must be >= 1, got {payload_bits}")
    if max_symbols < 1:
        raise ValueError(f"max_symbols must be >= 1, got {max_symbols}")
    if max_symbols <= _C0_TABLE_MAX:
        m = bisect.bisect_right(
            _neg_min_energy_gains(payload_bits, max_symbols), -energy_budget_gain
        ) + 1
        return m if m <= max_symbols else None
    if not energy_budget_gain > _min_energy_gain(max_symbols, payload_bits):
        return None
    lo, hi = 1, max_symbols  # hi is always feasible here
    while lo < hi:
        mid = (lo + hi) // 2
        if energy_budget_gain > _min_energy_gain(mid, payload_bits):
            hi = mid
        else:
            lo = mid + 1
    return lo
