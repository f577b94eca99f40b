"""Finite-blocklength link mathematics for short-packet downlinks.

Implements the normal approximation of the maximum coding rate for a
short packet of D payload bits carried over m channel uses (Polyanskiy,
Poor, Verdu 2010):

    R(m, eps) = log2(1 + snr) - sqrt(v / m) * Qinv(eps) / ln(2)

together with the inversions every allocator needs: decoder error
probability at a given power, minimum power for a target reliability,
and minimum blocklength under an energy budget.

It owns the link model: c_g(m) = m * expm1(ln2 * D / m + g / sqrt(m)),
the energy-gain product that meets margin g in m channel uses, and its
inverse, the margin, as scalars, as min_blocklength's c_0 table, as the
allocators' numpy tables (_build_split_tables, _margin_matrix), and as
the min-max solvers' common-margin Newton solve (_split_margin), which
also returns the closed-form powers at the margin it settles on and
their total energy.

All reliability arithmetic happens on the margin g, the argument of the
Gaussian Q-function in eps = Q(g). Operating points of interest sit at
g of 20 or more, where eps underflows double precision (g = 26 already
means eps ~ 1e-150), so raw probabilities are materialized only for
reporting and only through the log domain.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import statistics
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)
LN10 = math.log(10.0)

_SQRT2 = math.sqrt(2.0)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# One shared standard normal: building a NormalDist per call doubles
# the cost of q_inverse.
_STD_NORMAL = statistics.NormalDist()
# log Q switches from erfc to its asymptotic series at this margin.
_LOG_Q_SERIES_FROM = 30.0
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


# reliability_margin tests this alias: the enum class lookup costs 0.13 us
_EXACT = DispersionMode.EXACT


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
    """Inverse of q_function: the x with Q(x) = eps, for eps in (0, 1).

    Computed as -statistics.NormalDist().inv_cdf(eps), the standard
    library's rational approximation of the normal quantile (Wichura's
    AS241). At eps = 1e-9, the default target, it returns exactly
    5.9978070150076869, the margin every figure is computed at. Against
    50-digit mpmath on eps in [1e-300, 0.49] it is within 5.5 ulp
    (7e-16 relative).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"q_inverse requires eps in (0, 1), got {eps!r}")
    return -_STD_NORMAL.inv_cdf(eps)


def eps_log10_from_margin(g: float) -> float:
    """log10 of the error probability Q(g), finite for every finite g.

    Works in the log domain, so margins far beyond the underflow point of
    q_function still report a meaningful magnitude. ln Q(g) has three
    branches, the common one tested first:
    0 <= g < 30: log(erfc(g / sqrt 2) / 2) directly.
    g < 0: log1p(-Q(-g)), since Q(g) = 1 - Q(-g) is near 1 and log of it
    would lose the small Q(-g) (by 4e-8 relative near g = -6).
    g >= 30: the asymptotic series of Mills' ratio,
    -g^2/2 - ln g - ln(2 pi)/2 + ln(sum_{k=0..6} (-1)^k (2k-1)!! / g^(2k)),
    whose first omitted term is below 3e-16 at g = 30.
    Against 50-digit mpmath its worst relative error on g in [-30, 1e4]
    is about 1.3e-13. reliability_margin runs the first branch inline.
    """
    if 0.0 <= g < _LOG_Q_SERIES_FROM:
        return math.log(0.5 * math.erfc(g / _SQRT2)) / LN10
    if not math.isfinite(g):
        raise ValueError(f"eps_log10_from_margin requires finite g, got {g!r}")
    if g < 0.0:
        return math.log1p(-0.5 * math.erfc(-g / _SQRT2)) / LN10
    x = 1.0 / (g * g)
    series = 1.0 + x * (-1.0 + x * (3.0 + x * (-15.0 + x * (
        105.0 + x * (-945.0 + x * 10395.0)))))
    return (-0.5 * g * g - math.log(g) - _HALF_LN_2PI + math.log(series)) / LN10


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


def _check_index(name: str, value) -> int:
    """The count rule of SystemConfig, ShortPacketParams, SweepSpec,
    sample_scenario, stream_words and this module's primitives: an integer
    (operator.index, so no floats, nan or inf; numpy integers pass) and
    >= 1. Returns it as an int; raises ValueError naming it otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return count


@dataclass(frozen=True, slots=True)
class ShortPacketParams:
    """One short-packet operating point.

    payload_bits: information bits per packet.
    blocklength: channel uses available for the packet.
    snr: received signal-to-noise ratio, linear.
    Both counts are integers >= 1 (_check_index), as in SystemConfig.
    """

    payload_bits: int
    blocklength: int
    snr: float
    dispersion_mode: DispersionMode = DispersionMode.UNIT

    def __post_init__(self) -> None:
        _check_index("payload_bits", self.payload_bits)
        _check_index("blocklength", self.blocklength)
        _check_snr(self.snr)


@dataclass(frozen=True, slots=True)
class ReliabilityMargin:
    """Reliability of one link expressed as a Q-function argument.

    g is the margin with eps = Q(g); eps_log10 carries the magnitude in
    the log domain so that margins far beyond double-precision underflow
    stay comparable.
    """

    g: float
    eps_log10: float


# reliability_margin fills a margin's slots through their descriptors,
# as the frozen __init__ does: about 0.26 us a margin against 0.46 us for
# ReliabilityMargin(g, eps_log10) (timeit on a 2-core VM)
_set_g = ReliabilityMargin.g.__set__
_set_eps_log10 = ReliabilityMargin.eps_log10.__set__


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
    blocklength, in both modes. eps_log10 is eps_log10_from_margin(g):
    for 0 <= g < 30, the common case, its first branch runs inline, the
    same operations without the call; every other g goes through it.

    Raises ValueError naming the argument for an snr that is negative or
    not finite, and for a blocklength or payload that breaks the count
    rule (_check_index): not an integer, or below 1. The common case,
    both counts Python ints, pays one chained test.
    """
    # one chained test for the common case; the checks below name the
    # argument
    if not (
        0.0 <= snr < math.inf
        and isinstance(blocklength, int)
        and isinstance(payload_bits, int)
        and blocklength >= 1
        and payload_bits >= 1
    ):
        _check_snr(snr)
        blocklength = _check_index("blocklength", blocklength)
        payload_bits = _check_index("payload_bits", payload_bits)
    m = float(blocklength)
    g = math.sqrt(m) * (math.log1p(snr) - LN2 * payload_bits / m)
    if dispersion_mode is _EXACT:
        g /= math.sqrt(_dispersion_for(snr, dispersion_mode))
    margin = object.__new__(ReliabilityMargin)
    _set_g(margin, g)
    if 0.0 <= g < _LOG_Q_SERIES_FROM:
        # eps_log10_from_margin's first branch, the same operations; the
        # saved call is 3% of solve_m200's equal_allocation p50 (BENCH_25)
        _set_eps_log10(margin, math.log(0.5 * math.erfc(g / _SQRT2)) / LN10)
        return margin
    _set_eps_log10(margin, eps_log10_from_margin(g))
    return margin


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
    Returns inf when the required SNR overflows double precision. Raises
    ValueError naming the argument for a norm_gain that is not positive
    and finite, a blocklength or payload that breaks the count rule
    (_check_index), and a g_target that is not finite.
    """
    if not (math.isfinite(norm_gain) and norm_gain > 0.0):
        raise ValueError(f"norm_gain must be positive, got {norm_gain!r}")
    blocklength = _check_index("blocklength", blocklength)
    payload_bits = _check_index("payload_bits", payload_bits)
    if not math.isfinite(g_target):
        raise ValueError(f"g_target must be finite, got {g_target!r}")
    return _power(norm_gain, blocklength, payload_bits, g_target)


def _power(
    norm_gain: float, blocklength: int, payload_bits: int, g_target: float
) -> float:
    """min_power_for_target without its argument checks, for callers
    whose arguments are already checked."""
    m = float(blocklength)
    exponent = LN2 * payload_bits / m + g_target / math.sqrt(m)
    if exponent > _EXP_OVERFLOW:
        return math.inf
    snr_required = math.expm1(exponent)
    if snr_required <= 0.0:
        return 0.0
    return snr_required / norm_gain


# Safety cap on a margin solve's Newton evaluations; it takes about seven.
_MAX_NEWTON_STEPS = 100


def _split_margin(
    m_vec, gains, payload_bits: int, budget: float
) -> tuple[float, list[float], float, int]:
    """Largest margin g whose closed-form energy at blocklengths m_vec,
    E(g) = sum(max(0, m_i * expm1(ln2 * D / m_i + g / sqrt(m_i))) / h_i),
    fits the budget; returns (g, powers, energy, evaluations of E).

    E is convex and nondecreasing in g, so Newton steps started right of
    the root fall monotonically onto it. They start at the least margin
    any one vehicle reaches spending the whole budget alone: no term
    exceeds the budget there, so nothing overflows, and E is at least
    the budget. The Newton iterate is taken while it lies strictly below
    g and fewer than _MAX_NEWTON_STEPS evaluations have been made. Once
    rounding stalls the steps a few ulps right of the root, or the cap
    is reached, a walk leaves the last g, just found over budget, by
    steps that double from one ulp: g - ulp, g - 3 ulp, ... until E
    fits. The returned g is within a few ulps of the largest affordable
    float: the next float up is still affordable in a quarter to a third
    of solves, and near g = 0 by up to about 1e-14.

    powers and energy are those of the evaluation that stops, 0.0 where
    a vehicle is clamped. Each power is expm1(ln2 * D / m_i + g /
    sqrt(m_i)) / h_i, the operations of min_power_for_target in its
    order and with its > 0 clamp, so it equals min_power_for_target(h_i,
    m_i, D, g) bit for bit (past exponent 709, where that returns inf,
    this keeps the finite power). energy is math.fsum of powers times
    blocklengths: the report takes it as its total, so the answer is
    summed once and fits the budget in the report's own arithmetic. The
    loop does not call min_power_for_target: a checked call costs about
    0.45 us a term by timeit on a 2-core VM, its unchecked kernel _power
    0.33 us and the inline expression 0.12 us, so at about seven
    evaluations per link it would add some 12 us to a 35 us fixed-m
    solve at n = 5.
    """
    ms = list(map(float, m_vec))
    links = [(LN2 * payload_bits / m, math.sqrt(m), m, h) for m, h in zip(ms, gains)]
    g = min(root * (math.log1p(budget * h / m) - base) for base, root, m, h in links)
    evaluations = 0
    walk = 0.0  # the walk's next step; 0.0 until a walk starts
    while True:
        powers = []
        slope = 0.0
        for base, root, m, h in links:
            snr = math.expm1(base + g / root)
            if snr > 0.0:
                powers.append(snr / h)
                slope += (snr + 1.0) / h * m / root
            else:
                powers.append(0.0)
        energy = math.fsum(map(operator.mul, powers, ms))
        evaluations += 1
        if energy <= budget:
            return g, powers, energy, evaluations
        if not walk:
            step = (energy - budget) / slope
            if g - step < g and evaluations < _MAX_NEWTON_STEPS:
                g -= step
                continue
            walk = math.ulp(g)
        g -= walk
        walk *= 2.0


@functools.lru_cache(maxsize=16)
def _table_axes(payload_bits: int, m_total: int) -> tuple[np.ndarray, ...]:
    """The margin-free parts of c_g for m = 1..m_total, read-only: (ms,
    ln2 * D / ms, sqrt(ms)). Every c_g table of one (D, M) shares them,
    so a joint min-max round computes only the g-dependent part, and the
    fixed-power margin matrix (_margin_matrix) reads its first columns
    of the last two."""
    ms = np.arange(1, m_total + 1, dtype=float)
    axes = (ms, LN2 * payload_bits / ms, np.sqrt(ms))
    for axis in axes:
        axis.flags.writeable = False
    return axes


def _build_split_tables(
    payload_bits: int, g_target: float, m_total: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The gain-free tables of the least-energy split at margin g_target
    over m_total symbols: (table, steps, m_star), fresh arrays. Only the
    cached copies (allocators._split_tables) are made read-only; a joint
    round's tables never leave its solve.

    table[m - 1] = c_g(m) is m * min_power_for_target at unit gain,
    clamped at zero and inf past exponent 709 like it; a vehicle's energy
    at blocklength m is table[m - 1] / norm_gain. It is built in place
    from the cached axes (_table_axes) as ms * expm1(g / roots + base),
    the same bits as base + g / roots, since IEEE addition commutes.
    steps[k] = table[k] - table[k + 1] is the saving of symbol k + 2, and
    m_star is the first minimizer of table. inf - inf is taken as inf: a
    step that stays inside the overflow region must still be taken to
    leave it. A table that is inf everywhere therefore takes every step,
    and its m_star is m_total.

    The exponent ln2 * D / m + g / sqrt(m) is a convex quadratic in
    1 / sqrt(m) (D >= 1), so over m = 1..m_total it peaks at m = 1 or at
    m = m_total. While that peak plus ln(m_total) stays below 709, no
    entry passes 709 and m * expm1 of any entry stays below e^709, so
    the pass runs without its guards: the np.errstate, the > 709 mask
    and the fmin of inf - inf. Otherwise one np.errstate covers the
    guarded pass. Both give every entry the same arithmetic.
    """
    ms, base, roots = _table_axes(payload_bits, m_total)
    table = g_target / roots
    table += base
    if max(table[0], table[-1]) + math.log(m_total) < _EXP_OVERFLOW:
        steps = _costs_in_place(table, ms)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            table[table > _EXP_OVERFLOW] = np.inf
            steps = _costs_in_place(table, ms)
            np.fmin(steps, np.inf, out=steps)  # the nan of inf - inf reads inf
    first = int(table.argmin())
    m_star = first + 1 if math.isfinite(table[first]) else m_total
    return table, steps, m_star


def _costs_in_place(table: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Both passes of _build_split_tables: turn the exponents in table
    into max(0, ms * expm1(exponent)) in place, and return the steps
    table[:-1] - table[1:]."""
    np.expm1(table, out=table)
    table *= ms
    np.maximum(table, 0.0, out=table)
    return table[:-1] - table[1:]


def _margin_matrix(snrs, payload_bits: int, m_total: int, width: int) -> np.ndarray:
    """The UNIT-mode margins of links at snrs for m = 1..width (width <=
    m_total), one row per link: sqrt(m) * (log1p(snr) - ln2 * D / m), read
    from the cached axes of (D, m_total). math.log1p per link keeps every
    entry bit-identical to reliability_margin(snr, m, D).g."""
    _, base, roots = _table_axes(payload_bits, m_total)
    capacity = np.array([math.log1p(snr) for snr in snrs])
    return roots[:width] * (capacity[:, None] - base[:width])


# Longest cached -c_0 table, about 0.5 MB; longer symbol budgets compute
# c_0 at the bisection's probes only, so memory stays bounded.
_C0_TABLE_MAX = 1 << 14


@functools.lru_cache(maxsize=16)
def _neg_min_energy_gains(payload_bits: int, max_symbols: int) -> tuple[float, ...]:
    """-c_0(m) for m = 1..max_symbols as a tuple, negated so that it
    ascends (-inf where c_0 overflows). c_0(m) = m * (2^(D/m) - 1), the
    energy-gain product needed at eps = 0.5, is read as
    m * min_power_for_target(1.0, m, D, 0.0).

    c_0 strictly decreases in exact arithmetic. In floats the fall per
    step drops below an ulp for large m (around m = 5e7 for D = 1), but
    up to _C0_TABLE_MAX it still strictly decreases (tests check D from
    1 to 2500), which min_blocklength's bisection relies on. It is not
    read off _build_split_tables at g = 0: numpy's expm1 differs from
    math.expm1 in the last bit, at 22 of 200 entries for D = 160, which
    would move min_blocklength at the bars
    test_matches_scalar_bisection_at_every_bar pins.
    """
    return tuple(
        -(m * min_power_for_target(1.0, m, payload_bits, 0.0))
        for m in range(1, max_symbols + 1)
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
    _neg_min_energy_gains), so up to there the answer is one bisection
    of the cached ascending table -c_0 for (D, max_symbols): the first m
    with -c_0(m) > -energy_budget_gain.
    Budgets past _C0_TABLE_MAX symbols bisect on the predicate itself,
    computing c_0 at each probe. Where the computed c_0 stops being
    strictly decreasing (m around 5e7 for D = 1) that bisection returns
    a feasible m, not necessarily the first one. Returns None when even
    m = max_symbols fails. symbol_budget has no upper bound, so the
    search must stay table-free up to 10^9 symbols, where a table of
    every m would take 8 GB.

    Raises ValueError naming the argument for an energy_budget_gain that
    is not positive and finite, and for a payload_bits or max_symbols
    that breaks the count rule (_check_index): not an integer, or below
    1.
    """
    if not (math.isfinite(energy_budget_gain) and energy_budget_gain > 0.0):
        raise ValueError(
            f"energy_budget_gain must be positive, got {energy_budget_gain!r}"
        )
    payload_bits = _check_index("payload_bits", payload_bits)
    max_symbols = _check_index("max_symbols", max_symbols)
    if max_symbols <= _C0_TABLE_MAX:
        m = bisect_right(
            _neg_min_energy_gains(payload_bits, max_symbols), -energy_budget_gain
        ) + 1
        return m if m <= max_symbols else None

    def c_0(m: int) -> float:
        return m * min_power_for_target(1.0, m, payload_bits, 0.0)

    if not energy_budget_gain > c_0(max_symbols):
        return None
    lo, hi = 1, max_symbols  # hi is always feasible here
    while lo < hi:
        mid = (lo + hi) // 2
        if energy_budget_gain > c_0(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
