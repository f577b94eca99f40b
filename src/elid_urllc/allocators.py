"""Power and blocklength allocation for the shared downlink.

Two families of solvers over n vehicles, a symbol budget M, and an
energy budget E, built on one primitive: the least total energy that
gives every link margin g using at most M symbols.

A link with normalized gain h meets margin g at blocklength m with
energy c_g(m) / h, where c_g(m) = m * expm1(ln2 * D / m + g / sqrt(m))
(clamped at zero) does not depend on h. c_g is convex and decreasing up
to its first minimizer m*, and past m* it does not decrease. Least total
energy is therefore a separable convex allocation of symbols, and
granting symbols one at a time to the largest marginal saving
(c_g(m) - c_g(m + 1)) / h_i is exact (Fox 1966; Federgruen & Groenevelt
1986). No saving past m* is positive, so no vehicle gets more than
max(m*, its floor) symbols and the budget is not always spent.

Energy minimization: that primitive at the target margin, with powers in
closed form per vehicle.

Min-max reliability: maximize the worst per-vehicle margin g (that is,
minimize the worst decoder error probability): the largest g whose
least energy fits E. The joint problem alternates two exact steps, as
Dinkelbach (1967) does for fractional programs: the largest g the
current split affords, by Newton steps on its closed-form energy (convex
and nondecreasing in g), then the primitive's least-energy split at that
g (exact by Fox; Federgruen & Groenevelt). A split that affords g with
energy to spare affords a strictly larger g, and least energy rises
strictly in g, so when the split stops saving energy no larger g fits E;
there are finitely many splits, so this takes a few rounds (about three
at M=200). The fixed-m variant is one such Newton margin solve at its
fixed blocklengths. The fixed-power variant grants each spare symbol to
the worst link; margins rise strictly with blocklength, so that greedy
is one stable sort of the margin matrix, the same merge the primitive
makes of its savings.

Brute-force enumerations over small instances back both families as
verification oracles; they share no search code with the solvers they
check (the min-max oracle scores every candidate split by its own
expand-and-bisect on g, run over all candidates at once, not by the
Newton margin solve). Everything runs in margin space; probabilities
appear only inside reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel_model import Scenario
from .exceptions import InfeasibleError
from .fbl_core import (
    _EXP_OVERFLOW,
    LN2,
    ReliabilityMargin,
    min_blocklength,
    min_power_for_target,
    q_inverse,
    reliability_margin,
    upper_blocklength,
)

# The margin searches stop once the energy they settle on is within this
# fraction of the budget.
_REL_IMPROVEMENT = 1e-12
# Safety caps; the joint min-max solve takes about three split rounds of
# about eight Newton steps each.
_MAX_SPLIT_ROUNDS = 64
_MAX_NEWTON_STEPS = 100


@dataclass(frozen=True)
class Allocation:
    """Per-vehicle transmit powers (W) and integer blocklengths."""

    powers: tuple[float, ...]
    blocklengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.powers) != len(self.blocklengths):
            raise ValueError(
                f"length mismatch: {len(self.powers)} powers vs "
                f"{len(self.blocklengths)} blocklengths"
            )
        if len(self.powers) == 0:
            raise ValueError("allocation must cover at least one vehicle")
        for p in self.powers:
            if not (math.isfinite(p) and p >= 0.0):
                raise ValueError(f"powers must be finite and >= 0, got {p!r}")
        for m in self.blocklengths:
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"blocklengths must be integers >= 1, got {m!r}")

    @property
    def n_vehicles(self) -> int:
        return len(self.powers)


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the allocation plus everything needed to audit it."""

    allocation: Allocation
    margins: tuple[ReliabilityMargin, ...]
    worst_margin: ReliabilityMargin
    total_energy: float
    iterations: int
    trace: tuple[tuple[int, float], ...]
    converged: bool
    solver_name: str
    clamped: tuple[int, ...] = ()


def _resolve_g_target(scenario: Scenario, g_target: float | None) -> float:
    if g_target is None:
        return q_inverse(scenario.config.target_eps)
    if not math.isfinite(g_target):
        raise ValueError(f"g_target must be finite, got {g_target!r}")
    return float(g_target)


def _equal_split(total: int, n: int) -> list[int]:
    # floor(total/n) each, remainder to the lowest vehicle ids
    if total < n:
        raise InfeasibleError(
            f"symbol budget {total} cannot cover {n} vehicles at one symbol each"
        )
    base, remainder = divmod(total, n)
    return [base + 1 if i < remainder else base for i in range(n)]


def _build_report(
    scenario: Scenario,
    powers,
    blocklengths,
    *,
    solver_name: str,
    iterations: int,
    trace,
    converged: bool,
    clamped: tuple[int, ...] = (),
    enforce_energy_budget: bool,
) -> SolveReport:
    cfg = scenario.config
    allocation = Allocation(
        powers=tuple(float(p) for p in powers),
        blocklengths=tuple(int(m) for m in blocklengths),
    )
    margins = tuple(
        reliability_margin(p * link.norm_gain, m, cfg.payload_bits)
        for link, p, m in zip(scenario.links, allocation.powers, allocation.blocklengths)
    )
    worst = min(margins, key=lambda margin: margin.g)
    total_energy = math.fsum(
        p * m for p, m in zip(allocation.powers, allocation.blocklengths)
    )
    # solver invariants, checked explicitly so they also hold under python -O
    if sum(allocation.blocklengths) > cfg.symbol_budget:
        raise RuntimeError(
            f"{solver_name}: blocklengths sum to {sum(allocation.blocklengths)}, "
            f"exceeding the symbol budget {cfg.symbol_budget}"
        )
    if enforce_energy_budget and total_energy > cfg.energy_budget * (1.0 + 1e-9):
        raise RuntimeError(
            f"{solver_name}: total energy {total_energy:.6g} J exceeds the "
            f"energy budget {cfg.energy_budget:.6g} J"
        )
    return SolveReport(
        allocation=allocation,
        margins=margins,
        worst_margin=worst,
        total_energy=total_energy,
        iterations=iterations,
        trace=tuple(trace),
        converged=converged,
        solver_name=solver_name,
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# energy minimization at a fixed reliability target


def min_energy_fixed_m(
    scenario: Scenario, blocklengths, g_target: float | None = None
) -> tuple[tuple[float, ...], float]:
    """Cheapest powers meeting margin g_target at fixed blocklengths.

    Per vehicle the binding constraint is solved in closed form, so the
    result is exact (clamped at zero where the target is already met).
    Returns (powers, total_energy).
    """
    gt = _resolve_g_target(scenario, g_target)
    m_vec = [int(m) for m in blocklengths]
    if len(m_vec) != scenario.n_vehicles:
        raise ValueError(
            f"expected {scenario.n_vehicles} blocklengths, got {len(m_vec)}"
        )
    d = scenario.config.payload_bits
    powers = tuple(
        min_power_for_target(link.norm_gain, m, d, gt)
        for link, m in zip(scenario.links, m_vec)
    )
    total = math.fsum(p * m for p, m in zip(powers, m_vec))
    return powers, total


def _blocklength_floors(scenario: Scenario) -> list[int]:
    """Energy-solver floors: the energy-feasibility blocklength bound
    where it exists, else the trivial floor of one symbol.

    The energy objective itself carries no budget, so a link that cannot
    meet the configured energy budget at any blocklength still gets the
    lenient floor instead of an infeasibility error.
    """
    cfg = scenario.config
    floors = []
    for link in scenario.links:
        bound = min_blocklength(
            link.norm_gain * cfg.energy_budget, cfg.payload_bits, cfg.symbol_budget
        )
        floors.append(bound if bound is not None else 1)
    return floors


def _check_floor_sum(floors: list[int], m_total: int) -> None:
    if sum(floors) > m_total:
        raise InfeasibleError(
            f"minimum blocklengths sum to {sum(floors)}, exceeding the "
            f"symbol budget {m_total}"
        )


def _energy_gain_table(payload_bits: int, g_target: float, m_total: int) -> np.ndarray:
    """c_g(m) = m * expm1(ln2 * D / m + g / sqrt(m)) for m = 1..m_total.

    The energy-gain product that meets margin g_target at blocklength m,
    clamped at zero like min_power_for_target and inf where the exponent
    overflows. It does not depend on the channel gain: a vehicle's
    energy at blocklength m is table[m - 1] / norm_gain.
    """
    ms = np.arange(1, m_total + 1, dtype=float)
    exponent = LN2 * payload_bits / ms + g_target / np.sqrt(ms)
    with np.errstate(over="ignore"):
        table = np.where(exponent > 709.0, np.inf, ms * np.expm1(exponent))
    return np.maximum(table, 0.0)


def _build_split_tables(
    payload_bits: int, g_target: float, m_total: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The gain-free tables of the least-energy split at margin g_target
    over m_total symbols: (table, steps, m_star), arrays read-only.

    table is c_g (_energy_gain_table), steps[k] = table[k] - table[k + 1]
    is the saving of symbol k + 2, and m_star is the first minimizer of
    table. inf - inf is taken as inf: a step that stays inside the
    overflow region must still be taken to leave it. A table that is inf
    everywhere therefore takes every step, and its m_star is m_total.
    """
    table = _energy_gain_table(payload_bits, g_target, m_total)
    with np.errstate(invalid="ignore"):
        steps = table[:-1] - table[1:]
    steps[np.isnan(steps)] = np.inf
    first = int(np.argmin(table))
    m_star = first + 1 if math.isfinite(table[first]) else m_total
    table.flags.writeable = False
    steps.flags.writeable = False
    return table, steps, m_star


# symbol_sharing asks for the same (D, g, M) tables on every solve of a
# configuration; the joint solver's per-round g never repeats, so it
# calls _build_split_tables directly and evicts nothing here.
_split_tables = functools.lru_cache(maxsize=16)(_build_split_tables)


def _least_energy_split(tables, gains, floors) -> tuple[list[int], float]:
    """Blocklengths m >= floors with sum(m) <= M that minimize
    sum(table[m_i - 1] / gains[i]), and that least energy, for tables =
    (table, steps, m_star) of length M from _build_split_tables.

    Every vehicle starts at its floor, and each spare symbol goes to the
    largest positive marginal saving steps[m - 1] / h_i, ties to the
    lowest vehicle id. table is convex and decreasing up to m_star, so
    each vehicle's savings only fall as it gains symbols and the greedy
    is exact; past m_star no saving is positive. Granting one symbol at a
    time to the largest saving takes the same steps as taking the
    largest spare entries of the savings at once, which is one stable
    sort, ties to the lowest id and then the lowest m. A vehicle takes
    at most w = min(spare, m_star - 1) symbols, so only its window
    steps[f_i - 1 : f_i - 1 + w] is sorted; no window passes index M - 2,
    because spare <= M - sum(floors).
    """
    table, steps, m_star = tables
    gains = np.asarray(gains, dtype=float)
    floors = np.asarray(floors)
    spare = table.size - int(floors.sum())
    width = min(spare, m_star - 1)
    m_vec = floors
    if width > 0:
        savings = steps[(floors - 1)[:, None] + np.arange(width)] / gains[:, None]
        order = np.argsort(-savings, axis=None, kind="stable")[:spare]
        granted = order[savings.ravel()[order] > 0.0] // width
        m_vec = floors + np.bincount(granted, minlength=len(floors))
    return m_vec.tolist(), float(np.sum(table[m_vec - 1] / gains))


def symbol_sharing(scenario: Scenario, g_target: float | None = None) -> SolveReport:
    """Minimize total energy at margin g_target on every link.

    The blocklengths are the least-energy split at g_target over the
    energy-budget floors (see _least_energy_split): exact, and it stops
    each vehicle at max(m*, its floor), where m* minimizes c_g (365 at
    D=160, eps=1e-9 when M >= 365), so fewer than M symbols may be spent.
    The split reads the (D, g_target, M) tables from a bounded cache, so
    repeated solves of one configuration build them once. The powers are
    the closed-form minimum at those blocklengths. Raises
    InfeasibleError when the floors sum past the symbol budget or no
    split has finite energy.
    """
    cfg = scenario.config
    gt = _resolve_g_target(scenario, g_target)
    floors = _blocklength_floors(scenario)
    _check_floor_sum(floors, cfg.symbol_budget)
    m_vec, _ = _least_energy_split(
        _split_tables(cfg.payload_bits, gt, cfg.symbol_budget),
        [link.norm_gain for link in scenario.links],
        floors,
    )
    powers, energy = min_energy_fixed_m(scenario, m_vec, gt)
    if not math.isfinite(energy):
        raise InfeasibleError(
            "no finite-energy allocation exists within the symbol budget "
            "for this reliability target"
        )
    return _build_report(
        scenario,
        powers,
        m_vec,
        solver_name="symbol_sharing",
        iterations=1,
        trace=((1, energy),),
        converged=True,
        enforce_energy_budget=False,
    )


def equal_allocation_energy(
    scenario: Scenario, g_target: float | None = None
) -> tuple[Allocation, float]:
    """Baseline: equal symbol split, closed-form powers."""
    m_vec = _equal_split(scenario.config.symbol_budget, scenario.n_vehicles)
    powers, total = min_energy_fixed_m(scenario, m_vec, g_target)
    allocation = Allocation(powers=powers, blocklengths=tuple(m_vec))
    return allocation, total


def brute_force_energy(
    scenario: Scenario, g_target: float | None = None
) -> SolveReport:
    """Exhaustive minimum of total energy over integer blocklength splits.

    Verification oracle for symbol_sharing: searches every m vector with
    sum(m) <= symbol_budget and m_i at or above the same floors
    symbol_sharing respects. Guarded to n <= 3 and M <= 1000.
    """
    cfg = scenario.config
    n = scenario.n_vehicles
    m_total = cfg.symbol_budget
    if n > 3:
        raise ValueError(f"brute_force_energy is limited to n <= 3, got n={n}")
    if m_total > 1000:
        raise ValueError(
            f"brute_force_energy is limited to symbol budgets <= 1000, "
            f"got {m_total}"
        )
    if m_total < n:
        raise InfeasibleError(
            f"symbol budget {m_total} cannot cover {n} vehicles at one "
            f"symbol each"
        )
    gt = _resolve_g_target(scenario, g_target)
    d = cfg.payload_bits
    floors = _blocklength_floors(scenario)

    required = _energy_gain_table(d, gt, m_total)
    # energy_tables[i][k] = energy for vehicle i at blocklength k+1
    energy_tables = [required / link.norm_gain for link in scenario.links]
    for i, floor in enumerate(floors):
        energy_tables[i][: floor - 1] = np.inf

    candidates = 0
    best_energy = np.inf
    best_m: tuple[int, ...] | None = None

    if n == 1:
        table = energy_tables[0]
        candidates = m_total
        idx = int(np.argmin(table))
        best_energy = float(table[idx])
        best_m = (idx + 1,)
    elif n == 2:
        e1, e2 = energy_tables
        # prefix_min2[k] = min energy of vehicle 1 over blocklengths 1..k+1
        prefix_min2 = np.minimum.accumulate(e2)
        for m1 in range(floors[0], m_total):
            cap2 = m_total - m1
            if cap2 < floors[1]:
                break
            candidates += cap2 - floors[1] + 1
            total = e1[m1 - 1] + prefix_min2[cap2 - 1]
            if total < best_energy:
                segment = e2[floors[1] - 1 : cap2]
                m2 = floors[1] + int(np.argmin(segment))
                best_energy = float(total)
                best_m = (m1, m2)
    else:
        e1, e2, e3 = energy_tables
        prefix_min3 = np.minimum.accumulate(e3)
        for m1 in range(floors[0], m_total - 1):
            cap23 = m_total - m1
            if cap23 < floors[1] + floors[2]:
                break
            m2_values = np.arange(floors[1], cap23 - floors[2] + 1)
            candidates += m2_values.size
            totals = e1[m1 - 1] + e2[m2_values - 1] + prefix_min3[cap23 - m2_values - 1]
            k = int(np.argmin(totals))
            if totals[k] < best_energy:
                m2 = int(m2_values[k])
                segment = e3[floors[2] - 1 : cap23 - m2]
                m3 = floors[2] + int(np.argmin(segment))
                best_energy = float(totals[k])
                best_m = (m1, m2, m3)

    if best_m is None or not math.isfinite(best_energy):
        raise InfeasibleError(
            "no finite-energy allocation exists within the symbol budget "
            "for this reliability target"
        )
    powers = [
        min_power_for_target(link.norm_gain, m, d, gt)
        for link, m in zip(scenario.links, best_m)
    ]
    return _build_report(
        scenario,
        powers,
        best_m,
        solver_name="brute_force_energy",
        iterations=candidates,
        trace=((candidates, best_energy),),
        converged=True,
        enforce_energy_budget=False,
    )


# ---------------------------------------------------------------------------
# min-max reliability under the energy budget


def _largest_affordable_margins(energy_at, margin_floors, budget: float):
    """For each k, the largest margin g >= margin_floors[k] with
    energy_at(g)[k] <= budget, found by expanding upward from the floor
    and then bisecting, with every entry stepped at once.

    The min-max oracle's own margin search, kept apart from the solvers'
    Newton steps (_split_margin) so the oracle checks them independently.
    energy_at maps an array of margins to the array of energies, each
    nondecreasing in its margin, and the budget covers every floor. An
    entry stops bisecting when its floats are exhausted or its energy is
    within _REL_IMPROVEMENT of the budget, as a scalar search would.
    """
    floors = np.asarray(margin_floors, dtype=float)
    lo = floors.copy()
    hi = np.empty_like(lo)
    # expand upward until the budget no longer covers the margin; the
    # closed-form power overflows to inf well before float limits, so
    # this always terminates
    expanding = np.ones(lo.shape, dtype=bool)
    step = 1.0
    while expanding.any():
        trial = floors + step
        over = energy_at(trial) > budget
        hi = np.where(expanding & over, trial, hi)
        expanding &= ~over
        lo = np.where(expanding, trial, lo)
        step *= 2.0

    active = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active &= (lo < mid) & (mid < hi)  # else floats exhausted
        if not active.any():
            break
        energy = energy_at(mid)
        over = energy > budget
        hi = np.where(active & over, mid, hi)
        under = active & ~over
        lo = np.where(under, mid, lo)
        active &= ~(under & (budget - energy <= _REL_IMPROVEMENT * budget))
    return lo


def solve_power_minmax_fixed_m(
    scenario: Scenario, blocklengths, margin_floor: float = 0.0
) -> SolveReport:
    """Equalize reliability margins at fixed blocklengths.

    The min-max problem restricted to fixed blocklengths: the worst
    margin is maximized by spending the whole energy budget on a common
    margin, the largest g whose closed-form powers fit the budget, found
    by Newton steps on their energy (_split_margin, the joint solver's
    per-split step). iterations counts its energy evaluations. The
    powers fit the budget with no slack. Vehicles whose constraint is
    slack at zero power (possible only for negative margin floors) are
    clamped and flagged. Raises InfeasibleError, giving that largest g,
    when it is below margin_floor (default 0, i.e. eps 0.5).
    """
    cfg = scenario.config
    n = scenario.n_vehicles
    m_vec = [int(m) for m in blocklengths]
    if len(m_vec) != n:
        raise ValueError(f"expected {n} blocklengths, got {len(m_vec)}")
    if any(m < 1 for m in m_vec):
        raise ValueError("blocklengths must all be >= 1")
    if sum(m_vec) > cfg.symbol_budget:
        raise ValueError(
            f"blocklengths sum to {sum(m_vec)}, exceeding the symbol "
            f"budget {cfg.symbol_budget}"
        )
    if not math.isfinite(margin_floor):
        raise ValueError(f"margin_floor must be finite, got {margin_floor!r}")
    d = cfg.payload_bits
    budget = cfg.energy_budget
    gains = [link.norm_gain for link in scenario.links]
    g, evaluations = _split_margin(m_vec, gains, d, budget)
    if g < margin_floor:
        raise InfeasibleError(
            f"energy budget {budget:.6g} J affords at most margin g = {g:.6g} "
            f"at these blocklengths, below the margin floor {margin_floor:.6g}"
        )
    powers = [min_power_for_target(h, m, d, g) for h, m in zip(gains, m_vec)]
    clamped = tuple(i for i, p in enumerate(powers) if p == 0.0)
    return _build_report(
        scenario,
        powers,
        m_vec,
        solver_name="power_minmax_fixed_m",
        iterations=evaluations,
        trace=((evaluations, g),),
        converged=True,
        clamped=clamped,
        enforce_energy_budget=True,
    )


def solve_symbols_minmax_fixed_p(
    scenario: Scenario, p_common: float | None = None
) -> SolveReport:
    """Maximize the worst margin over integer blocklengths at a common
    transmit power.

    Every vehicle starts at one symbol, and each spare symbol goes to
    the currently worst vehicle (ties to the lowest vehicle_id). A
    vehicle's margin depends only on its own blocklength, so the greedy
    is max-min optimal. Each row of the n x (M - n + 1) margin matrix
    strictly increases, so the greedy takes its entries in merged
    ascending order: one stable sort gives the grants (its first M - n
    entries) and the worst margin after each grant. p_common defaults
    to the config's common power (energy_budget / symbol_budget unless
    overridden).
    """
    cfg = scenario.config
    n = scenario.n_vehicles
    m_total = cfg.symbol_budget
    if m_total < n:
        raise InfeasibleError(
            f"symbol budget {m_total} cannot cover {n} vehicles at one "
            f"symbol each"
        )
    if p_common is None:
        p_common = cfg.common_power_value()
    if not (math.isfinite(p_common) and p_common > 0.0):
        raise ValueError(f"p_common must be positive, got {p_common!r}")
    spend = p_common * m_total
    if spend > cfg.energy_budget * (1.0 + 1e-9):
        raise InfeasibleError(
            f"common power {p_common:.6g} W across {m_total} symbols costs "
            f"{spend:.6g} J, exceeding the energy budget "
            f"{cfg.energy_budget:.6g} J"
        )
    grants = m_total - n
    ms = np.arange(1, grants + 2, dtype=float)
    # math.log1p per vehicle keeps every entry bit-identical to
    # reliability_margin(p_common * h_i, m, D).g
    capacity = np.array([math.log1p(p_common * link.norm_gain) for link in scenario.links])
    margins_g = np.sqrt(ms) * (capacity[:, None] - LN2 * cfg.payload_bits / ms)
    flat = margins_g.ravel()
    order = np.argsort(flat, kind="stable")
    m_vec = 1 + np.bincount(order[:grants] // (grants + 1), minlength=n)
    return _build_report(
        scenario,
        [p_common] * n,
        m_vec,
        solver_name="symbols_minmax_fixed_p",
        iterations=grants,
        trace=enumerate(flat[order[: grants + 1]].tolist()),
        converged=True,
        enforce_energy_budget=True,
    )


def _minmax_floors(scenario: Scenario) -> list[int]:
    """Per-vehicle blocklength floors for the budgeted min-max problem;
    raises InfeasibleError naming the binding constraint."""
    cfg = scenario.config
    floors = []
    for link in scenario.links:
        bound = min_blocklength(
            link.norm_gain * cfg.energy_budget, cfg.payload_bits, cfg.symbol_budget
        )
        if bound is None:
            raise InfeasibleError(
                f"vehicle {link.vehicle_id}: the energy budget "
                f"{cfg.energy_budget:.6g} J cannot support any blocklength "
                f"up to {cfg.symbol_budget} at its channel gain"
            )
        floors.append(bound)
    _check_floor_sum(floors, cfg.symbol_budget)
    return floors


def _split_margin(
    m_vec, gains, payload_bits: int, budget: float
) -> tuple[float, int]:
    """Largest margin g whose closed-form energy at blocklengths m_vec,
    E(g) = sum(max(0, m_i * expm1(ln2 * D / m_i + g / sqrt(m_i))) / h_i),
    fits the budget; returns (g, number of evaluations of E).

    E is convex and nondecreasing in g, so Newton steps started right of
    the root fall monotonically onto it. They start at the least margin
    any one vehicle reaches spending the whole budget alone: no term
    exceeds the budget there, so nothing overflows, and E is at least
    the budget. Each term is summed exactly as min_power_for_target and
    _build_report compute it, so the returned g is affordable in the
    report's own arithmetic, with no slack.
    """
    links = [
        (LN2 * payload_bits / m, math.sqrt(m), m, h)
        for m, h in zip(map(float, m_vec), gains)
    ]

    def energy_and_slope(margin: float) -> tuple[float, float]:
        terms = []
        slope = 0.0
        for base, root, m, h in links:
            snr = math.expm1(base + margin / root)
            if snr > 0.0:
                terms.append(snr / h * m)
                slope += (snr + 1.0) / h * m / root
        return math.fsum(terms), slope

    g = min(root * (math.log1p(budget * h / m) - base) for base, root, m, h in links)
    evaluations = 0
    for _ in range(_MAX_NEWTON_STEPS):
        energy, slope = energy_and_slope(g)
        evaluations += 1
        if energy <= budget:
            return g, evaluations
        step = (energy - budget) / slope
        if not g - step < g:
            break
        g -= step
    # rounding stalled the steps a few ulps right of the root
    step = math.ulp(g)
    while True:
        evaluations += 1
        if energy_and_slope(g)[0] <= budget:
            return g, evaluations
        g -= step
        step *= 2.0


def solve_joint_minmax(scenario: Scenario) -> SolveReport:
    """Max-min margin over powers and integer blocklengths jointly.

    A margin g is reachable exactly when the least energy that gives
    every link margin g within the symbol budget (_least_energy_split
    over _minmax_floors) fits the energy budget; the answer is the
    largest such g. Each round takes the least-energy split at the
    current g, then the largest g that split affords (_split_margin),
    as Dinkelbach (1967) alternates for fractional programs; both steps
    are exact, the split by Fox and Federgruen & Groenevelt. The first g
    is the one the floors afford; the floors are the least-energy split
    at g = -ln2 * D, where every link needs zero power. A split that
    affords g with energy to spare affords a strictly larger g, so g
    rises strictly over the finitely many splits. The rounds stop when
    the split is unchanged or its least energy is within
    _REL_IMPROVEMENT of the budget: least energy rises strictly in g
    where it is positive, so no larger g fits. iterations counts the
    rounds, trace holds (round, g) after each, and converged is False
    only if the round cap ended the loop. Powers are the closed-form
    minimum for g at the last split; their energy fits the budget with
    no slack.
    """
    cfg = scenario.config
    d = cfg.payload_bits
    m_total = cfg.symbol_budget
    budget = cfg.energy_budget
    floors = _minmax_floors(scenario)
    gains = [link.norm_gain for link in scenario.links]

    m_vec = floors
    g, _ = _split_margin(m_vec, gains, d, budget)
    trace = []
    converged = False
    for round_ in range(1, _MAX_SPLIT_ROUNDS + 1):
        next_m, least = _least_energy_split(
            _build_split_tables(d, g, m_total), gains, floors
        )
        unchanged = next_m == m_vec
        if not unchanged:
            m_vec = next_m
            g, _ = _split_margin(m_vec, gains, d, budget)
        trace.append((round_, g))
        if unchanged or not least < budget * (1.0 - _REL_IMPROVEMENT):
            converged = True
            break
    powers = [min_power_for_target(h, m, d, g) for h, m in zip(gains, m_vec)]
    clamped = tuple(i for i, p in enumerate(powers) if p == 0.0)
    return _build_report(
        scenario,
        powers,
        m_vec,
        solver_name="joint_minmax",
        iterations=len(trace),
        trace=trace,
        converged=converged,
        clamped=clamped,
        enforce_energy_budget=True,
    )


def brute_force_minmax(scenario: Scenario) -> SolveReport:
    """Exhaustive max-min margin over integer blocklength vectors.

    Verification oracle for solve_joint_minmax: enumerates every m
    vector inside the per-vehicle bounds with sum(m) <= symbol_budget
    and scores each by the largest common margin its closed-form powers
    afford, bisected on g from the margin at which every power is zero
    with all vectors stepped at once (_largest_affordable_margins, not
    the solvers' Newton steps). Guarded to n <= 3 and M <= 100.
    """
    cfg = scenario.config
    n = scenario.n_vehicles
    m_total = cfg.symbol_budget
    if n > 3:
        raise ValueError(f"brute_force_minmax is limited to n <= 3, got n={n}")
    if m_total > 100:
        raise ValueError(
            f"brute_force_minmax is limited to symbol budgets <= 100, "
            f"got {m_total}"
        )
    d = cfg.payload_bits
    budget = cfg.energy_budget
    floors = _minmax_floors(scenario)
    ceilings = [upper_blocklength(floors, i, m_total) for i in range(n)]
    gains = [link.norm_gain for link in scenario.links]

    vectors = list(_bounded_vectors(floors, ceilings, m_total))
    if not vectors:
        raise RuntimeError(
            "brute_force_minmax: no blocklength vector lies between the "
            "floors and ceilings"
        )
    ms = np.array(vectors, dtype=float)
    base = LN2 * d / ms
    roots = np.sqrt(ms)
    gain_row = np.array(gains)

    def energy_at(margins: np.ndarray) -> np.ndarray:
        # sum of min_power_for_target(h_i, m_i, D, g) * m_i per vector
        exponent = base + margins[:, None] / roots
        with np.errstate(over="ignore"):
            snr = np.maximum(np.expm1(exponent), 0.0)
            powers = np.where(exponent > _EXP_OVERFLOW, np.inf, snr / gain_row)
            return np.sum(powers * ms, axis=1)

    # from the margin at which every power is zero, so the search starts
    # affordable
    margins = _largest_affordable_margins(
        energy_at, np.min(-LN2 * d / roots, axis=1), budget
    )
    best = int(np.argmax(margins))  # the first of equal best margins
    best_g = float(margins[best])
    best_m = vectors[best]
    candidates = len(vectors)
    powers = [min_power_for_target(h, m, d, best_g) for h, m in zip(gains, best_m)]
    clamped = tuple(i for i, p in enumerate(powers) if p == 0.0)
    return _build_report(
        scenario,
        powers,
        best_m,
        solver_name="brute_force_minmax",
        iterations=candidates,
        trace=((candidates, best_g),),
        converged=True,
        clamped=clamped,
        enforce_energy_budget=True,
    )


def _bounded_vectors(floors: list[int], ceilings: list[int], m_total: int):
    """Yield every integer vector with floors <= m <= ceilings and
    sum(m) <= m_total, in lexicographic order."""
    n = len(floors)
    if n == 1:
        for m1 in range(floors[0], min(ceilings[0], m_total) + 1):
            yield (m1,)
    elif n == 2:
        for m1 in range(floors[0], min(ceilings[0], m_total - floors[1]) + 1):
            for m2 in range(floors[1], min(ceilings[1], m_total - m1) + 1):
                yield (m1, m2)
    else:
        for m1 in range(
            floors[0], min(ceilings[0], m_total - floors[1] - floors[2]) + 1
        ):
            for m2 in range(
                floors[1], min(ceilings[1], m_total - m1 - floors[2]) + 1
            ):
                for m3 in range(
                    floors[2], min(ceilings[2], m_total - m1 - m2) + 1
                ):
                    yield (m1, m2, m3)
