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
there are finitely many splits, so this takes a few rounds. They start
from the least-energy split at the target margin q_inverse(target_eps),
whose tables symbol_sharing caches. The fixed-m variant is one such
Newton margin solve at its fixed blocklengths. The fixed-power variant
grants each spare symbol to the worst link; margins rise strictly with
blocklength, so that greedy is one stable sort of the margin matrix, the
same merge the primitive makes of its savings.

Every solver reads its targets from the scenario's config: the energy
solvers meet margin q_inverse(target_eps), and the fixed-power solver
transmits at common_power_value(). The brute-force oracles that check
both families live in oracles. Everything runs in margin space;
probabilities appear only inside reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel_model import Scenario
from .exceptions import InfeasibleError
from .fbl_core import (
    LN2,
    ReliabilityMargin,
    min_blocklength,
    min_power_for_target,
    q_inverse,
    reliability_margin,
)

# The margin searches stop once the energy they settle on is within this
# fraction of the budget.
_REL_IMPROVEMENT = 1e-12
# Safety caps; the joint min-max solve takes about three split rounds and
# about seven Newton steps per margin solve.
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


@dataclass(frozen=True)
class SolveReport:
    """Solver output: the allocation plus everything needed to audit it."""

    allocation: Allocation
    margins: tuple[ReliabilityMargin, ...]
    total_energy: float
    iterations: int
    trace: tuple[tuple[int, float], ...]
    converged: bool
    solver_name: str

    @property
    def clamped(self) -> tuple[int, ...]:
        """Ids of the vehicles at zero power: their target is already met
        with no energy, so the closed form clamps their power at zero."""
        return tuple(i for i, p in enumerate(self.allocation.powers) if p == 0.0)

    @property
    def worst_margin(self) -> ReliabilityMargin:
        """The smallest per-vehicle margin, the first on ties."""
        return min(self.margins, key=lambda margin: margin.g)


def _check_symbol_cover(m_total: int, n: int) -> None:
    if m_total < n:
        raise InfeasibleError(
            f"symbol budget {m_total} cannot cover {n} vehicles at one symbol each"
        )


def _equal_split(total: int, n: int) -> list[int]:
    # floor(total/n) each, remainder to the lowest vehicle ids
    _check_symbol_cover(total, n)
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
        total_energy=total_energy,
        iterations=iterations,
        trace=tuple(trace),
        converged=converged,
        solver_name=solver_name,
    )


# ---------------------------------------------------------------------------
# energy minimization at a fixed reliability target


def min_energy_fixed_m(
    scenario: Scenario, blocklengths
) -> tuple[tuple[float, ...], float]:
    """Cheapest powers meeting the config's target margin
    q_inverse(target_eps) at fixed blocklengths.

    Per vehicle the binding constraint is solved in closed form, so the
    result is exact (clamped at zero where the target is already met).
    Returns (powers, total_energy). Raises InfeasibleError when the total
    is not finite: no finite energy meets the target at these
    blocklengths.
    """
    gt = q_inverse(scenario.config.target_eps)
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
    try:
        total = math.fsum(p * m for p, m in zip(powers, m_vec))
    except OverflowError:  # finite energies summing past the float range
        total = math.inf
    if not math.isfinite(total):
        raise InfeasibleError(
            "no finite-energy allocation exists within the symbol budget "
            "for this reliability target"
        )
    return powers, total


def _energy_floors(scenario: Scenario) -> list[int | None]:
    """Each link's energy-feasibility blocklength bound: the least m <= M
    at which the energy budget affords a positive margin
    (min_blocklength), or None where no m <= M does.

    The min-max solvers raise on None (_minmax_floors). The energy
    objective itself carries no budget, so the energy solvers take the
    trivial floor of one symbol there instead of an infeasibility error.
    """
    cfg = scenario.config
    return [
        min_blocklength(
            link.norm_gain * cfg.energy_budget, cfg.payload_bits, cfg.symbol_budget
        )
        for link in scenario.links
    ]


def _check_floor_sum(floors: list[int], m_total: int) -> None:
    if sum(floors) > m_total:
        raise InfeasibleError(
            f"minimum blocklengths sum to {sum(floors)}, exceeding the "
            f"symbol budget {m_total}"
        )


@functools.lru_cache(maxsize=16)
def _table_axes(
    payload_bits: int, m_total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The margin-free parts of c_g for m = 1..m_total, read-only: (ms,
    ln2 * D / ms, sqrt(ms)). Every c_g table of one (D, M) shares them,
    so a joint min-max round computes only the g-dependent part."""
    ms = np.arange(1, m_total + 1, dtype=float)
    axes = (ms, LN2 * payload_bits / ms, np.sqrt(ms))
    for axis in axes:
        axis.flags.writeable = False
    return axes


def _energy_gain_table(payload_bits: int, g_target: float, m_total: int) -> np.ndarray:
    """c_g(m) = m * expm1(ln2 * D / m + g / sqrt(m)) for m = 1..m_total,
    from the cached margin-free axes (_table_axes).

    The energy-gain product that meets margin g_target at blocklength m,
    clamped at zero like min_power_for_target and inf where the exponent
    overflows. It does not depend on the channel gain: a vehicle's
    energy at blocklength m is table[m - 1] / norm_gain.
    """
    ms, base, roots = _table_axes(payload_bits, m_total)
    exponent = base + g_target / roots
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
# configuration, and the joint solver starts from those same tables at the
# target margin, so both add one entry per configuration. The joint
# solver's later per-round g never repeats, so those rounds call
# _build_split_tables directly and evict nothing here.
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
    # a sum past the float range reads as inf, as an inf entry does
    with np.errstate(over="ignore"):
        least = float(np.sum(table[m_vec - 1] / gains))
    return m_vec.tolist(), least


def symbol_sharing(scenario: Scenario) -> SolveReport:
    """Minimize total energy at the target margin g = q_inverse(target_eps)
    on every link.

    The blocklengths are the least-energy split at g over the
    energy-budget floors (see _least_energy_split): exact, and it stops
    each vehicle at max(m*, its floor), where m* minimizes c_g (365 at
    D=160, eps=1e-9 when M >= 365), so fewer than M symbols may be spent.
    The split reads the (D, g, M) tables from a bounded cache, so
    repeated solves of one configuration build them once. The powers are
    the closed-form minimum at those blocklengths. Raises
    InfeasibleError when the floors sum past the symbol budget or no
    split has finite energy (min_energy_fixed_m).
    """
    cfg = scenario.config
    gt = q_inverse(cfg.target_eps)
    floors = [1 if m is None else m for m in _energy_floors(scenario)]
    _check_floor_sum(floors, cfg.symbol_budget)
    m_vec, _ = _least_energy_split(
        _split_tables(cfg.payload_bits, gt, cfg.symbol_budget),
        [link.norm_gain for link in scenario.links],
        floors,
    )
    powers, energy = min_energy_fixed_m(scenario, m_vec)
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


def equal_allocation_energy(scenario: Scenario) -> tuple[Allocation, float]:
    """Baseline: equal symbol split, closed-form powers at the target margin.
    Raises InfeasibleError when M < n or no finite energy meets the target."""
    m_vec = _equal_split(scenario.config.symbol_budget, scenario.n_vehicles)
    powers, total = min_energy_fixed_m(scenario, m_vec)
    allocation = Allocation(powers=powers, blocklengths=tuple(m_vec))
    return allocation, total


# ---------------------------------------------------------------------------
# min-max reliability under the energy budget


def _minmax_report(
    scenario: Scenario,
    gains,
    blocklengths,
    g: float,
    *,
    solver_name: str,
    iterations: int,
    trace,
    converged: bool = True,
) -> SolveReport:
    """Report of a min-max answer: the closed-form powers for margin g at
    these blocklengths, held to the energy budget."""
    d = scenario.config.payload_bits
    powers = [min_power_for_target(h, m, d, g) for h, m in zip(gains, blocklengths)]
    return _build_report(
        scenario,
        powers,
        blocklengths,
        solver_name=solver_name,
        iterations=iterations,
        trace=trace,
        converged=converged,
        enforce_energy_budget=True,
    )


def solve_power_minmax_fixed_m(scenario: Scenario, blocklengths) -> SolveReport:
    """Equalize reliability margins at fixed blocklengths.

    The min-max problem restricted to fixed blocklengths: the worst
    margin is maximized by spending the whole energy budget on a common
    margin, the largest g whose closed-form powers fit the budget, found
    by Newton steps on their energy (_split_margin, the joint solver's
    per-split step). iterations counts its energy evaluations. The
    powers fit the budget with no slack, and at g >= 0 every one is
    positive. Raises InfeasibleError, giving that largest g, when it is
    below margin 0 (eps 0.5).
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
    d = cfg.payload_bits
    budget = cfg.energy_budget
    gains = [link.norm_gain for link in scenario.links]
    g, evaluations = _split_margin(m_vec, gains, d, budget)
    if g < 0.0:
        raise InfeasibleError(
            f"energy budget {budget:.6g} J affords at most margin g = {g:.6g} "
            "at these blocklengths, below the margin floor 0"
        )
    return _minmax_report(
        scenario,
        gains,
        m_vec,
        g,
        solver_name="power_minmax_fixed_m",
        iterations=evaluations,
        trace=((evaluations, g),),
    )


def solve_symbols_minmax_fixed_p(scenario: Scenario) -> SolveReport:
    """Maximize the worst margin over integer blocklengths at the config's
    common transmit power (common_power_value()).

    Every vehicle starts at one symbol, and each spare symbol goes to
    the currently worst vehicle (ties to the lowest vehicle_id). A
    vehicle's margin depends only on its own blocklength, so the greedy
    is max-min optimal. Each row of the n x (M - n + 1) margin matrix
    strictly increases, so the greedy takes its entries in merged
    ascending order: one stable sort gives the grants (its first M - n
    entries) and the worst margin after each grant. Raises
    InfeasibleError when that power across all M symbols costs more than
    the energy budget.
    """
    cfg = scenario.config
    n = scenario.n_vehicles
    m_total = cfg.symbol_budget
    _check_symbol_cover(m_total, n)
    p_common = cfg.common_power_value()
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
    floors = _energy_floors(scenario)
    for link, floor in zip(scenario.links, floors):
        if floor is None:
            raise InfeasibleError(
                f"vehicle {link.vehicle_id}: the energy budget "
                f"{cfg.energy_budget:.6g} J cannot support any blocklength "
                f"up to {cfg.symbol_budget} at its channel gain"
            )
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
    are exact, the split by Fox and Federgruen & Groenevelt. Round 1
    takes the split at the target margin q_inverse(target_eps) from the
    cached tables symbol_sharing reads (_split_tables), and the first g
    is the one that split affords: any split within the floors and M
    affords a finite g, and this one is nearer the optimum than the
    floors. A split that affords g with energy to spare affords a
    strictly larger g, so g rises strictly over the finitely many
    splits. The rounds stop when the split is unchanged or its least
    energy is within _REL_IMPROVEMENT of the budget: least energy rises
    strictly in g where it is positive, so no larger g fits. iterations
    counts the rounds, the start included, trace holds (round, g) after
    each, and converged is False only if the round cap ended the loop.
    Powers are the closed-form minimum for g at the last split; their
    energy fits the budget with no slack.
    """
    cfg = scenario.config
    d = cfg.payload_bits
    m_total = cfg.symbol_budget
    budget = cfg.energy_budget
    floors = _minmax_floors(scenario)
    gains = [link.norm_gain for link in scenario.links]
    # the split's arrays; _split_margin runs on the python floats
    gain_arr = np.array(gains)
    floor_arr = np.array(floors)

    m_vec, _ = _least_energy_split(
        _split_tables(d, q_inverse(cfg.target_eps), m_total), gain_arr, floor_arr
    )
    g, _ = _split_margin(m_vec, gains, d, budget)
    trace = [(1, g)]
    converged = False
    for round_ in range(2, _MAX_SPLIT_ROUNDS + 1):
        next_m, least = _least_energy_split(
            _build_split_tables(d, g, m_total), gain_arr, floor_arr
        )
        unchanged = next_m == m_vec
        if not unchanged:
            m_vec = next_m
            g, _ = _split_margin(m_vec, gains, d, budget)
        trace.append((round_, g))
        if unchanged or not least < budget * (1.0 - _REL_IMPROVEMENT):
            converged = True
            break
    return _minmax_report(
        scenario,
        gains,
        m_vec,
        g,
        solver_name="joint_minmax",
        iterations=len(trace),
        trace=trace,
        converged=converged,
    )
