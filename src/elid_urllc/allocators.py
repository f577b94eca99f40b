"""Power and blocklength allocation for the shared downlink.

Two families of solvers over n vehicles, a symbol budget M, and an
energy budget E, built on one primitive: the least total energy that
gives every link margin g using at most M symbols.

A link with normalized gain h meets margin g at blocklength m with
energy c_g(m) / h, where c_g(m) = m * expm1(ln2 * D / m + g / sqrt(m))
(clamped at zero) does not depend on h. fbl_core owns every evaluation
of c_g and its inverse: the split tables, the fixed-power margin matrix,
and the min-max solvers' common-margin solve (_split_margin), whose
powers and total energy the reports take as they are. c_g is convex
and decreasing up to its first minimizer m*, and past m* it does not
decrease. Least total energy is therefore a separable convex allocation
of symbols, and granting symbols one at a time to the largest marginal
saving (c_g(m) - c_g(m + 1)) / h_i is exact (Fox 1966; Federgruen &
Groenevelt 1986). No saving past m* is positive, so no vehicle gets more
than max(m*, its floor) symbols and the budget is not always spent.

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
blocklength, so that greedy takes the smallest entries of the margin
matrix, as the primitive takes the largest of its savings: both grants
are one selection, ties in row-major order. It partitions one flat copy
of the matrix in place for the k-th smallest entry t (_kth_smallest),
then counts each row's entries up to t (_counts_at_most).

Every solver reads its targets from the scenario's config: the energy
solvers meet margin q_inverse(target_eps), and the fixed-power solver
transmits at common_power_value(). The brute-force oracles that check
both families live in oracles. Everything runs in margin space;
probabilities appear only inside reports.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel_model import Scenario
from .exceptions import InfeasibleError
from .fbl_core import (
    ReliabilityMargin,
    _build_split_tables,
    _margin_matrix,
    _power,
    _split_margin,
    min_blocklength,
    q_inverse,
    reliability_margin,
)

# The joint rounds and the min-max oracle's bisection stop once the energy
# is within this fraction of the budget; _split_margin stops at <= budget.
_REL_IMPROVEMENT = 1e-12
# Safety cap; the joint min-max solve takes about three split rounds.
_MAX_SPLIT_ROUNDS = 64


@dataclass(frozen=True, slots=True)
class Allocation:
    """Per-vehicle transmit powers (W) and integer blocklengths.

    The constructor checks every entry: equal, nonzero lengths, powers
    finite and >= 0, blocklengths ints >= 1. _build_report fills the
    slots of a solver's answer without that per-entry loop; each solver
    hands it float powers and int blocklengths that pass these checks.
    """

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


_margin_g = operator.attrgetter("g")


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Solver output: the allocation plus everything needed to audit it.

    Every solver builds it through _build_report. iterations counts the
    solver's unit of work:
    - symbol_sharing, equal_allocation: 1, one closed-form solve.
    - power_minmax_fixed_m: Newton energy evaluations.
    - symbols_minmax_fixed_p: the M - n spare-symbol grants.
    - joint_minmax: split rounds, the start included.
    - brute_force_energy: terms compared.
    - brute_force_minmax: candidates scored.
    converged is False only where a cap ended the search.
    """

    allocation: Allocation
    margins: tuple[ReliabilityMargin, ...]
    total_energy: float
    iterations: int
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
        return min(self.margins, key=_margin_g)


# _build_report fills a report's slots through their descriptors, as the
# frozen __init__ does: about 0.5 us against 1.0 us for SolveReport(...)
# (timeit on a 2-core VM), and an allocation's the same way, without
# Allocation.__post_init__'s per-entry checks
_set_powers = Allocation.powers.__set__
_set_blocklengths = Allocation.blocklengths.__set__
_set_allocation = SolveReport.allocation.__set__
_set_margins = SolveReport.margins.__set__
_set_total_energy = SolveReport.total_energy.__set__
_set_iterations = SolveReport.iterations.__set__
_set_converged = SolveReport.converged.__set__
_set_solver_name = SolveReport.solver_name.__set__


def _check_symbol_cover(m_total: int, n: int) -> None:
    if m_total < n:
        raise InfeasibleError(
            f"symbol budget {m_total} cannot cover {n} vehicles at one symbol each"
        )


def _equal_split(total: int, n: int) -> list[int]:
    # floor(total/n) each, remainder to the lowest vehicle ids
    _check_symbol_cover(total, n)
    base, remainder = divmod(total, n)
    return [base + 1] * remainder + [base] * (n - remainder)


def _build_report(
    scenario: Scenario,
    powers,
    blocklengths,
    *,
    solver_name: str,
    iterations: int,
    converged: bool,
    enforce_energy_budget: bool,
    total_energy: float,
) -> SolveReport:
    """The report of one answer, every record built positionally in field
    order. total_energy is math.fsum of powers times blocklengths, summed
    once where the answer is priced: min_energy_fixed_m, _split_margin,
    or the fixed-power solver and the oracles themselves.

    No record's constructor runs here: the Allocation, SolveReport and
    ReliabilityMargin (reliability_margin) slots are filled through their
    descriptors. So the allocation skips Allocation's per-entry checks,
    and each caller passes one float power (finite, >= 0) and one int
    blocklength (>= 1) per vehicle; tests re-box every solver's answer
    through Allocation(...) to hold them to that, and the two oracles
    pass theirs through it first. The budget checks below do run, under
    python -O too.
    """
    cfg = scenario.config
    d = cfg.payload_bits
    powers = tuple(powers)
    blocklengths = tuple(blocklengths)
    allocation = object.__new__(Allocation)
    _set_powers(allocation, powers)
    _set_blocklengths(allocation, blocklengths)
    margins = tuple([
        reliability_margin(p * link.norm_gain, m, d)
        for link, p, m in zip(scenario.links, powers, blocklengths)
    ])
    # solver invariants, checked explicitly so they also hold under python -O
    spent = sum(blocklengths)
    if spent > cfg.symbol_budget:
        raise RuntimeError(
            f"{solver_name}: blocklengths sum to {spent}, "
            f"exceeding the symbol budget {cfg.symbol_budget}"
        )
    if enforce_energy_budget and total_energy > cfg.energy_budget * (1.0 + 1e-9):
        raise RuntimeError(
            f"{solver_name}: total energy {total_energy:.6g} J exceeds the "
            f"energy budget {cfg.energy_budget:.6g} J"
        )
    report = object.__new__(SolveReport)
    _set_allocation(report, allocation)
    _set_margins(report, margins)
    _set_total_energy(report, total_energy)
    _set_iterations(report, iterations)
    _set_converged(report, converged)
    _set_solver_name(report, solver_name)
    return report


# ---------------------------------------------------------------------------
# energy minimization at a fixed reliability target


def _checked_blocklengths(scenario: Scenario, blocklengths) -> list[int]:
    """The fixed-m entry points' blocklengths as ints (operator.index: no
    floats, numpy integers pass), one per vehicle, each >= 1, summing to
    at most the symbol budget; ValueError otherwise."""
    try:
        m_vec = list(map(operator.index, blocklengths))
    except TypeError:
        raise ValueError(f"blocklengths must be integers, got {blocklengths!r}") from None
    if len(m_vec) != scenario.n_vehicles:
        raise ValueError(f"expected {scenario.n_vehicles} blocklengths, got {len(m_vec)}")
    if min(m_vec) < 1:
        raise ValueError("blocklengths must all be >= 1")
    if sum(m_vec) > scenario.config.symbol_budget:
        raise ValueError(
            f"blocklengths sum to {sum(m_vec)}, exceeding the symbol "
            f"budget {scenario.config.symbol_budget}"
        )
    return m_vec


def min_energy_fixed_m(
    scenario: Scenario, blocklengths
) -> tuple[tuple[float, ...], float]:
    """Cheapest powers meeting the config's target margin
    q_inverse(target_eps) at fixed blocklengths.

    Per vehicle the binding constraint is solved in closed form, so the
    result is exact (clamped at zero where the target is already met).
    Each power is priced by fbl_core's unchecked kernel _power: the
    blocklengths are checked here, the gains by VehicleLink, D by
    SystemConfig and the margin by q_inverse.
    Returns (powers, total_energy). Raises ValueError as
    _checked_blocklengths does, and InfeasibleError when the total is
    not finite: no finite energy meets the target at these blocklengths.
    """
    m_vec = _checked_blocklengths(scenario, blocklengths)
    gt = q_inverse(scenario.config.target_eps)
    d = scenario.config.payload_bits
    powers = tuple([
        _power(link.norm_gain, m, d, gt) for link, m in zip(scenario.links, m_vec)
    ])
    try:
        total = math.fsum(map(operator.mul, powers, m_vec))
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


# symbol_sharing asks for the same (D, g, M) tables on every solve of a
# configuration, and the joint solver starts from those same tables at the
# target margin, so both add one entry per configuration. The joint
# solver's later per-round g never repeats, so those rounds call
# _build_split_tables directly and evict nothing here. The cached arrays
# are shared by every caller, so they are made read-only.
@functools.lru_cache(maxsize=16)
def _split_tables(payload_bits: int, g_target: float, m_total: int):
    tables = _build_split_tables(payload_bits, g_target, m_total)
    tables[0].flags.writeable = tables[1].flags.writeable = False
    return tables


def _kth_smallest(matrix: np.ndarray, k: int):
    """The k-th smallest entry of matrix: np.partition(matrix, k - 1,
    axis=None)[k - 1], by partitioning one flat copy in place, the copy
    that wrapper makes anyway."""
    flat = matrix.ravel().copy()
    flat.partition(k - 1)
    return flat[k - 1]


def _counts_at_most(matrix: np.ndarray, t, k: int) -> np.ndarray:
    """Per row of matrix, how many of its k smallest entries it holds,
    where t is the k-th smallest entry (np.partition(matrix, k - 1,
    axis=None)[k - 1], which _kth_smallest takes from one flat copy
    partitioned in place) and ties go in row-major order: bit for bit
    np.bincount(matrix.argsort(axis=None, kind="stable")[:k] // width),
    whatever the order within rows. Every entry below t counts; when the
    entries equal to t overshoot k, the surplus comes off the last rows
    first. Rows are counted by np.add.reduce of the mask, which is what
    .sum(axis=1) reaches through two more Python frames.
    """
    counts = np.add.reduce(matrix <= t, axis=1)
    surplus = sum(counts.tolist()) - k
    if surplus > 0:
        ties = np.add.reduce(matrix == t, axis=1)
        # ties in the rows after each row, then what that row gives back
        later = ties[::-1].cumsum()[::-1] - ties
        counts -= np.clip(surplus - later, 0, ties)
    return counts


class _SplitSetup:
    """The least-energy split of one solve: blocklengths m >= floors with
    sum(m) <= M that minimize sum(table[m_i - 1] / gains[i]), for tables
    = (table, steps, m_star) of length M from fbl_core._build_split_tables.

    Every vehicle starts at its floor, and each spare symbol goes to the
    largest positive marginal saving steps[m - 1] / h_i, ties to the
    lowest vehicle id. table is convex and decreasing up to m_star, so
    each vehicle's savings only fall as it gains symbols and the greedy
    is exact; past m_star no saving is positive. Granting one symbol at a
    time to the largest saving takes the same steps as taking the
    largest spare entries of the savings at once, which is one selection
    (a partition of one flat copy in place, _kth_smallest, then
    _counts_at_most), ties in row-major order: to the lowest id and then
    the lowest m. A vehicle takes at most
    w = min(spare, m_star - 1) symbols, so only its window
    steps[f_i - 1 : f_i - 1 + w] is selected from; no window passes index
    M - 2, because spare <= M - sum(floors).

    What does not depend on the margin is built once per solve: the
    floors, the spare symbols, the column of negated gains, whether any
    gain is below 1 (only then can the savings' divide overflow) and the
    window index. step(tables) splits at one table; the index grows
    only when a table needs a wider window than any before it (m_star
    mostly grows with g), and a narrower one reads its leading columns.
    symbol_sharing sets up and steps once; the joint solver sets up
    once and steps every round.
    """

    __slots__ = ("gains", "floors", "spare", "neg_gains", "small_gain", "index")

    def __init__(self, gains, floors, m_total: int) -> None:
        self.gains = np.asarray(gains, dtype=float)
        self.floors = np.asarray(floors)
        self.spare = m_total - sum(floors)
        self.neg_gains = -self.gains[:, None]
        # finite steps lie in [-DBL_MAX, DBL_MAX] and inf divides exactly,
        # so only a gain below 1 can overflow the savings' divide
        self.small_gain = min(gains) < 1.0
        self.index = None

    def step(self, tables) -> np.ndarray:
        """The split at tables as an int array of blocklengths."""
        _, steps, m_star = tables
        width = min(self.spare, m_star - 1)
        if width <= 0:
            return self.floors
        index = self.index
        if index is None or width > index.shape[1]:
            # row i is f_i - 1 + arange(width)
            index = self.index = self.floors[:, None] + np.arange(-1, width - 1)
        elif width < index.shape[1]:
            index = index[:, :width]
        # -(steps / h) bit for bit. A finite step over a gain below 1 can
        # pass DBL_MAX; its saving then reads +-inf, which ranks against
        # every finite saving as the true one does, and a saving of -inf
        # is never granted. Entering np.errstate costs about 3 us a step,
        # 6% of a joint solve at M=200, so it is entered only then
        if self.small_gain:
            with np.errstate(over="ignore"):
                neg_savings = steps[index] / self.neg_gains
        else:
            neg_savings = steps[index] / self.neg_gains
        # Only positive savings are granted: when the spare-th largest
        # saving is positive (its negation t < 0), exactly spare of them
        # are, one selection of the smallest neg_savings, ties in
        # row-major order; otherwise every positive one is
        spare = self.spare
        if spare < neg_savings.size:
            t = _kth_smallest(neg_savings, spare)
            if t < 0.0:
                return self.floors + _counts_at_most(neg_savings, t, spare)
        return self.floors + np.add.reduce(neg_savings < 0.0, axis=1)


def symbol_sharing(scenario: Scenario) -> SolveReport:
    """Minimize total energy at the target margin g = q_inverse(target_eps)
    on every link.

    The blocklengths are the least-energy split at g over the
    energy-budget floors (see _SplitSetup): exact, and it stops
    each vehicle at max(m*, its floor), where m* minimizes c_g (365 at
    D=160, eps=1e-9 when M >= 365), so fewer than M symbols may be spent.
    The split reads the (D, g, M) tables from a bounded cache, so
    repeated solves of one configuration build them once. The powers are
    the closed-form minimum at those blocklengths. Raises
    InfeasibleError when the floors sum past the symbol budget or no
    split has finite energy (min_energy_fixed_m).
    """
    cfg = scenario.config
    m_total = cfg.symbol_budget
    floors = [1 if m is None else m for m in _energy_floors(scenario)]
    _check_floor_sum(floors, m_total)
    tables = _split_tables(cfg.payload_bits, q_inverse(cfg.target_eps), m_total)
    split = _SplitSetup([link.norm_gain for link in scenario.links], floors, m_total)
    return _energy_report(scenario, split.step(tables).tolist(), solver_name="symbol_sharing")


def equal_allocation_energy(scenario: Scenario) -> SolveReport:
    """Baseline: equal symbol split, closed-form powers at the target margin.

    Its report, like every solver's, is built and checked in
    _build_report. Raises InfeasibleError when M < n or no finite energy
    meets the target."""
    m_vec = _equal_split(scenario.config.symbol_budget, scenario.n_vehicles)
    return _energy_report(scenario, m_vec, solver_name="equal_allocation")


def _energy_report(scenario: Scenario, blocklengths, *, solver_name: str) -> SolveReport:
    """Report of an energy answer: the closed-form powers for the target
    margin at these blocklengths (min_energy_fixed_m), one iteration."""
    powers, total = min_energy_fixed_m(scenario, blocklengths)
    return _build_report(
        scenario,
        powers,
        blocklengths,
        solver_name=solver_name,
        iterations=1,
        converged=True,
        enforce_energy_budget=False,
        total_energy=total,
    )


# ---------------------------------------------------------------------------
# min-max reliability under the energy budget


def solve_power_minmax_fixed_m(scenario: Scenario, blocklengths) -> SolveReport:
    """Equalize reliability margins at fixed blocklengths.

    The min-max problem restricted to fixed blocklengths: the worst
    margin is maximized by spending the whole energy budget on a common
    margin, the largest g whose closed-form powers fit the budget, found
    by Newton steps on their energy (_split_margin, the joint solver's
    per-split step), within a few ulps. The powers and their total
    energy are the ones that solve settles on; they fit the budget, and
    at g >= 0 every power is positive. Raises ValueError as
    _checked_blocklengths does, and InfeasibleError, giving that largest
    g, when it is below margin 0 (eps 0.5).
    """
    cfg = scenario.config
    m_vec = _checked_blocklengths(scenario, blocklengths)
    d = cfg.payload_bits
    budget = cfg.energy_budget
    gains = [link.norm_gain for link in scenario.links]
    g, powers, energy, evaluations = _split_margin(m_vec, gains, d, budget)
    if g < 0.0:
        raise InfeasibleError(
            f"energy budget {budget:.6g} J affords at most margin g = {g:.6g} "
            "at these blocklengths, below the margin floor 0"
        )
    return _build_report(
        scenario,
        powers,
        m_vec,
        solver_name="power_minmax_fixed_m",
        iterations=evaluations,
        converged=True,
        enforce_energy_budget=True,
        total_energy=energy,
    )


def solve_symbols_minmax_fixed_p(scenario: Scenario) -> SolveReport:
    """Maximize the worst margin over integer blocklengths at the config's
    common transmit power (common_power_value()).

    Every vehicle starts at one symbol, and each spare symbol goes to
    the currently worst vehicle (ties to the lowest vehicle_id). A
    vehicle's margin depends only on its own blocklength, so the greedy
    is max-min optimal. Each row of the n x (M - n + 1) margin matrix
    strictly increases, so the greedy takes its entries in merged
    ascending order: its M - n grants are the M - n smallest entries,
    one selection (_kth_smallest, _counts_at_most), ties in row-major
    order. Raises InfeasibleError when that power across all M symbols
    costs more than the energy budget.
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
    if grants:
        snrs = [p_common * link.norm_gain for link in scenario.links]
        margins = _margin_matrix(snrs, cfg.payload_bits, m_total, grants + 1)
        t = _kth_smallest(margins, grants)
        m_vec = (1 + _counts_at_most(margins, t, grants)).tolist()
    else:
        m_vec = [1] * n
    powers = [p_common] * n
    return _build_report(
        scenario,
        powers,
        m_vec,
        solver_name="symbols_minmax_fixed_p",
        iterations=grants,
        converged=True,
        enforce_energy_budget=True,
        total_energy=math.fsum(map(operator.mul, powers, m_vec)),
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


def solve_joint_minmax(scenario: Scenario) -> SolveReport:
    """Max-min margin over powers and integer blocklengths jointly.

    A margin g is reachable exactly when the least energy that gives
    every link margin g within the symbol budget (the split of
    _SplitSetup over _minmax_floors) fits the energy budget; the answer
    is the largest such g. Each round takes the least-energy split at the
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
    strictly in g where it is positive, so no larger g fits. converged
    is False only if the round cap ended the loop. Powers are the
    closed-form minimum for g at the last split, as the margin solve of
    that split returns them with their energy (_split_margin), which fits
    the budget.
    The split is set up once per solve, and each round, the start
    included, is one step of it at that round's table.
    """
    cfg = scenario.config
    d = cfg.payload_bits
    m_total = cfg.symbol_budget
    budget = cfg.energy_budget
    gains = [link.norm_gain for link in scenario.links]
    # one split setup for every round; _split_margin runs on the python
    # floats
    split = _SplitSetup(gains, _minmax_floors(scenario), m_total)

    m_vec = split.step(_split_tables(d, q_inverse(cfg.target_eps), m_total)).tolist()
    g, powers, energy, _ = _split_margin(m_vec, gains, d, budget)
    converged = False
    for rounds in range(2, _MAX_SPLIT_ROUNDS + 1):
        tables = _build_split_tables(d, g, m_total)
        next_arr = split.step(tables)
        next_m = next_arr.tolist()
        unchanged = next_m == m_vec
        if not unchanged:
            # its least energy at g: at most the budget, so finite, since
            # the last split, which affords g, was a candidate
            least = float((tables[0][next_arr - 1] / split.gains).sum())
            m_vec = next_m
            g, powers, energy, _ = _split_margin(m_vec, gains, d, budget)
        if unchanged or not least < budget * (1.0 - _REL_IMPROVEMENT):
            converged = True
            break
    return _build_report(
        scenario,
        powers,
        m_vec,
        solver_name="joint_minmax",
        iterations=rounds,
        converged=converged,
        enforce_energy_budget=True,
        total_energy=energy,
    )
