"""Brute-force verification oracles for the allocators.

Exact searches that certify both solver families up to the figures'
n = 10: brute_force_energy checks symbol_sharing, and brute_force_minmax
checks solve_joint_minmax. Both stand on one exact min-plus search,
_least_energy, over every integer blocklength split within the symbol
budget, with each blocklength priced by the scalar min_power_for_target.
They share no search code or tables with the solvers they check: not the
numpy c_g tables or the greedy split, and not the Newton margin solve
(_split_margin). The energy oracle runs that search once, at the target
margin. The min-max oracle takes no floors: it bisects on g for the
largest margin whose least energy fits the budget, decides below margin
0 itself, and prices the split at that margin with min_power_for_target,
not with the powers the margin solve returns. Only oracle-check and the
tests import this module.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .allocators import (
    _REL_IMPROVEMENT,
    Allocation,
    SolveReport,
    _build_report,
    _check_symbol_cover,
    _energy_floors,
)
from .channel_model import Scenario
from .exceptions import InfeasibleError
from .fbl_core import LN2, min_power_for_target, q_inverse

# the largest n * M^2 either oracle accepts: about the number of terms
# one least-energy search compares
_MAX_SEARCH_COST = 10 * 1000**2


def _least_energy(
    scenario: Scenario, g: float, floors: list[int]
) -> tuple[float, list[int]]:
    """The least total energy at margin g over every integer blocklength
    split with sum(m) <= symbol_budget and each m_i >= floors[i], and the
    first split of that energy in lexicographic order.

    Each vehicle's energy at m symbols is min_power_for_target at margin g
    times m; the least sum is exact by min-plus. The energy is inf when no
    split has a finite one. Raises InfeasibleError when M < n, and
    ValueError when n * M^2 passes _MAX_SEARCH_COST.
    """
    cfg = scenario.config
    n = scenario.n_vehicles
    m_total = cfg.symbol_budget
    if n * m_total**2 > _MAX_SEARCH_COST:
        raise ValueError(
            f"an oracle search is limited to n * M^2 <= {_MAX_SEARCH_COST}, "
            f"got n={n}, M={m_total}"
        )
    _check_symbol_cover(m_total, n)  # so the walk below has a symbol per vehicle
    d = cfg.payload_bits

    # rows[i][m - 1]: vehicle i's energy at blocklength m, the product the
    # report sums, and inf below the vehicle's floor
    rows = np.full((n, m_total), np.inf)
    for row, link, floor in zip(rows, scenario.links, floors):
        row[floor - 1 :] = [
            min_power_for_target(link.norm_gain, m, d, g) * m
            for m in range(floor, m_total + 1)
        ]
    # two finite energies may sum past the float range; inf is their sum
    with np.errstate(over="ignore"):
        # after[i][k]: the least energy of the vehicles after vehicle i
        # within k symbols, for k = 0..M. Nothing comes after the last
        # vehicle, so its table is zero, and each vehicle from the last
        # to the second adds its row by one min-plus step: the least of
        # its terms at each k, inf at k = 0 where it has none
        after = [np.zeros(m_total + 1)]
        for row in rows[:0:-1]:
            # tails[k][m - 1] = after[0][k - m], inf where m > k
            padded = np.concatenate((np.full(m_total, np.inf), after[0]))
            tails = sliding_window_view(padded, m_total)[: m_total + 1, ::-1]
            after.insert(0, (row + tails).min(axis=1))

        # walk the vehicles in order, each taking the first blocklength of
        # least energy with the symbols the ones before it left
        energy = float(_terms(rows[0], after[0], m_total).min())
        split = []
        left = m_total
        for row, tail in zip(rows, after):
            split.append(int(np.argmin(_terms(row, tail, left))) + 1)
            left -= split[-1]
    return energy, split


def _terms(row: np.ndarray, tail: np.ndarray, k: int) -> np.ndarray:
    """row[m - 1] + tail[k - m] for m = 1..k: one vehicle's energy at m
    symbols plus the least energy of the vehicles after it within the
    other k - m."""
    return row[:k] + tail[:k][::-1]


def brute_force_energy(scenario: Scenario) -> SolveReport:
    """Exhaustive minimum of total energy over integer blocklength splits.

    Verification oracle for symbol_sharing: the least-energy search
    (_least_energy) at the same target margin q_inverse(target_eps), over
    the same floors symbol_sharing respects. iterations counts the terms
    compared: M(M + 1)/2 per min-plus step, and each walk step's window.
    """
    cfg = scenario.config
    n = scenario.n_vehicles
    m_total = cfg.symbol_budget
    gt = q_inverse(cfg.target_eps)
    best_energy, best_m = _least_energy(scenario, gt, _energy_floors(scenario))
    if not math.isfinite(best_energy):
        raise InfeasibleError(
            "no finite-energy allocation exists within the symbol budget "
            "for this reliability target"
        )
    windows = itertools.accumulate(best_m[:-1], operator.sub, initial=m_total)
    compared = (n - 1) * m_total * (m_total + 1) // 2 + sum(windows)
    powers = [
        min_power_for_target(link.norm_gain, m, cfg.payload_bits, gt)
        for link, m in zip(scenario.links, best_m)
    ]
    # the public constructor's per-entry checks, which _build_report skips
    answer = Allocation(tuple(powers), tuple(best_m))
    return _build_report(
        scenario,
        answer.powers,
        answer.blocklengths,
        solver_name="brute_force_energy",
        iterations=compared,
        converged=True,
        enforce_energy_budget=False,
        total_energy=math.fsum(map(operator.mul, powers, best_m)),
    )


def brute_force_minmax(scenario: Scenario) -> SolveReport:
    """Exhaustive max-min margin over integer blocklength splits.

    Verification oracle for solve_joint_minmax: the largest margin g at
    which the least energy over every split with each m_i >= 1
    (_least_energy) fits the energy budget, by its own scalar search, not
    the solvers' Newton steps. It starts at g = -ln2 * D, where every
    power is zero at every m >= 1, doubles its step upward until the
    budget no longer covers g, then bisects until the floats are used up
    or the energy is within _REL_IMPROVEMENT of the budget. The answer is
    the first least split at the last affordable g. iterations counts the
    least-energy searches. Raises InfeasibleError when M < n or when that
    g is below 0.
    """
    cfg = scenario.config
    budget = cfg.energy_budget
    ones = [1] * scenario.n_vehicles
    searches = 0

    def least(g: float) -> tuple[float, list[int]]:
        nonlocal searches
        searches += 1
        return _least_energy(scenario, g, ones)

    # the budget covers the start, at zero energy; every affordable g met
    # on the way replaces it and its split
    zero_power = -LN2 * cfg.payload_bits
    lo, best_m = zero_power, None
    step = 1.0
    while True:
        hi = zero_power + step
        energy, split = least(hi)
        # the closed-form power overflows to inf well before float limits,
        # so this ends
        if energy > budget:
            break
        lo, best_m = hi, split
        step *= 2.0

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # floats exhausted
        energy, split = least(mid)
        if energy > budget:
            hi = mid
        else:
            lo, best_m = mid, split
            if budget - energy <= _REL_IMPROVEMENT * budget:
                break
    if lo < 0.0:
        raise InfeasibleError(
            f"energy budget {budget:.6g} J affords at most margin "
            f"g = {lo:.6g} over every split, below the margin floor 0"
        )
    # priced by min_power_for_target, not by the solvers' margin solve
    powers = [
        min_power_for_target(link.norm_gain, m, cfg.payload_bits, lo)
        for link, m in zip(scenario.links, best_m)
    ]
    # the public constructor's per-entry checks, which _build_report skips
    answer = Allocation(tuple(powers), tuple(best_m))
    return _build_report(
        scenario,
        answer.powers,
        answer.blocklengths,
        solver_name="brute_force_minmax",
        iterations=searches,
        converged=True,
        enforce_energy_budget=True,
        total_energy=math.fsum(map(operator.mul, powers, best_m)),
    )
