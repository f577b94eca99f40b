"""Brute-force verification oracles for the allocators.

Exhaustive searches over small instances (n <= 3) that certify both
solver families: brute_force_energy checks symbol_sharing, and
brute_force_minmax checks solve_joint_minmax. They share no search code
or tables with the solvers they check. The energy oracle prices each
blocklength with the scalar min_power_for_target, not the solvers'
numpy c_g tables. The min-max oracle takes no floors: it scores every
split of one symbol or more by its own expand-and-bisect on g, run over
all candidates at once, not by the solvers' Newton margin solve
(_split_margin) or least-energy split, decides below margin 0 itself,
and prices the best split with min_power_for_target, not with the
powers that margin solve returns. Only oracle-check and the tests
import this module.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

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
from .fbl_core import _EXP_OVERFLOW, LN2
from .fbl_core import min_power_for_target, q_inverse


def brute_force_energy(scenario: Scenario) -> SolveReport:
    """Exhaustive minimum of total energy over integer blocklength splits.

    Verification oracle for symbol_sharing: searches every m vector with
    sum(m) <= symbol_budget and m_i at or above the same floors
    symbol_sharing respects, at the same target margin
    q_inverse(target_eps), by an exact min-plus search that picks the
    first least split in lexicographic order. iterations counts the
    terms compared. Guarded to n <= 3 and M <= 1000.
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
    _check_symbol_cover(m_total, n)
    gt = q_inverse(cfg.target_eps)
    d = cfg.payload_bits
    floors = _energy_floors(scenario)

    # rows[i][m - 1]: vehicle i's energy at blocklength m, the product the
    # report sums, and inf below the vehicle's floor
    rows = np.full((n, m_total), np.inf)
    for row, link, floor in zip(rows, scenario.links, floors):
        row[floor - 1 :] = [
            min_power_for_target(link.norm_gain, m, d, gt) * m
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
        compared = 0
        for row in rows[:0:-1]:
            least = [_terms(row, after[0], k).min(initial=np.inf) for k in range(m_total + 1)]
            after.insert(0, np.array(least))
            compared += m_total * (m_total + 1) // 2

        # walk the vehicles in order, each taking the first blocklength of
        # least energy with the symbols the ones before it left
        best_energy = float(_terms(rows[0], after[0], m_total).min())
        best_m = []
        left = m_total
        for row, tail in zip(rows, after):
            best_m.append(int(np.argmin(_terms(row, tail, left))) + 1)
            compared += left
            left -= best_m[-1]

    if not math.isfinite(best_energy):
        raise InfeasibleError(
            "no finite-energy allocation exists within the symbol budget "
            "for this reliability target"
        )
    powers = [
        min_power_for_target(link.norm_gain, m, d, gt)
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


def _terms(row: np.ndarray, tail: np.ndarray, k: int) -> np.ndarray:
    """row[m - 1] + tail[k - m] for m = 1..k: one vehicle's energy at m
    symbols plus the least energy of the vehicles after it within the
    other k - m."""
    return row[:k] + tail[:k][::-1]


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


def brute_force_minmax(scenario: Scenario) -> SolveReport:
    """Exhaustive max-min margin over integer blocklength vectors.

    Verification oracle for solve_joint_minmax: enumerates every m
    vector with each m_i >= 1 and sum(m) <= symbol_budget (161,700 at
    n=3, M=100) and scores each by the largest common margin its
    closed-form powers afford, bisected on g from the margin at which
    every power is zero with all vectors stepped at once
    (_largest_affordable_margins, not the solvers' Newton steps). Raises
    InfeasibleError when M < n or, giving it, when the best margin is
    below 0. Guarded to n <= 3 and M <= 100.
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
    _check_symbol_cover(m_total, n)  # so at least (1, ..., 1) is enumerated
    d = cfg.payload_bits
    budget = cfg.energy_budget
    gains = [link.norm_gain for link in scenario.links]

    vectors = list(_bounded_vectors(n, m_total))
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
    if best_g < 0.0:
        raise InfeasibleError(
            f"energy budget {budget:.6g} J affords at most margin "
            f"g = {best_g:.6g} over every split, below the margin floor 0"
        )
    best_m = vectors[best]
    # priced by min_power_for_target, not by the solvers' margin solve
    powers = [min_power_for_target(h, m, d, best_g) for h, m in zip(gains, best_m)]
    # the public constructor's per-entry checks, which _build_report skips
    answer = Allocation(tuple(powers), tuple(best_m))
    return _build_report(
        scenario,
        answer.powers,
        answer.blocklengths,
        solver_name="brute_force_minmax",
        iterations=len(vectors),
        converged=True,
        enforce_energy_budget=True,
        total_energy=math.fsum(map(operator.mul, powers, best_m)),
    )


def _bounded_vectors(n: int, m_total: int):
    """Yield every vector of n integers >= 1 with sum <= m_total, in
    lexicographic order: the steps between the partial sums that
    itertools.combinations(range(1, m_total + 1), n) yields in order."""
    for sums in itertools.combinations(range(1, m_total + 1), n):
        yield tuple(map(operator.sub, sums, (0, *sums)))
