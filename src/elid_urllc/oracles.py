"""Brute-force verification oracles for the allocators.

Exhaustive enumerations over small instances (n <= 3) that certify both
solver families: brute_force_energy checks symbol_sharing, and
brute_force_minmax checks solve_joint_minmax. They share no search code
with the solvers they check. The energy oracle scans every blocklength
split over the same gain-free energy table. The min-max oracle scores
every candidate split by its own expand-and-bisect on g, run over all
candidates at once, not by the solvers' Newton margin solve
(_split_margin) or their least-energy split. Only the oracle-check
command and the tests import this module; no solve or sweep runs it.
"""

from __future__ import annotations

import math

import numpy as np

from .allocators import (
    _REL_IMPROVEMENT,
    SolveReport,
    _blocklength_floors,
    _build_report,
    _check_symbol_cover,
    _energy_gain_table,
    _minmax_floors,
    _minmax_report,
)
from .channel_model import Scenario
from .exceptions import InfeasibleError
from .fbl_core import _EXP_OVERFLOW, LN2, min_power_for_target, q_inverse


def brute_force_energy(scenario: Scenario) -> SolveReport:
    """Exhaustive minimum of total energy over integer blocklength splits.

    Verification oracle for symbol_sharing: searches every m vector with
    sum(m) <= symbol_budget and m_i at or above the same floors
    symbol_sharing respects, at the same target margin
    q_inverse(target_eps). Guarded to n <= 3 and M <= 1000.
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
    # each vehicle may take what the others' floors leave; _minmax_floors
    # has raised if the floors sum past the budget
    ceilings = [m_total - (sum(floors) - f) for f in floors]
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
    return _minmax_report(
        scenario,
        gains,
        best_m,
        best_g,
        solver_name="brute_force_minmax",
        iterations=candidates,
        trace=((candidates, best_g),),
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
