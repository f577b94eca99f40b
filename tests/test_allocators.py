"""Tests for the allocation solvers and their brute-force oracles."""

import ast
import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from elid_urllc import allocators, fbl_core, oracles
from elid_urllc.allocators import (
    Allocation,
    _build_report,
    equal_allocation_energy,
    min_energy_fixed_m,
    solve_joint_minmax,
    solve_power_minmax_fixed_m,
    solve_symbols_minmax_fixed_p,
    symbol_sharing,
)
from elid_urllc.channel_model import SystemConfig, sample_scenario
from elid_urllc.exceptions import InfeasibleError
from elid_urllc.fbl_core import (
    LN2,
    min_blocklength,
    min_power_for_target,
    q_inverse,
    reliability_margin,
)
from elid_urllc.oracles import brute_force_energy, brute_force_minmax
from oracle_utils import (
    compositions,
    feasible_joint_instance,
    grid_oracle_minmax_two_vehicles,
    make_scenario,
    random_feasible_minmax_instance,
    reference_brute_force_minmax,
    reference_joint_minmax,
    reference_least_energy_split,
    reference_power_minmax_fixed_m,
    reference_symbols_minmax_fixed_p,
)

G_TARGET_1E9 = 5.9978070150076869


class TestMinEnergyFixedM:
    def test_worked_value(self):
        scenario = make_scenario([1.0])
        powers, total = min_energy_fixed_m(scenario, [100])
        assert powers[0] == pytest.approx(4.5224201125597291, rel=1e-12)
        assert total == pytest.approx(452.24201125597291, rel=1e-12)

    def test_unity_snr_point(self):
        # eps = 0.5 is margin 0
        scenario = make_scenario([4.0, 0.5], payload_bits=160, target_eps=0.5)
        powers, _ = min_energy_fixed_m(scenario, [160, 160])
        assert powers[0] == pytest.approx(0.25, abs=1e-12)
        assert powers[1] == pytest.approx(2.0, abs=1e-12)

    def test_symmetry(self):
        scenario = make_scenario([0.7, 0.7])
        powers, _ = min_energy_fixed_m(scenario, [80, 80])
        assert powers[0] == powers[1]

    def test_default_target_from_config(self):
        # the target margin is the config's q_inverse(target_eps)
        for eps in (1e-9, 1e-5, 0.5):
            scenario = make_scenario([2.0], target_eps=eps)
            powers, total = min_energy_fixed_m(scenario, [64])
            assert powers == (min_power_for_target(2.0, 64, 160, q_inverse(eps)),)
            assert total == powers[0] * 64

    def test_length_mismatch(self):
        scenario = make_scenario([1.0, 1.0])
        with pytest.raises(ValueError):
            min_energy_fixed_m(scenario, [100])

    def test_unreachable_target_is_infeasible(self):
        # one overflowing power, and two finite energies of about 1e308
        # each whose sum overflows
        for gains, payload_bits in (([1.0], 300_000), ([0.7, 0.7], 1014)):
            scenario = make_scenario(gains, symbol_budget=2, payload_bits=payload_bits)
            with pytest.raises(InfeasibleError, match="no finite-energy allocation"):
                min_energy_fixed_m(scenario, [1] * len(gains))


class TestSymbolSharing:
    def test_overflowing_split_is_infeasible_without_warning(self):
        # the split's least energy sums two entries of about 1e308 each
        scenario = make_scenario([0.7, 0.7], symbol_budget=2, payload_bits=1014)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleError, match="no finite-energy allocation"):
                symbol_sharing(scenario)

    def test_single_vehicle(self):
        scenario = make_scenario([0.3], symbol_budget=200)
        report = symbol_sharing(scenario)
        assert report.allocation.blocklengths == (200,)
        assert report.iterations == 1
        assert report.converged
        assert len(report.trace) == 1

    def test_symmetric_pair_keeps_equal_split(self):
        scenario = make_scenario([0.4, 0.4], symbol_budget=200)
        report = symbol_sharing(scenario)
        assert report.allocation.blocklengths == (100, 100)
        _, equal_energy = equal_allocation_energy(scenario)
        assert report.total_energy == pytest.approx(equal_energy, rel=1e-12)

    def test_ten_to_one_gain_ratio_matches_brute_force(self):
        scenario = make_scenario([1.0, 0.1], symbol_budget=200, payload_bits=160)
        report = symbol_sharing(scenario)
        oracle = brute_force_energy(scenario)
        assert report.total_energy == pytest.approx(oracle.total_energy, rel=1e-9)
        assert report.allocation.blocklengths == oracle.allocation.blocklengths

    def test_trace_and_iteration_invariants(self):
        cfg = SystemConfig()
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            scenario = sample_scenario(cfg, n, seed=int(rng.integers(0, 2**63)))
            report = symbol_sharing(scenario)
            energies = [e for _, e in report.trace]
            assert all(a > b for a, b in zip(energies, energies[1:]))
            assert report.iterations <= cfg.symbol_budget * n
            assert report.converged
            assert energies[-1] == pytest.approx(report.total_energy, rel=1e-12)

    def test_dominates_equal_allocation(self):
        cfg = SystemConfig()
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 11))
            scenario = sample_scenario(cfg, n, seed=int(rng.integers(0, 2**63)))
            report = symbol_sharing(scenario)
            _, equal_energy = equal_allocation_energy(scenario)
            assert report.total_energy <= equal_energy * (1.0 + 1e-12)

    def test_respects_blocklength_floors(self):
        cfg = SystemConfig()
        rng = np.random.default_rng(88)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            scenario = sample_scenario(cfg, n, seed=int(rng.integers(0, 2**63)))
            report = symbol_sharing(scenario)
            for link, m in zip(scenario.links, report.allocation.blocklengths):
                floor = min_blocklength(
                    link.norm_gain * cfg.energy_budget,
                    cfg.payload_bits,
                    cfg.symbol_budget,
                )
                floor = floor if floor is not None else 1
                assert m >= max(1, floor)

    def test_scaling_invariance(self):
        gains = [0.8, 0.05, 0.003]
        scale = 37.5
        base = make_scenario(gains, symbol_budget=300, energy_budget=10.0)
        scaled = make_scenario(
            [g * scale for g in gains], symbol_budget=300, energy_budget=10.0 / scale
        )
        a = symbol_sharing(base)
        b = symbol_sharing(scaled)
        assert a.allocation.blocklengths == b.allocation.blocklengths
        for pa, pb in zip(a.allocation.powers, b.allocation.powers):
            assert pb == pytest.approx(pa / scale, rel=1e-12)

    def test_budget_below_vehicle_count(self):
        scenario = make_scenario([1.0, 1.0, 1.0], symbol_budget=2)
        with pytest.raises(InfeasibleError):
            symbol_sharing(scenario)

    def test_default_target_matches_explicit(self):
        # every link meets the config's target margin q_inverse(target_eps)
        # with the closed-form power at its blocklength
        for eps in (1e-9, 1e-3):
            scenario = sample_scenario(SystemConfig(target_eps=eps), 3, seed=5)
            report = symbol_sharing(scenario)
            g = q_inverse(eps)
            assert report.allocation.powers == tuple(
                min_power_for_target(link.norm_gain, m, 160, g)
                for link, m in zip(scenario.links, report.allocation.blocklengths)
            )
            for margin in report.margins:
                assert margin.g == pytest.approx(g, rel=1e-9)

    def test_floors_summing_past_budget_are_infeasible(self):
        # With the whole energy budget each link still needs 150 symbols
        # to reach margin 0, so two of them cannot share M=200.
        c150 = 150 * math.expm1(LN2 * 160 / 150)
        scenario = make_scenario([1.001 * c150 / 10.0] * 2, energy_budget=10.0)
        with pytest.raises(InfeasibleError, match="minimum blocklengths sum to 300"):
            symbol_sharing(scenario)
        with pytest.raises(InfeasibleError):
            brute_force_energy(scenario)

    def test_leaves_overflow_region(self):
        # At D=2500 the required SNR overflows for m <= 2, so the first
        # step of each vehicle goes from inf to inf and must still be taken.
        scenario = make_scenario([1.0, 2.0], symbol_budget=7, payload_bits=2500)
        report = symbol_sharing(scenario)
        oracle = brute_force_energy(scenario)
        assert report.allocation.blocklengths == oracle.allocation.blocklengths == (4, 3)
        assert report.total_energy == pytest.approx(oracle.total_energy, rel=1e-9)


class TestEnergyGainConvexity:
    """The least-energy split is exact only if c_g(m) = m * expm1(ln2 * D
    / m + g / sqrt(m)) is convex up to its first minimizer m* and does
    not decrease past it; both are checked here with an independent
    evaluation of c_g."""

    @pytest.mark.parametrize("payload_bits", [32, 160, 1000])
    def test_convex_to_minimizer_and_nondecreasing_after(self, payload_bits):
        ms = np.arange(1, 5001, dtype=float)
        for g in np.linspace(-5.0, 40.0, 91):
            with np.errstate(over="ignore"):  # inf at m=1 for D=1000, g > 16
                cost = ms * np.expm1(LN2 * payload_bits / ms + g / np.sqrt(ms))
            m_star = int(np.argmin(cost)) + 1
            head = cost[:m_star]
            second = head[:-2] - 2.0 * head[1:-1] + head[2:]
            assert np.all(second >= -1e-12 * head[1:-1]), (g, m_star)
            assert np.all(np.diff(cost[m_star - 1 :]) >= 0.0), (g, m_star)


def _random_split_instance(rng):
    """(D, g, M, gains, floors) for the split tests: n 1..10, M from the
    edge budgets n and n + 1 up to 2000, gains log-uniform with repeats,
    and floors that fill the budget exactly one time in five."""
    n = int(rng.integers(1, 11))
    m_total = int(rng.choice([n, n + 1, 40, 200, 400, 1000, 2000]))
    if m_total < n:
        m_total = n
    payload_bits = int(rng.choice([1, 8, 32, 160, 1000, 2500]))
    g = G_TARGET_1E9 if rng.random() < 0.2 else float(rng.uniform(-20.0, 40.0))
    gains = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    if n > 1 and rng.random() < 0.3:
        gains[rng.integers(0, n, size=n // 2 + 1)] = gains[0]
    if rng.random() < 0.2:
        floor_sum = m_total
    else:
        floor_sum = int(rng.integers(n, m_total + 1))
    floors = 1 + rng.multinomial(floor_sum - n, np.full(n, 1.0 / n))
    return payload_bits, g, m_total, gains.tolist(), floors.tolist()


class TestLeastEnergySplitTables:
    """The windowed split over the cached gain-free tables against the
    masked split over the whole saving matrix it replaced."""

    def _assert_matches(self, payload_bits, g, m_total, gains, floors):
        tables = allocators._build_split_tables(payload_bits, g, m_total)
        expected = reference_least_energy_split(
            allocators._energy_gain_table(payload_bits, g, m_total),
            gains,
            floors,
            m_total,
        )
        got = allocators._least_energy_split(tables, gains, floors)
        assert got == expected, (payload_bits, g, m_total, gains, floors)
        return got

    def test_matches_masked_split(self):
        rng = np.random.default_rng(8_008)
        spent_all = stopped_early = 0
        for _ in range(3000):
            payload_bits, g, m_total, gains, floors = _random_split_instance(rng)
            with np.errstate(over="ignore"):  # huge steps over tiny gains
                m_vec, _ = self._assert_matches(
                    payload_bits, g, m_total, gains, floors
                )
            if sum(m_vec) == m_total:
                spent_all += 1
            else:
                stopped_early += 1
        # both the budget and the minimizer stop enough instances
        assert spent_all >= 300 and stopped_early >= 300

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_all_inf_table_takes_every_step(self, n):
        # ln2 * D / m > 709 at every m <= M, so c_g overflows everywhere
        for m_total in (n, n + 1, 40, 2000):
            payload_bits = 1024 * m_total
            table, _, m_star = allocators._build_split_tables(payload_bits, 6.0, m_total)
            assert np.all(np.isinf(table)) and m_star == m_total
            floors = [1] * n
            m_vec, energy = self._assert_matches(
                payload_bits, 6.0, m_total, [2.0] * n, floors
            )
            assert m_vec[0] == m_total - (n - 1) and math.isinf(energy)

    def test_symbol_sharing_builds_its_tables_once(self):
        allocators._split_tables.cache_clear()
        scenario = sample_scenario(SystemConfig(), 4, seed=3)
        first = symbol_sharing(scenario)
        other = sample_scenario(SystemConfig(), 4, seed=4)
        symbol_sharing(other)
        info = allocators._split_tables.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert symbol_sharing(scenario) == first
        # the joint solver adds only its start split's (D, q_inverse(eps), M)
        # tables; its later rounds build theirs outside the cache
        joint = feasible_joint_instance(np.random.default_rng(5))
        cfg = joint.config
        solve_joint_minmax(joint)
        info = allocators._split_tables.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 2)
        solve_joint_minmax(joint)
        info = allocators._split_tables.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 3)
        for key in (
            (160, G_TARGET_1E9, 200),
            (cfg.payload_bits, q_inverse(cfg.target_eps), cfg.symbol_budget),
        ):
            allocators._split_tables(*key)
        assert allocators._split_tables.cache_info().misses == 2

    @pytest.mark.parametrize("m_total", [1, 2, 200, 1000, 5000])
    def test_table_from_cached_axes_matches_inline_formula(self, m_total):
        ms = np.arange(1, m_total + 1, dtype=float)
        for payload_bits in (1, 32, 160, 1024 * m_total):
            for g in (-40.0, 0.0, 6.0, 26.0, 600.0):
                exponent = LN2 * payload_bits / ms + g / np.sqrt(ms)
                with np.errstate(over="ignore"):
                    inline = np.where(exponent > 709.0, np.inf, ms * np.expm1(exponent))
                inline = np.maximum(inline, 0.0)
                table = allocators._energy_gain_table(payload_bits, g, m_total)
                assert np.array_equal(table, inline), (payload_bits, g, m_total)
        # the overflow region is covered: D = 1024 * M overflows at every m
        assert np.all(np.isinf(allocators._energy_gain_table(1024 * m_total, 6.0, m_total)))
        for axis in allocators._table_axes(160, m_total):
            assert not axis.flags.writeable
            with pytest.raises(ValueError):
                axis[0] = 0.0

    def test_cached_tables_reject_writes(self):
        table, steps, _ = allocators._split_tables(160, G_TARGET_1E9, 200)
        with pytest.raises(ValueError):
            table[0] = 0.0
        with pytest.raises(ValueError):
            steps[:] = 0.0
        neg_c0 = fbl_core._neg_min_energy_gains(160, 200)
        with pytest.raises(TypeError):
            neg_c0[0] = 0.0


class TestEqualAllocation:
    def test_remainder_rule(self):
        scenario = make_scenario([1.0] * 4, symbol_budget=200)
        allocation, _ = equal_allocation_energy(scenario)
        assert allocation.blocklengths == (50, 50, 50, 50)
        scenario3 = make_scenario([1.0] * 3, symbol_budget=200)
        allocation3, _ = equal_allocation_energy(scenario3)
        assert allocation3.blocklengths == (67, 67, 66)

    def test_identical_links_match_symbol_sharing(self):
        scenario = make_scenario([0.2] * 3, symbol_budget=201)
        _, equal_energy = equal_allocation_energy(scenario)
        report = symbol_sharing(scenario)
        assert report.total_energy == pytest.approx(equal_energy, rel=1e-9)


class TestBruteForceEnergy:
    def test_single_vehicle_scan(self):
        scenario = make_scenario([0.05], symbol_budget=400, payload_bits=160)
        report = brute_force_energy(scenario)
        # independent scan with the closed-form power
        best_m, best_e = None, math.inf
        for m in range(1, 401):
            p = min_power_for_target(0.05, m, 160, G_TARGET_1E9)
            if p * m < best_e:
                best_m, best_e = m, p * m
        assert report.allocation.blocklengths == (best_m,)
        assert report.total_energy == pytest.approx(best_e, rel=1e-12)

    def test_identical_pair_splits_evenly(self):
        scenario = make_scenario([0.3, 0.3], symbol_budget=201)
        report = brute_force_energy(scenario)
        m1, m2 = report.allocation.blocklengths
        assert abs(m1 - m2) <= 1

    def test_sharing_matches_on_two_vehicles(self):
        cfg = SystemConfig()
        rng = np.random.default_rng(606)
        for _ in range(40):
            scenario = sample_scenario(cfg, 2, seed=int(rng.integers(0, 2**63)))
            shared = symbol_sharing(scenario)
            oracle = brute_force_energy(scenario)
            assert shared.total_energy == pytest.approx(
                oracle.total_energy, rel=1e-9
            )

    def test_sharing_close_on_three_vehicles(self):
        rng = np.random.default_rng(607)
        for m_total in (200, 1000):
            cfg = SystemConfig(symbol_budget=m_total)
            for _ in range(30):
                scenario = sample_scenario(cfg, 3, seed=int(rng.integers(0, 2**63)))
                shared = symbol_sharing(scenario)
                oracle = brute_force_energy(scenario)
                assert shared.total_energy == pytest.approx(
                    oracle.total_energy, rel=1e-9
                )

    def test_sharing_matches_at_loose_budget(self):
        # At M=1000 the energy minimizer m* = 365 caps every share; at the
        # default M=200 of the other oracle tests that cap never binds.
        cfg = SystemConfig(symbol_budget=1000)
        rng = np.random.default_rng(1000)
        for n in (1, 2):
            for _ in range(15):
                scenario = sample_scenario(cfg, n, seed=int(rng.integers(0, 2**63)))
                shared = symbol_sharing(scenario)
                oracle = brute_force_energy(scenario)
                assert shared.total_energy == pytest.approx(
                    oracle.total_energy, rel=1e-9
                )

    def test_single_vehicle_stops_at_energy_minimizer(self):
        scenario = make_scenario([0.3], symbol_budget=1000)
        report = symbol_sharing(scenario)
        assert report.allocation.blocklengths == (365,)

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_force_energy(make_scenario([1.0] * 4))
        with pytest.raises(ValueError):
            brute_force_energy(make_scenario([1.0], symbol_budget=1001))


class TestPowerMinmaxFixedM:
    def test_equalizes_and_exhausts_budget(self):
        rng = np.random.default_rng(1812)
        for _ in range(40):
            scenario, m_vec = random_feasible_minmax_instance(rng)
            report = solve_power_minmax_fixed_m(scenario, m_vec)
            gs = [margin.g for margin in report.margins]
            assert max(gs) - min(gs) <= 1e-8
            assert report.total_energy == pytest.approx(
                scenario.config.energy_budget, rel=1e-9
            )
            assert not report.clamped

    def test_single_vehicle_spends_everything(self):
        scenario = make_scenario([2.5], symbol_budget=200, energy_budget=200.0)
        report = solve_power_minmax_fixed_m(scenario, [200])
        assert report.allocation.powers[0] == pytest.approx(1.0, rel=1e-9)

    def test_identical_links_identical_outcome(self):
        scenario = make_scenario([0.9, 0.9], symbol_budget=200, energy_budget=500.0)
        report = solve_power_minmax_fixed_m(scenario, [100, 100])
        p1, p2 = report.allocation.powers
        assert p1 == pytest.approx(p2, rel=1e-9)
        assert report.margins[0].g == pytest.approx(report.margins[1].g, abs=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(12):
            scenario, m_vec = random_feasible_minmax_instance(rng, n=2)
            report = solve_power_minmax_fixed_m(scenario, m_vec)
            oracle = grid_oracle_minmax_two_vehicles(scenario, m_vec)
            assert report.worst_margin.g == pytest.approx(oracle, abs=1e-3)

    def test_infeasible_budget(self):
        scenario = make_scenario([1e-6], symbol_budget=100, energy_budget=1e-3)
        with pytest.raises(InfeasibleError):
            solve_power_minmax_fixed_m(scenario, [100])

    def test_infeasible_message_gives_largest_margin(self):
        # one vehicle spending the whole budget reaches this margin exactly
        scenario = make_scenario([1e-6], symbol_budget=100, energy_budget=1e-3)
        g = 10.0 * (math.log1p(1e-3 / 100 * 1e-6) - LN2 * 160 / 100)
        with pytest.raises(InfeasibleError, match=f"margin g = {g:.6g} "):
            solve_power_minmax_fixed_m(scenario, [100])

    def test_matches_reference_bisection(self):
        feasible = infeasible = 0
        for scenario, m_vec in _fixed_m_sweep():
            try:
                g = reference_power_minmax_fixed_m(scenario, m_vec)
            except InfeasibleError:
                infeasible += 1
                with pytest.raises(InfeasibleError):
                    solve_power_minmax_fixed_m(scenario, m_vec)
                continue
            feasible += 1
            report = solve_power_minmax_fixed_m(scenario, m_vec)
            assert abs(report.trace[-1][1] - g) <= 1e-9
            assert abs(report.worst_margin.g - g) <= 1e-9
            # at g >= 0 every closed-form power is positive
            assert report.clamped == ()
            assert report.total_energy <= scenario.config.energy_budget
            assert report.iterations == report.trace[-1][0] >= 1
        assert feasible + infeasible >= 100
        assert feasible >= 80 and infeasible >= 10

    def test_split_margin_below_zero_clamps_long_links(self):
        # The joint solver can settle on g < 0. Vehicle 1 has so many
        # symbols that its zero-power margin sits above that g: the
        # closed form clamps it at p = 0, equalization is waived for it,
        # and the report flags it.
        m_vec = [16, 1600]
        budget = 16.0 * math.expm1(LN2 * 10 - 1)
        g, _ = allocators._split_margin(m_vec, [1.0, 1.0], 160, budget)
        assert g == pytest.approx(-4.0, abs=1e-9)
        scenario = make_scenario(
            [1.0, 1.0], symbol_budget=2000, energy_budget=budget, payload_bits=160
        )
        report = allocators._minmax_report(
            scenario, [1.0, 1.0], m_vec, g, solver_name="joint_minmax",
            iterations=1, trace=((1, g),),
        )
        assert report.clamped == (1,)
        assert report.allocation.powers[1] == 0.0
        assert report.worst_margin.g == pytest.approx(-4.0, abs=1e-9)

    def test_rejects_bad_blocklengths(self):
        scenario = make_scenario([1.0, 1.0], symbol_budget=100)
        with pytest.raises(ValueError):
            solve_power_minmax_fixed_m(scenario, [60, 60])
        with pytest.raises(ValueError):
            solve_power_minmax_fixed_m(scenario, [0, 50])


def _fixed_m_sweep():
    """Four instances per n = 1..10 and M in {40, 200, 1000}, with D in
    {32, 160}: two on near-even splits and two on uneven splits. Each
    budget funds a random margin around 0, so some instances cannot fund
    margin 0; at every fourth n it lies within 4e-6 of 0."""
    rng = np.random.default_rng(519)
    for m_total in (40, 200, 1000):
        for n in range(1, 11):
            for k in range(4):
                d = (32, 160)[k % 2]
                seed = int(rng.integers(0, 2**63))
                config = SystemConfig(symbol_budget=m_total, payload_bits=d)
                links = sample_scenario(config, n, seed).links
                weights = rng.dirichlet(np.full(n, 5.0 if k < 2 else 0.3))
                m_vec = [1 + int(s) for s in rng.multinomial(m_total - n, weights)]
                funded = float(rng.uniform(-1.0, 4.0)) * (1e-6 if n % 4 == 0 else 1.0)
                energy = math.fsum(
                    min_power_for_target(link.norm_gain, m, d, funded) * m
                    for link, m in zip(links, m_vec)
                )
                config = SystemConfig(
                    symbol_budget=m_total, payload_bits=d, energy_budget=max(energy, 1e-12)
                )
                yield sample_scenario(config, n, seed), m_vec


class TestSymbolsMinmaxFixedP:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(404)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m_total = int(rng.integers(n, 25))
            gains = 10.0 ** rng.uniform(-1.0, 3.0, size=n)
            scenario = make_scenario(
                gains,
                symbol_budget=m_total,
                payload_bits=int(rng.integers(4, 64)),
                energy_budget=1000.0,
                common_power=1.0,
            )
            report = solve_symbols_minmax_fixed_p(scenario)
            best = -math.inf
            d = scenario.config.payload_bits
            for m_vec in compositions(m_total, n):
                worst = min(
                    reliability_margin(1.0 * g, m, d).g
                    for g, m in zip(gains, m_vec)
                )
                best = max(best, worst)
            assert report.worst_margin.g == best

    def test_identical_links_near_equal_split(self):
        scenario = make_scenario(
            [2.0] * 4, symbol_budget=203, energy_budget=10.0, common_power=0.01
        )
        report = solve_symbols_minmax_fixed_p(scenario)
        for m in report.allocation.blocklengths:
            assert m in (50, 51)

    def test_tie_break_prefers_low_ids(self):
        scenario = make_scenario(
            [1.0] * 3, symbol_budget=7, energy_budget=100.0, common_power=1.0
        )
        report = solve_symbols_minmax_fixed_p(scenario)
        assert report.allocation.blocklengths == (3, 2, 2)

    def test_single_vehicle(self):
        scenario = make_scenario([5.0], symbol_budget=32)
        report = solve_symbols_minmax_fixed_p(scenario)
        assert report.allocation.blocklengths == (32,)

    def test_default_power_spends_budget_exactly(self):
        scenario = sample_scenario(SystemConfig(), 4, seed=808)
        report = solve_symbols_minmax_fixed_p(scenario)
        expected_p = 10.0 / 200
        for p in report.allocation.powers:
            assert p == expected_p
        assert report.total_energy == pytest.approx(10.0, rel=1e-12)

    def test_power_above_budget_refused(self):
        scenario = sample_scenario(SystemConfig(common_power=1.0), 2, seed=3)
        with pytest.raises(InfeasibleError):
            solve_symbols_minmax_fixed_p(scenario)

    def test_trace_worst_margin_nondecreasing(self):
        scenario = sample_scenario(SystemConfig(), 5, seed=12)
        report = solve_symbols_minmax_fixed_p(scenario)
        values = [g for _, g in report.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_budget_below_vehicle_count(self):
        scenario = make_scenario([1.0, 1.0], symbol_budget=1)
        with pytest.raises(InfeasibleError):
            solve_symbols_minmax_fixed_p(scenario)

    def test_matches_reference_greedy(self):
        # the solver takes the greedy's grants from one sort of the margin
        # matrix, which is exact only while every row strictly increases
        rng = np.random.default_rng(2_024)
        for n in range(1, 11):
            for m_total in (n, n + 1, 37, 200, 1000):
                for d in (8, 32, 160, 1000):
                    common = bool(rng.integers(0, 2))
                    power = float(10.0 ** rng.uniform(-3.0, 0.0)) if common else None
                    config = dict(
                        symbol_budget=m_total,
                        payload_bits=d,
                        energy_budget=10.0 if power is None else 2.0 * power * m_total,
                        common_power=power,
                    )
                    if rng.integers(0, 2):
                        scenario = sample_scenario(
                            SystemConfig(**config), n, int(rng.integers(0, 2**63))
                        )
                    else:
                        # repeated gains force ties between vehicles
                        gains = rng.choice(10.0 ** rng.uniform(1.0, 5.0, size=2), size=n)
                        scenario = make_scenario(gains, **config)
                    report = solve_symbols_minmax_fixed_p(scenario)
                    m_vec, trace, iterations = reference_symbols_minmax_fixed_p(scenario)
                    assert report.allocation.blocklengths == m_vec
                    assert report.trace == trace
                    assert report.iterations == iterations

                    p = scenario.config.common_power_value()
                    ms = np.arange(1, m_total - n + 2, dtype=float)
                    capacity = np.array(
                        [math.log1p(p * link.norm_gain) for link in scenario.links]
                    )
                    rows = np.sqrt(ms) * (capacity[:, None] - LN2 * d / ms)
                    assert np.all(np.diff(rows, axis=1) > 0.0)


def _joint_minmax_sweep():
    """Two instances per n = 1..10, M in {40, 200, 1000} and D in {32, 160}:
    one sampled, one whose vehicles repeat two gains, so ties occur."""
    rng = np.random.default_rng(518)
    for m_total in (40, 200, 1000):
        for d in (32, 160):
            config = dict(symbol_budget=m_total, payload_bits=d)
            for n in range(1, 11):
                yield sample_scenario(
                    SystemConfig(**config), n, int(rng.integers(0, 2**63))
                )
                gains = rng.choice(10.0 ** rng.uniform(2.5, 8.0, size=2), size=n)
                yield make_scenario(gains, **config)


class TestJointMinmax:
    def test_single_vehicle(self):
        scenario = make_scenario([1.0], symbol_budget=64, energy_budget=1000.0)
        report = solve_joint_minmax(scenario)
        assert report.allocation.blocklengths == (64,)
        assert report.allocation.powers[0] == pytest.approx(1000.0 / 64, rel=1e-9)

    def test_identical_links_stay_symmetric(self):
        scenario = make_scenario(
            [0.5, 0.5], symbol_budget=40, payload_bits=32, energy_budget=5000.0
        )
        report = solve_joint_minmax(scenario)
        assert report.allocation.blocklengths == (20, 20)
        assert report.margins[0].g == pytest.approx(report.margins[1].g, abs=1e-8)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(515)
        for _ in range(10):
            scenario = feasible_joint_instance(rng)
            local = solve_joint_minmax(scenario)
            oracle = brute_force_minmax(scenario)
            assert local.worst_margin.g == pytest.approx(
                oracle.worst_margin.g, abs=1e-6
            )
            assert oracle.worst_margin.g >= local.worst_margin.g - 1e-9

    def test_blocklengths_within_bounds(self):
        rng = np.random.default_rng(516)
        for _ in range(8):
            scenario = feasible_joint_instance(rng)
            report = solve_joint_minmax(scenario)
            cfg = scenario.config
            floors = [
                min_blocklength(
                    link.norm_gain * cfg.energy_budget,
                    cfg.payload_bits,
                    cfg.symbol_budget,
                )
                for link in scenario.links
            ]
            total_floor = sum(floors)
            for m, floor in zip(report.allocation.blocklengths, floors):
                ceiling = cfg.symbol_budget - (total_floor - floor)
                assert floor <= m <= ceiling

    def test_never_below_power_minmax_on_equal_split(self):
        # the joint optimum includes the equal split whenever that split
        # is feasible, for every n, also beyond the brute force's n <= 3
        rng = np.random.default_rng(517)
        for m_total in (200, 1000):
            cfg = SystemConfig(symbol_budget=m_total)
            for n in range(1, 11):
                for _ in range(3):
                    scenario = sample_scenario(
                        cfg, n, seed=int(rng.integers(0, 2**63))
                    )
                    try:
                        fixed = solve_power_minmax_fixed_m(
                            scenario, equal_allocation_energy(scenario)[0].blocklengths
                        )
                    except InfeasibleError:
                        continue
                    joint = solve_joint_minmax(scenario)
                    assert joint.worst_margin.g >= fixed.worst_margin.g - 1e-9

    def test_matches_reference_bisection(self):
        feasible = 0
        for scenario in _joint_minmax_sweep():
            try:
                m_vec, g = reference_joint_minmax(scenario)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_joint_minmax(scenario)
                continue
            feasible += 1
            report = solve_joint_minmax(scenario)
            assert report.converged
            assert report.allocation.blocklengths == m_vec
            assert abs(report.worst_margin.g - g) <= 1e-9
        assert feasible >= 100

    def test_within_budget_in_few_split_rounds(self, monkeypatch):
        calls = []
        split = allocators._least_energy_split

        def counted(*args):
            calls.append(1)
            return split(*args)

        monkeypatch.setattr(allocators, "_least_energy_split", counted)
        for scenario in _joint_minmax_sweep():
            calls.clear()
            try:
                report = solve_joint_minmax(scenario)
            except InfeasibleError:
                continue
            assert report.total_energy <= scenario.config.energy_budget
            assert len(calls) <= 8
            assert report.iterations == len(report.trace) == len(calls)
            assert [g for _, g in report.trace] == sorted(g for _, g in report.trace)

    def test_starts_from_the_cached_target_split(self, monkeypatch):
        # At M=200 a start from the floors builds 3.20 tables per solve; the
        # cached target split builds 1.92 (1.88 on this block). A table
        # counts as built on an uncached call or a cache miss.
        builds = []
        build = allocators._build_split_tables

        def counted(*args):
            builds.append(1)
            return build(*args)

        monkeypatch.setattr(allocators, "_build_split_tables", counted)
        allocators._split_tables.cache_clear()
        solves = 0
        for i in range(200):
            scenario = sample_scenario(SystemConfig(), i % 10 + 1, seed=i)
            try:
                solve_joint_minmax(scenario)
            except InfeasibleError:
                continue
            solves += 1
        misses = allocators._split_tables.cache_info().misses
        assert solves >= 150
        assert (len(builds) + misses) / solves <= 2.0

    def test_infeasible_energy_budget(self):
        scenario = make_scenario([1e-9], symbol_budget=40, energy_budget=1e-3)
        with pytest.raises(InfeasibleError, match="vehicle 0"):
            solve_joint_minmax(scenario)

    def test_infeasible_floor_sum(self):
        # Each floor lands at the full budget, so two vehicles cannot fit.
        required = 40.0 * (2.0 ** (32.0 / 40.0) - 1.0)
        gain = (required * 1.01) / 1.0
        scenario = make_scenario(
            [gain, gain], symbol_budget=40, payload_bits=32, energy_budget=1.0
        )
        with pytest.raises(InfeasibleError, match="sum to"):
            solve_joint_minmax(scenario)


class TestBruteForceMinmaxGuards:
    def test_vehicle_guard(self):
        with pytest.raises(ValueError):
            brute_force_minmax(make_scenario([1.0] * 4, symbol_budget=40))

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            brute_force_minmax(make_scenario([1.0], symbol_budget=101))

    def test_independent_of_the_newton_margin_solve(self, monkeypatch):
        # the oracle must not share the margin solve of the solvers it checks
        rng = np.random.default_rng(520)
        instances = [feasible_joint_instance(rng, n=n) for n in (1, 2, 3) for _ in range(2)]
        expected = [solve_joint_minmax(scenario) for scenario in instances]

        def forbidden(*args):
            raise AssertionError("brute_force_minmax called _split_margin")

        monkeypatch.setattr(allocators, "_split_margin", forbidden)
        for scenario, local in zip(instances, expected):
            oracle = brute_force_minmax(scenario)
            assert oracle.worst_margin.g == pytest.approx(local.worst_margin.g, abs=1e-6)
        # a name the oracles bound themselves would escape the patch above
        for name in ("_split_margin", "_least_energy_split"):
            assert not hasattr(oracles, name), name

    def test_matches_scalar_bisection(self):
        # every candidate stepped at once must pick the split and margin
        # that bisecting each candidate on its own picks
        rng = np.random.default_rng(521)
        for n in (1, 2, 3):
            for m_total, d in ((24, 16), (40, 32)):
                scenario = feasible_joint_instance(
                    rng, n=n, m_total=m_total, payload_bits=d
                )
                oracle = brute_force_minmax(scenario)
                best_m, best_g = reference_brute_force_minmax(scenario)
                assert oracle.allocation.blocklengths == best_m
                assert oracle.trace[0][1] == pytest.approx(best_g, abs=1e-9)

    def test_empty_enumeration_raises(self, monkeypatch):
        # an explicit check, so it also holds under python -O
        monkeypatch.setattr(oracles, "_bounded_vectors", lambda *args: iter(()))
        scenario = make_scenario([1e3], symbol_budget=40, payload_bits=32)
        with pytest.raises(RuntimeError, match="no blocklength vector"):
            brute_force_minmax(scenario)


class TestOraclesStayOutOfTheProduct:
    def test_package_import_leaves_oracles_unloaded(self):
        # solves and sweeps never load the oracles; only oracle-check does
        code = (
            "import sys, elid_urllc, elid_urllc.experiments, elid_urllc.cli; "
            "print('elid_urllc.oracles' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.stdout.strip() == "False"


class TestReportInvariants:
    def test_energy_and_worst_margin_consistency(self):
        rng = np.random.default_rng(9_000)
        cfg = SystemConfig()
        for _ in range(10):
            n = int(rng.integers(1, 11))
            scenario = sample_scenario(cfg, n, seed=int(rng.integers(0, 2**63)))
            for report in (
                symbol_sharing(scenario),
                solve_symbols_minmax_fixed_p(scenario),
            ):
                recomputed = math.fsum(
                    p * m
                    for p, m in zip(
                        report.allocation.powers, report.allocation.blocklengths
                    )
                )
                assert report.total_energy == recomputed
                assert report.worst_margin.g == min(m.g for m in report.margins)
                assert sum(report.allocation.blocklengths) <= cfg.symbol_budget

    def test_trace_holds_int_float_pairs(self):
        # _build_report stores the solvers' trace as given, so each solver
        # must hand it (int, float) pairs: the report is then what
        # re-boxing every entry would have made of it
        rng = np.random.default_rng(9_002)
        reports = []
        for n in (1, 2, 3):
            scenario = feasible_joint_instance(rng, n=n)
            fixed_m = random_feasible_minmax_instance(rng, n=n)
            reports += [
                symbol_sharing(scenario),
                solve_symbols_minmax_fixed_p(scenario),
                solve_power_minmax_fixed_m(*fixed_m),
                solve_joint_minmax(scenario),
                brute_force_energy(scenario),
                brute_force_minmax(scenario),
            ]
        for report in reports:
            assert type(report.trace) is tuple and report.trace
            for entry in report.trace:
                assert type(entry) is tuple and len(entry) == 2
                assert type(entry[0]) is int and type(entry[1]) is float
            reboxed = tuple((int(i), float(v)) for i, v in report.trace)
            assert report == dataclasses.replace(report, trace=reboxed)

    def test_minmax_respects_energy_budget(self):
        rng = np.random.default_rng(9_001)
        for _ in range(10):
            scenario, m_vec = random_feasible_minmax_instance(rng)
            report = solve_power_minmax_fixed_m(scenario, m_vec)
            assert report.total_energy <= scenario.config.energy_budget * (1 + 1e-9)

    def test_budget_breach_raises(self):
        # explicit checks, not asserts, so they also hold under python -O
        scenario = make_scenario([1.0, 1.0], symbol_budget=200)
        with pytest.raises(RuntimeError, match="blocklengths sum to 201"):
            _build_report(
                scenario, [0.1, 0.1], [100, 101], solver_name="probe",
                iterations=1, trace=(), converged=True,
                enforce_energy_budget=False,
            )
        with pytest.raises(RuntimeError, match="exceeds the energy budget"):
            _build_report(
                scenario, [1.0, 1.0], [100, 100], solver_name="probe",
                iterations=1, trace=(), converged=True,
                enforce_energy_budget=True,
            )

    def test_budget_breach_raises_under_python_optimize(self):
        # the same two breaches in a python -O process, where asserts are
        # compiled out
        code = (
            "import sys\n"
            "from elid_urllc.allocators import _build_report\n"
            "from elid_urllc.channel_model import SystemConfig, sample_scenario\n"
            "scenario = sample_scenario(SystemConfig(), 2, seed=0)\n"
            "for powers, m_vec, enforce in (\n"
            "    ([0.1, 0.1], [100, 101], False), ([1.0, 1.0], [100, 100], True)\n"
            "):\n"
            "    try:\n"
            "        _build_report(scenario, powers, m_vec, solver_name='probe',\n"
            "                      iterations=1, trace=(), converged=True,\n"
            "                      enforce_energy_budget=enforce)\n"
            "    except RuntimeError as exc:\n"
            "        print(exc)\n"
            "print('optimize', sys.flags.optimize)\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        symbols, energy, optimize = done.stdout.splitlines()
        assert "blocklengths sum to 201" in symbols
        assert "exceeds the energy budget" in energy
        assert optimize == "optimize 1"

    def test_package_has_no_assert_statements(self):
        # python -O strips asserts, so no invariant may rest on one
        package = os.path.dirname(allocators.__file__)
        found = []
        for name in sorted(os.listdir(package)):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=name)
                found += [
                    f"{name}:{node.lineno}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)
                ]
        assert found == []

    def test_allocation_validation(self):
        with pytest.raises(ValueError):
            Allocation(powers=(1.0,), blocklengths=(1, 2))
        with pytest.raises(ValueError):
            Allocation(powers=(-1.0,), blocklengths=(1,))
        with pytest.raises(ValueError):
            Allocation(powers=(1.0,), blocklengths=(0,))
        with pytest.raises(ValueError):
            Allocation(powers=(math.inf,), blocklengths=(1,))
