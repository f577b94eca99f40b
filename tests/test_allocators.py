"""Tests for the allocation solvers and their brute-force oracles."""

import ast
import dataclasses
import itertools
import math
import operator
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elid_urllc import allocators, fbl_core, oracles
from elid_urllc.allocators import (
    Allocation,
    SolveReport,
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
from elid_urllc.experiments import SOLVER_NAMES, run_solver
from elid_urllc.fbl_core import (
    LN2,
    ReliabilityMargin,
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
from test_solver_hashes import _block

G_TARGET_1E9 = 5.9978070150076869


class TestWorstMargin:
    def test_first_margin_on_a_tie(self):
        # equal g, told apart by eps_log10: the first of them is the worst
        margins = (
            fbl_core.ReliabilityMargin(3.0, -2.0),
            fbl_core.ReliabilityMargin(1.5, -1.0),
            fbl_core.ReliabilityMargin(1.5, -9.0),
            fbl_core.ReliabilityMargin(2.0, -1.5),
        )
        report = allocators.SolveReport(
            allocation=Allocation(powers=(1.0,) * 4, blocklengths=(1,) * 4),
            margins=margins,
            total_energy=4.0,
            iterations=1,
            converged=True,
            solver_name="t",
        )
        assert report.worst_margin is margins[1]


class TestMinEnergyFixedM:
    def test_worked_value(self):
        scenario = make_scenario([1.0])
        powers, total = min_energy_fixed_m(scenario, [100])
        assert powers[0] == pytest.approx(4.5224201125597291, rel=1e-12)
        assert total == pytest.approx(452.24201125597291, rel=1e-12)

    def test_unity_snr_point(self):
        # eps = 0.5 is margin 0; 160 + 160 symbols need a budget of 320
        scenario = make_scenario(
            [4.0, 0.5], symbol_budget=320, payload_bits=160, target_eps=0.5
        )
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


@pytest.mark.parametrize("solve", [min_energy_fixed_m, solve_power_minmax_fixed_m])
@pytest.mark.parametrize(
    "blocklengths, message",
    [
        ([2.5, 3], "must be integers"),
        ([150, 150], "sum to 300, exceeding the symbol budget 200"),
        ([0, 100], "must all be >= 1"),
        ([100], "expected 2 blocklengths, got 1"),
    ],
)
def test_fixed_m_entry_points_share_one_blocklength_rule(solve, blocklengths, message):
    # both fixed-m entry points refuse what the other refuses, and both
    # take numpy integers as ints
    scenario = sample_scenario(SystemConfig(), 2, seed=0)
    with pytest.raises(ValueError, match=message):
        solve(scenario, blocklengths)
    assert solve(scenario, np.array([100, 100])) == solve(scenario, [100, 100])


class TestSymbolSharing:
    def test_overflowing_split_is_infeasible_without_warning(self):
        # the split's least energy sums two entries of about 1e308 each
        scenario = make_scenario([0.7, 0.7], symbol_budget=2, payload_bits=1014)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleError, match="no finite-energy allocation"):
                symbol_sharing(scenario)

    @pytest.mark.parametrize(
        "n, blocklength, energy_hex",
        [
            (1, 100, "0x1.d0a6ad087d6b1p+75"),
            (5, 20, "0x1.75c9798812f7fp+275"),
            (10, 10, "0x1.8b71a9ebd759cp+525"),
        ],
    )
    def test_savings_past_the_float_range_without_warning(
        self, n, blocklength, energy_hex
    ):
        # gains down to 3e-6 carry finite steps past DBL_MAX in the split's
        # divide; those savings read inf and the answers keep their bits
        cfg = SystemConfig(
            payload_bits=5000,
            symbol_budget=100,
            road_length=8000.0,
            noise_psd_dbm_hz=-150.0,
        )
        scenario = sample_scenario(cfg, n, seed=3)
        assert min(link.norm_gain for link in scenario.links) < 3e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = symbol_sharing(scenario)
        assert report.allocation.blocklengths == (blocklength,) * n
        assert report.total_energy.hex() == energy_hex

    def test_single_vehicle(self):
        scenario = make_scenario([0.3], symbol_budget=200)
        report = symbol_sharing(scenario)
        assert report.allocation.blocklengths == (200,)
        assert report.iterations == 1
        assert report.converged

    def test_symmetric_pair_keeps_equal_split(self):
        scenario = make_scenario([0.4, 0.4], symbol_budget=200)
        report = symbol_sharing(scenario)
        assert report.allocation.blocklengths == (100, 100)
        equal_energy = equal_allocation_energy(scenario).total_energy
        assert report.total_energy == pytest.approx(equal_energy, rel=1e-12)

    def test_ten_to_one_gain_ratio_matches_brute_force(self):
        scenario = make_scenario([1.0, 0.1], symbol_budget=200, payload_bits=160)
        report = symbol_sharing(scenario)
        oracle = brute_force_energy(scenario)
        assert report.total_energy == pytest.approx(oracle.total_energy, rel=1e-9)
        assert report.allocation.blocklengths == oracle.allocation.blocklengths

    def test_total_and_iteration_invariants(self, monkeypatch):
        fsum = math.fsum
        fsum_calls = []

        def counting_fsum(terms):
            fsum_calls.append(1)
            return fsum(terms)

        cfg = SystemConfig()
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            scenario = sample_scenario(cfg, n, seed=int(rng.integers(0, 2**63)))
            for solve in (symbol_sharing, equal_allocation_energy):
                fsum_calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(math, "fsum", counting_fsum)
                    report = solve(scenario)
                # each energy answer is summed once, in min_energy_fixed_m,
                # and the report carries that very total
                assert len(fsum_calls) == 1
                _, total = min_energy_fixed_m(scenario, report.allocation.blocklengths)
                assert report.total_energy.hex() == total.hex()
                assert report.iterations == 1
                assert report.converged

    def test_dominates_equal_allocation(self):
        cfg = SystemConfig()
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 11))
            scenario = sample_scenario(cfg, n, seed=int(rng.integers(0, 2**63)))
            report = symbol_sharing(scenario)
            equal_energy = equal_allocation_energy(scenario).total_energy
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
        tables = fbl_core._build_split_tables(payload_bits, g, m_total)
        with np.errstate(over="ignore"):  # huge steps over tiny gains
            expected = reference_least_energy_split(tables[0], gains, floors, m_total)
        # the product's own divide runs under the suite's warnings-as-errors
        got = allocators._SplitSetup(gains, floors, m_total).step(tables).tolist()
        assert got == expected, (payload_bits, g, m_total, gains, floors)
        return got

    def test_matches_masked_split(self):
        rng = np.random.default_rng(8_008)
        spent_all = stopped_early = 0
        for _ in range(3000):
            payload_bits, g, m_total, gains, floors = _random_split_instance(rng)
            m_vec = self._assert_matches(payload_bits, g, m_total, gains, floors)
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
            table, _, m_star = fbl_core._build_split_tables(payload_bits, 6.0, m_total)
            assert np.all(np.isinf(table)) and m_star == m_total
            floors = [1] * n
            m_vec = self._assert_matches(
                payload_bits, 6.0, m_total, [2.0] * n, floors
            )
            assert m_vec[0] == m_total - (n - 1)

    def _assert_steps_match(self, setup, tables_seq, gains, floors, m_total):
        widths = []
        for tables in tables_seq:
            with np.errstate(over="ignore"):  # huge steps over tiny gains
                expected = reference_least_energy_split(tables[0], gains, floors, m_total)
            got = setup.step(tables).tolist()
            assert got == expected, (tables[2], gains, floors)
            widths.append(0 if setup.index is None else setup.index.shape[1])
        return widths

    def test_one_setup_serves_tables_at_rising_margins(self):
        # a joint solve's rounds: M = 1000, D = 160 and g rising from the
        # target, so m_star grows and the window widens between rounds;
        # m_star - 1 stays below the spare symbols throughout
        m_total = 1000
        gains = [0.02, 3.5, 3.5, 170.0]
        floors = [40, 2, 2, 1]
        spare = m_total - sum(floors)
        margins = [G_TARGET_1E9, 11.5, 17.0, 26.0]
        tables_seq = [fbl_core._build_split_tables(160, g, m_total) for g in margins]
        m_stars = [tables[2] for tables in tables_seq]
        assert m_stars == sorted(set(m_stars)) and m_stars[-1] - 1 < spare
        setup = allocators._SplitSetup(gains, floors, m_total)
        widths = self._assert_steps_match(setup, tables_seq, gains, floors, m_total)
        assert widths == [m_star - 1 for m_star in m_stars]
        # a narrower window after a wider one reads the index's leading
        # columns and keeps the index; m_star is 362 at g = 8, below the
        # target's 365
        back = [fbl_core._build_split_tables(160, 8.0, m_total), tables_seq[1]]
        assert back[0][2] < m_stars[0]
        widths = self._assert_steps_match(setup, back, gains, floors, m_total)
        assert widths == [m_stars[-1] - 1] * 2

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_one_setup_serves_the_all_inf_table(self, n):
        # the all-inf table needs the widest window, the whole spare, and
        # finite tables stepped after it read its leading columns
        m_total = 2000
        gains = (10.0 ** np.linspace(-2.0, 2.0, n)).tolist()
        floors = [1] * n
        spare = m_total - n
        all_inf = fbl_core._build_split_tables(1024 * m_total, 6.0, m_total)
        assert all_inf[2] == m_total
        tables_seq = [
            fbl_core._build_split_tables(160, G_TARGET_1E9, m_total),
            all_inf,
            fbl_core._build_split_tables(160, 20.0, m_total),
        ]
        setup = allocators._SplitSetup(gains, floors, m_total)
        widths = self._assert_steps_match(setup, tables_seq, gains, floors, m_total)
        assert widths == [tables_seq[0][2] - 1, spare, spare]

    def test_one_setup_serves_random_tables(self):
        # one setup per instance, stepped at tables of several margins in
        # random order, so windows widen, narrow and vanish (spare 0)
        rng = np.random.default_rng(2301)
        widened = narrowed = 0
        for _ in range(300):
            payload_bits, _, m_total, gains, floors = _random_split_instance(rng)
            margins = rng.uniform(-20.0, 40.0, size=5).tolist()
            tables_seq = [
                fbl_core._build_split_tables(payload_bits, g, m_total) for g in margins
            ]
            setup = allocators._SplitSetup(gains, floors, m_total)
            widths = self._assert_steps_match(setup, tables_seq, gains, floors, m_total)
            spare = m_total - sum(floors)
            needed = [min(spare, tables[2] - 1) for tables in tables_seq]
            widened += len(set(widths) - {0}) > 1
            narrowed += any(0 < w < widths[-1] for w in needed)
        assert widened >= 30 and narrowed >= 50, (widened, narrowed)

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
                table, steps, m_star = fbl_core._build_split_tables(payload_bits, g, m_total)
                assert np.array_equal(table, inline), (payload_bits, g, m_total)
                # the split tables of the same pass: inf - inf reads as inf
                with np.errstate(invalid="ignore"):
                    inline_steps = inline[:-1] - inline[1:]
                inline_steps[np.isnan(inline_steps)] = np.inf
                first = int(np.argmin(inline))
                inline_m_star = first + 1 if np.isfinite(inline[first]) else m_total
                assert np.array_equal(steps, inline_steps), (payload_bits, g, m_total)
                assert m_star == inline_m_star, (payload_bits, g, m_total)
        # the overflow region is covered: D = 1024 * M overflows at every m
        assert np.all(np.isinf(fbl_core._build_split_tables(1024 * m_total, 6.0, m_total)[0]))
        for axis in fbl_core._table_axes(160, m_total):
            assert not axis.flags.writeable
            with pytest.raises(ValueError):
                axis[0] = 0.0

    def test_cached_tables_reject_writes(self):
        # the cache hands its arrays to every caller, so only they are
        # read-only; a joint round's tables never leave their solve
        allocators._split_tables.cache_clear()
        for key in [
            (160, G_TARGET_1E9, 200),
            (1, -5.0, 1000),
            (2500, 26.0, 7),  # guarded pass: m = 1, 2 overflow
            (1024 * 40, 6.0, 40),  # guarded pass: inf everywhere
        ]:
            cached = allocators._split_tables(*key)
            built = fbl_core._build_split_tables(*key)
            assert cached[2] == built[2], key
            for shared, own in zip(cached[:2], built[:2]):
                assert shared.tobytes() == own.tobytes(), key
                assert not shared.flags.writeable and own.flags.writeable
                with pytest.raises(ValueError):
                    shared[:] = 0.0
                own[0] = 0.0
        allocators._split_tables.cache_clear()
        neg_c0 = fbl_core._neg_min_energy_gains(160, 200)
        with pytest.raises(TypeError):
            neg_c0[0] = 0.0


# Fixed, seed-free example sets, as _MONOTONE_RELATION below
_KERNEL_EXAMPLES = settings(
    derandomize=True, max_examples=200, deadline=None, database=None
)
# small integers tie often, across rows too; +-0.0 compare equal, and
# the infinities sit at either end
_tied_entries = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, -math.inf, math.inf]),
)


@st.composite
def _tied_matrices(draw):
    n = draw(st.integers(1, 10))
    width = draw(st.integers(1, 12))
    entries = draw(st.lists(_tied_entries, min_size=n * width, max_size=n * width))
    return np.array(entries).reshape(n, width)


def _stable_sort_counts(matrix, k):
    """How many of the first k entries of one stable sort each row holds."""
    n, width = matrix.shape
    order = matrix.argsort(axis=None, kind="stable")[:k]
    return np.bincount(order // width, minlength=n)


def _stable_sort_step(setup, steps, m_star):
    """_SplitSetup.step's split by its former rule: one stable sort of the
    negated savings, granting order[:min(spare, positive)]."""
    width = min(setup.spare, m_star - 1)
    if width <= 0:
        return setup.floors.tolist()
    index = setup.floors[:, None] + np.arange(-1, width - 1)
    neg_savings = steps[index] / setup.neg_gains
    order = neg_savings.argsort(axis=None, kind="stable")
    positive = np.count_nonzero(neg_savings < 0.0)
    granted = order[: min(setup.spare, positive)] // width
    return (setup.floors + np.bincount(granted, minlength=setup.floors.size)).tolist()


class TestCountsAtMost:
    """allocators._counts_at_most, the one selection behind every grant,
    against the stable sort it replaced. The solvers' rows are monotone
    and rarely tie across rows; these matrices are neither, so the tie
    branch is covered here."""

    @_KERNEL_EXAMPLES
    @given(_tied_matrices())
    def test_matches_the_stable_sort_at_every_k(self, matrix):
        for k in range(1, matrix.size + 1):
            t = np.partition(matrix, k - 1, axis=None)[k - 1]
            got = allocators._counts_at_most(matrix, t, k)
            assert got.tolist() == _stable_sort_counts(matrix, k).tolist(), (matrix, k)

    @pytest.mark.parametrize(
        "matrix, k, expected",
        [
            ([[1.0, 1.0], [1.0, 1.0]], 3, [2, 1]),
            ([[2.0, 1.0], [1.0, 0.0], [1.0, 5.0]], 3, [1, 2, 0]),
            ([[0.0, 7.0], [-0.0, -0.0]], 2, [1, 1]),
            ([[-math.inf, 3.0], [-math.inf, -math.inf]], 2, [1, 1]),
        ],
    )
    def test_ties_go_in_row_major_order(self, matrix, k, expected):
        matrix = np.array(matrix)
        t = np.partition(matrix, k - 1, axis=None)[k - 1]
        assert allocators._counts_at_most(matrix, t, k).tolist() == expected
        assert _stable_sort_counts(matrix, k).tolist() == expected

    @pytest.mark.parametrize(
        "m_total, m_star, steps, case",
        [
            # 4 spare, 2 x 4 window: two positive savings, so the 4th
            # smallest negated saving is 1.0
            (6, 6, [2.0, -1.0, -1.0, -1.0, -1.0], "t >= 0"),
            # the same with zero savings: their negation is -0.0
            (6, 6, [2.0, 0.0, 0.0, 0.0, 0.0], "t = -0.0"),
            # 8 spare, 2 x 2 window
            (10, 3, [3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "spare >= N"),
            # 4 spare, every saving positive: the selection grants
            (6, 6, [5.0, 4.0, 3.0, 2.0, 1.0], "t < 0"),
        ],
    )
    def test_step_sign_rule(self, m_total, m_star, steps, case):
        setup = allocators._SplitSetup([1.0, 1.0], [1, 1], m_total)
        steps = np.array(steps)
        width = min(setup.spare, m_star - 1)
        neg_savings = steps[setup.floors[:, None] + np.arange(-1, width - 1)] / setup.neg_gains
        if case == "spare >= N":
            assert setup.spare >= neg_savings.size
        else:
            t = np.partition(neg_savings, setup.spare - 1, axis=None)[setup.spare - 1]
            assert {
                "t >= 0": t >= 0.0 and math.copysign(1.0, t) > 0.0,
                "t = -0.0": t == 0.0 and math.copysign(1.0, t) < 0.0,
                "t < 0": t < 0.0,
            }[case]
        got = setup.step((None, steps, m_star)).tolist()
        assert got == _stable_sort_step(setup, steps, m_star)

    @_KERNEL_EXAMPLES
    @given(st.integers(1, 10), st.integers(0, 30), st.data())
    def test_step_matches_the_stable_sort(self, n, spare, data):
        # tied savings of either sign, zeros of either sign and infinite
        # ones, over floors that leave at least `spare` symbols spare
        m_total = n + spare + data.draw(st.integers(0, 10))
        floors = np.full(n, 1)
        raised = st.lists(st.integers(0, n - 1), max_size=m_total - n - spare)
        np.add.at(floors, data.draw(raised), 1)
        m_star = data.draw(st.integers(1, m_total))
        entries = st.lists(_tied_entries, min_size=m_total - 1, max_size=m_total - 1)
        steps = np.array(data.draw(entries))
        gains = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
        setup = allocators._SplitSetup(gains, floors.tolist(), m_total)
        got = setup.step((None, steps, m_star)).tolist()
        assert got == _stable_sort_step(setup, steps, m_star)


class TestEqualAllocation:
    def test_remainder_rule(self):
        scenario = make_scenario([1.0] * 4, symbol_budget=200)
        allocation = equal_allocation_energy(scenario).allocation
        assert allocation.blocklengths == (50, 50, 50, 50)
        scenario3 = make_scenario([1.0] * 3, symbol_budget=200)
        allocation3 = equal_allocation_energy(scenario3).allocation
        assert allocation3.blocklengths == (67, 67, 66)

    def test_identical_links_match_symbol_sharing(self):
        scenario = make_scenario([0.2] * 3, symbol_budget=201)
        equal_energy = equal_allocation_energy(scenario).total_energy
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

    def test_matches_the_definition_on_small_budgets(self):
        # every split with sum(m) <= M and m_i at or above its energy floor,
        # scored as sum(min_power_for_target(h_i, m_i, D, g) * m_i); the
        # first least one in lexicographic order wins. At D=32 the floors
        # rise above 1; at D=1 each energy is least at m* = 16, so some
        # answers leave symbols unspent.
        def energy_floor(h, m_total, d):
            # the least m at which the whole budget, E = 1 J, affords
            # margin 0; one symbol where no m <= M does
            for m in range(1, m_total + 1):
                if m * min_power_for_target(1.0, m, d, 0.0) < h:
                    return m
            return 1

        rng = np.random.default_rng(608)
        g = G_TARGET_1E9
        cases = [(n, m_total, 32) for n in (2, 3) for m_total in (12, 18, 24)]
        cases += [(2, 40, 1), (3, 50, 1)]
        raised_floors = unspent = 0
        for n, m_total, d in cases:
            for _ in range(4):
                gains = list(10.0 ** rng.uniform(2.0, 3.5, size=n))
                scenario = make_scenario(
                    gains, symbol_budget=m_total, payload_bits=d, energy_budget=1.0
                )
                floors = [energy_floor(h, m_total, d) for h in gains]
                raised_floors += sum(f > 1 for f in floors)
                # energies[i][m - 1]: vehicle i's energy at m symbols
                energies = [
                    [min_power_for_target(h, m, d, g) * m for m in range(1, m_total + 1)]
                    for h in gains
                ]
                best_m, best_e = None, math.inf
                for m_vec in itertools.product(range(1, m_total + 1), repeat=n):
                    if sum(m_vec) > m_total:
                        continue
                    if any(m < f for m, f in zip(m_vec, floors)):
                        continue
                    energy = sum(row[m - 1] for row, m in zip(energies, m_vec))
                    if energy < best_e:
                        best_m, best_e = m_vec, energy
                if best_m is None:
                    with pytest.raises(InfeasibleError):
                        brute_force_energy(scenario)
                    continue
                oracle = brute_force_energy(scenario)
                assert oracle.allocation.blocklengths == best_m
                assert oracle.total_energy == pytest.approx(best_e, rel=1e-12)
                unspent += sum(best_m) < m_total
        assert raised_floors >= 20
        assert unspent >= 4

    def test_independent_of_the_solvers_split_tables(self, monkeypatch):
        # the oracle must not share the numpy c_g tables or the greedy
        # split of the solver it checks
        rng = np.random.default_rng(609)
        instances = [
            sample_scenario(SystemConfig(), n, seed=int(rng.integers(0, 2**63)))
            for n in (1, 2, 3)
            for _ in range(2)
        ]
        expected = [symbol_sharing(scenario) for scenario in instances]

        def forbidden(*args):
            raise AssertionError("brute_force_energy used the solvers' split")

        for module, name in (
            (fbl_core, "_build_split_tables"),
            (allocators, "_build_split_tables"),
            (allocators, "_split_tables"),
            (allocators, "_SplitSetup"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        for scenario, shared in zip(instances, expected):
            oracle = brute_force_energy(scenario)
            assert oracle.total_energy == pytest.approx(shared.total_energy, rel=1e-9)
        # a name the oracles bound themselves would escape the patch above
        for name in ("_build_split_tables", "_split_tables", "_SplitSetup"):
            assert not hasattr(oracles, name), name

    def test_cost_guard(self):
        # one guard on the search's cost, n * M^2 <= 10 * 1000^2
        for n, m_total in ((10, 1001), (1, 3163)):
            with pytest.raises(ValueError, match=r"n \* M\^2"):
                brute_force_energy(make_scenario([1.0] * n, symbol_budget=m_total))
        report = brute_force_energy(make_scenario([1.0] * 4))
        assert report.allocation.blocklengths == (50, 50, 50, 50)


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
            assert abs(report.worst_margin.g - g) <= 1e-9
            # at g >= 0 every closed-form power is positive
            assert report.clamped == ()
            assert report.total_energy <= scenario.config.energy_budget
            assert report.iterations >= 1
        assert feasible + infeasible >= 100
        assert feasible >= 80 and infeasible >= 10

    def test_split_margin_below_zero_clamps_long_links(self):
        # The joint solver can settle on g < 0. Vehicle 1 has so many
        # symbols that its zero-power margin sits above that g: the
        # closed form clamps it at p = 0, equalization is waived for it,
        # and the report flags it.
        m_vec = [16, 1600]
        budget = 16.0 * math.expm1(LN2 * 10 - 1)
        g, powers, energy, _ = fbl_core._split_margin(m_vec, [1.0, 1.0], 160, budget)
        assert g == pytest.approx(-4.0, abs=1e-9)
        scenario = make_scenario(
            [1.0, 1.0], symbol_budget=2000, energy_budget=budget, payload_bits=160
        )
        report = _build_report(
            scenario, powers, m_vec, solver_name="joint_minmax",
            iterations=1, converged=True, enforce_energy_budget=True,
            total_energy=energy,
        )
        assert report.clamped == (1,)
        assert report.allocation.powers[1] == 0.0
        assert report.worst_margin.g == pytest.approx(-4.0, abs=1e-9)

    def test_split_margin_powers_are_min_power_for_target(self, monkeypatch):
        # The solvers report the powers of the margin solve's last
        # evaluation as they are, so each must be min_power_for_target's
        # at the returned g to the bit: on clamped vehicles, and after the
        # ulp walk that a stalled Newton solve falls back on.
        stalls = []
        ulp = math.ulp
        monkeypatch.setattr(math, "ulp", lambda x: stalls.append(x) or ulp(x))
        clamped = 0
        for m_vec, gains, d, budget in _margin_solve_cases():
            g, powers, energy, _ = fbl_core._split_margin(m_vec, gains, d, budget)
            expected = [min_power_for_target(h, m, d, g) for h, m in zip(gains, m_vec)]
            assert [p.hex() for p in powers] == [p.hex() for p in expected]
            assert energy == math.fsum(map(operator.mul, powers, m_vec)) <= budget
            clamped += powers.count(0.0)
        assert clamped >= 10
        assert len(stalls) >= 3

    def test_split_margin_evaluates_no_margin_twice(self, monkeypatch):
        # A stalled Newton solve has just found its g over budget, so its
        # ulp walk must start below that g. Each energy evaluation calls
        # expm1(ln2 * D / m + g / sqrt(m)) once per link; neighbouring
        # margins can round to the same argument, so sqrt(m) is wrapped to
        # record the g divided by it, and expm1 keeps that g per call.
        class Root(float):
            def __rtruediv__(self, numerator):
                divided[0] = numerator
                return numerator / float(self)

        divided = [None]
        margins = []
        stalls = []
        sqrt, expm1, ulp = math.sqrt, math.expm1, math.ulp
        monkeypatch.setattr(math, "sqrt", lambda x: Root(sqrt(x)))
        monkeypatch.setattr(math, "expm1", lambda x: margins.append(divided[0]) or expm1(x))
        monkeypatch.setattr(math, "ulp", lambda x: stalls.append(x) or ulp(x))
        for m_vec, gains, d, budget in _margin_solve_cases():
            margins.clear()
            g, _, _, evaluations = fbl_core._split_margin(m_vec, gains, d, budget)
            n = len(m_vec)
            evaluated = margins[::n]
            assert margins == [x for x in evaluated for _ in range(n)]
            assert len(evaluated) == evaluations and evaluated[-1] == g
            assert len(set(evaluated)) == evaluations, (m_vec, gains, d, budget)
        assert len(stalls) >= 3

    @pytest.mark.parametrize("cap", [1, 2])
    def test_split_margin_step_cap_walks_from_the_last_margin(self, monkeypatch, cap):
        # No solve reaches the Newton step cap (about seven evaluations
        # against 100), so it is lowered here. A solve that needs more
        # evaluations than the cap walks down from the last g it
        # evaluated, found over budget, and must still return an
        # affordable g priced as min_power_for_target prices it; a solve
        # that needs no more keeps its answer.
        cases = _margin_solve_cases()
        free = [fbl_core._split_margin(*case) for case in cases]
        walks = []
        ulp = math.ulp
        monkeypatch.setattr(math, "ulp", lambda x: walks.append(x) or ulp(x))
        monkeypatch.setattr(fbl_core, "_MAX_NEWTON_STEPS", cap)
        capped = 0
        for (m_vec, gains, d, budget), answer in zip(cases, free):
            walks.clear()
            g, powers, energy, evaluations = fbl_core._split_margin(m_vec, gains, d, budget)
            if answer[3] <= cap:
                assert (g, powers, energy, evaluations) == answer
                continue
            capped += 1
            assert evaluations > cap
            assert len(walks) == 1 and walks[0] > g
            expected = [min_power_for_target(h, m, d, g) for h, m in zip(gains, m_vec)]
            assert [p.hex() for p in powers] == [p.hex() for p in expected]
            assert energy == math.fsum(map(operator.mul, powers, m_vec)) <= budget
        assert capped >= 30

    def test_powers_past_the_overflow_exponent_stay_finite(self):
        # One symbol and a budget near the float limit need an SNR above
        # e^709, where min_power_for_target returns inf; the margin
        # solve's own power is finite and is the one reported.
        scenario = make_scenario([1.0], symbol_budget=1, energy_budget=1e308, payload_bits=1)
        for report in (
            solve_power_minmax_fixed_m(scenario, [1]),
            solve_joint_minmax(scenario),
        ):
            assert min_power_for_target(1.0, 1, 1, report.worst_margin.g) == math.inf
            assert math.isfinite(report.allocation.powers[0])
            assert report.total_energy <= 1e308

    def test_rejects_bad_blocklengths(self):
        scenario = make_scenario([1.0, 1.0], symbol_budget=100)
        with pytest.raises(ValueError):
            solve_power_minmax_fixed_m(scenario, [60, 60])
        with pytest.raises(ValueError):
            solve_power_minmax_fixed_m(scenario, [0, 50])
        # a budget that funds (50, 49), which truncating would solve
        funded = make_scenario([1.0, 1.0], symbol_budget=100, energy_budget=1e6)
        with pytest.raises(ValueError, match=r"must be integers, got \[50.9, 49.9\]"):
            solve_power_minmax_fixed_m(funded, [50.9, 49.9])
        assert solve_power_minmax_fixed_m(
            funded, np.array([50, 49])
        ) == solve_power_minmax_fixed_m(funded, [50, 49])


def _margin_solve_cases():
    """(m_vec, gains, D, budget) of 61 margin solves: one with a clamped
    vehicle at g < 0, 40 feasible fixed-m instances and 20 random splits
    of up to 3000 symbols on tiny budgets. The Newton steps of 17 of them
    stall."""
    rng = np.random.default_rng(1_020)
    cases = [([16, 1600], [1.0, 1.0], 160, 16.0 * math.expm1(LN2 * 10 - 1))]
    for _ in range(40):
        scenario, m_vec = random_feasible_minmax_instance(rng)
        gains = [link.norm_gain for link in scenario.links]
        cfg = scenario.config
        cases.append((m_vec, gains, cfg.payload_bits, cfg.energy_budget))
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m_vec = rng.integers(1, 3000, size=n).tolist()
        gains = (10.0 ** rng.uniform(-3, 3, size=n)).tolist()
        cases.append((m_vec, gains, 4, float(10.0 ** rng.uniform(-6, -2))))
    return cases


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

    def test_budget_below_vehicle_count(self):
        scenario = make_scenario([1.0, 1.0], symbol_budget=1)
        with pytest.raises(InfeasibleError):
            solve_symbols_minmax_fixed_p(scenario)

    def test_second_solve_reads_the_cached_axes(self):
        # the margin matrix reads _table_axes(D, M), so a second request
        # at the same (D, M) builds no axes
        config = SystemConfig(payload_bits=77, symbol_budget=333)
        solve_symbols_minmax_fixed_p(sample_scenario(config, 4, seed=1))
        before = fbl_core._table_axes.cache_info()
        solve_symbols_minmax_fixed_p(sample_scenario(config, 6, seed=2))
        after = fbl_core._table_axes.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_matches_reference_greedy(self):
        # the solver takes the greedy's grants from one selection of the margin
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
                    assert report.worst_margin.g.hex() == trace[-1][1].hex()
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


# joint requests over n, M, D and E, E over five decades
_scan_instances = st.tuples(
    st.integers(1, 10),  # vehicles
    st.sampled_from((10, 40, 100, 200, 400, 1000)),  # symbol budget
    st.sampled_from((16, 160, 1000)),  # payload bits
    st.floats(-3.0, 2.0),  # log10 of the energy budget in J
    st.integers(0, 2**63 - 1),  # scenario seed
)


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

    @_KERNEL_EXAMPLES
    @given(_scan_instances)
    def test_blocklengths_within_bounds(self, instance):
        # No energy floor is imposed, yet an answer has g >= 0, so each
        # vehicle spends at most E on margin >= 0 and sits at or above
        # the least m at which the whole budget affords it margin 0
        n, m_total, payload_bits, log_budget, seed = instance
        config = SystemConfig(
            symbol_budget=m_total, payload_bits=payload_bits, energy_budget=10.0**log_budget
        )
        scenario = sample_scenario(config, n, seed)
        try:
            report = solve_joint_minmax(scenario)
        except InfeasibleError:
            return
        assert report.worst_margin.g >= 0.0
        floors = [
            min_blocklength(link.norm_gain * config.energy_budget, payload_bits, m_total)
            for link in scenario.links
        ]
        assert None not in floors
        for m, floor in zip(report.allocation.blocklengths, floors):
            assert floor <= m <= m_total - (sum(floors) - floor)

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
        # iterations counts the split rounds, each one step of the solve's
        # split setup, and each round that changes the split affords a
        # strictly larger margin
        calls = []
        margins = []
        step = allocators._SplitSetup.step
        solve_margin = allocators._split_margin

        def counted(*args):
            calls.append(1)
            return step(*args)

        def recorded(*args):
            result = solve_margin(*args)
            margins.append(result[0])
            return result

        monkeypatch.setattr(allocators._SplitSetup, "step", counted)
        monkeypatch.setattr(allocators, "_split_margin", recorded)
        solved = 0
        for scenario in _joint_minmax_sweep():
            calls.clear()
            margins.clear()
            try:
                report = solve_joint_minmax(scenario)
            except InfeasibleError:
                continue
            solved += 1
            assert report.total_energy <= scenario.config.energy_budget
            assert len(calls) <= 8
            assert report.iterations == len(calls)
            assert all(a < b for a, b in zip(margins, margins[1:])), margins
            assert report.worst_margin.g == pytest.approx(margins[-1], abs=1e-9)
        assert solved >= 100

    def test_least_energy_stop(self, monkeypatch):
        # Every joint solve here stops on an unchanged split. A looser
        # _REL_IMPROVEMENT makes the other stop fire: a changed split
        # whose least energy at g is within that fraction of the budget.
        # The report is that split's, converged and within the budget,
        # and it counts the rounds, the last one included.
        scenarios = list(_joint_minmax_sweep())
        splits = []
        step = allocators._SplitSetup.step

        def recorded(self, tables):
            split = step(self, tables)
            splits.append(split.tolist())
            return split

        expected = []
        for scenario in scenarios:
            try:
                expected.append(solve_joint_minmax(scenario).worst_margin.g)
            except InfeasibleError:
                expected.append(None)
        monkeypatch.setattr(allocators._SplitSetup, "step", recorded)
        monkeypatch.setattr(allocators, "_REL_IMPROVEMENT", 0.5)
        least_stops = 0
        for scenario, g in zip(scenarios, expected):
            splits.clear()
            if g is None:
                with pytest.raises(InfeasibleError):
                    solve_joint_minmax(scenario)
                continue
            report = solve_joint_minmax(scenario)
            assert report.converged
            assert report.total_energy <= scenario.config.energy_budget
            assert report.iterations == len(splits)
            assert list(report.allocation.blocklengths) == splits[-1]
            assert report.worst_margin.g <= g + 1e-9
            least_stops += len(splits) >= 2 and splits[-1] != splits[-2]
        assert least_stops >= 30

    def test_starts_from_the_cached_target_split(self, monkeypatch):
        # At M=200 a start from the floors builds 3.20 tables per solve; the
        # cached target split builds 1.92 (1.88 on this block). Every table
        # is built by one call of _build_split_tables, a cache miss's too,
        # so each counts once.
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
        assert solves >= 150
        # the one configuration's target tables: one miss, counted above
        assert allocators._split_tables.cache_info().misses == 1
        assert len(builds) / solves <= 2.0

    def test_infeasible_energy_budget(self):
        scenario = make_scenario([1e-9], symbol_budget=40, energy_budget=1e-3)
        with pytest.raises(InfeasibleError, match="below the margin floor 0"):
            solve_joint_minmax(scenario)

    def test_infeasible_floor_sum(self):
        # Each vehicle needs the whole budget at all M symbols to reach
        # margin 0, so two vehicles cannot both reach it.
        required = 40.0 * (2.0 ** (32.0 / 40.0) - 1.0)
        gain = (required * 1.01) / 1.0
        scenario = make_scenario(
            [gain, gain], symbol_budget=40, payload_bits=32, energy_budget=1.0
        )
        with pytest.raises(InfeasibleError, match="below the margin floor 0"):
            solve_joint_minmax(scenario)

    def test_budget_below_vehicle_count(self):
        scenario = make_scenario([1.0, 1.0, 1.0], symbol_budget=2)
        with pytest.raises(InfeasibleError, match="cannot cover 3 vehicles"):
            solve_joint_minmax(scenario)


class TestBruteForceMinmaxGuards:
    # one guard on the search's cost, n * M^2 <= 10 * 1000^2, bounds both
    # the vehicle count and the symbol budget

    @staticmethod
    def _accepts(n, m_total):
        scenario = make_scenario(
            [1.0] * n, symbol_budget=m_total, payload_bits=32, energy_budget=1000.0
        )
        oracle = brute_force_minmax(scenario)
        local = solve_joint_minmax(scenario)
        assert oracle.allocation.blocklengths == (m_total // n,) * n
        assert oracle.worst_margin.g == pytest.approx(local.worst_margin.g, abs=1e-6)

    def test_vehicle_guard(self):
        with pytest.raises(ValueError, match=r"n \* M\^2"):
            brute_force_minmax(make_scenario([1.0] * 10, symbol_budget=1001))
        self._accepts(4, 40)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match=r"n \* M\^2"):
            brute_force_minmax(make_scenario([1.0], symbol_budget=3163))
        self._accepts(1, 101)

    def test_independent_of_the_newton_margin_solve(self, monkeypatch):
        # the oracle must not share the margin solve of the solvers it checks
        rng = np.random.default_rng(520)
        instances = [feasible_joint_instance(rng, n=n) for n in (1, 2, 3) for _ in range(2)]
        expected = [solve_joint_minmax(scenario) for scenario in instances]

        def forbidden(*args):
            raise AssertionError("brute_force_minmax used the solvers' margin solve or split")

        # nor the split tables and greedy split the energy oracle avoids:
        # both oracles stand on the same least-energy search
        for module, name in (
            (allocators, "_split_margin"),
            (fbl_core, "_split_margin"),
            (fbl_core, "_build_split_tables"),
            (allocators, "_build_split_tables"),
            (allocators, "_split_tables"),
            (allocators, "_SplitSetup"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        for scenario, local in zip(instances, expected):
            oracle = brute_force_minmax(scenario)
            assert oracle.worst_margin.g == pytest.approx(local.worst_margin.g, abs=1e-6)
        # a name the oracles bound themselves would escape the patch above
        for name in ("_split_margin", "_build_split_tables", "_split_tables", "_SplitSetup"):
            assert not hasattr(oracles, name), name

    def test_matches_scalar_bisection(self):
        # bisecting on the least energy over every split must pick the
        # split and margin that bisecting each split on its own picks
        rng = np.random.default_rng(521)
        for n in (1, 2, 3):
            for m_total, d in ((24, 16), (40, 32)):
                scenario = feasible_joint_instance(
                    rng, n=n, m_total=m_total, payload_bits=d
                )
                oracle = brute_force_minmax(scenario)
                best_m, best_g = reference_brute_force_minmax(scenario)
                assert oracle.allocation.blocklengths == best_m
                assert oracle.worst_margin.g == pytest.approx(best_g, abs=1e-9)

    def test_empty_enumeration_raises(self):
        # M < n leaves no split of ones or more; an explicit check raises
        # before the search, so it also holds under python -O
        scenario = make_scenario([1e3] * 3, symbol_budget=2, payload_bits=32)
        with pytest.raises(InfeasibleError, match="cannot cover 3 vehicles"):
            brute_force_minmax(scenario)


class TestOraclesAtFigureScale:
    def test_solvers_match_both_oracles_from_four_to_ten_vehicles(self):
        # up to the figures' n = 10. Each budget is drawn around the
        # margin-0 energy of M // n symbols a vehicle, which both problems
        # can afford wherever it covers that energy; both oracles raising
        # InfeasibleError agrees
        def answer(solve, scenario):
            try:
                return solve(scenario)
            except InfeasibleError:
                return None

        rng = np.random.default_rng(530)
        draws = feasible = 0
        for n in range(4, 11):
            for m_total in (50, 100, 200):
                seed = int(rng.integers(0, 2**63))
                base = SystemConfig(symbol_budget=m_total, payload_bits=32)
                share = m_total // n
                margin_zero = sum(
                    share * min_power_for_target(link.norm_gain, share, 32, 0.0)
                    for link in sample_scenario(base, n, seed).links
                )
                budget = margin_zero * 10.0 ** float(rng.uniform(-0.5, 1.5))
                scenario = sample_scenario(
                    dataclasses.replace(base, energy_budget=budget), n, seed
                )
                shared = symbol_sharing(scenario)
                oracle = brute_force_energy(scenario)
                assert shared.total_energy == pytest.approx(oracle.total_energy, rel=1e-9)
                local = answer(solve_joint_minmax, scenario)
                oracle = answer(brute_force_minmax, scenario)
                assert (local is None) == (oracle is None)
                if local is not None:
                    assert local.worst_margin.g == pytest.approx(
                        oracle.worst_margin.g, abs=1e-6
                    )
                    feasible += 1
                draws += 1
        assert feasible >= draws / 2


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


class TestExactGainScaling:
    def test_gains_times_two_to_the_k_over_budget_times_two_to_the_k(self):
        # Every power enters as p * h and every energy as p * m against E,
        # so scaling each gain by 2^k and E by 2^-k scales powers and
        # totals by exactly 2^-k and leaves every decision and margin
        # bit for bit: the products and quotients are exact in floats.
        rng = np.random.default_rng(4_020)
        solved = infeasible = 0
        for m_total in (40, 200, 1000):
            for k in (-7, -3, 2, 5):
                for _ in range(8):
                    n = int(rng.integers(1, 7))
                    budget = float(10.0 ** rng.uniform(-1.0, 2.0))
                    seed = int(rng.integers(0, 2**32))
                    config = SystemConfig(symbol_budget=m_total, energy_budget=budget)
                    gains = [link.norm_gain for link in sample_scenario(config, n, seed).links]
                    base = make_scenario(gains, symbol_budget=m_total, energy_budget=budget)
                    scaled = make_scenario(
                        [h * 2.0**k for h in gains],
                        symbol_budget=m_total,
                        energy_budget=budget * 2.0**-k,
                    )
                    split = (rng.multinomial(m_total - n, np.full(n, 1.0 / n)) + 1).tolist()
                    for solve in (
                        symbol_sharing,
                        equal_allocation_energy,
                        solve_symbols_minmax_fixed_p,
                        solve_joint_minmax,
                        lambda scenario: solve_power_minmax_fixed_m(scenario, split),
                    ):
                        try:
                            want = solve(base)
                        except InfeasibleError:
                            infeasible += 1
                            with pytest.raises(InfeasibleError):
                                solve(scaled)
                            continue
                        got = solve(scaled)
                        solved += 1
                        assert got.allocation.blocklengths == want.allocation.blocklengths
                        assert got.margins == want.margins
                        assert got.allocation.powers == tuple(
                            p * 2.0**-k for p in want.allocation.powers
                        )
                        assert got.total_energy == want.total_energy * 2.0**-k
                        assert got.iterations == want.iterations
                        assert got.converged == want.converged
        assert solved >= 300 and infeasible >= 20


class TestLinkPermutation:
    def test_relabelled_links_permute_the_answer(self):
        # Both solvers price each link on its own and merge the links'
        # entries by value, and every total is an order-free fsum, so
        # relabelling the links permutes the answer bit for bit. Sampled
        # gains never tie, so no tie-break by id can tell the orders apart.
        # equal_allocation is left out: it hands its remainder to the
        # lowest ids, whatever their links.
        rng = np.random.default_rng(6_021)
        solved = infeasible = 0
        for _ in range(600):
            n = int(rng.integers(2, 11))
            config = SystemConfig(
                symbol_budget=int(rng.choice([40, 200, 1000])),
                payload_bits=int(rng.choice([32, 160])),
                energy_budget=float(10.0 ** rng.uniform(-1.0, 2.0)),
            )
            base = sample_scenario(config, n, int(rng.integers(0, 2**63)))
            order = rng.permutation(n).tolist()
            relabelled = dataclasses.replace(
                base,
                links=tuple(
                    dataclasses.replace(base.links[j], vehicle_id=i)
                    for i, j in enumerate(order)
                ),
            )
            for solve in (symbol_sharing, solve_symbols_minmax_fixed_p):
                try:
                    want = solve(base)
                except InfeasibleError as exc:
                    infeasible += 1
                    with pytest.raises(InfeasibleError, match=re.escape(str(exc))):
                        solve(relabelled)
                    continue
                got = solve(relabelled)
                solved += 1
                assert got.allocation.blocklengths == tuple(
                    want.allocation.blocklengths[j] for j in order
                )
                assert [p.hex() for p in got.allocation.powers] == [
                    want.allocation.powers[j].hex() for j in order
                ]
                assert got.margins == tuple(want.margins[j] for j in order)
                assert got.total_energy.hex() == want.total_energy.hex()
                assert got.iterations == want.iterations
                assert got.converged == want.converged
        assert solved >= 1000 and infeasible >= 100


def _package_trees():
    """(file name, syntax tree) of every module of the package."""
    package = os.path.dirname(allocators.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                yield name, ast.parse(handle.read(), filename=name)


# Fixed, seed-free example sets: each run tests the same instances, and
# no example database is written.
_MONOTONE_RELATION = settings(
    derandomize=True, max_examples=220, deadline=None, database=None
)
_joint_instances = st.tuples(
    st.integers(1, 10),  # vehicles
    st.integers(20, 400),  # symbol budget
    st.floats(-1.5, 1.5),  # log10 of the energy budget in J
    st.integers(0, 2**32 - 1),  # scenario seed
)


def _joint_margin(n, m_total, energy_budget, seed):
    """The joint min-max worst margin of one sampled scenario, or None
    when it is infeasible."""
    config = SystemConfig(symbol_budget=m_total, energy_budget=energy_budget)
    try:
        report = solve_joint_minmax(sample_scenario(config, n, seed))
    except InfeasibleError:
        return None
    return report.worst_margin.g


class TestJointMonotoneRelations:
    """The joint optimum can only rise with either budget: every split
    and power vector feasible under E and M stays feasible under a larger
    E or M, whose floors are the same or lower."""

    @_MONOTONE_RELATION
    @given(_joint_instances)
    def test_more_energy_never_lowers_the_margin(self, instance):
        n, m_total, log_budget, seed = instance
        budget = 10.0**log_budget
        g = _joint_margin(n, m_total, budget, seed)
        if g is not None:
            assert _joint_margin(n, m_total, 1.5 * budget, seed) >= g

    @_MONOTONE_RELATION
    @given(_joint_instances)
    def test_more_symbols_never_lower_the_margin(self, instance):
        n, m_total, log_budget, seed = instance
        budget = 10.0**log_budget
        g = _joint_margin(n, m_total, budget, seed)
        if g is not None:
            assert _joint_margin(n, m_total + 50, budget, seed) >= g


_equal_split_instances = st.tuples(
    st.integers(1, 10),  # vehicles
    st.sampled_from((40, 100, 200, 400, 1000)),  # symbol budget
    st.floats(-1.5, 2.0),  # log10 of the energy budget in J
    st.integers(0, 2**32 - 1),  # scenario seed
)


class TestJointOverTheEqualSplit:
    @_MONOTONE_RELATION
    @given(_equal_split_instances)
    def test_never_below_the_fixed_m_margin(self, instance):
        # the equal split is one of the joint problem's candidates, so
        # wherever fixed-m can fund it the joint optimum is at least as high
        n, m_total, log_budget, seed = instance
        config = SystemConfig(symbol_budget=m_total, energy_budget=10.0**log_budget)
        scenario = sample_scenario(config, n, seed)
        try:
            fixed = solve_power_minmax_fixed_m(
                scenario, allocators._equal_split(m_total, n)
            )
        except InfeasibleError:
            return
        assert solve_joint_minmax(scenario).worst_margin.g >= fixed.worst_margin.g


_fixed_power_instances = st.tuples(
    st.integers(1, 10),  # vehicles
    st.sampled_from((40, 100, 200, 400, 1000)),  # symbol budget
    st.floats(-1.5, 2.0).map(lambda x: 10.0**x),  # energy budget in J
    st.integers(0, 2**63 - 1),  # scenario seed
)
# Both solvers reach the same optimum at n = 1 by different arithmetic,
# and the joint margin reads up to 5.7e-14 lower there (ROADMAP item 4)
_ROUNDING_TOLERANCE = 1e-12


class TestJointOverFixedPower:
    """At the default common power p = E / M the fixed-power answer
    spends E over all M symbols, so it is one of the joint problem's
    candidates: wherever it reaches margin 0, the joint solver answers,
    no lower up to rounding."""

    @_MONOTONE_RELATION
    @given(_fixed_power_instances)
    @example((6, 200, 0.1030303704305884, 5734486530578299806))
    def test_never_below_the_fixed_power_margin(self, instance):
        n, m_total, budget, seed = instance
        config = SystemConfig(symbol_budget=m_total, energy_budget=budget)
        scenario = sample_scenario(config, n, seed)
        fixed = solve_symbols_minmax_fixed_p(scenario).worst_margin.g
        if fixed < 0.0:
            return
        joint = solve_joint_minmax(scenario).worst_margin.g
        assert joint >= fixed - _ROUNDING_TOLERANCE

    def test_named_example_raises_below_zero(self):
        # Energy floors of [13, 20, 13, 21, 13, 119] would hold the joint
        # split to (13, 20, 13, 21, 14, 119) at g = -6.677, below the
        # fixed-power answer. The joint optimum reaches -3.896, above it,
        # and the solver raises, as both are below margin 0
        config = SystemConfig(symbol_budget=200, energy_budget=0.1030303704305884)
        scenario = sample_scenario(config, 6, 5734486530578299806)
        fixed = solve_symbols_minmax_fixed_p(scenario)
        assert fixed.allocation.blocklengths == (15, 27, 16, 28, 16, 98)
        assert fixed.worst_margin.g == pytest.approx(-4.751, abs=1e-3)
        with pytest.raises(InfeasibleError, match=r"g = -3\.8959 .* margin floor 0"):
            solve_joint_minmax(scenario)


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

    def test_reports_hold_python_scalars(self):
        # _build_report stores the solvers' iterations, converged, powers
        # and blocklengths as given, so each solver must hand it an int, a
        # bool, float powers and int blocklengths: the report is then what
        # re-boxing every entry would have made of it
        rng = np.random.default_rng(9_002)
        reports = []
        for n in (1, 2, 3):
            scenario = feasible_joint_instance(rng, n=n)
            fixed_m = random_feasible_minmax_instance(rng, n=n)
            reports += [
                symbol_sharing(scenario),
                equal_allocation_energy(scenario),
                solve_symbols_minmax_fixed_p(scenario),
                solve_power_minmax_fixed_m(*fixed_m),
                solve_joint_minmax(scenario),
                brute_force_energy(scenario),
                brute_force_minmax(scenario),
            ]
        # an int common power from a config built in code
        scenario = make_scenario([1.0, 0.5], symbol_budget=40, energy_budget=40.0, common_power=1)
        reports.append(solve_symbols_minmax_fixed_p(scenario))
        for report in reports:
            assert all(type(p) is float for p in report.allocation.powers)
            assert all(type(m) is int for m in report.allocation.blocklengths)
            assert type(report.iterations) is int and report.iterations >= 1
            assert type(report.converged) is bool
            reboxed = Allocation(
                tuple(map(float, report.allocation.powers)),
                tuple(map(int, report.allocation.blocklengths)),
            )
            assert report == dataclasses.replace(report, allocation=reboxed)
        assert len({report.solver_name for report in reports}) == 7

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
                iterations=1, converged=True, enforce_energy_budget=False,
                total_energy=20.1,
            )
        with pytest.raises(RuntimeError, match="exceeds the energy budget"):
            _build_report(
                scenario, [1.0, 1.0], [100, 100], solver_name="probe",
                iterations=1, converged=True, enforce_energy_budget=True,
                total_energy=200.0,
            )

    def test_budget_breach_raises_under_python_optimize(self):
        # the same two breaches in a python -O process, where asserts are
        # compiled out
        code = (
            "import sys\n"
            "from elid_urllc.allocators import _build_report\n"
            "from elid_urllc.channel_model import SystemConfig, sample_scenario\n"
            "scenario = sample_scenario(SystemConfig(), 2, seed=0)\n"
            "for powers, m_vec, enforce, total in (\n"
            "    ([0.1, 0.1], [100, 101], False, 20.1),\n"
            "    ([1.0, 1.0], [100, 100], True, 200.0),\n"
            "):\n"
            "    try:\n"
            "        _build_report(scenario, powers, m_vec, solver_name='probe',\n"
            "                      iterations=1, converged=True,\n"
            "                      enforce_energy_budget=enforce,\n"
            "                      total_energy=total)\n"
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
        found = [
            f"{name}:{node.lineno}"
            for name, tree in _package_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_only_build_report_makes_a_solve_report(self):
        # one report path: every solver's report is built and checked in
        # allocators._build_report
        found = []
        for name, tree in _package_trees():
            allowed = set()
            if name == "allocators.py":
                builder = next(
                    node
                    for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_build_report"
                )
                allowed = {id(node) for node in ast.walk(builder)}
            found += [
                f"{name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and "SolveReport" in (getattr(node.func, a, None) for a in ("id", "attr"))
                and id(node) not in allowed
            ]
        assert found == []

    def test_only_run_solver_dispatches_to_a_solver(self):
        # one dispatch: outside allocators, only experiments.run_solver
        # names a solver function, and only experiments and the package's
        # public names import one
        solvers = {
            "symbol_sharing",
            "equal_allocation_energy",
            "solve_joint_minmax",
            "solve_power_minmax_fixed_m",
            "solve_symbols_minmax_fixed_p",
        }
        found = []
        for name, tree in _package_trees():
            if name == "allocators.py":
                continue
            allowed = set()
            if name == "experiments.py":
                dispatch = next(
                    node
                    for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "run_solver"
                )
                allowed = {id(node) for node in ast.walk(dispatch)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    imported = solvers & {alias.name for alias in node.names}
                    if imported and name not in ("__init__.py", "experiments.py"):
                        found.append(f"{name}:{node.lineno}")
                elif (
                    isinstance(node, (ast.Name, ast.Attribute))
                    and solvers & {getattr(node, a, None) for a in ("id", "attr")}
                    and id(node) not in allowed
                ):
                    found.append(f"{name}:{node.lineno}")
        assert found == []

    def test_only_fbl_core_and_oracles_evaluate_the_link_model(self):
        # one link-model kernel: outside fbl_core and the independent
        # oracles, no module calls expm1 or log1p or reads LN2
        found = [
            f"{name}:{node.lineno}"
            for name, tree in _package_trees()
            if name not in ("fbl_core.py", "oracles.py")
            for node in ast.walk(tree)
            if (
                isinstance(node, ast.Call)
                and {"expm1", "log1p"} & {getattr(node.func, a, None) for a in ("id", "attr")}
            )
            or (
                isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
                and "LN2" in (getattr(node, "id", None), getattr(node, "attr", None))
            )
        ]
        assert found == []

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_allocation_names_a_bad_power_anywhere(self, bad, position):
        # first, middle or last: a fast path built on min() would miss a
        # nan after the first entry
        powers = [0.5, 1.0, 0.0, 2.0, 0.25]
        powers[position] = bad
        with pytest.raises(ValueError) as info:
            Allocation(tuple(powers), (1, 2, 3, 4, 5))
        assert str(info.value) == f"powers must be finite and >= 0, got {bad!r}"

    def test_reports_are_the_records_their_constructors_build(self):
        # _build_report and reliability_margin fill the slots directly;
        # each record must be the one its dataclass __init__ would build
        rng = np.random.default_rng(2_203)
        scenario = feasible_joint_instance(rng, n=4)
        fixed_m = random_feasible_minmax_instance(rng, n=3)
        reports = [
            symbol_sharing(scenario),
            equal_allocation_energy(scenario),
            solve_power_minmax_fixed_m(*fixed_m),
            solve_symbols_minmax_fixed_p(scenario),
            solve_joint_minmax(scenario),
        ]
        for report in reports:
            fields = [getattr(report, f.name) for f in dataclasses.fields(SolveReport)]
            built = SolveReport(*fields)
            assert report == built and built == report
            assert hash(report) == hash(built)
            assert repr(report) == repr(built)
            copy = dataclasses.replace(report)
            assert copy == report and copy is not report
            renamed = dataclasses.replace(report, solver_name="renamed")
            assert renamed == SolveReport(*fields[:-1], "renamed")
            with pytest.raises(dataclasses.FrozenInstanceError):
                report.iterations = 0
            for margin in report.margins:
                twin = ReliabilityMargin(margin.g, margin.eps_log10)
                assert margin == twin and hash(margin) == hash(twin)
                assert repr(margin) == repr(twin)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    margin.g = 0.0
        assert len({report.solver_name for report in reports}) == 5

    def test_allocation_validation(self):
        with pytest.raises(ValueError):
            Allocation(powers=(1.0,), blocklengths=(1, 2))
        with pytest.raises(ValueError):
            Allocation(powers=(-1.0,), blocklengths=(1,))
        with pytest.raises(ValueError):
            Allocation(powers=(1.0,), blocklengths=(0,))
        with pytest.raises(ValueError):
            Allocation(powers=(math.inf,), blocklengths=(1,))


def _reboxed(report) -> Allocation:
    """The report's allocation rebuilt by the public constructor, after
    holding each entry to the types and bounds that constructor checks.
    _build_report fills the slots without those checks."""
    allocation = report.allocation
    assert type(allocation.powers) is tuple and type(allocation.blocklengths) is tuple
    for p in allocation.powers:
        assert type(p) is float and math.isfinite(p) and p >= 0.0, (report.solver_name, p)
    for m in allocation.blocklengths:
        assert type(m) is int and m >= 1, (report.solver_name, m)
    return Allocation(allocation.powers, allocation.blocklengths)


class TestSolverAllocationsPassThePublicChecks:
    """Every answer's allocation is one the public Allocation(...) accepts
    and equals: the checks _build_report skips would all have passed."""

    def test_on_the_pinned_request_block(self):
        answers = 0
        for scenario in _block():
            for solver in SOLVER_NAMES:
                try:
                    report = run_solver(solver, scenario)
                except InfeasibleError:
                    continue
                assert _reboxed(report) == report.allocation
                answers += 1
        assert answers >= 500

    def test_on_random_instances_with_both_oracles(self):
        # 300 seeded instances small enough for the min-max oracle, some
        # of them infeasible for the budgeted solvers
        rng = np.random.default_rng(2_502)
        solvers = (
            symbol_sharing,
            equal_allocation_energy,
            solve_symbols_minmax_fixed_p,
            solve_joint_minmax,
            brute_force_energy,
            brute_force_minmax,
        )
        answered = dict.fromkeys([solve.__name__ for solve in solvers], 0)
        answered["solve_power_minmax_fixed_m"] = 0
        zero_powers = 0
        for _ in range(300):
            n = int(rng.integers(1, 4))
            m_total = int(rng.integers(n, 41))
            payload_bits = int(rng.choice([8, 32, 160]))
            scenario = feasible_joint_instance(
                rng, n=n, m_total=m_total, payload_bits=payload_bits
            )
            config = scenario.config
            if rng.random() < 0.25:  # a budget the min-max solvers may not meet
                config = dataclasses.replace(
                    config, energy_budget=float(10.0 ** rng.uniform(-6.0, -1.0))
                )
            if rng.random() < 0.25:  # a negative target margin, met at zero power
                config = dataclasses.replace(config, target_eps=float(rng.uniform(0.6, 0.99)))
            scenario = dataclasses.replace(scenario, config=config)
            reports = []
            for solve in solvers:
                try:
                    reports.append(solve(scenario))
                except InfeasibleError:
                    continue
                answered[solve.__name__] += 1
            m_vec = (1 + rng.multinomial(m_total - n, np.full(n, 1.0 / n))).tolist()
            try:
                reports.append(solve_power_minmax_fixed_m(scenario, m_vec))
                answered["solve_power_minmax_fixed_m"] += 1
            except InfeasibleError:
                pass
            for report in reports:
                assert _reboxed(report) == report.allocation
                zero_powers += report.allocation.powers.count(0.0)
        assert min(answered.values()) >= 100, answered
        assert zero_powers > 0


# SystemConfig's validated range, as wide as every solve stays in floats:
# payloads and budgets up to 2e4 symbols (one margin matrix row per
# vehicle is M entries), energy budgets over 24 decades, error targets
# down to the smallest subnormal, and geometry, noise and K factors far
# from the figures' configs
_ACCEPTED_CONFIGS = st.builds(
    SystemConfig,
    payload_bits=st.integers(1, 20_000),
    symbol_budget=st.integers(1, 20_000),
    energy_budget=st.floats(-12.0, 12.0).map(lambda x: 10.0**x),
    target_eps=st.floats(-323.3, -0.01).map(lambda x: max(10.0**x, 5e-324)),
    bandwidth=st.floats(0.0, 10.0).map(lambda x: 10.0**x),
    noise_psd_dbm_hz=st.floats(-220.0, -120.0),
    road_length=st.floats(-1.0, 4.0).map(lambda x: 10.0**x),
    mount_height=st.floats(-1.0, 3.0).map(lambda x: 10.0**x),
    rician_k_db=st.floats(-60.0, 60.0),
    common_power=st.none() | st.floats(-9.0, 3.0).map(lambda x: 10.0**x),
)

# energy-budgeted solvers; the energy solvers price a target margin with
# no budget on the total
_MINMAX_SOLVERS = ("joint_minmax", "power_minmax_fixed_m", "symbols_minmax_fixed_p")


class TestAcceptedConfigSpace:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_ACCEPTED_CONFIGS, st.integers(1, 10), st.integers(0, 2**64 - 1))
    # a gain below 1, whose savings overflow the split's divide
    @example(
        SystemConfig(
            payload_bits=5000, symbol_budget=100, road_length=8000.0, noise_psd_dbm_hz=-150.0
        ),
        10,
        3,
    )
    def test_every_solver_answers_or_is_infeasible(self, config, n, seed):
        # every draw samples, and every solve either gives an answer the
        # public checks accept, within both budgets, or raises
        # InfeasibleError; a warning anywhere is an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario = sample_scenario(config, n, seed)
            for solver in SOLVER_NAMES:
                try:
                    report = run_solver(solver, scenario)
                except InfeasibleError:
                    continue
                allocation = report.allocation
                assert _reboxed(report) == allocation
                assert math.isfinite(report.total_energy), solver
                assert report.total_energy == math.fsum(
                    map(operator.mul, allocation.powers, allocation.blocklengths)
                ), solver
                for margin in report.margins:
                    assert math.isfinite(margin.g) and math.isfinite(margin.eps_log10)
                assert sum(allocation.blocklengths) <= config.symbol_budget
                if solver in _MINMAX_SOLVERS:
                    assert report.total_energy <= config.energy_budget * (1.0 + 1e-9)
