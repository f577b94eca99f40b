"""Tests for the sweep harness: seeding, cardinality, CSV stability."""

import collections
import dataclasses
import math
import statistics
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elid_urllc import experiments
from elid_urllc.allocators import symbol_sharing
from elid_urllc.channel_model import SystemConfig, sample_scenario
from elid_urllc.exceptions import InfeasibleError
from elid_urllc.experiments import (
    METRIC_UNITS,
    SOLVER_NAMES,
    ResultRow,
    SweepSpec,
    cell_seed,
    energy_saved_percent,
    format_csv,
    parse_metric,
    preset_fig4,
    preset_fig5,
    preset_fig6,
    preset_fig7,
    preset_fig8,
    run_solver,
    run_sweep,
    summarize,
    write_csv,
)
from elid_urllc.fbl_core import q_inverse

# the solver names run_solver looks up in experiments, by solver
SWEEP_BINDINGS = {
    "solve_joint_minmax": "joint_minmax",
    "solve_power_minmax_fixed_m": "power_minmax_fixed_m",
    "solve_symbols_minmax_fixed_p": "symbols_minmax_fixed_p",
    "symbol_sharing": "symbol_sharing",
    "equal_allocation_energy": "equal_allocation",
}

# the solves of each preset at num_seeds=2, by solver: 10 values x 2 seeds
# per slot, and fig8's 5 values x 2 seeds per slot
_PRESET_SOLVES = pytest.mark.parametrize(
    "preset, expected",
    [
        (preset_fig4, {"symbols_minmax_fixed_p": 20}),
        (preset_fig5, {"power_minmax_fixed_m": 20}),
        (preset_fig6, {"power_minmax_fixed_m": 20, "symbols_minmax_fixed_p": 20}),
        (preset_fig7, {"symbol_sharing": 40}),
        (preset_fig8, {"symbol_sharing": 10, "equal_allocation": 10}),
    ],
    ids=["fig4", "fig5", "fig6", "fig7", "fig8"],
)


class TestCellSeed:
    # frozen so a refactor cannot silently re-seed published sweeps
    def test_frozen_values(self):
        assert cell_seed("fig7", 3, 0) == 15383506738546595362
        assert cell_seed("fig4", 1, 0) == 3945459469954114272
        assert cell_seed("fig8", 200, 99) == 16361092710257469950

    def test_all_cells_distinct(self):
        seeds = {cell_seed("s", v, i) for v in range(1, 11) for i in range(100)}
        assert len(seeds) == 1000

    def test_in_generator_range(self):
        for seed in (cell_seed("a", 1, 0), cell_seed("b", 1000, 10**6)):
            assert 0 <= seed < 2**64


class TestParseMetric:
    def test_plain(self):
        assert parse_metric("total_energy") == ("total_energy", {})

    def test_with_modifier(self):
        base, mods = parse_metric("total_energy[symbol_budget=1000]")
        assert base == "total_energy"
        assert mods == {"symbol_budget": "1000"}
        base, mods = parse_metric("worst_eps_log10[solver=symbol_sharing]")
        assert mods == {"solver": "symbol_sharing"}

    @pytest.mark.parametrize(
        "name",
        [
            "nonsense",
            "total_energy[unknown=3]",
            "total_energy[solver=not_a_solver]",
            "total_energy[symbol_budget=zero]",
            "total_energy[symbol_budget=0]",
            "total_energy[symbol_budget=200",
            "Total_Energy",
        ],
    )
    def test_rejects(self, name):
        with pytest.raises(ValueError):
            parse_metric(name)

    @pytest.mark.parametrize("solver", SOLVER_NAMES)
    def test_energy_saved_rejects_a_solver(self, solver):
        # the saving always compares symbol_sharing with the equal split
        with pytest.raises(ValueError, match="no solver modifier"):
            parse_metric(f"energy_saved_pct[solver={solver}]")

    def test_energy_saved_takes_a_budget(self):
        assert parse_metric("energy_saved_pct[symbol_budget=1000]") == (
            "energy_saved_pct",
            {"symbol_budget": "1000"},
        )


class TestSweepSpecValidation:
    def _spec(self, **overrides):
        kwargs = dict(
            name="t",
            base_config=SystemConfig(),
            swept_variable="n_vehicles",
            values=(1, 2),
            solver="symbol_sharing",
            outputs=("total_energy",),
            num_seeds=2,
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_valid(self):
        spec = self._spec()
        assert spec.num_seeds == 2
        assert spec.n_vehicles == 5

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"swept_variable": "bandwidth"},
            {"values": ()},
            {"values": (0, 1)},
            {"values": (1.5,)},
            {"values": (3, 3)},
            {"solver": "magic"},
            {"outputs": ()},
            {"outputs": ("not_a_metric",)},
            {"outputs": ("total_energy", "total_energy")},
            {"num_seeds": 0},
            {"num_seeds": 2.5},
            {"num_seeds": math.nan},
            {"num_seeds": math.inf},
            {"n_vehicles": 0},
            {"n_vehicles": 2.5},
            {"n_vehicles": math.nan},
            {"n_vehicles": math.inf},
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(ValueError):
            self._spec(**overrides)

    def test_swept_vehicle_count_above_max_fails_when_built(self):
        # so no cell of a valid value is solved first
        with pytest.raises(ValueError) as info:
            self._spec(values=(1, 11))
        assert str(info.value) == "swept n_vehicles must be in 1..10, got 11"
        # the cap is the config's, not a constant
        with pytest.raises(ValueError, match="in 1..3, got 4"):
            self._spec(base_config=SystemConfig(max_vehicles=3), values=(4,))

    def test_fixed_vehicle_count_above_max_fails_on_a_budget_sweep(self):
        with pytest.raises(ValueError) as info:
            self._spec(swept_variable="symbol_budget", values=(200,), n_vehicles=11)
        assert str(info.value) == "n_vehicles must be in 1..10, got 11"
        # budgets above max_vehicles are fine, and an n_vehicles sweep
        # ignores the fixed count
        assert self._spec(swept_variable="symbol_budget", values=(200, 1000))
        assert self._spec(n_vehicles=11).values == (1, 2)


class TestRunSweep:
    def test_cardinality_single_cell(self):
        spec = SweepSpec(
            name="t",
            base_config=SystemConfig(),
            swept_variable="n_vehicles",
            values=(3,),
            solver="symbol_sharing",
            outputs=("total_energy", "min_blocklength"),
            num_seeds=1,
        )
        rows = run_sweep(spec)
        assert len(rows) == 2

    def test_fig7_cardinality(self):
        rows = run_sweep(preset_fig7(num_seeds=2))
        assert len(rows) == 10 * 2 * 2

    def test_deterministic(self):
        spec = preset_fig4(num_seeds=2)
        assert run_sweep(spec) == run_sweep(spec)

    def test_rows_sorted(self):
        rows = run_sweep(preset_fig6(num_seeds=2))
        keys = [(r.swept_value, r.seed, r.metric_name) for r in rows]
        assert keys == sorted(keys)

    def test_row_order_does_not_depend_on_spec_order(self):
        def spec(values, outputs):
            return SweepSpec(
                name="t",
                base_config=SystemConfig(),
                swept_variable="n_vehicles",
                values=values,
                solver="symbol_sharing",
                outputs=outputs,
                num_seeds=2,
            )

        outputs = (
            "total_energy[symbol_budget=1000]",
            "max_blocklength",
            "worst_eps_log10[solver=power_minmax_fixed_m]",
            "energy_saved_pct",
        )
        rows = run_sweep(spec((3, 1, 2), outputs))
        keys = [(r.swept_value, r.seed, r.metric_name) for r in rows]
        assert keys == sorted(keys)
        assert rows == run_sweep(spec((1, 2, 3), tuple(sorted(outputs))))

    def test_each_solve_runs_once_per_cell_infeasible_included(self, monkeypatch):
        # fig5 reads two metrics from one power_minmax_fixed_m solve; at
        # n=10 some cells are infeasible, and those too are solved once
        calls = []
        solve = experiments.solve_power_minmax_fixed_m

        def counted(scenario, *args):
            calls.append(scenario.links)
            return solve(scenario, *args)

        monkeypatch.setattr(experiments, "solve_power_minmax_fixed_m", counted)
        spec = preset_fig5(num_seeds=30)
        rows = run_sweep(spec)
        assert len(calls) == len(spec.values) * spec.num_seeds
        assert len(set(calls)) == len(calls)
        infeasible = {(r.swept_value, r.seed) for r in rows if r.metric_value is None}
        assert infeasible
        # both of an infeasible cell's metrics come from its one solve
        assert sum(r.metric_value is None for r in rows) == 2 * len(infeasible)

    @_PRESET_SOLVES
    def test_rebound_solver_names_see_every_answer(self, monkeypatch, preset, expected):
        # perfbench's check_sweep_answers checks every sweep answer by
        # rebinding these names
        seen = collections.Counter()
        for binding, solver in SWEEP_BINDINGS.items():

            def counted(scenario, *args, _solve=getattr(experiments, binding),
                        _solver=solver):
                seen[_solver] += 1
                return _solve(scenario, *args)

            monkeypatch.setattr(experiments, binding, counted)
        run_sweep(preset(num_seeds=2))
        assert seen == expected

    @_PRESET_SOLVES
    def test_every_sweep_solve_goes_through_run_solver(self, monkeypatch, preset, expected):
        # run_solver is the one dispatch: each slot of each cell, the two
        # solves behind energy_saved_pct included, is one call of it
        seen = collections.Counter()
        solve = experiments.run_solver

        def counted(solver, scenario):
            seen[solver] += 1
            return solve(solver, scenario)

        monkeypatch.setattr(experiments, "run_solver", counted)
        run_sweep(preset(num_seeds=2))
        assert seen == expected

    def test_cell_matches_direct_solver_call(self):
        spec = SweepSpec(
            name="fig7",
            base_config=SystemConfig(),
            swept_variable="n_vehicles",
            values=(3,),
            solver="symbol_sharing",
            outputs=("total_energy[symbol_budget=1000]",),
            num_seeds=1,
        )
        (row,) = run_sweep(spec)
        config = dataclasses.replace(SystemConfig(), symbol_budget=1000)
        scenario = sample_scenario(config, 3, cell_seed("fig7", 3, 0))
        assert row.metric_value == symbol_sharing(scenario).total_energy
        assert row.seed == 0
        assert row.units == "joules"

    def test_infeasible_recorded_not_raised(self):
        # 10 vehicles, 10 J: the equal split's floor regularly exceeds
        # the budget, which must become a None-valued row.
        spec = preset_fig5(num_seeds=30)
        rows = [r for r in run_sweep(spec) if r.swept_value == 10]
        assert any(r.metric_value is None for r in rows)
        assert all(
            r.metric_value is None or math.isfinite(r.metric_value) for r in rows
        )

    def test_units_follow_base_metric(self):
        rows = run_sweep(preset_fig7(num_seeds=1))
        assert {r.units for r in rows} == {"joules"}
        rows = run_sweep(preset_fig4(num_seeds=1))
        assert {r.units for r in rows} == {"symbols"}


class TestRunSolver:
    def test_equal_allocation_report(self):
        scenario = sample_scenario(SystemConfig(), 3, seed=99)
        report = run_solver("equal_allocation", scenario)
        assert report.solver_name == "equal_allocation"
        assert report.allocation.blocklengths == (67, 67, 66)
        target = q_inverse(scenario.config.target_eps)
        for margin in report.margins:
            assert margin.g == pytest.approx(target, rel=1e-12)

    def test_unknown_solver(self):
        scenario = sample_scenario(SystemConfig(), 1, seed=0)
        with pytest.raises(ValueError):
            run_solver("steepest_descent", scenario)

    def test_power_minmax_uses_equal_split(self):
        scenario = sample_scenario(SystemConfig(energy_budget=1000.0), 3, seed=7)
        report = run_solver("power_minmax_fixed_m", scenario)
        assert sorted(report.allocation.blocklengths, reverse=True) == [67, 67, 66]

    def test_unreachable_target_is_infeasible_for_both_energy_solvers(self):
        # 300000 bits in 200 symbols: every power overflows
        scenario = sample_scenario(SystemConfig(payload_bits=300_000), 1, seed=0)
        for solver in ("symbol_sharing", "equal_allocation"):
            with pytest.raises(InfeasibleError, match="no finite-energy allocation"):
                run_solver(solver, scenario)

    def test_energy_solvers_flag_zero_power_vehicles(self):
        # one payload bit at eps 0.6 (a negative margin) costs no energy
        config = SystemConfig(payload_bits=1, target_eps=0.6)
        scenario = sample_scenario(config, 3, seed=0)
        for solver in ("symbol_sharing", "equal_allocation"):
            report = run_solver(solver, scenario)
            assert report.allocation.powers == (0.0, 0.0, 0.0)
            assert report.clamped == (0, 1, 2)

    def test_clamped_lists_the_zero_power_vehicles(self):
        zero_powers = 0
        for config in (SystemConfig(), SystemConfig(payload_bits=1, target_eps=0.6)):
            for i in range(20):
                scenario = sample_scenario(config, i % 5 + 1, seed=i)
                for solver in SOLVER_NAMES:
                    try:
                        report = run_solver(solver, scenario)
                    except InfeasibleError:
                        continue
                    powers = report.allocation.powers
                    zeros = tuple(k for k, p in enumerate(powers) if p == 0.0)
                    assert report.clamped == zeros
                    zero_powers += len(zeros)
        assert zero_powers > 0


class TestEnergySavedPercent:
    def test_arithmetic(self):
        assert energy_saved_percent(10.0, 10.0) == 0.0
        assert energy_saved_percent(10.0, 5.0) == 50.0

    def test_both_splits_free_saves_nothing(self):
        # a target both splits meet at zero power saves 0%, not an error
        assert energy_saved_percent(0.0, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            energy_saved_percent(0.0, 1.0)
        with pytest.raises(ValueError):
            energy_saved_percent(-1.0, 1.0)

    def test_sharing_never_loses(self):
        spec = preset_fig8(num_seeds=5)
        for row in run_sweep(spec):
            assert row.metric_value is not None
            assert row.metric_value >= 0.0


class TestSummarize:
    def _row(self, value, seed=0, metric="total_energy"):
        return ResultRow("t", 1, seed, metric, value, "joules")

    def test_two_values(self):
        summary = summarize([self._row(2.0, 0), self._row(4.0, 1)])
        (s,) = summary
        assert s.mean == pytest.approx(3.0)
        assert s.sd == pytest.approx(math.sqrt(2.0))
        assert s.count == 2
        assert s.infeasible_count == 0

    def test_single_value_sd_zero(self):
        (s,) = summarize([self._row(7.5)])
        assert s.mean == 7.5
        assert s.sd == 0.0

    def test_all_infeasible(self):
        (s,) = summarize([self._row(None, 0), self._row(None, 1)])
        assert s.mean is None
        assert s.sd is None
        assert s.count == 0
        assert s.infeasible_count == 2

    def test_mixed_groups(self):
        rows = [
            self._row(1.0, 0),
            self._row(None, 1),
            self._row(5.0, 0, metric="max_power"),
        ]
        summary = {s.metric_name: s for s in summarize(rows)}
        assert summary["total_energy"].count == 1
        assert summary["total_energy"].infeasible_count == 1
        assert summary["max_power"].mean == 5.0


def _correctly_rounded_sqrt(value: Fraction) -> float:
    """The float nearest sqrt(value), ties to even, decided exactly: a
    close start from 60-digit decimals, then stepped until the float's
    rounding interval, whose ends are squared as Fractions, holds
    value."""
    if value == 0:
        return 0.0
    with localcontext() as context:
        context.prec = 60
        root = float((Decimal(value.numerator) / Decimal(value.denominator)).sqrt())

    def end(r, toward):  # the end of r's rounding interval, squared
        return ((Fraction(r) + Fraction(math.nextafter(r, toward))) / 2) ** 2

    def odd(r):  # the last bit of the significand
        return int(r.hex().split("p")[0][-1], 16) & 1

    while end(root, math.inf) < value:
        root = math.nextafter(root, math.inf)
    while end(root, -math.inf) > value:
        root = math.nextafter(root, -math.inf)
    if end(root, math.inf) == value and odd(root):
        root = math.nextafter(root, math.inf)
    elif end(root, -math.inf) == value and odd(root):
        root = math.nextafter(root, -math.inf)
    return root


def _exact_sample_variance(values) -> Fraction:
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)


class TestSampleStdev:
    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(
        st.lists(
            st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
            min_size=2,
            max_size=120,
        )
    )
    @example([2.0, 4.0])
    @example([0.1, 0.1, 0.1, 0.1])
    @example([-3.5, 1.25, 7.0, -0.001])
    @example([1e-300, 1e300])
    @example([1e-300, -1e300, 5e-324, 0.0])
    def test_correctly_rounded_root_of_the_exact_variance(self, values):
        sd = experiments._sample_stdev(values)
        assert sd == _correctly_rounded_sqrt(_exact_sample_variance(values))
        if sys.version_info >= (3, 11):
            # 3.11's stdev rounds the same exact variance's root once
            assert sd.hex() == statistics.stdev(values).hex()

    @pytest.mark.parametrize(
        "values, sd",
        [
            ([2.0, 4.0], math.sqrt(2.0)),
            ([0.1] * 7, 0.0),
            ([-1.0, 1.0], math.sqrt(2.0)),
            ([1e-300, 1e300], 1e300 / math.sqrt(2.0)),
        ],
        ids=["two_values", "all_equal", "mixed_signs", "tiny_and_huge"],
    )
    def test_named_examples(self, values, sd):
        assert experiments._sample_stdev(values) == sd


class TestRows:
    def test_slot_filled_rows_equal_constructed_ones(self):
        spec = preset_fig5(num_seeds=3)
        rows = run_sweep(spec)
        assert any(row.metric_value is None for row in run_sweep(
            dataclasses.replace(spec, values=(10,), num_seeds=20)
        ))
        for row in rows:
            built = ResultRow(
                row.sweep_name, row.swept_value, row.seed, row.metric_name,
                row.metric_value, row.units,
            )
            assert row == built
            assert hash(row) == hash(built)
            assert repr(row) == repr(built)

    def test_one_infeasible_slot_of_two(self):
        # At E = 0.1 J symbol_sharing's floors sum past M=200 in some
        # cells, where the equal split still answers: energy_saved_pct
        # reads infeasible, and the metric on the equal slot alone keeps
        # its value
        spec = SweepSpec(
            name="mixed",
            base_config=SystemConfig(energy_budget=0.1),
            swept_variable="n_vehicles",
            values=(5,),
            solver="symbol_sharing",
            outputs=("total_energy[solver=equal_allocation]", "energy_saved_pct"),
            num_seeds=10,
        )
        rows = run_sweep(spec)
        assert len(rows) == 20
        mixed = 0
        for seed_index in range(10):
            saved, equal = rows[2 * seed_index : 2 * seed_index + 2]
            assert saved.metric_name == "energy_saved_pct"
            scenario = sample_scenario(
                spec.base_config, 5, cell_seed("mixed", 5, seed_index)
            )
            e_equal = run_solver("equal_allocation", scenario).total_energy
            assert equal.metric_value == e_equal
            try:
                e_shared = symbol_sharing(scenario).total_energy
            except InfeasibleError:
                assert saved.metric_value is None
                mixed += 1
            else:
                assert saved.metric_value == energy_saved_percent(e_equal, e_shared)
        assert 0 < mixed < 10

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_metric_is_rejected(self, bad, monkeypatch):
        monkeypatch.setitem(experiments._EXTRACT, "total_energy", lambda report: bad)
        spec = SweepSpec(
            name="t",
            base_config=SystemConfig(),
            swept_variable="n_vehicles",
            values=(2,),
            solver="symbol_sharing",
            outputs=("total_energy",),
            num_seeds=1,
        )
        with pytest.raises(ValueError, match="metric_value must be finite or None"):
            run_sweep(spec)


class TestCsv:
    def test_layout_exact(self):
        rows = [
            ResultRow("t", 1, 0, "total_energy", 1.0 / 3.0, "joules"),
            ResultRow("t", 1, 1, "total_energy", None, "joules"),
        ]
        expected = (
            "sweep,swept_value,seed,metric,value,units\n"
            "t,1,0,total_energy,0.333333333333,joules\n"
            "t,1,1,total_energy,infeasible,joules\n"
        )
        assert format_csv(rows) == expected

    def test_write_csv_lf_only(self, tmp_path):
        rows = run_sweep(preset_fig8(num_seeds=1))
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8") == format_csv(rows)

    def test_byte_determinism(self):
        spec = preset_fig7(num_seeds=2)
        assert format_csv(run_sweep(spec)) == format_csv(run_sweep(spec))


class TestPresets:
    def test_fig4(self):
        spec = preset_fig4()
        assert spec.values == tuple(range(1, 11))
        assert spec.base_config.symbol_budget == 200
        assert spec.solver == "symbols_minmax_fixed_p"
        assert set(spec.outputs) == {"max_blocklength", "min_blocklength"}
        assert spec.num_seeds == 100

    def test_fig5(self):
        spec = preset_fig5()
        assert spec.base_config.energy_budget == 10.0
        assert spec.solver == "power_minmax_fixed_m"
        assert set(spec.outputs) == {"max_power", "min_power"}

    def test_fig6_tags_both_solvers(self):
        spec = preset_fig6()
        solvers = {parse_metric(m)[1]["solver"] for m in spec.outputs}
        assert solvers == {"power_minmax_fixed_m", "symbols_minmax_fixed_p"}

    def test_fig7(self):
        spec = preset_fig7()
        assert spec.base_config.payload_bits == 160
        budgets = {parse_metric(m)[1]["symbol_budget"] for m in spec.outputs}
        assert budgets == {"200", "1000"}

    def test_fig8(self):
        spec = preset_fig8()
        assert spec.swept_variable == "symbol_budget"
        assert spec.values == (200, 400, 600, 800, 1000)
        assert spec.n_vehicles == 5
        assert spec.outputs == ("energy_saved_pct",)

    def test_metric_units_cover_presets(self):
        for preset in (preset_fig4, preset_fig5, preset_fig6, preset_fig7, preset_fig8):
            for metric in preset().outputs:
                base, _ = parse_metric(metric)
                assert base in METRIC_UNITS


class TestTrendProperties:
    def test_restricted_solvers_agree_within_order_of_magnitude(self):
        rows = run_sweep(preset_fig6(num_seeds=4))
        by_cell = {}
        for row in rows:
            if row.metric_value is None:
                continue
            solver = parse_metric(row.metric_name)[1]["solver"]
            by_cell.setdefault((row.swept_value, row.seed), {})[solver] = (
                row.metric_value
            )
        checked = 0
        for pair in by_cell.values():
            if len(pair) < 2:
                continue
            a = pair["power_minmax_fixed_m"]
            b = pair["symbols_minmax_fixed_p"]
            assert 0.1 <= a / b <= 10.0
            checked += 1
        assert checked >= 20

    def test_fig7_budgets_share_channel_draws(self):
        # both budget variants inside one cell must see the same links
        seed = cell_seed("fig7", 4, 1)
        base = SystemConfig()
        loose = dataclasses.replace(base, symbol_budget=1000)
        a = sample_scenario(base, 4, seed)
        b = sample_scenario(loose, 4, seed)
        assert a.links == b.links
