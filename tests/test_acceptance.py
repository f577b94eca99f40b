"""Acceptance gate: ten checks, one verdict line each.

Each check prints "[ k/10] <label>: PASS|FAIL" straight to the terminal
(bypassing capture) and then asserts, so the suite log doubles as an
acceptance checklist. Tolerances and runtime budgets are pinned here and
nowhere else.
"""

import math
import time

import numpy as np
import pytest

from elid_urllc.allocators import (
    solve_power_minmax_fixed_m,
    solve_symbols_minmax_fixed_p,
    symbol_sharing,
)
from elid_urllc.channel_model import SystemConfig, sample_scenario
from elid_urllc.cli import main
from elid_urllc.experiments import (
    preset_fig4,
    preset_fig7,
    preset_fig8,
    run_sweep,
    summarize,
)
from elid_urllc.fbl_core import (
    DispersionMode,
    ShortPacketParams,
    achievable_rate,
    min_blocklength,
    min_power_for_target,
    q_inverse,
    reliability_margin,
    shannon_capacity,
)
from elid_urllc.oracles import brute_force_energy
from oracle_utils import (
    grid_oracle_minmax_two_vehicles,
    make_scenario,
    random_feasible_minmax_instance,
)


@pytest.fixture
def verdict(capsys):
    def check(index, label, ok, detail=""):
        with capsys.disabled():
            print(f"[{index:2d}/10] {label}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {index} failed: {label}. {detail}"

    return check


@pytest.fixture(scope="module")
def fig7_data():
    start = time.perf_counter()
    rows = run_sweep(preset_fig7())
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig4_rows():
    return run_sweep(preset_fig4())


def test_01_shannon_limit_recovery(verdict):
    start = time.perf_counter()
    capacity = shannon_capacity(10.0)
    blocklengths = [100 * 4**k for k in range(11)]
    gaps = [
        capacity
        - achievable_rate(
            ShortPacketParams(
                payload_bits=1,
                blocklength=m,
                snr=10.0,
                dispersion_mode=DispersionMode.EXACT,
            ),
            eps=1e-3,
        )
        for m in blocklengths
    ]
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    elapsed = time.perf_counter() - start
    ok = all(abs(r - 0.5) <= 0.025 for r in ratios) and elapsed < 1.0
    verdict(
        1,
        "normal-approximation gap halves per blocklength quadrupling",
        ok,
        f"ratios={ratios}, elapsed={elapsed:.3f}s",
    )


def test_02_margin_fixed_point_and_power_round_trip(verdict):
    start = time.perf_counter()
    margin = reliability_margin(1.0, 160, 160)
    fixed_point_ok = margin.g == 0.0 and margin.eps == 0.5

    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(10_000):
        m = int(rng.integers(1, 1001))
        d = int(rng.integers(1, 100 * m + 1))
        g_target = float(rng.uniform(0.0, 10.0))
        gain = 10.0 ** float(rng.uniform(-12.0, 2.0))
        p = min_power_for_target(gain, m, d, g_target)
        g_back = reliability_margin(p * gain, m, d).g
        worst = max(worst, abs(g_back - g_target))
    elapsed = time.perf_counter() - start
    ok = fixed_point_ok and worst <= 1e-9 and elapsed < 5.0
    verdict(
        2,
        "unit-SNR fixed point exact and power inversion round trip 1e-9",
        ok,
        f"fixed_point={fixed_point_ok}, worst_gap={worst:.3g}, elapsed={elapsed:.2f}s",
    )


def test_03_min_blocklength_matches_scan(verdict):
    start = time.perf_counter()
    worked = min_blocklength(500.0, 160, 200)

    def scan(budget, d, m_max):
        for m in range(1, m_max + 1):
            if budget > m * math.expm1(math.log(2.0) * d / m):
                return m
        return None

    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(1000):
        d = int(rng.integers(1, 400))
        budget = 10.0 ** float(rng.uniform(-1.0, 6.0))
        if min_blocklength(budget, d, 300) != scan(budget, d, 300):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = worked == 45 and mismatches == 0 and elapsed < 5.0
    verdict(
        3,
        "binary-search minimum blocklength equals exhaustive scan",
        ok,
        f"worked_value={worked}, mismatches={mismatches}, elapsed={elapsed:.2f}s",
    )


def test_04_power_minmax_equalization_and_grid_oracle(verdict):
    rng = np.random.default_rng(4)
    worst_spread = 0.0
    worst_energy_gap = 0.0
    for _ in range(200):
        scenario, m_vec = random_feasible_minmax_instance(
            rng, headroom_decades=(0.1, 3.0)
        )
        report = solve_power_minmax_fixed_m(scenario, m_vec)
        gs = [margin.g for margin in report.margins]
        worst_spread = max(worst_spread, max(gs) - min(gs))
        worst_energy_gap = max(
            worst_energy_gap,
            abs(report.total_energy - scenario.config.energy_budget)
            / scenario.config.energy_budget,
        )
        assert not report.clamped

    worst_oracle_gap = 0.0
    for _ in range(20):
        scenario, m_vec = random_feasible_minmax_instance(rng, n=2)
        report = solve_power_minmax_fixed_m(scenario, m_vec)
        oracle = grid_oracle_minmax_two_vehicles(scenario, m_vec)
        worst_oracle_gap = max(worst_oracle_gap, abs(report.worst_margin.g - oracle))

    ok = worst_spread <= 1e-8 and worst_energy_gap <= 1e-9 and worst_oracle_gap <= 1e-3
    verdict(
        4,
        "min-max power equalizes margins and matches the 2-D grid oracle",
        ok,
        f"spread={worst_spread:.3g}, energy_gap={worst_energy_gap:.3g}, "
        f"oracle_gap={worst_oracle_gap:.3g}",
    )


def test_05_greedy_symbol_allocation_is_optimal(verdict):
    rng = np.random.default_rng(5)
    exact_matches = 0
    total = 200
    for _ in range(total):
        n = int(rng.integers(1, 4))
        m_total = int(rng.integers(n, 61))
        gains = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
        d = int(rng.integers(8, 65))
        scenario = make_scenario(
            gains,
            symbol_budget=m_total,
            payload_bits=d,
            energy_budget=1e9,
            common_power=0.01,
        )
        report = solve_symbols_minmax_fixed_p(scenario)

        # dense margin tables make the full enumeration cheap
        tables = [
            [reliability_margin(0.01 * g, m, d).g for m in range(1, m_total + 1)]
            for g in gains
        ]
        if n == 1:
            best = tables[0][m_total - 1]
        elif n == 2:
            best = max(
                min(tables[0][m1 - 1], tables[1][m_total - m1 - 1])
                for m1 in range(1, m_total)
            )
        else:
            best = -math.inf
            for m1 in range(1, m_total - 1):
                for m2 in range(1, m_total - m1):
                    m3 = m_total - m1 - m2
                    best = max(
                        best,
                        min(
                            tables[0][m1 - 1],
                            tables[1][m2 - 1],
                            tables[2][m3 - 1],
                        ),
                    )
        if report.worst_margin.g == best:
            exact_matches += 1
    ok = exact_matches == total
    verdict(
        5,
        "greedy max-min symbol split equals exhaustive enumeration",
        ok,
        f"{exact_matches}/{total} exact",
    )


def test_06_symbol_sharing_matches_brute_force(verdict):
    start = time.perf_counter()
    cfg = SystemConfig()
    rng = np.random.default_rng(6)
    worst_rel = 0.0
    trace_ok = True
    iter_ok = True
    for _ in range(200):
        scenario = sample_scenario(cfg, 2, seed=int(rng.integers(0, 2**63)))
        shared = symbol_sharing(scenario)
        oracle = brute_force_energy(scenario)
        worst_rel = max(
            worst_rel,
            abs(shared.total_energy - oracle.total_energy) / oracle.total_energy,
        )
        energies = [e for _, e in shared.trace]
        trace_ok = trace_ok and all(a > b for a, b in zip(energies, energies[1:]))
        iter_ok = iter_ok and shared.iterations <= cfg.symbol_budget * 2
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-9 and trace_ok and iter_ok and elapsed < 30.0
    verdict(
        6,
        "least-energy split reaches brute-force energy within 1e-9",
        ok,
        f"worst_rel={worst_rel:.3g}, trace_ok={trace_ok}, iter_ok={iter_ok}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_07_energy_rises_as_symbol_budget_tightens(verdict, fig7_data):
    rows, elapsed = fig7_data
    by_cell = {(r.swept_value, r.seed, r.metric_name): r.metric_value for r in rows}
    violations = []
    for n in range(1, 11):
        for seed in range(100):
            tight = by_cell[(n, seed, "total_energy[symbol_budget=200]")]
            loose = by_cell[(n, seed, "total_energy[symbol_budget=1000]")]
            if tight is None or loose is None or not tight > loose:
                violations.append((n, seed))
    means = {
        s.swept_value: s.mean
        for s in summarize(rows)
        if s.metric_name == "total_energy[symbol_budget=200]"
    }
    nondecreasing = all(means[n + 1] >= means[n] for n in range(1, 10))
    ok = not violations and nondecreasing and elapsed < 120.0
    verdict(
        7,
        "per-seed energy at budget 200 exceeds budget 1000 for every n",
        ok,
        f"{len(violations)} violating cells (n values "
        f"{sorted({n for n, _ in violations})}), nondecreasing={nondecreasing}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_08_exchange_saves_energy_at_every_budget(verdict):
    rows = run_sweep(preset_fig8())
    summary = summarize(rows)
    means = {s.swept_value: s.mean for s in summary}
    all_counted = all(s.count == 100 for s in summary)
    ok = (
        all_counted
        and all(means[m] >= 0.0 for m in (200, 400, 600, 800, 1000))
        and any(means[m] > 0.0 for m in (200, 400, 600, 800, 1000))
    )
    verdict(
        8,
        "mean saved energy nonnegative at all budgets, positive somewhere",
        ok,
        f"means={ {m: round(v, 2) for m, v in means.items()} }",
    )


def test_09_normalized_blocklength_spread_shrinks(verdict, fig4_rows):
    by_cell = {(r.swept_value, r.seed, r.metric_name): r.metric_value for r in fig4_rows}
    spreads = {}
    for n in (2, 10):
        values = []
        for seed in range(100):
            top = by_cell[(n, seed, "max_blocklength")]
            bottom = by_cell[(n, seed, "min_blocklength")]
            values.append((top - bottom) / (200.0 / n))
        spreads[n] = sum(values) / len(values)
    ok = spreads[10] < spreads[2]
    verdict(
        9,
        "normalized greedy blocklength spread at n=10 below n=2",
        ok,
        f"spread(n=2)={spreads[2]:.4f}, spread(n=10)={spreads[10]:.4f}",
    )


def test_10_figure_command_is_byte_deterministic(verdict, tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code_a = main(["figure", "7", "--out", str(first)])
    code_b = main(["figure", "7", "--out", str(second)])
    capsys.readouterr()
    ok = code_a == 0 and code_b == 0 and first.read_bytes() == second.read_bytes()
    verdict(
        10,
        "figure 7 rerun produces byte-identical CSV",
        ok,
        f"exit codes {code_a}/{code_b}",
    )


class TestTrendCompanions:
    """Companions of criteria 7 and 9.

    Criterion 7's per-seed ordering is checked separately from two
    vehicles up and for the lone vehicle. A lone vehicle's energy is
    c_g(m) / h with c_g(m) = m * expm1(ln2 * D / m + g / sqrt(m)), which
    is least at one gain-free blocklength m*. At the loose budget it
    stops at m* rather than spending all 1000 symbols, so its tight over
    loose energy is c_g(200) / c_g(m*) for every seed, whatever its gain.

    Criterion 9 compares spreads normalized by the per-vehicle share
    M/n; dividing by a 5x smaller share at n=10 swamps the (real)
    decrease of the absolute spread, so the absolute version is checked
    instead.
    """

    def test_fig7_ordering_holds_from_two_vehicles_up(self, fig7_data):
        rows, _ = fig7_data
        by_cell = {
            (r.swept_value, r.seed, r.metric_name): r.metric_value for r in rows
        }
        for n in range(2, 11):
            for seed in range(100):
                tight = by_cell[(n, seed, "total_energy[symbol_budget=200]")]
                loose = by_cell[(n, seed, "total_energy[symbol_budget=1000]")]
                assert tight > loose

    def test_fig7_single_vehicle_stops_at_energy_minimizer(self, fig7_data):
        rows, _ = fig7_data
        by_cell = {
            (r.swept_value, r.seed, r.metric_name): r.metric_value for r in rows
        }
        cfg = SystemConfig()
        g = q_inverse(cfg.target_eps)

        def cost(m):
            return m * math.expm1(math.log(2.0) * cfg.payload_bits / m + g / math.sqrt(m))

        m_star = min(range(1, 1001), key=cost)
        expected = cost(200) / cost(m_star)
        for seed in range(100):
            tight = by_cell[(1, seed, "total_energy[symbol_budget=200]")]
            loose = by_cell[(1, seed, "total_energy[symbol_budget=1000]")]
            assert tight / loose == pytest.approx(expected, rel=1e-12)

    def test_fig4_absolute_spread_shrinks(self, fig4_rows):
        by_cell = {
            (r.swept_value, r.seed, r.metric_name): r.metric_value for r in fig4_rows
        }
        means = {}
        for n in (2, 10):
            values = [
                by_cell[(n, seed, "max_blocklength")]
                - by_cell[(n, seed, "min_blocklength")]
                for seed in range(100)
            ]
            means[n] = sum(values) / len(values)
        assert means[10] < means[2]
