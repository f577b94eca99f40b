"""Tests for the finite-blocklength core math.

Reference values were computed once with an arbitrary-precision oracle
(mpmath at 50 significant digits) and frozen here as literals, so these
tests never depend on the implementation under test for ground truth.
"""

import math

import numpy as np
import pytest

from elid_urllc import fbl_core
from elid_urllc.fbl_core import (
    LN2,
    DispersionMode,
    ReliabilityMargin,
    ShortPacketParams,
    _min_energy_gain,
    achievable_rate,
    channel_dispersion,
    eps_log10_from_margin,
    min_blocklength,
    min_power_for_target,
    q_function,
    q_inverse,
    reliability_margin,
    shannon_capacity,
)
from oracle_utils import reference_min_blocklength

# Q(x) to 17 significant digits, mpmath erfc oracle.
Q_TABLE = [
    (-8.0, 0.99999999999999938),
    (-5.0, 0.99999971334842812),
    (-3.0, 0.99865010196836991),
    (-1.0, 0.84134474606854295),
    (-0.5, 0.6914624612740131),
    (0.0, 0.5),
    (0.5, 0.3085375387259869),
    (1.0, 0.15865525393145705),
    (2.0, 0.022750131948179207),
    (3.0, 0.0013498980316300945),
    (5.0, 2.8665157187919391e-07),
    (5.998, 9.9881260567651659e-10),
    (6.0, 9.8658764503769814e-10),
    (8.0, 6.2209605742717841e-16),
]

# log10(Q(x)) deep in the tail, far below double-precision underflow.
LOG10Q_TABLE = [
    (8.0, -15.206142551017155),
    (10.0, -23.118053405486076),
    (20.0, -88.560095343075592),
    (37.0, -299.24218117860992),
    (40.0, -349.43700645934584),
    (78.4, -1337.0020219682847),
    (100.0, -2173.8715428690344),
    (1000.0, -217150.64004199439),
]

# Qinv(eps), bisected against the same oracle.
QINV_TABLE = [
    (1e-12, 7.0344838253011319),
    (1e-9, 5.9978070150076869),
    (1e-6, 4.7534243088228989),
    (1e-3, 3.0902323061678135),
    (0.25, 0.67448975019608174),
]

G_TARGET_1E9 = 5.9978070150076869


class TestQFunction:
    def test_oracle_table(self):
        for x, q in Q_TABLE:
            assert q_function(x) == pytest.approx(q, rel=1e-12)

    def test_symmetry_point(self):
        assert q_function(0.0) == 0.5

    def test_tail_saturation(self):
        # Best-effort far outside the representable tail.
        assert q_function(40.0) == 0.0
        assert q_function(-40.0) == 1.0

    def test_strictly_decreasing(self):
        xs = np.linspace(-8.0, 8.0, 201)
        qs = [q_function(float(x)) for x in xs]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            q_function(bad)


class TestQInverse:
    def test_oracle_table(self):
        for eps, x in QINV_TABLE:
            assert q_inverse(eps) == pytest.approx(x, rel=1e-10)

    def test_median(self):
        assert q_inverse(0.5) == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(20260304)
        eps_grid = np.concatenate(
            [
                np.logspace(-12, -0.05, 300),
                1.0 - np.logspace(-12, -0.31, 300),
                rng.uniform(1e-12, 1.0 - 1e-12, 400),
            ]
        )
        for eps in eps_grid:
            eps = float(eps)
            back = q_function(q_inverse(eps))
            assert back == pytest.approx(eps, rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            q_inverse(bad)


class TestEpsLog10:
    def test_deep_tail_oracle_table(self):
        for g, log10q in LOG10Q_TABLE:
            assert eps_log10_from_margin(g) == pytest.approx(log10q, rel=1e-10)

    def test_matches_q_function_when_representable(self):
        for x, q in Q_TABLE:
            assert eps_log10_from_margin(x) == pytest.approx(math.log10(q), rel=1e-12)

    def test_finite_for_extreme_margins(self):
        assert math.isfinite(eps_log10_from_margin(1e6))
        assert math.isfinite(eps_log10_from_margin(-1e6))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eps_log10_from_margin(math.inf)


class TestCapacityAndDispersion:
    def test_capacity_values(self):
        assert shannon_capacity(0.0) == 0.0
        assert shannon_capacity(1.0) == pytest.approx(1.0, rel=1e-15)
        assert shannon_capacity(3.0) == pytest.approx(2.0, rel=1e-15)
        assert shannon_capacity(10.0) == pytest.approx(3.4594316186372973, rel=1e-14)

    def test_dispersion_values(self):
        assert channel_dispersion(0.0) == 0.0
        assert channel_dispersion(1.0) == pytest.approx(0.75, rel=1e-15)
        assert channel_dispersion(10.0) == pytest.approx(0.99173553719008264, rel=1e-14)
        assert channel_dispersion(1e6) < 1.0
        # Saturates to 1.0 in doubles once 1/(1+snr)^2 drops below 1 ulp.
        assert channel_dispersion(1e9) <= 1.0

    def test_dispersion_monotone(self):
        gammas = np.logspace(-3, 6, 80)
        vs = [channel_dispersion(float(g)) for g in gammas]
        assert all(a < b for a, b in zip(vs, vs[1:]))

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            channel_dispersion(-0.1)
        with pytest.raises(ValueError):
            shannon_capacity(-1e-9)


class TestAchievableRate:
    def test_worked_value_unit_mode(self):
        params = ShortPacketParams(payload_bits=160, blocklength=200, snr=10.0)
        assert achievable_rate(params, 1e-9) == pytest.approx(
            2.8475716657288689, rel=1e-12
        )

    def test_penalty_vanishes_at_large_blocklength(self):
        params = ShortPacketParams(payload_bits=160, blocklength=10**12, snr=10.0)
        assert achievable_rate(params, 1e-3) == pytest.approx(
            3.4594316186372973, abs=1e-5
        )

    def test_median_eps_gives_capacity(self):
        params = ShortPacketParams(payload_bits=8, blocklength=7, snr=1.0)
        assert achievable_rate(params, 0.5) == shannon_capacity(1.0)

    def test_may_be_negative(self):
        params = ShortPacketParams(payload_bits=100, blocklength=4, snr=0.01)
        assert achievable_rate(params, 1e-9) < 0.0

    def test_exact_mode_scales_penalty_by_sqrt_dispersion(self):
        unit = ShortPacketParams(payload_bits=160, blocklength=200, snr=10.0)
        exact = ShortPacketParams(
            payload_bits=160,
            blocklength=200,
            snr=10.0,
            dispersion_mode=DispersionMode.EXACT,
        )
        cap = shannon_capacity(10.0)
        gap_unit = cap - achievable_rate(unit, 1e-9)
        gap_exact = cap - achievable_rate(exact, 1e-9)
        assert gap_exact / gap_unit == pytest.approx(
            math.sqrt(channel_dispersion(10.0)), rel=1e-12
        )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ShortPacketParams(payload_bits=0, blocklength=10, snr=1.0)
        with pytest.raises(ValueError):
            ShortPacketParams(payload_bits=10, blocklength=0, snr=1.0)
        with pytest.raises(ValueError):
            ShortPacketParams(payload_bits=10, blocklength=10, snr=-1.0)
        params = ShortPacketParams(payload_bits=10, blocklength=10, snr=1.0)
        with pytest.raises(ValueError):
            achievable_rate(params, 0.0)


class TestReliabilityMargin:
    def test_exact_fixed_point_at_capacity(self):
        # Rate D/m equal to capacity must give g = 0 bit-exactly, hence
        # eps = 0.5 with no rounding residue.
        margin = reliability_margin(1.0, 160, 160)
        assert margin.g == 0.0
        assert margin.eps == 0.5

    def test_worked_value(self):
        margin = reliability_margin(10.0, 200, 160)
        assert margin.g == pytest.approx(26.069295011669504, rel=1e-12)
        assert margin.eps_log10 == pytest.approx(-149.39088897528613, rel=1e-10)

    def test_inverted_snr_recovers_target(self):
        # snr chosen so that m = 100 symbols carry 160 bits at eps = 1e-9.
        margin = reliability_margin(4.5224201125597291, 100, 160)
        assert margin.g == pytest.approx(G_TARGET_1E9, abs=1e-12)

    def test_exact_mode_worked_value(self):
        margin = reliability_margin(
            10.0, 200, 160, dispersion_mode=DispersionMode.EXACT
        )
        assert margin.g == pytest.approx(26.177691716271865, rel=1e-12)

    def test_exact_mode_rejects_zero_snr(self):
        with pytest.raises(ValueError):
            reliability_margin(0.0, 100, 160, dispersion_mode=DispersionMode.EXACT)

    def test_unit_mode_zero_snr(self):
        margin = reliability_margin(0.0, 25, 40)
        assert margin.g == pytest.approx(-LN2 * 40 / 5.0, rel=1e-15)

    @pytest.mark.parametrize("mode", [DispersionMode.UNIT, DispersionMode.EXACT])
    def test_strictly_increasing_in_blocklength_and_snr(self, mode):
        rng = np.random.default_rng(7021)
        for _ in range(200):
            snr = float(10.0 ** rng.uniform(-2, 4))
            m = int(rng.integers(1, 2000))
            d = int(rng.integers(1, 2000))
            g0 = reliability_margin(snr, m, d, dispersion_mode=mode).g
            g_more_symbols = reliability_margin(snr, m + 1, d, dispersion_mode=mode).g
            g_more_snr = reliability_margin(
                snr * 1.01, m, d, dispersion_mode=mode
            ).g
            assert g_more_symbols > g0
            assert g_more_snr > g0

    def test_eps_property_underflow_path(self):
        margin = reliability_margin(10.0, 200, 160)
        assert margin.g > 37.0 or margin.eps == q_function(margin.g)
        deep = ReliabilityMargin(g=50.0, eps_log10=eps_log10_from_margin(50.0))
        assert deep.eps == 10.0 ** deep.eps_log10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            reliability_margin(-1.0, 100, 160)
        with pytest.raises(ValueError):
            reliability_margin(1.0, 0, 160)
        with pytest.raises(ValueError):
            reliability_margin(1.0, 100, 0)


class TestMinPowerForTarget:
    def test_worked_value(self):
        p = min_power_for_target(1.0, 100, 160, G_TARGET_1E9)
        assert p == pytest.approx(4.5224201125597291, rel=1e-12)

    def test_unity_snr_point(self):
        # g_target = 0 with m = D needs snr = 1, i.e. p = 1/norm_gain.
        assert min_power_for_target(1.0, 160, 160, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert min_power_for_target(4.0, 160, 160, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_clamps_to_zero(self):
        assert min_power_for_target(1.0, 100, 160, -30.0) == 0.0

    def test_overflow_returns_inf(self):
        assert min_power_for_target(1.0, 1, 2000, 0.0) == math.inf

    def test_round_trip_reaches_target(self):
        rng = np.random.default_rng(90210)
        checked = 0
        for _ in range(2000):
            gain = float(10.0 ** rng.uniform(-6, 6))
            m = int(rng.integers(1, 2000))
            d = int(rng.integers(1, min(2000, 100 * m) + 1))
            g_target = float(rng.uniform(-5.0, 30.0))
            p = min_power_for_target(gain, m, d, g_target)
            if p == 0.0:
                continue
            back = reliability_margin(p * gain, m, d).g
            assert back == pytest.approx(g_target, abs=1e-9)
            checked += 1
        assert checked > 1500

    def test_input_validation(self):
        with pytest.raises(ValueError):
            min_power_for_target(0.0, 100, 160, 1.0)
        with pytest.raises(ValueError):
            min_power_for_target(-1.0, 100, 160, 1.0)
        with pytest.raises(ValueError):
            min_power_for_target(1.0, 100, 160, math.nan)


class TestMinBlocklength:
    def test_worked_boundary(self):
        # Required energy-gain product: 503.1510111833636 at m = 44 and
        # 484.10441721921559 at m = 45 (D = 160), so a budget of 500
        # first clears the bar at m = 45.
        assert min_blocklength(500.0, 160, 200) == 45
        assert min_blocklength(503.2, 160, 200) == 44
        assert min_blocklength(503.1, 160, 200) == 45

    def test_strict_inequality_at_the_bar(self):
        # A budget exactly equal to the m = 45 requirement is not enough
        # for m = 45.
        assert min_blocklength(484.10441721921559, 160, 200) == 46

    def test_single_symbol(self):
        assert min_blocklength(20.0, 4, 100) == 1

    def test_infeasible(self):
        assert min_blocklength(1.0, 160, 200) is None

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(4_142)
        max_symbols = 300
        ms = np.arange(1, max_symbols + 1, dtype=float)
        for _ in range(400):
            d = int(rng.integers(1, 400))
            budget = float(10.0 ** rng.uniform(-1, 6))
            required = ms * np.expm1(LN2 * d / ms)
            feasible = np.nonzero(budget > required)[0]
            expected = int(feasible[0]) + 1 if feasible.size else None
            assert min_blocklength(budget, d, max_symbols) == expected

    @pytest.mark.parametrize("payload_bits", [1, 8, 32, 160, 1000, 2500])
    def test_matches_scalar_bisection_at_every_bar(self, payload_bits):
        # every c_0(m) and both float neighbours, where the strict
        # inequality flips, against the bisection the table replaced
        for max_symbols in (1, 2, 3, 40, 200, 365, 1000, 2000):
            for m in range(1, max_symbols + 1):
                bar = _min_energy_gain(m, payload_bits)
                if not math.isfinite(bar):
                    continue
                below, above = math.nextafter(bar, 0.0), math.nextafter(bar, math.inf)
                for budget in (below, bar, above):
                    args = (budget, payload_bits, max_symbols)
                    assert min_blocklength(*args) == reference_min_blocklength(*args)

    @pytest.mark.parametrize("payload_bits", [1, 2, 8, 32, 160, 1000, 2500])
    def test_cached_table_strictly_ascends(self, payload_bits):
        # bisecting the table finds the first feasible m only if the
        # computed -c_0 strictly ascends; overflowed entries (-inf) lead
        table = fbl_core._neg_min_energy_gains(payload_bits, fbl_core._C0_TABLE_MAX)
        finite = [x for x in table if math.isfinite(x)]
        assert len(finite) >= len(table) - 2
        assert table[len(table) - len(finite):] == tuple(finite)
        assert all(a < b for a, b in zip(finite, finite[1:]))

    def test_budgets_past_the_cached_table(self):
        # no table is built past _C0_TABLE_MAX symbols; the probes give
        # the same answers
        cap = fbl_core._C0_TABLE_MAX
        for max_symbols in (cap + 1, 10**9):
            for payload_bits in (1, 160, 2500):
                for m in (1, 2, 45, cap, cap + 1, max_symbols):
                    bar = _min_energy_gain(m, payload_bits)
                    for budget in (math.nextafter(bar, 0.0), math.nextafter(bar, math.inf)):
                        if not (math.isfinite(budget) and budget > 0.0):
                            continue
                        args = (budget, payload_bits, max_symbols)
                        assert min_blocklength(*args) == reference_min_blocklength(*args)
        assert fbl_core._neg_min_energy_gains.cache_info().currsize <= 16
        assert all(
            len(fbl_core._neg_min_energy_gains(d, cap)) == cap for d in (1, 160)
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            min_blocklength(0.0, 160, 200)
        with pytest.raises(ValueError):
            min_blocklength(10.0, 0, 200)
        with pytest.raises(ValueError):
            min_blocklength(10.0, 160, 0)

