"""Tests for the finite-blocklength core math.

Reference values were computed once with an arbitrary-precision oracle
(mpmath at 50 significant digits) and frozen here as literals, so these
tests never depend on the implementation under test for ground truth.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from elid_urllc import fbl_core
from elid_urllc.fbl_core import (
    LN2,
    DispersionMode,
    ShortPacketParams,
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
from oracle_utils import reference_c0, reference_min_blocklength

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

# log10(Q(g)) on each branch of eps_log10_from_margin and at its seams:
# g < 0 (log1p), 0 <= g < 30 (erfc) and g >= 30 (asymptotic series).
LOG10Q_BRANCH_TABLE = [
    (-37.0, -2.4865839876864793e-300),
    (-8.0, -2.7017288495439213e-16),
    (-6.0, -4.2846957036515783e-10),
    (-1.0, -0.075026012957818023),
    (-1e-3, -0.30068361702647339),
    (0.0, -0.3010299956639812),
    (1e-3, -0.30137665078193906),
    (29.99, -197.17879816294032),
    (30.0, -197.30920926166095),
    (30.01, -197.43966374189358),
    (37.0, -299.24218117860992),
    (1e4, -21714728.49425253),
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

    def test_default_target_is_bit_exact(self):
        # every figure CSV and default report keeps its margins only if
        # the default target margin is this exact double
        assert q_inverse(1e-9) == G_TARGET_1E9

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

    def test_branch_and_seam_oracle_table(self):
        # abs=0: the g < 0 values are tiny, so approx's default 1e-12
        # absolute tolerance would accept any of them
        for g, log10q in LOG10Q_BRANCH_TABLE:
            assert eps_log10_from_margin(g) == pytest.approx(log10q, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seam", [0.0, 30.0])
    def test_strictly_decreasing_across_branch_seams(self, seam):
        gs = np.linspace(seam - 1.0, seam + 1.0, 4001)
        values = [eps_log10_from_margin(float(g)) for g in gs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_series_seam_has_no_step(self):
        below = eps_log10_from_margin(math.nextafter(30.0, 0.0))
        at = eps_log10_from_margin(30.0)
        assert below >= at
        assert below == pytest.approx(at, rel=1e-13, abs=0.0)

    def test_finite_for_extreme_margins(self):
        assert math.isfinite(eps_log10_from_margin(1e6))
        assert math.isfinite(eps_log10_from_margin(-1e6))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eps_log10_from_margin(math.inf)

    @pytest.mark.parametrize(
        "g", [-0.0, 0.0, 5e-324, math.nextafter(30.0, 0.0), 30.0, -6.0, -40.0, 1e4]
    )
    def test_reliability_margin_eps_is_eps_log10_from_margin(self, monkeypatch, g):
        # reliability_margin runs the 0 <= g < 30 branch inline and sends
        # every other g through eps_log10_from_margin; both must give its
        # bits. With ln 2 read as -g, m = 1 and D = 1, the margin is
        # sqrt(1) * (log1p(snr) + g), exactly g at snr = +-0.0 (the sign
        # of g, so that -0.0 stays -0.0)
        monkeypatch.setattr(fbl_core, "LN2", -g)
        margin = reliability_margin(math.copysign(0.0, g), 1, 1)
        assert margin.g.hex() == g.hex()
        assert margin.eps_log10.hex() == eps_log10_from_margin(g).hex()

    def test_reliability_margin_eps_on_every_branch(self):
        # the same identity on the margins of real links, g from -250 to
        # past 600, with each of the three branches hit
        rng = np.random.default_rng(2501)
        branches = {"negative": 0, "inline": 0, "series": 0}
        for _ in range(3000):
            snr = float(10.0 ** rng.uniform(-4.0, 4.0))
            m = int(rng.integers(1, 5000))
            d = int(rng.integers(1, 500))
            margin = reliability_margin(snr, m, d)
            assert margin.eps_log10.hex() == eps_log10_from_margin(margin.g).hex()
            g = margin.g
            branches["negative" if g < 0.0 else "inline" if g < 30.0 else "series"] += 1
        assert min(branches.values()) >= 300, branches


class TestScipyStaysOutOfTheProduct:
    def test_package_import_leaves_scipy_unloaded(self):
        # the package's Gaussian tail math is standard library only
        code = (
            "import sys, elid_urllc, elid_urllc.experiments, elid_urllc.cli, "
            "elid_urllc.oracles; "
            "print(sorted(name for name in sys.modules "
            "if name == 'scipy' or name.startswith('scipy.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("field", ["payload_bits", "blocklength"])
    @pytest.mark.parametrize("bad", [math.nan, 2.5, math.inf, 10.0, "10", None])
    def test_params_counts_must_be_integers(self, field, bad):
        # SystemConfig's count rule: a float count, even a whole one, is
        # rejected before achievable_rate can read it
        counts = {"payload_bits": 10, "blocklength": 10, field: bad}
        with pytest.raises(ValueError) as info:
            ShortPacketParams(**counts, snr=1.0)
        assert str(info.value) == f"{field} must be an integer, got {bad!r}"

    @pytest.mark.parametrize("field", ["payload_bits", "blocklength"])
    @pytest.mark.parametrize("bad", [0, -3, np.int64(0)])
    def test_params_counts_must_be_at_least_one(self, field, bad):
        counts = {"payload_bits": 10, "blocklength": 10, field: bad}
        with pytest.raises(ValueError) as info:
            ShortPacketParams(**counts, snr=1.0)
        assert str(info.value) == f"{field} must be >= 1, got {bad}"

    def test_params_take_numpy_integer_counts(self):
        params = ShortPacketParams(payload_bits=np.int64(160), blocklength=np.int32(200), snr=10.0)
        plain = ShortPacketParams(payload_bits=160, blocklength=200, snr=10.0)
        assert achievable_rate(params, 1e-9) == achievable_rate(plain, 1e-9)

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
        assert q_function(margin.g) == 0.5

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


NAN, INF = math.nan, math.inf

# Every bad value of one argument, the others valid, with the error the
# checks raise; each names its argument. A count that is not an integer
# (a fraction, nan or either inf) breaks the count rule, _check_index.
NOT_COUNTS = (2.5, 160.5, NAN, INF, -INF)
MARGIN_REJECTIONS = [
    *[((bad, 33, 160), f"snr must be finite and nonnegative, got {bad!r}")
      for bad in (NAN, INF, -INF, -1, -0.5)],
    *[((12.5, bad, 160), f"blocklength must be an integer, got {bad!r}") for bad in NOT_COUNTS],
    *[((12.5, bad, 160), f"blocklength must be >= 1, got {bad}") for bad in (0, -1)],
    *[((12.5, 33, bad), f"payload_bits must be an integer, got {bad!r}") for bad in NOT_COUNTS],
    *[((12.5, 33, bad), f"payload_bits must be >= 1, got {bad}") for bad in (0, -1)],
]
POWER_REJECTIONS = [
    *[((bad, 33, 160, 6.0), f"norm_gain must be positive, got {bad!r}")
      for bad in (NAN, INF, -INF, 0, -1)],
    *[((1.5, bad, 160, 6.0), f"blocklength must be an integer, got {bad!r}") for bad in NOT_COUNTS],
    *[((1.5, bad, 160, 6.0), f"blocklength must be >= 1, got {bad}") for bad in (0, -1)],
    *[((1.5, 33, bad, 6.0), f"payload_bits must be an integer, got {bad!r}") for bad in NOT_COUNTS],
    *[((1.5, 33, bad, 6.0), f"payload_bits must be >= 1, got {bad}") for bad in (0, -1)],
    *[((1.5, 33, 160, bad), f"g_target must be finite, got {bad!r}") for bad in (NAN, INF, -INF)],
]


class TestCheckedFastPaths:
    """Each bad argument of the public primitives raises its own
    message. reliability_margin tests the common case (a finite snr >= 0
    and both counts Python ints >= 1) in one chained comparison and runs
    the named checks only when it fails; min_power_for_target runs its
    named checks on every call."""

    @pytest.mark.parametrize("args, message", MARGIN_REJECTIONS, ids=repr)
    def test_reliability_margin_rejections(self, args, message):
        with pytest.raises(ValueError) as info:
            reliability_margin(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("args, message", POWER_REJECTIONS, ids=repr)
    def test_min_power_for_target_rejections(self, args, message):
        with pytest.raises(ValueError) as info:
            min_power_for_target(*args)
        assert str(info.value) == message

    def test_snr_checked_before_blocklength_and_payload(self):
        with pytest.raises(ValueError, match="^snr must"):
            reliability_margin(NAN, 0, 0)
        with pytest.raises(ValueError, match="^norm_gain must"):
            min_power_for_target(0.0, 0, 0, NAN)

    def test_power_kernel_is_min_power_for_target(self):
        # the unchecked kernel that min_energy_fixed_m prices through
        rng = np.random.default_rng(2201)
        outcomes = {"inf": 0, "zero": 0, "positive": 0}
        for d in (1, 32, 160, 1000):
            ms = [1, 2, 3000, *rng.integers(1, 3001, size=40).tolist()]
            for m in ms:
                gains = 10.0 ** rng.uniform(-6, 6, size=3)
                margins = [
                    0.0, 1000.0,
                    *rng.uniform(-40.0, -1e-3, size=3), *rng.uniform(1e-3, 40.0, size=3),
                ]
                for h in gains.tolist():
                    for g in margins:
                        g = float(g)
                        p = fbl_core._power(h, m, d, g)
                        assert p.hex() == min_power_for_target(h, m, d, g).hex()
                        key = "inf" if p == math.inf else "zero" if p == 0.0 else "positive"
                        outcomes[key] += 1
        # exponents past 709 (D = 1000 at one symbol) and clamped powers
        assert fbl_core._power(1.0, 1, 1000, 20.0) == math.inf
        assert fbl_core._power(1.0, 3000, 1, -5.0) == 0.0
        assert min(outcomes.values()) >= 20, outcomes


def guarded_split_tables(payload_bits, g, m_total):
    """_build_split_tables' pass with every overflow guard on, as it ran
    on every table before the guards were skipped below the switch."""
    ms, base, roots = fbl_core._table_axes(payload_bits, m_total)
    with np.errstate(over="ignore", invalid="ignore"):
        table = base + g / roots
        table[table > 709.0] = np.inf
        np.expm1(table, out=table)
        table *= ms
        np.maximum(table, 0.0, out=table)
        steps = table[:-1] - table[1:]
        np.fmin(steps, np.inf, out=steps)
    first = int(table.argmin())
    m_star = first + 1 if math.isfinite(table[first]) else m_total
    return table, steps, m_star


class TestSplitTableGuards:
    """_build_split_tables runs its guarded pass only when the exponent's
    larger endpoint plus ln M reaches 709; both passes must give every
    entry the same bits."""

    @staticmethod
    def _switch_cases():
        # g puts the m = 1 or the m = M exponent plus ln M at 709 + delta
        for m_total in (1, 2, 3, 40, 200, 1000, 5000):
            log_m = math.log(m_total)
            for payload_bits in (1, 160, 1000, 1023, 2500):
                for delta in (*np.linspace(-1.0, 1.0, 9).tolist(), -40.0, 3.0, 40.0):
                    target = 709.0 + delta - log_m
                    yield payload_bits, target - LN2 * payload_bits, m_total
                    at_m = target - LN2 * payload_bits / m_total
                    yield payload_bits, math.sqrt(m_total) * at_m, m_total
        # g < 0 with D = 1: the exponent peaks at m = M
        for m_total in (200, 1000, 5000):
            for g in (-1.0, -5.0, -40.0):
                yield 1, g, m_total
        for payload_bits in (1, 1022, 1023, 1024, 5000):
            for g in (-800.0, -1.0, 0.0, 6.0, 700.0):
                yield payload_bits, g, 1

    def test_matches_the_guarded_pass(self, monkeypatch):
        errstate = np.errstate
        guarded_calls = []

        def counted(*args, **kwargs):
            guarded_calls.append(1)
            return errstate(*args, **kwargs)

        near = {"guarded": 0, "free": 0}
        free = guarded = overflowed = peak_at_m = 0
        for payload_bits, g, m_total in self._switch_cases():
            _, base, roots = fbl_core._table_axes(payload_bits, m_total)
            exponent = base + g / roots
            peak = max(exponent[0], exponent[-1]) + math.log(m_total)
            # the convex quadratic in 1 / sqrt(m) peaks at an endpoint
            assert exponent.max() <= max(exponent[0], exponent[-1])
            expected = guarded_split_tables(payload_bits, g, m_total)
            before = len(guarded_calls)
            monkeypatch.setattr(np, "errstate", counted)
            got = fbl_core._build_split_tables(payload_bits, g, m_total)
            monkeypatch.setattr(np, "errstate", errstate)
            ran_guarded = len(guarded_calls) > before
            assert ran_guarded == (peak >= 709.0), (payload_bits, g, m_total)
            for new, old in zip(got[:2], expected[:2]):
                assert new.tobytes() == old.tobytes(), (payload_bits, g, m_total)
            assert got[2] == expected[2]
            guarded += ran_guarded
            free += not ran_guarded
            if abs(peak - 709.0) <= 1.0:
                near["guarded" if ran_guarded else "free"] += 1
            overflowed += bool(np.isinf(expected[0]).any())
            peak_at_m += m_total > 1 and g < 0 and exponent[-1] > exponent[0]
        assert near["guarded"] >= 100 and near["free"] >= 100, near
        assert free >= 200 and guarded >= 300 and overflowed >= 50, (free, guarded, overflowed)
        assert peak_at_m >= 9


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
                bar = reference_c0(m, payload_bits)
                if not math.isfinite(bar):
                    continue
                below, above = math.nextafter(bar, 0.0), math.nextafter(bar, math.inf)
                for budget in (below, bar, above):
                    args = (budget, payload_bits, max_symbols)
                    assert min_blocklength(*args) == reference_min_blocklength(*args)

    @pytest.mark.parametrize("payload_bits", [1, 8, 160, 1000, 1023, 1024, 2500])
    def test_c0_is_min_power_at_unit_gain_and_margin_zero(self, payload_bits):
        # min_blocklength reads c_0(m) as m * min_power_for_target(1.0, m,
        # D, 0.0); it must equal c_0 in its own arithmetic to the bit,
        # inf included (ln2 * D passes 709 at D = 1023)
        ms = [*range(1, fbl_core._C0_TABLE_MAX + 2), 10**5, 5 * 10**7, 10**9]
        for m in ms:
            got = m * min_power_for_target(1.0, m, payload_bits, 0.0)
            assert got.hex() == reference_c0(m, payload_bits).hex(), m

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
                    bar = reference_c0(m, payload_bits)
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

    @pytest.mark.parametrize(
        "args, message",
        [
            *[((bad, 160, 200), f"energy_budget_gain must be positive, got {bad!r}")
              for bad in (0.0, -1.0, math.nan, math.inf)],
            *[((10.0, bad, 200), f"payload_bits must be an integer, got {bad!r}")
              for bad in (160.5, 160.0, math.nan, math.inf)],
            *[((10.0, 160, bad), f"max_symbols must be an integer, got {bad!r}")
              for bad in (math.inf, math.nan, 2.5, 200.0, 1e9)],
            ((10.0, 0, 200), "payload_bits must be >= 1, got 0"),
            ((10.0, 160, -5), "max_symbols must be >= 1, got -5"),
            # the table-free path past _C0_TABLE_MAX checks the same way
            ((10.0, 160.5, 10**6), "payload_bits must be an integer, got 160.5"),
        ],
        ids=repr,
    )
    def test_counts_follow_the_count_rule(self, args, message):
        # each bad argument is named, before any c_0 is computed
        with pytest.raises(ValueError) as info:
            min_blocklength(*args)
        assert str(info.value) == message

    def test_numpy_integer_counts_pass(self):
        for budget in (1.0, 500.0, 503.2, 1e4):
            plain = min_blocklength(budget, 160, 200)
            boxed = min_blocklength(budget, np.int64(160), np.int32(200))
            assert boxed == plain and type(boxed) is type(plain)
        assert min_blocklength(500.0, True, 200) == min_blocklength(500.0, 1, 200)

