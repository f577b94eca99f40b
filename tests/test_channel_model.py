"""Tests for path loss, noise, Rician fading, and scenario sampling."""

import math

import numpy as np
import pytest

from elid_urllc.channel_model import (
    Scenario,
    SystemConfig,
    VehicleLink,
    _Words,
    _fading_gain,
    _rician_amplitudes,
    noise_power,
    path_loss_db,
    sample_scenario,
    stream_words,
)
from oracle_utils import (
    reference_link_distance,
    reference_rician_power_gain,
    reference_sample_scenario,
)


class TestPathLoss:
    def test_reference_points(self):
        assert path_loss_db(1.0) == pytest.approx(35.3, rel=1e-15)
        assert path_loss_db(100.0) == pytest.approx(110.5, rel=1e-15)
        # Far edge of the default road seen from the midpoint mount.
        assert path_loss_db(198.5) == pytest.approx(121.69579521732743, rel=1e-12)

    def test_monotone_in_distance(self):
        ds = np.linspace(1.0, 400.0, 100)
        losses = [path_loss_db(float(d)) for d in ds]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_near_field_clamp(self):
        assert path_loss_db(0.25) == path_loss_db(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0)
        with pytest.raises(ValueError):
            path_loss_db(-3.0)


class TestNoisePower:
    def test_reference_points(self):
        assert noise_power(-180.0, 1e6) == pytest.approx(1e-15, rel=1e-12)
        assert noise_power(-180.0, 1.0) == pytest.approx(1e-21, rel=1e-12)
        assert noise_power(-170.0, 1e6) == pytest.approx(1e-14, rel=1e-12)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            noise_power(-180.0, 0.0)

    def test_out_of_range_powers_read_inf_and_zero(self):
        # a float result, as min_power_for_target returns inf, rather
        # than OverflowError from 10.0 ** x
        assert noise_power(4000.0, 1e6) == math.inf
        assert noise_power(-4000.0, 1e6) == 0.0


class TestRicianFading:
    # sample_scenario's fading: _fading_gain over standard normal pairs,
    # here drawn as one (2, N) block, real parts first

    @pytest.mark.parametrize("k_db", [0.0, 10.0, 20.0])
    def test_unit_mean(self, k_db):
        rng = np.random.default_rng(555)
        draws = _fading_gain(
            *_rician_amplitudes(k_db), *rng.standard_normal((2, 1_000_000))
        )
        assert float(np.mean(draws)) == pytest.approx(1.0, abs=0.01)
        assert float(np.min(draws)) >= 0.0

    def test_pure_los_limit(self):
        rng = np.random.default_rng(1)
        draws = _fading_gain(*_rician_amplitudes(600.0), *rng.standard_normal((2, 1000)))
        assert np.allclose(draws, 1.0, atol=1e-25)

    def test_rayleigh_limit_variance(self):
        # K -> 0 is exponential with unit mean, variance 1.
        rng = np.random.default_rng(77)
        draws = _fading_gain(
            *_rician_amplitudes(-600.0), *rng.standard_normal((2, 500_000))
        )
        assert float(np.var(draws)) == pytest.approx(1.0, abs=0.02)

    def test_scalar_draw(self):
        # the per-link form sample_scenario uses
        rng = np.random.default_rng(3)
        value = _fading_gain(*_rician_amplitudes(10.0), *rng.standard_normal(2).tolist())
        assert isinstance(value, float) and value > 0.0

    @pytest.mark.parametrize("k_db", [-600.0, -3.0, 0.0, 10.0, 600.0])
    @pytest.mark.parametrize("size", [None, 1, 5, (3, 7), (2, 1, 4), np.int64(6)])
    def test_matches_two_normal_draws(self, k_db, size):
        # the per-link pair and a block are both the two normal(0, sqrt(1/2))
        # calls, bit for bit, so the tests above keep the old draws
        los, scatter = _rician_amplitudes(k_db)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if size is None:
                got = _fading_gain(los, scatter, *rng.standard_normal(2).tolist())
            else:
                shape = (size,) if np.ndim(size) == 0 else tuple(size)
                got = _fading_gain(los, scatter, *rng.standard_normal((2, *shape)))
            want = reference_rician_power_gain(
                k_db, np.random.default_rng(seed), size=size
            )
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)

    def test_leaves_the_stream_where_two_normal_draws_do(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        a.standard_normal((2, 3, 7))
        reference_rician_power_gain(10.0, b, size=(3, 7))
        assert a.random() == b.random()


class TestSystemConfig:
    def test_defaults(self):
        cfg = SystemConfig()
        assert cfg.payload_bits == 160
        assert cfg.symbol_budget == 200
        assert cfg.energy_budget == 10.0
        assert cfg.target_eps == 1e-9
        assert cfg.bandwidth == 1e6
        assert cfg.noise_psd_dbm_hz == -180.0
        assert cfg.road_length == 397.0
        assert cfg.mount_height == 10.0
        assert cfg.rician_k_db == 10.0
        assert cfg.max_vehicles == 10

    def test_common_power_fallback(self):
        cfg = SystemConfig()
        assert cfg.common_power_value() == pytest.approx(10.0 / 200, rel=1e-15)
        cfg2 = SystemConfig(common_power=0.003)
        assert cfg2.common_power_value() == 0.003

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"payload_bits": 0},
            {"symbol_budget": 0},
            {"energy_budget": 0.0},
            {"target_eps": 1.5},
            {"target_eps": 0.0},
            {"rician_k_db": math.inf},
            {"bandwidth": -1.0},
            {"road_length": 0.0},
            {"mount_height": 0.0},
            {"max_vehicles": 0},
            {"common_power": 0.0},
            {"symbol_budget": 200.5},
            {"symbol_budget": 200.0},
            {"symbol_budget": math.inf},
            {"payload_bits": math.nan},
            {"payload_bits": "160"},
            {"max_vehicles": -math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"symbol_budget": 200.5}, "symbol_budget must be an integer, got 200.5"),
            ({"symbol_budget": math.inf}, "symbol_budget must be an integer, got inf"),
            ({"payload_bits": math.nan}, "payload_bits must be an integer, got nan"),
            ({"max_vehicles": 2.0}, "max_vehicles must be an integer, got 2.0"),
            ({"payload_bits": 0}, "payload_bits must be >= 1, got 0"),
            ({"symbol_budget": -3}, "symbol_budget must be >= 1, got -3"),
            ({"max_vehicles": np.int64(0)}, "max_vehicles must be >= 1, got 0"),
        ],
    )
    def test_counts_are_integers_named_in_the_error(self, kwargs, message):
        # one rule for the three counts: operator.index, then >= 1
        with pytest.raises(ValueError) as raised:
            SystemConfig(**kwargs)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"noise_psd_dbm_hz": -4000.0},
                "noise_psd_dbm_hz and bandwidth must give a positive, finite noise "
                "power, got 0.0 W from -4000.0 dBm/Hz over 1000000.0 Hz",
            ),
            (
                {"noise_psd_dbm_hz": 4000.0},
                "noise_psd_dbm_hz and bandwidth must give a positive, finite noise "
                "power, got inf W from 4000.0 dBm/Hz over 1000000.0 Hz",
            ),
            (
                # each in range alone, the pair's noise power underflows
                {"noise_psd_dbm_hz": -210.0, "bandwidth": 1e-300},
                "noise_psd_dbm_hz and bandwidth must give a positive, finite noise "
                "power, got 0.0 W from -210.0 dBm/Hz over 1e-300 Hz",
            ),
            (
                {"rician_k_db": 4000.0},
                "rician_k_db must give a finite K factor 10^(k_db/10), got 4000.0",
            ),
        ],
        ids=["noise_underflow", "noise_overflow", "pair_underflow", "k_overflow"],
    )
    def test_derived_values_sampling_cannot_use(self, kwargs, message):
        # a noise power of 0 divided every gain by zero, and 10.0 ** x
        # raised OverflowError, only once a scenario was drawn
        with pytest.raises(ValueError) as raised:
            SystemConfig(**kwargs)
        assert str(raised.value) == message
        if len(kwargs) > 1:
            for key, value in kwargs.items():
                SystemConfig(**{key: value})

    def test_numpy_integer_counts_pass(self):
        cfg = SystemConfig(
            payload_bits=np.int64(160), symbol_budget=np.int32(200), max_vehicles=np.uint8(3)
        )
        assert cfg == SystemConfig(max_vehicles=3)


class TestSampleScenario:
    def test_deterministic(self):
        cfg = SystemConfig()
        a = sample_scenario(cfg, 5, seed=42)
        b = sample_scenario(cfg, 5, seed=42)
        assert a == b

    def test_seed_changes_draws(self):
        cfg = SystemConfig()
        a = sample_scenario(cfg, 5, seed=42)
        b = sample_scenario(cfg, 5, seed=43)
        assert a != b

    def test_per_vehicle_substreams(self):
        # Existing links must not move when more vehicles are added.
        cfg = SystemConfig()
        small = sample_scenario(cfg, 2, seed=9)
        big = sample_scenario(cfg, 7, seed=9)
        assert big.links[:2] == small.links

    def test_links_unaffected_by_symbol_budget(self):
        # The channel draw consumes nothing from the solver config, so
        # sweeps can compare budgets on identical channels.
        a = sample_scenario(SystemConfig(symbol_budget=200), 4, seed=11)
        b = sample_scenario(SystemConfig(symbol_budget=1000), 4, seed=11)
        assert a.links == b.links

    def test_geometry_bounds(self):
        cfg = SystemConfig()
        worst = math.hypot(cfg.road_length / 2.0, cfg.mount_height)
        scenario = sample_scenario(cfg, 10, seed=123)
        for link in scenario.links:
            assert cfg.mount_height <= link.distance <= worst

    def test_link_field_consistency(self):
        cfg = SystemConfig()
        sigma2 = noise_power(cfg.noise_psd_dbm_hz, cfg.bandwidth)
        scenario = sample_scenario(cfg, 6, seed=77)
        for link in scenario.links:
            expected = (
                10.0 ** (-path_loss_db(link.distance) / 10.0)
                * link.fading_power_gain
                / sigma2
            )
            assert link.norm_gain == pytest.approx(expected, rel=1e-12)

    def test_vehicle_count_range(self):
        cfg = SystemConfig()
        with pytest.raises(ValueError):
            sample_scenario(cfg, 0, seed=1)
        with pytest.raises(ValueError):
            sample_scenario(cfg, 11, seed=1)
        for bad in (2.5, 2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^n_vehicles must be an integer"):
                sample_scenario(cfg, bad, seed=3)

    def test_seed_validation(self):
        cfg = SystemConfig()
        with pytest.raises(ValueError):
            sample_scenario(cfg, 1, seed=-1)
        with pytest.raises(ValueError):
            sample_scenario(cfg, 1, seed=2**64)

    def test_scenario_invariants_enforced(self):
        cfg = SystemConfig()
        link = sample_scenario(cfg, 1, seed=5).links[0]
        shuffled = VehicleLink(
            vehicle_id=3,
            distance=link.distance,
            fading_power_gain=link.fading_power_gain,
            norm_gain=link.norm_gain,
        )
        with pytest.raises(ValueError):
            Scenario(config=cfg, links=(shuffled,), seed=5)

    def test_matches_the_per_link_reference(self):
        # the two-call draw is the uniform + two-normal draw, bit for bit,
        # on both generator paths, every n and away from the default config
        rng = np.random.default_rng(4_096)
        edge_seeds = [0, 2**32 - 1, 2**32, 2**64 - 1]
        configs = [SystemConfig()] + [
            SystemConfig(
                rician_k_db=k_db,
                road_length=road,
                mount_height=height,
                noise_psd_dbm_hz=psd,
            )
            for k_db, road, height, psd in [
                (-600.0, 397.0, 10.0, -180.0),
                (-3.0, 50.0, 1.5, -174.0),
                (0.0, 1000.0, 0.25, -200.0),
                (10.0, 1.0, 30.0, -150.0),
                (600.0, 2.5, 10.0, -180.0),
            ]
        ]
        for k in range(2000):
            seed = edge_seeds[k % 4] if k < 40 else int(
                rng.integers(0, 2**64, dtype=np.uint64)
            )
            n = k % 10 + 1
            cfg = configs[k // 10 % len(configs)]
            want = reference_sample_scenario(cfg, n, seed)
            assert sample_scenario(cfg, n, seed) == want, (seed, n, cfg)
            words = stream_words([seed], n)[0]
            assert sample_scenario(cfg, n, seed, streams=words) == want

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"bandwidth": 1e-300}, "norm_gain must be positive, got inf"),
            ({"road_length": 1e300}, "norm_gain must be positive, got 0.0"),
        ],
    )
    @pytest.mark.parametrize("batched", [False, True], ids=["default_rng", "streams"])
    def test_failing_link_is_named_on_both_paths(self, kwargs, message, batched):
        # a link outside VehicleLink's check is rejected with the
        # constructor's message, however its generator was seeded
        cfg = SystemConfig(**kwargs)
        streams = stream_words([21], 4)[0] if batched else None
        with pytest.raises(ValueError) as raised:
            sample_scenario(cfg, 4, 21, streams=streams)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "field", ["distance", "fading_power_gain", "norm_gain"]
    )
    @pytest.mark.parametrize("bad", [0.0, -0.0, -2.5, -1, math.nan, math.inf, -math.inf])
    def test_bad_link_field_message(self, field, bad):
        fields = dict(
            vehicle_id=0,
            distance=12.0,
            fading_power_gain=0.8,
            norm_gain=2e7,
        )
        fields[field] = bad
        with pytest.raises(ValueError) as info:
            VehicleLink(**fields)
        assert str(info.value) == f"{field} must be positive, got {bad!r}"

    def test_first_bad_link_field_is_named(self):
        with pytest.raises(ValueError, match=r"^fading_power_gain must be positive"):
            VehicleLink(
                vehicle_id=0,
                distance=12.0,
                fading_power_gain=math.nan,
                norm_gain=-1.0,
            )


class TestStreamWords:
    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    def test_matches_seed_sequence(self):
        rng = np.random.default_rng(2718)
        seeds = [int(s) for s in rng.integers(0, 2**64, size=1000, dtype=np.uint64)]
        seeds += self.EDGE_SEEDS
        narrow = [int(s) for s in rng.integers(0, 2**32, size=40, dtype=np.uint64)]
        # the entropy layout is set per seed, so one call mixes seeds
        # below 2^32, at 2^32 - 1, at 2^32 and at 2^64 - 1
        mixed = narrow[:20] + [2**32 - 1, 2**32, 2**64 - 1] + narrow[20:] + [0]
        cases = [
            (seeds, 10),
            (seeds, 1),
            ([2**40 + 7], 6),
            ([3], 10),
            (mixed, 10),
            (mixed, 1),
        ]
        for call_seeds, n in cases:
            words = stream_words(call_seeds, n)
            assert words.shape == (len(call_seeds), n, 4)
            assert words.dtype == np.uint64
            assert words.flags.c_contiguous
            for row, seed in zip(words, call_seeds):
                for vid in range(n):
                    expected = np.random.SeedSequence([seed, vid]).generate_state(
                        4, np.uint64
                    )
                    assert np.array_equal(row[vid], expected), (seed, vid, n)

    @pytest.mark.parametrize("seed", EDGE_SEEDS + [987654321, 2**40 + 7])
    def test_streams_give_the_same_scenario(self, seed):
        cfg = SystemConfig()
        n = 7
        batched = sample_scenario(cfg, n, seed, streams=stream_words([seed], n)[0])
        assert batched == sample_scenario(cfg, n, seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, 3.0, 2.5, "7", None])
    def test_rejects_what_sample_scenario_rejects(self, seed):
        with pytest.raises(ValueError):
            sample_scenario(SystemConfig(), 1, seed)
        with pytest.raises(ValueError):
            stream_words([seed], 1)
        with pytest.raises(ValueError):
            stream_words([5, seed], 1)

    @pytest.mark.parametrize(
        "streams",
        [
            np.zeros((2, 4), dtype=np.uint64),
            np.zeros((4, 4), dtype=np.uint64),
            np.zeros((3, 2), dtype=np.uint64),
            np.zeros((3, 4, 1), dtype=np.uint64),
            np.zeros(12, dtype=np.uint64),
            np.zeros((3, 4), dtype=np.int64),
            np.zeros((3, 4), dtype=float),
        ],
    )
    def test_rejects_misshapen_streams(self, streams):
        with pytest.raises(ValueError):
            sample_scenario(SystemConfig(), 3, 11, streams=streams)

    def test_seed_words_serve_only_the_request_they_hold(self):
        # one row per request, in order, and only for 4 uint64 words; a
        # rejected request spends no row
        rows = stream_words([11], 3)[0]
        words = _Words(rows)
        for n_words, dtype in [(4, np.uint32), (8, np.uint64), (2, np.uint64), (4, float)]:
            with pytest.raises(ValueError, match="holds 4 uint64 words"):
                words.generate_state(n_words, dtype)
        for k, dtype in enumerate([np.uint64, np.dtype("uint64"), np.uint64]):
            row = words.generate_state(4, dtype)
            assert row.dtype == np.uint64 and np.shares_memory(row, rows[k])
            assert row.tolist() == rows[k].tolist()


class TestLinkDistance:
    # the geometry test_matches_the_per_link_reference holds every drawn
    # link's distance to

    def test_midpoint(self):
        assert reference_link_distance(198.5, 397.0, 10.0) == 10.0

    def test_road_end(self):
        assert reference_link_distance(397.0, 397.0, 10.0) == pytest.approx(
            198.75172955222302, rel=1e-12
        )
