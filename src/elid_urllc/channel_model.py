"""Link-budget and scenario generation for the factory downlink.

An elevated roadside unit mounted above the midpoint of a straight road
serves up to ten vehicles. Each vehicle sees log-distance path loss,
unit-mean Rician fading (line of sight plus scatter), and thermal noise
over the configured bandwidth. The composite per-link quantity the
solvers consume is the normalized gain |h|^2 / sigma^2 in 1/W, so that
snr = transmit_power * norm_gain. A VehicleLink holds four fields:
vehicle_id, distance, fading_power_gain and norm_gain. Its path loss is
path_loss_db(distance) and its noise power is the config's
noise_power(noise_psd_dbm_hz, bandwidth); neither is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Log-distance model floor. Below this the near-field expression is not
# trusted, so distances clamp to it.
MIN_PATH_LOSS_DISTANCE_M = 1.0


def path_loss_db(distance: float) -> float:
    """Log-distance path loss 35.3 + 37.6 * log10(d) in dB.

    Distances below the 1 m model floor are clamped to the floor rather
    than rejected. VehicleLink.distance keeps the unclamped distance, so
    a clamped link shows as distance < MIN_PATH_LOSS_DISTANCE_M.
    """
    if not (math.isfinite(distance) and distance > 0.0):
        raise ValueError(f"distance must be positive, got {distance!r}")
    if distance < MIN_PATH_LOSS_DISTANCE_M:
        distance = MIN_PATH_LOSS_DISTANCE_M
    return 35.3 + 37.6 * math.log10(distance)


def noise_power(psd_dbm_hz: float, bandwidth: float) -> float:
    """Thermal noise power in watts over the given bandwidth.

    psd_dbm_hz is the one-sided noise power spectral density in dBm/Hz.
    """
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    if not math.isfinite(psd_dbm_hz):
        raise ValueError(f"psd_dbm_hz must be finite, got {psd_dbm_hz!r}")
    dbm = psd_dbm_hz + 10.0 * math.log10(bandwidth)
    return 10.0 ** ((dbm - 30.0) / 10.0)


# standard deviation of each quadrature of CN(0, 1)
_SQRT_HALF = math.sqrt(0.5)


def _rician_amplitudes(k_db: float) -> tuple[float, float]:
    """Line-of-sight amplitude sqrt(K/(K+1)) and scatter scale
    sqrt(1/(K+1)) for K = 10^(k_db/10)."""
    if not math.isfinite(k_db):
        raise ValueError(f"k_db must be finite, got {k_db!r}")
    k = 10.0 ** (k_db / 10.0)
    return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0))


def _fading_gain(los, scatter, re, im):
    """|los + scatter * (re + j im) / sqrt(2)|^2 for standard normal
    re, im: floats or arrays. With the amplitudes of _rician_amplitudes
    this is the Rician power gain, unit-mean for every K."""
    return (los + scatter * (_SQRT_HALF * re)) ** 2 + (scatter * (_SQRT_HALF * im)) ** 2


@dataclass(frozen=True)
class SystemConfig:
    """Global scalars shared by every solver and sweep.

    payload_bits: information bits per packet (20-byte packet -> 160).
    symbol_budget: channel uses available per scheduling period.
    energy_budget: joules available per period (min-max constraint and
        blocklength-floor test).
    target_eps: decoder error probability target for energy minimization.
    bandwidth: Hz.
    noise_psd_dbm_hz: noise power spectral density, dBm/Hz.
    road_length: meters of straight road covered by the unit.
    mount_height: meters above the road surface.
    rician_k_db: Rician K factor in dB.
    max_vehicles: upper bound on simultaneously served vehicles.
    common_power: per-vehicle transmit power (W) for the fixed-power
        min-max solver; None means energy_budget / symbol_budget.
    """

    payload_bits: int = 160
    symbol_budget: int = 200
    energy_budget: float = 10.0
    target_eps: float = 1e-9
    bandwidth: float = 1e6
    noise_psd_dbm_hz: float = -180.0
    road_length: float = 397.0
    mount_height: float = 10.0
    rician_k_db: float = 10.0
    max_vehicles: int = 10
    common_power: float | None = None

    def __post_init__(self) -> None:
        if self.payload_bits < 1:
            raise ValueError(f"payload_bits must be >= 1, got {self.payload_bits}")
        if self.symbol_budget < 1:
            raise ValueError(f"symbol_budget must be >= 1, got {self.symbol_budget}")
        if not (math.isfinite(self.energy_budget) and self.energy_budget > 0.0):
            raise ValueError(f"energy_budget must be > 0, got {self.energy_budget!r}")
        if not 0.0 < self.target_eps < 1.0:
            raise ValueError(f"target_eps must be in (0, 1), got {self.target_eps!r}")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0.0):
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth!r}")
        if not math.isfinite(self.noise_psd_dbm_hz):
            raise ValueError(
                f"noise_psd_dbm_hz must be finite, got {self.noise_psd_dbm_hz!r}"
            )
        if not (math.isfinite(self.road_length) and self.road_length > 0.0):
            raise ValueError(f"road_length must be > 0, got {self.road_length!r}")
        if not (math.isfinite(self.mount_height) and self.mount_height > 0.0):
            raise ValueError(f"mount_height must be > 0, got {self.mount_height!r}")
        if not math.isfinite(self.rician_k_db):
            raise ValueError(f"rician_k_db must be finite, got {self.rician_k_db!r}")
        if self.max_vehicles < 1:
            raise ValueError(f"max_vehicles must be >= 1, got {self.max_vehicles}")
        if self.common_power is not None and not (
            math.isfinite(self.common_power) and self.common_power > 0.0
        ):
            raise ValueError(f"common_power must be > 0, got {self.common_power!r}")

    def common_power_value(self) -> float:
        """Fixed per-vehicle power for the fixed-power solver (W)."""
        if self.common_power is not None:
            return self.common_power
        return self.energy_budget / self.symbol_budget


@dataclass(frozen=True)
class VehicleLink:
    """One downlink as the solvers see it."""

    vehicle_id: int
    distance: float
    fading_power_gain: float
    norm_gain: float

    def __post_init__(self) -> None:
        if self.vehicle_id < 0:
            raise ValueError(f"vehicle_id must be >= 0, got {self.vehicle_id}")
        # one chained test for the common case; the loop names the field
        if not (
            0.0 < self.distance < math.inf
            and 0.0 < self.fading_power_gain < math.inf
            and 0.0 < self.norm_gain < math.inf
        ):
            for name in ("distance", "fading_power_gain", "norm_gain"):
                value = getattr(self, name)
                if not (math.isfinite(value) and value > 0.0):
                    raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """A SystemConfig plus one channel realization for n vehicles."""

    config: SystemConfig
    links: tuple[VehicleLink, ...]
    seed: int

    def __post_init__(self) -> None:
        n = len(self.links)
        if not 1 <= n <= self.config.max_vehicles:
            raise ValueError(
                f"scenario needs 1..{self.config.max_vehicles} links, got {n}"
            )
        ids = [link.vehicle_id for link in self.links]
        if ids != list(range(n)):
            raise ValueError(f"vehicle_ids must be dense 0..{n - 1}, got {ids}")

    @property
    def n_vehicles(self) -> int:
        return len(self.links)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its
# default pool of four 32-bit words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiplier) of each successive hash: the hash constant
    starts at init and is multiplied by mult before every use as the
    multiplier, so the sequence does not depend on the data."""
    pairs = []
    const = init
    for _ in range(count):
        nxt = const * mult & _MASK32
        pairs.append((const, nxt))
        const = nxt
    return pairs


# mix_entropy hashes each pool word once, then each pool word once more
# per other pool word; generate_state(4, uint64) hashes 8 pool words
_ENTROPY_HASHES = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(value: np.ndarray, xor: int, mult: int) -> np.ndarray:
    value = (value ^ np.uint32(xor)) * np.uint32(mult)
    return value ^ (value >> np.uint32(_XSHIFT))


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or seed < 0 or seed >= 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def stream_words(seeds, n_vehicles: int) -> np.ndarray:
    """PCG64 seed words of every (seed, vehicle_id) substream at once.

    Returns a (len(seeds), n_vehicles, 4) uint64 array whose [s, v] row
    equals np.random.SeedSequence([seeds[s], v]).generate_state(4,
    np.uint64): the words default_rng([seeds[s], v]) seeds PCG64 with.
    It is numpy's SeedSequence hash run over uint32 arrays. The entropy
    is laid out as numpy coerces [seed, v]: [seed, v] for a seed below
    2^32 (zero included) and [low word, high word, v] above, then padded
    with zeros to the pool size, as the hash itself pads short entropy.
    """
    seeds = list(seeds)
    for seed in seeds:
        _check_seed(seed)
    if n_vehicles < 0:
        raise ValueError(f"n_vehicles must be >= 0, got {n_vehicles}")
    seed64 = np.array(seeds, dtype=np.uint64).reshape(-1, 1)
    wide = seed64 > np.uint64(_MASK32)
    vids = np.arange(n_vehicles, dtype=np.uint32)
    shape = (len(seeds), n_vehicles)
    entropy = [
        np.broadcast_to(seed64 & np.uint64(_MASK32), shape).astype(np.uint32),
        np.where(wide, seed64 >> np.uint64(32), vids).astype(np.uint32),
        np.where(wide, vids, 0).astype(np.uint32),
        np.zeros(shape, dtype=np.uint32),
    ]
    # mix_entropy
    constants = iter(_ENTROPY_HASHES)
    pool = [_hash(word, *next(constants)) for word in entropy]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed = _hash(pool[i_src], *next(constants))
                mixed = (
                    np.uint32(_MIX_MULT_L) * pool[i_dst]
                    - np.uint32(_MIX_MULT_R) * hashed
                )
                pool[i_dst] = mixed ^ (mixed >> np.uint32(_XSHIFT))
    # generate_state: cycle the pool; pairs of 32-bit outputs form each
    # uint64 word, low half first
    halves = [
        _hash(pool[i % _POOL_SIZE], xor, mult).astype(np.uint64)
        for i, (xor, mult) in enumerate(_STATE_HASHES)
    ]
    return np.stack(
        [halves[2 * k] | (halves[2 * k + 1] << np.uint64(32)) for k in range(4)],
        axis=-1,
    )


class _Words(ISeedSequence):
    """Hands a bit generator seed words that stream_words computed, so
    numpy still does the generator's own seeding from them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(
                f"holds {len(self.words)} {self.words.dtype} words, "
                f"asked for {n_words} {np.dtype(dtype)}"
            )
        return self.words


def sample_scenario(
    config: SystemConfig, n_vehicles: int, seed: int, *, streams=None
) -> Scenario:
    """Draw one scenario: uniform vehicle positions plus Rician fading.

    Each vehicle consumes its own substream keyed by (seed, vehicle_id),
    the generator default_rng([seed, vehicle_id]), so a scenario is
    reproducible link by link and raising n_vehicles leaves the existing
    links' draws untouched. A caller drawing many seeds can pass
    streams=stream_words([seed], n_vehicles)[0], the same substreams'
    seed words hashed in one batch; the scenario is then identical.
    Each link makes two draws on its generator, in this order: its
    position road_length * random(), then the real and imaginary parts
    of its scatter, one standard_normal(2) call. The order is part of
    the seeding contract.
    """
    if not 1 <= n_vehicles <= config.max_vehicles:
        raise ValueError(
            f"n_vehicles must be in 1..{config.max_vehicles}, got {n_vehicles}"
        )
    _check_seed(seed)
    if streams is None:
        rngs = (np.random.default_rng([seed, vid]) for vid in range(n_vehicles))
    else:
        words = np.ascontiguousarray(streams)
        if words.shape != (n_vehicles, 4) or words.dtype != np.uint64:
            raise ValueError(
                f"streams must be a ({n_vehicles}, 4) uint64 array, got "
                f"{words.shape} {words.dtype}"
            )
        rngs = (np.random.Generator(np.random.PCG64(_Words(row))) for row in words)
    sigma2 = noise_power(config.noise_psd_dbm_hz, config.bandwidth)
    road_length = config.road_length
    midpoint = road_length / 2.0
    mount_height = config.mount_height
    los, scatter = _rician_amplitudes(config.rician_k_db)
    links = []
    for vehicle_id, rng in enumerate(rngs):
        # uniform(0, L) is 0.0 + L * random(); the distance is from the
        # unit, raised mount_height above the road midpoint
        position = road_length * rng.random()
        distance = math.hypot(position - midpoint, mount_height)
        re, im = rng.standard_normal(2).tolist()
        fading = _fading_gain(los, scatter, re, im)
        norm_gain = 10.0 ** (-path_loss_db(distance) / 10.0) * fading / sigma2
        # positional, in field order: passing the fields by keyword makes
        # the frozen dataclass's construction about half again as slow
        links.append(VehicleLink(vehicle_id, distance, fading, norm_gain))
    return Scenario(config=config, links=tuple(links), seed=seed)
