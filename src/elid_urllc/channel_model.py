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

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .fbl_core import _check_index

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
    Returns inf when the power overflows double precision, and 0.0 when
    it underflows; SystemConfig rejects both.
    """
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    if not math.isfinite(psd_dbm_hz):
        raise ValueError(f"psd_dbm_hz must be finite, got {psd_dbm_hz!r}")
    dbm = psd_dbm_hz + 10.0 * math.log10(bandwidth)
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


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


@dataclass(frozen=True, slots=True)
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
        # integer counts >= 1 (fbl_core's count rule; numpy ints pass)
        for name in ("payload_bits", "symbol_budget", "max_vehicles"):
            _check_index(name, getattr(self, name))
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
        # what sample_scenario derives from them: a noise power that is
        # positive and finite (it divides every gain), and a K factor
        sigma2 = noise_power(self.noise_psd_dbm_hz, self.bandwidth)
        if not 0.0 < sigma2 < math.inf:
            raise ValueError(
                f"noise_psd_dbm_hz and bandwidth must give a positive, finite "
                f"noise power, got {sigma2!r} W from {self.noise_psd_dbm_hz!r} "
                f"dBm/Hz over {self.bandwidth!r} Hz"
            )
        try:
            _rician_amplitudes(self.rician_k_db)
        except OverflowError:
            raise ValueError(
                f"rician_k_db must give a finite K factor 10^(k_db/10), "
                f"got {self.rician_k_db!r}"
            ) from None
        if self.common_power is not None and not (
            math.isfinite(self.common_power) and self.common_power > 0.0
        ):
            raise ValueError(f"common_power must be > 0, got {self.common_power!r}")

    def common_power_value(self) -> float:
        """Fixed per-vehicle power for the fixed-power solver (W)."""
        if self.common_power is not None:
            return float(self.common_power)
        return self.energy_budget / self.symbol_budget


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


# sample_scenario fills each link's and the scenario's slots through
# their descriptors, as the frozen __init__ does, once its own checks
# have covered what __post_init__ would check
_set_vehicle_id = VehicleLink.vehicle_id.__set__
_set_distance = VehicleLink.distance.__set__
_set_fading_power_gain = VehicleLink.fading_power_gain.__set__
_set_norm_gain = VehicleLink.norm_gain.__set__
_set_config = Scenario.config.__set__
_set_links = Scenario.links.__set__
_set_seed = Scenario.seed.__set__
_new = object.__new__


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its
# default pool of four 32-bit words
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xors and multipliers of count successive hashes, as uint32
    columns that broadcast against the pool's rows: the hash constant
    starts at init and is multiplied by mult before every use as the
    multiplier, so the sequence does not depend on the data."""
    xors, mults = [], []
    const = init
    for _ in range(count):
        xors.append(const)
        const = const * mult & _MASK32
        mults.append(const)
    return (
        np.array(xors, dtype=np.uint32).reshape(-1, 1),
        np.array(mults, dtype=np.uint32).reshape(-1, 1),
    )


# mix_entropy hashes each pool word once, then each pool word once more
# per other pool word; generate_state(4, uint64) hashes 8 pool words
_ENTROPY_HASHES = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)

# stream_words' per-row constants: the first pass hashes the four
# entropy words, then source word i_src mixes into the other three (in
# order) with the next three hashes, and the output hashes read pool
# words 0..3 twice
_FIRST_PASS = tuple(column[:_POOL_SIZE] for column in _ENTROPY_HASHES)
_MIX_ROUNDS = [
    (
        i_src,
        np.array([i for i in range(_POOL_SIZE) if i != i_src], dtype=np.intp),
        *(
            column[_POOL_SIZE + 3 * i_src : _POOL_SIZE + 3 * i_src + 3]
            for column in _ENTROPY_HASHES
        ),
    )
    for i_src in range(_POOL_SIZE)
]
_OUTPUT_PASS = tuple(column.reshape(2, _POOL_SIZE, 1) for column in _STATE_HASHES)


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each element, under the constants that
    broadcast against it."""
    value = value ^ xor
    value *= mult
    value ^= value >> _XSHIFT
    return value


def _check_seed(seed) -> int:
    """A seed is an integer (operator.index, so numpy integers pass) in
    [0, 2^64); returns it as an int."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return value


def stream_words(seeds, n_vehicles: int) -> np.ndarray:
    """PCG64 seed words of every (seed, vehicle_id) substream at once.

    Returns a (len(seeds), n_vehicles, 4) uint64 array whose [s, v] row
    equals np.random.SeedSequence([seeds[s], v]).generate_state(4,
    np.uint64): the words default_rng([seeds[s], v]) seeds PCG64 with.
    It is numpy's SeedSequence hash run over one (4, S·n) uint32 pool,
    S = len(seeds), n = n_vehicles, whose column s·n + v is the
    substream [s, v]. The entropy is laid out per column as numpy
    coerces [seed, v]: [seed, v] for a seed below 2^32 (zero included)
    and [low word, high word, v] above, then padded with zeros to the
    pool size, as the hash itself pads short entropy.

    Each stage hashes whole rows at once under per-row constants
    precomputed at import: the four entropy hashes are one pass, and so
    are the eight output hashes. Of the twelve cross-mixing hashes, the
    three of one source word run as one round: each destination word is
    mixed with the source word alone, never with another destination,
    and the source word does not change in its own round, so the three
    updates are independent. That is about 75 numpy operations whatever
    S and n are. n_vehicles follows the count rule (_check_index).
    """
    seeds = [_check_seed(seed) for seed in seeds]
    n_vehicles = _check_index("n_vehicles", n_vehicles)
    seed64 = np.array(seeds, dtype=np.uint64).reshape(-1, 1)
    high = (seed64 >> np.uint64(32)).astype(np.uint32)
    wide = high != 0
    vids = np.arange(n_vehicles, dtype=np.uint32)
    entropy = np.zeros((_POOL_SIZE, len(seeds), n_vehicles), dtype=np.uint32)
    entropy[0] = seed64.astype(np.uint32)  # the low word
    entropy[1] = np.where(wide, high, vids)
    entropy[2] = np.where(wide, vids, 0)
    # mix_entropy
    pool = _hash(entropy.reshape(_POOL_SIZE, -1), *_FIRST_PASS)
    for i_src, i_dst, xor, mult in _MIX_ROUNDS:
        hashed = _hash(pool[i_src], xor, mult)
        hashed *= _MIX_MULT_R
        mixed = pool[i_dst]  # a copy: i_dst indexes rows
        mixed *= _MIX_MULT_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        pool[i_dst] = mixed
    # generate_state: output hash k reads pool word k mod 4, and output
    # hashes 2k and 2k + 1 are the low and high halves of uint64 word k:
    # each column's 8 hashes, stored as little-endian uint32 in order,
    # are its 4 words as little-endian uint64
    hashed = _hash(pool, *_OUTPUT_PASS).reshape(2 * _POOL_SIZE, -1)
    words = np.ascontiguousarray(hashed.T, dtype="<u4").view("<u8")
    return words.astype(np.uint64, copy=False).reshape(len(seeds), n_vehicles, 4)


class _Words(ISeedSequence):
    """Hands successive bit generators the rows of a (k, 4) uint64 array
    of seed words that stream_words computed, one row each, in order, so
    numpy still does each generator's own seeding from them. PCG64 asks
    for exactly one row. One object serves a whole sample_scenario call,
    which builds one generator per row."""

    __slots__ = ("rows",)

    def __init__(self, words: np.ndarray):
        self.rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(
                f"holds 4 uint64 words, asked for {n_words} {np.dtype(dtype)}"
            )
        return next(self.rows)


# the noise power and Rician amplitudes of the config sample_scenario
# last drew for, keyed by its identity: they depend only on the frozen
# config, a sweep draws all the cells of a swept value from one config
# object, and hashing a config's 11 fields costs more than deriving them
_derived = (None, 0.0, 0.0, 0.0)


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
    the seeding contract. n_vehicles follows the count rule
    (_check_index) and is at most config.max_vehicles.

    Past its generator and those two draws, a link costs its scalar
    arithmetic: the distance (hypot), the path loss (path_loss_db), then
    10 ** (-loss / 10) * fading / sigma2. Records are filled through
    their slot descriptors, not built by their constructors: a link
    whose fields pass VehicleLink's chained test, and the scenario,
    whose n and dense ids hold by construction. A link that fails the
    test is built by VehicleLink(...), whose check names the field. With
    streams, one seed-word object (_Words) hands each link's PCG64 its
    row. The noise power and the Rician amplitudes are derived once per
    config object, not per call.
    """
    n_vehicles = _check_index("n_vehicles", n_vehicles)
    if n_vehicles > config.max_vehicles:
        raise ValueError(
            f"n_vehicles must be in 1..{config.max_vehicles}, got {n_vehicles}"
        )
    seed = _check_seed(seed)
    if streams is None:
        rngs = (np.random.default_rng([seed, vid]) for vid in range(n_vehicles))
    else:
        words = np.ascontiguousarray(streams)
        if words.shape != (n_vehicles, 4) or words.dtype != np.uint64:
            raise ValueError(
                f"streams must be a ({n_vehicles}, 4) uint64 array, got "
                f"{words.shape} {words.dtype}"
            )
        rngs = map(
            np.random.Generator,
            map(np.random.PCG64, itertools.repeat(_Words(words), n_vehicles)),
        )
    global _derived
    derived = _derived
    if derived[0] is not config:
        derived = _derived = (
            config,
            noise_power(config.noise_psd_dbm_hz, config.bandwidth),
            *_rician_amplitudes(config.rician_k_db),
        )
    _, sigma2, los, scatter = derived
    road_length = config.road_length
    midpoint = road_length / 2.0
    mount_height = config.mount_height
    links = []
    for vehicle_id, rng in enumerate(rngs):
        # uniform(0, L) is 0.0 + L * random(); the distance is from the
        # unit, raised mount_height above the road midpoint
        position = road_length * rng.random()
        distance = math.hypot(position - midpoint, mount_height)
        re, im = rng.standard_normal(2).tolist()
        fading = _fading_gain(los, scatter, re, im)
        norm_gain = 10.0 ** (-path_loss_db(distance) / 10.0) * fading / sigma2
        # VehicleLink's chained test; its constructor names a failing field
        if not (
            0.0 < distance < math.inf
            and 0.0 < fading < math.inf
            and 0.0 < norm_gain < math.inf
        ):
            links.append(VehicleLink(vehicle_id, distance, fading, norm_gain))
            continue
        link = _new(VehicleLink)
        _set_vehicle_id(link, vehicle_id)
        _set_distance(link, distance)
        _set_fading_power_gain(link, fading)
        _set_norm_gain(link, norm_gain)
        links.append(link)
    # n_vehicles was checked against max_vehicles above and the ids are
    # 0..n-1, which is all Scenario.__post_init__ checks
    scenario = _new(Scenario)
    _set_config(scenario, config)
    _set_links(scenario, tuple(links))
    _set_seed(scenario, seed)
    return scenario
