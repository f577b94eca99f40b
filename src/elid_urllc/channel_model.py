"""Link-budget and scenario generation for the factory downlink.

An elevated roadside unit mounted above the midpoint of a straight road
serves up to ten vehicles. Each vehicle sees log-distance path loss,
unit-mean Rician fading (line of sight plus scatter), and thermal noise
over the configured bandwidth. The composite per-link quantity the
solvers consume is the normalized gain |h|^2 / sigma^2 in 1/W, so that
snr = transmit_power * norm_gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def rician_power_gain(k_db: float, rng: np.random.Generator, size=None):
    """Unit-mean Rician fading power gain(s).

    Draws |g|^2 with g = sqrt(K/(K+1)) + sqrt(1/(K+1)) * CN(0, 1) and
    K = 10^(k_db/10), so E[|g|^2] = 1 for every K. Pass size to draw a
    vectorized batch; the scalar form returns a float.
    """
    if not math.isfinite(k_db):
        raise ValueError(f"k_db must be finite, got {k_db!r}")
    k = 10.0 ** (k_db / 10.0)
    los = math.sqrt(k / (k + 1.0))
    scatter_scale = math.sqrt(1.0 / (k + 1.0))
    re = rng.normal(0.0, math.sqrt(0.5), size=size)
    im = rng.normal(0.0, math.sqrt(0.5), size=size)
    gain = (los + scatter_scale * re) ** 2 + (scatter_scale * im) ** 2
    if size is None:
        return float(gain)
    return gain


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
    path_loss_db: float
    fading_power_gain: float
    noise_power: float
    norm_gain: float

    def __post_init__(self) -> None:
        if self.vehicle_id < 0:
            raise ValueError(f"vehicle_id must be >= 0, got {self.vehicle_id}")
        for name in ("distance", "fading_power_gain", "noise_power", "norm_gain"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not (math.isfinite(self.path_loss_db) and self.path_loss_db >= 0.0):
            raise ValueError(f"path_loss_db must be >= 0, got {self.path_loss_db!r}")


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


def link_distance(position: float, road_length: float, mount_height: float) -> float:
    """Euclidean distance from the elevated unit (road midpoint, raised
    by mount_height) to a vehicle at the given position along the road."""
    return math.hypot(position - road_length / 2.0, mount_height)


def sample_scenario(config: SystemConfig, n_vehicles: int, seed: int) -> Scenario:
    """Draw one scenario: uniform vehicle positions plus Rician fading.

    Each vehicle consumes its own substream keyed by (seed, vehicle_id),
    so a scenario is reproducible link by link and raising n_vehicles
    leaves the existing links' draws untouched.
    """
    if not 1 <= n_vehicles <= config.max_vehicles:
        raise ValueError(
            f"n_vehicles must be in 1..{config.max_vehicles}, got {n_vehicles}"
        )
    if not isinstance(seed, int) or seed < 0 or seed >= 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    sigma2 = noise_power(config.noise_psd_dbm_hz, config.bandwidth)
    links = []
    for vehicle_id in range(n_vehicles):
        rng = np.random.default_rng([seed, vehicle_id])
        position = float(rng.uniform(0.0, config.road_length))
        distance = link_distance(position, config.road_length, config.mount_height)
        loss_db = path_loss_db(distance)
        fading = rician_power_gain(config.rician_k_db, rng)
        norm_gain = 10.0 ** (-loss_db / 10.0) * fading / sigma2
        links.append(
            VehicleLink(
                vehicle_id=vehicle_id,
                distance=distance,
                path_loss_db=loss_db,
                fading_power_gain=fading,
                noise_power=sigma2,
                norm_gain=norm_gain,
            )
        )
    return Scenario(config=config, links=tuple(links), seed=seed)
