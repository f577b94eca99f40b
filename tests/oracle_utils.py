"""Shared test helpers: synthetic scenarios and independent oracles.

The grid oracle evaluates margins with direct numpy expressions so it
shares no code path with the scalar solvers it checks.
"""

import dataclasses
import itertools
import math

import numpy as np

from elid_urllc.allocators import _REL_IMPROVEMENT, _SplitSetup
from elid_urllc.channel_model import (
    Scenario,
    SystemConfig,
    VehicleLink,
    noise_power,
    path_loss_db,
    sample_scenario,
)
from elid_urllc.exceptions import InfeasibleError
from elid_urllc.fbl_core import (
    LN2,
    _build_split_tables,
    min_power_for_target,
    reliability_margin,
)


def largest_affordable_margin(energy_at, margin_floor, budget):
    """Largest margin g >= margin_floor with energy_at(g) <= budget, found
    by expanding upward from margin_floor and then bisecting; returns
    (g, number of energy_at calls).

    The reference searches below use it; brute_force_minmax runs the
    same search on its least energy. energy_at must be nondecreasing in
    g, and the caller has checked that the budget covers margin_floor.
    """
    evaluations = 0
    lo = margin_floor
    step = 1.0
    while True:
        hi = margin_floor + step
        evaluations += 1
        if energy_at(hi) > budget:
            break
        lo = hi
        step *= 2.0

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # floats exhausted
        evaluations += 1
        energy_mid = energy_at(mid)
        if energy_mid > budget:
            hi = mid
        else:
            lo = mid
            if budget - energy_mid <= _REL_IMPROVEMENT * budget:
                break
    return lo, evaluations


def make_scenario(gains, **config_kwargs) -> Scenario:
    """Scenario with hand-picked normalized gains (fading absorbs them)."""
    cfg = SystemConfig(**config_kwargs)
    links = []
    for i, gain in enumerate(gains):
        links.append(
            VehicleLink(
                vehicle_id=i,
                distance=1.0,
                fading_power_gain=float(gain) * 10.0 ** (35.3 / 10.0),
                norm_gain=float(gain),
            )
        )
    return Scenario(config=cfg, links=tuple(links), seed=0)


def grid_oracle_minmax_two_vehicles(scenario, m_vec, rounds=4, pts=65):
    """Zoomed 2-D grid search over the power box for the max-min margin."""
    cfg = scenario.config
    d = cfg.payload_bits
    budget = cfg.energy_budget
    h = np.array([link.norm_gain for link in scenario.links])
    m = np.array(m_vec, dtype=float)
    lo = np.zeros(2)
    hi = np.array([budget / m[0], budget / m[1]])
    best = -np.inf
    for _ in range(rounds):
        p1 = np.linspace(lo[0], hi[0], pts)
        p2 = np.linspace(lo[1], hi[1], pts)
        grid1, grid2 = np.meshgrid(p1, p2, indexing="ij")
        feasible = grid1 * m[0] + grid2 * m[1] <= budget * (1.0 + 1e-12)
        g1 = np.sqrt(m[0]) * (np.log1p(grid1 * h[0]) - LN2 * d / m[0])
        g2 = np.sqrt(m[1]) * (np.log1p(grid2 * h[1]) - LN2 * d / m[1])
        objective = np.where(feasible, np.minimum(g1, g2), -np.inf)
        k1, k2 = np.unravel_index(int(np.argmax(objective)), objective.shape)
        best = max(best, float(objective[k1, k2]))
        step1 = (hi[0] - lo[0]) / (pts - 1)
        step2 = (hi[1] - lo[1]) / (pts - 1)
        lo = np.array([max(0.0, p1[k1] - 2 * step1), max(0.0, p2[k2] - 2 * step2)])
        hi = np.array(
            [
                min(budget / m[0], p1[k1] + 2 * step1),
                min(budget / m[1], p2[k2] + 2 * step2),
            ]
        )
    return best


def random_feasible_minmax_instance(rng, n=None, headroom_decades=(0.1, 2.5)):
    """Scenario plus blocklength split with a budget that always funds
    the zero-margin power vector (uniformly random headroom above it)."""
    cfg = SystemConfig()
    if n is None:
        n = int(rng.integers(1, 9))
    seed = int(rng.integers(0, 2**63))
    scenario = sample_scenario(cfg, n, seed=seed)
    splits = rng.multinomial(cfg.symbol_budget - n, np.full(n, 1.0 / n))
    m_vec = [int(s) + 1 for s in splits]
    floor_energy = sum(
        m * (2.0 ** (cfg.payload_bits / m) - 1.0) / link.norm_gain
        for m, link in zip(m_vec, scenario.links)
    )
    budget = floor_energy * 10.0 ** float(rng.uniform(*headroom_decades))
    cfg = dataclasses.replace(cfg, energy_budget=float(budget))
    return sample_scenario(cfg, n, seed=seed), m_vec


def feasible_joint_instance(rng, n=2, m_total=40, payload_bits=32):
    """Instance whose per-vehicle blocklength floors are guaranteed to
    exist (budget scaled from the worst link's feasibility bound)."""
    seed = int(rng.integers(0, 2**63))
    base = SystemConfig(symbol_budget=m_total, payload_bits=payload_bits)
    probe = sample_scenario(base, n, seed=seed)
    h_min = min(link.norm_gain for link in probe.links)
    required = m_total * (2.0 ** (payload_bits / m_total) - 1.0)
    budget = required / h_min * 10.0 ** float(rng.uniform(0.3, 2.0))
    cfg = dataclasses.replace(base, energy_budget=float(budget))
    return sample_scenario(cfg, n, seed=seed)


def compositions(total, n):
    """All length-n tuples of positive integers summing to total."""
    if n == 1:
        yield (total,)
        return
    for first in range(1, total - n + 2):
        for rest in compositions(total - first, n - 1):
            yield (first,) + rest


def reference_least_energy_split(table, gains, floors, m_total):
    """Masked form of allocators._SplitSetup's split over the raw c_g
    table: every vehicle's whole row of the n x (m_total - 1) saving
    matrix, with the steps below its floor set to zero, in one stable
    sort. Returns the blocklengths as the split does.
    """
    gains = np.asarray(gains, dtype=float)
    floors = np.asarray(floors)
    spare = m_total - int(floors.sum())
    with np.errstate(invalid="ignore"):
        steps = table[:-1] - table[1:]
    steps[np.isnan(steps)] = np.inf
    savings = steps / gains[:, None]
    savings[np.arange(m_total - 1) < floors[:, None] - 1] = 0.0
    order = np.argsort(-savings, axis=None, kind="stable")[:spare]
    granted = order[savings.ravel()[order] > 0.0] // (m_total - 1)
    m_vec = floors + np.bincount(granted, minlength=len(floors))
    return m_vec.tolist()


def reference_c0(m, payload_bits):
    """c_0(m) = m * (2^(D/m) - 1), the energy-gain product needed at
    eps = 0.5, in its own scalar arithmetic: m * expm1(ln2 * D / m), inf
    once the exponent passes 709, where math.expm1 would overflow."""
    exponent = LN2 * payload_bits / m
    if exponent > 709.0:
        return math.inf
    return m * math.expm1(exponent)


def reference_min_blocklength(energy_budget_gain, payload_bits, max_symbols):
    """Scalar form of fbl_core.min_blocklength: bisection on the
    predicate energy_budget_gain > reference_c0(m, D), evaluated afresh
    at every probe, after checking m = max_symbols."""
    if not energy_budget_gain > reference_c0(max_symbols, payload_bits):
        return None
    lo, hi = 1, max_symbols
    while lo < hi:
        mid = (lo + hi) // 2
        if energy_budget_gain > reference_c0(mid, payload_bits):
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_symbols_minmax_fixed_p(scenario):
    """Per-symbol greedy of the fixed-power min-max problem at the
    config's common power: grant each spare symbol to the currently
    worst vehicle (ties to the lowest id) with a fresh scalar margin.
    Returns (blocklengths, trace, iterations) as the solver reports them.
    """
    cfg = scenario.config
    n = scenario.n_vehicles
    d = cfg.payload_bits
    snrs = [cfg.common_power_value() * link.norm_gain for link in scenario.links]
    m_vec = [1] * n
    margins_g = [reliability_margin(snr, 1, d).g for snr in snrs]
    trace = [(0, min(margins_g))]
    grants = cfg.symbol_budget - n
    for grant in range(1, grants + 1):
        worst = min(range(n), key=lambda i: margins_g[i])
        m_vec[worst] += 1
        margins_g[worst] = reliability_margin(snrs[worst], m_vec[worst], d).g
        trace.append((grant, min(margins_g)))
    return tuple(m_vec), tuple(trace), grants


def reference_joint_minmax(scenario):
    """Expand-and-bisect search of the joint min-max problem: the largest
    margin g whose least-energy split (_SplitSetup over floors of one
    symbol) fits the energy budget, bisected on g from g = -ln2 * D,
    where every link needs zero power. Returns (blocklengths, g) with the
    blocklengths of the split at that g. Raises InfeasibleError when
    M < n or that g is below margin 0.
    """
    cfg = scenario.config
    d = cfg.payload_bits
    m_total = cfg.symbol_budget
    gains = [link.norm_gain for link in scenario.links]
    if m_total < len(gains):
        raise InfeasibleError("the symbol budget cannot cover every vehicle")
    floors = [1] * len(gains)
    gain_arr = np.asarray(gains, dtype=float)

    def split_at(margin):
        tables = _build_split_tables(d, margin, m_total)
        m_vec = _SplitSetup(gains, floors, m_total).step(tables).tolist()
        # a sum past the float range reads as inf, as an inf entry does
        with np.errstate(over="ignore"):
            return m_vec, float(np.sum(tables[0][np.array(m_vec) - 1] / gain_arr))

    g, _ = largest_affordable_margin(
        lambda margin: split_at(margin)[1], -LN2 * d, cfg.energy_budget
    )
    if g < 0.0:
        raise InfeasibleError(f"the budget affords at most margin {g!r}, below 0")
    return tuple(split_at(g)[0]), g


def reference_power_minmax_fixed_m(scenario, m_vec):
    """Expand-and-bisect search of the fixed-blocklength min-max problem:
    the largest common margin g >= 0 whose closed-form powers
    (min_power_for_target) fit the energy budget, bisected on g from 0.
    Raises InfeasibleError when the budget cannot fund margin 0.
    """
    cfg = scenario.config
    d = cfg.payload_bits
    budget = cfg.energy_budget
    gains = [link.norm_gain for link in scenario.links]

    def energy_at(margin):
        return math.fsum(
            min_power_for_target(h, m, d, margin) * m for h, m in zip(gains, m_vec)
        )

    if energy_at(0.0) > budget:
        raise InfeasibleError("the budget cannot fund margin 0")
    g, _ = largest_affordable_margin(energy_at, 0.0, budget)
    return g


def reference_brute_force_minmax(scenario):
    """Exhaustive form of brute_force_minmax: every blocklength vector of
    ones or more within the symbol budget, enumerated in lexicographic
    order as a filtered itertools.product, each scored on its own by
    largest_affordable_margin over math.fsum of min_power_for_target
    energies, from the margin at which every power is zero. Returns
    (blocklengths, g) of the first vector with the largest margin.
    Raises InfeasibleError when there is no vector or that margin is
    below 0.
    """
    cfg = scenario.config
    d = cfg.payload_bits
    m_total = cfg.symbol_budget
    gains = [link.norm_gain for link in scenario.links]
    vectors = itertools.product(range(1, m_total + 1), repeat=len(gains))
    best_m, best_g = None, -math.inf
    for m_vec in (v for v in vectors if sum(v) <= m_total):

        def energy_at(margin):
            return math.fsum(
                min_power_for_target(h, m, d, margin) * m for h, m in zip(gains, m_vec)
            )

        zero_power = min(-LN2 * d / math.sqrt(m) for m in m_vec)
        g, _ = largest_affordable_margin(energy_at, zero_power, cfg.energy_budget)
        if best_m is None or g > best_g:
            best_m, best_g = m_vec, g
    if best_m is None or best_g < 0.0:
        raise InfeasibleError(f"the budget affords at most margin {best_g!r}, below 0")
    return best_m, best_g


def reference_link_distance(position, road_length, mount_height):
    """Euclidean distance from the elevated unit (road midpoint, raised
    by mount_height) to a vehicle at the given position along the road."""
    return math.hypot(position - road_length / 2.0, mount_height)


def reference_rician_power_gain(k_db, rng, size=None):
    """The two-normal Rician fading draw channel_model once made: one
    normal(0, sqrt(1/2), size) call for the real parts, then one for the
    imaginary parts."""
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


def reference_sample_scenario(config, n_vehicles, seed):
    """The per-link loop channel_model.sample_scenario replaced: a
    uniform(0, L) position and the two-normal fading draw on each
    vehicle's default_rng([seed, vehicle_id]), with every constant
    recomputed per link."""
    rngs = (np.random.default_rng([seed, vid]) for vid in range(n_vehicles))
    sigma2 = noise_power(config.noise_psd_dbm_hz, config.bandwidth)
    links = []
    for vehicle_id, rng in enumerate(rngs):
        position = float(rng.uniform(0.0, config.road_length))
        distance = reference_link_distance(
            position, config.road_length, config.mount_height
        )
        loss_db = path_loss_db(distance)
        fading = reference_rician_power_gain(config.rician_k_db, rng)
        norm_gain = 10.0 ** (-loss_db / 10.0) * fading / sigma2
        links.append(
            VehicleLink(
                vehicle_id=vehicle_id,
                distance=distance,
                fading_power_gain=fading,
                norm_gain=norm_gain,
            )
        )
    return Scenario(config=config, links=tuple(links), seed=seed)
