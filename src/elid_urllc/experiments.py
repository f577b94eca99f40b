"""Monte Carlo sweep harness over the allocation solvers.

A sweep varies either the vehicle count or the symbol budget, draws
``num_seeds`` independent scenarios per swept value, runs a solver on
each, and records scalar metrics as flat rows.  Rows serialize to CSV
with a fixed sort order so reruns are byte-identical no matter how the
cells were scheduled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
import statistics
from dataclasses import dataclass

from . import channel_model
from .allocators import (
    SolveReport,
    _equal_split,
    equal_allocation_energy,
    solve_joint_minmax,
    solve_power_minmax_fixed_m,
    solve_symbols_minmax_fixed_p,
    symbol_sharing,
)
from .channel_model import Scenario, SystemConfig
from .exceptions import InfeasibleError
from .fbl_core import reliability_margin

SOLVER_NAMES = (
    "joint_minmax",
    "power_minmax_fixed_m",
    "symbols_minmax_fixed_p",
    "symbol_sharing",
    "equal_allocation",
)

SWEPT_VARIABLES = ("n_vehicles", "symbol_budget")

METRIC_UNITS = {
    "min_blocklength": "symbols",
    "max_blocklength": "symbols",
    "min_power": "watts",
    "max_power": "watts",
    "total_energy": "joules",
    "worst_eps_log10": "log10(eps)",
    "energy_saved_pct": "percent",
}

_MODIFIER_KEYS = ("solver", "symbol_budget")

# metric name with an optional single [key=value] modifier
_METRIC_RE = re.compile(r"^([a-z0-9_]+)(?:\[([a-z_]+)=([^\[\]=]+)\])?$")

CSV_HEADER = "sweep,swept_value,seed,metric,value,units"


def parse_metric(name: str) -> tuple[str, dict[str, str]]:
    """Split a metric name into its base name and modifier mapping.

    ``total_energy[symbol_budget=1000]`` evaluates total_energy on a
    copy of the cell's config with that budget; ``worst_eps_log10
    [solver=...]`` overrides the sweep's solver for this metric only.
    energy_saved_pct always compares symbol_sharing with the equal
    split, so it rejects a solver modifier.
    """
    match = _METRIC_RE.match(name)
    if match is None:
        raise ValueError(f"malformed metric name {name!r}")
    base, key, value = match.groups()
    if base not in METRIC_UNITS:
        raise ValueError(f"unknown metric {base!r}")
    if key is None:
        return base, {}
    if key not in _MODIFIER_KEYS:
        raise ValueError(f"unknown metric modifier {key!r} in {name!r}")
    if key == "solver" and value not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {value!r} in metric {name!r}")
    if key == "solver" and base == "energy_saved_pct":
        raise ValueError(
            f"energy_saved_pct compares symbol_sharing with the equal split "
            f"and takes no solver modifier, got {name!r}"
        )
    if key == "symbol_budget" and (not value.isdigit() or int(value) < 1):
        raise ValueError(f"bad symbol_budget modifier in metric {name!r}")
    return base, {key: value}


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: sweep a variable, average metrics over seeds.

    ``n_vehicles`` fixes the scenario size for symbol_budget sweeps and
    is ignored when the vehicle count itself is swept.
    """

    name: str
    base_config: SystemConfig
    swept_variable: str
    values: tuple[int, ...]
    solver: str
    outputs: tuple[str, ...]
    num_seeds: int = 100
    n_vehicles: int = 5

    def __post_init__(self):
        if not self.name:
            raise ValueError("sweep name must be non-empty")
        if self.swept_variable not in SWEPT_VARIABLES:
            raise ValueError(
                f"swept_variable must be one of {SWEPT_VARIABLES}, "
                f"got {self.swept_variable!r}"
            )
        if not self.values:
            raise ValueError("values must be non-empty")
        for v in self.values:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"swept values must be positive integers, got {v!r}")
        if self.solver not in SOLVER_NAMES:
            raise ValueError(f"solver must be one of {SOLVER_NAMES}, got {self.solver!r}")
        if not self.outputs:
            raise ValueError("outputs must be non-empty")
        for metric in self.outputs:
            parse_metric(metric)
        if self.num_seeds < 1:
            raise ValueError(f"num_seeds must be >= 1, got {self.num_seeds}")
        if self.n_vehicles < 1:
            raise ValueError(f"n_vehicles must be >= 1, got {self.n_vehicles}")


@dataclass(frozen=True)
class ResultRow:
    """One metric evaluation; metric_value None marks an infeasible cell."""

    sweep_name: str
    swept_value: int
    seed: int
    metric_name: str
    metric_value: float | None
    units: str

    def __post_init__(self):
        if self.metric_value is not None and not math.isfinite(self.metric_value):
            raise ValueError(
                f"metric_value must be finite or None, got {self.metric_value!r}"
            )


@dataclass(frozen=True)
class SummaryRow:
    """Per (swept_value, metric) statistics over the feasible seeds."""

    sweep_name: str
    swept_value: int
    metric_name: str
    mean: float | None
    sd: float | None
    count: int
    infeasible_count: int


def cell_seed(sweep_name: str, swept_value: int, seed_index: int) -> int:
    """Deterministic 64-bit scenario seed for one sweep cell.

    Hashing keeps cells independent: neighbouring seed indices share no
    generator state, and reordering the swept values cannot shift which
    scenario a cell sees.
    """
    tag = f"{sweep_name}|{swept_value}|{seed_index}".encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def run_solver(solver: str, scenario: Scenario) -> SolveReport:
    """Dispatch a solver by name; the restricted min-max solvers get the
    equal symbol split / config common power as their fixed resource."""
    if solver == "joint_minmax":
        return solve_joint_minmax(scenario)
    if solver == "power_minmax_fixed_m":
        m_vec = _equal_split(scenario.config.symbol_budget, scenario.n_vehicles)
        return solve_power_minmax_fixed_m(scenario, m_vec)
    if solver == "symbols_minmax_fixed_p":
        return solve_symbols_minmax_fixed_p(scenario)
    if solver == "symbol_sharing":
        return symbol_sharing(scenario)
    if solver == "equal_allocation":
        return _equal_allocation_report(scenario)
    raise ValueError(f"unknown solver {solver!r}")


def _equal_allocation_report(scenario: Scenario) -> SolveReport:
    allocation, total = equal_allocation_energy(scenario)
    d = scenario.config.payload_bits
    margins = tuple(
        reliability_margin(p * link.norm_gain, m, d)
        for p, m, link in zip(allocation.powers, allocation.blocklengths, scenario.links)
    )
    return SolveReport(
        allocation=allocation,
        margins=margins,
        total_energy=total,
        iterations=1,
        trace=((1, total),),
        converged=True,
        solver_name="equal_allocation",
    )


def energy_saved_percent(e_equal: float, e_shared: float) -> float:
    """Relative saving of the least-energy split over the equal split."""
    if not e_equal > 0:
        raise ValueError(f"e_equal must be positive, got {e_equal!r}")
    return 100.0 * (e_equal - e_shared) / e_equal


def _metric_value(base: str, solver: str, scenario: Scenario, cache: dict) -> float:
    if base == "energy_saved_pct":
        shared = symbol_sharing(scenario)
        _, e_equal = equal_allocation_energy(scenario)
        return energy_saved_percent(e_equal, shared.total_energy)
    key = (solver, scenario.config)
    if key not in cache:
        cache[key] = run_solver(solver, scenario)
    report = cache[key]
    if base == "min_blocklength":
        return float(min(report.allocation.blocklengths))
    if base == "max_blocklength":
        return float(max(report.allocation.blocklengths))
    if base == "min_power":
        return min(report.allocation.powers)
    if base == "max_power":
        return max(report.allocation.powers)
    if base == "total_energy":
        return report.total_energy
    if base == "worst_eps_log10":
        return report.worst_margin.eps_log10
    raise ValueError(f"unknown metric {base!r}")


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate every (swept value, seed, metric) cell of the sweep.

    Each (swept value, seed) draws its scenario once; the seed words of
    a swept value's substreams are hashed in one batch
    (channel_model.stream_words). A metric with a symbol_budget modifier
    gets the same links under its own config: the channel draws do not
    depend on the budgets. Metrics that share a solver and config share
    one solve. Infeasible cells are recorded with a None value rather
    than aborting the sweep. Rows come back sorted by (swept_value,
    seed, metric) so serialization never depends on evaluation order.
    """
    parsed = [(metric, *parse_metric(metric)) for metric in spec.outputs]
    rows = []
    for value in spec.values:
        if spec.swept_variable == "n_vehicles":
            n_vehicles = value
            cell_config = spec.base_config
        else:
            n_vehicles = spec.n_vehicles
            cell_config = dataclasses.replace(spec.base_config, symbol_budget=value)
        metrics = []
        for metric, base, mods in parsed:
            config = cell_config
            if "symbol_budget" in mods:
                config = dataclasses.replace(
                    config, symbol_budget=int(mods["symbol_budget"])
                )
            metrics.append(
                (metric, base, mods.get("solver", spec.solver), config, METRIC_UNITS[base])
            )
        seeds = [cell_seed(spec.name, value, i) for i in range(spec.num_seeds)]
        words = channel_model.stream_words(seeds, n_vehicles)
        for seed_index, seed in enumerate(seeds):
            drawn = channel_model.sample_scenario(
                cell_config, n_vehicles, seed, streams=words[seed_index]
            )
            cache: dict = {}
            for metric, base, solver, config, units in metrics:
                scenario = (
                    drawn
                    if config is cell_config
                    else dataclasses.replace(drawn, config=config)
                )
                try:
                    metric_value = _metric_value(base, solver, scenario, cache)
                except InfeasibleError:
                    metric_value = None
                rows.append(
                    ResultRow(
                        sweep_name=spec.name,
                        swept_value=value,
                        seed=seed_index,
                        metric_name=metric,
                        metric_value=metric_value,
                        units=units,
                    )
                )
    rows.sort(key=lambda r: (r.swept_value, r.seed, r.metric_name))
    return rows


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    """Mean and sample standard deviation per (swept_value, metric).

    Infeasible rows are excluded from the statistics and tallied
    separately; a cell with a single feasible row reports sd 0.
    """
    groups: dict[tuple[str, int, str], list[float | None]] = {}
    for row in rows:
        key = (row.sweep_name, row.swept_value, row.metric_name)
        groups.setdefault(key, []).append(row.metric_value)
    out = []
    for (sweep_name, swept_value, metric_name), values in sorted(groups.items()):
        feasible = [v for v in values if v is not None]
        if feasible:
            mean = statistics.fmean(feasible)
            sd = statistics.stdev(feasible) if len(feasible) > 1 else 0.0
        else:
            mean = None
            sd = None
        out.append(
            SummaryRow(
                sweep_name=sweep_name,
                swept_value=swept_value,
                metric_name=metric_name,
                mean=mean,
                sd=sd,
                count=len(feasible),
                infeasible_count=len(values) - len(feasible),
            )
        )
    return out


def format_csv(rows: list[ResultRow]) -> str:
    """Render rows in the stable CSV layout (12 significant digits, LF)."""
    lines = [CSV_HEADER]
    for row in rows:
        value = "infeasible" if row.metric_value is None else f"{row.metric_value:.12g}"
        lines.append(
            f"{row.sweep_name},{row.swept_value},{row.seed},"
            f"{row.metric_name},{value},{row.units}"
        )
    return "\n".join(lines) + "\n"


def write_csv(rows: list[ResultRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_csv(rows))


def preset_fig4(num_seeds: int = 100) -> SweepSpec:
    """Blocklength spread of the greedy symbol allocation at fixed power."""
    return SweepSpec(
        name="fig4",
        base_config=SystemConfig(),
        swept_variable="n_vehicles",
        values=tuple(range(1, 11)),
        solver="symbols_minmax_fixed_p",
        outputs=("max_blocklength", "min_blocklength"),
        num_seeds=num_seeds,
    )


def preset_fig5(num_seeds: int = 100) -> SweepSpec:
    """Power spread of the min-max power solver on the equal symbol split."""
    return SweepSpec(
        name="fig5",
        base_config=SystemConfig(energy_budget=10.0),
        swept_variable="n_vehicles",
        values=tuple(range(1, 11)),
        solver="power_minmax_fixed_m",
        outputs=("max_power", "min_power"),
        num_seeds=num_seeds,
    )


def preset_fig6(num_seeds: int = 100) -> SweepSpec:
    """Worst-case error probability under both restricted solvers."""
    return SweepSpec(
        name="fig6",
        base_config=SystemConfig(),
        swept_variable="n_vehicles",
        values=tuple(range(1, 11)),
        solver="power_minmax_fixed_m",
        outputs=(
            "worst_eps_log10[solver=power_minmax_fixed_m]",
            "worst_eps_log10[solver=symbols_minmax_fixed_p]",
        ),
        num_seeds=num_seeds,
    )


def preset_fig7(num_seeds: int = 100) -> SweepSpec:
    """Total least-energy-split energy at a tight and a loose symbol budget."""
    return SweepSpec(
        name="fig7",
        base_config=SystemConfig(),
        swept_variable="n_vehicles",
        values=tuple(range(1, 11)),
        solver="symbol_sharing",
        outputs=(
            "total_energy[symbol_budget=200]",
            "total_energy[symbol_budget=1000]",
        ),
        num_seeds=num_seeds,
    )


def preset_fig8(num_seeds: int = 100) -> SweepSpec:
    """Energy saved by the least-energy split over the equal split, by budget."""
    return SweepSpec(
        name="fig8",
        base_config=SystemConfig(),
        swept_variable="symbol_budget",
        values=(200, 400, 600, 800, 1000),
        solver="symbol_sharing",
        outputs=("energy_saved_pct",),
        num_seeds=num_seeds,
        n_vehicles=5,
    )


FIGURE_PRESETS = {
    4: preset_fig4,
    5: preset_fig5,
    6: preset_fig6,
    7: preset_fig7,
    8: preset_fig8,
}
