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
from .channel_model import Scenario, SystemConfig, _set_config, _set_links, _set_seed
from .exceptions import InfeasibleError
from .fbl_core import _check_index

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


@dataclass(frozen=True, slots=True)
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
        # stored as ints, so cell seeds and the CSV text never see a
        # numpy integer's type
        object.__setattr__(
            self, "values", tuple(_check_index("values", v) for v in self.values)
        )
        if len(set(self.values)) < len(self.values):
            raise ValueError(f"swept values must be distinct, got {self.values!r}")
        if self.solver not in SOLVER_NAMES:
            raise ValueError(f"solver must be one of {SOLVER_NAMES}, got {self.solver!r}")
        if not self.outputs:
            raise ValueError("outputs must be non-empty")
        for metric in self.outputs:
            parse_metric(metric)
        if len(set(self.outputs)) < len(self.outputs):
            raise ValueError(f"metrics must be distinct, got {self.outputs!r}")
        _check_index("num_seeds", self.num_seeds)
        _check_index("n_vehicles", self.n_vehicles)
        # the vehicle counts sample_scenario would reject, before any
        # cell is solved
        max_vehicles = self.base_config.max_vehicles
        if self.swept_variable == "n_vehicles":
            for v in self.values:
                if v > max_vehicles:
                    raise ValueError(
                        f"swept n_vehicles must be in 1..{max_vehicles}, got {v}"
                    )
        elif self.n_vehicles > max_vehicles:
            raise ValueError(
                f"n_vehicles must be in 1..{max_vehicles}, got {self.n_vehicles}"
            )


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class SummaryRow:
    """Per (swept_value, metric) statistics over the feasible seeds."""

    sweep_name: str
    swept_value: int
    metric_name: str
    mean: float | None
    sd: float | None
    count: int
    infeasible_count: int


# run_sweep fills each row's slots through their descriptors, as the
# frozen __init__ does, once its chained test has covered what
# __post_init__ checks
_set_sweep_name = ResultRow.sweep_name.__set__
_set_swept_value = ResultRow.swept_value.__set__
_set_seed_index = ResultRow.seed.__set__
_set_metric_name = ResultRow.metric_name.__set__
_set_metric_value = ResultRow.metric_value.__set__
_set_units = ResultRow.units.__set__
_new = object.__new__


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
    equal symbol split / config common power as their fixed resource.

    The one place outside allocators that maps a name to a solver: every
    sweep solve and the CLI reach the solvers here. The functions are
    looked up by their names in this module at each call, so a caller
    that rebinds those names sees every solve."""
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
        return equal_allocation_energy(scenario)
    raise ValueError(f"unknown solver {solver!r}")


def energy_saved_percent(e_equal: float, e_shared: float) -> float:
    """Relative saving of the least-energy split over the equal split;
    0.0 when both meet the target at no energy."""
    if e_equal == e_shared == 0.0:
        return 0.0
    if not e_equal > 0:
        raise ValueError(f"e_equal must be positive, got {e_equal!r}")
    return 100.0 * (e_equal - e_shared) / e_equal


# each metric's value from its solve slots' reports; energy_saved_pct
# reads the (symbol_sharing, equal_allocation) pair, the others one report
_EXTRACT = {
    "min_blocklength": lambda report: float(min(report.allocation.blocklengths)),
    "max_blocklength": lambda report: float(max(report.allocation.blocklengths)),
    "min_power": lambda report: min(report.allocation.powers),
    "max_power": lambda report: max(report.allocation.powers),
    "total_energy": lambda report: report.total_energy,
    "worst_eps_log10": lambda report: report.worst_margin.eps_log10,
    "energy_saved_pct": lambda shared, equal: energy_saved_percent(
        equal.total_energy, shared.total_energy
    ),
}


def _solve_slots(spec: SweepSpec, cell_config: SystemConfig):
    """Resolve the sweep's metrics for one swept value.

    Returns (configs, slots, metrics). configs holds each distinct
    config once, the cell's own first. slots holds each distinct
    (solver name, config index) once, to be solved through run_solver.
    metrics holds (metric, units, extract, slot, second slot) in
    metric-name order. energy_saved_pct reads the symbol_sharing slot
    and then the equal_allocation slot; every other metric reads its
    one solver's slot, and its second slot is None.
    """
    configs = [cell_config]
    slot_of: dict[tuple[str, int], int] = {}
    metrics = []
    for metric in sorted(spec.outputs):
        base, mods = parse_metric(metric)
        config = cell_config
        if "symbol_budget" in mods:
            config = dataclasses.replace(
                cell_config, symbol_budget=int(mods["symbol_budget"])
            )
        if config not in configs:
            configs.append(config)
        config_index = configs.index(config)
        if base == "energy_saved_pct":
            reads = (
                slot_of.setdefault(("symbol_sharing", config_index), len(slot_of)),
                slot_of.setdefault(("equal_allocation", config_index), len(slot_of)),
            )
        else:
            solver = mods.get("solver", spec.solver)
            reads = (slot_of.setdefault((solver, config_index), len(slot_of)), None)
        metrics.append((metric, METRIC_UNITS[base], _EXTRACT[base], *reads))
    return configs, list(slot_of), metrics


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate every (swept value, seed, metric) cell of the sweep.

    Each (swept value, seed) draws its scenario once. One
    channel_model.stream_words call per swept value hashes the seed
    words of all its cells' substreams as one array, and each cell
    hands its rows to sample_scenario. A metric with a symbol_budget
    modifier gets the same links under its own config: the channel
    draws do not depend on the budgets. Each swept value resolves once
    which solve slot or slots each metric reads (_solve_slots), and
    each cell solves every slot once through run_solver, an infeasible
    one included: the slot then holds None, and every metric that reads
    it records None rather than aborting the sweep. A one-slot metric
    calls its extractor on its slot's report; only energy_saved_pct
    reads two. Values and metric names are iterated sorted, so rows
    come out in (swept_value, seed, metric) order whatever the spec's
    order, and serialization never depends on it.
    """
    name = spec.name
    rows = []
    for value in sorted(spec.values):
        if spec.swept_variable == "n_vehicles":
            n_vehicles = value
            cell_config = spec.base_config
        else:
            n_vehicles = spec.n_vehicles
            cell_config = dataclasses.replace(spec.base_config, symbol_budget=value)
        configs, slots, metrics = _solve_slots(spec, cell_config)
        seeds = [cell_seed(name, value, i) for i in range(spec.num_seeds)]
        words = channel_model.stream_words(seeds, n_vehicles)
        for seed_index, seed in enumerate(seeds):
            drawn = channel_model.sample_scenario(
                cell_config, n_vehicles, seed, streams=words[seed_index]
            )
            scenarios = [drawn]
            for config in configs[1:]:
                # the drawn links under another budget: n and the dense
                # ids hold, which is all Scenario.__post_init__ checks
                scenario = _new(Scenario)
                _set_config(scenario, config)
                _set_links(scenario, drawn.links)
                _set_seed(scenario, seed)
                scenarios.append(scenario)
            solved = []
            for solver, config_index in slots:
                try:
                    solved.append(run_solver(solver, scenarios[config_index]))
                except InfeasibleError:
                    # None, not the error: its traceback would keep the
                    # solver's frames alive until the next cell
                    solved.append(None)
            for metric, units, extract, slot, second in metrics:
                report = solved[slot]
                if report is None:
                    metric_value = None
                elif second is None:
                    metric_value = extract(report)
                else:
                    other = solved[second]
                    metric_value = None if other is None else extract(report, other)
                # ResultRow's finite test; its constructor raises its message
                if not (metric_value is None or -math.inf < metric_value < math.inf):
                    rows.append(
                        ResultRow(name, value, seed_index, metric, metric_value, units)
                    )
                    continue
                row = _new(ResultRow)
                _set_sweep_name(row, name)
                _set_swept_value(row, value)
                _set_seed_index(row, seed_index)
                _set_metric_name(row, metric)
                _set_metric_value(row, metric_value)
                _set_units(row, units)
                rows.append(row)
    return rows


def _float_sqrt_of_frac(numerator: int, denominator: int) -> float:
    """Square root of numerator / denominator >= 0, correctly rounded.

    The fraction is scaled by a power of four to at least 2^108, so its
    integer root has at least 55 bits. That root is rounded to odd (its
    last bit set when the root is inexact), so the one rounding to float
    that follows is correct: the step of Python 3.11's
    statistics._float_sqrt_of_frac.
    """
    shift = (numerator.bit_length() - denominator.bit_length() - 109) // 2
    if shift >= 0:
        denominator <<= 2 * shift
    else:
        numerator <<= -2 * shift
    root = math.isqrt(numerator // denominator)
    root |= root * root * denominator != numerator
    if shift >= 0:
        return float(root << shift)
    return root / (1 << -shift)


def _sample_stdev(values: list[float]) -> float:
    """Sample standard deviation of two or more floats: the correctly
    rounded square root of the exact sample variance.

    Each float is a/2^k with integer a, so over the largest such 2^k
    (D) every value is an integer a_i, and the variance is
    (N·Σa_i² − (Σa_i)²) / (N·(N − 1)·D²) in integers. On Python 3.11
    and later this is statistics.stdev bit for bit, which sums the same
    squares as Fractions; 3.10's stdev rounds twice.
    """
    ratios = [value.as_integer_ratio() for value in values]
    width = max([d for _, d in ratios]).bit_length()
    scaled = [n << (width - d.bit_length()) for n, d in ratios]
    total = sum(scaled)
    count = len(scaled)
    return _float_sqrt_of_frac(
        count * sum([a * a for a in scaled]) - total * total,
        (count * (count - 1)) << (2 * (width - 1)),
    )


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    """Mean and sample standard deviation per (swept_value, metric).

    Infeasible rows are excluded from the statistics and tallied
    separately; a cell with a single feasible row reports sd 0. The
    mean is statistics.fmean, the sd _sample_stdev.
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
            sd = _sample_stdev(feasible) if len(feasible) > 1 else 0.0
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
