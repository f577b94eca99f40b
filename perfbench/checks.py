"""Output checks that the benchmark runs on everything the program returns.

Nothing here relies on the package's own ``assert`` statements, which
vanish under ``python -O``: margins are recomputed in this file from the
powers, blocklengths and gains with the UNIT-mode formula

    g = sqrt(m) * (ln(1 + p*h) - ln(2) * D / m)

and every budget is checked against the scenario's config. The figure
CSVs are checked for layout only; their hashes are compared with the
seed's and reported, because an intended solver change moves them.
"""

from __future__ import annotations

import hashlib
import math
from statistics import NormalDist

LN2 = math.log(2.0)

ENERGY_SOLVERS = ("symbol_sharing", "equal_allocation")
MINMAX_SOLVERS = ("joint_minmax", "power_minmax_fixed_m", "symbols_minmax_fixed_p")
SOLVERS = MINMAX_SOLVERS + ENERGY_SOLVERS

# Tolerances: margins are recomputed with the same formula, so only
# rounding separates them; the energy budget tolerance is the package's.
_MARGIN_TOL = 1e-9
_ENERGY_REL_TOL = 1e-12
_BUDGET_SLACK = 1e-9

CSV_HEADER = "sweep,swept_value,seed,metric,value,units"

# figure id -> (number of swept values, {metric: units}, seed sha256 prefix)
FIGURES = {
    4: (10, {"max_blocklength": "symbols", "min_blocklength": "symbols"}, "048dbe07407e"),
    5: (10, {"max_power": "watts", "min_power": "watts"}, "a34374ab5dfa"),
    6: (
        10,
        {
            "worst_eps_log10[solver=power_minmax_fixed_m]": "log10(eps)",
            "worst_eps_log10[solver=symbols_minmax_fixed_p]": "log10(eps)",
        },
        "074cc443eede",
    ),
    7: (
        10,
        {
            "total_energy[symbol_budget=200]": "joules",
            "total_energy[symbol_budget=1000]": "joules",
        },
        "862a9aa2283c",
    ),
    8: (5, {"energy_saved_pct": "percent"}, "611ea8da1afd"),
}


def margins(scenario, powers, blocklengths) -> list[float]:
    """UNIT-mode reliability margin of every link, recomputed here."""
    d = scenario.config.payload_bits
    return [
        math.sqrt(m) * (math.log1p(p * link.norm_gain) - LN2 * d / m)
        for link, p, m in zip(scenario.links, powers, blocklengths)
    ]


def target_margin(target_eps: float) -> float:
    """The margin g with Q(g) = target_eps."""
    return -NormalDist().inv_cdf(target_eps)


def check_answer(solver: str, scenario, allocation, total_energy: float,
                 worst_g: float | None = None) -> list[str]:
    """Every way an allocation and its reported energy (and worst margin,
    when the solver reports one) break the problem's constraints."""
    cfg = scenario.config
    n = scenario.n_vehicles
    powers = allocation.powers
    ms = allocation.blocklengths
    if len(powers) != n or len(ms) != n:
        return [f"{len(powers)} powers and {len(ms)} blocklengths for {n} vehicles"]
    problems = []
    if any(not isinstance(m, int) or m < 1 for m in ms):
        problems.append(f"blocklengths not integers >= 1: {ms}")
        return problems
    if sum(ms) > cfg.symbol_budget:
        problems.append(f"blocklengths sum to {sum(ms)} > M={cfg.symbol_budget}")
    if any(not (math.isfinite(p) and p >= 0.0) for p in powers):
        problems.append(f"powers not finite and >= 0: {powers}")
        return problems
    energy = math.fsum(p * m for p, m in zip(powers, ms))
    if not math.isclose(total_energy, energy, rel_tol=_ENERGY_REL_TOL):
        problems.append(f"total_energy {total_energy!r} != sum p*m {energy!r}")
    g = margins(scenario, powers, ms)
    worst = min(g)
    if worst_g is not None and abs(worst_g - worst) > _MARGIN_TOL * max(1.0, abs(worst)):
        problems.append(f"worst margin {worst_g!r} != recomputed {worst!r}")
    if solver in ENERGY_SOLVERS:
        g_target = target_margin(cfg.target_eps)
        if worst < g_target - _MARGIN_TOL * max(1.0, abs(g_target)):
            problems.append(f"margin {worst!r} misses the target {g_target!r}")
    else:
        if energy > cfg.energy_budget * (1.0 + _BUDGET_SLACK):
            problems.append(f"energy {energy!r} J over the budget {cfg.energy_budget!r} J")
    return problems


class Tally:
    """Counts solver answers; a violation or an unexpected exception is a
    failed operation, an InfeasibleError is a valid answer."""

    def __init__(self, infeasible_error):
        self.infeasible_error = infeasible_error
        self.attempted = 0
        self.failed = 0
        self.infeasible = {name: 0 for name in SOLVERS}
        self.figure_infeasible: dict[int, int] = {}
        self.problems: list[str] = []

    def record(self, solver: str, scenario, outcome) -> list[float] | None:
        """Check one answer: a SolveReport, the ``(allocation, total
        energy)`` pair of ``equal_allocation_energy``, or the exception a
        solver raised. Returns the recomputed margins of a valid
        allocation, else None."""
        self.attempted += 1
        if isinstance(outcome, self.infeasible_error):
            self.infeasible[solver] += 1
            return None
        if isinstance(outcome, BaseException):
            problems = [f"raised {type(outcome).__name__}: {outcome}"]
        else:
            if isinstance(outcome, tuple):
                (allocation, total_energy), worst_g = outcome, None
            else:
                allocation, total_energy = outcome.allocation, outcome.total_energy
                worst_g = outcome.worst_margin.g
            problems = check_answer(solver, scenario, allocation, total_energy, worst_g)
        if problems:
            self.fail(f"{solver} n={scenario.n_vehicles} seed={scenario.seed} "
                      f"M={scenario.config.symbol_budget}: {problems[0]}")
            return None
        return margins(scenario, allocation.powers, allocation.blocklengths)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(message)


def expected_rows(fig: int, num_seeds: int) -> int:
    """values x seeds x metrics of one preset."""
    n_values, units, _ = FIGURES[fig]
    return n_values * num_seeds * len(units)


def check_figure_csv(fig: int, text: str, num_seeds: int) -> tuple[list[str], int]:
    """Faults of one figure CSV and its number of infeasible rows.

    A fault in the header, the final newline or the row count spoils the
    whole file; any other fault names one row.
    """
    _, units, _ = FIGURES[fig]
    lines = text.split("\n")
    faults = []
    if lines[-1] != "":
        faults.append("missing final newline")
    if lines[0] != CSV_HEADER:
        faults.append(f"header {lines[0]!r}")
    rows = [line for line in lines[1:] if line]
    if len(rows) != expected_rows(fig, num_seeds):
        faults.append(f"{len(rows)} rows, expected {expected_rows(fig, num_seeds)}")
    infeasible = 0
    for row in rows:
        fields = row.split(",")
        if len(fields) != 6 or fields[0] != f"fig{fig}" or units.get(fields[3]) != fields[5]:
            faults.append(f"row {row!r}: wrong layout, sweep, metric or units")
        elif fields[4] == "infeasible":
            infeasible += 1
        elif not _is_finite(fields[4]):
            faults.append(f"row {row!r}: value neither finite nor infeasible")
    return faults, infeasible


def _is_finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
