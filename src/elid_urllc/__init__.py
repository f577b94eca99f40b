"""Downlink resource allocation for short-packet URLLC from an elevated
roadside unit: finite-blocklength math, Rician link modeling, min-max and
energy-minimizing allocators, and a Monte Carlo sweep harness."""

from .allocators import (
    Allocation,
    SolveReport,
    equal_allocation_energy,
    min_energy_fixed_m,
    solve_joint_minmax,
    solve_power_minmax_fixed_m,
    solve_symbols_minmax_fixed_p,
    symbol_sharing,
)
from .channel_model import (
    Scenario,
    SystemConfig,
    VehicleLink,
    noise_power,
    path_loss_db,
    sample_scenario,
)
from .exceptions import ConfigError, InfeasibleError
from .experiments import (
    ResultRow,
    SummaryRow,
    SweepSpec,
    cell_seed,
    energy_saved_percent,
    format_csv,
    preset_fig4,
    preset_fig5,
    preset_fig6,
    preset_fig7,
    preset_fig8,
    run_solver,
    run_sweep,
    summarize,
    write_csv,
)
from .fbl_core import (
    DispersionMode,
    ReliabilityMargin,
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

__version__ = "0.1.0"
