"""Command-line front end: solves, sweeps, figure presets, oracle checks.

Exit codes are a stable contract: 0 success, 1 usage or internal error,
2 infeasible problem instance.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import typing

import numpy as np

from .allocators import SolveReport
from .channel_model import Scenario, SystemConfig, _check_seed, sample_scenario
from .exceptions import ConfigError, InfeasibleError
from .experiments import (
    FIGURE_PRESETS,
    SOLVER_NAMES,
    SWEPT_VARIABLES,
    SweepSpec,
    run_solver,
    run_sweep,
    summarize,
    write_csv,
)
from .fbl_core import min_power_for_target

_CONFIG_TYPES = typing.get_type_hints(SystemConfig)


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors, which collides with
    the infeasible exit code, so remap usage errors to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _coerce_config_value(key: str, raw: str, where: str):
    """Parse raw as the key's annotated type; an optional key (X | None)
    also takes "none"."""
    if key not in _CONFIG_TYPES:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    kinds = typing.get_args(_CONFIG_TYPES[key]) or (_CONFIG_TYPES[key],)
    if type(None) in kinds and raw.lower() == "none":
        return None
    try:
        return kinds[0](raw)
    except ValueError:
        raise ConfigError(f"{where}: could not parse {key}={raw!r}") from None


def _read_config_file(path: str) -> dict:
    """Flat key=value lines; # starts a comment; blank lines ignored.
    Maps each key to (value, "path:lineno")."""
    fields: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            key, sep, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or not key:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            if key in fields:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            where = f"{path}:{lineno}"
            fields[key] = (_coerce_config_value(key, raw, where), where)
    return fields


def _load_config(args) -> SystemConfig:
    """Config precedence: built-in defaults < file < --set overrides. Each
    given key is checked on its own, over the defaults, so a value out of
    range is reported with where it was set. The noise power reads two
    fields (noise_psd_dbm_hz and bandwidth); a pair that is in range
    alone but not together fails when the whole config is built."""
    fields: dict = {}
    if args.config is not None:
        fields.update(_read_config_file(args.config))
    for item in args.set or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        where = f"--set {item!r}"
        fields[key.strip()] = (_coerce_config_value(key.strip(), raw.strip(), where), where)
    for key, (value, where) in fields.items():
        try:
            SystemConfig(**{key: value})
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return SystemConfig(**{key: value for key, (value, _) in fields.items()})


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _machine_report_lines(report: SolveReport, scenario: Scenario, seed: int):
    allocation = report.allocation
    return [
        f"solver_name={report.solver_name}",
        f"seed={seed}",
        f"n_vehicles={scenario.n_vehicles}",
        f"converged={'true' if report.converged else 'false'}",
        f"iterations={report.iterations}",
        f"total_energy={report.total_energy!r}",
        f"worst_margin_g={report.worst_margin.g!r}",
        f"worst_margin_eps_log10={report.worst_margin.eps_log10!r}",
        "blocklengths=" + ",".join(str(m) for m in allocation.blocklengths),
        "powers=" + ",".join(repr(p) for p in allocation.powers),
        "margins_g=" + ",".join(repr(m.g) for m in report.margins),
        "clamped=" + ",".join(str(i) for i in report.clamped),
    ]


def cmd_solve(args) -> int:
    config = _load_config(args)
    scenario = sample_scenario(config, args.n, args.seed)
    report = run_solver(args.solver, scenario)
    state = "converged" if report.converged else "stopped early"
    print(
        f"{report.solver_name}: {state} after {report.iterations} iterations, "
        f"{scenario.n_vehicles} vehicle(s), seed {args.seed}"
    )
    print(
        f"total energy {report.total_energy:.6g} J, worst margin "
        f"g={report.worst_margin.g:.6g} (log10 eps {report.worst_margin.eps_log10:.6g})"
    )
    print("vehicle  blocklength  power_W       margin_g      log10_eps")
    for i, (m, p, margin) in enumerate(
        zip(report.allocation.blocklengths, report.allocation.powers, report.margins)
    ):
        flag = "  [zero-power]" if i in report.clamped else ""
        print(f"{i:7d}  {m:11d}  {p:<12.6g}  {margin.g:<12.6g}  {margin.eps_log10:<12.6g}{flag}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(_machine_report_lines(report, scenario, args.seed)) + "\n")
    print(f"wrote {args.out}")
    return 0


def _print_summary(rows) -> None:
    print("swept_value  metric                                    mean          sd  count  infeasible")
    for s in summarize(rows):
        mean = "-" if s.mean is None else f"{s.mean:.6g}"
        sd = "-" if s.sd is None else f"{s.sd:.3g}"
        print(
            f"{s.swept_value:11d}  {s.metric_name:<40s}  {mean:>10s}  {sd:>8s}  "
            f"{s.count:5d}  {s.infeasible_count:10d}"
        )


def _write_sweep(spec: SweepSpec, out: str) -> int:
    """Run the sweep, write its CSV to out and print its summary."""
    rows = run_sweep(spec)
    write_csv(rows, out)
    _print_summary(rows)
    print(f"wrote {out}")
    return 0


def cmd_sweep(args) -> int:
    if args.n is not None and args.swept == "n_vehicles":
        raise ConfigError("--n sets the vehicle count of symbol_budget sweeps; "
                          "with --swept n_vehicles the count comes from --values")
    spec = SweepSpec(
        name=args.name,
        base_config=_load_config(args),
        swept_variable=args.swept,
        values=args.values,
        solver=args.solver,
        outputs=tuple(args.metrics.split(",")),
        num_seeds=args.seeds,
        n_vehicles=5 if args.n is None else args.n,
    )
    return _write_sweep(spec, args.out)


def cmd_figure(args) -> int:
    preset = FIGURE_PRESETS[args.figure_id]
    spec = preset() if args.seeds is None else preset(num_seeds=args.seeds)
    out = args.out if args.out is not None else f"fig{args.figure_id}.csv"
    return _write_sweep(spec, out)


_FAILURE_DUMP = re.compile(r"failure_\d+\.txt")


def _clear_failure_dumps(out_dir: str) -> None:
    """Delete the failure_<k>.txt files an earlier run left in out_dir,
    and nothing else, so the directory holds only this run's failures."""
    try:
        names = os.listdir(out_dir)
    except FileNotFoundError:
        return
    for name in names:
        if _FAILURE_DUMP.fullmatch(name):
            os.remove(os.path.join(out_dir, name))


def _dump_failures(failures, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for k, failure in enumerate(failures):
        path = os.path.join(out_dir, f"failure_{k}.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for key, value in failure.items():
                handle.write(f"{key}={value}\n")


def cmd_oracle_check(args) -> int:
    """Randomized equivalence drills of the fast solvers against the
    exhaustive ones; any disagreement is dumped for replay."""
    # no solve or sweep needs the oracles, so only this command loads them
    from .oracles import brute_force_energy, brute_force_minmax

    if args.instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {args.instances}")
    for n in args.n_values:
        if not 1 <= n <= 3:
            raise ConfigError(f"--n-values entries must be in 1..3, got {n}")
    rng = np.random.default_rng(_check_seed(args.seed))
    _clear_failure_dumps(args.out)

    # each suite body drills one instance and returns whether it passed
    # plus the fields a failure dump records after the common ones
    def energy(n: int, seed: int):
        scenario = sample_scenario(SystemConfig(), n, seed)
        shared = run_solver("symbol_sharing", scenario).total_energy
        oracle = brute_force_energy(scenario).total_energy
        gap = shared / oracle - 1.0
        return -1e-12 <= gap <= 1e-9, {
            "shared_energy": repr(shared),
            "oracle_energy": repr(oracle),
            "relative_gap": repr(gap),
        }

    base = SystemConfig(symbol_budget=40, payload_bits=32)
    feasible_gain = 40 * min_power_for_target(1.0, 40, 32, 0.0)

    def minmax(n: int, seed: int):
        # the links do not depend on the energy budget, so the budget
        # drawn from them re-wraps the same links
        links = sample_scenario(base, n, seed).links
        h_min = min(link.norm_gain for link in links)
        budget = feasible_gain / h_min * 10.0 ** float(rng.uniform(0.3, 2.0))
        scenario = Scenario(dataclasses.replace(base, energy_budget=budget), links, seed)
        local = run_solver("joint_minmax", scenario).worst_margin.g
        oracle = brute_force_minmax(scenario).worst_margin.g
        gap = local - oracle
        return abs(gap) <= 1e-6, {
            "energy_budget": repr(budget),
            "local_margin": repr(local),
            "oracle_margin": repr(oracle),
            "margin_gap": repr(gap),
        }

    failures = []
    energy_total = args.instances // 2
    for suite, body, total in (
        ("energy", energy, energy_total),
        ("minmax", minmax, args.instances - energy_total),
    ):
        passed = 0
        for k in range(total):
            n = args.n_values[k % len(args.n_values)]
            seed = int(rng.integers(0, 2**63))
            ok, detail = body(n, seed)
            if ok:
                passed += 1
            else:
                failures.append(
                    {"suite": suite, "scenario_seed": seed, "n_vehicles": n, **detail}
                )
        print(f"{suite} oracle: {passed}/{total} passed")
    print(f"checked {args.instances} instances, {len(failures)} failure(s)")
    if failures:
        _dump_failures(failures, args.out)
        print(f"dumped failing instances to {args.out}/", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="elid-urllc", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config field (repeatable; wins over --config)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="solve one sampled scenario")
    p_solve.add_argument("--n", type=int, default=1, help="number of vehicles")
    p_solve.add_argument("--seed", type=int, default=0, help="scenario seed")
    p_solve.add_argument("--solver", choices=SOLVER_NAMES, default="symbol_sharing")
    p_solve.add_argument("--out", default="solve_report.txt", help="machine-readable report path")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a custom sweep")
    p_sweep.add_argument("--name", default="sweep")
    p_sweep.add_argument("--swept", choices=SWEPT_VARIABLES, default="n_vehicles")
    p_sweep.add_argument(
        "--values", type=_int_list, default=tuple(range(1, 11)), metavar="V1,V2,..."
    )
    p_sweep.add_argument("--solver", choices=SOLVER_NAMES, default="symbol_sharing")
    p_sweep.add_argument("--metrics", default="total_energy", metavar="M1,M2,...")
    p_sweep.add_argument("--seeds", type=int, default=100, help="seeds per swept value")
    p_sweep.add_argument(
        "--n", type=int, default=None,
        help="vehicle count for symbol_budget sweeps (default 5); "
        "rejected with --swept n_vehicles",
    )
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figure", help="run a preset figure sweep")
    p_fig.add_argument("figure_id", type=int, choices=sorted(FIGURE_PRESETS))
    p_fig.add_argument("--seeds", type=int, default=None, help="override preset seed count")
    p_fig.add_argument("--out", default=None, help="CSV path (default fig<N>.csv)")
    p_fig.set_defaults(func=cmd_figure)

    p_oracle = sub.add_parser(
        "oracle-check", help="cross-check fast solvers against brute force"
    )
    p_oracle.add_argument("--instances", type=int, default=200)
    p_oracle.add_argument("--n-values", type=_int_list, default=(1, 2, 3))
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--out", default="oracle_failures", help="dump dir on failure")
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        # MemoryError: a request too large to allocate, such as a symbol
        # budget whose tables would need exabytes
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
