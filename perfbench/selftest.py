"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

It feeds the output checks corrupted answers, directly and through a
figure sweep, and expects them counted as failed, runs every workload end to end at smoke size, untraced and
traced, and checks that run.py fails without printing a result in a
directory that holds only BENCHMARK.json and perfbench/. Exits 0 when
all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from elid_urllc import experiments  # noqa: E402
from elid_urllc.allocators import Allocation  # noqa: E402
from elid_urllc.channel_model import SystemConfig, sample_scenario  # noqa: E402
from elid_urllc.exceptions import InfeasibleError  # noqa: E402
from elid_urllc.experiments import (  # noqa: E402
    format_csv,
    preset_fig7,
    preset_fig8,
    run_solver,
    run_sweep,
)


def over_budget(scenario, report):
    """``report`` with its blocklengths summing to M+1."""
    ms = list(report.allocation.blocklengths)
    ms[0] += scenario.config.symbol_budget + 1 - sum(ms)
    return dataclasses.replace(report, allocation=Allocation(report.allocation.powers, tuple(ms)))


def test_checks_count_corrupted_answers() -> None:
    scenario = sample_scenario(SystemConfig(), 3, 11)
    tally = checks.Tally(InfeasibleError)
    for solver in checks.SOLVERS:
        report = run_solver(solver, scenario)
        assert tally.record(solver, scenario, report) is not None, tally.problems
    assert (tally.attempted, tally.failed) == (5, 0), tally.problems

    corrupted = over_budget(scenario, run_solver("symbol_sharing", scenario))
    assert tally.record("symbol_sharing", scenario, corrupted) is None
    assert (tally.attempted, tally.failed) == (6, 1), tally.problems
    assert "sum to" in tally.problems[-1]

    tally.record("joint_minmax", scenario, ValueError("unexpected"))
    tally.record("joint_minmax", scenario, InfeasibleError("budget"))
    assert (tally.attempted, tally.failed) == (8, 2)
    assert tally.infeasible["joint_minmax"] == 1


def test_checks_find_csv_faults() -> None:
    text = format_csv(run_sweep(preset_fig8(num_seeds=2)))
    assert checks.check_figure_csv(8, text, 2) == ([], 0)
    header, first, rest = text.split("\n", 2)
    not_finite = ",".join(first.split(",")[:4] + ["nan", "percent"])
    for broken in (
        text.replace("sweep,", "sweeps,", 1),
        text[: text.rindex("\n", 0, -1) + 1],  # one row short
        text.replace(",percent", ",joules", 1),
        "\n".join([header, not_finite, rest]),
    ):
        faults, _ = checks.check_figure_csv(8, broken, 2)
        assert faults, broken[:200]


def test_sweep_answers_are_checked() -> None:
    saved = {name: getattr(experiments, name) for name in worker.SWEEP_SOLVERS}
    try:
        experiments.symbol_sharing = lambda scenario: over_budget(
            scenario, saved["symbol_sharing"](scenario))
        tally = checks.Tally(InfeasibleError)
        worker.check_sweep_answers(tally)
        run_sweep(preset_fig7(num_seeds=2))  # symbol_sharing at M=200 and M=1000
    finally:
        for name, fn in saved.items():
            setattr(experiments, name, fn)
    assert tally.attempted == tally.failed == 40, (tally.attempted, tally.failed)
    assert any("M=1000" in problem for problem in tally.problems), tally.problems


def run_benchmark(cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_smoke_runs() -> None:
    for trace in ("0", "1"):
        proc = run_benchmark(ROOT, "--workload", "all", "--smoke", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout


def test_fails_without_the_program() -> None:
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run_benchmark(bare, "--workload", "solve_m200", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    tests = [test_checks_count_corrupted_answers, test_checks_find_csv_faults,
             test_sweep_answers_are_checked, test_smoke_runs, test_fails_without_the_program]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
