"""One process of a workload; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T \
        --mode setup|measure|untraced|traced [--round K] [--smoke]

``setup`` imports the package and builds the first requests, then
exits. ``measure`` on ``solve_m200`` times rounds of fresh requests until
``--seconds`` pass; on ``figures`` it times one pass of the five presets,
the first run of each in this process, then PROBE_ROUNDS rounds of the
scheduler probe. ``untraced`` and ``traced`` run the workload's fixed work once,
without and with tracing. The last line of stdout is one JSON object.

Every loop is closed with a single caller: the next operation starts
when the previous one returns. No input is solved twice in a timed
loop, so a cache kept across calls shows only where a user would see it.

Every time is reported at a reference host speed. The host's speed
drifts by up to half for seconds to minutes, moving every timing
together, so the worker times a fixed loop of its own between solves and
scales each round's times by the loop's reference time over its median
time in that round.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from elid_urllc import channel_model, cli, experiments  # noqa: E402
from elid_urllc.exceptions import InfeasibleError  # noqa: E402

WORK = HERE / ".work"

# A round is 100 requests, so each solver's p90 has ten solves beyond it.
# The reference block is the same for every seed, so energy_j and worst_g
# (means over it) compare like with like across runs and commits. The
# M=1000 block is solved and checked untimed: no figure calls
# joint_minmax, so it is the only check of every solver at a large budget.
PROBE_ROUNDS = 4  # scheduler rounds per figures pass
FULL = {"requests": 100, "reference": 50, "check_m1000": 20, "figure_seeds": None}
SMOKE = {"requests": 10, "reference": 5, "check_m1000": 3, "figure_seeds": 2}

# Wall time of host_loop on a fast state of the 2-core virtual machine
# the benchmark was tuned on; times are reported at this speed.
HOST_LOOP_REFERENCE_S = 0.008
SPEED_EVERY = 10  # requests between two timings of host_loop

WORKLOADS = ("figures", "solve_m200")
BUDGET = 200  # symbol budget of the scheduler's requests
FIGS = tuple(checks.FIGURES)

# Layer functions each workload is known to call; the traced run fails
# if one of them records no call.
KNOWN_CALLED = {
    "figures": [label for label in tracing.TRACED if label != "allocators.solve_joint_minmax"],
    "solve_m200": tracing.COUNTED,
}

# experiments' name for each solver function a sweep calls -> checks' name
SWEEP_SOLVERS = {
    "solve_joint_minmax": "joint_minmax",
    "solve_power_minmax_fixed_m": "power_minmax_fixed_m",
    "solve_symbols_minmax_fixed_p": "symbols_minmax_fixed_p",
    "symbol_sharing": "symbol_sharing",
    "equal_allocation_energy": "equal_allocation",
}


def request_seed(tag: str, index: int) -> int:
    digest = hashlib.blake2b(f"perfbench|{tag}|{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def draw_requests(budget: int, tag: str, count: int) -> list:
    """``count`` scenarios at ``symbol_budget=budget`` drawn from ``tag``;
    vehicle counts cycle 1..10."""
    config = channel_model.SystemConfig(symbol_budget=budget)
    return [channel_model.sample_scenario(config, i % 10 + 1, request_seed(tag, i))
            for i in range(count)]


def host_loop() -> float:
    """Wall time of a fixed loop that calls nothing of the package: a
    sample of the host's speed at this moment. It mixes what the package
    spends its time on, float math, small Python objects and small numpy
    arrays, which together follow the package's drift better than any
    one of them alone."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(1, 15001):
        total += math.sqrt(i) * math.log1p(i * 1e-3)
    sums: dict = {}
    for a, b, c in sorted((i % 97, i * 0.5, str(i % 13)) for i in range(5000)):
        sums[c] = sums.get(c, 0.0) + a * b
    gains = numpy.linspace(0.1, 1.0, 10)
    for i in range(600):
        scaled = gains * (1.0 + i * 1e-4)
        total += float(numpy.log1p(scaled).sum()) + int(numpy.argmax(scaled))
    return time.perf_counter() - t0


def speed_factor(loops: list) -> float:
    """Turns a time measured alongside the ``host_loop`` timings ``loops``
    into a time at the reference speed."""
    return HOST_LOOP_REFERENCE_S / statistics.median(loops)


def solve_round(requests: list, tally, loops: list | None = None,
                answers: dict | None = None) -> dict:
    """Solves every request with all five solvers, interleaved, in an
    order that alternates per request, and checks every answer. Returns
    each solver's solve times; an InfeasibleError is timed like any
    other answer. Appends to ``loops`` a timing of ``host_loop`` every
    SPEED_EVERY requests and at the end, and to ``answers[solver]`` each
    answer as (report, recomputed margins), margins None where there is
    no valid allocation. A timed round keeps no answer, so that its peak
    RSS is the solvers' own."""
    clock = time.perf_counter
    times = {name: [] for name in checks.SOLVERS}
    for i, scenario in enumerate(requests):
        if loops is not None and i % SPEED_EVERY == 0:
            loops.append(host_loop())
        for name in checks.SOLVERS if i % 2 == 0 else checks.SOLVERS[::-1]:
            t0 = clock()
            try:
                outcome = experiments.run_solver(name, scenario)
            except Exception as exc:  # counted as a failed answer by the tally
                outcome = exc
            times[name].append(clock() - t0)
            margins = tally.record(name, scenario, outcome)
            if answers is not None:
                answers[name].append((outcome, margins))
    if loops is not None:
        loops.append(host_loop())
    return times


def round_metrics(times: dict, loops: list) -> dict:
    """Each solver's p50 and p90 over one round, and requests per second,
    at the reference speed."""
    factor = speed_factor(loops)
    out = {}
    for name, samples in times.items():
        out[f"{name}.p50_ms"] = 1e3 * factor * statistics.median(samples)
        out[f"{name}.p90_ms"] = 1e3 * factor * statistics.quantiles(
            samples, n=10, method="inclusive")[8]
    requests = len(times[checks.SOLVERS[0]])
    out["cells_per_s"] = requests / (factor * sum(sum(samples) for samples in times.values()))
    return out


def reference_metrics(sizes: dict, tally) -> dict:
    """energy_j and worst_g over the fixed reference block, solved untimed."""
    answers: dict = {name: [] for name in checks.SOLVERS}
    solve_round(draw_requests(BUDGET, "reference", sizes["reference"]), tally, answers=answers)
    return {
        "energy_j": statistics.fmean(
            report.total_energy for report, g in answers["symbol_sharing"] if g is not None),
        "worst_g": statistics.fmean(
            min(g) for _, g in answers["joint_minmax"] if g is not None),
    }


def check_large_budget(sizes: dict, tally) -> None:
    solve_round(draw_requests(1000, "check_m1000", sizes["check_m1000"]), tally)


def check_sweep_answers(tally) -> None:
    """Checks every answer a figure sweep's solvers return, as it returns.

    It rebinds the solver names ``experiments`` looks up, which is where
    the sweeps find them. A check takes about 10 microseconds against the
    milliseconds of a solve, about 1 % of a figure's time, and keeps
    nothing, so it adds nothing to the peak RSS.
    """
    for binding, solver in SWEEP_SOLVERS.items():
        setattr(experiments, binding, _checked(solver, getattr(experiments, binding), tally))


def _checked(solver: str, fn, tally):
    def checked(scenario, *args):
        try:
            outcome = fn(scenario, *args)
        except Exception as exc:
            tally.record(solver, scenario, exc)
            raise
        tally.record(solver, scenario, outcome)
        return outcome

    return checked


def run_figure(fig: int, figure_seeds: int | None, tally, hashes: dict) -> float:
    """One preset through ``cli.main`` (CSV to a file, stdout captured);
    checks the CSV and every solver answer, records the CSV's hash and
    returns the wall time of ``cli.main``."""
    path = WORK / f"fig{fig}.csv"
    argv = ["figure", str(fig), "--out", str(path)]
    if figure_seeds is not None:
        argv += ["--seeds", str(figure_seeds)]
    captured = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
    except Exception as exc:  # counted as failed rows below
        code, error = None, exc
    elapsed = time.perf_counter() - t0
    seeds = figure_seeds or 100
    rows = checks.expected_rows(fig, seeds)
    tally.attempted += rows
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    path.unlink(missing_ok=True)
    faults, infeasible = checks.check_figure_csv(fig, text, seeds) if text else (["no CSV"], 0)
    if code != 0:
        faults.insert(0, f"raised {error!r}" if error else f"exit code {code}")
    if faults:
        tally.fail(f"fig{fig}: {faults[0]}", count=rows)
    tally.figure_infeasible[fig] = infeasible
    hashes[f"fig{fig}"] = checks.sha256(text)
    return elapsed


def round_requests(seed: int, index: int, sizes: dict) -> list:
    return draw_requests(BUDGET, f"seed={seed}|round={index}", sizes["requests"])


def timed_round(requests: list, tally, samples: dict, host: list) -> None:
    """One round of ``solve_round``; appends each of its metrics to
    ``samples`` and its median ``host_loop`` time to ``host``."""
    loops: list = []
    times = solve_round(requests, tally, loops)
    for name, value in round_metrics(times, loops).items():
        samples.setdefault(name, []).append(value)
    host.append(statistics.median(loops))


def figure_pass(seed: int, index: int, sizes: dict, first: list, tally, result: dict,
                samples: dict, host: list) -> None:
    """The five presets in a seed-rotated order, each timed on its first
    run in this process, then PROBE_ROUNDS rounds of the scheduler probe
    (rounds ``index * PROBE_ROUNDS`` on, the first of them ``first``).
    The presets never call joint_minmax; the probe gives every solver
    metric a value on this workload."""
    check_sweep_answers(tally)
    start = (seed + index) % len(FIGS)
    hashes: dict = {}
    # each preset's time is scaled by the host_loop timings on either side
    loops = [host_loop()]
    scaled = 0.0
    for fig in FIGS[start:] + FIGS[:start]:
        wall = run_figure(fig, sizes["figure_seeds"], tally, hashes)
        loops.append(host_loop())
        scaled += speed_factor(loops[-2:]) * wall
    result["figures"] = hashes
    host.append(statistics.median(loops))
    probe: dict = {}
    for k in range(PROBE_ROUNDS):
        requests = first if k == 0 else round_requests(seed, index * PROBE_ROUNDS + k, sizes)
        timed_round(requests, tally, probe, host)
    del probe["cells_per_s"]  # requests per second; here it is sweep cells per second
    cells = sum(checks.FIGURES[fig][0] * (sizes["figure_seeds"] or 100) for fig in FIGS)
    samples.update(probe, cells_per_s=[cells / scaled])


def solve_rounds(seed: int, seconds: float, first: list, sizes: dict, tally,
                 samples: dict, host: list) -> None:
    """Rounds of fresh requests until ``seconds`` pass, the first of them
    ``first``: a round starts only if the longest one so far still fits."""
    deadline = time.perf_counter() + seconds
    rounds, longest, requests = 0, 0.0, first
    while not rounds or time.perf_counter() + longest < deadline:
        start = time.perf_counter()
        timed_round(requests or round_requests(seed, rounds, sizes), tally, samples, host)
        rounds += 1
        requests = None
        longest = max(longest, time.perf_counter() - start)


def fixed_work(workload: str, sizes: dict, tally, result: dict) -> float:
    """The work of a traced run, done once; returns its wall time.
    ``figures``: one pass of the five presets. ``solve_m200``: building
    and solving the reference block and the M=1000 check block."""
    start = time.perf_counter()
    if workload == "figures":
        check_sweep_answers(tally)
        hashes: dict = {}
        for fig in FIGS:
            run_figure(fig, sizes["figure_seeds"], tally, hashes)
        result["figures"] = hashes
    else:
        reference_metrics(sizes, tally)
        check_large_budget(sizes, tally)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "untraced", "traced"),
                        required=True)
    parser.add_argument("--round", type=int, default=0, help="index of a figures pass")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not Path(channel_model.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported elid_urllc from {channel_model.__file__}, not {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    sizes = SMOKE if args.smoke else FULL

    tally = checks.Tally(InfeasibleError)
    result: dict = {
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.mode in ("setup", "measure"):
        first = round_requests(args.seed, args.round * PROBE_ROUNDS, sizes)
        result["ready"] = time.monotonic()
        # set-up is timed by run.py; it scales it by this factor
        result["setup_factor"] = speed_factor([host_loop() for _ in range(3)])
        if args.mode == "measure":
            # each metric's value in every round, and each round's median
            # host_loop time
            result["samples"], result["host_loop_s"] = {}, []
            result["host_loop_reference_s"] = HOST_LOOP_REFERENCE_S
            if args.workload == "figures":
                figure_pass(args.seed, args.round, sizes, first, tally, result,
                            result["samples"], result["host_loop_s"])
            else:
                solve_rounds(args.seed, args.seconds, first, sizes, tally,
                             result["samples"], result["host_loop_s"])
            # before the untimed blocks, whose M=1000 solves would set it
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.workload == "solve_m200" or args.round == 0:
                result["reference"] = reference_metrics(sizes, tally)
            if args.workload == "solve_m200":
                check_large_budget(sizes, tally)
    else:
        tracer = tracing.Tracer(InfeasibleError)
        if args.mode == "traced":
            tracer.install()
        loops = [host_loop() for _ in range(3)]
        wall = fixed_work(args.workload, sizes, tally, result)
        loops += [host_loop() for _ in range(3)]
        result["wall_s"] = speed_factor(loops) * wall  # at the reference speed
    if args.mode == "traced":
        counts = tracer.counts()
        for label in KNOWN_CALLED[args.workload]:
            if counts[label] == 0:
                tally.fail(f"traced run saw no call of {label}")
        tracer.dump(WORK / f"spans-{args.workload}.npz")
        result["spans"] = len(tracer.start)
        result["metrics"] = tracer.metrics()
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        infeasible=tally.infeasible,
        figure_infeasible=tally.figure_infeasible,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
