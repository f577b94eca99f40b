"""The repository's benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload figures|solve_m200|all \
        --seed N --seconds T --trace 0|1 [--smoke]

Run it from the repository root. Each workload runs in fresh
single-threaded processes (worker.py), one process at a time. With
``--trace 0`` a run prints every end-to-end metric of BENCHMARK.json:
each timing is the median over the run's rounds, at a reference host
speed (see worker.py), and ``setup_s`` the
median over every process of the run of the time from process start to
inputs built. ``figures`` runs one pass of the five presets per process,
so that every preset is timed on its first run in a process. With
``--trace 1`` it runs the workload's fixed work once untraced and once
traced, each in a fresh process, and prints the per-layer metrics and
the tracing overhead. ``all`` runs every workload, in an order that
alternates with the seed. ``--smoke`` shrinks every workload to a few
seeds and requests.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("figures", "solve_m200")
SETUP_PROCESSES = 4  # set-up-only processes; each measuring process adds its own set-up time
CHILD_TIMEOUT_S = 170
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str, smoke: bool,
               round_index: int = 0) -> dict:
    """Run worker.py once; returns its JSON result plus ``setup_s`` when
    the worker reports when its inputs were ready."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--round", str(round_index)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **SINGLE_THREADED)
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if "ready" in result:
        result["setup_s"] = (result["ready"] - started) * result["setup_factor"]
    return result


def merge(results: list) -> dict:
    """One result from the processes of a run: counts and problems are
    summed, and a figure CSV whose hash differs between processes fails."""
    merged = {key: results[-1].get(key) for key in ("versions", "figure_infeasible")}
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["failed"] = sum(r["failed"] for r in results)
    merged["problems"] = [p for r in results for p in r["problems"]]
    merged["infeasible"] = {name: sum(r["infeasible"][name] for r in results)
                            for name in checks.SOLVERS}
    hashes: dict = {}
    for r in results:
        for fig, digest in r.get("figures", {}).items():
            hashes.setdefault(fig, set()).add(digest)
    merged["figures"] = {}
    for fig, seen in sorted(hashes.items()):
        if len(seen) > 1:
            merged["failed"] += 1
            merged["problems"].append(f"{fig}: CSV hash differs between runs of the same code")
        merged["figures"][fig] = sorted(seen)[0]
    return merged


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if trace:
        plain = run_worker(workload, seed, seconds, "untraced", smoke)
        traced = run_worker(workload, seed, seconds, "traced", smoke)
        result = merge([plain, traced])
        result["metrics"] = {**traced["metrics"],
                             "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
        result["trace_wall_s"] = {"untraced": plain["wall_s"], "traced": traced["wall_s"]}
        result["spans"] = traced["spans"]
        return result
    results = [run_worker(workload, seed, seconds, "setup", smoke)
               for _ in range(SETUP_PROCESSES)]
    measured = []
    if workload == "figures":
        # One pass per process; another starts only if the longest pass
        # so far still fits in ``seconds``.
        start, longest = time.monotonic(), 0.0
        while not measured or time.monotonic() - start + longest <= seconds:
            pass_start = time.monotonic()
            measured.append(run_worker(workload, seed, seconds, "measure", smoke, len(measured)))
            longest = max(longest, time.monotonic() - pass_start)
    else:
        measured.append(run_worker(workload, seed, seconds, "measure", smoke))
    result = merge(results + measured)
    reference = next(m["reference"] for m in measured if "reference" in m)
    result["metrics"] = {
        **{name: statistics.median(v for m in measured for v in m["samples"][name])
           for name in measured[0]["samples"]},
        **reference,
        "setup_s": statistics.median(r["setup_s"] for r in results + measured),
        "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m in measured),
    }
    result["rounds"] = sum(len(m["samples"]["joint_minmax.p50_ms"]) for m in measured)
    result["host_loop_ms"] = {
        "median": 1e3 * statistics.median(t for m in measured for t in m["host_loop_s"]),
        "reference": 1e3 * measured[0]["host_loop_reference_s"],
    }
    return result


def report(workload: str, result: dict, entries: list) -> None:
    """Human-readable lines: each metric with its unit and direction,
    the figure hashes against the seed's, and any failure."""
    versions = result["versions"]
    print(f"== {workload}: python {versions['python']}, numpy {versions['numpy']}, "
          f"scipy {versions['scipy']}, nproc {os.cpu_count()}")
    for entry in entries:
        value = result["metrics"][entry["name"]]
        print(f"  {entry['name']:<52} {value:>14.6g} {entry['unit']:<6} ({entry['better']} is better)")
    for fig, digest in result["figures"].items():
        seed_prefix = checks.FIGURES[int(fig.removeprefix("fig"))][2]
        verdict = "matches the seed" if digest.startswith(seed_prefix) else (
            f"DIFFERS from the seed's {seed_prefix}")
        print(f"  {fig} csv sha256 {digest[:12]} {verdict}")
    if result["figure_infeasible"]:
        print("  infeasible figure rows: " + ", ".join(
            f"fig{fig} {count}" for fig, count in sorted(result["figure_infeasible"].items())))
    print("  infeasible answers: " + ", ".join(
        f"{name} {count}" for name, count in result["infeasible"].items()))
    for key in ("rounds", "spans", "trace_wall_s"):
        if key in result:
            print(f"  {key}: {result[key]}")
    if "host_loop_ms" in result:
        loop = result["host_loop_ms"]
        print(f"  host loop: median {loop['median']:.3f} ms, reference {loop['reference']:.3f} ms;"
              " the times above are at the reference speed, the measured ones are longer by"
              " the ratio")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and
    # waits for the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "elid_urllc" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'elid_urllc'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        workloads = WORKLOADS if args.seed % 2 == 0 else WORKLOADS[::-1]
    elif args.workload in WORKLOADS:
        workloads = [args.workload]
    else:
        parser.error(f"--workload must be one of {WORKLOADS} or all")
    entries = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in entries}

    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if set(result["metrics"]) != set(units):
            print(f"error: {workload} reported metrics {sorted(set(result['metrics']) ^ set(units))} "
                  "that differ from BENCHMARK.json", file=sys.stderr)
            return 1
        report(workload, result, entries)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
