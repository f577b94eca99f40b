"""Span tracing of the package's public functions, from outside.

``Tracer.install`` wraps each traced function and rebinds every name in
the package that refers to it: ``allocators`` imports the ``fbl_core``
functions by name, ``experiments`` and ``cli`` import the solvers by
name, so patching only the defining module would miss their calls.

Each call records one span (label, start, end, parent span) in flat
arrays kept in memory; ``dump`` writes them at the end. A span's self
time is its duration minus the time its direct children cover; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "elid_urllc"

# "module.function" of every traced function
TRACED = (
    "fbl_core.min_power_for_target",
    "fbl_core.reliability_margin",
    "fbl_core.min_blocklength",
    "channel_model.sample_scenario",
    "allocators.symbol_sharing",
    "allocators.solve_joint_minmax",
    "allocators.solve_power_minmax_fixed_m",
    "allocators.solve_symbols_minmax_fixed_p",
    "allocators.equal_allocation_energy",
    "allocators.min_energy_fixed_m",
    "experiments.run_sweep",
    "experiments.run_solver",
    "experiments.format_csv",
    "experiments.write_csv",
    "experiments.summarize",
    "cli.main",
)

SOLVER_LABELS = (
    "allocators.symbol_sharing",
    "allocators.solve_joint_minmax",
    "allocators.solve_power_minmax_fixed_m",
    "allocators.solve_symbols_minmax_fixed_p",
    "allocators.equal_allocation_energy",
)

FIGURE_SWEEPS = ("fig4", "fig5", "fig6", "fig7", "fig8")

# Labels reported with a call count and with a self time; the CSV
# functions are reported by total time instead. COUNTED is also every
# layer function a solve request calls.
COUNTED = [label for label in TRACED
           if label.split(".")[0] in ("fbl_core", "channel_model", "allocators")
           ] + ["experiments.run_solver"]
SELF_TIMED = COUNTED + ["experiments.run_sweep", "cli.main"]


class Tracer:
    """Spans and counts of the traced functions' calls."""

    def __init__(self, infeasible_error):
        self.infeasible_error = infeasible_error
        self.labels: list[str] = []
        self.label_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.infeasible: Counter = Counter()
        self.iterations: Counter = Counter()
        self.sweep_names: list[str] = []
        self.csv_bytes = 0
        # hash of (h, m, D, g) of every min_power_for_target call; numbers
        # hash the same in every process, and 64 bits make a collision
        # among a few million calls unlikely (about 1e-6)
        self.power_args = array("q")
        self.draws: set = set()
        self.scenario_calls = 0

    def wrap(self, label: str, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        label_of, parent, start, end, stack = (
            self.label_of, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter
        before, after = self._observers(label, fn)
        infeasible_error = self.infeasible_error

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(start)
            label_of.append(label_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except infeasible_error:
                self.infeasible[label] += 1
                raise
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _observers(self, label, fn):
        """Hooks that count what a span's duration cannot show."""
        if label == "fbl_core.min_power_for_target":
            signature = inspect.signature(fn)
            power_args = self.power_args

            def before(args, kwargs):
                if kwargs:
                    args = tuple(signature.bind(*args, **kwargs).arguments.values())
                power_args.append(hash(args))

            return before, None
        if label == "channel_model.sample_scenario":

            def after(args, scenario):
                self.scenario_calls += 1
                self.draws.add(tuple((l.distance, l.fading_power_gain) for l in scenario.links))

            return None, after
        if label == "allocators.equal_allocation_energy":
            # it returns no report; one closed-form solve is one iteration
            return None, lambda args, result: self.iterations.update({label: 1})
        if label in SOLVER_LABELS:
            return None, lambda args, report: self.iterations.update({label: report.iterations})
        if label == "experiments.run_sweep":
            return (lambda args, kwargs: self.sweep_names.append(args[0].name)), None
        if label == "experiments.format_csv":

            def after(args, text):
                self.csv_bytes += len(text.encode())

            return None, after
        return None, None

    def install(self) -> None:
        """Wrap every traced function and rebind each package name that
        refers to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for label in TRACED:
            module, attr = label.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            traced = self.wrap(label, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def _columns(self):
        label_of = np.frombuffer(self.label_of, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return label_of, parent, duration

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, by name."""
        label_of, parent, duration = self._columns()
        nested = parent >= 0
        n_labels = len(self.labels)
        calls = np.bincount(label_of, minlength=n_labels)
        total_s = np.bincount(label_of, weights=duration, minlength=n_labels)
        # each child's duration is taken from its parent's label
        children_s = np.bincount(label_of[parent[nested]], weights=duration[nested],
                                 minlength=n_labels)
        self_s = total_s - children_s
        by_label = {label: i for i, label in enumerate(self.labels)}

        out: dict[str, float] = {}
        for label in TRACED:
            i = by_label[label]
            if label in COUNTED:
                out[f"{label}.calls"] = int(calls[i])
            if label in SELF_TIMED:
                out[f"{label}.self_s"] = float(self_s[i])
        for label in SOLVER_LABELS:
            out[f"{label}.iterations"] = self.iterations[label]
            out[f"{label}.infeasible"] = self.infeasible[label]

        args = np.frombuffer(self.power_args, dtype=np.int64)
        out["fbl_core.min_power_for_target.distinct_ratio"] = (
            len(np.unique(args)) / max(1, len(args))
        )
        out["channel_model.sample_scenario.distinct_ratio"] = (
            len(self.draws) / max(1, self.scenario_calls)
        )

        sweep_i = by_label["experiments.run_sweep"]
        sweep_spans = np.flatnonzero(label_of == sweep_i)
        for name in FIGURE_SWEEPS:
            out[f"experiments.run_sweep.{name}_s"] = float(sum(
                duration[span] for span, swept in zip(sweep_spans, self.sweep_names)
                if swept == name
            ))
        for name in ("format_csv", "write_csv", "summarize"):
            out[f"experiments.{name}.s"] = float(total_s[by_label[f"experiments.{name}"]])
        out["experiments.csv_bytes"] = self.csv_bytes
        return out

    def counts(self) -> dict[str, int]:
        """Calls per traced label."""
        label_of, _, _ = self._columns()
        calls = np.bincount(label_of, minlength=len(self.labels))
        return {label: int(calls[i]) for i, label in enumerate(self.labels)}

    def dump(self, path) -> None:
        """Write every span: label index, start, end and parent index."""
        np.savez(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.label_of, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.intc),
        )
