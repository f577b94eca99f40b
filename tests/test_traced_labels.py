"""Every function the benchmark's tracer wraps exists, and a solve
request calls each one it counts.

perfbench/tracing.py names the functions it traces as "module.function"
in its TRACED tuple and looks each one up when a traced run starts, so a
renamed or deleted function would only fail there. A traced solve_m200
run also fails when one of its COUNTED labels records no call. These
tests read both names from the file, without importing the benchmark:
the first looks each label up in the package, the second wraps each
counted one as the tracer does and requires a call of it from one
request per solver.
"""

import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

from elid_urllc import channel_model, experiments, fbl_core
from elid_urllc.channel_model import SystemConfig
from elid_urllc.exceptions import InfeasibleError

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _assigned(tree, name):
    """The value expression of the module-level assignment to name."""
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == [name]
    ]
    return value


def _traced_labels():
    return ast.literal_eval(_assigned(ast.parse(TRACING.read_text()), "TRACED"))


def _counted_labels():
    """COUNTED, an expression over TRACED, evaluated with TRACED only in
    scope."""
    expression = ast.Expression(_assigned(ast.parse(TRACING.read_text()), "COUNTED"))
    code = compile(expression, str(TRACING), "eval")
    return eval(code, {"__builtins__": {}, "TRACED": _traced_labels()})


def test_every_traced_label_names_a_package_function():
    labels = _traced_labels()
    assert len(labels) >= 10 and len(set(labels)) == len(labels)
    missing = []
    for label in labels:
        module_name, attr = label.split(".")
        module = importlib.import_module(f"elid_urllc.{module_name}")
        function = getattr(module, attr, None)
        if not (inspect.isfunction(function) and function.__module__ == module.__name__):
            missing.append(label)
    assert missing == []


def test_one_request_per_solver_calls_every_counted_label(monkeypatch):
    # what a traced solve_m200 run checks: each counted label records a
    # call. Like the tracer, wrap each function under every package name
    # bound to it, so a solver's call through an imported name counts.
    labels = _counted_labels()
    assert "fbl_core.reliability_margin" in labels and "experiments.run_solver" in labels
    modules = [module for name, module in sys.modules.items()
               if name == "elid_urllc" or name.startswith("elid_urllc.")]
    calls = Counter()

    def counted(label, function):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return function(*args, **kwargs)

        return wrapper

    for label in labels:
        module_name, attr = label.split(".")
        original = getattr(importlib.import_module(f"elid_urllc.{module_name}"), attr)
        wrapper = counted(label, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    # a traced run starts in a fresh process, where min_blocklength builds
    # its c_0 table from min_power_for_target
    fbl_core._neg_min_energy_gains.cache_clear()

    config = SystemConfig(symbol_budget=200)
    for n, solver in enumerate(experiments.SOLVER_NAMES, start=2):
        scenario = channel_model.sample_scenario(config, n, seed=n)
        try:
            experiments.run_solver(solver, scenario)
        except InfeasibleError:
            pass
    assert [label for label in labels if calls[label] == 0] == []

