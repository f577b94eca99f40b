"""Every function the benchmark's tracer wraps exists in the package.

perfbench/tracing.py names the functions it traces as "module.function"
in its TRACED tuple and looks each one up when a traced run starts, so a
renamed or deleted function would only fail there. This test reads the
tuple from the file, without importing the benchmark, and looks each
label up in the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_labels():
    tree = ast.parse(TRACING.read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TRACED"]
    ]
    return ast.literal_eval(value)


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
