"""The benchmark tracer's targets still name functions that spnkit defines.

``perfbench/tracing.py`` wraps each (module, function) pair in its
``TARGETS`` table; a rename or deletion in spnkit would otherwise only
surface when a traced benchmark run fails.  The table is read from the
file's syntax tree, so nothing under ``perfbench/`` is imported or run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text())
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    return [(entry.elts[0].value, entry.elts[1].value) for entry in table.elts]


def test_every_traced_function_exists():
    names = traced_names()
    assert names
    missing = [
        f"spnkit.{module}.{name}" for module, name in names
        if not callable(getattr(importlib.import_module(f"spnkit.{module}"), name, None))
    ]
    assert missing == []
