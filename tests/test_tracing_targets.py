"""The benchmark tracer's targets still name functions that spnkit defines.

``perfbench/tracing.py`` wraps each (module, function) pair in its
``TARGETS`` table; a rename or deletion in spnkit would otherwise only
surface when a traced benchmark run fails.  The table is read from the
file's syntax tree, so nothing under ``perfbench/`` is imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_module() -> ast.Module:
    return ast.parse(TRACING.read_text())


def targets() -> list[tuple[str, str, str | None]]:
    """(module, function, hook name or None) of each TARGETS entry."""
    table = next(
        node.value for node in tracing_module().body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    return [(entry.elts[0].value, entry.elts[1].value,
             entry.elts[2].id if isinstance(entry.elts[2], ast.Name) else None)
            for entry in table.elts]


def traced_names() -> list[tuple[str, str]]:
    return [(module, name) for module, name, _ in targets()]


def argument_reads() -> dict[str, set[tuple[int, str]]]:
    """(position, name) of each ``_arg(args, kwargs, position, name)`` read per
    function of tracing.py, including reads by helpers it hands ``args`` to."""
    functions = {node.name: node for node in tracing_module().body
                 if isinstance(node, ast.FunctionDef)}
    direct = {name: set() for name in functions}
    helpers = {name: set() for name in functions}
    for name, fn in functions.items():
        for call in ast.walk(fn):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            if call.func.id == "_arg":
                direct[name].add((call.args[2].value, call.args[3].value))
            elif call.func.id in functions and any(
                    isinstance(a, ast.Name) and a.id == "args" for a in call.args):
                helpers[name].add(call.func.id)

    def reads(name: str, seen: frozenset = frozenset()) -> set:
        found = set(direct[name])
        for helper in helpers[name] - seen:
            found |= reads(helper, seen | {name})
        return found

    return {name: reads(name) for name in functions}


def test_every_traced_function_exists():
    names = traced_names()
    assert names
    missing = [
        f"spnkit.{module}.{name}" for module, name in names
        if not callable(getattr(importlib.import_module(f"spnkit.{module}"), name, None))
    ]
    assert missing == []


def test_every_hook_reads_arguments_where_the_signature_holds_them():
    reads = argument_reads()
    checked, drifted = 0, []
    for module, name, hook in targets():
        if hook is None:
            continue
        params = list(inspect.signature(
            getattr(importlib.import_module(f"spnkit.{module}"), name)).parameters)
        for position, arg in sorted(reads[hook]):
            checked += 1
            if params[position:position + 1] != [arg]:
                drifted.append(f"spnkit.{module}.{name}: {hook} reads {arg!r} at position "
                               f"{position}, the signature is {params}")
    assert checked >= 5  # parse_manifest, both loaders, greedy_modularity and rewire
    assert drifted == []
