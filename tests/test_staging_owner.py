"""Staging has one owner, ``io.py``.

A run writes into a staging directory and moves its files up only when it
succeeds (``io.staged``); ``report_pipeline`` and the CLI both go through
it.  So only ``io.py`` may make a temporary directory (``mkdtemp``), move a
file into place (``os.replace``) or remove a tree (``shutil.rmtree``).
"""

import ast
from pathlib import Path

import spnkit

PACKAGE = Path(spnkit.__file__).parent
STAGING_CALLS = {("tempfile", "mkdtemp"), ("os", "replace"), ("shutil", "rmtree")}


def staging_calls(tree: ast.Module) -> list[str]:
    """The staging calls in ``tree``: ``module.name(...)``, and a bare
    ``name(...)`` or ``from module import name`` for one of them."""
    names = {name for _, name in STAGING_CALLS}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in STAGING_CALLS):
                found.append(f"{func.value.id}.{func.attr}")
            elif isinstance(func, ast.Attribute) and func.attr in {"mkdtemp", "rmtree"}:
                found.append(func.attr)
            elif isinstance(func, ast.Name) and func.id in names:
                found.append(func.id)
        elif isinstance(node, ast.ImportFrom) and node.module in {"os", "shutil", "tempfile"}:
            found += [f"from {node.module} import {alias.name}" for alias in node.names
                      if (node.module, alias.name) in STAGING_CALLS]
    return found


def test_the_walker_sees_what_it_looks_for():
    tree = ast.parse("import os, shutil, tempfile\n"
                     "from os import replace\n"
                     "def f(p, t):\n"
                     "    d = tempfile.mkdtemp(dir=p)\n"
                     "    os.replace(d, t); shutil.rmtree(d); replace(d, t)\n"
                     "    return 'a'.replace('a', 'b')\n")
    assert sorted(staging_calls(tree)) == sorted([
        "from os import replace", "tempfile.mkdtemp", "os.replace", "shutil.rmtree", "replace"])


def test_only_io_stages():
    calls = {path.stem: staging_calls(ast.parse(path.read_text()))
             for path in PACKAGE.glob("*.py")}
    assert {"io", "cli", "spn", "density"} <= set(calls)
    assert {name for name, found in calls.items() if found} == {"io"}
    assert sorted(calls["io"]) == ["os.replace", "shutil.rmtree", "tempfile.mkdtemp"]


def test_cli_imports_no_file_system_module():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not imported & {"os", "shutil", "tempfile"}
