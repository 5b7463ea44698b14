"""The upper-triangle edge order has one owner, ``graphs.py``.

The SPN hypotheses, a dataset's edge values, the edge statistics tables
and the density ranking all use the pairs (i, j), i < j, in the order of
``np.triu_indices(N_V, k=1)``.  Only ``graphs.py`` may build that order;
every other module reads it from there.  ``io.py`` takes from ``spn``
no private name but the label rule ``_design_labels``.
"""

import ast
from pathlib import Path

import spnkit

PACKAGE = Path(spnkit.__file__).parent


def triu_indices_calls(tree: ast.Module) -> int:
    """Calls of ``<anything>.triu_indices(...)`` or a bare ``triu_indices(...)``."""
    return sum(isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "triu_indices"
        or isinstance(node.func, ast.Name) and node.func.id == "triu_indices")
        for node in ast.walk(tree))


def private_imports(tree: ast.Module, module: str) -> set[str]:
    """The underscore names imported, anywhere in ``tree``, from ``.module``."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names if alias.name.startswith("_")}


def test_the_walkers_see_what_they_look_for():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import triu_indices\n"
                     "def f(n):\n"
                     "    from .spn import _design_labels, _symmetric, mean_spn\n"
                     "    return np.triu_indices(n, k=1), triu_indices(n)\n")
    assert triu_indices_calls(tree) == 2
    assert private_imports(tree, "spn") == {"_design_labels", "_symmetric"}


def test_only_graphs_builds_the_edge_order():
    calls = {path.stem: triu_indices_calls(ast.parse(path.read_text()))
             for path in PACKAGE.glob("*.py")}
    assert {"graphs", "io", "spn", "density", "modularity"} <= set(calls)
    assert {name for name, count in calls.items() if count} == {"graphs"}


def test_io_takes_only_the_label_rule_from_spn():
    tree = ast.parse((PACKAGE / "io.py").read_text())
    assert private_imports(tree, "spn") == {"_design_labels"}
