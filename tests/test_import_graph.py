"""spnkit's modules import each other without a cycle.

Every ``from .x import ...`` and ``from . import x`` in ``src/spnkit/*.py``
is an edge, function-level imports included: a lazy import hides a cycle
from the interpreter but not from a reader.  A name imported from the
package itself that is no module (``from . import __version__``) adds no
edge; the package's ``__init__`` imports every module, so it sits above
them all.
"""

import ast
import graphlib
from pathlib import Path

import spnkit

PACKAGE = Path(spnkit.__file__).parent


def imported_modules(tree: ast.Module, modules: set[str]) -> set[str]:
    """The spnkit modules that one module's syntax tree imports anywhere."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module:
            found.add(node.module.split(".")[0])
        else:
            found.update(alias.name for alias in node.names if alias.name in modules)
    return found


def import_graph() -> dict[str, set[str]]:
    files = {path.stem: path for path in PACKAGE.glob("*.py")}
    return {name: imported_modules(ast.parse(path.read_text()), set(files))
            for name, path in files.items()}


def test_function_level_imports_are_edges():
    tree = ast.parse("def f():\n"
                     "    from .io import write_csv\n"
                     "    from . import spn, __version__\n")
    assert imported_modules(tree, {"io", "spn"}) == {"io", "spn"}


def test_module_imports_form_no_cycle():
    graph = import_graph()
    assert {"cli", "io", "modularity"} <= set(graph) and "io" in graph["cli"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        cycle = " -> ".join(reversed(exc.args[1]))
        raise AssertionError(f"spnkit modules import in a cycle: {cycle}") from None
