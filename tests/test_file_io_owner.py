"""Files are read and written in one place, ``io.py``, and always as UTF-8.

Two readers (``_read_json``; ``_read_csv`` with its error-path scan
``_parse_fault``) and two writers (``_write_text``, ``write_csv``) are the
only functions that open a file, and each names ``encoding="utf-8"``, so
the locale never decides what bytes a run reads or writes.  The guard knows
a file-opening call by its name (see ``file_calls``).  ``write_csv``
is also the one place a table number becomes text, so no ``_float_column``
helper renders one beforehand.
"""

import ast
from pathlib import Path

import spnkit

PACKAGE = Path(spnkit.__file__).parent
OWNERS = {"_read_json", "_read_csv", "_parse_fault", "_write_text", "write_csv"}
FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
# numpy's own file readers and writers, which take a path or a handle
NUMPY_FILE_CALLS = {"loadtxt", "savetxt", "save", "savez", "genfromtxt", "fromfile", "tofile"}


def file_calls(tree: ast.Module) -> list[tuple[str, str, bool]]:
    """(enclosing top-level function, call, passes encoding="utf-8") of each call in
    ``tree`` that opens a file: ``open(...)``, ``x.open(...)`` (``os.open``, ``io.open``),
    ``x.read_text(...)`` and the like, and numpy's file calls (``np.loadtxt``,
    ``np.savetxt``, ``np.save``, ``np.genfromtxt``, ``np.fromfile``, ...) of anything but a
    list literal of lines.  A call is known by its name only, so ``open`` bound to another
    name, or a handle passed on to ``json.dump``, is not seen; the handle itself comes
    from one of these calls."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"open", *NUMPY_FILE_CALLS}:
                name = func.id
            elif isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
                name = func.attr  # also os.open and io.open
            elif (isinstance(func, ast.Attribute) and func.attr in NUMPY_FILE_CALLS
                  and not (node.args and isinstance(node.args[0], ast.List))):
                name = func.attr
            else:
                continue
            utf8 = any(k.arg == "encoding" and isinstance(k.value, ast.Constant)
                       and k.value.value == "utf-8" for k in node.keywords)
            found.append((owner, name, utf8))
    return found


def test_the_walker_sees_what_it_looks_for():
    tree = ast.parse("import numpy as np\n"
                     "def f(p):\n"
                     "    open(p).read(); p.open('w', encoding='utf-8')\n"
                     "    p.read_text(); p.write_bytes(b''); np.loadtxt(p, encoding='utf-8')\n"
                     "    np.loadtxt(['1,2'], delimiter=',')\n"
                     "    os.open(p, 0); io.open(p); np.savetxt(p, []); np.save(p, [])\n"
                     "    np.genfromtxt(p); np.fromfile(p); savetxt(p, [])\n"
                     "    return 'a'.replace('a', 'b')\n"
                     "x = Path('y').write_text('z')\n")
    assert sorted(file_calls(tree)) == sorted([
        ("f", "open", False), ("f", "open", True), ("f", "read_text", False),
        ("f", "write_bytes", False), ("f", "loadtxt", True), ("f", "open", False),
        ("f", "open", False), ("f", "savetxt", False), ("f", "save", False),
        ("f", "genfromtxt", False), ("f", "fromfile", False), ("f", "savetxt", False),
        ("<module>", "write_text", False)])


def test_only_the_two_readers_and_two_writers_open_files_and_as_utf8():
    calls = {path.stem: file_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in PACKAGE.glob("*.py")}
    assert {"io", "cli", "spn", "density"} <= set(calls)
    assert {name for name, found in calls.items() if found} == {"io"}
    assert {owner for owner, _, _ in calls["io"]} == OWNERS
    assert [call for call in calls["io"] if not call[2]] == []


def test_no_float_column_helper_renders_numbers_before_write_csv():
    tree = ast.parse((PACKAGE / "io.py").read_text(encoding="utf-8"))
    assert "_float_column" not in {node.name for node in ast.walk(tree)
                                   if isinstance(node, ast.FunctionDef)}
