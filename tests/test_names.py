"""Every global name that a function, class body or comprehension reads is bound, and every import is read.

``python -m compileall`` accepts a read of a module-level name that is never
imported or defined, and the slip shows only when that line runs.  The
symbol tables of each source file name every such read without running it.
An import that nothing reads is dead weight on every start-up; the syntax
tree of each source file names it.
"""

import ast
import builtins
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "scripts") for path in (ROOT / top).rglob("*.py"))
MODULE_ATTRIBUTES = {
    "__builtins__", "__doc__", "__file__", "__loader__", "__name__", "__package__", "__path__", "__spec__"
}


def _tables(table):
    yield table
    for child in table.get_children():
        yield from _tables(child)


def _unbound_globals(source: str, filename: str) -> list[tuple[str, str]]:
    """(scope, name) for each global read in a nested scope that no module binding or builtin provides."""
    tables = list(_tables(symtable.symtable(source, filename, "exec")))
    bound = set(dir(builtins)) | MODULE_ATTRIBUTES
    for table in tables:
        for sym in table.get_symbols():
            # a module binding, or one made through a ``global`` statement
            if (table is tables[0] or sym.is_declared_global()) and (sym.is_assigned() or sym.is_imported()):
                bound.add(sym.get_name())
    return sorted(
        (table.get_name(), sym.get_name())
        for table in tables[1:]
        for sym in table.get_symbols()
        if sym.is_global() and sym.is_referenced() and sym.get_name() not in bound
    )


def test_every_global_read_is_bound():
    slip = "import math\n\ndef f(x):\n    return math.floor(x) + [y for y in comb(x)]\n"
    assert _unbound_globals(slip, "slip.py") == [("f", "comb")]
    assert len(SOURCES) > 20
    unbound = {
        str(path.relative_to(ROOT)): found
        for path in SOURCES
        if (found := _unbound_globals(path.read_text(), str(path)))
    }
    assert not unbound, unbound


def _unused_imports(source: str, filename: str) -> list[str]:
    """Names bound by a module-level import that no ``ast.Name`` reads and ``__all__`` does not list."""
    tree = ast.parse(source, filename)
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            try:
                used.update(ast.literal_eval(node.value))
            except ValueError:  # a computed __all__ lists nothing this check can read
                pass
    return sorted(set(bound) - used)


def test_every_import_is_read():
    slip = (
        "from __future__ import annotations\n"
        "import os.path\nimport math, json as js\nfrom x import (a, b as c)\n"
        "__all__ = ['a']\n\n"
        "def f(v: c) -> None:\n    return math.floor(v)\n"
    )
    assert _unused_imports(slip, "slip.py") == ["js", "os"]
    unused = {
        str(path.relative_to(ROOT)): found
        for path in SOURCES
        if (found := _unused_imports(path.read_text(), str(path)))
    }
    assert not unused, unused
