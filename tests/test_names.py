"""Every global name that a function, class body or comprehension reads is bound.

``python -m compileall`` accepts a read of a module-level name that is never
imported or defined, and the slip shows only when that line runs.  The
symbol tables of each source file name every such read without running it.
"""

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
