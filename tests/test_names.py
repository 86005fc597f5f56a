"""Every global name that a function, class body or comprehension reads is bound, every import is read,
every top-level function and class of the package is read, and README's Caches table names every memo.

``python -m compileall`` accepts a read of a module-level name that is never
imported or defined, and the slip shows only when that line runs.  The
symbol tables of each source file name every such read without running it.
An import that nothing reads is dead weight on every start-up, and so is a
function or class that no code reads; the syntax tree of each source file
names both, and every function that ``lru_cache`` decorates.
"""

import ast
import builtins
import itertools
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))
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


def _reads(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each name or attribute loaded, and of each name imported from a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno) for alias in node.names)
    return out


def _unread_definitions(sources: dict[str, str]) -> list[str]:
    """``path: name`` of each top-level function or class in src/symdet that nothing reads outside its body.

    ``sources`` maps each path, relative to the repository root, to its text.
    A dunder such as a module's ``__getattr__`` is read by the interpreter.
    """
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    unread = []
    for path, tree in trees.items():
        if not path.startswith("src/symdet/"):
            continue
        for node in tree.body:
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if not defines or node.name.startswith("__"):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and (other != path or line not in body)
                for other, found in reads.items()
                for name, line in found
            ):
                unread.append(f"{path}: {node.name}")
    return unread


def test_every_definition_is_read():
    slip = {
        "src/symdet/m.py": (
            "def used():\n    return 1\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
            "class Dead:\n    def used(self):\n        return self.used\n"
        ),
        "tests/t.py": "from symdet.m import recursive as r\n\nr(2)\n",
        "tests/s.py": "import symdet.m\n\nsymdet.m.Dead = None\n",
    }
    assert _unread_definitions(slip) == ["src/symdet/m.py: Dead"]
    slip["tests/t.py"] = "import symdet.m\n\nsymdet.m.recursive(2)\n"
    assert _unread_definitions(slip) == ["src/symdet/m.py: Dead"]
    del slip["tests/t.py"]
    assert _unread_definitions(slip) == ["src/symdet/m.py: recursive", "src/symdet/m.py: Dead"]
    sources = {path.relative_to(ROOT).as_posix(): path.read_text() for path in SOURCES}
    assert sum(path.startswith("src/symdet/") for path in sources) > 5
    assert not _unread_definitions(sources)


def _lru_cached(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each function in src/symdet, nested ones included, that ``lru_cache`` decorates."""
    cached = []
    for path, text in sources.items():
        if not path.startswith("src/symdet/"):
            continue
        for node in ast.walk(ast.parse(text, path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) == "lru_cache":
                    cached.append(f"{Path(path).stem}.{node.name}")
    return sorted(cached)


def _caches_table(readme: str) -> list[str]:
    """The memo cell of each row of README's Caches table, backticks stripped."""
    lines = readme.splitlines()
    start = lines.index("| memo | key | value |") + 2  # past the header and its rule
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    return sorted(row.split("|")[1].strip().strip("`") for row in rows)


def test_readme_caches_table_names_every_memo():
    slip = {
        "src/symdet/m.py": (
            "import functools\nfrom functools import lru_cache\n\n"
            "@lru_cache(maxsize=None)\ndef a():\n    return 1\n\n"
            "@property\ndef b():\n    @functools.lru_cache\n    def c():\n        return 2\n    return c\n"
        ),
        "tests/t.py": "from functools import lru_cache\n\n@lru_cache\ndef d():\n    return 3\n",
    }
    assert _lru_cached(slip) == ["m.a", "m.c"]
    readme = "**Caches.**\n\n| memo | key | value |\n| --- | --- | --- |\n| `m.a` | n | x |\n\nafter | m.z |\n"
    assert _caches_table(readme) == ["m.a"]
    sources = {path.relative_to(ROOT).as_posix(): path.read_text() for path in SOURCES}
    cached = _lru_cached(sources)
    assert len(cached) > 5
    assert _caches_table((ROOT / "README.md").read_text()) == cached
