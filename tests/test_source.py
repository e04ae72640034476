"""Checks on the package source itself."""

import ast
from pathlib import Path

import anisoeit

SOURCE = Path(anisoeit.__file__).parent


def _unread_parameters(tree: ast.Module) -> list:
    """`name.parameter` for every parameter of a module- or class-level
    function that the function's body never reads.  Nested functions are not
    scanned on their own: a closure's signature may be fixed by its caller
    (`harness._saved_report` calls `body(out)`)."""
    functions = [node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [node for node in cls.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unread = []
    for fn in functions:
        args = fn.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  *filter(None, (args.vararg, args.kwarg)))]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{fn.name}.{p}" for p in params if p not in read]
    return unread


def test_every_parameter_is_read():
    unread = {path.name: _unread_parameters(ast.parse(path.read_text()))
              for path in sorted(SOURCE.glob("*.py"))}
    assert {name: params for name, params in unread.items() if params} == {}


def test_unread_parameter_scan_finds_one():
    tree = ast.parse("def f(a, b=1, *c, d, **e):\n"
                     "    def inner(x):\n"
                     "        return a + d\n"
                     "    return inner(e)\n"
                     "class C:\n"
                     "    def m(self, y):\n"
                     "        return self\n")
    assert _unread_parameters(tree) == ["f.b", "f.c", "m.y"]


def _unused_private_helpers(trees: dict) -> list:
    """`module.name` for every module-level private function or class that
    no code names, as an AST `Name` or `Attribute`, outside its own
    definition.  Docstrings and comments do not count."""
    defined, used = [], set()
    for module, tree in trees.items():
        for stmt in tree.body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append((module, stmt.name))
                names.discard(stmt.name)
            used |= names
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_private_helper_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert _unused_private_helpers(trees) == []


def test_unused_private_helper_scan_finds_one():
    trees = {"a": ast.parse("def _used():\n"
                            "    '''Not _dead.'''\n"
                            "def _dead():\n"
                            "    return _dead()\n"
                            "class _Kept:\n"
                            "    pass\n"
                            "def __dunder__():\n"
                            "    pass\n"
                            "x = _used\n"),
             "b": ast.parse("import a\n"
                            "y = a._Kept\n")}
    assert _unused_private_helpers(trees) == ["a._dead"]


def _unused_imports(tree: ast.Module) -> list:
    """Every name a module-level import binds that the module never reads
    as an AST `Name` (an attribute's base included) and does not list in
    `__all__`.  `from __future__` imports bind nothing."""
    bound = [alias.asname or alias.name.split(".")[0] for stmt in tree.body
             if isinstance(stmt, (ast.Import, ast.ImportFrom))
             and not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
             for alias in stmt.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {elt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                for elt in ast.walk(stmt.value) if isinstance(elt, ast.Constant)}
    return [name for name in bound if name not in read | exported]


def test_every_import_is_used():
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in sorted(SOURCE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_scan_finds_one():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "from scipy.sparse.linalg import spilu, splu\n"
                     "from a import b\n"
                     "__all__ = ['b']\n"
                     "def f(x: np.ndarray):\n"
                     "    '''Not spilu.'''\n"
                     "    return splu(x), os\n")
    assert _unused_imports(tree) == ["spilu"]
