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


def _binders(trees: dict, name: str) -> list:
    """Every module that binds `name` by an import, under any alias, or
    reads it as an attribute (`lapack.name`)."""
    return [module for module, tree in trees.items()
            if any(isinstance(node, ast.alias) and node.name == name
                   or isinstance(node, ast.Attribute) and node.attr == name
                   for node in ast.walk(tree))]


def test_one_module_binds_the_band_cholesky():
    """`dpbtrf` is reached by `fem` alone, whose `band_cholesky` holds the
    pivot rule every band Cholesky of the package applies."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert _binders(trees, "dpbtrf") == ["fem"]


def test_binder_scan_finds_each_form():
    trees = {"a": ast.parse("from scipy.linalg.lapack import dpbtrf as pbtrf\n"),
             "b": ast.parse("def f():\n"
                            "    from scipy.linalg import lapack\n"
                            "    return lapack.dpbtrf\n"),
             "c": ast.parse("class C:\n"
                            "    def m(self):\n"
                            "        from scipy.linalg.lapack import dpbtrf\n"
                            "        return dpbtrf\n"),
             "d": ast.parse("'''Not dpbtrf.'''\n"
                            "from scipy.linalg.lapack import dpbtrs, dpotrf\n")}
    assert _binders(trees, "dpbtrf") == ["a", "b", "c"]


def _none_fallbacks(tree: ast.Module, module: str) -> list:
    """`module.function` for every module-level private function, and
    `module.Class.method` for every method of a module-level private class,
    that builds an object in place of a parameter defaulting to None, as
    `p or Ctor(...)` or as `if p is None:` over an assignment of a call.
    Public functions may default that way (`settings or GNSettings()`)."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    scanned = [(node.name, node) for node in tree.body
               if isinstance(node, functions) and private(node.name)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and private(cls.name):
            scanned += [(f"{cls.name}.{node.name}", node) for node in cls.body
                        if isinstance(node, functions)]
    found = []
    for name, fn in scanned:
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        none = {arg.arg for arg, default in zip(positional + args.kwonlyargs,
                                                defaults + args.kw_defaults)
                if isinstance(default, ast.Constant) and default.value is None}
        for node in (node for stmt in fn.body for node in ast.walk(stmt)):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                hit = (isinstance(node.values[0], ast.Name) and node.values[0].id in none
                       and any(isinstance(v, ast.Call) for v in node.values[1:]))
            elif isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
                test = node.test
                hit = (isinstance(test.left, ast.Name) and test.left.id in none
                       and isinstance(test.ops[0], ast.Is)
                       and isinstance(test.comparators[0], ast.Constant)
                       and test.comparators[0].value is None
                       and any(isinstance(stmt, (ast.Assign, ast.AnnAssign))
                               and isinstance(stmt.value, ast.Call) for stmt in node.body))
            else:
                hit = False
            if hit:
                found.append(f"{module}.{name}")
                break
    return found


def test_no_private_code_builds_on_a_none_default():
    """Private plans take the arrays they write as required arguments, so
    no caller gets a fresh one by passing nothing."""
    found = [hit for path in sorted(SOURCE.glob("*.py"))
             for hit in _none_fallbacks(ast.parse(path.read_text()), path.stem)]
    assert found == []


def test_none_fallback_scan_finds_each_form():
    tree = ast.parse("def _f(a=None, *, b=None, c=1):\n"
                     "    a = a or list()\n"
                     "    if b is None:\n"
                     "        b = dict()\n"
                     "    return a, b, c or set()\n"
                     "def _g(a, b=None):\n"
                     "    if b is None:\n"
                     "        b = 0\n"
                     "    if a is None:\n"
                     "        a = dict()\n"
                     "    return b or 1, a or list()\n"
                     "def public(a=None):\n"
                     "    return a or list()\n"
                     "class _C:\n"
                     "    def __init__(self, w=None):\n"
                     "        self.w = w or dict()\n"
                     "class D:\n"
                     "    def _m(self, w=None):\n"
                     "        return w or dict()\n")
    assert _none_fallbacks(tree, "a") == ["a._f", "a._C.__init__"]
