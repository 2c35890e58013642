"""Every name a module of the package imports is used in that module, and
every def of the package has a caller outside the tests."""

import ast
import collections
import pathlib
import re

import pytest

import griess_lab

MODULES = sorted(p for p in pathlib.Path(griess_lab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") == [(1, "os")]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Public names that only tests call, each kept for the reason given.
KEEP = {
    "epsilon": "CocycleTable.epsilon on vectors, the form the cocycle tests check",
    "cross_validate": "entry-by-entry table report of acceptance criterion 09",
}

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _identifiers(tree):
    """Count of each name, attribute name and identifier-like string."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found[node.value] += 1
    return found


def _scanned_defs(tree):
    """Each top-level def and method, public or private, but no dunder and
    no def that a decorator of the same module registers (its caller is
    the registry)."""
    local = {d.name for d in tree.body if isinstance(d, ast.FunctionDef)}
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in members:
            if not isinstance(d, ast.FunctionDef) or d.name.startswith("__"):
                continue
            if any(isinstance(x, ast.Call) and getattr(x.func, "id", None) in local
                   for x in d.decorator_list):
                continue
            yield d


def uncalled_defs(modules, others):
    """(module, name) of each top-level def or method in `modules`
    (name -> source) that nothing references outside its own body, in the
    modules or in the trees `others`, and that KEEP does not list."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    counts = {name: _identifiers(tree) for name, tree in trees.items()}
    outside = sum((_identifiers(t) for t in others), collections.Counter())
    uncalled = []
    for name, tree in trees.items():
        elsewhere = outside + sum((c for n, c in counts.items() if n != name),
                                  collections.Counter())
        for d in _scanned_defs(tree):
            here = counts[name][d.name] - _identifiers(d)[d.name]
            if not here and not elsewhere[d.name] and d.name not in KEEP:
                uncalled.append((name, d.name))
    return sorted(uncalled)


def test_scanner_flags_an_uncalled_def():
    modules = {"a": "def used():\n    return 1\n\n\ndef dead(n):\n    return dead(n - 1)\n",
               "b": "class C:\n    def __init__(self):\n        pass\n\n"
                    "    def m(self):\n        return used()\n\n"
                    "    def _gone(self):\n        return self\n",
               "c": "def epsilon():\n    pass\n",
               "d": "def _reg(f):\n    return lambda g: g\n\n\n"
                    "@_reg(1)\ndef _registered():\n    pass\n"}
    assert uncalled_defs(modules, [ast.parse("C().m()")]) == [("a", "dead"), ("b", "_gone")]
    assert uncalled_defs(modules, []) == [("a", "dead"), ("b", "_gone"), ("b", "m")]


def test_every_public_def_has_a_caller():
    modules = {p.name: p.read_text() for p in MODULES}
    others = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    others += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    assert uncalled_defs(modules, others) == []


def _defaulted_params(tree):
    """(def name, parameter, index) for each defaulted parameter of each
    public top-level def or method.  A class's __init__ goes under the
    class name; index is the parameter's place among the positional
    arguments a call passes (self and cls left out), None when it is
    keyword-only."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in members:
            if not isinstance(d, ast.FunctionDef):
                continue
            name = node.name if d.name == "__init__" else d.name
            if name.startswith("_"):
                continue
            a = d.args
            positional = a.posonlyargs + a.args
            if d is not node and not any(getattr(x, "id", None) == "staticmethod"
                                         for x in d.decorator_list):
                positional = positional[1:]
            first = len(positional) - len(a.defaults)
            for i, p in enumerate(positional[first:], first):
                yield name, p.arg, i
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield name, p.arg, None


def _passes(call, param, index):
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    return index is not None and len(call.args) > index


def unpassed_defaults(modules, others):
    """(module, def name, parameter) of each defaulted parameter of a public
    def in `modules` (name -> source) that no call in the modules or in the
    trees `others` passes, by position or by keyword."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    calls = collections.defaultdict(list)
    for tree in list(trees.values()) + list(others):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                calls[getattr(f, "id", None) or getattr(f, "attr", None)].append(node)
    return sorted((module, name, param)
                  for module, tree in trees.items()
                  for name, param, index in _defaulted_params(tree)
                  if not any(_passes(c, param, index) for c in calls[name]))


def test_scanner_flags_an_unpassed_default():
    modules = {"a": "def f(x, y=1, *, z=2):\n    return x\n\n\n"
                    "def g(p=1):\n    return p\n\n\n"
                    "def _h(p=1):\n    return p\n\n\n"
                    "class C:\n"
                    "    def __init__(self, k=0):\n        self.k = k\n\n"
                    "    def m(self, p=1, q=2):\n        return f(1, z=3)\n\n"
                    "    @staticmethod\n"
                    "    def s(p=1):\n        return p\n"}
    calls = ast.parse("C(5).m(1)\ng(**{})\nC.s(2)\n")
    assert unpassed_defaults(modules, [calls]) == [("a", "f", "y"), ("a", "m", "q")]
    assert unpassed_defaults(modules, []) == [
        ("a", "C", "k"), ("a", "f", "y"), ("a", "g", "p"),
        ("a", "m", "p"), ("a", "m", "q"), ("a", "s", "p")]


def test_every_defaulted_parameter_is_passed():
    modules = {p.name: p.read_text() for p in MODULES}
    others = [ast.parse(p.read_text())
              for d in ("tests", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    others += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    assert unpassed_defaults(modules, others) == []
