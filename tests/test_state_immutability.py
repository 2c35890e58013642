"""A FockState is never changed after it is made: the mode kernel keeps a
view of each right-hand state's arrays on the state (FockSpace._state_view)
and reads it on later calls.  So nothing in the package assigns to a
state's _nums, _den or _view, or calls a mutating method on its _nums,
outside the two constructors and the view builder."""

import ast
import pathlib

import pytest

import griess_lab

MODULES = sorted(pathlib.Path(griess_lab.__file__).parent.glob("*.py"))
FIELDS = {"_nums", "_den", "_view"}
MUTATORS = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}
SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}
ALLOWED = {"FockState.__init__", "FockState._of", "FockSpace._state_view"}


def _owned(node, owner=""):
    """Each node under node with the dotted name of its innermost def or class."""
    for child in ast.iter_child_nodes(node):
        name = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{owner}.{child.name}" if owner else child.name
        yield child, name
        yield from _owned(child, name)


def _targets(node):
    """The single targets that an assignment, del or for statement writes."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
        stack = [node.target]
    else:
        return
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        else:
            yield t


def _field(node):
    """The state field that x.f or x.f[k]... reaches, if f is one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.attr if isinstance(node, ast.Attribute) and node.attr in FIELDS else None


def state_writes(source: str):
    """(line, def, field) for each write to a state field outside ALLOWED."""
    found = []
    for node, owner in _owned(ast.parse(source)):
        if owner in ALLOWED:
            continue
        found += [(node.lineno, owner, f) for f in map(_field, _targets(node)) if f]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                and _field(func.value) == "_nums"):
            found.append((node.lineno, owner, f"_nums.{func.attr}"))
        if (getattr(func, "id", None) or getattr(func, "attr", None)) in SETTERS:
            found += [(node.lineno, owner, a.value) for a in node.args
                      if isinstance(a, ast.Constant) and a.value in FIELDS]
    return sorted(found)


def test_scanner_flags_planted_writes():
    source = (
        "class FockState:\n"
        "    def __init__(self):\n"
        "        self._den, self._nums, self._view = 1, {}, None\n"
        "\n"
        "    def scale(self, m, c):\n"
        "        self._nums[m] = (c, 0)\n"
        "        return self._nums.get(m), {}.update(self._den)\n"
        "\n"
        "\n"
        "class FockSpace:\n"
        "    def _state_view(self, s):\n"
        "        s._view = (self, None)\n"
        "\n"
        "    def twist(self, s):\n"
        "        s._den *= 2\n"
        "        s._nums.update({})\n"
        "        out, (s._view, *rest) = 1, (None, 2)\n"
        "        setattr(s, '_nums', {})\n"
        "        del s._nums[()]\n"
        "        for s._den in (1, 2):\n"
        "            pass\n")
    assert state_writes(source) == [
        (6, "FockState.scale", "_nums"),
        (15, "FockSpace.twist", "_den"),
        (16, "FockSpace.twist", "_nums.update"),
        (17, "FockSpace.twist", "_view"),
        (18, "FockSpace.twist", "_nums"),
        (19, "FockSpace.twist", "_nums"),
        (20, "FockSpace.twist", "_den"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_states_are_written_only_where_they_are_made(path):
    assert state_writes(path.read_text()) == []
