"""Every function in src/borelschur runs from src/ or is a documented export.

A function counts as used when its name appears in src/ as a name,
attribute, import or the name argument of `getattr`, `hasattr` or
`setattr`, outside its own definition and outside `__init__.py`, whose
imports and `__all__` only export.  A method counts as used only as an
attribute or such a name argument: a bare name of the same spelling is
a local variable, not a call of the method.  Any other string, a dict
key say, names no function.  A function that no src/ code calls may
stay only when it is in `borelschur.__all__` and the README names it in
backticks, saying why a library user wants it.  Dunders are exempt.
Code that only tests call belongs in a test helper module such as
`oracles.py`.

Likewise every underscore attribute that src/ assigns on `self` must be
read somewhere in src/, as an attribute or by `getattr` or `hasattr`;
an augmented assignment such as `self._n += 1` does not count as a
read.  A bookkeeping table left behind after its reader is deleted
fails this.
"""

import ast
import re
from pathlib import Path

import borelschur

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "borelschur"
FIELDS = {ast.alias: "name", ast.Name: "id", ast.Attribute: "attr"}
BY_NAME = {"getattr", "hasattr", "setattr"}


def identifier(node):
    if type(node) in FIELDS:
        return getattr(node, FIELDS[type(node)])
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in BY_NAME and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


def unreferenced(src):
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    refs = [(identifier(node), mod, node.lineno,
             isinstance(node, (ast.Attribute, ast.Call)))
            for mod, tree in trees.items() if mod != "__init__.py"
            for node in ast.walk(tree) if identifier(node)]
    methods = {id(node) for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    out = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            # a method is reached only through an attribute or getattr; a
            # bare name of the same spelling is some local variable
            looked_up = id(node) in methods
            if not any(ref == node.name and not (m == mod and line in own)
                       and (by_attribute or not looked_up)
                       for ref, m, line, by_attribute in refs):
                out.append(f"{mod}:{node.lineno} {node.name}")
    return out


def unread_attributes(src):
    """`self._name` assignments in src/ whose name nothing in src/ reads.

    Storing into an item, `self._name[k] = v`, is no read of `_name`."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    nodes = [(mod, node) for mod, tree in trees.items()
             for node in ast.walk(tree)]
    stored = {id(node.value) for _, node in nodes
              if isinstance(node, ast.Subscript)
              and not isinstance(node.ctx, ast.Load)}
    read = {node.attr for _, node in nodes if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in stored}
    read |= {name for _, node in nodes if isinstance(node, ast.Call)
             and (name := identifier(node)) and node.func.id != "setattr"}
    out = []
    for mod, node in nodes:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for t in (t for target in targets for t in ast.walk(target)):
            if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                    and t.value.id == "self" and t.attr.startswith("_")
                    and not t.attr.endswith("__") and t.attr not in read):
                out.append(f"{mod}:{t.lineno} {t.attr}")
    return out


def unexplained(src, exported, readme):
    """Unreferenced functions that are not exported with a README mention."""
    documented = set(re.findall(r"`(\w+)[`(]", readme))
    return [f for f in unreferenced(src)
            if f.split()[-1] not in exported & documented]


def test_every_function_has_a_caller_in_src():
    assert unexplained(SRC, set(borelschur.__all__),
                       (ROOT / "README.md").read_text()) == []


def test_guard_sees_an_unused_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return used()\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n"
        "    def method(self):\n        return 2\n\n"
        "    def shadowed(self):\n        return 3\n\n\n"
        "def local():\n    shadowed = used()\n    return shadowed\n")
    assert unreferenced(tmp_path) == ["a.py:5 unused", "a.py:9 recursive",
                                      "a.py:24 local", "a.py:17 method",
                                      "a.py:20 shadowed"]


def test_guard_wants_a_reason_for_an_unused_export(tmp_path):
    (tmp_path / "a.py").write_text("def helper():\n    return 1\n")
    assert unexplained(tmp_path, {"helper"}, "") == ["a.py:1 helper"]
    assert unexplained(tmp_path, set(), "`helper`") == ["a.py:1 helper"]
    assert unexplained(tmp_path, {"helper"}, "run `helper()` to see") == []


def test_guard_counts_only_attribute_lookups_by_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "def keyed():\n    return 1\n\n\n"
        "def looked_up():\n    return 2\n\n\n"
        "def report(obj):\n"
        "    return {\"keyed\": getattr(obj, \"looked_up\")}\n")
    assert unreferenced(tmp_path) == ["a.py:1 keyed", "a.py:9 report"]


def test_every_private_attribute_is_read_in_src():
    assert unread_attributes(SRC) == []


def test_guard_sees_an_unread_attribute(tmp_path):
    (tmp_path / "a.py").write_text(
        "class C:\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "        self._table, self._count = {}, 0\n"
        "        self._looked_up = self.public = 1\n\n"
        "    def get(self, k):\n"
        "        self._count += 1\n"
        "        self._table[k] = k\n"
        "        return self._memo.get(k, getattr(self, \"_looked_up\"))\n")
    assert unread_attributes(tmp_path) == ["a.py:4 _table", "a.py:4 _count",
                                           "a.py:8 _count", "a.py:9 _table"]
