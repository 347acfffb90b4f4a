"""Only `fields.py` makes rational scalars.

A characteristic-0 scalar is an int when integral and a `Fraction`
otherwise; `Rationals` keeps that form, so a `Fraction` built anywhere
else could be an integral one.  The scan fails on any module of
src/borelschur other than fields.py that imports `fractions` or names
`Fraction`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "borelschur"


def fraction_uses(src):
    """Sorted `module:line` of every import or name of Fraction outside
    fields.py."""
    out = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if {"fractions", "Fraction"} & set(names):
                out.add(f"{path.name}:{node.lineno}")
    return sorted(out)


def test_only_fields_makes_fractions():
    assert fraction_uses(SRC) == []


def test_scan_sees_fractions(tmp_path):
    (tmp_path / "fields.py").write_text("from fractions import Fraction\n")
    (tmp_path / "a.py").write_text("import fractions\nx = fractions.Fraction(1, 2)\n")
    (tmp_path / "b.py").write_text("from fractions import Fraction as F\n")
    (tmp_path / "c.py").write_text("def f(field):\n    return field.of(2)\n")
    assert fraction_uses(tmp_path) == ["a.py:1", "a.py:2", "b.py:1"]
