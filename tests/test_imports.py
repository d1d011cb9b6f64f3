"""Every module of the package uses each name it imports.

A deletion that leaves its import behind (a helper's `itertools`, a type that
only the annotation of a removed parameter named) fails here.  `__init__.py`
imports to re-export and is left out.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kamrev"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _dotted(node):
    """`a.b.c` for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _unused_imports(source):
    tree = ast.parse(source)
    imported = []  # (name the module must use, line)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {_dotted(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [(name, line) for name, line in imported
            if not any(u == name or u.startswith(name + ".") for u in used if u)]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((SRC / module).read_text()) == []


def test_unused_import_check_sees_dotted_and_aliased_names():
    source = ("import itertools\nimport scipy.linalg\nimport scipy.optimize\n"
              "import numpy as np\nfrom .fourier import FourierSeries, fs_mul\n"
              "x = scipy.linalg.norm(np.ones(2)) + fs_mul\n")
    assert _unused_imports(source) == [("itertools", 1), ("scipy.optimize", 3),
                                       ("FourierSeries", 5)]
