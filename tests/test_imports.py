"""Every module of the package uses each name it imports, and start-up
imports no dependency that the command may never use.

A deletion that leaves its import behind (a helper's `itertools`, a type that
only the annotation of a removed parameter named) fails here.  `__init__.py`
imports to re-export and is left out.  scipy, jsonschema and referencing load
on first use, inside the functions that need them.
"""
import ast
import json
import os
import subprocess
import sys
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


# run in a fresh interpreter from the checkout; prints the loaded modules
START_UP = """
import json, sys
def loaded(*roots):
    return sorted(m for m in sys.modules if m.split(".")[0] in roots)
import kamrev.cli
after_import = loaded("scipy", "jsonschema", "referencing")
code = kamrev.cli.main(["dioph-measure", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([after_import, code, loaded("scipy")]))
"""


def test_start_up_and_dioph_measure_leave_heavy_dependencies_unloaded(tmp_path):
    cfg = tmp_path / "measure.json"
    cfg.write_text(json.dumps({"boxOmega": [[1.0, 2.0], [1.0, 2.0]], "boxBeta": [[0.5, 1.5]],
                               "tau": 1.5, "kmax": 6, "sampleCount": 64,
                               "gammas": [0.02, 0.04]}))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", START_UP, str(cfg), str(tmp_path / "out")],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert out.returncode == 0, out.stderr
    after_import, code, after_run = json.loads(out.stdout.splitlines()[-1])
    assert (after_import, code, after_run) == ([], 0, [])
    assert (tmp_path / "out" / "dioph-measure-report.json").exists()
