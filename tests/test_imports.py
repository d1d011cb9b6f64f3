"""Every module of the package uses each name it imports, and start-up
imports no dependency that the command may never use.

A deletion that leaves its import behind (a helper's `itertools`, a type that
only the annotation of a removed parameter named) fails here.  `__init__.py`
imports to re-export and is left out.  scipy, jsonschema and referencing load
on first use, inside the functions that need them; only `toy ex1` needs scipy.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN, make_curve_family, make_golden_family

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


# runs each command on its config and prints the scipy modules loaded after it
COMMANDS = """
import json, sys
import kamrev.cli
loaded = []
for name, cfg in zip(sys.argv[1::2], sys.argv[2::2]):
    code = kamrev.cli.main([name, "--config", cfg, "--out", "out"])
    loaded.append([name, code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(loaded))
"""


def test_normalize_versal_check_and_ruessmann_leave_scipy_unloaded(tmp_path):
    normalize = {"family": make_golden_family(delta=1e-4, order=8).to_json(),
                 "omega0": [1.0, GOLDEN], "mu0": [0.04],
                 "tau": 1.5, "gamma": 5e-3, "horizon": 16, "tol": 1e-11}
    # ker Q meets Fix R, so kernel_condition returns a witness vector
    versal = {"Q": [[0.0, 1.0], [0.0, 0.0]], "R": [[1.0, 0.0], [0.0, -1.0]],
              "directions": [[[0.0, 0.0], [1.0, 0.0]]]}
    # integrates the orbit of each accepted torus
    ruessmann = {"family": make_curve_family(delta=1e-4, order=8).to_json(),
                 "curve": {"box": [[0.0, 0.1]],
                           "components": [{"muPoly": [1.0]}, {"muPoly": [1.55, 1.0]}]},
                 "tau": 1.5, "gamma": 5e-3, "kmax": 12, "tol": 1e-11, "gridCount": 2,
                 "T": 10.0, "verify": True}
    argv = []
    for name, doc in (("normalize", normalize), ("versal-check", versal),
                      ("ruessmann", ruessmann)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv += [name, f"{name}.json"]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", COMMANDS, *argv],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [["normalize", 0, []],
                                                       ["versal-check", 0, []],
                                                       ["ruessmann", 0, []]]
    report = json.loads((tmp_path / "out" / "versal-check-report.json").read_text())
    assert report["result"]["kernelTrivialOnFixPlus"] is False
    report = json.loads((tmp_path / "out" / "ruessmann-report.json").read_text())
    assert any(pt["torusDeviation"] is not None for pt in report["result"]["pipeline"]["points"])
