"""The kamrev names the benchmark harness in perfbench/ relies on.

perfbench/tracer.py wraps functions and methods that it looks up by module
and qualified name, and the harness scripts import kamrev names.  A change
that drops or renames one of them breaks `perfbench/run.py --trace 1`, so
they are all resolved here, where the unit suite notices in a second.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from kamrev import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A perfbench script as a module, without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_function_resolves():
    tracer = _load("tracer")
    entries = [*tracer.SPANNED, *tracer.COUNTED]
    assert entries
    for module, qualname in entries:
        importlib.import_module(f"kamrev.{module}")
        owner, attr = tracer._resolve(module, qualname)
        assert callable(getattr(owner, attr, None)), f"kamrev.{module}.{qualname}"


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_every_kamrev_import_of_the_harness_resolves(script):
    tree = ast.parse((PERFBENCH / script).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kamrev":
            mod = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(mod, alias.name):  # a submodule, e.g. `from kamrev import cli`
                    importlib.import_module(f"{node.module}.{alias.name}")


def test_every_workload_config_builds_and_decodes():
    """The config generators build series through kamrev (`map_values`,
    `with_perturbation`, `FourierSeries.cosine`, the symmetrizers), and the
    CLI must accept what they build."""
    workloads = _load("workloads")
    for name, command in workloads.COMMANDS.items():
        config = workloads.make_config(name, 1)
        cli._validate(config, command)
        cli._decode(command, config, None)
