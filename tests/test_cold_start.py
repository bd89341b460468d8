"""Cold start: importing the package loads numpy but no scipy.

scipy is imported inside the few functions that use it (the sinc factors,
the improper iterated examples and the Poisson mass), so each check here
runs in a fresh interpreter: a test module that imports scipy itself would
hide the first-use path.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cpintegral

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

POINTS = [-np.inf, -1e6, -3.5, -1e-3, -0.0, 0.0, 5e-324, 1e-300, 0.5, 2.0, 1e6, np.inf]


def _fresh(*args):
    """Run python with -X importtime; return the process and the modules it imported."""
    path = os.pathsep.join(filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    return proc, imported


def _scipy(modules):
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


@pytest.mark.parametrize("args", [["-c", "import cpintegral"], ["-c", "import cpintegral.cli"],
                                  ["-m", "cpintegral.cli", "catalog"]], ids=["package", "cli", "catalog"])
def test_a_fresh_interpreter_loads_no_scipy(args):
    proc, imported = _fresh(*args)
    assert "numpy" in imported and "cpintegral" in imported
    assert _scipy(imported) == []
    if args[0] == "-m":
        assert json.loads(proc.stdout)["primitives"]


def _top_level_imports(tree):
    # every import executed when the module loads: function bodies are skipped
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _top_level_imports(node)


def test_no_top_level_scipy_import_in_the_package():
    package = Path(cpintegral.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        for node in _top_level_imports(ast.parse(path.read_text(encoding="utf-8"))):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            if any(name.split(".")[0] == "scipy" for name in names):
                stray.append((path.name, node.lineno))
    assert stray == []


def cold_values():
    """The values that first load scipy, each as float.hex."""
    from cpintegral.integral import improper_example
    from cpintegral.primitive import catalog_primitive
    from cpintegral.suites import poisson_mass

    xs = np.array(POINTS)
    ys = xs[::-1].copy()
    values = {}
    for name in ("sinc2d", "sincQuadrant"):
        F = catalog_primitive(name)
        values[name] = [float(v).hex() for v in F.eval(xs, ys)]
        values[name + " grid"] = [float(v).hex() for v in F.on_grid(xs, ys).ravel()]
        values[name + " scalar"] = [float(F(x, y)).hex() for x, y in zip(POINTS, POINTS)]
    for name, order in (("arctanXY", "dyFirst"), ("xPowY", "dxFirst")):
        res = improper_example(name, order)
        values[f"{name} {order}"] = [float(res.value).hex(), float(res.error_estimate).hex(), res.converged]
    values["poisson mass"] = [float(v).hex() for v in poisson_mass(1.0)]
    return values


def test_first_use_of_scipy_gives_the_same_values():
    script = ("import json, sys\n"
              "from test_cold_start import cold_values\n"
              "before = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
              "print(json.dumps({'before': before, 'values': cold_values()}))\n")
    proc, _ = _fresh("-c", script)
    cold = json.loads(proc.stdout)
    assert cold["before"] == []
    assert cold["values"] == cold_values()


def test_import_builds_no_chart_table():
    # the whole-line partition tables fill on first use, so they add nothing to a cold start
    proc, _ = _fresh("-c", "import cpintegral.cli; from cpintegral.extplane import _line_nodes, _line_tags; "
                           "print(_line_nodes.cache_info().currsize, _line_tags.cache_info().currsize)")
    assert proc.stdout.strip() == "0 0"
