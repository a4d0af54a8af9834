"""scipy stays off the path of every command but calibrate: importing the
package and the CLI, and running a sweep (which compares scenarios), load no
scipy module, so start-up does not pay for it. The profile is checked without
jsonschema, and numpy.random is loaded with the CLI, before a sweep forks its
workers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import edsim, edsim.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert scipy_modules() == [], scipy_modules()
code = edsim.cli.main(["sweep", "--scenarios", "C.4", "--replications", "2", "--days", "1",
                       "--out", sys.argv[1]])
assert code == 0, code
assert scipy_modules() == [], scipy_modules()
"""


def test_cli_and_sweep_load_no_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "comparison.csv").exists()


def test_cli_loads_numpy_random_and_no_jsonschema():
    probe = ("import sys, edsim.cli; "
             "print('numpy.random' in sys.modules, [m for m in sys.modules if m.startswith('jsonschema')])")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "[]"]


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node, [node.module or ""]


def test_no_module_imports_jsonschema():
    found = [path.name for path in sorted((SRC / "edsim").glob("*.py"))
             for _node, modules in _imported_modules(ast.parse(path.read_text()))
             if any(m.split(".")[0] == "jsonschema" for m in modules)]
    assert found == []


def test_only_calibrate_imports_scipy():
    found = []
    for path in sorted((SRC / "edsim").glob("*.py")):
        tree = ast.parse(path.read_text())
        # innermost enclosing function of every node (ast.walk visits outer ones first)
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node, modules in _imported_modules(tree):
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append((path.name, owner.get(id(node))))
    assert found == [("calibrate.py", "calibrate")]
