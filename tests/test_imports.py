"""Start-up loads only what the command needs. scipy stays off the path of
every command but calibrate: importing the package and the CLI, and running a
sweep (which compares scenarios), load no scipy module. multiprocessing and
concurrent.futures stay off the path of every run that does not pool: only
a run that pools imports them, and a pooled sweep writes what a serial one
writes. The profile is checked without jsonschema, and numpy.random is loaded
with the CLI, before a sweep forks its workers."""

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
for jobs, out in (("1", sys.argv[1]), ("2", sys.argv[2])):
    code = edsim.cli.main(["sweep", "--scenarios", "C.4", "--replications", "2", "--days", "1",
                           "--jobs", jobs, "--out", out])
    assert code == 0, code
    assert scipy_modules() == [], scipy_modules()
"""


def _run_probe(probe, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _files(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_cli_and_sweep_load_no_scipy(tmp_path):
    serial, pooled = tmp_path / "jobs1", tmp_path / "jobs2"
    _run_probe(PROBE, serial, pooled)
    files = _files(serial)
    assert {"comparison.csv", "reports/baseline.json", "reports/C.4.json"} <= set(files)
    assert _files(pooled) == files


POOL_FREE_PROBE = """
import sys
import edsim.cli

def loaded(*names):
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))

POOL = ("multiprocessing", "concurrent.futures", "logging")
out, small = sys.argv[1], ["--replications", "1", "--days", "1"]
assert loaded(*POOL) == [], loaded(*POOL)
# validate misses its bands at this size, which exits 1
for argv in (["validate", *small], ["run", *small, "--out", out + "/run"],
             ["run", *small, "--jobs", "2", "--out", out + "/run2"]):
    assert edsim.cli.main(argv) in (0, 1), argv
    assert loaded(*POOL) == [], (argv, loaded(*POOL))
# scipy.optimize loads concurrent.futures' base module and logging (through
# numpy.testing), but no pool
assert edsim.cli.main(["calibrate", "--budget", "1", "--probe-replications", "1",
                       "--probe-days", "1", *small, "--out", out + "/cal"]) in (0, 1)
assert loaded("multiprocessing", "concurrent.futures.process") == []
"""


def test_runs_that_do_not_pool_load_no_pool_machinery(tmp_path):
    _run_probe(POOL_FREE_PROBE, tmp_path)


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
